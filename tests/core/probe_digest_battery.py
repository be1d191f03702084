"""Container digest battery for the selector probe's stream reuse.

Every dataset-registry family is compressed at sizes where chunk 0 may
store the probe's winning stream (1 000 / 40 000 / 65 536 elements:
the sample is the whole single-chunk input) and where it may not
(65 537 elements: the sample is drawn; 1 000 elements at 500-element
chunks: the sample is whole but spans two chunks), under both
preferences, the ``eupa``, ``learned`` and ``cached`` selectors and the
serial and parallel compressors.  ``test_probe_reuse.py`` asserts the
digests recorded in ``probe_digests.json`` before the probe kept its
streams.

SPEED decisions rank measured throughput, so the probe clock is frozen
(every candidate times 0 s and ties resolve in candidate order): the
digests are then a function of the data alone.  The learned and cached
selectors start from a fresh model and cache per sequence, so no other
test can change what they decide.  Four ``learned`` digests — the
65 537-element run of ``msg_bt`` and ``obs_error`` under both
preferences — were re-recorded when model targets became keyed by
sample-size bucket: that run's bucket has one observation, so it probes
instead of predicting, and its digest is now the ``eupa`` one.

Record the digests of a checkout's ``src`` from this repository's
root with::

    PYTHONPATH=<checkout>/src:. python -m tests.core.probe_digest_battery \
        > tests/core/probe_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import types
from typing import Iterator

import repro.core.selector as selector_mod
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Preference
from repro.core.selector_learned import (
    CachedSelector,
    LearnedSelector,
    OnlineRatioModel,
    SelectorDecisionCache,
)
from repro.datasets.registry import dataset_names, get_dataset

#: Sizes compressed with the default config (375 000-element chunks,
#: 65 536-element sample), in order.
DEFAULT_CHUNK_SIZES = (1_000, 40_000, 65_536, 65_537)
#: Two chunks of this size close every sequence.
SMALL_CHUNK = 500
SELECTORS = ("eupa", "learned", "cached")
COMPRESSORS = ("serial", "parallel")


@contextlib.contextmanager
def frozen_probe_clock() -> Iterator[None]:
    """Every probe timing reads 0 s while the block runs."""
    real = selector_mod.time
    selector_mod.time = types.SimpleNamespace(perf_counter=lambda: 0.0)
    try:
        yield
    finally:
        selector_mod.time = real


def _selector(name: str, config: IsobarConfig):
    if name == "eupa":
        return "eupa"
    learned = LearnedSelector(config, model=OnlineRatioModel())
    if name == "learned":
        return learned
    return CachedSelector(config, cache=SelectorDecisionCache(), inner=learned)


def _compressor(kind: str, config: IsobarConfig) -> IsobarCompressor:
    if kind == "serial":
        return IsobarCompressor(config)
    return ParallelIsobarCompressor(config, n_workers=2)


def sequence_digests(
    family: str, preference: Preference, selector: str, compressor: str
) -> list[str]:
    """Container digests (16 hex digits) of one family's size sequence."""
    spec = get_dataset(family)
    base = IsobarConfig(preference=preference)
    config = base.replace(selector=_selector(selector, base))
    default = _compressor(compressor, config)
    small = _compressor(
        compressor, config.replace(chunk_elements=SMALL_CHUNK)
    )
    runs = [(default, n) for n in DEFAULT_CHUNK_SIZES]
    runs.append((small, 2 * SMALL_CHUNK))
    digests = []
    with frozen_probe_clock():
        for engine, n in runs:
            payload = engine.compress(spec.generate(n_elements=n))
            digests.append(hashlib.sha256(payload).hexdigest()[:16])
    return digests


def battery_key(family: str, preference: Preference, selector: str) -> str:
    return f"{family}/{preference.value}/{selector}"


def record() -> dict[str, list[str]]:
    """The whole battery; serial and parallel must agree."""
    out = {}
    for family in dataset_names():
        for preference in Preference:
            for selector in SELECTORS:
                serial, parallel = (
                    sequence_digests(family, preference, selector, kind)
                    for kind in COMPRESSORS
                )
                if serial != parallel:
                    raise AssertionError(
                        f"{battery_key(family, preference, selector)}: "
                        f"serial {serial} != parallel {parallel}"
                    )
                out[battery_key(family, preference, selector)] = serial
    return out


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
