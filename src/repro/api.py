"""The stable public facade of the package.

Four entry points cover the everyday workflow:

* :func:`compress` — array in, self-contained ISOBAR container out;
* :func:`decompress` — container in, bit-exact array out, with the
  unified ``errors=`` damage policy;
* :func:`open_stream` — file-to-file streaming in either direction
  (constant memory, crash-safe writes);
* :func:`fsck` — check (and with ``repair=True`` fix) a container
  file's index footer and finalize crashed-writer temp files.

All options funnel through :class:`~repro.core.preferences.IsobarConfig`
— the single keyword-only options object — with the two most common
knobs (``preference``, ``codec``/``linearization`` overrides) available
directly.  Everything here is re-exported at the package root, so
``repro.compress(...)`` is the canonical spelling.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import (
    ERROR_POLICIES,
    IsobarConfig,
    Linearization,
    Preference,
    normalize_errors,
)
from repro.core.fsck import FsckReport
from repro.core.fsck import fsck as _fsck
from repro.core.stream import StreamingWriter, stream_decompress
from repro.core.exceptions import ConfigurationError
from repro.core.selector import SelectorDecision, resolve_selector
from repro.observability.registry import MetricsRegistry

__all__ = [
    "compress",
    "decompress",
    "fsck",
    "open_stream",
    "plan",
    "ERROR_POLICIES",
]


def _resolve_config(
    config: IsobarConfig | None,
    preference: Preference | str | None,
    codec: str | None,
    linearization: Linearization | str | None,
    selector: object | None = None,
) -> IsobarConfig:
    """Fold the convenience keywords into one :class:`IsobarConfig`."""
    base = config or IsobarConfig()
    overrides: dict[str, object] = {}
    if preference is not None:
        overrides["preference"] = Preference.parse(preference)
    if codec is not None:
        overrides["codec"] = codec
    if linearization is not None:
        overrides["linearization"] = Linearization.parse(linearization)
    if selector is not None:
        overrides["selector"] = selector
    return base.replace(**overrides) if overrides else base


def compress(
    values: np.ndarray,
    *,
    preference: Preference | str | None = None,
    codec: str | None = None,
    linearization: Linearization | str | None = None,
    selector: object | None = None,
    config: IsobarConfig | None = None,
) -> bytes:
    """Compress ``values`` into a self-contained ISOBAR container.

    Parameters
    ----------
    values:
        Fixed-width numeric array of any shape.
    preference:
        ``"ratio"`` or ``"speed"`` — the selector's optimisation
        target (defaults to the config's, i.e. ``"ratio"``).
    codec / linearization:
        Optional explicit overrides; unset, the selector decides.
    selector:
        Selection strategy: ``"eupa"`` (default — the paper's timing
        probe), ``"learned"`` (predict-first, probes only when
        uncertain), ``"cached"`` (learned behind a shared decision
        cache) or a :class:`~repro.core.selector.SelectorStrategy`
        instance.  Every strategy honours the other overrides
        identically; the container format never changes.
    config:
        Full :class:`~repro.core.preferences.IsobarConfig`; the other
        keywords are applied on top of it.

    Returns
    -------
    bytes
        A container that :func:`decompress` restores bit-exactly.
    """
    cfg = _resolve_config(config, preference, codec, linearization, selector)
    return IsobarCompressor(cfg).compress(values)


def plan(
    values: np.ndarray,
    *,
    preference: Preference | str | None = None,
    codec: str | None = None,
    linearization: Linearization | str | None = None,
    selector: object | None = None,
    config: IsobarConfig | None = None,
) -> SelectorDecision:
    """Dry-run the selector: the decision for ``values``, no container.

    Runs exactly the selection that :func:`compress` would run — same
    strategy, same candidate restrictions, same seeded sample — and
    returns the :class:`~repro.core.selector.SelectorDecision` with
    its full evaluation/prediction record.  Nothing is compressed
    beyond the strategy's own sample work, so this is the cheap way to
    ask "what would ISOBAR do with this data?" before committing to a
    large run.  Mirrored by ``isobar plan`` and ``POST /v1/plan``.
    """
    cfg = _resolve_config(config, preference, codec, linearization, selector)
    strategy = resolve_selector(cfg)
    return strategy.select(np.asarray(values).reshape(-1))


def decompress(data: bytes, *, errors: str = "raise") -> np.ndarray:
    """Restore the exact original array from an ISOBAR container.

    Parameters
    ----------
    data:
        A container produced by :func:`compress` (or any of the
        pipeline/streaming writers — the format is shared).
    errors:
        Damage policy, uniform across every decoder in the package:
        ``"raise"`` (default) aborts on the first damaged chunk with a
        located exception; ``"salvage-skip"`` drops damaged chunks;
        ``"salvage-zero"`` substitutes zero elements for them.
    """
    return IsobarCompressor().decompress(data, errors=errors)


# isobar: ignore[ISO004] positional `mode` mirrors the builtin open()
def open_stream(
    path: str | os.PathLike,
    mode: str = "r",
    *,
    dtype: np.dtype | None = None,
    config: IsobarConfig | None = None,
    selector: object | None = None,
    atomic: bool = True,
    errors: str = "raise",
    tolerate_unclosed: bool = False,
    metrics: MetricsRegistry | None = None,
) -> StreamingWriter | Iterator[np.ndarray]:
    """Open a container file for streaming compression or decompression.

    ``mode="w"`` returns a :class:`~repro.core.stream.StreamingWriter`
    (usable as a context manager) that appends chunks via
    ``write_chunk`` and atomically publishes the file on ``close()``;
    ``dtype`` is required.  ``mode="r"`` returns an iterator of decoded
    chunks honouring the unified ``errors=`` policy;
    ``tolerate_unclosed=True`` additionally recovers streams whose
    writer crashed before finalising the header.  ``selector`` picks
    the write-side selection strategy exactly as in :func:`compress`
    (``"eupa"`` default; ignored for ``mode="r"`` since reading never
    selects).
    """
    if mode == "w":
        if dtype is None:
            raise ConfigurationError(
                "open_stream(..., mode='w') requires dtype"
            )
        if selector is not None:
            config = (config or IsobarConfig()).replace(selector=selector)
        return StreamingWriter.open(
            path, dtype, config, atomic=atomic, metrics=metrics
        )
    if mode == "r":
        normalize_errors(errors)  # fail fast, not at first iteration
        return stream_decompress(
            path,
            errors=errors,
            tolerate_unclosed=tolerate_unclosed,
            metrics=metrics,
        )
    raise ConfigurationError(
        f"unknown stream mode {mode!r}; expected 'r' or 'w'"
    )


def fsck(path: str | os.PathLike, *, repair: bool = False) -> FsckReport:
    """Check (and optionally repair) a container file and its orphans.

    Validates the chunk chain, the CRC-guarded index footer and any
    ``<path>.tmp.<pid>`` files left by crashed streaming writers.
    With ``repair=True`` a lost/damaged/stale footer is rebuilt from
    the chain (byte-identical when the chain is intact) and orphaned
    temp files whose destination is missing are finalized and
    published atomically.  Lost payload is reported, never fabricated
    — see :func:`repro.core.salvage.salvage_decompress` for data
    recovery.  Returns a :class:`~repro.core.fsck.FsckReport`; the
    ``isobar fsck`` CLI command prints its ``summary_lines()``.
    """
    return _fsck(path, repair=repair)
