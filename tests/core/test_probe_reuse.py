"""The EUPA probe compresses each distinct candidate stream once, and a
single-chunk input stores the winning trial as chunk 0's payload.

Covers exactness (containers recorded before the probe kept its
streams, ``probe_digest_battery.py``), the codec call counts, every
rule guarding the reused stream, and that no trial outlives the call.
"""

import dataclasses
import gc
import json
import pathlib
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.analysis.features import extract_features
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Linearization, Preference
from repro.core.resilience import BreakerState, ResiliencePolicy
from repro.core.selector import (
    EupaSelector,
    ProbeTrial,
    SelectorDecision,
    capture_probe_trial,
)
from repro.core.selector_learned import (
    CachedSelector,
    LearnedSelector,
    OnlineRatioModel,
    SelectorDecisionCache,
)
from repro.datasets.registry import dataset_names, get_dataset
from repro.testing.chaos import (
    ChaosWrapper,
    CorruptingCodec,
    FlakyCodec,
    HangingCodec,
    chaos_codec,
)
from tests.core.probe_digest_battery import (
    COMPRESSORS,
    SELECTORS,
    battery_key,
    sequence_digests,
)

_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "probe_digests.json").read_text()
)
_N = 40_000
_REUSED = "isobar_selector_trials_reused_total"


def _body(family: str, n: int = _N) -> np.ndarray:
    return get_dataset(family).generate(n_elements=n)


class CountingCodec(ChaosWrapper):
    """Counts ``compress`` calls; otherwise the real codec."""

    def __init__(self, inner):
        super().__init__(inner)
        self.compress_calls = 0

    def _before(self, operation, data, ordinal):
        if operation == "compress":
            with self._lock:
                self.compress_calls += 1


def _compress_calls(compressor, values) -> int:
    zlib_, bzip2_ = CountingCodec("zlib"), CountingCodec("bzip2")
    with chaos_codec(zlib_), chaos_codec(bzip2_):
        compressor.compress(values)
    return zlib_.compress_calls + bzip2_.compress_calls


def _reused(compressor) -> float:
    return compressor.metrics.get(_REUSED).value()


def _pinned(**overrides) -> IsobarConfig:
    base = dict(codec="zlib", linearization=Linearization.ROW)
    base.update(overrides)
    return IsobarConfig(**base)


@pytest.mark.parametrize("family", dataset_names())
def test_containers_match_recorded_digests(family):
    for preference in Preference:
        for selector in SELECTORS:
            expected = _DIGESTS[battery_key(family, preference, selector)]
            for compressor in COMPRESSORS:
                got = sequence_digests(family, preference, selector, compressor)
                assert got == expected, (preference, selector, compressor)


class TestCallCounts:
    def test_improvable_single_chunk_compresses_four_times(self):
        # 2 codecs x 2 linearization streams; chunk 0 stores the winner.
        assert _compress_calls(IsobarCompressor(), _body("gts_chkp_zion")) == 4

    def test_undetermined_single_chunk_compresses_twice(self):
        # One passthrough stream serves both linearizations.
        assert _compress_calls(IsobarCompressor(), _body("obs_error")) == 2

    def test_undetermined_multi_chunk(self):
        config = IsobarConfig(chunk_elements=40_000)
        values = _body("obs_error", 150_000)
        # Two probe compressions, then every one of the 4 chunks.
        assert _compress_calls(IsobarCompressor(config), values) == 2 + 4

    def test_parallel_single_chunk_reuses(self):
        compressor = ParallelIsobarCompressor(n_workers=2)
        assert _compress_calls(compressor, _body("obs_error")) == 2

    @pytest.mark.parametrize("family", ["gts_chkp_zion", "obs_error"])
    def test_decision_record_keeps_every_candidate(self, family):
        decision = EupaSelector().select(_body(family))
        rows = [(c.codec_name, c.linearization) for c in decision.candidates]
        assert rows == [
            ("zlib", Linearization.ROW), ("zlib", Linearization.COLUMN),
            ("bzip2", Linearization.ROW), ("bzip2", Linearization.COLUMN),
        ]

    def test_shared_stream_candidates_tie_in_candidate_order(self):
        # An undetermined sample gives both linearizations one stream,
        # so their rows are equal and the first one wins either way.
        for preference in Preference:
            decision = EupaSelector(IsobarConfig(preference=preference)).select(
                _body("obs_error")
            )
            by_codec = {}
            for cand in decision.candidates:
                by_codec.setdefault(cand.codec_name, []).append(cand)
            for row, column in by_codec.values():
                assert row.compressed_bytes == column.compressed_bytes
                assert row.compress_seconds == column.compress_seconds
            assert decision.linearization is Linearization.ROW


class TestReuseRules:
    def test_reused_chunk_accounting(self):
        compressor = IsobarCompressor(collect_metrics=True)
        result = compressor.compress_detailed(_body("gts_chkp_zion"))
        (chunk,) = result.chunks
        assert _reused(compressor) == 1
        assert (chunk.attempts, chunk.retries, chunk.degraded) == (1, 0, False)
        # The solve span still carries the chunk's bytes.
        stage_bytes = compressor.metrics.get
        solved_in = stage_bytes("isobar_stage_bytes_in_total").value(
            stage="solve"
        )
        solved_out = stage_bytes("isobar_stage_bytes_out_total").value(
            stage="solve"
        )
        assert solved_in == chunk.solver_bytes
        assert solved_in == compressor.last_report.solver_bytes
        assert solved_out == (
            chunk.stored_bytes - chunk.metadata_bytes - chunk.noise_bytes
        )

    @pytest.mark.parametrize("n, chunk_elements", [
        (65_537, 375_000),  # the sample is drawn, not the whole input
        (_N, 20_000),       # the sample is whole, but spans two chunks
    ])
    def test_no_reuse_unless_sample_is_the_single_chunk(self, n, chunk_elements):
        compressor = IsobarCompressor(
            IsobarConfig(chunk_elements=chunk_elements), collect_metrics=True
        )
        compressor.compress(_body("gts_chkp_zion", n))
        assert _reused(compressor) == 0

    def test_stream_must_equal_the_chunks_solver_input(self):
        # The probe times an undetermined sample's native bytes; chunk 0
        # solves little-endian bytes, so a big-endian body compresses
        # for itself.
        values = _body("obs_error").astype(">f8")
        compressor = IsobarCompressor(collect_metrics=True)
        payload = compressor.compress(values)
        assert _reused(compressor) == 0
        assert np.array_equal(IsobarCompressor().decompress(payload), values)

    @pytest.mark.parametrize("strategy", ["learned", "cached"])
    def test_only_probed_decisions_reuse(self, strategy):
        config = IsobarConfig()
        selector = LearnedSelector(config, model=OnlineRatioModel())
        if strategy == "cached":
            selector = CachedSelector(
                config, cache=SelectorDecisionCache(), inner=selector
            )
        compressor = IsobarCompressor(
            config.replace(selector=selector), collect_metrics=True
        )
        values = _body("gts_chkp_zion")
        results = [compressor.compress_detailed(values) for _ in range(3)]
        origins = [r.decision.origin for r in results]
        assert origins[0] == "probe"
        replayed = "predicted" if strategy == "learned" else "cached"
        assert origins[-1] == replayed
        assert _reused(compressor) == origins.count("probe")
        assert {r.payload for r in results} == {results[0].payload}

    def test_corrupting_codec_still_degrades(self):
        policy = ResiliencePolicy(verify_roundtrip=True, breaker_threshold=100)
        values = _body("gts_chkp_zion")
        with chaos_codec(CorruptingCodec("zlib", corrupt_percent=100.0)):
            compressor = IsobarCompressor(
                _pinned(resilience=policy), collect_metrics=True
            )
            result = compressor.compress_detailed(values)
        (chunk,) = result.chunks
        assert chunk.degraded and chunk.cause == "error"
        assert chunk.attempts == policy.max_attempts
        assert _reused(compressor) == 0
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(restored, values)

    def test_open_breaker_short_circuits_chunk_zero(self):
        policy = ResiliencePolicy(
            max_attempts=1, breaker_threshold=1, breaker_probe_after=10_000,
        )
        compressor = IsobarCompressor(
            _pinned(resilience=policy), collect_metrics=True
        )
        compressor.breakers.for_codec("zlib").record_failure()
        assert compressor.breakers.for_codec("zlib").state is BreakerState.OPEN
        counting = CountingCodec("zlib")
        with chaos_codec(counting):
            result = compressor.compress_detailed(_body("gts_chkp_zion"))
        (chunk,) = result.chunks
        assert (chunk.cause, chunk.attempts) == ("breaker_open", 0)
        assert counting.compress_calls == 1  # the probe's trial only
        assert _reused(compressor) == 0

    def test_trial_slower_than_deadline_is_not_reused(self):
        policy = ResiliencePolicy(
            max_attempts=1, chunk_deadline_seconds=0.05, breaker_threshold=100,
        )
        hanging = HangingCodec("zlib", hang_seconds=0.2, hang_percent=100.0)
        with chaos_codec(hanging):
            compressor = IsobarCompressor(
                _pinned(resilience=policy), collect_metrics=True
            )
            result = compressor.compress_detailed(_body("gts_chkp_zion"))
        (chunk,) = result.chunks
        assert chunk.degraded and chunk.cause == "timeout"
        assert hanging.hangs == 2  # the trial, then chunk 0's own attempt
        assert _reused(compressor) == 0

    def test_trial_within_deadline_is_reused(self):
        policy = ResiliencePolicy(chunk_deadline_seconds=30.0)
        compressor = IsobarCompressor(
            _pinned(resilience=policy), collect_metrics=True
        )
        result = compressor.compress_detailed(_body("gts_chkp_zion"))
        assert result.degradation.clean and _reused(compressor) == 1

    def test_failed_candidate_is_never_reused(self):
        values = _body("gts_chkp_zion")
        reference = IsobarCompressor(_pinned()).compress(values)
        # The only candidate's trial fails; the selector falls back to
        # it unevaluated and chunk 0 compresses for itself.
        flaky = FlakyCodec("zlib", fail_percent=0.0, fail_calls=(1,))
        with chaos_codec(flaky):
            compressor = IsobarCompressor(
                _pinned(resilience=ResiliencePolicy()), collect_metrics=True
            )
            result = compressor.compress_detailed(values)
        assert result.decision.candidates == ()
        assert flaky.calls == 2 and _reused(compressor) == 0
        assert result.payload == reference

    def test_failed_winner_is_never_reused(self):
        values = _body("gts_chkp_zion")
        reference = IsobarCompressor(IsobarConfig(codec="zlib")).compress(values)
        # bzip2 would win on ratio, but every bzip2 trial fails.
        with chaos_codec(FlakyCodec("bzip2", fail_percent=100.0)):
            compressor = IsobarCompressor(collect_metrics=True)
            result = compressor.compress_detailed(values)
        assert {f.codec_name for f in result.decision.failed_candidates} == {
            "bzip2"
        }
        assert result.decision.codec_name == "zlib"
        assert _reused(compressor) == 1
        assert result.payload == reference


class TestNoTrialOutlivesTheCall:
    def test_decision_shape_unchanged(self):
        assert [f.name for f in dataclasses.fields(SelectorDecision)] == [
            "codec_name", "linearization", "preference", "improvable",
            "candidates", "sample_elements", "failed_candidates", "origin",
            "predictions",
        ]
        decision = EupaSelector().select(_body("gts_chkp_zion"))
        assert set(decision.to_dict()) == {
            "codec", "linearization", "preference", "improvable", "origin",
            "sample_elements", "candidates", "predictions",
            "failed_candidates",
        }
        assert "ProbeTrial" not in repr(decision)

    def test_trials_exist_only_inside_a_capture(self):
        selector = EupaSelector()
        values = _body("obs_error")
        selector.select(values)
        assert not _live_trials()
        with capture_probe_trial() as trials:
            decision = selector.select(values)
        (trial,) = trials
        assert (trial.codec.name, trial.linearization) == (
            decision.codec_name, decision.linearization
        )
        assert trial.sample_elements == values.size
        del trials, trial
        assert not _live_trials()

    def test_result_holds_neither_input_nor_trial(self):
        values = _body("gts_chkp_zion")
        ref = weakref.ref(values)
        result = IsobarCompressor().compress_detailed(values)
        del values
        assert not _live_trials()
        assert ref() is None
        assert not _holds_buffers(result.decision)

    def test_cache_never_stores_a_trial(self):
        config = IsobarConfig()
        cache = SelectorDecisionCache()
        selector = CachedSelector(
            config, cache=cache,
            inner=LearnedSelector(config, model=OnlineRatioModel()),
        )
        IsobarCompressor(config.replace(selector=selector)).compress(
            _body("gts_chkp_zion")
        )
        assert len(cache) == 1
        assert not _live_trials()

    def test_cache_hit_encodes_its_own_body(self):
        config = IsobarConfig()
        cache = SelectorDecisionCache()
        selector = CachedSelector(
            config, cache=cache,
            inner=LearnedSelector(config, model=OnlineRatioModel()),
        )
        compressor = IsobarCompressor(config.replace(selector=selector))
        body_a = _body("gts_chkp_zion")
        # Same byte-column statistics, different bytes.
        body_b = (body_a.view(np.uint64) ^ np.uint64(0x5A)).view(np.float64)
        assert (
            extract_features(body_a).cache_key()
            == extract_features(body_b).cache_key()
        )
        compressor.compress(body_a)
        result = compressor.compress_detailed(body_b)
        assert cache.stats()["hits"] == 1
        assert result.decision.origin == "cached"
        reference = IsobarCompressor(IsobarConfig(
            codec=result.decision.codec_name,
            linearization=result.decision.linearization,
        )).compress(body_b)
        assert result.payload == reference
        assert np.array_equal(
            IsobarCompressor().decompress(result.payload), body_b
        )

    def test_shared_compressor_across_threads(self):
        # As the service shares one compressor per parameter set.
        families = ("gts_chkp_zion", "obs_error", "obs_info", "msg_bt")
        bodies = [
            [
                _body(families[(t + i) % len(families)], 1_000 + 97 * i)
                for i in range(25)
            ]
            for t in range(2)
        ]
        expected = [
            [IsobarCompressor().compress(body) for body in group]
            for group in bodies
        ]
        shared = IsobarCompressor(collect_metrics=True)
        got = [[None] * 25 for _ in range(2)]
        errors = []

        def client(t):
            try:
                for i, body in enumerate(bodies[t]):
                    got[t][i] = shared.compress(body)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two requests finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert got == expected
        assert _reused(shared) == 50


def _live_trials() -> list:
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, ProbeTrial)]


def _holds_buffers(obj) -> bool:
    """Whether a (nested) dataclass value holds an array or byte buffer."""
    if isinstance(obj, (np.ndarray, bytes, bytearray, memoryview, ProbeTrial)):
        return True
    if dataclasses.is_dataclass(obj):
        return any(
            _holds_buffers(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (tuple, list)):
        return any(_holds_buffers(item) for item in obj)
    return False
