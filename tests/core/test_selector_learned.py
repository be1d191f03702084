"""Predict-first selection: model, decision cache, strategies, registry."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro
from repro.core.exceptions import ConfigurationError
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.selector import (
    EupaSelector,
    SelectorStrategy,
    register_selector_strategy,
    resolve_selector,
    selector_strategy_names,
)
from repro.core.selector_learned import (
    AUDIT_EVERY,
    AUDIT_MAX_REGRET,
    CachedSelector,
    LearnedSelector,
    OnlineRatioModel,
    SelectorDecisionCache,
    size_bucket,
)
from repro.datasets import dataset_names, generate_dataset


@pytest.fixture
def improvable(scope="module"):
    return generate_dataset("gts_phi_l", n_elements=60_000, seed=0)


def _features_of(values, config):
    from repro.analysis.features import extract_features

    sample = EupaSelector(config).draw_sample(values)
    return np.asarray(extract_features(sample).vector())


class TestOnlineRatioModel:
    X = np.array([1.0, 0.5, 0.2, 0.9, 0.1, 0.0, 0.3, 0.2, 0.4, 0.0, 0.8, 0.75])

    def test_unseen_candidate_is_not_confident(self):
        model = OnlineRatioModel()
        ratio, throughput, confident = model.predict(self.X, "zlib", "row")
        assert not confident
        assert np.isnan(ratio) and np.isnan(throughput)

    def test_two_repeats_make_a_confident_accurate_prediction(self):
        model = OnlineRatioModel()
        for _ in range(2):
            model.observe(self.X, "zlib", "row", ratio=2.5, throughput=1e8)
        ratio, throughput, confident = model.predict(self.X, "zlib", "row")
        assert confident
        assert ratio == pytest.approx(2.5, rel=0.05)
        assert throughput == pytest.approx(1e8, rel=0.1)

    def test_one_observation_is_not_enough(self):
        model = OnlineRatioModel()
        model.observe(self.X, "zlib", "row", ratio=2.5, throughput=1e8)
        assert not model.predict(self.X, "zlib", "row")[2]

    def test_novel_direction_has_high_leverage(self):
        model = OnlineRatioModel()
        for _ in range(3):
            model.observe(self.X, "zlib", "row", ratio=2.5, throughput=1e8)
        far = np.roll(self.X, 3)
        assert not model.predict(far, "zlib", "row")[2]

    def test_drifting_targets_push_residual_up(self):
        model = OnlineRatioModel(max_residual=0.05)
        # Wildly inconsistent ratios for the same features: the
        # one-step-ahead residual EMA must disable confidence.
        for ratio in (1.2, 9.0, 1.1, 8.5):
            model.observe(self.X, "zlib", "row", ratio=ratio, throughput=1e8)
        assert not model.predict(self.X, "zlib", "row")[2]

    def test_targets_are_independent_per_candidate(self):
        model = OnlineRatioModel()
        model.observe(self.X, "zlib", "row", ratio=2.0, throughput=1e8)
        assert model.observation_count("zlib", "row") == 1
        assert model.observation_count("bzip2", "row") == 0

    def test_targets_are_independent_per_size_bucket(self):
        model = OnlineRatioModel()
        for _ in range(3):
            model.observe(
                self.X, "zlib", "row", ratio=2.5, throughput=1e8, bucket=11
            )
        assert model.predict(self.X, "zlib", "row", bucket=11)[2]
        ratio, _, confident = model.predict(self.X, "zlib", "row", bucket=15)
        assert not confident and np.isnan(ratio)

    def test_size_bucket_is_floor_log2(self):
        assert [size_bucket(n) for n in (1, 2047, 2048, 4095, 40_000)] == [
            0, 10, 11, 11, 15,
        ]

    def test_audit_counter_picks_every_nth_decision(self):
        model = OnlineRatioModel()
        due = [model.audit_due() for _ in range(3 * AUDIT_EVERY)]
        assert [i for i, d in enumerate(due) if d] == [
            AUDIT_EVERY - 1, 2 * AUDIT_EVERY - 1, 3 * AUDIT_EVERY - 1,
        ]

    def test_audit_counter_loses_no_update_under_threads(self):
        model = OnlineRatioModel()
        threads_n, calls = 8, 40 * AUDIT_EVERY
        audits = [0] * threads_n

        def tick(index):
            audits[index] = sum(model.audit_due() for _ in range(calls))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=tick, args=(i,))
                for i in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert sum(audits) == threads_n * calls // AUDIT_EVERY

    def test_demoting_audit_resets_only_its_bucket(self):
        model = OnlineRatioModel()
        for bucket in (11, 15):
            model.observe(
                self.X, "zlib", "row", ratio=2.0, throughput=1e8,
                bucket=bucket,
            )
        assert not model.record_audit(11, AUDIT_MAX_REGRET)
        assert model.observation_count("zlib", "row", bucket=11) == 1
        assert model.record_audit(11, 2 * AUDIT_MAX_REGRET)
        assert model.observation_count("zlib", "row", bucket=11) == 0
        assert model.observation_count("zlib", "row", bucket=15) == 1
        stats = model.audit_stats()
        assert (stats["kept"], stats["demoted"]) == (1, 1)
        assert stats["last_regret"] == 2 * AUDIT_MAX_REGRET


class TestSelectorDecisionCache:
    def test_hit_miss_and_stats(self):
        cache = SelectorDecisionCache()
        assert cache.get(("k",)) is None
        cache.put(("k",), "decision")
        assert cache.get(("k",)) == "decision"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = SelectorDecisionCache(ttl_seconds=10.0, clock=lambda: now[0])
        cache.put(("k",), "decision")
        now[0] = 9.0
        assert cache.get(("k",)) == "decision"
        now[0] = 21.0
        assert cache.get(("k",)) is None
        assert cache.stats()["expirations"] == 1

    def test_lru_eviction(self):
        cache = SelectorDecisionCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))  # refresh a
        cache.put(("c",), 3)  # evicts b, the least recently used
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3
        assert cache.stats()["evictions"] == 1

    def test_clear_and_len(self):
        cache = SelectorDecisionCache()
        cache.put(("k",), 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_bad_capacity_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            SelectorDecisionCache(max_entries=0)


class TestLearnedSelector:
    CONFIG = IsobarConfig(sample_elements=4096, selector_seed=11)

    def test_cold_start_probes_then_predicts(self, improvable):
        learned = LearnedSelector(self.CONFIG, model=OnlineRatioModel())
        first = learned.select(improvable)
        assert first.origin == "probe"
        assert first.candidates  # measured numbers from the probe
        second = learned.select(improvable)
        third = learned.select(improvable)
        assert third.origin == "predicted"
        assert not third.candidates and third.predictions
        assert all(p.confident for p in third.predictions)

    def test_predicted_choice_matches_oracle_within_bound(self, improvable):
        learned = LearnedSelector(self.CONFIG, model=OnlineRatioModel())
        for _ in range(3):
            decision = learned.select(improvable)
        assert decision.origin == "predicted"
        oracle = EupaSelector(self.CONFIG).select(improvable)
        measured = {
            (c.codec_name, c.linearization): c.ratio
            for c in oracle.candidates
        }
        chosen = measured[(decision.codec_name, decision.linearization)]
        best = max(measured.values())
        assert chosen >= 0.95 * best  # <= 5% ratio regret

    def test_uncertain_model_falls_back_to_probe(self, improvable):
        # A model trained on very different content must not be
        # confident about this payload.
        model = OnlineRatioModel()
        other = np.random.default_rng(5).integers(
            0, 2**62, size=20_000, dtype=np.int64
        ).view(np.float64)
        warm = LearnedSelector(self.CONFIG, model=model)
        for _ in range(3):
            warm.select(other)
        decision = LearnedSelector(self.CONFIG, model=model).select(improvable)
        assert decision.origin == "probe"

    def test_predict_path_failure_degrades_to_probe(self, improvable):
        class BrokenModel(OnlineRatioModel):
            def predict(self, *args, **kwargs):
                raise RuntimeError("boom")

        learned = LearnedSelector(self.CONFIG, model=BrokenModel())
        decision = learned.select(improvable)
        assert decision.origin == "probe"
        assert "boom" in learned.last_degrade

    def test_predicted_decision_container_roundtrips(self, improvable):
        learned = LearnedSelector(self.CONFIG, model=OnlineRatioModel())
        for _ in range(3):
            learned.select(improvable)
        config = self.CONFIG.replace(selector=learned)
        payload = IsobarCompressor(config).compress(improvable)
        # The unchanged default decoder restores it bit-exactly.
        restored = IsobarCompressor().decompress(payload)
        np.testing.assert_array_equal(restored, improvable)

    def test_prediction_metrics_are_recorded(self, improvable):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        learned = LearnedSelector(
            self.CONFIG, metrics=registry, model=OnlineRatioModel()
        )
        for _ in range(3):
            learned.select(improvable)
        counter = registry.get("isobar_selector_predictions_total")
        assert counter.value(outcome="probed") == 2
        assert counter.value(outcome="predicted") == 1


class TestCachedSelector:
    CONFIG = IsobarConfig(sample_elements=4096, selector_seed=11)

    def _cached(self, cache=None):
        return CachedSelector(
            self.CONFIG,
            cache=cache if cache is not None else SelectorDecisionCache(),
            inner=LearnedSelector(self.CONFIG, model=OnlineRatioModel()),
        )

    def test_miss_populates_hit_replays(self, improvable):
        cached = self._cached()
        first = cached.select(improvable)
        assert first.origin == "probe"
        second = cached.select(improvable)
        assert second.origin == "cached"
        assert second.codec_name == first.codec_name
        assert cached.cache.stats()["hits"] == 1

    def test_ttl_expiry_forces_a_fresh_decision(self, improvable):
        now = [0.0]
        cache = SelectorDecisionCache(ttl_seconds=30.0, clock=lambda: now[0])
        cached = self._cached(cache)
        cached.select(improvable)
        now[0] = 10.0
        assert cached.select(improvable).origin == "cached"
        now[0] = 100.0
        assert cached.select(improvable).origin != "cached"
        assert cache.stats()["expirations"] == 1

    def test_config_change_invalidates(self, improvable):
        cache = SelectorDecisionCache()
        cached = self._cached(cache)
        cached.select(improvable)
        changed = IsobarConfig(
            sample_elements=2048, selector_seed=11
        )
        other = CachedSelector(
            changed,
            cache=cache,
            inner=LearnedSelector(changed, model=OnlineRatioModel()),
        )
        # Same cache object, different config fingerprint: a miss.
        assert other.select(improvable).origin != "cached"
        assert cache.stats()["misses"] >= 2

    def test_cached_decision_container_roundtrips(self, improvable):
        cached = self._cached()
        cached.select(improvable)
        config = self.CONFIG.replace(selector=cached)
        payload = IsobarCompressor(config).compress(improvable)
        np.testing.assert_array_equal(
            IsobarCompressor().decompress(payload), improvable
        )


def _regret(decision, oracle) -> float:
    measured = {
        (c.codec_name, c.linearization): c.ratio for c in oracle.candidates
    }
    best = max(measured.values())
    return (best - measured[(decision.codec_name, decision.linearization)]) / best


class TestMixedSizes:
    """A model trained on small samples must not answer for large ones."""

    CONFIG = IsobarConfig(chunk_elements=2048)

    def test_small_chunk_training_keeps_large_body_regret_low(self):
        regrets = {}
        for name in dataset_names():
            values = generate_dataset(name, n_elements=40_000)
            learned = LearnedSelector(self.CONFIG, model=OnlineRatioModel())
            for i in range(16):
                learned.select(values[i * 2048:(i + 1) * 2048])
            decision = learned.select(values)
            # The 40 000-element sample's size bucket is untrained.
            assert decision.origin == "probe", name
            oracle = EupaSelector(self.CONFIG).select(values)
            regrets[name] = _regret(decision, oracle)
        mean = sum(regrets.values()) / len(regrets)
        assert mean <= 0.01, regrets

    def test_cache_key_separates_size_buckets(self, monkeypatch):
        from repro.analysis.features import extract_features
        from repro.core import selector_learned

        values = generate_dataset("gts_phi_l", n_elements=40_000, seed=0)
        small = values[:2048]
        fixed = extract_features(small)
        # Same quantized features for every sample, whatever its size.
        monkeypatch.setattr(
            selector_learned, "extract_features", lambda sample: fixed
        )
        cached = CachedSelector(
            self.CONFIG,
            cache=SelectorDecisionCache(),
            inner=LearnedSelector(self.CONFIG, model=OnlineRatioModel()),
        )
        assert cached.select(small).origin == "probe"
        assert cached.select(small).origin == "cached"
        assert cached.select(values).origin == "probe"
        assert len(cached.cache) == 2


class TestAudits:
    CONFIG = IsobarConfig(sample_elements=4096, selector_seed=11)

    def test_every_nth_predicted_decision_is_audited(self, improvable):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        model = OnlineRatioModel()
        learned = LearnedSelector(self.CONFIG, metrics=registry, model=model)
        origins = [learned.select(improvable).origin for _ in range(2)]
        assert origins == ["probe", "probe"]  # cold start
        origins = [
            learned.select(improvable).origin for _ in range(AUDIT_EVERY)
        ]
        assert origins[:-1] == ["predicted"] * (AUDIT_EVERY - 1)
        assert origins[-1] == "probe"  # the audit serves the probe
        stats = model.audit_stats()
        assert stats["kept"] + stats["demoted"] == 1
        assert stats["last_regret"] is not None
        audits = registry.get("isobar_selector_audits_total")
        assert audits.value(outcome="kept") + audits.value(
            outcome="demoted"
        ) == 1

    def test_demoting_audit_evicts_entry_and_resets_bucket(self, improvable):
        oracle = EupaSelector(self.CONFIG).select(improvable)
        worst = min(oracle.candidates, key=lambda c: c.ratio)
        assert _regret(worst, oracle) > AUDIT_MAX_REGRET  # precondition
        # Poison the model so it confidently picks the worst candidate.
        model = OnlineRatioModel()
        x = _features_of(improvable, self.CONFIG)
        bucket = size_bucket(self.CONFIG.sample_elements)
        for cand in oracle.candidates:
            ratio = 50.0 if cand is worst else 1.0
            for _ in range(2):
                model.observe(
                    x, cand.codec_name, cand.linearization,
                    ratio=ratio, throughput=1e8, bucket=bucket,
                )
        cache = SelectorDecisionCache()
        cached = CachedSelector(
            self.CONFIG,
            cache=cache,
            inner=LearnedSelector(self.CONFIG, model=model),
        )
        first = cached.select(improvable)
        assert first.origin == "predicted"
        assert (first.codec_name, first.linearization) == (
            worst.codec_name, worst.linearization,
        )
        origins = [
            cached.select(improvable).origin for _ in range(AUDIT_EVERY - 1)
        ]
        assert origins[:-1] == ["cached"] * (AUDIT_EVERY - 2)
        # The last one was the audit: it served the probe's decision.
        assert origins[-1] == "probe"
        assert model.audit_stats()["demoted"] == 1
        assert len(cache) == 0
        assert model.observation_count(
            worst.codec_name, worst.linearization, bucket=bucket
        ) == 0
        again = cached.select(improvable)
        assert again.origin == "probe"
        assert (again.codec_name, again.linearization) == (
            oracle.codec_name, oracle.linearization,
        )


class TestStrategyRegistry:
    def test_builtin_names_are_listed(self):
        names = selector_strategy_names()
        assert {"eupa", "learned", "cached"} <= set(names)

    def test_resolve_by_name(self, improvable):
        for name, cls in (
            ("eupa", EupaSelector),
            ("learned", LearnedSelector),
            ("cached", CachedSelector),
        ):
            strategy = resolve_selector(IsobarConfig(selector=name))
            assert isinstance(strategy, cls)
            assert isinstance(strategy, SelectorStrategy)

    def test_unknown_name_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown selector"):
            resolve_selector(IsobarConfig(selector="nonsense"))

    def test_instance_passthrough(self):
        learned = LearnedSelector(IsobarConfig())
        assert resolve_selector(IsobarConfig(selector=learned)) is learned

    def test_duplicate_registration_requires_replace(self):
        register_selector_strategy(
            "test-dupe", lambda config, metrics: EupaSelector(config)
        )
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_selector_strategy(
                    "test-dupe", lambda config, metrics: EupaSelector(config)
                )
            register_selector_strategy(
                "test-dupe",
                lambda config, metrics: EupaSelector(config),
                replace=True,
            )
        finally:
            from repro.core import selector as selector_module

            with selector_module._STRATEGY_LOCK:
                selector_module._STRATEGIES.pop("test-dupe", None)

    def test_concurrent_registration_and_resolution(self, improvable):
        errors = []
        names = [f"test-threaded-{i}" for i in range(16)]

        def register(name):
            try:
                register_selector_strategy(
                    name,
                    lambda config, metrics: EupaSelector(config),
                    replace=True,
                )
                resolve_selector(IsobarConfig(selector=name))
                assert name in selector_strategy_names()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=register, args=(n,)) for n in names
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
        finally:
            from repro.core import selector as selector_module

            with selector_module._STRATEGY_LOCK:
                for name in names:
                    selector_module._STRATEGIES.pop(name, None)


class TestFacadeIntegration:
    def test_compress_accepts_selector_names(self, improvable):
        for name in ("eupa", "learned", "cached"):
            blob = repro.compress(improvable, selector=name)
            np.testing.assert_array_equal(repro.decompress(blob), improvable)

    def test_default_selector_is_eupa(self):
        assert IsobarConfig().selector == "eupa"

    def test_library_default_probes_every_call(self, improvable):
        # No decision is replayed by default: every call is EUPA's.
        for _ in range(2):
            assert repro.plan(improvable).origin == "probe"
            detailed = IsobarCompressor().compress_detailed(improvable)
            assert detailed.decision.origin == "probe"

    def test_config_rejects_non_strategy_objects(self):
        with pytest.raises(ConfigurationError, match="selector"):
            IsobarConfig(selector=42)

    def test_selector_seed_reproduces_the_sample_draw(self, improvable):
        a = EupaSelector(
            IsobarConfig(sample_elements=4096, selector_seed=99)
        ).draw_sample(improvable)
        b = EupaSelector(
            IsobarConfig(sample_elements=4096, selector_seed=99, seed=1)
        ).draw_sample(improvable)
        c = EupaSelector(
            IsobarConfig(sample_elements=4096, selector_seed=5)
        ).draw_sample(improvable)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_plan_is_a_dry_run(self, improvable):
        decision = repro.plan(improvable)
        assert decision.codec_name
        doc = decision.to_dict()
        assert doc["origin"] == "probe"
        assert doc["candidates"]
