"""Tests of the benchmark's own logic.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json

import numpy as np
import pytest

import repro
from repro.codecs.base import codec_registry_snapshot
from run import END_TO_END, ROOT
from layers import PER_LAYER, ShadowCodec, layer_metrics, traced
from spans import Span, Tracer, percentile, self_times, tail_percentile


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "n, q, reported",
    [
        (19, 50, False),
        (20, 50, True),
        (99, 90, False),
        (100, 90, True),
        (999, 99, False),
        (1000, 99, True),
    ],
)
def test_percentile_needs_ten_samples_beyond(n, q, reported):
    samples = [float(i) for i in range(n)]
    value = percentile(samples, q)
    assert (value is not None) == reported
    if reported:
        assert sum(1 for s in samples if s > value) >= 10


def test_percentile_is_nearest_rank():
    samples = list(reversed([float(i) for i in range(1, 101)]))
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0


def test_tail_percentile_takes_highest_reportable():
    assert tail_percentile([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert tail_percentile([float(i) for i in range(150)]) == (90.0, 134.0)
    assert tail_percentile([float(i) for i in range(50)]) is None


# -- span self-time arithmetic ------------------------------------------------


def _span(span_id, start, end, parent=None):
    return Span(span_id, f"layer{span_id}.op", start, end, parent)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 5.0, 9.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert sum(own.values()) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 5.0, parent=1),
        _span(3, 4.0, 7.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_clips_children_to_parent():
    spans = [_span(1, 0.0, 4.0), _span(2, 3.0, 6.0, parent=1)]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(3.0)


def test_tracer_links_threads_by_content_key():
    import threading

    tracer = Tracer()
    with tracer.span("service.request") as request:
        tracer.expect("key", request)

        def server():
            with tracer.span("pipeline.compress", parent=tracer.claim("key")):
                pass

        worker = threading.Thread(target=server)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    child = next(s for s in tracer.spans if s.name == "pipeline.compress")
    assert child.parent == request.span_id
    assert child.request == request.request


# -- shadow-codec transparency ----------------------------------------------


def test_traced_run_writes_identical_containers():
    values = np.cumsum(np.random.default_rng(5).normal(size=20_000))
    plain = repro.compress(values)
    before = codec_registry_snapshot()
    tracer = Tracer()
    with traced(tracer):
        assert all(
            isinstance(codec, ShadowCodec)
            for codec in codec_registry_snapshot().values()
        )
        shadowed = repro.compress(values)
        restored = repro.decompress(shadowed)
    assert shadowed == plain
    assert np.array_equal(restored, values)
    assert codec_registry_snapshot() == before
    names = {s.name for s in tracer.spans}
    assert {"pipeline.compress", "selector.select", "codecs.compress",
            "codecs.decompress", "container.decode"} <= names
    # Wrappers are gone: a further run records nothing.
    count = len(tracer.spans)
    repro.compress(values)
    assert len(tracer.spans) == count


def test_layer_self_times_add_up_to_roots():
    values = np.cumsum(np.random.default_rng(6).normal(size=20_000))
    tracer = Tracer()
    with traced(tracer):
        with tracer.span("cli.call"):
            repro.decompress(repro.compress(values))
    metrics = layer_metrics(
        tracer.spans, untraced_wall=1.0, traced_wall=1.0,
        overhead_bytes=0, container_input_bytes=values.nbytes,
    )
    assert metrics["trace.self_sum_frac"] == pytest.approx(1.0)
    assert metrics["pipeline.compress_calls"] == 1
    assert metrics["selector.calls"] == 1
    assert set(metrics) == {name for name, _, _ in PER_LAYER}


# -- BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_lists_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
    ]
    from run import TRACE_ROOTS

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(TRACE_ROOTS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- comparing results -------------------------------------------------------


def test_compare_flags_different_backends():
    from compare import compare

    env = {"histcore_backend": "native", "python": "3.11.7",
           "numpy": "2.4.6", "machine": "x86_64", "effective_cpus": 1.0}
    first = {"environment": env,
             "metrics": {"ratio": {"value": 2.0, "unit": "x"}}}
    second = {"environment": {**env, "effective_cpus": 1.9},
              "metrics": {"ratio": {"value": 2.2, "unit": "x"}}}
    lines, different = compare(first, second)
    assert not different
    assert "+10.0%" in lines[-1]
    second["environment"]["histcore_backend"] = "fallback"
    _, different = compare(first, second)
    assert different == ["histcore_backend: 'native' vs 'fallback'"]
