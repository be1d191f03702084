"""Per-layer spans for the traced run, and the per-layer metrics.

:func:`traced` installs wrappers around the public entry points of the
program's inner layers — pipeline, selector, analyzer, partitioner,
codecs, container decode and the in-memory random-access reader — and
removes them when the block ends.  The layers the benchmark calls
directly (CLI, service client, stream, ``ContainerFile``) are timed at
the call site by the workloads.  Codecs are shadowed through the codec
registry the way :func:`repro.testing.chaos.chaos_codec` does it, so a
traced run writes the same containers as an untraced one.
"""

from __future__ import annotations

import contextlib
import weakref
import zlib
from typing import Callable, Iterator

import numpy as np

import repro.core.pipeline as pipeline_mod
import repro.core.random_access as random_access_mod
import repro.core.selector as selector_mod
import repro.core.selector_learned as selector_learned_mod
import repro.core.stream as stream_mod
from repro.codecs.base import Codec, codec_names, get_codec
from repro.core.metadata import ChunkMetadata, ContainerHeader
from repro.core.workspace import ChunkWorkspace
from repro.testing.chaos import chaos_codec

from spans import Span, Tracer, ancestors, roots, self_times

MB = 1_000_000.0

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("cli.calls", "count", "lower"),
    ("cli.io_ms", "ms", "lower"),
    ("service.requests", "count", "higher"),
    ("service.failed", "count", "lower"),
    ("service.compute_ms", "ms", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("pipeline.compress_calls", "count", "lower"),
    ("pipeline.compress_ms", "ms", "lower"),
    ("pipeline.decompress_calls", "count", "lower"),
    ("pipeline.decompress_ms", "ms", "lower"),
    ("pipeline.self_ms", "ms", "lower"),
    ("stream.write_calls", "count", "lower"),
    ("stream.write_ms", "ms", "lower"),
    ("stream.close_ms", "ms", "lower"),
    ("stream.read_ms", "ms", "lower"),
    ("stream.self_ms", "ms", "lower"),
    ("selector.calls", "count", "lower"),
    ("selector.busy_ms", "ms", "lower"),
    ("selector.share", "fraction", "lower"),
    ("selector.probe_bytes_per_input_byte", "B/B", "lower"),
    ("selector.probed_frac", "fraction", "lower"),
    ("selector.failed_candidates", "count", "lower"),
    ("analyzer.calls", "count", "lower"),
    ("analyzer.busy_ms", "ms", "lower"),
    ("analyzer.mb_s", "MB/s", "higher"),
    ("analyzer.improvable_frac", "fraction", "higher"),
    ("partitioner.calls", "count", "lower"),
    ("partitioner.busy_ms", "ms", "lower"),
    ("partitioner.mb_s", "MB/s", "higher"),
    ("partitioner.solver_routed_frac", "B/B", "lower"),
    ("codecs.compress_calls", "count", "lower"),
    ("codecs.compress_ms", "ms", "lower"),
    ("codecs.compress_mb_s", "MB/s", "higher"),
    ("codecs.decompress_calls", "count", "lower"),
    ("codecs.decompress_ms", "ms", "lower"),
    ("codecs.decompress_mb_s", "MB/s", "higher"),
    ("codecs.failures", "count", "lower"),
    ("container.decode_calls", "count", "lower"),
    ("container.decode_ms", "ms", "lower"),
    ("container.overhead_bytes_per_mb", "B/MB", "lower"),
    ("random_access.open_ms", "ms", "lower"),
    ("random_access.reads", "count", "higher"),
    ("random_access.chunk_hit_ratio", "fraction", "higher"),
    ("random_access.chunks_decoded_per_read", "count", "lower"),
    ("random_access.file_bytes_per_read", "B", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.self_sum_frac", "fraction", "higher"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


class ShadowCodec(Codec):
    """Registered under a real codec's name; times every call into it."""

    def __init__(self, inner: Codec, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.releases_gil = inner.releases_gil
        self._tracer = tracer

    def compress(self, data: bytes) -> bytes:
        if self._tracer.suspended:
            return self.inner.compress(data)
        with self._tracer.span(
            "codecs.compress", bytes_in=memoryview(data).nbytes
        ) as span:
            out = self.inner.compress(data)
            span.attrs["bytes_out"] = len(out)
        return out

    def decompress(self, data: bytes) -> bytes:
        if self._tracer.suspended:
            return self.inner.decompress(data)
        with self._tracer.span(
            "codecs.decompress", bytes_in=memoryview(data).nbytes
        ) as span:
            out = self.inner.decompress(data)
            span.attrs["bytes_out"] = len(out)
        return out


def request_key(kind: str, data: object) -> tuple[str, int]:
    """Content key joining a client request to the server's work on it.

    Every request body in the service workload is distinct, so the
    CRC of the body identifies the request on the server side.
    """
    return kind, zlib.crc32(data)


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, bool, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _nbytes(value: object) -> int:
    return int(np.asarray(value).nbytes)


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the layer wrappers for the ``with`` block."""
    patches = _Patches()
    readers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(
        owner: object,
        attr: str,
        span_name: str,
        *,
        before: Callable[..., dict] | None = None,
        after: Callable[[object], dict] | None = None,
        parent: Callable[..., Span | None] | None = None,
    ) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return original(*args, **kwargs)
            attrs = before(*args, **kwargs) if before else {}
            explicit = None
            if parent is not None and tracer.current() is None:
                explicit = parent(*args, **kwargs)
            with tracer.span(span_name, parent=explicit, **attrs) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    span.attrs.update(after(result))
            return result

        patches.set(owner, attr, wrapper)

    # pipeline: the one-shot compressor (CLI and service compress).
    wrap(
        pipeline_mod.IsobarCompressor, "compress_detailed", "pipeline.compress",
        before=lambda self, values, *a, **k: {"bytes_in": _nbytes(values)},
        parent=lambda self, values, *a, **k: tracer.claim(
            request_key("compress", np.ascontiguousarray(values))
        ),
    )
    wrap(
        pipeline_mod.IsobarCompressor, "decompress", "pipeline.decompress",
        before=lambda self, data, *a, **k: {"bytes_in": len(data)},
        after=lambda out: {"bytes_out": _nbytes(out)},
    )
    # selector: every strategy's select().
    for cls in (
        selector_mod.EupaSelector,
        selector_learned_mod.LearnedSelector,
        selector_learned_mod.CachedSelector,
    ):
        wrap(
            cls, "select", "selector.select",
            before=lambda self, values, *a, **k: {"bytes_in": _nbytes(values)},
            after=lambda d: {
                "origin": d.origin,
                "failed": len(d.failed_candidates),
            },
        )
    # analyzer: each module's imported binding.
    for module, attr in (
        (pipeline_mod, "analyze"),
        (pipeline_mod, "analyze_matrix"),
        (stream_mod, "analyze_matrix"),
        (selector_mod, "analyze"),
    ):
        wrap(
            module, attr, "analyzer.analyze",
            before=lambda values, *a, **k: {"bytes_in": _nbytes(values)},
            after=lambda r: {"improvable": bool(r.improvable)},
        )
    # partitioner: the element-array entry point and the workspace path.
    for module in (pipeline_mod, selector_mod):
        wrap(
            module, "partition", "partitioner.partition",
            before=lambda values, *a, **k: {"bytes_in": _nbytes(values)},
        )
    wrap(
        ChunkWorkspace, "partition_streams", "partitioner.partition",
        before=lambda self, matrix, *a, **k: {"bytes_in": _nbytes(matrix)},
    )
    # container: the shared chunk-record decoder, per importing module.
    for module in (pipeline_mod, stream_mod, random_access_mod):
        wrap(module, "decode_chunk_payload", "container.decode")
    # A solver call under a chunk deadline runs on a helper thread; its
    # codec span belongs under the span of the thread that waits for it.
    with_deadline = pipeline_mod.call_with_deadline

    def call_with_deadline(fn, data, deadline_seconds):
        parent = tracer.current()

        def adopted(payload):
            with tracer.adopt(parent):
                return fn(payload)

        return with_deadline(adopted, data, deadline_seconds)

    patches.set(pipeline_mod, "call_with_deadline", call_with_deadline)
    # random_access: the in-memory reader behind /v1/decompress.
    reader_cls = random_access_mod.ContainerReader

    def claim_reader(self, data, *a, **k):
        span = tracer.claim(request_key("decompress", data))
        if span is not None:
            readers[self] = span
        return span

    wrap(reader_cls, "__init__", "random_access.open", parent=claim_reader)
    wrap(
        reader_cls, "read_chunk", "random_access.read",
        before=lambda self, index: {"chunks": 1},
        parent=lambda self, index: readers.get(self),
    )
    try:
        with contextlib.ExitStack() as shadows:
            for name in codec_names():
                shadows.enter_context(
                    chaos_codec(ShadowCodec(get_codec(name), tracer))
                )
            yield tracer
    finally:
        patches.restore()


def container_overhead(payload: bytes) -> int:
    """Container bytes that are not chunk payload: header, chunk
    records and the index footer."""
    header, offset = ContainerHeader.decode(payload)
    stored = 0
    for _ in range(header.n_chunks):
        meta, offset = ChunkMetadata.decode(payload, offset, header.element_width)
        stored += meta.compressed_size + meta.incompressible_size
        offset += meta.compressed_size + meta.incompressible_size
    return len(payload) - stored


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    *,
    untraced_wall: float,
    traced_wall: float,
    overhead_bytes: int,
    container_input_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced run."""
    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)

    def named(name: str, *, outermost: bool = False) -> list[Span]:
        found = [s for s in spans if s.name == name]
        if outermost:
            found = [
                s for s in found
                if not any(a.name == name for a in ancestors(s, by_id))
            ]
        return found

    def total_ms(items: list[Span]) -> float:
        return 1000.0 * sum(s.duration for s in items)

    def self_ms(layer: str) -> float:
        return 1000.0 * sum(own[s.span_id] for s in spans if s.layer == layer)

    def under(span: Span, layer: str) -> bool:
        return any(a.layer == layer for a in ancestors(span, by_id))

    out: dict[str, float] = {}
    cli = named("cli.call")
    out["cli.calls"] = len(cli)
    out["cli.io_ms"] = self_ms("cli")

    requests = named("service.request")
    out["service.requests"] = len(requests)
    out["service.failed"] = sum(1 for s in requests if "error" in s.attrs)
    out["service.overhead_ms"] = self_ms("service")
    out["service.compute_ms"] = total_ms(requests) - out["service.overhead_ms"]

    compress = named("pipeline.compress", outermost=True)
    decompress = named("pipeline.decompress", outermost=True)
    out["pipeline.compress_calls"] = len(compress)
    out["pipeline.compress_ms"] = total_ms(compress)
    out["pipeline.decompress_calls"] = len(decompress)
    out["pipeline.decompress_ms"] = total_ms(decompress)
    out["pipeline.self_ms"] = self_ms("pipeline")

    writes = named("stream.write")
    out["stream.write_calls"] = len(writes)
    out["stream.write_ms"] = total_ms(writes)
    out["stream.close_ms"] = total_ms(named("stream.close"))
    out["stream.read_ms"] = total_ms(named("stream.read"))
    out["stream.self_ms"] = self_ms("stream")

    input_bytes = sum(s.attrs.get("bytes_in", 0) for s in compress + writes)
    compress_busy = out["pipeline.compress_ms"] + out["stream.write_ms"]
    selects = named("selector.select", outermost=True)
    codec_in = [
        (s, s.attrs.get("bytes_in", 0)) for s in named("codecs.compress")
    ]
    probe_bytes = sum(n for s, n in codec_in if under(s, "selector"))
    routed_bytes = sum(n for s, n in codec_in if not under(s, "selector"))
    out["selector.calls"] = len(selects)
    out["selector.busy_ms"] = total_ms(selects)
    out["selector.share"] = _ratio(out["selector.busy_ms"], compress_busy)
    out["selector.probe_bytes_per_input_byte"] = _ratio(probe_bytes, input_bytes)
    out["selector.probed_frac"] = _ratio(
        sum(1 for s in selects if s.attrs.get("origin") == "probe"), len(selects)
    )
    out["selector.failed_candidates"] = sum(
        s.attrs.get("failed", 0) for s in selects
    )

    analyses = named("analyzer.analyze")
    analyzed = sum(s.attrs.get("bytes_in", 0) for s in analyses)
    out["analyzer.calls"] = len(analyses)
    out["analyzer.busy_ms"] = total_ms(analyses)
    out["analyzer.mb_s"] = _ratio(analyzed / MB, out["analyzer.busy_ms"] / 1e3)
    out["analyzer.improvable_frac"] = _ratio(
        sum(1 for s in analyses if s.attrs.get("improvable")), len(analyses)
    )

    parts = named("partitioner.partition")
    parted = sum(s.attrs.get("bytes_in", 0) for s in parts)
    out["partitioner.calls"] = len(parts)
    out["partitioner.busy_ms"] = total_ms(parts)
    out["partitioner.mb_s"] = _ratio(parted / MB, out["partitioner.busy_ms"] / 1e3)
    out["partitioner.solver_routed_frac"] = _ratio(routed_bytes, input_bytes)

    for op, size_key in (("compress", "bytes_in"), ("decompress", "bytes_out")):
        calls = named(f"codecs.{op}")
        moved = sum(s.attrs.get(size_key, 0) for s in calls)
        out[f"codecs.{op}_calls"] = len(calls)
        out[f"codecs.{op}_ms"] = total_ms(calls)
        out[f"codecs.{op}_mb_s"] = _ratio(moved / MB, out[f"codecs.{op}_ms"] / 1e3)
    out["codecs.failures"] = sum(
        1 for s in spans if s.layer == "codecs" and "error" in s.attrs
    )

    out["container.decode_calls"] = len(named("container.decode"))
    out["container.decode_ms"] = self_ms("container")
    out["container.overhead_bytes_per_mb"] = _ratio(
        overhead_bytes, container_input_bytes / MB
    )

    reads = named("random_access.read", outermost=True)
    decoded = sum(
        1 for s in named("container.decode") if under(s, "random_access")
    )
    touched = sum(s.attrs.get("chunks", 0) for s in reads)
    out["random_access.open_ms"] = total_ms(named("random_access.open"))
    out["random_access.reads"] = len(reads)
    out["random_access.chunk_hit_ratio"] = (
        1.0 - _ratio(decoded, touched) if touched else 0.0
    )
    out["random_access.chunks_decoded_per_read"] = _ratio(decoded, len(reads))
    out["random_access.file_bytes_per_read"] = _ratio(
        sum(s.attrs.get("file_bytes", 0) for s in reads), len(reads)
    )

    root_spans = roots(spans)
    out["trace.overhead_frac"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    out["trace.self_sum_frac"] = _ratio(
        sum(own.values()), sum(s.duration for s in root_spans)
    )
    out["trace.spans"] = len(spans)
    return out
