"""The four workloads: seeded inputs, one operation loop each, checks.

Each workload builds its inputs from the seed in :meth:`setup`, then
:meth:`run` repeats whole *units* (a set of files, a client request, a
read session, a checkpoint cycle) until ``seconds`` have passed and at
least ``min_units`` are done, or exactly ``units`` when replaying a
run.  Every operation's output is checked; the checking time is kept
out of the latencies and its thread CPU out of the CPU metric.  A
traced run passes a :class:`~spans.Tracer` and records spans around
every call the workload makes into the program.
"""

from __future__ import annotations

import contextlib
import filecmp
import hashlib
import io
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

import repro
from repro.cli import main as cli_main
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile
from repro.core.selector_learned import shared_decision_cache
from repro.datasets.loaders import save_raw
from repro.datasets.registry import generate_dataset
from repro.service import ServiceClient, ServiceConfig, ServiceThread

from layers import container_overhead, request_key
from spans import Tracer

#: Dataset-registry files of the file workload, 1.5M elements (4 default
#: 375 000-element chunks) each: improvable float64 (two noise levels),
#: improvable float32, an int64 identifier stream, and an undetermined
#: float64 dataset that bypasses the partitioner.
FILE_DATASETS = ("gts_chkp_zion", "obs_info", "s3d_temp", "xgc_igid", "obs_error")
FILE_ELEMENTS = 1_500_000

#: Service body families: two improvable, two undetermined float64.
SERVICE_FAMILIES = ("gts_chkp_zion", "num_comet", "obs_error", "msg_bt")
SERVICE_VARIANTS = 4
SERVICE_ELEMENTS = 40_000
SERVICE_CLIENTS = 2

#: Range-read archive: 32 chunks of 65 536 float64; each session's
#: reader caches 8 decoded chunks, a quarter of the archive.
ARCHIVE_CHUNKS = 32
ARCHIVE_CHUNK_ELEMENTS = 65_536
READER_CACHE_CHUNKS = 8
READS_PER_SESSION = 128
ZIPF_EXPONENT = 1.6
MAX_READ_ELEMENTS = 4096

#: Checkpoint stream: each cycle writes 8 timesteps of 131 072 float64
#: drawn from a pool of 16, one write_chunk call per timestep.
TIMESTEP_ELEMENTS = 131_072
TIMESTEP_POOL = 16
TIMESTEPS_PER_CHECKPOINT = 8

MAX_ERRORS_KEPT = 5


@dataclass
class Tally:
    """What one run of a workload measured."""

    op_ms: list[float] = field(default_factory=list)
    decompress_ms: list[float] = field(default_factory=list)
    compress_ops: int = 0
    compress_bytes: int = 0
    compress_s: float = 0.0
    #: True when the compress figures come from set-up, not the loop.
    compress_in_setup: bool = False
    decompress_bytes: int = 0
    decompress_s: float = 0.0
    #: Containers behind ``raw_bytes``/``stored_bytes`` (the ratio).
    containers: int = 0
    raw_bytes: int = 0
    stored_bytes: int = 0
    overhead_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    check_cpu_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    units: object = 0
    digests: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    def merge(self, other: "Tally") -> None:
        for name in (
            "compress_ops", "compress_bytes", "compress_s", "decompress_bytes",
            "decompress_s", "containers", "raw_bytes", "stored_bytes",
            "overhead_bytes",
            "attempted", "failed", "check_cpu_s",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.op_ms += other.op_ms
        self.decompress_ms += other.decompress_ms
        self.digests.update(other.digests)
        self.errors += other.errors[: MAX_ERRORS_KEPT - len(self.errors)]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def checking(tally: Tally, tracer: Tracer | None) -> Iterator[None]:
    """Run the benchmark's own output check: untraced, and its thread
    CPU kept out of the CPU metric."""
    start = time.thread_time()
    with tracer.suspend() if tracer is not None else contextlib.nullcontext():
        yield
    tally.check_cpu_s += time.thread_time() - start


def maybe_span(tracer: Tracer | None, name: str, **attrs):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


class Workload:
    """Common set-up bookkeeping; subclasses build inputs and run units."""

    name = ""
    #: Smallest number of units for the p50 latencies to have at least
    #: ten samples beyond them.
    min_units = 1

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run(
        self,
        *,
        seconds: float | None = None,
        units: object = None,
        tracer: Tracer | None = None,
        min_units: int = 1,
    ) -> Tally:
        """Run units for ``seconds`` (and at least ``min_units``), or
        exactly ``units`` of them; trace them when ``tracer`` is given."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired."""

    def scale(self) -> dict:
        """Workload size, stated against the program's own caches."""
        raise NotImplementedError

    @staticmethod
    def _more(done: int, start: float, seconds: float | None,
              units: int | None, min_units: int) -> bool:
        if units is not None:
            return done < units
        return (
            done < min_units
            or time.perf_counter() - start < float(seconds or 0.0)
        )


def _seed_for(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


# -- file_roundtrip -------------------------------------------------------


class FileRoundtrip(Workload):
    """CLI file to file, in-process: compress then decompress each file."""

    name = "file_roundtrip"
    min_units = 4  # sets of 5 files: 20 round trips

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for i, dataset in enumerate(FILE_DATASETS):
            values = generate_dataset(
                dataset, FILE_ELEMENTS, seed=_seed_for(self.seed, i)
            )
            raw = self.workdir / f"{dataset}.rds"
            save_raw(raw, values)
            self.files.append(raw)
        order_rng = np.random.default_rng(_seed_for(self.seed, 10))
        self.order = [int(i) for i in order_rng.permutation(len(self.files))]

    def scale(self) -> dict:
        return {
            "files": list(FILE_DATASETS),
            "elements_per_file": FILE_ELEMENTS,
            "chunks_per_file": FILE_ELEMENTS // IsobarConfig().chunk_elements,
        }

    def _cli(self, argv: list[str], tracer: Tracer | None) -> None:
        sink = io.StringIO()
        with maybe_span(tracer, "cli.call", command=argv[0]):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli_main(argv)
        if code != 0:
            raise RuntimeError(
                f"isobar {argv[0]} exited {code}: {sink.getvalue()[-300:]}"
            )

    def run(self, *, seconds=None, units=None, tracer=None,
            min_units=1) -> Tally:
        tally = Tally()
        start = time.perf_counter()
        done = 0
        while self._more(done, start, seconds, units, min_units):
            for i in self.order:
                raw = self.files[i]
                out = raw.with_suffix(".isobar")
                back = raw.with_suffix(".back.rds")
                tally.attempted += 1
                try:
                    t0 = time.perf_counter()
                    self._cli(["compress", str(raw), str(out)], tracer)
                    t1 = time.perf_counter()
                    self._cli(["decompress", str(out), str(back)], tracer)
                    t2 = time.perf_counter()
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    tally.fail(f"{raw.name}: {exc!r}")
                    continue
                with checking(tally, tracer):
                    same = filecmp.cmp(raw, back, shallow=False)
                    payload = out.read_bytes()
                if not same:
                    tally.fail(f"{raw.name}: round trip differs")
                    continue
                size = raw.stat().st_size
                tally.op_ms.append(1e3 * (t2 - t0))
                tally.decompress_ms.append(1e3 * (t2 - t1))
                tally.compress_ops += 1
                tally.compress_bytes += size
                tally.compress_s += t1 - t0
                tally.decompress_bytes += size
                tally.decompress_s += t2 - t1
                tally.containers += 1
                tally.raw_bytes += size
                tally.stored_bytes += len(payload)
                tally.overhead_bytes += container_overhead(payload)
                tally.digests[(done, raw.name)] = digest(payload)
            done += 1
        tally.units = done
        return tally


# -- service_mixed --------------------------------------------------------


class ServiceMixed(Workload):
    """Closed loop: 2 client threads against an in-process service."""

    name = "service_mixed"
    min_units = 40  # requests per client

    def setup(self) -> None:
        if getattr(self, "handle", None) is not None:
            self.handle.stop()
        self.bases = [
            generate_dataset(
                family, SERVICE_ELEMENTS, seed=_seed_for(self.seed, f, v)
            )
            for f, family in enumerate(SERVICE_FAMILIES)
            for v in range(SERVICE_VARIANTS)
        ]
        self.handle = ServiceThread(ServiceConfig())
        self.host, self.port = self.handle.start()
        # Warm-up: lazy imports, the native histogram kernel, executors.
        client = ServiceClient(self.host, self.port, max_retries=0)
        for base in self.bases[:: SERVICE_VARIANTS]:
            client.decompress(client.compress(base).payload)

    def close(self) -> None:
        if getattr(self, "handle", None) is not None:
            self.handle.stop()
            self.handle = None

    def scale(self) -> dict:
        return {
            "clients": SERVICE_CLIENTS,
            "body_elements": SERVICE_ELEMENTS,
            "distinct_feature_sets": len(SERVICE_FAMILIES) * SERVICE_VARIANTS,
            "selector": IsobarConfig().selector,
            "decision_cache_entries": (
                shared_decision_cache().stats()["max_entries"]
            ),
        }

    def body(self, client: int, k: int, j: int) -> tuple[int, np.ndarray]:
        """Family and body of request ``k``, the ``j``-th compress, of
        ``client``: a base array XOR-ed with a per-request tag in its low
        bytes.  XOR with a constant permutes each byte column's values,
        so every body is distinct while its byte-column statistics —
        what the selector and analyzer see — repeat exactly.  Families
        rotate, so every run compresses the same mix."""
        family = (j + client) % len(SERVICE_FAMILIES)
        variant = (j // len(SERVICE_FAMILIES)) % SERVICE_VARIANTS
        base = self.bases[family * SERVICE_VARIANTS + variant]
        tag = np.uint64(1 + client + SERVICE_CLIENTS * k)
        return family, (base.view(np.uint64) ^ tag).view(np.float64)

    def _client_loop(self, index: int, seconds, units, tracer, start,
                     min_units, out: list) -> None:
        tally = Tally()
        client = ServiceClient(self.host, self.port, max_retries=0)
        pick = np.random.default_rng(_seed_for(self.seed, 200 + index))
        # The latest container of each family, for decompress requests.
        latest: dict[int, tuple[bytes, np.ndarray]] = {}
        k = j = d = 0
        while self._more(k, start, seconds, units, min_units):
            tally.attempted += 1
            # One request in four decompresses, at seeded random points:
            # a fixed pattern would lock the two clients' phases.  Their
            # families rotate too: an undetermined container takes a few
            # times longer to decode than an improvable one.
            if pick.random() < 0.25 and latest:
                family = (d + index) % len(SERVICE_FAMILIES)
                payload, source = latest.get(family, next(iter(latest.values())))
                d += 1
                key = request_key("decompress", payload)
                try:
                    t0 = time.perf_counter()
                    with maybe_span(tracer, "service.request", route="decompress") as span:
                        if tracer is not None:
                            tracer.expect(key, span)
                        values = client.decompress(payload)
                    t1 = time.perf_counter()
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    tally.fail(f"client {index} request {k}: {exc!r}")
                else:
                    with checking(tally, tracer):
                        same = np.array_equal(
                            values.view(np.uint8), source.view(np.uint8)
                        )
                    if same:
                        tally.op_ms.append(1e3 * (t1 - t0))
                        tally.decompress_ms.append(1e3 * (t1 - t0))
                        tally.decompress_bytes += values.nbytes
                        tally.decompress_s += t1 - t0
                    else:
                        tally.fail(f"client {index} request {k}: wrong body")
            else:
                family, body = self.body(index, k, j)
                j += 1
                key = request_key("compress", body)
                try:
                    t0 = time.perf_counter()
                    with maybe_span(tracer, "service.request", route="compress") as span:
                        if tracer is not None:
                            tracer.expect(key, span)
                        payload = client.compress(body).payload
                    t1 = time.perf_counter()
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    tally.fail(f"client {index} request {k}: {exc!r}")
                else:
                    with checking(tally, tracer):
                        same = np.array_equal(
                            repro.decompress(payload).view(np.uint8),
                            body.view(np.uint8),
                        )
                        overhead = container_overhead(payload)
                    if same:
                        tally.op_ms.append(1e3 * (t1 - t0))
                        tally.compress_ops += 1
                        tally.compress_bytes += body.nbytes
                        tally.compress_s += t1 - t0
                        if k < self.min_units:
                            # The ratio covers the same requests each run.
                            tally.containers += 1
                            tally.raw_bytes += body.nbytes
                            tally.stored_bytes += len(payload)
                            tally.overhead_bytes += overhead
                        tally.digests[(index, k)] = digest(payload)
                        latest[family] = (payload, body)
                    else:
                        tally.fail(f"client {index} request {k}: bad container")
            k += 1
        tally.units = k
        out[index] = tally

    def run(self, *, seconds=None, units=None, tracer=None,
            min_units=1) -> Tally:
        per_client: list = [None] * SERVICE_CLIENTS
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(
                    i, seconds, None if units is None else units[i],
                    tracer, start, min_units, per_client,
                ),
                name=f"bench-client-{i}",
            )
            for i in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally = Tally()
        for part in per_client:
            if part is None:
                tally.fail("client thread died")
                continue
            tally.merge(part)
        tally.units = [p.units if p is not None else 0 for p in per_client]
        return tally


# -- range_reads ----------------------------------------------------------


class CountingFile(io.RawIOBase):
    """A read-only file that counts the bytes read through it."""

    def __init__(self, path: Path):
        self._inner = open(path, "rb")
        self.bytes_read = 0

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        data = self._inner.read(size)
        self.bytes_read += len(data)
        return data

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        self._inner.close()
        super().close()


class RangeReads(Workload):
    """Sessions of seeded Zipf-skewed range reads over one archive.

    One operation is one session: open the archive, read, close.  A
    single cache hit takes microseconds, too little to time steadily on
    a shared host; per-read latencies are still reported as tails.
    """

    name = "range_reads"
    min_units = 1

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        # One independently seeded slab per chunk: decode cost follows the
        # data, and 32 slabs average out what one random walk would not.
        self.values = np.concatenate([
            generate_dataset(
                "gts_chkp_zion", ARCHIVE_CHUNK_ELEMENTS,
                seed=_seed_for(self.seed, 1, chunk),
            )
            for chunk in range(ARCHIVE_CHUNKS)
        ])
        config = IsobarConfig(chunk_elements=ARCHIVE_CHUNK_ELEMENTS)
        start = time.perf_counter()
        payload = repro.compress(self.values, config=config)
        self.build_times = getattr(self, "build_times", [])
        self.build_times.append(time.perf_counter() - start)
        self.archive = self.workdir / "archive.isobar"
        self.archive.write_bytes(payload)
        self.archive_bytes = len(payload)
        self.archive_overhead = container_overhead(payload)
        # Chunk popularity: Zipf over a seeded ranking of the chunks.
        ranking = np.random.default_rng(_seed_for(self.seed, 20)).permutation(
            ARCHIVE_CHUNKS
        )
        weights = 1.0 / np.arange(1, ARCHIVE_CHUNKS + 1) ** ZIPF_EXPONENT
        self.popularity = np.empty(ARCHIVE_CHUNKS)
        self.popularity[ranking] = weights / weights.sum()

    def scale(self) -> dict:
        return {
            "archive_chunks": ARCHIVE_CHUNKS,
            "chunk_elements": ARCHIVE_CHUNK_ELEMENTS,
            "cache_chunks": READER_CACHE_CHUNKS,
            "reads_per_session": READS_PER_SESSION,
            "zipf_exponent": ZIPF_EXPONENT,
        }

    def session_reads(self, session: int) -> list[tuple[int, int]]:
        """The seeded reads of one session: ``(start, stop)`` pairs."""
        rng = np.random.default_rng(_seed_for(self.seed, 300, session))
        chunks = rng.choice(ARCHIVE_CHUNKS, READS_PER_SESSION, p=self.popularity)
        lengths = np.exp(
            rng.uniform(0.0, np.log(MAX_READ_ELEMENTS + 1), READS_PER_SESSION)
        ).astype(np.int64)
        lengths = np.clip(lengths, 1, MAX_READ_ELEMENTS)
        offsets = rng.integers(0, ARCHIVE_CHUNK_ELEMENTS, READS_PER_SESSION)
        total = self.values.size
        reads = []
        for chunk, length, offset in zip(chunks, lengths, offsets):
            start = int(chunk) * ARCHIVE_CHUNK_ELEMENTS + int(offset)
            reads.append((start, min(start + int(length), total)))
        return reads

    def run(self, *, seconds=None, units=None, tracer=None,
            min_units=1) -> Tally:
        tally = Tally()
        start = time.perf_counter()
        session = 0
        while self._more(session, start, seconds, units, min_units):
            reads = self.session_reads(session)
            source = CountingFile(self.archive) if tracer is not None else None
            try:
                t0 = time.perf_counter()
                with maybe_span(tracer, "random_access.open"):
                    reader = ContainerFile(
                        source if source is not None else self.archive,
                        cache_chunks=READER_CACHE_CHUNKS,
                    )
                session_s = time.perf_counter() - t0
                failed = tally.failed
                with reader:
                    for lo, hi in reads:
                        tally.attempted += 1
                        touched = (hi - 1) // ARCHIVE_CHUNK_ELEMENTS - (
                            lo // ARCHIVE_CHUNK_ELEMENTS
                        ) + 1
                        before = source.bytes_read if source is not None else 0
                        try:
                            t0 = time.perf_counter()
                            with maybe_span(tracer, "random_access.read",
                                            chunks=touched) as span:
                                got = reader.read_range(lo, hi)
                            t1 = time.perf_counter()
                        except Exception as exc:  # noqa: BLE001 - counted
                            tally.fail(f"read [{lo}, {hi}): {exc!r}")
                            continue
                        if span is not None:
                            span.attrs["file_bytes"] = source.bytes_read - before
                        with checking(tally, tracer):
                            same = np.array_equal(
                                got.view(np.uint8),
                                self.values[lo:hi].view(np.uint8),
                            )
                        if not same:
                            tally.fail(f"read [{lo}, {hi}): wrong values")
                            continue
                        session_s += t1 - t0
                        tally.decompress_ms.append(1e3 * (t1 - t0))
                        tally.decompress_bytes += got.nbytes
                        tally.decompress_s += t1 - t0
                if tally.failed == failed:
                    tally.op_ms.append(1e3 * session_s)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                tally.attempted += 1
                tally.fail(f"session {session}: {exc!r}")
            finally:
                if source is not None:
                    source.close()
            session += 1
        tally.units = session
        # The archive is written once per set-up; it stands for the
        # write side of this workload.
        tally.compress_in_setup = True
        tally.compress_ops = len(self.build_times)
        tally.compress_bytes = self.values.nbytes
        tally.compress_s = statistics.median(self.build_times)
        tally.containers = 1
        tally.raw_bytes = self.values.nbytes
        tally.stored_bytes = self.archive_bytes
        tally.overhead_bytes = self.archive_overhead
        return tally


# -- stream_checkpoint ----------------------------------------------------


class StreamCheckpoint(Workload):
    """Checkpoint cycles through ``repro.open_stream``: write, close, read."""

    name = "stream_checkpoint"
    min_units = 20

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.timesteps = [
            generate_dataset(
                "gts_chkp_zeon", TIMESTEP_ELEMENTS, seed=_seed_for(self.seed, t)
            )
            for t in range(TIMESTEP_POOL)
        ]

    def scale(self) -> dict:
        return {
            "timesteps_per_checkpoint": TIMESTEPS_PER_CHECKPOINT,
            "timestep_elements": TIMESTEP_ELEMENTS,
            "timestep_pool": TIMESTEP_POOL,
        }

    def window(self, cycle: int) -> list[np.ndarray]:
        first = (cycle * 3) % TIMESTEP_POOL
        return [
            self.timesteps[(first + j) % TIMESTEP_POOL]
            for j in range(TIMESTEPS_PER_CHECKPOINT)
        ]

    def run(self, *, seconds=None, units=None, tracer=None,
            min_units=1) -> Tally:
        tally = Tally()
        start = time.perf_counter()
        cycle = 0
        path = self.workdir / "checkpoint.isobar"
        while self._more(cycle, start, seconds, units, min_units):
            steps = self.window(cycle)
            tally.attempted += 1
            try:
                t0 = time.perf_counter()
                with maybe_span(tracer, "stream.open", mode="w"):
                    writer = repro.open_stream(path, "w", dtype=np.float64)
                for step in steps:
                    with maybe_span(tracer, "stream.write", bytes_in=step.nbytes):
                        writer.write_chunk(step)
                with maybe_span(tracer, "stream.close"):
                    writer.close()
                t1 = time.perf_counter()
                chunks = []
                reader = iter(repro.open_stream(path, "r"))
                while True:
                    with maybe_span(tracer, "stream.read"):
                        chunk = next(reader, None)
                    if chunk is None:
                        break
                    chunks.append(chunk)
                t2 = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                tally.fail(f"cycle {cycle}: {exc!r}")
                cycle += 1
                continue
            with checking(tally, tracer):
                same = len(chunks) == len(steps) and all(
                    np.array_equal(a.view(np.uint8), b.view(np.uint8))
                    for a, b in zip(chunks, steps)
                )
                payload = path.read_bytes()
            if not same:
                tally.fail(f"cycle {cycle}: read back differs")
            else:
                size = sum(step.nbytes for step in steps)
                tally.op_ms.append(1e3 * (t2 - t0))
                tally.decompress_ms.append(1e3 * (t2 - t1))
                tally.compress_ops += 1
                tally.compress_bytes += size
                tally.compress_s += t1 - t0
                tally.decompress_bytes += size
                tally.decompress_s += t2 - t1
                if cycle < TIMESTEP_POOL:
                    # Windows repeat after a pool's worth of cycles; the
                    # ratio covers each window once, the same every run.
                    tally.containers += 1
                    tally.raw_bytes += size
                    tally.stored_bytes += len(payload)
                    tally.overhead_bytes += container_overhead(payload)
                tally.digests[cycle] = digest(payload)
            cycle += 1
        tally.units = cycle
        return tally


WORKLOADS = {
    cls.name: cls
    for cls in (FileRoundtrip, ServiceMixed, RangeReads, StreamCheckpoint)
}
