"""Pipelined parallel chunk compression (a natural in-situ extension).

Chunks are compressed independently in the ISOBAR workflow (Section
II-D), so the work maps onto the pipelined block-worker engine
(:mod:`repro.core.pipeline_engine`): a bounded feed queue of chunk
jobs, ``n_workers`` workers running the codec calls, sequence-numbered
ordered reassembly, and a ``max_inflight`` backpressure bound so huge
streams never buffer more than a fixed number of blocks.

Worker *threads* scale the hot paths whose C cores release the GIL —
numpy byte-column histograms and the zlib/bz2/lzma/isal solvers.  For
pure-python solvers (``codec.releases_gil`` is false) the engine
routes the codec calls to a shared process pool with shared-memory
payload transfer instead (:mod:`repro.codecs.procpool`), falling back
to in-thread execution for ad-hoc codecs that a fresh process could
not resolve (chaos wrappers, test doubles) — so fault-injection
behaves identically in serial and parallel modes.

:class:`ParallelIsobarCompressor` only supplies the chunk map: the
serial :class:`~repro.core.pipeline.IsobarCompressor` drives both
directions (selection, framing, the strict chain walk) and hands its
per-chunk jobs to ``_map_chunks``, which this subclass runs on the
engine.  Results are reassembled in submission order regardless of
worker completion order, so the two produce byte-for-byte the same
containers and read each other's streams.

With ``collect_metrics=True`` the workers record into one shared,
thread-safe tracer and registry, so per-stage seconds and chunk
counters equal the serial pipeline's totals for the same input (CPU
time is summed across workers; only the wall clock shrinks).  The
engine additionally exports queue-depth / in-flight gauges and
per-worker wait-time counters (see ``docs/observability.md``).
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.codecs.base import Codec
from repro.codecs.procpool import worker_codec_for
from repro.core.exceptions import ConfigurationError
from repro.core.pipeline import IsobarCompressor
from repro.core.pipeline_engine import PipelinedBlockRunner, RunnerStats
from repro.core.preferences import IsobarConfig
from repro.observability.registry import MetricsRegistry

__all__ = ["ParallelIsobarCompressor"]

_JobT = TypeVar("_JobT")
_ResultT = TypeVar("_ResultT")


class ParallelIsobarCompressor(IsobarCompressor):
    """ISOBAR pipeline with pipelined per-chunk parallelism.

    Parameters
    ----------
    config:
        Workflow configuration (as for the serial compressor).
    n_workers:
        Pipeline worker count; 1 degenerates to serial execution.
    max_inflight:
        Backpressure bound: maximum chunk blocks fed to workers but not
        yet reassembled.  Defaults to ``max(2 * n_workers, 4)``.  Peak
        buffered memory is roughly ``max_inflight`` chunk payloads on
        top of the input/output arrays.
    collect_metrics / metrics:
        As for the serial compressor; workers aggregate into one
        thread-safe registry, so counters match a serial run's.
    """

    def __init__(
        self,
        config: IsobarConfig | None = None,
        n_workers: int = 4,
        *,
        max_inflight: int | None = None,
        collect_metrics: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be positive, got {n_workers}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        super().__init__(
            config, collect_metrics=collect_metrics, metrics=metrics
        )
        self._n_workers = n_workers
        self._max_inflight = max_inflight
        #: Engine accounting from the most recent parallel run (None
        #: until a multi-chunk parallel path has executed); tests use
        #: ``peak_inflight`` to assert the backpressure bound held.
        self.last_runner_stats: RunnerStats | None = None

    @property
    def n_workers(self) -> int:
        """Configured pipeline worker count."""
        return self._n_workers

    @property
    def max_inflight(self) -> int | None:
        """Configured backpressure bound (None = engine default)."""
        return self._max_inflight

    def _map_chunks(
        self,
        name: str,
        jobs: Iterable[_JobT],
        run: Callable[[int, _JobT, Codec], _ResultT],
        codec: Codec,
    ) -> list[_ResultT]:
        """Run the chunk jobs through the pipelined engine, in order.

        Workers call the codec through :func:`worker_codec_for` — the
        codec itself when its C core releases the GIL, a process-pool
        proxy for registered pure-python codecs, unchanged otherwise.
        A failing chunk never poisons the engine: under a resilience
        policy the chunk is retried serially with the *original* codec
        (the resilient encoder degrades it instead of failing), so one
        poisoned chunk costs one serial retry, never the run.  Without
        a policy (or when the serial retry fails too) the runner is
        cancelled — running workers finish their block, queued blocks
        never start (``cancel_futures`` semantics) — and the original
        exception propagates.
        """
        items = list(jobs)
        if self._n_workers == 1 or len(items) <= 1:
            return super()._map_chunks(name, items, run, codec)
        policy = self._config.resilience
        worker_codec = worker_codec_for(codec, self._n_workers)
        runner: PipelinedBlockRunner = PipelinedBlockRunner(
            self._n_workers,
            max_inflight=self._max_inflight,
            name=name,
            instruments=(
                self._instruments if self._metrics.enabled else None
            ),
        )
        self.last_runner_stats = runner.stats

        def _job(index: int, job: _JobT) -> _ResultT:
            return run(index, job, worker_codec)

        results: list[_ResultT] = []
        for block in runner.run(items, _job):
            if block.error is None:
                assert block.value is not None
                results.append(block.value)
                continue
            if (
                policy is None
                or policy.strict
                or not isinstance(block.error, Exception)
            ):
                runner.cancel()
                raise block.error
            try:
                results.append(run(block.seq, items[block.seq], codec))
            except Exception:
                runner.cancel()
                raise
        return results
