"""Unit tests for the multi-writer aggregation model.

The aggregate-throughput claim is asserted with each rank's
compression timed in process CPU seconds, which other load on the host
does not move; its wall-clock form runs only when selected with
``-m perf``.
"""

import time
import types
from unittest import mock

import numpy as np
import pytest

import repro.analysis.metrics as metrics_mod
from repro.core.exceptions import ConfigurationError, InvalidInputError
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.insitu.aggregation import (
    MultiWriterModel,
    ParallelFileSystem,
)
from repro.insitu.staging import raw_writer


class TestParallelFileSystem:
    def test_fair_share(self):
        fs = ParallelFileSystem(total_bandwidth_mb_s=100.0,
                                per_write_latency_s=0.0)
        # 100 MB over the full bandwidth: 1s; with 4 writers: 4s each.
        assert fs.write_seconds(100_000_000, 1) == pytest.approx(1.0)
        assert fs.write_seconds(100_000_000, 4) == pytest.approx(4.0)

    def test_latency_added(self):
        fs = ParallelFileSystem(total_bandwidth_mb_s=10.0,
                                per_write_latency_s=0.01)
        assert fs.write_seconds(0, 1) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelFileSystem(total_bandwidth_mb_s=0)
        fs = ParallelFileSystem(total_bandwidth_mb_s=1.0)
        with pytest.raises(InvalidInputError):
            fs.write_seconds(-1, 1)
        with pytest.raises(InvalidInputError):
            fs.write_seconds(10, 0)


@pytest.fixture
def model():
    return MultiWriterModel(ParallelFileSystem(total_bandwidth_mb_s=5.0))


@pytest.fixture
def timestep(rng):
    from repro.datasets.synthetic import build_structured

    return build_structured(80_000, np.float64, 6, rng)


class TestMultiWriterModel:
    def test_run_accounting(self, model, timestep):
        partitions = [timestep[:40_000], timestep[40_000:]]
        report = model.run(partitions, raw_writer, "raw")
        assert report.n_ranks == 2
        assert report.raw_bytes == timestep.nbytes
        assert report.stored_bytes == timestep.nbytes
        assert report.makespan_seconds > 0
        assert len(report.outcomes) == 2

    def test_empty_partitions_rejected(self, model):
        with pytest.raises(InvalidInputError):
            model.run([], raw_writer, "raw")

    def test_sweep_covers_all_data(self, model, timestep):
        reports = model.sweep_ranks(timestep, raw_writer, "raw", (1, 3, 8))
        for report in reports:
            assert report.raw_bytes == timestep.nbytes

    def test_sweep_validation(self, model, timestep):
        with pytest.raises(InvalidInputError):
            model.sweep_ranks(timestep, raw_writer, "raw", (0,))

    def test_contention_grows_with_rank_count_for_raw(self, model, timestep):
        """Raw writes: total bytes fixed, so aggregate throughput is
        bandwidth-bound and flat; per-rank write time shrinks with the
        partition but the share shrinks equally."""
        reports = model.sweep_ranks(timestep, raw_writer, "raw", (1, 4))
        # Aggregate throughput stays within latency effects of the
        # device bandwidth at any rank count.
        for report in reports:
            assert report.aggregate_throughput_mb_s == pytest.approx(
                5.0, rel=0.25
            )

    def test_compression_raises_aggregate_throughput_on_slow_fs(
        self, model, timestep
    ):
        clock = types.SimpleNamespace(perf_counter=time.process_time)
        with mock.patch.object(metrics_mod, "time", clock):
            _assert_compression_raises_aggregate_throughput(model, timestep)


def _assert_compression_raises_aggregate_throughput(model, timestep):
    """The headline: per-rank ISOBAR multiplies what the shared file
    system effectively absorbs.  The EUPA decision is fixed once for
    the run (SPMD ranks share it), so per-rank selector sampling does
    not distort the comparison."""
    compressor = IsobarCompressor(IsobarConfig(
        codec="zlib", linearization="column", sample_elements=1024,
    ))
    raw = model.sweep_ranks(timestep, raw_writer, "raw", (4,))[0]
    isobar = model.sweep_ranks(timestep, compressor.compress,
                               "isobar", (4,))[0]
    assert isobar.stored_bytes < raw.stored_bytes
    assert (isobar.aggregate_throughput_mb_s
            > raw.aggregate_throughput_mb_s)


@pytest.mark.perf
@pytest.mark.usefixtures("wall_clock_selected")
def test_compression_raises_aggregate_throughput_wall_clock(model, timestep):
    """The headline claim on wall-clock compression time
    (load-sensitive: run with ``-m perf`` on an idle machine)."""
    _assert_compression_raises_aggregate_throughput(model, timestep)
