"""Unit tests for the simulated storage / staging pipeline.

The storage-economics claims (slow storage rewards compression, fast
storage rewards raw writes) are asserted with compression timed in
process CPU seconds over fixed steps, which other load on the host
does not move — the speed preference's probe included; their
wall-clock form runs only when selected with ``-m perf``.
"""

import time
import types
from unittest import mock

import numpy as np
import pytest

import repro.core.selector as selector_mod
import repro.insitu.staging as staging_mod
from repro.core.exceptions import ConfigurationError, InvalidInputError
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Preference
from repro.insitu.staging import (
    StagingSimulator,
    StorageModel,
    raw_writer,
)
from repro.insitu.simulation import FieldSimulation, SimulationConfig


class TestStorageModel:
    def test_write_time_formula(self):
        model = StorageModel(bandwidth_mb_s=100.0, latency_s=0.01)
        # 100 MB at 100 MB/s = 1 s + latency.
        assert model.write_seconds(100_000_000) == pytest.approx(1.01)

    def test_zero_bytes_costs_latency(self):
        model = StorageModel(bandwidth_mb_s=10.0, latency_s=0.005)
        assert model.write_seconds(0) == pytest.approx(0.005)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StorageModel(bandwidth_mb_s=0.0)
        with pytest.raises(ConfigurationError):
            StorageModel(bandwidth_mb_s=1.0, latency_s=-1.0)
        with pytest.raises(InvalidInputError):
            StorageModel(bandwidth_mb_s=1.0).write_seconds(-1)


def _steps(n=4, elements=20_000, seed=5):
    sim = FieldSimulation(SimulationConfig(n_elements=elements, seed=seed))
    return list(sim.run(n))


@pytest.fixture
def cpu_timed():
    """Time compression (and the probe's candidate race) in CPU seconds."""
    clock = types.SimpleNamespace(perf_counter=time.process_time)
    with mock.patch.object(staging_mod, "time", clock), \
            mock.patch.object(selector_mod, "time", clock):
        yield


def _speed_compressor():
    return IsobarCompressor(
        IsobarConfig(preference=Preference.SPEED, sample_elements=2048)
    )


def _assert_slow_storage_rewards_compression():
    """The paper's motivating economics: at low storage bandwidth,
    compressing first raises effective output throughput.

    Overlapped staging is used so the comparison reflects the
    steady-state pipeline (write stage dominated), and bandwidth sits
    well below the serial break-even
    ``(1 - 1/CR) * raw / compress_seconds``.
    """
    simulator = StagingSimulator(StorageModel(bandwidth_mb_s=2.0))
    reports = simulator.compare(
        lambda: _steps(),
        {"raw": raw_writer, "isobar": _speed_compressor().compress},
        overlapped=True,
    )
    assert (reports["isobar"].effective_throughput_mb_s
            > reports["raw"].effective_throughput_mb_s)


def _assert_fast_storage_rewards_raw():
    """At very high bandwidth the (Python) compressor becomes the
    bottleneck and raw writes win — the crossover exists."""
    simulator = StagingSimulator(StorageModel(bandwidth_mb_s=100_000.0))
    reports = simulator.compare(
        lambda: _steps(),
        {"raw": raw_writer, "isobar": _speed_compressor().compress},
    )
    assert (reports["raw"].effective_throughput_mb_s
            > reports["isobar"].effective_throughput_mb_s)


class TestStagingSimulator:
    def test_raw_strategy_accounting(self):
        steps = _steps()
        simulator = StagingSimulator(StorageModel(bandwidth_mb_s=50.0))
        report = simulator.run(steps, raw_writer, "raw")
        assert report.strategy == "raw"
        assert report.raw_bytes == sum(s.nbytes for s in steps)
        assert report.stored_bytes == report.raw_bytes
        assert report.compression_ratio == pytest.approx(1.0)
        assert report.total_seconds > 0

    def test_isobar_reduces_stored_bytes(self):
        steps = _steps()
        simulator = StagingSimulator(StorageModel(bandwidth_mb_s=50.0))
        compressor = IsobarCompressor(
            IsobarConfig(preference=Preference.SPEED, sample_elements=2048)
        )
        report = simulator.run(steps, compressor.compress, "isobar")
        assert report.stored_bytes < report.raw_bytes
        assert report.compression_ratio > 1.1

    def test_slow_storage_rewards_compression(self, cpu_timed):
        _assert_slow_storage_rewards_compression()

    def test_fast_storage_rewards_raw(self, cpu_timed):
        _assert_fast_storage_rewards_raw()

    def test_overlap_never_slower_than_serial(self):
        steps = _steps()
        simulator = StagingSimulator(StorageModel(bandwidth_mb_s=20.0))
        serial = simulator.run(steps, raw_writer, "raw", overlapped=False)
        overlapped = simulator.run(steps, raw_writer, "raw", overlapped=True)
        assert overlapped.total_seconds <= serial.total_seconds + 1e-9

    def test_per_step_timings_recorded(self):
        steps = _steps(n=3)
        simulator = StagingSimulator(StorageModel(bandwidth_mb_s=50.0))
        report = simulator.run(steps, raw_writer, "raw")
        assert len(report.timings) == 3
        assert [t.step for t in report.timings] == [0, 1, 2]
        assert all(t.write_seconds > 0 for t in report.timings)

    def test_compare_gives_identical_data_to_each_strategy(self):
        simulator = StagingSimulator(StorageModel(bandwidth_mb_s=50.0))
        reports = simulator.compare(
            lambda: _steps(seed=9),
            {"a": raw_writer, "b": raw_writer},
        )
        assert reports["a"].raw_bytes == reports["b"].raw_bytes
        assert reports["a"].stored_bytes == reports["b"].stored_bytes


@pytest.mark.perf
@pytest.mark.usefixtures("wall_clock_selected")
class TestStagingWallClock:
    """The storage-economics claims on wall-clock compression time
    (load-sensitive: run with ``-m perf`` on an idle machine)."""

    def test_slow_storage_rewards_compression(self):
        _assert_slow_storage_rewards_compression()

    def test_fast_storage_rewards_raw(self):
        _assert_fast_storage_rewards_raw()
