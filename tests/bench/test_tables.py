"""Smoke + shape tests for the table generators (small inputs).

The full-size regeneration lives in benchmarks/; here each table is
built on small datasets and checked for layout and the paper's
qualitative claims.

The decompression speed-up claims (Tables II and IX) are asserted on
process CPU seconds over fixed repeated work, which other load on the
host does not move — the speed preference's probe included; their
wall-clock form, as the tables report it, runs only when selected with
``-m perf``.
"""

import gc
import time
import types
from unittest import mock

import pytest

from repro.bench.tables import (
    TABLE2_REPRESENTATIVES,
    evaluate_many,
    section_f_consistency,
    table1_datasets,
    table2_summary,
    table3_statistics,
    table4_analyzer,
    table5_comparison,
    table6_speed_preference,
    table7_ratio_preference,
    table8_single_precision,
    table9_decompression,
    table10_fpc_fpzip,
)
import repro.core.selector as selector_mod
from repro.codecs.base import get_codec
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Preference
from repro.datasets.registry import (
    dataset_names,
    get_dataset,
    improvable_dataset_names,
)

_N = 30_000
_CFG = IsobarConfig(sample_elements=4096)
#: Decompressions per timed measurement.
_REPEATS = 10


@pytest.fixture(scope="module")
def evaluations():
    return evaluate_many(n_elements=_N, config=_CFG)


def _cpu_seconds(decompress, payload) -> float:
    """Process CPU seconds of ``_REPEATS`` decompressions (after one
    untimed warm-up call), with the garbage collector held off."""
    decompress(payload)
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(_REPEATS):
            decompress(payload)
        return time.process_time() - start
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def cpu_decompress_speedups():
    """Per improvable dataset: CPU-time decompression speed-up of the
    speed-preference container over the faster standalone solver —
    the comparison ``DatasetEvaluation.decompress_speedup`` makes on
    the wall clock.  The speed preference's probe ranks candidates by
    CPU time too, so load on the host cannot swap its codec choice."""
    cpu_clock = types.SimpleNamespace(perf_counter=time.process_time)
    compressor = IsobarCompressor(_CFG.replace(preference=Preference.SPEED))
    speedups = {}
    for name in improvable_dataset_names():
        values = get_dataset(name).generate(n_elements=_N)
        raw = values.astype(values.dtype.newbyteorder("<")).tobytes()
        with mock.patch.object(selector_mod, "time", cpu_clock):
            payload = compressor.compress(values)
        isobar = _cpu_seconds(compressor.decompress, payload)
        standard = min(
            _cpu_seconds(codec.decompress, codec.compress(raw))
            for codec in (get_codec("zlib"), get_codec("bzip2"))
        )
        speedups[name] = standard / isobar
    return speedups


@pytest.fixture
def wall_clock_selected(request):
    """Run a wall-clock assertion only when ``-m perf`` selects it."""
    if "perf" not in (request.config.getoption("markexpr") or ""):
        pytest.skip("wall-clock form: select it with -m perf")


class TestStaticTables:
    def test_table1_lists_seven_applications(self):
        report = table1_datasets()
        assert len(report.rows) == 7
        assert report.rows[0][0] == "GTS"
        assert report.render()

    def test_table3_covers_all_datasets(self):
        report = table3_statistics(n_elements=5_000)
        assert len(report.rows) == 24
        assert report.render()

    def test_table4_matches_paper_exactly(self):
        report = table4_analyzer(n_elements=_N)
        assert len(report.rows) == 24
        by_name = {row[0]: row for row in report.rows}
        # Spot-check the paper's entries.
        assert by_name["gts_chkp_zeon"][2] == "75.0%"
        assert by_name["xgc_igid"][2] == "37.5%"
        assert by_name["s3d_temp"][2] == "25.0%"
        assert by_name["msg_bt"][3] is False
        assert by_name["msg_sppm"][3] is False
        improvable_count = sum(1 for row in report.rows if row[3])
        assert improvable_count == 19


class TestMeasuredTables:
    def test_table5_layout(self, evaluations):
        report = table5_comparison(evaluations)
        assert len(report.rows) == 24
        assert len(report.headers) == 10
        ni_rows = [row for row in report.rows if row[6] is None]
        assert len(ni_rows) == 5  # the paper's non-improvable set
        # Every improvable row gains ratio over both standard solvers.
        for row in report.rows:
            if row[6] is not None:
                assert row[6] > max(row[1], row[3])

    def test_table6_improvable_only_with_positive_delta(self, evaluations):
        report = table6_speed_preference(evaluations)
        assert len(report.rows) == len(improvable_dataset_names())
        for row in report.rows:
            assert row[2] > 0  # dCR vs fastest alternative
            assert row[3] > 0  # speed-up defined

    def test_table7_ratio_preference_deltas_positive(self, evaluations):
        report = table7_ratio_preference(evaluations)
        assert len(report.rows) == len(improvable_dataset_names())
        for row in report.rows:
            assert row[2] > 0  # dCR vs best-ratio alternative

    def test_table8_single_precision(self, evaluations):
        report = table8_single_precision(evaluations)
        assert len(report.rows) == 4  # 2 datasets x 2 preferences
        names = {row[1] for row in report.rows}
        assert names == {"s3d_temp", "s3d_vmag"}
        for row in report.rows:
            assert row[3] > 0  # both identified improvable with gains

    def test_table9_decompression_speedups(
        self, evaluations, cpu_decompress_speedups
    ):
        report = table9_decompression(evaluations)
        assert len(report.rows) == len(improvable_dataset_names())
        for row in report.rows:
            assert row[3] > 0  # ISOBAR decompression throughput
            # Never collapses (noise tolerance).
            assert cpu_decompress_speedups[row[0]] > 0.7
        # The headline claim holds in aggregate (the benchmarks/
        # version asserts the stronger 2/3 rule at larger sizes).
        winners = sum(1 for s in cpu_decompress_speedups.values() if s > 1.0)
        assert winners >= len(report.rows) // 2

    def test_table2_summary(self, evaluations, cpu_decompress_speedups):
        report = table2_summary(evaluations=evaluations)
        assert [row[0] for row in report.rows] == ["GTS", "XGC", "S3D",
                                                   "FLASH"]
        for row in report.rows:
            assert row[1] > 0  # dCR
            # Decompression speed-up.
            assert cpu_decompress_speedups[TABLE2_REPRESENTATIVES[row[0]]] > 1.0


@pytest.mark.perf
@pytest.mark.usefixtures("wall_clock_selected")
class TestMeasuredTablesWallClock:
    """The speed-up claims on the wall-clock figures the tables print
    (load-sensitive: run with ``-m perf`` on an idle machine)."""

    def test_table9_decompression_speedups(self, evaluations):
        report = table9_decompression(evaluations)
        for row in report.rows:
            assert row[4] > 0.7  # never collapses (noise tolerance)
        # The headline claim holds in aggregate; single rows may lose
        # to wall-clock jitter on the small inputs this unit test uses.
        winners = sum(1 for row in report.rows if row[4] > 1.0)
        assert winners >= len(report.rows) // 2

    def test_table2_summary(self, evaluations):
        report = table2_summary(evaluations=evaluations)
        for row in report.rows:
            assert row[5] > 1.0  # decompression speed-up


class TestTable10:
    def test_layout_and_shape(self, evaluations):
        report = table10_fpc_fpzip(
            n_elements=10_000,
            datasets=("gts_chkp_zion", "xgc_igid"),
            evaluations=evaluations,
        )
        assert len(report.rows) == 3  # 2 datasets + mean
        assert report.rows[-1][0] == "mean"
        for row in report.rows[:-1]:
            assert row[1] > 1.0  # ISOBAR CR
            assert row[4] > 0.9  # FPC CR
            assert row[7] > 0.9  # fpzip CR


class TestSectionF:
    def test_consistency_run(self):
        report = section_f_consistency(n_steps=3, n_elements=_N)
        # 3 steps + mean + std rows.
        assert len(report.rows) == 5
        step_rows = report.rows[:-2]
        decisions = {row[1] for row in step_rows}
        assert len(decisions) == 1  # stable EUPA decision
        assert all(row[2] for row in step_rows)  # all improvable
        mean_row = report.rows[-2]
        assert mean_row[3] > 0  # positive mean dCR
