"""Analysis layer tests: runners, traces, tables."""

import pytest

from repro.analysis.lifetime_trace import register_lifetime_intervals
from repro.analysis.liveness_trace import live_register_series
from repro.analysis.runners import run_baseline, run_virtualized
from repro.analysis.tables import Table
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def matrixmul():
    return get_workload("matrixmul", scale=0.25)


class TestRunners:
    def test_baseline_runner(self, matrixmul):
        artifacts = run_baseline(matrixmul, waves=1)
        assert artifacts.compiled is None
        assert artifacts.stats.ctas_completed >= 1

    def test_virtualized_runner_compiles(self, matrixmul):
        artifacts = run_virtualized(matrixmul, waves=1)
        assert artifacts.compiled is not None
        assert artifacts.result.mode == "flags"
        assert artifacts.compiled.kernel.has_metadata()

    def test_wave_cap_applied(self, matrixmul):
        one = run_baseline(matrixmul, waves=1)
        two = run_baseline(matrixmul, waves=2)
        assert (
            two.result.ctas_simulated >= one.result.ctas_simulated
        )


class TestLivenessSeries:
    def test_series_has_fractions_below_one(self, matrixmul):
        series = live_register_series(matrixmul, interval=20, waves=1)
        points = series.fractions()
        assert points
        assert all(0.0 <= frac <= 1.0 for _, frac in points)
        assert 0.0 < series.mean_fraction <= series.peak_fraction <= 1.0

    def test_window_truncation(self, matrixmul):
        series = live_register_series(
            matrixmul, window_cycles=200, interval=20, waves=1
        )
        assert all(cycle <= 200 for cycle, _, _ in series.samples)


class TestLifetimeTrace:
    def test_intervals_well_formed(self, matrixmul):
        trace = register_lifetime_intervals(matrixmul, warps=(0, 1))
        assert trace.intervals
        for (slot, _), intervals in trace.intervals.items():
            assert slot in (0, 1)
            for start, end in intervals:
                assert 0 <= start <= end <= trace.end_cycle

    def test_matrixmul_has_three_lifetime_classes(self, matrixmul):
        trace = register_lifetime_intervals(matrixmul, warps=(0,))
        fractions = {
            reg: trace.live_fraction(reg)
            for (slot, reg) in trace.intervals
            if slot == 0
        }
        pulses = {
            reg: trace.pulse_count(reg)
            for (slot, reg) in trace.intervals
            if slot == 0
        }
        assert max(fractions.values()) > 0.6  # a whole-kernel register
        assert min(fractions.values()) < 0.2  # a short-lived register
        assert max(pulses.values()) >= 2  # a loop-pulsed register

    def test_unknown_register_has_no_intervals(self, matrixmul):
        trace = register_lifetime_intervals(matrixmul)
        assert trace.intervals_of(60) == []
        assert trace.live_fraction(60) == 0.0


class TestTable:
    def test_render_alignment(self):
        table = Table("T", ["A", "LongHeader"])
        table.add_row("x", 1)
        table.add_row("yyyy", 2.5)
        text = table.render()
        assert "T" in text
        assert "LongHeader" in text
        assert "2.500" in text

    def test_row_length_checked(self):
        table = Table("T", ["A", "B"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_csv_escaping(self):
        table = Table("T", ["A"])
        table.add_row('has,"comma"')
        csv = table.to_csv()
        assert '"has,""comma"""' in csv

    def test_column_accessor(self):
        table = Table("T", ["A", "B"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("B") == [2, 4]

    def test_notes_rendered(self):
        table = Table("T", ["A"])
        table.add_row(1)
        table.add_note("hello")
        assert "note: hello" in table.render()
