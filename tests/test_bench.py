"""The benchmark summary (``bench summarize``) and its CI check
(``bench check``), on synthetic perfbench records."""

from __future__ import annotations

import json
import statistics

import pytest

from repro.analysis.bench import (
    SCHEMA,
    SWEEP_FLOOR,
    WORKLOADS,
    check,
    main,
    summarize,
)

#: End-to-end metrics of a healthy run: (name, unit, value).
METRICS = (
    ("setup_s", "s", 1.9), ("peak_rss_mb", "MB", 121.0),
    ("sim_cycles_per_s.baseline", "cycles/s", 80000.0),
    ("sim_cycles_per_s.flags", "cycles/s", 60000.0),
    ("sim_cycles_per_s.redefine", "cycles/s", 56000.0),
    ("sim_cycles_per_s.shrink", "cycles/s", 100000.0),
    ("sweep_cold_s", "s", 2.4), ("sweep_warm_s", "s", 0.11),
    ("serve_p50_ms", "ms", 2.7), ("serve_tail_ms", "ms", 50.0),
    ("serve_max_rps", "req/s", 300.0),
)


def _run(scale=1.0, failed=0, **values):
    """A result line: every metric at ``scale`` times its healthy
    value, with ``values`` (dots as ``__``) overriding."""
    metrics = {
        name: {"value": value * scale, "unit": unit}
        for name, unit, value in METRICS
    }
    for key, value in values.items():
        metrics[key.replace("__", ".")]["value"] = value
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": metrics}


def _record(workload="modes", seed=1, scale=1.0, **fields):
    """A full result file as ``perfbench/run.py`` writes it."""
    record = {
        "workload": workload, "seed": seed, "seconds": 8.0, "trace": 0,
        "engine_fingerprint": ["engine", 2, True, True],
        "report": {"reference_ms": {name: 20.0 + seed for name in
                                    WORKLOADS}},
        "attempted": 100, "failed": 0,
        "metrics": _run(scale)["metrics"],
    }
    record.update(fields)
    return record


def _records():
    return [_record(workload, seed, scale=1.0 + seed / 100)
            for workload in WORKLOADS for seed in range(1, 11)]


def _summary():
    return summarize(_records(), commit="abc123")


class TestSummarize:
    def test_medians_and_spreads_follow_the_quartiles(self):
        summary = _summary()
        assert summary["schema"] == SCHEMA
        assert summary["commit"] == "abc123"
        assert sorted(summary["workloads"]) == sorted(WORKLOADS)
        modes = summary["workloads"]["modes"]
        assert modes["seeds"] == list(range(1, 11))
        assert modes["seconds"] == 8.0
        assert modes["attempted"] == 1000
        assert modes["failed"] == 0
        assert modes["engine_fingerprint"] == ["engine", 2, True, True]
        assert modes["reference_ms"] == statistics.median(
            20.0 + seed for seed in range(1, 11))
        values = [80000.0 * (1.0 + seed / 100) for seed in range(1, 11)]
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry = modes["metrics"]["sim_cycles_per_s.baseline"]
        assert entry["unit"] == "cycles/s"
        assert entry["median"] == pytest.approx(statistics.median(values))
        assert (entry["q1"], entry["q3"]) == (q1, q3)
        assert entry["spread"] == pytest.approx(
            (q3 - q1) / statistics.median(values))
        assert set(modes["metrics"]) == {name for name, _, _ in METRICS}

    def test_refuses_traced_runs(self):
        records = _records()
        records[3] = _record(seed=4, trace=1)
        with pytest.raises(ValueError, match="traced"):
            summarize(records)

    def test_refuses_mixed_run_lengths(self):
        records = _records()
        records[0] = _record(seconds=1.0)
        with pytest.raises(ValueError, match="mixed seconds"):
            summarize(records)

    def test_refuses_mixed_engines(self):
        records = _records()
        records[0] = _record(engine_fingerprint=["engine", 2, False, True])
        with pytest.raises(ValueError, match="mixed engine_fingerprint"):
            summarize(records)

    def test_refuses_failed_operations(self):
        records = _records()
        records[5] = _record(seed=6, failed=2)
        with pytest.raises(ValueError, match="2 failed operations"):
            summarize(records)


class TestValidate:
    """``check`` rejects a summary it cannot gate against."""

    def test_rejects_non_object(self):
        assert check([1, 2], _run()) != []
        assert check(None, _run()) != []

    def test_rejects_wrong_schema(self):
        summary = _summary()
        summary["schema"] = "something-else/9"
        assert any("summary" in e for e in check(summary, _run()))

    def test_rejects_missing_workload(self):
        summary = _summary()
        del summary["workloads"]["sweep"]
        errors = check(summary, _run())
        assert errors == ["summary: missing workload 'sweep'"]

    def test_rejects_missing_mode(self):
        summary = _summary()
        del summary["workloads"]["modes"]["metrics"][
            "sim_cycles_per_s.flags"]
        errors = check(summary, _run())
        assert errors == [
            "summary: modes lacks metric 'sim_cycles_per_s.flags'"]

    def test_rejects_missing_metric(self):
        summary = _summary()
        del summary["workloads"]["serve"]["metrics"]["serve_tail_ms"]
        errors = check(summary, _run())
        assert errors == ["summary: serve lacks metric 'serve_tail_ms'"]

    def test_rejects_corrupt_field(self):
        summary = _summary()
        summary["workloads"]["modes"]["metrics"][
            "sim_cycles_per_s.baseline"]["median"] = "lots"
        assert any("sim_cycles_per_s.baseline" in e
                   for e in check(summary, _run()))


class TestCompareAndGate:
    """``check`` gates one run against the summary by ratios within
    the run."""

    def test_gate_passes_identical_shape(self):
        # A uniformly slower host (every time and rate scaled) passes.
        assert check(_summary(), _run(scale=0.5)) == []

    def test_gate_fails_on_failed_operations(self):
        errors = check(_summary(), _run(failed=3))
        assert errors == ["correct: 3 of 100 operations failed"]

    def test_gate_fails_on_mode_regression(self):
        # flags/baseline is 0.75 in the summary; 31% below it fails.
        errors = check(_summary(), _run(
            sim_cycles_per_s__flags=80000.0 * 0.75 * 0.69))
        assert len(errors) == 1 and errors[0].startswith("modes.flags:")

    def test_gate_tolerates_small_regression(self):
        assert check(_summary(), _run(
            sim_cycles_per_s__shrink=100000.0 * 0.71)) == []

    def test_gate_fails_slow_or_unequal_pipeline(self):
        slow = check(_summary(),
                     _run(sweep_warm_s=2.4 / (SWEEP_FLOOR - 0.1)))
        assert len(slow) == 1 and slow[0].startswith("sweep:")
        unequal = _run()
        unequal["correct"] = False
        assert check(_summary(), unequal)[0].startswith("correct:")

    def test_gate_passes_healthy_pipeline(self):
        assert check(_summary(), _run(
            sweep_cold_s=SWEEP_FLOOR, sweep_warm_s=1.0)) == []


def _log(tmp_path, run):
    log = tmp_path / "perfbench.log"
    log.write_text("sim_cycles_per_s.baseline  80000 cycles/s\n"
                   + json.dumps(run) + "\n")
    return log


class TestCli:
    def test_writes_and_validates_result_file(self, tmp_path, capsys):
        paths = []
        for record in _records():
            path = tmp_path / (f"{record['workload']}-seed"
                               f"{record['seed']}-trace0.json")
            path.write_text(json.dumps(record))
            paths.append(str(path))
        assert main(["summarize"] + paths) == 0
        summary = tmp_path / "BENCH_hotpath.json"
        summary.write_text(capsys.readouterr().out)
        assert json.loads(summary.read_text())["schema"] == SCHEMA

        assert main(["check", str(summary),
                     str(_log(tmp_path, _run()))]) == 0
        assert "pass" in capsys.readouterr().out

    def test_validate_rejects_corruption(self, tmp_path, capsys):
        summary = tmp_path / "BENCH_hotpath.json"
        data = _summary()
        del data["workloads"]["modes"]
        summary.write_text(json.dumps(data))
        assert main(["check", str(summary),
                     str(_log(tmp_path, _run()))]) == 1
        assert "missing workload 'modes'" in capsys.readouterr().err

    def test_validate_rejects_unreadable_json(self, tmp_path, capsys):
        summary = tmp_path / "BENCH_hotpath.json"
        summary.write_text("{not json")
        assert main(["check", str(summary),
                     str(_log(tmp_path, _run()))]) == 1
        assert "bench check:" in capsys.readouterr().err

    def test_rejects_a_log_without_a_result_line(self, tmp_path, capsys):
        summary = tmp_path / "BENCH_hotpath.json"
        summary.write_text(json.dumps(_summary()))
        log = tmp_path / "perfbench.log"
        log.write_text("interrupted by signal 15\n")
        assert main(["check", str(summary), str(log)]) == 1
        assert "bench check:" in capsys.readouterr().err

    def test_gate_failure_sets_exit_code(self, tmp_path, capsys):
        summary = tmp_path / "BENCH_hotpath.json"
        summary.write_text(json.dumps(_summary()))
        log = _log(tmp_path, _run(sim_cycles_per_s__redefine=1000.0))
        assert main(["check", str(summary), str(log)]) == 1
        assert "bench check: modes.redefine:" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, capsys):
        assert main([]) == 2
        assert main(["check", "BENCH_hotpath.json"]) == 2
        assert main(["summarize"]) == 2
        assert "summarize" in capsys.readouterr().err
