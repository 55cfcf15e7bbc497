"""Tests for the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from harness import checks, layers, procs
from harness.stats import median, quartile_spread, tail
from harness.tracing import Patcher, Span, Tracer, self_times

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ tail rule
def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, percentile, count = tail(values)
    assert (value, percentile, count) == (89.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_percentile_rises_with_sample_count():
    value, percentile, count = tail([float(v) for v in range(200)])
    assert (value, percentile, count) == (189.0, 95.0, 200)


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) is None
    value, percentile, _ = tail([float(v) for v in range(11)])
    assert value == 0.0
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_ignores_input_order():
    values = [float(v) for v in range(50)]
    assert tail(list(reversed(values))) == tail(values)


def test_spread_and_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert quartile_spread([1.0] * 5) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


# ------------------------------------------------------------ self time
def _span(span_id, start, end, parent, name="x"):
    return Span(span_id, name, start, end, parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0, None, "root"),
        _span(1, 1.0, 4.0, 0, "a"),
        _span(2, 2.0, 3.0, 1, "leaf"),
        _span(3, 3.0, 6.0, 0, "b"),  # overlaps a: covered once
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(0, 0.0, 2.0, None), _span(1, 1.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_spans_by_context():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):          # 0 .. 7
        with tracer.span("inner"):      # 1 .. 2
            pass
        with tracer.span("inner"):      # 3 .. 6
            with tracer.span("leaf"):   # 4 .. 5
                pass
    by_start = {span.start: span for span in tracer.spans}
    assert by_start[4.0].parent == by_start[3.0].id
    assert by_start[1.0].parent == by_start[0.0].id
    assert by_start[0.0].parent is None
    own = self_times(tracer.spans)
    assert [own[by_start[t].id] for t in (0.0, 1.0, 3.0, 4.0)] == [
        3.0, 1.0, 2.0, 1.0]


def test_wrap_records_counts_from_the_result():
    tracer = Tracer()

    def work(value):
        return value * 2

    wrapped = tracer.wrap(work, "layer.work",
                          lambda attrs, args, result: attrs.update(n=result))
    assert wrapped(21) == 42
    assert tracer.spans[0].name == "layer.work"
    assert tracer.spans[0].attrs == {"n": 42}


def test_patcher_rebinds_every_copy_and_restores():
    import types

    original = object()
    first = types.ModuleType("repro_fake_a")
    second = types.ModuleType("repro_fake_a.b")
    first.f = second.g = original
    sys.modules[first.__name__] = first
    sys.modules[second.__name__] = second
    try:
        patcher = Patcher()
        assert patcher.everywhere(original, "new", prefix="repro_fake_a") == 2
        assert first.f == second.g == "new"
        patcher.restore()
        assert first.f is original and second.g is original
    finally:
        del sys.modules[first.__name__], sys.modules[second.__name__]


def test_unattributed_share_is_what_no_layer_span_covers():
    tracer = Tracer()
    tracer.spans = [
        _span(0, 0.0, 8.0, None, "modes.pass"),
        _span(1, 0.0, 3.0, 0, "sim.run"),
        _span(2, 4.0, 8.0, 0, "modes.step"),     # structure, not a layer
        _span(3, 4.0, 7.0, 2, "compiler.compile"),
    ]
    index = layers.SpanIndex(tracer)
    assert layers.unattributed(index, "modes.pass") == pytest.approx(0.25)
    assert layers.self_seconds(index, "modes.pass") == {
        "compiler.compile": 3.0, "modes.pass": 1.0, "modes.step": 1.0,
        "sim.run": 3.0}
    assert [s.id for s in index.under("sim.run", "modes.pass")] == [1]


# ------------------------------------------------------------ output checks
def test_one_field_perturbation_fails_the_check():
    expected = checks.load("modes")
    key = sorted(expected)[0]
    actual = dict(expected[key])
    tally = checks.Tally()
    assert tally.check(key, actual, expected[key])
    actual["rf_reads"] += 1
    assert checks.differing_fields(actual, expected[key]) == ["rf_reads"]
    assert not tally.check(key, actual, expected[key])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "rf_reads" in tally.reasons[0]


def test_engine_diagnostics_are_exempt_but_missing_fields_are_not():
    expected = {"cycles": 10, "ticks_executed": 5}
    assert checks.differing_fields(
        {"cycles": 10, "ticks_executed": 9, "skipped_cycles": 1},
        expected) == []
    assert checks.differing_fields({"ticks_executed": 5}, expected) == [
        "cycles"]


def test_unrecorded_output_counts_as_failure():
    tally = checks.Tally()
    assert not tally.check("nope/baseline", {}, None)
    assert tally.failed == 1


def test_strip_timing_drops_only_wall_clock_lines():
    text = "[fig10] title\n(1.2s)\nrow 1\ntotal: 3.0s\n"
    assert checks.strip_timing(text) == "[fig10] title\nrow 1"


def test_expected_files_cover_every_case():
    from harness import modes, serve, sweep

    recorded = checks.load("modes")
    for name in modes.KERNELS:
        for mode in ("baseline", "flags", "redefine"):
            assert f"{name}/{mode}" in recorded
    for name in modes.SHRINK_KERNELS:
        assert f"{name}/shrink" in recorded
    served = checks.load("serve")
    for flow, workload in serve.HOT + serve.COLD:
        assert serve.flow_key(flow, workload) in served
    assert set(checks.load("sweep")) == set(sweep.EXPERIMENTS)


# ------------------------------------------------------------ host speed
def test_reference_correction_follows_the_speed_exponent():
    from harness import calibrate

    slow = calibrate.REFERENCE_MS / 1e3
    assert calibrate.to_reference([slow, slow]) == pytest.approx(1.0)
    # Twice as fast, plus one hiccup (over twice the median): left out.
    fast = [slow / 2] * 4 + [slow * 10]
    assert calibrate.to_reference(fast) == pytest.approx(
        2 ** calibrate.SPEED_EXPONENT)


def test_probe_samples_no_more_often_than_asked():
    from harness import calibrate

    probe = calibrate.Probe(every=60.0)
    probe.tick()
    assert probe.samples == []
    probe.take()
    probe.tick()
    assert len(probe.samples) == 1 and probe.spent > 0


# ------------------------------------------------------------ serve figures
def _phase(rate, latencies, wall=1.0):
    from harness import serve

    samples = [serve.Sample("baseline", "nn", 0.0, value, "cache", None)
               for value in latencies]
    return serve.Phase(rate, samples, [0.0] * len(samples),
                       [0] * len(samples), wall)


def test_capacity_comes_only_from_cycles_that_climbed_the_ladder():
    from harness import serve

    nominal = _phase(50.0, [0.001 * (i + 1) for i in range(120)])
    fast, slow = _phase(300.0, [0.002] * 120), _phase(3000.0, [0.5] * 120)
    cycles = [
        serve.Cycle(0.1, 0.2, nominal, [fast, slow], {}, 1.0, []),
        serve.Cycle(0.1, 0.2, nominal, [], {}, 1.0, []),
        serve.Cycle(0.1, 0.2, nominal, [], {}, 1.0, []),
    ]
    assert [cycle.max_rps for cycle in cycles] == [120.0, None, None]
    figures = serve.summary(cycles)
    assert figures["max_rps"] == 120.0
    assert len(figures["ladder"]) == 1
    assert figures["tail_ms"] == pytest.approx(110.0)
    assert figures["tail_percentile"] == pytest.approx(100.0 * 110 / 120)


# ------------------------------------------------------------ processes
def _plant_group():
    """A child in its own session that forks a grandchild; both sleep."""
    script = textwrap.dedent("""
        import os, sys, time
        if os.fork() == 0:
            time.sleep(60)
            os._exit(0)
        print("ready", flush=True)
        time.sleep(60)
    """)
    children = procs.Children()
    proc = children.spawn([sys.executable, "-c", script],
                          stdout=subprocess.PIPE)
    assert proc.stdout.readline().strip() == b"ready"
    return children, proc


def test_reap_all_kills_a_planted_process_group():
    children, proc = _plant_group()
    try:
        assert len(procs.group_members(proc.pid)) == 2
        assert children.reap_all() == 2
        assert proc.poll() is not None
        assert procs.group_members(proc.pid) == []
    finally:
        proc.stdout.close()


def test_orderly_stop_still_kills_the_group():
    children, proc = _plant_group()
    calls = []
    try:
        killed = children.stop(proc, shutdown=lambda: calls.append(1),
                               timeout=0.2)
        assert calls == [1]
        assert killed == 2
        assert procs.group_members(proc.pid) == []
        assert children.reap_all() == 0
    finally:
        proc.stdout.close()


def test_daemon_that_fails_to_start_leaves_nothing_running(tmp_path):
    import random

    from harness import serve

    children, tally = procs.Children(), checks.Tally()
    # No sources under tmp_path: the daemon exits at import.
    with pytest.raises(procs.DaemonFailed):
        serve.one_cycle(tmp_path, tmp_path, children, tally, {},
                        random.Random(1))
    assert [proc.poll() is not None for proc in children.procs] == [True]
    assert children.reap_all() == 0


def _running_with(marker: str) -> list[int]:
    """Pids whose command line mentions ``marker``."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as handle:
                if marker.encode() in handle.read():
                    found.append(int(name))
        except OSError:
            continue
    return found


def test_sigterm_mid_run_stops_the_daemon_and_prints_no_result():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    marker = f".perfbench/tmp-{proc.pid}/"
    try:
        deadline = time.monotonic() + 60
        while not _running_with(marker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _running_with(marker), "daemon never started"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode == 128 + signal.SIGTERM
    assert out == b""
    assert _running_with(marker) == []


def test_peak_rss_reads_own_high_water_mark():
    assert procs.peak_rss_mb([os.getpid()]) > 1.0
    assert procs.peak_rss_mb([]) == 0.0


# ------------------------------------------------------------ entry point
def test_benchmark_json_lists_what_the_harness_reports():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [
        unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert time.monotonic() - started < 60
