"""Sweep planner tests.

Pin the tentpole invariant: across a runner invocation, every unique
simulation executes exactly once — duplicated specs dedupe to one run
whose result every duplicate replays from the cache, experiments
replay from the cache the planner warmed, a pool run writes each entry
to disk once, and a second invocation against the same cache directory
is pure hits.
"""

from __future__ import annotations

import pytest

import repro.analysis.runners as runners
import repro.experiments.planner as planner
from repro.analysis.runners import (
    run_baseline,
    run_flow,
    run_specs,
    run_virtualized,
    spec_fingerprint,
)
from repro.arch import GPUConfig
from repro.cache import ResultCache, configure_cache, resolve_jobs, swap_cache
from repro.experiments.planner import collect_plan, execute_plan
from repro.experiments.registry import EXPERIMENTS, get_flows
from repro.experiments.runner import main as runner_main
from repro.workloads.suite import get_workload


def _declared(monkeypatch, specs):
    """The plan of one stand-in experiment that declares ``specs``."""
    monkeypatch.setattr(planner, "get_flows", lambda name: lambda **_: specs)
    return collect_plan(["declared"], {})


def _baselines(*names):
    """One-wave baseline specs: each runs one simulation and caches
    one entry."""
    return [
        ("baseline", get_workload(name, scale=0.5), {"waves": 1})
        for name in names
    ]


class TestSpecFingerprint:
    def test_defaults_normalize_before_hashing(self):
        workload = get_workload("vectoradd", scale=0.5)
        implicit = ("baseline", workload, {})
        explicit = (
            "baseline", workload,
            {"config": GPUConfig.baseline(), "waves": 2},
        )
        assert spec_fingerprint(implicit) == spec_fingerprint(explicit)
        different = (
            "baseline", workload, {"config": GPUConfig.renamed()}
        )
        assert spec_fingerprint(implicit) != spec_fingerprint(different)

    def test_flows_differ(self):
        workload = get_workload("vectoradd", scale=0.5)
        assert spec_fingerprint(
            ("baseline", workload, {})
        ) != spec_fingerprint(("virtualized", workload, {}))


class TestExecutePlan:
    def test_defaults_normalize_to_one_run(self, monkeypatch):
        cache = configure_cache()  # fresh memory cache for the flows
        workload = get_workload("vectoradd", scale=0.5)
        calls = []
        original = runners.FLOWS["baseline"]

        def counting(workload, **kwargs):
            calls.append(kwargs)
            return original(workload, **kwargs)

        monkeypatch.setitem(runners.FLOWS, "baseline", counting)
        specs = [
            ("baseline", workload, {}),
            ("virtualized", workload, {}),
            ("baseline", workload, {"config": GPUConfig.baseline()}),
            ("baseline", workload, {"waves": 2}),
        ]
        plan = _declared(monkeypatch, specs)
        assert plan.unique == specs[:2]
        execute_plan(plan, jobs=1)
        assert len(calls) == 1
        # Every duplicate replays the one run from the cache.
        misses = cache.counters.misses
        replayed = [run_flow(spec) for spec in specs]
        assert cache.counters.misses == misses
        assert replayed[0].stats == replayed[2].stats == replayed[3].stats
        assert replayed[0].stats == original(workload).stats

    def test_order_preserved_with_jobs(self, monkeypatch):
        cache = configure_cache()
        specs = _baselines("vectoradd", "bfs")
        specs.append(specs[0])  # duplicate of position 0
        plan = _declared(monkeypatch, specs)
        assert plan.unique == specs[:2]
        results = run_specs(plan.unique, jobs=2)
        assert [r.workload.name for r in results] == ["vectoradd", "bfs"]
        execute_plan(plan, jobs=2)
        misses = cache.counters.misses
        replayed = [run_flow(spec) for spec in specs]
        assert cache.counters.misses == misses
        assert [r.workload.name for r in replayed] == [
            "vectoradd", "bfs", "vectoradd"
        ]
        assert replayed[0].stats == replayed[2].stats == results[0].stats
        assert replayed[1].stats == results[1].stats

    def test_pool_results_match_direct_flow_calls(self):
        configure_cache()
        workload = get_workload("vectoradd", scale=0.5)
        specs = [
            ("baseline", workload, {"waves": 1}),
            ("virtualized", workload, {"waves": 1}),
        ]
        pooled = run_specs(specs, jobs=2)
        assert pooled[0].stats == run_baseline(workload, waves=1).stats
        assert pooled[1].stats == run_virtualized(workload, waves=1).stats

    def test_unknown_flow_is_rejected(self, monkeypatch):
        workload = get_workload("vectoradd", scale=0.5)
        plan = _declared(monkeypatch, [("bogus", workload, {})])
        with pytest.raises(ValueError, match="unknown flow"):
            execute_plan(plan, jobs=1)

    def test_parallel_workers_export_into_parent_cache(self, monkeypatch):
        cache = configure_cache()
        plan = _declared(monkeypatch, _baselines("vectoradd", "bfs"))
        execute_plan(plan, jobs=2)
        # The parent never simulated, but absorbed both entries: a
        # replay is all hits, no misses.
        assert len(cache) == 2
        before = cache.counters.misses
        execute_plan(plan, jobs=1)
        assert cache.counters.misses == before

    def test_pool_run_writes_each_entry_to_disk_once(
        self, monkeypatch, tmp_path
    ):
        cache = configure_cache(directory=tmp_path)
        parent_writes = []
        store = ResultCache._store

        def recording(self, key, payload):
            # Pool workers run their own copies of this function; only
            # the parent's calls reach this list.
            parent_writes.append(key)
            store(self, key, payload)

        monkeypatch.setattr(ResultCache, "_store", recording)
        plan = _declared(monkeypatch, _baselines("vectoradd", "bfs", "nn"))
        execute_plan(plan, jobs=2)
        assert parent_writes == []
        assert len(list(tmp_path.glob("*.pkl"))) == len(plan.unique) == 3
        assert len(cache) == 3
        assert cache.counters.stores == 3

    def test_disk_cap_holds_after_a_pool_run(self, monkeypatch, tmp_path):
        plan = _declared(monkeypatch, _baselines("vectoradd", "bfs", "nn"))
        configure_cache(directory=tmp_path / "free")
        execute_plan(plan, jobs=2)
        sizes = [
            path.stat().st_size for path in (tmp_path / "free").glob("*.pkl")
        ]
        assert len(sizes) == 3
        cap = max(sizes)
        cache = configure_cache(directory=tmp_path / "capped", max_bytes=cap)
        execute_plan(plan, jobs=2)
        entries, total = cache.disk_usage()
        assert 1 <= entries < 3
        assert total <= cap
        assert cache.counters.evictions == 3 - entries


class TestPlanner:
    def test_flows_declarations_cover_runs(self):
        """Warm the plan, replay the experiment: zero new misses."""
        options = {
            "scale": 0.5, "waves": 1, "workloads": ("vectoradd", "bfs"),
        }
        for name in ("fig10", "fig11b", "fig15", "schedulers", "rfc"):
            cache = configure_cache()
            plan = collect_plan([name], options)
            assert plan.planned == [name]
            assert plan.unique, name
            execute_plan(plan, jobs=1)
            misses_after_plan = cache.counters.misses
            EXPERIMENTS[name](**options)
            assert cache.counters.misses == misses_after_plan, (
                f"{name}: run() simulated something flows() did not "
                "declare"
            )

    def test_plan_dedupes_across_experiments(self):
        configure_cache()
        options = {
            "scale": 0.5, "waves": 1, "workloads": ("vectoradd",),
        }
        # fig10 and fig14 both request the plain virtualized run.
        plan = collect_plan(["fig10", "fig14"], options)
        assert len(plan.declared) > len(plan.unique)
        assert plan.dedup_ratio > 1.0
        assert "dedup" in plan.describe()

    def test_analytic_experiments_have_no_flows(self):
        assert get_flows("table01") is None
        plan = collect_plan(["table01"], {})
        assert plan.unique == []
        assert plan.unplanned == ["table01"]
        assert plan.dedup_ratio == 1.0

    def test_every_simulating_experiment_declares_flows(self):
        # Experiments built on the canonical flows must declare them,
        # or the planner silently degrades for those figures.
        for name in (
            "fig10", "fig11a", "fig11b", "fig12", "fig13", "fig14",
            "fig15", "ablations", "schedulers", "rfc",
        ):
            assert get_flows(name) is not None, name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_execute_plan_does_not_refingerprint(self, jobs, monkeypatch):
        configure_cache()
        keyed, ran = [], []
        real_key = runners.flow_spec_key
        real_flow = runners.run_flow

        def counting_key(*args):
            keyed.append(args)
            return real_key(*args)

        def counting_flow(spec):
            ran.append(spec)
            return real_flow(spec)

        class CountingPool(runners.ProcessPoolExecutor):
            def map(self, fn, specs, **kwargs):
                ran.extend(specs)
                return super().map(fn, specs, **kwargs)

        monkeypatch.setattr(runners, "flow_spec_key", counting_key)
        monkeypatch.setattr(runners, "run_flow", counting_flow)
        monkeypatch.setattr(runners, "ProcessPoolExecutor", CountingPool)
        options = {
            "scale": 0.5, "waves": 1, "workloads": ("vectoradd", "bfs"),
        }
        plan = collect_plan(["fig10", "fig14"], options)
        execute_plan(plan, jobs=jobs)
        assert len(keyed) == len(plan.declared) > len(plan.unique) > 1
        # Each unique flow ran once: in-process for jobs=1, dispatched
        # to the pool for jobs=2.
        assert [id(spec) for spec in ran] == [id(s) for s in plan.unique]


class TestRunnerCli:
    def test_cold_then_warm_invocation(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["--quick", "--cache-dir", cache_dir, "schedulers"]
        try:
            assert runner_main(argv) == 0
            cold_out = capsys.readouterr().out
            assert "plan:" in cold_out
            assert "cache:" in cold_out

            assert runner_main(argv) == 0
            warm_out = capsys.readouterr().out
            # Warm disk: nothing recomputed, nothing rewritten.
            assert "0 misses, 0 stores" in warm_out
            # The figures themselves must be unchanged.
            table = [
                line for line in cold_out.splitlines()
                if "two_level" in line
            ]
            assert table and all(
                line in warm_out for line in table
            )
        finally:
            swap_cache(None)

    def test_no_cache_flag(self, capsys):
        try:
            assert runner_main(
                ["--quick", "--no-cache", "fig07"]
            ) == 0
            out = capsys.readouterr().out
            assert "cache: disabled" in out
            assert "plan:" not in out
        finally:
            swap_cache(None)

    def test_env_opt_out(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        try:
            assert runner_main(["--quick", "fig07"]) == 0
            assert "cache: disabled" in capsys.readouterr().out
        finally:
            swap_cache(None)

    def test_jobs_with_cache_uses_planner(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        try:
            assert runner_main(
                ["--quick", "--jobs", "2", "--cache-dir", cache_dir,
                 "schedulers"]
            ) == 0
            out = capsys.readouterr().out
            assert "plan:" in out
            assert "worker process" in out
        finally:
            swap_cache(None)

    def test_jobs_flag_keeps_request_order(self, tmp_path, capsys):
        # Analytic experiments around a planned one: the plan runs on
        # the pool, then every experiment prints in request order.
        cache_dir = str(tmp_path / "cache")
        try:
            assert runner_main(
                ["--quick", "--jobs", "2", "--cache-dir", cache_dir,
                 "table02", "schedulers", "fig07"]
            ) == 0
            out = capsys.readouterr().out
            assert "[table02]" in out
            assert "[fig07]" in out
            assert (
                out.index("[table02]") < out.index("[schedulers]")
                < out.index("[fig07]")
            )
            assert "(2 worker processes)" in out
        finally:
            swap_cache(None)

    def test_resolve_jobs_bounds(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    @pytest.mark.parametrize("argv", [
        ["--jobs", "-1", "fig07"],
        ["--jobs", "2", "--no-cache", "fig10"],
        ["--waves", "0", "--no-cache", "fig10"],
        ["--waves", "-1", "--no-cache", "fig11a"],
    ], ids=["negative-jobs", "jobs-without-cache", "zero-waves",
            "negative-waves"])
    def test_usage_errors_spend_no_work(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            runner_main(["--quick"] + argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_jobs_need_the_cache_from_the_environment_too(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        with pytest.raises(SystemExit) as exit_info:
            runner_main(["--quick", "--jobs", "2", "fig10"])
        assert exit_info.value.code == 2
        assert "needs the result cache" in capsys.readouterr().err
