"""Sweep planner and deduplicating run_sweep tests.

Pin the tentpole invariant: across a runner invocation, every unique
simulation executes exactly once — duplicated specs fan the shared
result back, experiments replay from the cache the planner warmed, and
a second invocation against the same cache directory is pure hits.
"""

from __future__ import annotations

import pytest

import repro.analysis.runners as runners
from repro.analysis.runners import run_sweep, spec_fingerprint
from repro.arch import GPUConfig
from repro.cache import ResultCache, configure_cache, swap_cache
from repro.experiments.planner import collect_plan, execute_plan
from repro.experiments.registry import EXPERIMENTS, get_flows
from repro.experiments.runner import main as runner_main
from repro.workloads.suite import get_workload


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


class TestRunSweepDedup:
    def test_duplicates_run_once_and_fan_back(self, monkeypatch):
        configure_cache()  # fresh memory cache for the flows
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
        results = run_sweep(specs)
        assert len(calls) == 1
        assert results[0] is results[2] is results[3]
        assert results[1] is not results[0]
        assert results[0].stats == original(workload).stats

    def test_order_preserved_with_jobs(self):
        configure_cache()
        workloads = [
            get_workload(name, scale=0.5)
            for name in ("vectoradd", "bfs")
        ]
        specs = [
            ("baseline", workloads[0], {}),
            ("baseline", workloads[1], {}),
            ("baseline", workloads[0], {}),  # duplicate of position 0
        ]
        results = run_sweep(specs, jobs=2)
        assert results[0].workload.name == "vectoradd"
        assert results[1].workload.name == "bfs"
        assert results[0].stats == results[2].stats

    def test_parallel_workers_export_into_parent_cache(self):
        cache = configure_cache()
        workloads = [
            get_workload(name, scale=0.5)
            for name in ("vectoradd", "bfs")
        ]
        specs = [("baseline", w, {}) for w in workloads]
        run_sweep(specs, jobs=2)
        # The parent never simulated, but absorbed both entries: a
        # replay is all hits, no misses.
        before = cache.counters.misses
        run_sweep(specs, jobs=1)
        assert cache.counters.misses == before


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
        real_map = runners.parallel_map

        def counting_key(*args):
            keyed.append(args)
            return real_key(*args)

        def counting_flow(spec):
            ran.append(spec)
            return real_flow(spec)

        def counting_map(fn, items, *rest):
            ran.extend(items)
            return real_map(fn, items, *rest)

        monkeypatch.setattr(runners, "flow_spec_key", counting_key)
        monkeypatch.setattr(runners, "run_flow", counting_flow)
        monkeypatch.setattr(runners, "parallel_map", counting_map)
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
