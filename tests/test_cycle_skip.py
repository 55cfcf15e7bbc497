"""The cycle-skipping engine must be invisible: bit-identical stats.

``SMCore`` fast-forwards over dead cycles by default
(``REPRO_CYCLE_SKIP=1``); the strict per-cycle reference path stays
available behind ``REPRO_CYCLE_SKIP=0``. Every ``SimStats`` counter —
except the two engine diagnostics ``ticks_executed`` /
``skipped_cycles``, which *describe* how the result was computed —
must come out exactly equal on both paths, in every register mode
including deep GPU-shrink, composed with either decode path. These
tests pin that 2x2 grid plus the flag plumbing.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import GPUConfig
from repro.cache import engine_fingerprint
from repro.compiler import compile_kernel
from repro.sim.gpu import GPU, simulate
from repro.workloads.suite import get_workload

MODES = ("baseline", "flags", "shrink")
#: Deep enough that the shrink leg throttles and spills, shallow
#: enough that every test workload still completes.
SHRINK_FRACTION = 0.2
#: (cycle-skip, decode-cache) environment grid.
GRID = tuple(
    (skip, cache) for skip in ("1", "0") for cache in ("1", "0")
)
#: Engine diagnostics: the only fields allowed to differ across the
#: grid (the per-cycle path executes every cycle, the skip engine
#: doesn't).
DIAGNOSTICS = frozenset({"ticks_executed", "skipped_cycles"})


def _comparable(result) -> dict:
    return {
        name: value
        for name, value in dataclasses.asdict(result.stats).items()
        if name not in DIAGNOSTICS
    }


def _simulate(name, mode, scale=0.5, fraction=SHRINK_FRACTION, waves=1,
              **kwargs):
    """One run of workload ``name`` under ``mode``.

    ``shrink`` is the flags flow compiled against a register file
    shrunk to ``fraction`` — the regime where throttle and spill
    windows dominate and the skip engine does real work.
    """
    workload = get_workload(name, scale=scale)
    opts = dict(
        max_ctas_per_sm_sim=waves * workload.table1.conc_ctas_per_sm
    )
    opts.update(kwargs)
    if mode in ("flags", "shrink"):
        config = (
            GPUConfig.shrunk(fraction)
            if mode == "shrink"
            else GPUConfig.renamed()
        )
        compiled = compile_kernel(workload.kernel, workload.launch, config)
        return simulate(
            compiled.kernel, workload.launch, config, mode="flags",
            threshold=compiled.renaming_threshold, **opts,
        )
    return simulate(
        workload.kernel.clone(), workload.launch, GPUConfig.baseline(),
        mode="baseline", **opts,
    )


class TestEquivalenceGrid:
    """2x2 ``REPRO_CYCLE_SKIP`` x ``REPRO_DECODE_CACHE`` grid."""

    @pytest.mark.parametrize("mode", MODES)
    def test_serial_grid_is_bit_identical(self, mode, monkeypatch):
        runs = {}
        for skip, cache in GRID:
            monkeypatch.setenv("REPRO_CYCLE_SKIP", skip)
            monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
            runs[(skip, cache)] = _comparable(_simulate("matrixmul", mode))
        reference = runs[("0", "1")]
        for cell, stats in runs.items():
            assert stats == reference, f"grid cell {cell} diverged"

    def test_spill_path_is_bit_identical(self, monkeypatch):
        """Deep shrink with spill/fill churn — the hardest timing path
        (spill trigger streaks must advance identically across jumps).
        """
        runs = {}
        for skip in ("1", "0"):
            monkeypatch.setenv("REPRO_CYCLE_SKIP", skip)
            result = _simulate("matrixmul", "shrink", scale=1.0,
                               fraction=0.18, waves=2)
            runs[skip] = (_comparable(result), result.stats.spill_events)
        assert runs["1"][1] > 0, "sample must actually exercise spills"
        assert runs["1"][0] == runs["0"][0]


class TestDiagnostics:
    def test_ticks_plus_skipped_covers_every_cycle(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "1")
        result = _simulate("matrixmul", "shrink")
        stats = result.stats
        assert stats.skipped_cycles > 0
        assert stats.ticks_executed + stats.skipped_cycles == stats.cycles

    @pytest.mark.parametrize("name", ("scalarprod", "backprop", "lud"))
    def test_deep_shrink_skips_most_cycles(self, name, monkeypatch):
        """Throttle-dominated (scalarprod, backprop) and latency-bound
        (lud) kernels at a deep shrink spend most cycles dead: the skip
        engine must jump over at least half of them instead of silently
        degenerating into the per-cycle path."""
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "1")
        stats = _simulate(name, "shrink", fraction=0.15).stats
        assert stats.skipped_cycles >= stats.cycles / 2
        assert stats.ticks_executed + stats.skipped_cycles == stats.cycles

    def test_per_cycle_path_skips_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "0")
        result = _simulate("matrixmul", "shrink")
        assert result.stats.skipped_cycles == 0
        assert result.stats.ticks_executed == result.stats.cycles


class TestPlumbing:
    def _gpu(self):
        workload = get_workload("matrixmul", scale=0.5)
        return GPU(
            GPUConfig.baseline(), workload.kernel.clone(), workload.launch,
            mode="baseline", max_ctas_per_sm_sim=1,
        )

    def test_env_flag_selects_engine(self, monkeypatch):
        for off in ("0", "no"):
            monkeypatch.setenv("REPRO_CYCLE_SKIP", off)
            assert self._gpu().core.cycle_skip is False
            # Result-cache keys name the engine the core runs.
            assert engine_fingerprint()[-1] is False
        monkeypatch.delenv("REPRO_CYCLE_SKIP")
        assert self._gpu().core.cycle_skip is True  # default on
