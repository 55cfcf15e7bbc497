"""Engine equivalence on the decode-cache x cycle-skip grid.

The decode-cached issue frame drives struct-of-arrays warps
(:class:`VectorWarp`: one contiguous 2D register bank per warp and
in-place masked writes) in every register mode; the seed path
(``REPRO_DECODE_CACHE=0``: per-instruction decode, dict-layout
:class:`Warp`, the scheduler's own selection calls) is the single
reference. Every cell of the engine grid must reproduce the seed cell
(no decode cache, one scan per simulated cycle): every
:class:`SimStats` field except the ``ticks_executed`` /
``skipped_cycles`` diagnostics, and the final global-memory image, in
every register mode. These tests pin that grid,
the aliasing/mask edge cases the in-place writes are most likely to
get wrong, the :class:`VectorWarp` storage invariants, and how cores
bind their issue and tick entry points.

The grid, its seed and default cells and the runners below are shared
with test_warp_batch.py (control-flow edge kernels on the whole grid)
and test_trace_jit.py (other workloads, register modes and generated
kernels against the seed path).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

import numpy as np
import pytest

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.isa import CmpOp, KernelBuilder, Special
from repro.launch import LaunchConfig
from repro.sim.core import SMCore
from repro.sim.gpu import GPU
from repro.sim.renaming import RenamingTable
from repro.sim.warp import VectorWarp, Warp
from repro.workloads.suite import get_workload

SHRINK_FRACTION = 0.2
#: Engine diagnostics: the only fields allowed to differ across
#: engines (see test_cycle_skip.py).
DIAGNOSTICS = frozenset({"ticks_executed", "skipped_cycles"})
#: Full (decode-cache, cycle-skip) engine grid.
FULL_GRID = tuple(
    (cache, skip) for cache in ("1", "0") for skip in ("1", "0")
)
#: The seed path: per-instruction decode on the dict layout, one scan
#: per simulated cycle. Every other cell must reproduce it.
SEED_CELL = ("0", "0")
#: The default engines.
DEFAULT_CELL = ("1", "1")
_ENGINE_FLAGS = ("REPRO_DECODE_CACHE", "REPRO_CYCLE_SKIP")


@contextlib.contextmanager
def _engine(cell):
    """Run the body under one grid cell's engine flags. (A context
    manager rather than ``monkeypatch``: hypothesis tests may not use
    function-scoped fixtures.)"""
    saved = {flag: os.environ.get(flag) for flag in _ENGINE_FLAGS}
    os.environ.update(zip(_ENGINE_FLAGS, cell))
    try:
        yield
    finally:
        for flag, value in saved.items():
            if value is None:
                os.environ.pop(flag, None)
            else:
                os.environ[flag] = value


def _comparable(result) -> dict:
    return {
        name: value
        for name, value in dataclasses.asdict(result.stats).items()
        if name not in DIAGNOSTICS
    }


def _simulate(name, mode, scale=0.5, fraction=SHRINK_FRACTION, waves=1,
              **kwargs):
    """Run ``name`` in ``mode`` (``shrink`` is flags mode on a shrunk
    file); returns the comparable stats and the global-memory image."""
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
        gpu = GPU(config, compiled.kernel, workload.launch, mode="flags",
                  threshold=compiled.renaming_threshold, **opts)
    else:
        config = (
            GPUConfig.renamed() if mode == "redefine"
            else GPUConfig.baseline()
        )
        gpu = GPU(config, workload.kernel.clone(), workload.launch,
                  mode=mode, **opts)
    return _comparable(gpu.run()), gpu.gmem.image()


def _assert_cells_match_seed(label, runs):
    """``runs`` maps grid cells to (stats, memory image)."""
    seed = runs[SEED_CELL]
    for cell, (stats, image) in runs.items():
        assert stats == seed[0], f"{label} cell {cell} stats diverged"
        assert image == seed[1], f"{label} cell {cell} memory diverged"


class TestEquivalenceGrid:
    """decode-cache x cycle-skip engine grid, against the seed cell."""

    def test_flags_serial_grid_is_bit_identical(self):
        runs = {}
        for cell in FULL_GRID:
            with _engine(cell):
                runs[cell] = _simulate("matrixmul", "flags")
        _assert_cells_match_seed("matrixmul/flags", runs)

    @pytest.mark.parametrize("mode", ("baseline", "redefine", "shrink"))
    def test_other_modes_vector_grid_is_bit_identical(self, mode):
        runs = {}
        for cell in FULL_GRID:
            with _engine(cell):
                runs[cell] = _simulate("matrixmul", mode)
        _assert_cells_match_seed(f"matrixmul/{mode}", runs)

    def test_spill_path_is_bit_identical(self):
        """Deep shrink with spill/fill churn: warps round-trip their
        registers through memory, the harshest test of the permanent
        row views."""
        runs = {}
        for cell in (DEFAULT_CELL, SEED_CELL):
            with _engine(cell):
                runs[cell] = _simulate("matrixmul", "shrink", scale=1.0,
                                       fraction=0.18, waves=2)
        assert runs[DEFAULT_CELL][0]["spill_events"] > 0, (
            "sample must actually exercise spills"
        )
        _assert_cells_match_seed("spill", runs)


def _alias_kernel():
    """IADD R2, R2, R2 — destination row aliases both source rows, so
    an in-place write that clobbers its own inputs mid-ufunc would
    corrupt the result."""
    b = KernelBuilder("alias")
    b.s2r(0, Special.TID)
    b.shl(1, 0, 3)      # R1 = tid * 8 (store address)
    b.iadd(2, 0, 0)     # R2 = 2 * tid
    b.iadd(2, 2, 2)     # R2 = R2 + R2, all operands one register
    b.iadd(2, 2, 2)
    b.stg(addr=1, value=2)
    b.exit()
    return b.build()


def _guarded_setp_kernel():
    """A guarded SETP writes its predicate on a partial mask; the
    untouched lanes must keep their default (False) and gate a later
    guarded write accordingly."""
    b = KernelBuilder("guarded-setp")
    b.s2r(0, Special.TID)
    b.setp(0, 0, CmpOp.LT, imm=16)          # P0 = tid < 16
    b.setp(1, 0, CmpOp.GE, imm=8, pred=0)   # P1 written only where P0
    b.movi(2, 7)
    b.movi(2, 42, pred=1)                   # only lanes 8..15 take 42
    b.shl(3, 0, 3)
    b.stg(addr=3, value=2)
    b.exit()
    return b.build()


def _dead_store_kernel():
    """A store whose guard turns every lane off must not touch memory,
    and a register written but never read must stay inert."""
    b = KernelBuilder("dead-store")
    b.s2r(0, Special.TID)
    b.setp(0, 0, CmpOp.LT, imm=0)   # always false: tid >= 0
    b.shl(1, 0, 3)
    b.movi(2, 99)
    b.stg(addr=1, value=2, pred=0)  # all lanes off
    b.movi(3, 123)                  # never read again
    b.stg(addr=1, value=0)          # live store: gmem[tid*8] = tid
    b.exit()
    return b.build()


MASK_EDGE_KERNELS = {
    "alias": _alias_kernel,
    "guarded-setp": _guarded_setp_kernel,
    "dead-store": _dead_store_kernel,
}


#: Register modes a small kernel runs in: name -> (configuration,
#: simulated mode). Flags-mode kernels are compiled first.
KERNEL_MODES = {
    "baseline": (GPUConfig.baseline(), "baseline"),
    "flags": (GPUConfig.renamed(), "flags"),
    "redefine": (GPUConfig.renamed(), "redefine"),
    "shrink": (GPUConfig.shrunk(0.15), "flags"),
}


def _run_kernel(kernel, mode, threads_per_cta=32, grid_ctas=1):
    launch = LaunchConfig(grid_ctas, threads_per_cta,
                          conc_ctas_per_sm=grid_ctas)
    config, sim_mode = KERNEL_MODES[mode]
    if sim_mode == "flags":
        compiled = compile_kernel(kernel, launch, config)
        gpu = GPU(config, compiled.kernel, launch, mode="flags",
                  threshold=compiled.renaming_threshold)
    else:
        gpu = GPU(config, kernel.clone(), launch, mode=sim_mode)
    result = gpu.run()
    return result, gpu.gmem.image()


class TestMaskEdgeWorkloads:
    """Aliasing and mask edge cases, stats + memory image identical."""

    @pytest.mark.parametrize("mode", ("baseline", "flags"))
    @pytest.mark.parametrize("name", sorted(MASK_EDGE_KERNELS))
    def test_vector_matches_reference(self, name, mode):
        runs = {}
        for cell in FULL_GRID:
            with _engine(cell):
                result, image = _run_kernel(MASK_EDGE_KERNELS[name](), mode)
            runs[cell] = (_comparable(result), image)
        _assert_cells_match_seed(f"{name}/{mode}", runs)

    def test_alias_values(self):
        with _engine(DEFAULT_CELL):
            _, image = _run_kernel(_alias_kernel(), "baseline")
        for tid in range(1, 32):
            assert image[tid * 8] == 8 * tid

    def test_guarded_setp_values(self):
        with _engine(DEFAULT_CELL):
            _, image = _run_kernel(_guarded_setp_kernel(), "baseline")
        for tid in range(1, 32):
            expected = 42 if 8 <= tid < 16 else 7
            assert image[tid * 8] == expected, tid

    def test_dead_store_writes_nothing(self):
        with _engine(DEFAULT_CELL):
            _, image = _run_kernel(_dead_store_kernel(), "baseline")
        assert 99 not in image.values()
        for tid in range(1, 32):
            assert image[tid * 8] == tid


class _FakeCta:
    index = 0


class TestVectorWarp:
    """Storage invariants the issue frame relies on."""

    def _warp(self, num_regs=4, num_preds=2):
        return VectorWarp(slot=0, cta=_FakeCta(), warp_in_cta=0,
                          warp_size=32, active_threads=32,
                          num_regs=num_regs, num_preds=num_preds)

    def test_rows_default_to_zero(self):
        warp = self._warp()
        assert (warp.reg(3) == 0).all()
        assert not warp.pred(1).any()

    def test_masked_write_mutates_row_in_place(self):
        warp = self._warp()
        row = warp.reg(1)
        mask = np.zeros(32, dtype=bool)
        mask[:8] = True
        warp.write_reg(1, np.full(32, 5, dtype=np.int64), mask)
        assert warp.reg(1) is row  # the view is permanent
        assert (row[:8] == 5).all()
        assert (row[8:] == 0).all()  # inactive lanes untouched

    def test_masked_pred_write(self):
        warp = self._warp()
        mask = np.zeros(32, dtype=bool)
        mask[4] = True
        warp.write_pred(0, np.ones(32, dtype=bool), mask)
        assert warp.pred(0)[4]
        assert warp.pred(0).sum() == 1

    def test_growth_preserves_values_and_clears_op_cache(self):
        warp = self._warp(num_regs=2)
        values = np.arange(32, dtype=np.int64)
        warp.write_reg(1, values, np.ones(32, dtype=bool))
        warp._vec_ops[0] = object()  # stale operand-row binding
        assert (warp.reg(10) == 0).all()  # forces bank growth
        assert warp._vec_ops == {}  # stale views unreachable
        assert (warp.reg(1) == values).all()

    def test_pred_growth_clears_op_cache(self):
        warp = self._warp(num_preds=1)
        warp._vec_ops[0] = object()
        warp.pred(5)
        assert warp._vec_ops == {}

    def test_dict_layout_is_poisoned(self):
        warp = self._warp()
        assert warp.regs is None
        assert warp.preds is None


#: Cores the binding tests build: label -> (configuration, mode,
#: SMCore options). Flags-mode kernels are compiled first.
BINDING_CORES = {
    "baseline": (GPUConfig.baseline(), "baseline", {}),
    "flags": (GPUConfig.renamed(), "flags", {}),
    "redefine": (GPUConfig.renamed(), "redefine", {}),
    "traced-flags": (
        GPUConfig.renamed(), "flags", dict(trace_warp_slots=(0, 1))
    ),
    "rfc-baseline": (
        GPUConfig.baseline(rfc_entries_per_warp=6), "baseline", {}
    ),
}


class TestPlumbing:
    """How a core binds its issue and tick entry points and its warp
    layout."""

    def _core(self, label="flags", policy=None):
        config, mode, opts = BINDING_CORES[label]
        if policy is not None:
            config = config.replace(scheduler_policy=policy)
        workload = get_workload("matrixmul", scale=0.5)
        kernel = workload.kernel.clone()
        if mode == "flags":
            compiled = compile_kernel(kernel, workload.launch, config)
            kernel = compiled.kernel
            opts = dict(opts, threshold=compiled.renaming_threshold)
        return SMCore(config, kernel, workload.launch, mode=mode, **opts)

    @pytest.mark.parametrize("label", sorted(BINDING_CORES))
    def test_cached_cores_issue_through_the_frame(self, label,
                                                  monkeypatch):
        """Every register mode, traced or with a register file cache,
        issues through the class's own frame and rotation tick: nothing
        is bound on the instance, so the core holds no reference to
        itself. Every renaming setup, redefine and traced ones too,
        maps and reads its registers in the frame, never through the
        renaming table's own accessors."""
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        core = self._core(label)
        assert core._try_issue.__func__ is SMCore._try_issue
        assert core.tick.__func__ is SMCore.tick
        assert "_try_issue" not in vars(core)
        assert "tick" not in vars(core)
        assert not core._generic_tick

        def outside_the_frame(*args, **kwargs):
            raise AssertionError("the frame called the renaming table")

        monkeypatch.setattr(RenamingTable, "write", outside_the_frame)
        monkeypatch.setattr(RenamingTable, "read", outside_the_frame)
        core.cta_queue = [0]
        while core.cycle < 2000:
            core.tick()
        assert core.stats.instructions > 0
        if core.renaming is not None:
            assert core.stats.renaming_writes > 0
        events = {event for *_, event in core.stats.lifetime_events}
        assert events == ({"def", "release"} if label == "traced-flags"
                          else set())

    def test_env_flag_selects_engine(self, monkeypatch):
        """``REPRO_DECODE_CACHE=0`` sends every register mode through
        the generic tick and the seed path's issue function, with
        nothing bound on the instance."""
        monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
        calls = []
        uncached = SMCore._try_issue_uncached

        def spy(core, *args, **kwargs):
            calls.append(core)
            return uncached(core, *args, **kwargs)

        monkeypatch.setattr(SMCore, "_try_issue_uncached", spy)
        for label in BINDING_CORES:
            core = self._core(label)
            assert core._decode is None and core._generic_tick
            assert "_try_issue" not in vars(core)
            assert "tick" not in vars(core)
            core.cta_queue = [0]
            while core.cycle < 20:
                core.tick()
            assert calls.count(core) > 0, label

    def test_gto_keeps_reference_tick(self, monkeypatch):
        """The inlined tick only covers the rotation policies; gto must
        fall back to the generic tick (but keep the issue frame)."""
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        calls = []
        generic = SMCore._tick_generic

        def spy(core):
            calls.append(core)
            return generic(core)

        monkeypatch.setattr(SMCore, "_tick_generic", spy)
        for label in ("baseline", "flags", "redefine"):
            core = self._core(label, policy="gto")
            assert core._try_issue.__func__ is SMCore._try_issue
            assert core._generic_tick
            assert "tick" not in vars(core)
            core.tick()
            assert calls[-1] is core

    def test_warp_class_follows_flag(self, monkeypatch, straight_kernel):
        """Warp layout follows the decode cache: struct-of-arrays on
        the cached path, the dict layout on the seed path."""
        launch = LaunchConfig(1, 32, conc_ctas_per_sm=1)
        for cache, cls in (("1", VectorWarp), ("0", Warp)):
            monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
            core = SMCore(GPUConfig.baseline(), straight_kernel.clone(),
                          launch, mode="baseline")
            core.cta_queue = [0]
            core.tick()
            assert core.resident, "tick 0 must launch the CTA"
            for cta in core.resident:
                assert cta.warps
                for warp in cta.warps:
                    assert type(warp) is cls
