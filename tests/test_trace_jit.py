"""Engine equivalence beyond the matrixmul grid.

The default engines (the decode-cached issue frame on struct-of-arrays
warps, cycle skip) must reproduce the seed path (per-instruction decode
on the dict layout, one scan per simulated cycle): every
:class:`SimStats` field except the ``ticks_executed`` /
``skipped_cycles`` diagnostics, and the final global-memory image.
test_vector_lanes.py runs the engine grid on matrixmul; these tests
run it on blackscholes and reduction in flags, baseline and redefine
modes, run two control-flow edge kernels (warps split at a real
branch, a loop back edge) in every register mode, and run generated
structured kernels in every register mode — after checking that the
decode cache partitions each kernel, generated or real, into exactly
one record per pc.

The module and test names date from the trace-level JIT these checks
were first written against; the JIT has been removed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.isa import CmpOp, KernelBuilder, Special
from repro.launch import LaunchConfig
from repro.sim.decode import build_decode_cache
from repro.workloads.suite import get_workload
from tests.test_vector_lanes import (
    DEFAULT_CELL,
    FULL_GRID,
    KERNEL_MODES,
    SEED_CELL,
    _assert_cells_match_seed,
    _comparable,
    _engine,
    _run_kernel,
    _simulate,
)
from tests.test_warp_batch import SHAPES, _loop_back_edge_kernel


def _assert_workload_grid_matches_seed(name, mode):
    runs = {}
    for cell in FULL_GRID:
        with _engine(cell):
            runs[cell] = _simulate(name, mode)
    _assert_cells_match_seed(f"{name}/{mode}", runs)


class TestEquivalenceGrid:
    """The whole grid, against the seed path, on the workloads
    test_vector_lanes.py leaves out."""

    def test_vector_plane_is_bit_identical(self):
        _assert_workload_grid_matches_seed("blackscholes", "flags")

    def test_decode_cache_plane_is_bit_identical(self):
        _assert_workload_grid_matches_seed("reduction", "flags")

    @pytest.mark.parametrize("mode", ("baseline", "redefine"))
    def test_other_modes_are_bit_identical(self, mode):
        for name in ("blackscholes", "reduction"):
            _assert_workload_grid_matches_seed(name, mode)


def _diverged_kernel():
    """Lanes below tid 48 take the branch and the rest fall through, so
    warps split at a real branch and reconverge before the store (the
    second warp of a 64-thread CTA is split 16/16)."""
    b = KernelBuilder("diverged-branch")
    b.s2r(0, Special.TID)
    b.setp(0, 0, CmpOp.LT, imm=48)
    taken = b.fresh_label()
    merge = b.fresh_label()
    b.bra(taken, pred=0)
    b.movi(1, 3)
    b.bra(merge)
    b.place(taken)
    b.movi(1, 11)
    b.place(merge)
    b.iadd(2, 1, 0)
    b.imul(3, 2, 2)
    b.shl(4, 0, 3)
    b.stg(addr=4, value=3)
    b.exit()
    return b.build()


def _modes_match_seed(label, factory, threads, ctas):
    """Run ``factory()`` in every register mode on the default engines
    and on the seed path; return the default-engine memory images."""
    images = {}
    for mode in KERNEL_MODES:
        runs = {}
        for cell in (DEFAULT_CELL, SEED_CELL):
            with _engine(cell):
                result, image = _run_kernel(factory(), mode, threads, ctas)
            runs[cell] = (_comparable(result), image)
        default, seed = runs[DEFAULT_CELL], runs[SEED_CELL]
        assert default[0] == seed[0], f"{label}/{mode} stats diverged"
        assert default[1] == seed[1], f"{label}/{mode} memory diverged"
        images[mode] = default[1]
    return images


class TestFallbackEdges:
    """Edge kernels in every register mode: stats + memory image pinned
    to the seed path."""

    @pytest.mark.parametrize("name,factory,threads,ctas", (
        ("diverged", _diverged_kernel, 64, 2),
        ("single-warp", _diverged_kernel, 32, 1),
    ))
    def test_jit_matches_reference(self, name, factory, threads, ctas):
        images = _modes_match_seed(name, factory, threads, ctas)
        for mode, image in images.items():
            for tid in range(1, threads):
                base = 11 if tid < 48 else 3
                assert image[tid * 8] == (base + tid) ** 2, (mode, tid)

    def test_loop_back_edge_matches_reference(self):
        for threads, ctas in SHAPES:
            _modes_match_seed(f"loop {threads}x{ctas}",
                              _loop_back_edge_kernel, threads, ctas)

    def test_loop_values(self):
        for mode in KERNEL_MODES:
            with _engine(DEFAULT_CELL):
                _, image = _run_kernel(_loop_back_edge_kernel(), mode, 64, 2)
            for tid in range(1, 64):
                assert image[tid * 8] == 4 * tid, (mode, tid)


# --- generated structured kernels --------------------------------------------

#: Small structured-kernel strategy: straight ALU chains, one level of
#: data-dependent divergence, bounded loops, loads, stores and
#: barriers — enough to put branch targets inside straight-line runs
#: and memory or barrier holes between them.
_app_reg = st.integers(0, 4)
_simple = st.one_of(
    st.tuples(st.just("alu"), _app_reg, _app_reg, _app_reg),
    st.tuples(st.just("movi"), _app_reg, st.integers(0, 255)),
    st.tuples(st.just("load"), _app_reg, _app_reg),
    st.tuples(st.just("store"), _app_reg, _app_reg),
    st.tuples(st.just("bar"),),
)
_branch = st.tuples(
    st.just("if"), st.integers(1, 62),
    st.lists(_simple, min_size=1, max_size=4),
    st.lists(_simple, min_size=1, max_size=4),
)
_loop = st.tuples(
    st.just("loop"), st.integers(1, 3),
    st.lists(_simple, min_size=1, max_size=4),
)
_spec = st.lists(
    st.one_of(_simple, _branch, _loop), min_size=1, max_size=5
)

#: Launch shape of the generated kernels: two CTAs of two warps.
_THREADS, _CTAS = 64, 2


def _build(spec):
    b = KernelBuilder("generated", num_preds=8)
    b.s2r(0, Special.TID)
    for op in spec:
        _emit(b, op, pred=1, counter=5)
    b.stg(addr=0, value=1, offset=0x20000)
    b.exit()
    return b.build()


def _emit(b, op, pred, counter):
    kind = op[0]
    if kind == "alu":
        b.iadd(op[1], op[2], op[3])
    elif kind == "movi":
        b.movi(op[1], op[2])
    elif kind == "load":
        b.ldg(op[1], addr=op[2], offset=0x1000)
    elif kind == "store":
        b.stg(addr=op[1], value=op[2], offset=0x8000)
    elif kind == "bar":
        b.bar()
    elif kind == "if":
        _, threshold, then_ops, else_ops = op
        b.setp(pred, 0, CmpOp.LT, imm=threshold)
        then_label = b.fresh_label()
        merge = b.fresh_label()
        b.bra(then_label, pred=pred)
        for inner in else_ops:
            _emit(b, inner, pred + 1, counter + 1)
        b.bra(merge)
        b.place(then_label)
        for inner in then_ops:
            _emit(b, inner, pred + 1, counter + 1)
        b.place(merge)
        b.nop()
    elif kind == "loop":
        _, trips, body = op
        b.movi(counter, trips)
        top = b.label()
        for inner in body:
            _emit(b, inner, pred + 1, counter + 1)
        b.iaddi(counter, counter, -1)
        b.setp(pred, counter, CmpOp.GT, imm=0)
        b.bra(top, pred=pred)
    else:  # pragma: no cover
        raise AssertionError(kind)


def _partition_invariants(kernel, launch):
    """The decode cache of the flags-compiled ``kernel`` holds exactly
    one record per pc, and every control transfer lands on a decoded
    pc (or, for a reconvergence point, the past-the-end sentinel)."""
    config = GPUConfig.renamed()
    compiled = compile_kernel(kernel, launch, config)
    insts = compiled.kernel.instructions
    cache = build_decode_cache(
        compiled.kernel, config, compiled.renaming_threshold, "flags"
    )
    assert len(cache) == len(insts)
    for pc, (entry, inst) in enumerate(zip(cache, insts)):
        assert entry.inst is inst and entry.pc == pc, f"pc {pc}"
        if entry.is_branch:
            assert 0 <= entry.target_pc < len(insts), f"target of {pc}"
        if inst.is_conditional_branch:
            assert 0 <= entry.reconv_pc <= len(insts), f"reconv of {pc}"


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_spec)
def test_partition_covers_every_pc_exactly_once(spec):
    """Every generated kernel decodes to one record per pc and, in every
    register mode, gives the same stats and memory image on the default
    engines as on the seed path."""
    kernel = _build(spec)
    _partition_invariants(
        kernel, LaunchConfig(_CTAS, _THREADS, conc_ctas_per_sm=_CTAS)
    )
    _modes_match_seed("generated", lambda: kernel, _THREADS, _CTAS)


@pytest.mark.parametrize("name", ("matrixmul", "blackscholes",
                                  "reduction"))
def test_partition_invariants_on_real_workloads(name):
    workload = get_workload(name, scale=0.5)
    _partition_invariants(workload.kernel, workload.launch)
