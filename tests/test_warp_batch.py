"""Control-flow edge kernels on the whole engine grid.

Two small kernels reach the same pcs by unusual routes: lanes of one
warp split at a guarded write, so warps issue the same pc under
different active-lane patterns; and a loop's back edge lands in the
middle of a straight-line run of ALU work. Each runs in flags mode on
every cell of the decode-cache x cycle-skip grid (see
test_vector_lanes.py), and every :class:`SimStats` field except the
``ticks_executed`` / ``skipped_cycles`` diagnostics — and the final
global-memory image — must equal the seed path's. The values the
kernels compute are pinned too.

The module and test names date from the cross-warp batch engine these
kernels were first written against (as its pooling edges); that engine
has been removed.
"""

from __future__ import annotations

import pytest

from repro.isa import CmpOp, KernelBuilder, Special, assemble
from tests.test_vector_lanes import (
    DEFAULT_CELL,
    FULL_GRID,
    SEED_CELL,
    _comparable,
    _engine,
    _run_kernel,
)


def _diverged_same_pc_kernel():
    """Lanes below tid 48 take the guarded arm, so warps reach the same
    pcs with different active-lane patterns (the second warp of a
    64-thread CTA is split 16/16)."""
    b = KernelBuilder("diverged-same-pc")
    b.s2r(0, Special.TID)
    b.setp(0, 0, CmpOp.LT, imm=48)
    b.movi(1, 3)
    b.movi(1, 11, pred=0)                    # guarded arm, partial mask
    b.iadd(2, 1, 0)
    b.imul(3, 2, 2)
    b.shl(4, 0, 3)
    b.stg(addr=4, value=3)
    b.exit()
    return b.build()


#: A loop whose back edge targets the middle of a straight-line run of
#: ALU work: the branch target starts a new basic block there.
_LOOP_SRC = """
.kernel loop-back-edge
    S2R r0, SR_TID
    MOVI r1, 0x0
    MOVI r2, 0x4
top:
    IADD r1, r1, r0
    IADDI r2, r2, -1
    SETP p0, r2, 0, GT
    @p0 BRA top
    SHL r3, r0, 3
    STG [r3], r1
    EXIT
"""


def _loop_back_edge_kernel():
    return assemble(_LOOP_SRC).clone()


#: Launch shapes of the edge kernels: (threads per CTA, CTAs) — two
#: CTAs of two warps each, and a single warp.
SHAPES = ((64, 2), (32, 1))


def _assert_grid_matches_seed(label, factory, threads, ctas):
    runs, images = {}, {}
    for cell in FULL_GRID:
        with _engine(cell):
            result, image = _run_kernel(factory(), "flags", threads, ctas)
        runs[cell] = _comparable(result)
        images[cell] = image
    for cell in FULL_GRID:
        assert runs[cell] == runs[SEED_CELL], f"{label} {cell} stats"
        assert images[cell] == images[SEED_CELL], f"{label} {cell} memory"


class TestPoolingEdges:
    """Edge kernels: every grid cell, stats + memory image identical to
    the seed path."""

    @pytest.mark.parametrize("name,factory,threads,ctas", (
        ("diverged", _diverged_same_pc_kernel, 64, 2),
        ("single-warp", _diverged_same_pc_kernel, 32, 1),
    ))
    def test_batch_matches_reference(self, name, factory, threads, ctas):
        _assert_grid_matches_seed(name, factory, threads, ctas)

    def test_loop_back_edge_matches_reference(self):
        for threads, ctas in SHAPES:
            _assert_grid_matches_seed(f"loop {threads}x{ctas}",
                                      _loop_back_edge_kernel, threads, ctas)

    def test_diverged_values(self):
        with _engine(DEFAULT_CELL):
            _, image = _run_kernel(_diverged_same_pc_kernel(), "flags", 64, 2)
        # SR_TID is per-CTA, so both CTAs write the same 0..63 range
        # (with identical values: the kernel is tid-pure).
        for tid in range(1, 64):
            base = 11 if tid < 48 else 3
            assert image[tid * 8] == (base + tid) ** 2, tid

    def test_loop_values(self):
        with _engine(DEFAULT_CELL):
            _, image = _run_kernel(_loop_back_edge_kernel(), "flags", 64, 2)
        for tid in range(1, 64):
            assert image[tid * 8] == 4 * tid, tid
