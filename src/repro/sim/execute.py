"""Functional (value-level) execution of one instruction for one warp.

Values are 64-bit integer lanes; floating-point opcodes are modelled on
integer lanes (only latency class matters to the evaluation, but the
data flow must be deterministic so loop trip counts and divergence
patterns are reproducible). Writes are merged under the effective lane
mask (active mask AND guard), which is what makes divergent execution
correct.

Branch instructions return the taken-lane mask; control (SIMT stack,
barriers, exit) is applied by the core.

Two entry points share these semantics:

* :func:`execute` is the seed path's (``REPRO_DECODE_CACHE=0``): it
  decodes the instruction per call and drives a dict-layout
  :class:`repro.sim.warp.Warp`, merging each write with a fresh
  ``np.where``;
* the decode-cached issue frame (``SMCore._try_issue``) inlines its own
  execute stage over a :class:`repro.sim.warp.VectorWarp`: operand rows
  of one contiguous 2D bank, resolved once per (warp, pc) by
  :func:`_bind_rows`, written in place with masked ``np.copyto`` by the
  out-parameter handlers of :data:`_ALU_OPS_OUT`, which allocate
  nothing on the hot path.

The equivalence suites pin the two bit-identical per SimStats field and
memory image.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CmpOp, MemSpace, Opcode, Special
from repro.sim.warp import Warp

#: Addresses are clipped to 31 bits to keep the sparse memories sane.
ADDR_MASK = (1 << 31) - 1

#: ``np.abs`` wraps ``INT64_MIN`` back onto itself (two's complement),
#: which used to turn ``RCP`` into a negative-divisor division and
#: ``SQRT`` into a NaN cast. Magnitude-based handlers clamp the input
#: one above the minimum first, so the absolute value is always
#: non-negative.
_INT64_MIN_P1 = np.int64(-(2**63) + 1)
#: ``RCP`` adds one to the magnitude before dividing; capping the
#: magnitude keeps that increment from overflowing while preserving
#: exact results (any magnitude above 2**16 already divides to zero).
_RCP_MAG_CAP = np.int64(1) << np.int64(32)
_RCP_NUM = np.int64(1 << 16)

_CMP = {
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
}


def effective_mask(warp: Warp, inst: Instruction) -> np.ndarray:
    """Active-lane boolean array after applying the guard predicate.

    The guard combine is a single fused boolean op: ``mask & pred`` for
    a plain guard, ``mask > pred`` for a negated one (on booleans,
    ``a > b`` is exactly ``a & ~b`` without materializing ``~b``).
    """
    mask = warp.mask_array()
    guard = inst.guard
    if guard is not None:
        pred = warp.pred(guard.preg)
        mask = np.greater(mask, pred) if guard.negated else (mask & pred)
    return mask


def array_to_mask(lanes: np.ndarray) -> int:
    """Boolean lane array -> integer bitmask (vectorized bit-pack).

    ``np.packbits`` packs the lanes little-endian into bytes in one C
    pass; the bytes reassemble into the arbitrary-width Python int the
    SIMT stack expects. This replaces a per-lane Python loop that ran
    on every taken branch and guarded ``BRA``.
    """
    return int.from_bytes(
        np.packbits(lanes, bitorder="little").tobytes(), "little"
    )


def _magnitude(values: np.ndarray) -> np.ndarray:
    """``|values|`` with ``INT64_MIN`` clamped away before the abs."""
    return np.abs(np.maximum(values, _INT64_MIN_P1))


def special_value(warp: Warp, special: Special) -> np.ndarray:
    cta = warp.cta
    if special is Special.TID:
        return warp.tids
    if special is Special.CTAID:
        return np.full(warp.warp_size, cta.ctaid, dtype=np.int64)
    if special is Special.NTID:
        return np.full(warp.warp_size, cta.num_threads, dtype=np.int64)
    if special is Special.NCTAID:
        return np.full(warp.warp_size, cta.grid_ctas, dtype=np.int64)
    if special is Special.LANEID:
        return warp.lane_ids
    if special is Special.WARPID:
        return np.full(warp.warp_size, warp.warp_in_cta, dtype=np.int64)
    raise SimulationError(f"unknown special register {special}")


#: Opcodes with no value semantics (control applied by the core).
_NO_VALUE = frozenset(
    (Opcode.EXIT, Opcode.BAR, Opcode.NOP, Opcode.PIR, Opcode.PBR)
)
_LOADS = frozenset((Opcode.LDG, Opcode.LDS))
_STORES = frozenset((Opcode.STG, Opcode.STS))


def execute(inst: Instruction, warp: Warp, gmem) -> int | None:
    """Execute ``inst`` on ``warp``; returns taken mask for branches."""
    opcode = inst.opcode
    if inst.guard is None:
        mask = warp.mask_array()
    else:
        mask = effective_mask(warp, inst)

    if opcode is Opcode.BRA:
        if inst.guard is None:
            return warp.active_mask
        return array_to_mask(mask)
    if opcode in _NO_VALUE:
        return None

    srcs = [warp.reg(reg) for reg in inst.srcs]

    if opcode is Opcode.SETP:
        rhs = (
            np.int64(inst.imm) if len(srcs) == 1 else srcs[1]
        )
        warp.write_pred(inst.pdst, _CMP[inst.cmp](srcs[0], rhs), mask)
        return None

    if opcode in _LOADS:
        addrs = (srcs[0] + inst.offset) & ADDR_MASK
        memory = gmem if inst.space is MemSpace.GLOBAL else warp.cta.shared
        warp.write_reg(inst.dst, memory.load(addrs, mask), mask)
        return None
    if opcode in _STORES:
        addrs = (srcs[0] + inst.offset) & ADDR_MASK
        memory = gmem if inst.space is MemSpace.GLOBAL else warp.cta.shared
        memory.store(addrs, srcs[1], mask)
        return None

    handler = _ALU_OPS.get(opcode)
    if handler is None:
        raise SimulationError(f"no semantics for opcode {opcode}")
    warp.write_reg(inst.dst, handler(inst, srcs, warp), mask)
    return None


def _bind_rows(d, warp):
    """Resolve one decoded instruction's operand rows for ``warp``.

    Capacity is ensured *before* any view is captured: ``reg``/``pred``
    may grow the warp's bank, which reallocates every row, so a view
    bound against the old bank would silently detach. Growth also
    clears the op cache (see ``VectorWarp``), keeping every cached
    entry aimed at live storage.

    The capacity demands themselves (``bind_max_reg`` /
    ``bind_max_pred``) are pure decode facts computed once per static
    instruction at kernel scope (:class:`repro.sim.decode.DecodedInst`)
    and shared by every warp, so the per-(warp, pc) work left here is
    just the row indexing.
    """
    if d.bind_max_reg >= 0:
        warp.reg(d.bind_max_reg)
    if d.bind_max_pred >= 0:
        warp.pred(d.bind_max_pred)
    # Capacity is ensured above, so the rows can be indexed directly.
    rrows = warp._reg_rows
    prows = warp._pred_rows
    entry = (
        tuple(rrows[reg] for reg in d.srcs),
        None if d.dst is None else rrows[d.dst],
        None if d.guard_preg is None else prows[d.guard_preg],
        None if d.pdst is None else prows[d.pdst],
    )
    warp._vec_ops[d.pc] = entry
    return entry


#: ``DecodedInst.exec_kind`` classes, mirrored from repro.sim.decode
#: (defined here to avoid an import cycle; decode imports this module).
EXEC_ALU = 0
EXEC_NONE = 1
EXEC_LOAD = 2
EXEC_STORE = 3
EXEC_SETP = 4


#: Per-opcode value semantics. A dict dispatch replaces the linear
#: opcode if-chain on the issue hot path; adding an opcode means adding
#: an entry here plus an out-parameter twin in :data:`_ALU_OPS_OUT`
#: (and its :mod:`repro.isa.opcodes` metadata).
_ALU_OPS = {
    Opcode.MOV: lambda inst, srcs, warp: srcs[0],
    Opcode.MOVI: lambda inst, srcs, warp: np.full(
        warp.warp_size, inst.imm, dtype=np.int64
    ),
    Opcode.IADD: lambda inst, srcs, warp: srcs[0] + srcs[1],
    Opcode.FADD: lambda inst, srcs, warp: srcs[0] + srcs[1],
    Opcode.IADDI: lambda inst, srcs, warp: srcs[0] + inst.imm,
    Opcode.ISUB: lambda inst, srcs, warp: srcs[0] - srcs[1],
    Opcode.IMUL: lambda inst, srcs, warp: srcs[0] * srcs[1],
    Opcode.FMUL: lambda inst, srcs, warp: srcs[0] * srcs[1],
    Opcode.IMAD: lambda inst, srcs, warp: srcs[0] * srcs[1] + srcs[2],
    Opcode.FFMA: lambda inst, srcs, warp: srcs[0] * srcs[1] + srcs[2],
    Opcode.AND: lambda inst, srcs, warp: srcs[0] & srcs[1],
    Opcode.OR: lambda inst, srcs, warp: srcs[0] | srcs[1],
    Opcode.XOR: lambda inst, srcs, warp: srcs[0] ^ srcs[1],
    Opcode.SHL: lambda inst, srcs, warp: srcs[0] << (inst.imm & 63),
    Opcode.SHR: lambda inst, srcs, warp: srcs[0] >> (inst.imm & 63),
    Opcode.IMIN: lambda inst, srcs, warp: np.minimum(srcs[0], srcs[1]),
    Opcode.IMAX: lambda inst, srcs, warp: np.maximum(srcs[0], srcs[1]),
    Opcode.SEL: lambda inst, srcs, warp: np.where(
        srcs[0] != 0, srcs[1], srcs[2]
    ),
    Opcode.RCP: lambda inst, srcs, warp: _RCP_NUM // (
        np.minimum(_magnitude(srcs[0]), _RCP_MAG_CAP) + 1
    ),
    Opcode.SQRT: lambda inst, srcs, warp: np.sqrt(
        _magnitude(srcs[0]).astype(np.float64)
    ).astype(np.int64),
    Opcode.S2R: lambda inst, srcs, warp: special_value(warp, inst.special),
}


# --- out-parameter handlers of the decode-cached issue frame -----------------
# Contract: ``handler(inst, src_rows, warp, out)`` writes the result
# into ``out``, which may alias any source row (it is the destination
# row on the full-active fast path). Single-ufunc handlers are
# alias-safe by construction (elementwise, same shape); multi-step
# handlers stage through ``warp._scratch2`` / ``warp._bscratch`` and
# only touch ``out`` in their final elementwise step.

def _mov_out(inst, srcs, warp, out):
    np.copyto(out, srcs[0])


def _movi_out(inst, srcs, warp, out):
    out.fill(inst.imm)


def _imad_out(inst, srcs, warp, out):
    tmp = warp._scratch2
    np.multiply(srcs[0], srcs[1], out=tmp)
    np.add(tmp, srcs[2], out=out)


def _sel_out(inst, srcs, warp, out):
    cond = warp._bscratch
    np.not_equal(srcs[0], 0, out=cond)
    tmp = warp._scratch2
    np.copyto(tmp, srcs[2])
    np.copyto(tmp, srcs[1], where=cond)
    np.copyto(out, tmp)


def _rcp_out(inst, srcs, warp, out):
    tmp = warp._scratch2
    np.maximum(srcs[0], _INT64_MIN_P1, out=tmp)
    np.abs(tmp, out=tmp)
    np.minimum(tmp, _RCP_MAG_CAP, out=tmp)
    np.add(tmp, 1, out=tmp)
    np.floor_divide(_RCP_NUM, tmp, out=out)


def _sqrt_out(inst, srcs, warp, out):
    tmp = warp._scratch2
    np.maximum(srcs[0], _INT64_MIN_P1, out=tmp)
    np.abs(tmp, out=tmp)
    ftmp = warp._fscratch
    np.sqrt(tmp, out=ftmp, casting="unsafe")
    np.copyto(out, ftmp, casting="unsafe")


def _s2r_out(inst, srcs, warp, out):
    special = inst.special
    cta = warp.cta
    if special is Special.TID:
        np.copyto(out, warp.tids)
    elif special is Special.CTAID:
        out.fill(cta.ctaid)
    elif special is Special.NTID:
        out.fill(cta.num_threads)
    elif special is Special.NCTAID:
        out.fill(cta.grid_ctas)
    elif special is Special.LANEID:
        np.copyto(out, warp.lane_ids)
    elif special is Special.WARPID:
        out.fill(warp.warp_in_cta)
    else:
        raise SimulationError(f"unknown special register {special}")


_ALU_OPS_OUT = {
    Opcode.MOV: _mov_out,
    Opcode.MOVI: _movi_out,
    Opcode.IADD: lambda inst, srcs, warp, out: np.add(srcs[0], srcs[1], out=out),
    Opcode.FADD: lambda inst, srcs, warp, out: np.add(srcs[0], srcs[1], out=out),
    Opcode.IADDI: lambda inst, srcs, warp, out: np.add(
        srcs[0], inst.imm, out=out
    ),
    Opcode.ISUB: lambda inst, srcs, warp, out: np.subtract(
        srcs[0], srcs[1], out=out
    ),
    Opcode.IMUL: lambda inst, srcs, warp, out: np.multiply(
        srcs[0], srcs[1], out=out
    ),
    Opcode.FMUL: lambda inst, srcs, warp, out: np.multiply(
        srcs[0], srcs[1], out=out
    ),
    Opcode.IMAD: _imad_out,
    Opcode.FFMA: _imad_out,
    Opcode.AND: lambda inst, srcs, warp, out: np.bitwise_and(
        srcs[0], srcs[1], out=out
    ),
    Opcode.OR: lambda inst, srcs, warp, out: np.bitwise_or(
        srcs[0], srcs[1], out=out
    ),
    Opcode.XOR: lambda inst, srcs, warp, out: np.bitwise_xor(
        srcs[0], srcs[1], out=out
    ),
    Opcode.SHL: lambda inst, srcs, warp, out: np.left_shift(
        srcs[0], inst.imm & 63, out=out
    ),
    Opcode.SHR: lambda inst, srcs, warp, out: np.right_shift(
        srcs[0], inst.imm & 63, out=out
    ),
    Opcode.IMIN: lambda inst, srcs, warp, out: np.minimum(
        srcs[0], srcs[1], out=out
    ),
    Opcode.IMAX: lambda inst, srcs, warp, out: np.maximum(
        srcs[0], srcs[1], out=out
    ),
    Opcode.SEL: _sel_out,
    Opcode.RCP: _rcp_out,
    Opcode.SQRT: _sqrt_out,
    Opcode.S2R: _s2r_out,
}
