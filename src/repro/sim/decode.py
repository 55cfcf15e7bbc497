"""Per-kernel decode cache for the SM core's issue hot path.

All warps of a kernel execute the same static code, so everything the
issue/operand/retire pipeline derives from an :class:`Instruction` —
deduplicated source tuples, compiler bank ids, release-flag pairs,
renaming-lookup partitions, opcode dispatch tags — can be decoded once
per kernel instead of once per dynamic instruction. This mirrors the
paper's own release-flag-cache observation (Section 7.2: decode the
``pir`` word once, share it across warps) applied to the simulator
itself.

:func:`build_decode_cache` snapshots the kernel into a flat list of
:class:`DecodedInst` records indexed by PC. The cache is pure derived
data: it never changes simulated behaviour, only how fast
``SMCore._try_issue`` gets at the same facts. Each core builds its own
for its ``(num_banks, threshold, mode)``, one decode pass per
simulation instead of one per dynamic instruction. Because it is built
for one register mode, the records also carry mode facts the issue
frame would otherwise test per instruction: outside flags mode no
record has a release list.

Because the cache snapshots compiler-filled fields (``target_pc``,
``reconv_pc``, ``release_srcs``), it must be built *after*
``ensure_reconvergence`` / compilation has finalized the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.arch import GPUConfig
from repro.isa.kernel import Kernel
from repro.isa.opcodes import MemSpace, Opcode, Unit, opcode_info
from repro.sim.execute import (
    _ALU_OPS_OUT,
    _CMP,
    EXEC_ALU,
    EXEC_LOAD,
    EXEC_NONE,
    EXEC_SETP,
    EXEC_STORE,
)

#: The renaming table's bank count (Section 7.1: a 4-banked table).
RENAMING_TABLE_BANKS = 4


class DecodedInst:
    """Flat, precomputed view of one static instruction.

    Slots keep the record compact and make attribute access cheap; all
    fields are immutable after construction.
    """

    __slots__ = (
        # identity / passthrough
        "inst", "pc", "opcode",
        # opcode dispatch tags
        "is_pir", "is_pbr", "is_branch", "is_exit", "is_barrier",
        "is_global_mem", "is_shared_mem", "is_store", "is_sfu",
        # operands
        "dst", "pdst", "srcs", "dedup_srcs", "guard_preg", "guard_negated",
        # release metadata
        "release_list", "release_regs",
        # renaming-path precomputation
        "below_srcs", "above_srcs", "dst_above", "lookup_conflict_extra",
        # baseline-path precomputation (per slot-class bank ids)
        "src_banks_by_slotmod", "dst_bank_by_slotmod",
        "baseline_conflict_extra",
        # value-semantics dispatch (the execute stage of
        # SMCore._try_issue)
        "exec_kind", "exec_out", "offset", "setp_imm", "setp_cmp",
        # retire
        "needs_wb", "target_pc", "reconv_pc",
        # shared operand-binding plan (kernel scope; see _bind_rows)
        "bind_max_reg", "bind_max_pred",
    )

    def __init__(self, inst, num_banks: int, threshold: int, mode: str):
        info = opcode_info(inst.opcode)
        self.inst = inst
        self.pc = inst.pc
        self.opcode = inst.opcode

        self.is_pir = inst.opcode is Opcode.PIR
        self.is_pbr = inst.opcode is Opcode.PBR
        self.is_branch = info.is_branch
        self.is_exit = info.is_exit
        self.is_barrier = info.is_barrier
        self.is_global_mem = info.is_memory and inst.space is MemSpace.GLOBAL
        self.is_shared_mem = info.is_memory and inst.space is MemSpace.SHARED
        self.is_store = info.is_store
        self.is_sfu = info.unit is Unit.SFU

        self.dst = inst.dst
        self.pdst = inst.pdst
        self.srcs = inst.srcs
        self.dedup_srcs = tuple(dict.fromkeys(inst.srcs))
        self.guard_preg = None if inst.guard is None else inst.guard.preg
        self.guard_negated = inst.guard is not None and inst.guard.negated

        # Per-instruction release pairs (reg, flag) collapse to the regs
        # whose flag is set; the all-false case collapses to None so the
        # hot path tests a single falsy value. Only flags mode honours
        # release metadata (redefine ignores it, baseline has no
        # renaming table), so other modes decode none at all.
        released = release_regs = ()
        if mode == "flags":
            released = tuple(
                reg for reg, flag in zip(inst.srcs, inst.release_srcs)
                if flag
            )
            release_regs = tuple(inst.release_regs)
        self.release_list = released or None
        self.release_regs = release_regs

        # Renaming-lookup partition around the exemption threshold, and
        # the 4-banked renaming-table serialization count (static: the
        # architected ids, not the physical ones, pick the table bank).
        self.below_srcs = tuple(
            reg for reg in self.dedup_srcs if reg < threshold
        )
        self.above_srcs = tuple(
            reg for reg in self.dedup_srcs if reg >= threshold
        )
        self.dst_above = inst.dst is not None and inst.dst >= threshold
        lookups = {reg for reg in inst.srcs if reg >= threshold}
        if self.dst_above:
            lookups.add(inst.dst)
        self.lookup_conflict_extra = 0
        if len(lookups) > 1:
            table_banks = {reg % RENAMING_TABLE_BANKS for reg in lookups}
            self.lookup_conflict_extra = len(lookups) - len(table_banks)

        # Compiler bank ids per slot class. ``bank_of(reg, slot, n)`` is
        # ``(reg + slot) % n``, so ``slot % num_banks`` fully determines
        # the bank: one tuple per slot class replaces a ``bank_of`` call
        # per operand per issue. Operand bank *collisions* are
        # slot-independent ((a+s) % n == (b+s) % n iff a % n == b % n),
        # so the baseline conflict penalty is a single static int.
        self.src_banks_by_slotmod = tuple(
            tuple((reg + slot) % num_banks for reg in self.dedup_srcs)
            for slot in range(num_banks)
        )
        self.dst_bank_by_slotmod = (
            None if inst.dst is None else tuple(
                (inst.dst + slot) % num_banks for slot in range(num_banks)
            )
        )
        self.baseline_conflict_extra = len(self.dedup_srcs) - len(
            {reg % num_banks for reg in self.dedup_srcs}
        )

        # Value-semantics dispatch class plus the per-opcode
        # out-parameter handler, resolved once here instead of per
        # dynamic instruction.
        self.offset = inst.offset
        self.exec_out = _ALU_OPS_OUT.get(inst.opcode)
        self.setp_imm = None
        self.setp_cmp = None
        if inst.opcode is Opcode.SETP:
            self.exec_kind = EXEC_SETP
            self.setp_cmp = _CMP[inst.cmp]
            # The immediate stands in for the second register source
            # only when exactly one register source is given.
            if len(inst.srcs) == 1:
                self.setp_imm = np.int64(inst.imm)
        elif info.is_memory:
            self.exec_kind = EXEC_STORE if info.is_store else EXEC_LOAD
        elif self.exec_out is not None:
            self.exec_kind = EXEC_ALU
        else:
            self.exec_kind = EXEC_NONE

        self.needs_wb = inst.dst is not None or inst.pdst is not None
        self.target_pc = inst.target_pc
        self.reconv_pc = inst.reconv_pc

        # Shared operand-binding plan: the capacity demands _bind_rows
        # used to recompute per (warp, pc) are pure decode facts, so
        # every warp of the kernel shares this one copy.
        regs = inst.srcs if inst.dst is None else inst.srcs + (inst.dst,)
        self.bind_max_reg = max(regs) if regs else -1
        preds = [p for p in (self.guard_preg, inst.pdst) if p is not None]
        self.bind_max_pred = max(preds) if preds else -1


def build_decode_cache(kernel: Kernel, config: GPUConfig, threshold: int,
                       mode: str) -> list[DecodedInst]:
    """Decode ``kernel`` once for a core running it under ``mode``.

    ``threshold`` is the *effective* renaming-exemption threshold the
    core will use (0 outside ``flags`` mode). The kernel must already be
    finalized (PCs assigned, reconvergence points resolved).
    """
    return [
        DecodedInst(inst, config.num_banks, threshold, mode)
        for inst in kernel.instructions
    ]
