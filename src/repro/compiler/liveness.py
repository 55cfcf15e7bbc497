"""Backward dataflow liveness analysis over architected registers.

Register sets are represented as Python integers used as bitmasks
(register ``r`` is bit ``1 << r``), which keeps the fixpoint iteration
fast for kernels with up to 63 registers; the public accessors expose
plain ``set[int]`` views.

A register is *live* at a point when some path from that point reads it
before any redefinition — the paper's definition of a live register
("stores a value that may be consumed by any future instruction",
Section 3).
"""

from __future__ import annotations

from repro.compiler.cfg import ControlFlowGraph


def _to_set(mask: int) -> set[int]:
    out = set()
    reg = 0
    while mask:
        if mask & 1:
            out.add(reg)
        mask >>= 1
        reg += 1
    return out


class LivenessAnalysis:
    """Per-block and per-instruction liveness for one CFG."""

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        kernel = cfg.kernel
        num_blocks = len(cfg.blocks)
        num_insts = len(kernel.instructions)

        # Per-instruction use/def masks.
        self._use = [0] * num_insts
        self._def = [0] * num_insts
        for pc, inst in enumerate(kernel.instructions):
            use_mask = 0
            for reg in inst.srcs:
                use_mask |= 1 << reg
            self._use[pc] = use_mask
            if inst.dst is not None:
                self._def[pc] = 1 << inst.dst

        # Block-level gen/kill.
        block_use = [0] * num_blocks
        block_def = [0] * num_blocks
        for block in cfg.blocks:
            use_mask = def_mask = 0
            for pc in block.pcs():
                use_mask |= self._use[pc] & ~def_mask
                def_mask |= self._def[pc]
            block_use[block.index] = use_mask
            block_def[block.index] = def_mask

        # Fixpoint.
        live_in = [0] * num_blocks
        live_out = [0] * num_blocks
        changed = True
        order = list(range(num_blocks - 1, -1, -1))
        while changed:
            changed = False
            for index in order:
                block = cfg.blocks[index]
                out_mask = 0
                for succ in block.successors:
                    out_mask |= live_in[succ]
                in_mask = block_use[index] | (out_mask & ~block_def[index])
                if out_mask != live_out[index] or in_mask != live_in[index]:
                    live_out[index] = out_mask
                    live_in[index] = in_mask
                    changed = True
        self._block_in = live_in
        self._block_out = live_out

        # Per-instruction live-out, by walking each block backwards.
        self._inst_out = [0] * num_insts
        for block in cfg.blocks:
            live = live_out[block.index]
            for pc in reversed(block.pcs()):
                self._inst_out[pc] = live
                live = self._use[pc] | (live & ~self._def[pc])

    # --- mask accessors (internal/perf-sensitive callers) ---------------------
    def live_out_mask(self, pc: int) -> int:
        return self._inst_out[pc]

    def live_in_mask(self, pc: int) -> int:
        return self._use[pc] | (self._inst_out[pc] & ~self._def[pc])

    def block_in_mask(self, block: int) -> int:
        return self._block_in[block]

    def block_out_mask(self, block: int) -> int:
        return self._block_out[block]

    # --- set accessors ----------------------------------------------------------
    def live_out(self, pc: int) -> set[int]:
        """Registers live immediately after instruction ``pc``."""
        return _to_set(self._inst_out[pc])

    def live_in(self, pc: int) -> set[int]:
        """Registers live immediately before instruction ``pc``."""
        return _to_set(self.live_in_mask(pc))

    def block_live_in(self, block: int) -> set[int]:
        return _to_set(self._block_in[block])

    def block_live_out(self, block: int) -> set[int]:
        return _to_set(self._block_out[block])

    def dead_source_operands(self, pc: int) -> tuple[bool, ...]:
        """Which source operands of ``pc`` die at this read.

        ``result[i]`` is True when source ``i``'s register is not live
        after the instruction and is not simultaneously redefined by it
        (a same-register destination reuses the storage in place, so
        there is nothing to release).
        """
        inst = self.cfg.kernel.instructions[pc]
        out_mask = self._inst_out[pc]
        flags = []
        for index, reg in enumerate(inst.srcs):
            dead = not (out_mask >> reg) & 1 and reg != inst.dst
            # A register repeated among the sources is released once,
            # at its last occurrence.
            if dead and reg in inst.srcs[index + 1:]:
                dead = False
            flags.append(dead)
        return tuple(flags)
