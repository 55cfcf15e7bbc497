"""Per-warp execution state: lanes, SIMT stack, scoreboard, status.

Functional register values are keyed by *architected* id; renaming
affects only timing and the register file occupancy model, never
functional values. That separation lets the test suite check that
baseline / renamed / GPU-shrink configurations compute identical
results.

Two storage layouts implement the same register API, and the decode
cache (``REPRO_DECODE_CACHE``) picks one:

* :class:`VectorWarp` — struct-of-arrays, on the decode-cached path:
  one contiguous 2D bank (``regs[num_regs, warp_size]`` int64 plus a
  bool predicate bank) whose *rows* are permanent views, enabling
  in-place masked writes and per-(warp, pc) operand-row caching in the
  issue frame's execute stage;
* :class:`Warp` — the dict layout, on the seed path only: one 32-lane
  numpy array per architected id, writes merged with a fresh
  ``np.where``.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.sim.simt import SimtStack


class WarpStatus(enum.Enum):
    ACTIVE = "active"
    AT_BARRIER = "barrier"
    SPILLING = "spilling"  # registers being written out
    SPILLED = "spilled"  # waiting for registers to fill back
    FILLING = "filling"  # registers being read back
    FINISHED = "finished"


class Warp:
    """One warp resident on the SM."""

    def __init__(self, slot: int, cta, warp_in_cta: int, warp_size: int,
                 active_threads: int):
        self.slot = slot  # hardware warp slot on the SM
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.warp_size = warp_size
        full_mask = (1 << active_threads) - 1
        self.stack = SimtStack(entry_pc=0, full_mask=full_mask)
        self.status = WarpStatus.ACTIVE

        lanes = np.arange(warp_size, dtype=np.int64)
        self.lane_ids = lanes
        self.tids = lanes + warp_in_cta * warp_size

        self.regs: dict[int, np.ndarray] = {}
        self.preds: dict[int, np.ndarray] = {}

        # Scoreboard: registers/predicates with a write in flight.
        self.pending_regs: set[int] = set()
        self.pending_preds: set[int] = set()
        self.outstanding_mem = 0

        # mask_array memo, keyed by the integer active mask. Callers
        # treat the returned array as read-only (numpy ops on it build
        # new arrays), so one lane array per distinct mask suffices.
        self._mask_key = -1
        self._mask_arr: np.ndarray | None = None

        self.last_issue_cycle = -1
        #: Front-end bubble: the warp cannot issue before this cycle
        #: (branch redirect through the extra renaming stage, 7.1).
        self.stalled_until = 0
        # GPU-shrink spill bookkeeping.
        self.spilled_regs: tuple[int, ...] = ()

    # --- functional register access ------------------------------------------
    def reg(self, index: int) -> np.ndarray:
        values = self.regs.get(index)
        if values is None:
            values = np.zeros(self.warp_size, dtype=np.int64)
            self.regs[index] = values
        return values

    def write_reg(self, index: int, values: np.ndarray,
                  mask: np.ndarray) -> None:
        current = self.reg(index)
        self.regs[index] = np.where(mask, values, current)

    def pred(self, index: int) -> np.ndarray:
        values = self.preds.get(index)
        if values is None:
            values = np.zeros(self.warp_size, dtype=bool)
            self.preds[index] = values
        return values

    def write_pred(self, index: int, values: np.ndarray,
                   mask: np.ndarray) -> None:
        current = self.pred(index)
        self.preds[index] = np.where(mask, values, current)

    # --- control ---------------------------------------------------------------
    @property
    def pc(self) -> int:
        return self.stack.pc

    @pc.setter
    def pc(self, value: int) -> None:
        self.stack.pc = value

    @property
    def active_mask(self) -> int:
        return self.stack.active_mask

    def mask_array(self) -> np.ndarray:
        """Active mask as a boolean lane array (read-only memo)."""
        mask = self.stack.active_mask
        if mask != self._mask_key:
            self._mask_arr = ((mask >> self.lane_ids) & 1).astype(bool)
            self._mask_key = mask
        return self._mask_arr

    def stall_front_end(self, until: int, wakeups: set) -> None:
        """Park the front end until ``until`` and register the warp in
        the core's wake-up set.

        Every ``stalled_until`` write must go through here (or add the
        warp to ``wakeups`` itself): the cycle-skipping engine derives
        its jump targets from that set, so a stalled warp it does not
        know about would be fast-forwarded past its wake-up cycle.
        """
        self.stalled_until = until
        wakeups.add(self)

    # --- scoreboard --------------------------------------------------------------
    def scoreboard_ready(self, inst) -> bool:
        """True when no RAW/WAW hazard blocks ``inst``."""
        pending = self.pending_regs
        if pending:
            for reg in inst.srcs:
                if reg in pending:
                    return False
            if inst.dst is not None and inst.dst in pending:
                return False
        if self.pending_preds:
            if inst.guard is not None and inst.guard.preg in self.pending_preds:
                return False
            if inst.pdst is not None and inst.pdst in self.pending_preds:
                return False
        return True

    def scoreboard_mark(self, inst) -> None:
        if inst.dst is not None:
            self.pending_regs.add(inst.dst)
        if inst.pdst is not None:
            self.pending_preds.add(inst.pdst)

    def scoreboard_clear(self, inst) -> None:
        if inst.dst is not None:
            self.pending_regs.discard(inst.dst)
        if inst.pdst is not None:
            self.pending_preds.discard(inst.pdst)

    @property
    def schedulable(self) -> bool:
        return self.status is WarpStatus.ACTIVE

    def __repr__(self) -> str:
        return (
            f"Warp(slot={self.slot}, cta={self.cta.ctaid}, pc={self.pc}, "
            f"{self.status.value})"
        )


class VectorWarp(Warp):
    """Struct-of-arrays warp: one contiguous 2D bank per state class.

    Register row views (``bank[index]``) are handed out by :meth:`reg`
    and are *permanent* — a write never replaces a row, it mutates it
    in place (``np.copyto(row, values, where=mask)``). That stability
    is what lets the issue frame resolve operand rows once per (warp,
    pc) into :attr:`_vec_ops` and reuse them for every dynamic
    execution.

    The only event that moves storage is bank growth (an access beyond
    the kernel's declared register count): the bank is reallocated with
    values copied over and :attr:`_vec_ops` is cleared, so stale views
    can never be reused.

    Scratch rows (:attr:`_scratch`, :attr:`_scratch2`,
    :attr:`_fscratch`, :attr:`_bscratch`, :attr:`_gscratch`,
    :attr:`_mscratch`) are owned staging buffers for the out-parameter
    ALU handlers, fused guard masks and memory loads in
    :mod:`repro.sim.execute`; they make the issue hot path
    allocation-free.
    """

    def __init__(self, slot: int, cta, warp_in_cta: int, warp_size: int,
                 active_threads: int, num_regs: int = 16,
                 num_preds: int = 8):
        super().__init__(slot, cta, warp_in_cta, warp_size, active_threads)
        self._reg_bank = np.zeros((max(1, num_regs), warp_size),
                                  dtype=np.int64)
        self._pred_bank = np.zeros((max(1, num_preds), warp_size),
                                   dtype=bool)
        self._reg_rows = list(self._reg_bank)
        self._pred_rows = list(self._pred_bank)
        # The dict layout is unused; poison it so any code path still
        # reaching for it fails loudly instead of silently forking state.
        self.regs = None
        self.preds = None
        self._scratch = np.zeros(warp_size, dtype=np.int64)
        self._scratch2 = np.zeros(warp_size, dtype=np.int64)
        self._fscratch = np.zeros(warp_size, dtype=np.float64)
        self._bscratch = np.zeros(warp_size, dtype=bool)
        self._gscratch = np.zeros(warp_size, dtype=bool)
        self._mscratch = np.zeros(warp_size, dtype=np.int64)
        #: pc -> (src_rows, dst_row, guard_row, pdst_row), bound by
        #: the issue frame's execute stage; cleared on any bank growth.
        self._vec_ops: dict = {}

    # --- functional register access ------------------------------------------
    def reg(self, index: int) -> np.ndarray:
        rows = self._reg_rows
        if index >= len(rows):
            self._grow_regs(index)
            rows = self._reg_rows
        return rows[index]

    def write_reg(self, index: int, values: np.ndarray,
                  mask: np.ndarray) -> None:
        np.copyto(self.reg(index), values, where=mask)

    def pred(self, index: int) -> np.ndarray:
        rows = self._pred_rows
        if index >= len(rows):
            self._grow_preds(index)
            rows = self._pred_rows
        return rows[index]

    def write_pred(self, index: int, values: np.ndarray,
                   mask: np.ndarray) -> None:
        np.copyto(self.pred(index), values, where=mask)

    def _grow_regs(self, index: int) -> None:
        old = self._reg_bank
        bank = np.zeros((max(index + 1, 2 * old.shape[0]), self.warp_size),
                        dtype=np.int64)
        bank[: old.shape[0]] = old
        self._reg_bank = bank
        self._reg_rows = list(bank)
        self._vec_ops.clear()

    def _grow_preds(self, index: int) -> None:
        old = self._pred_bank
        bank = np.zeros((max(index + 1, 2 * old.shape[0]), self.warp_size),
                        dtype=bool)
        bank[: old.shape[0]] = old
        self._pred_bank = bank
        self._pred_rows = list(bank)
        self._vec_ops.clear()
