"""The streaming-multiprocessor (SM) core model.

One :class:`SMCore` owns resident CTAs and warps, the two issue
schedulers, the physical register file, the renaming table and release
flag cache (when virtualization is on), the memory timing unit, and an
event heap for writebacks. :meth:`SMCore.tick` advances one cycle;
:meth:`SMCore.run` drives the simulation to completion, fast-forwarding
through cycles where nothing can issue.

Register management modes:

* ``baseline`` — the conventional GPU: every architected register of
  every warp is pinned at CTA launch and freed at CTA completion.
* ``flags`` — the paper's virtualization: write-allocate, compiler
  pir/pbr release, optional GPU-shrink under-provisioning with CTA
  throttling and the spill corner case (Section 8.1).
* ``redefine`` — the hardware-only baseline [46]: write-allocate,
  release only on redefinition.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import os

import numpy as np

from repro.arch import GPUConfig
from repro.compiler.banks import bank_of
from repro.compiler.reconvergence import ensure_reconvergence
from repro.errors import DeadlockError, RenamingError, SimulationError
from repro.isa.kernel import Kernel
from repro.isa.opcodes import MemSpace, Opcode, Unit
from repro.launch import LaunchConfig
from repro.sim.decode import DecodedInst, build_decode_cache
from repro.sim.execute import (
    ADDR_MASK,
    EXEC_ALU,
    EXEC_LOAD,
    EXEC_SETP,
    EXEC_STORE,
    _bind_rows,
    array_to_mask,
    effective_mask,
    execute,
)
from repro.sim.memory import GlobalMemory, MemoryUnit, SharedMemory
from repro.sim.regfile import PhysicalRegisterFile
from repro.sim.release_cache import ReleaseFlagCache
from repro.sim.renaming import RenamingTable
from repro.sim.scheduler import WarpScheduler
from repro.sim.stats import SimStats
from repro.sim.warp import VectorWarp, Warp, WarpStatus

#: Consecutive stalled cycles with failed allocations before the
#: spill corner case engages.
SPILL_TRIGGER_CYCLES = 256
#: Extra free registers required before a spilled warp fills back
#: (hysteresis against spill/fill thrash).
FILL_HYSTERESIS = 4

_MODES = ("baseline", "flags", "redefine")


def _switch_on(name: str) -> bool:
    """An engine switch, read as the result cache's engine fingerprint
    reads it."""
    value = os.environ.get(name, "1").strip().lower()
    return value not in ("0", "off", "false", "no")


class _Issue(enum.Enum):
    ISSUED = 0
    SCOREBOARD = 1
    ALLOC = 2
    FORBIDDEN = 3  # throttle forbids this warp to allocate a register


#: Sentinels returned by ``_register_access`` alongside int penalties.
_ALLOC_FAIL = object()
_ALLOC_FORBIDDEN = object()


class CTA:
    """One resident cooperative thread array."""

    _uids = itertools.count()

    def __init__(self, slot: int, ctaid: int, num_threads: int,
                 grid_ctas: int):
        self.uid = next(CTA._uids)
        self.slot = slot
        self.ctaid = ctaid
        self.num_threads = num_threads
        self.grid_ctas = grid_ctas
        self.shared = SharedMemory()
        self.warps: list[Warp] = []
        self.live_warps = 0
        self.barrier_arrived = 0
        #: Physical registers pinned by the baseline policy.
        self.static_phys: list[int] = []
        #: Worst-case register demand C = warps x regs (Section 8.1).
        self.required_regs = 0


class SMCore:
    """Cycle-level model of one SM executing one kernel."""

    def __init__(
        self,
        config: GPUConfig,
        kernel: Kernel,
        launch: LaunchConfig,
        mode: str = "baseline",
        threshold: int = 0,
        gmem: GlobalMemory | None = None,
        sample_interval: int = 0,
        trace_warp_slots: tuple[int, ...] = (),
        spill_enabled: bool = True,
    ):
        if mode not in _MODES:
            raise SimulationError(f"unknown register mode '{mode}'")
        if mode == "baseline" and config.is_underprovisioned:
            raise SimulationError(
                "baseline mode cannot run on an under-provisioned register "
                "file; recompile with the spill baseline instead"
            )
        self.config = config
        self.kernel = kernel
        ensure_reconvergence(kernel)
        self.instructions = kernel.instructions
        self.launch = launch
        self.stats = SimStats()
        self.gmem = gmem if gmem is not None else GlobalMemory()
        self.regfile = PhysicalRegisterFile(config, self.stats)
        self.spill_enabled = spill_enabled

        self.renaming: RenamingTable | None = None
        self.flag_cache: ReleaseFlagCache | None = None
        if mode != "baseline":
            tracer = None
            if trace_warp_slots:
                traced = set(trace_warp_slots)
                # The closure holds the event list, not the core, so a
                # traced core is no reference cycle either.
                events = self.stats.lifetime_events

                def tracer(slot, arch, event, cycle, _traced=traced):
                    if slot in _traced:
                        events.append((cycle, slot, arch, event))

            self.renaming = RenamingTable(
                config, self.regfile, self.stats,
                threshold=threshold if mode == "flags" else 0,
                mode=mode, tracer=tracer,
            )
        if mode == "flags":
            self.flag_cache = ReleaseFlagCache(
                config.release_flag_cache_entries
            )

        self.rfc = None
        if config.rfc_entries_per_warp > 0:
            if mode != "baseline":
                raise SimulationError(
                    "the register file cache baseline only combines with "
                    "baseline register management"
                )
            from repro.sim.rfc import RegisterFileCache

            self.rfc = RegisterFileCache(
                config.rfc_entries_per_warp, self.stats
            )

        self.mem_unit = MemoryUnit(
            config.global_mem_latency, config.mem_requests_per_cycle
        )
        per_sched = max(1, config.ready_queue_size // config.num_schedulers)
        self.schedulers = [
            WarpScheduler(sid, per_sched, policy=config.scheduler_policy)
            for sid in range(config.num_schedulers)
        ]

        self.cycle = 0
        self._events: list[tuple[int, int, str, tuple]] = []
        self._seq = itertools.count()
        self.cta_queue: list[int] = []
        self.resident: list[CTA] = []
        self.warps_per_cta = launch.warps_per_cta(config.warp_size)
        self.regs_per_thread = max(1, kernel.num_regs)
        self.conc_ctas = launch.resident_ctas(config, kernel.num_regs)
        self._free_warp_slots = list(range(config.max_warps_per_sm))
        self._free_cta_slots = list(range(config.max_ctas_per_sm))

        self.sample_interval = sample_interval
        self._next_sample = 0
        self._alloc_fail_streak = 0

        # Cycle-skipping engine (see docs/INTERNALS.md, "Cycle
        # skipping"): when enabled, a tick in which no scheduler issues
        # jumps straight to the next cycle at which the issue outcome
        # can change, bulk-accounting the skipped span into the stall
        # counters. ``REPRO_CYCLE_SKIP=0`` selects the strict per-cycle
        # reference path (one full scheduler scan per simulated cycle);
        # both paths produce bit-identical :class:`SimStats` except for
        # the ``ticks_executed`` / ``skipped_cycles`` diagnostics.
        self.cycle_skip = _switch_on("REPRO_CYCLE_SKIP")
        # Memoized "CTA launch is blocked" key: while none of the
        # inputs a launch attempt depends on have changed, re-attempting
        # the queue head is pointless (and, per cycle, would be the
        # reference path's hottest no-op).
        self._launch_block_key: tuple[int, int, int, int] | None = None

        # Incremental bookkeeping: each of these is derivable by a scan
        # over resident CTAs/warps, but is maintained in place so the
        # per-cycle hot path stays O(1) in warp and CTA count.
        self._spilled_count = 0
        self._stalled_wakeups: set[Warp] = set()
        self._resident_required = 0
        self._residency_version = 0
        # GPU-shrink throttle memo: min-balance CTA keyed on
        # (renaming.version, residency version), plus the currently
        # restricted CTA so activations count *transitions* into
        # throttling rather than throttled cycles.
        self._throttle_key: tuple[int, int] | None = None
        self._throttle_best: tuple[int, int] | None = None
        self._throttled_cta: int | None = None

        # Per-kernel decode cache (see repro.sim.decode): flat
        # precomputed views of each static instruction.
        # ``REPRO_DECODE_CACHE=0`` falls back to the uncached issue path
        # (kept verbatim as ``_try_issue_uncached``) for equivalence
        # testing.
        self._decode: list[DecodedInst] | None = None
        if _switch_on("REPRO_DECODE_CACHE"):
            self._decode = build_decode_cache(
                kernel, config, threshold if mode == "flags" else 0, mode
            )

        # Issue and tick selection (see docs/INTERNALS.md, "Fast-path
        # binding"). The decode-cached frame is the class's own
        # ``_try_issue`` and the rotation tick its own ``tick``. Seed-path
        # and greedy-then-oldest cores tick through ``_tick_generic``
        # instead (gto's selection stays in the scheduler's
        # candidates()/issued()), which picks the seed path's issue
        # function once per tick. No core stores a bound method of
        # itself, so reference counting frees every finished core.
        self._generic_tick = (
            self._decode is None or config.scheduler_policy == "gto"
        )
        self._underprov = config.is_underprovisioned

    # ------------------------------------------------------------------ events
    def _push_event(self, cycle: int, kind: str, payload: tuple) -> None:
        heapq.heappush(self._events, (cycle, next(self._seq), kind, payload))

    def _process_events(self, now: int) -> None:
        events = self._events
        while events and events[0][0] <= now:
            _, _, kind, payload = heapq.heappop(events)
            if kind == "wb":
                warp, inst = payload
                warp.scoreboard_clear(inst)
            elif kind == "mem_wb":
                warp, inst = payload
                warp.scoreboard_clear(inst)
                warp.outstanding_mem -= 1
                if warp.outstanding_mem == 0:
                    self.schedulers[
                        warp.slot % len(self.schedulers)
                    ].wake()
            elif kind == "spill_done":
                (warp,) = payload
                warp.status = WarpStatus.SPILLED
                self._spilled_count += 1
            elif kind == "fill_done":
                (warp,) = payload
                warp.status = WarpStatus.ACTIVE
                warp.spilled_regs = ()
                self.schedulers[warp.slot % len(self.schedulers)].wake()
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind}")

    # ------------------------------------------------------------- CTA launch
    def _launch_ctas(self, now: int) -> None:
        if not (
            self.cta_queue
            and len(self.resident) < self.conc_ctas
            and self._free_cta_slots
            and len(self._free_warp_slots) >= self.warps_per_cta
        ):
            return
        # A launch attempt's outcome depends only on residency, the
        # register file's free pool (failure can flip to success only
        # through a ``free``), warp-slot availability and the queue
        # head; while none of those changed since the last failure the
        # attempt is skipped outright.
        key = (
            self._residency_version,
            self.regfile.free_events,
            len(self._free_warp_slots),
            len(self.cta_queue),
        )
        if key == self._launch_block_key:
            return
        while (
            self.cta_queue
            and len(self.resident) < self.conc_ctas
            and self._free_cta_slots
            and len(self._free_warp_slots) >= self.warps_per_cta
        ):
            if not self._launch_one_cta(now):
                self._launch_block_key = (
                    self._residency_version,
                    self.regfile.free_events,
                    len(self._free_warp_slots),
                    len(self.cta_queue),
                )
                break

    def _launch_one_cta(self, now: int) -> bool:
        ctaid = self.cta_queue[0]
        slot = self._free_cta_slots[0]
        cta = CTA(slot, ctaid, self.launch.threads_per_cta,
                  self.launch.grid_ctas)
        cta.required_regs = self.warps_per_cta * self.regs_per_thread

        if self.renaming is None:
            needed = cta.required_regs
            if self.regfile.free_count < needed:
                return False
            slots_preview = self._free_warp_slots[:self.warps_per_cta]
            for wslot in slots_preview:
                for reg in range(self.regs_per_thread):
                    result = self.regfile.allocate(
                        bank_of(reg, wslot, self.config.num_banks), now
                    )
                    if result is None:  # pragma: no cover - sized above
                        raise SimulationError("baseline allocation failed")
                    cta.static_phys.append(result[0])
            self.stats.architected_registers_demand += needed
        else:
            # Exact side-effect-free precheck: ``launch_warp`` pins
            # ``threshold`` exempt registers per warp, and the bank
            # fallback inside ``regfile.allocate`` means those
            # allocations fail only when the whole file is full — so a
            # launch succeeds iff the free pool covers the CTA's exempt
            # demand. Failing here instead of rolling back a partial
            # launch keeps failed attempts free of allocation/release
            # events, which the per-cycle reference path repeats every
            # cycle a CTA stays blocked.
            exempt_demand = self.warps_per_cta * self.renaming.threshold
            if self.regfile.free_count < exempt_demand:
                return False

        warp_slots = []
        threads_left = self.launch.threads_per_cta
        for index in range(self.warps_per_cta):
            wslot = self._free_warp_slots[0]
            if self.renaming is not None:
                if not self.renaming.launch_warp(wslot, cta.uid, now):
                    # Not enough registers for the exempt set: undo.
                    for launched in cta.warps:
                        self.renaming.finish_warp(launched.slot, now)
                        self._free_warp_slots.append(launched.slot)
                    self._free_warp_slots.sort()
                    # Drop the failed CTA's balance counters too, or
                    # every failed launch leaks a cta_allocated /
                    # cta_assigned entry for its never-resident uid.
                    self.renaming.forget_cta(cta.uid)
                    for phys in cta.static_phys:
                        self.regfile.free(phys, now)
                    return False
            self._free_warp_slots.pop(0)
            active = min(self.config.warp_size, threads_left)
            threads_left -= active
            if self._decode is not None:
                warp = VectorWarp(
                    wslot, cta, index, self.config.warp_size, active,
                    num_regs=self.regs_per_thread,
                    num_preds=max(1, self.kernel.num_preds),
                )
            else:
                warp = Warp(wslot, cta, index, self.config.warp_size, active)
            if self.rfc is not None:
                self.rfc.attach_warp(wslot)
            cta.warps.append(warp)
            warp_slots.append(wslot)

        cta.live_warps = len(cta.warps)
        self.cta_queue.pop(0)
        self._free_cta_slots.pop(0)
        self.resident.append(cta)
        self._resident_required += cta.required_regs
        self._residency_version += 1
        if self._resident_required > self.stats.max_architected_allocated:
            self.stats.max_architected_allocated = self._resident_required
        for warp in cta.warps:
            self.schedulers[warp.slot % len(self.schedulers)].add(warp)
        return True

    def _complete_cta(self, cta: CTA, now: int) -> None:
        for phys in cta.static_phys:
            self.regfile.free(phys, now)
        cta.static_phys.clear()
        # Break the CTA <-> warp cycle: nothing reads a completed CTA's
        # warp list, and without it reference counting frees the CTA
        # and its warps' register banks as soon as the run drops them.
        cta.warps.clear()
        if self.renaming is not None:
            self.renaming.forget_cta(cta.uid)
        self.resident.remove(cta)
        self._resident_required -= cta.required_regs
        self._residency_version += 1
        self._free_cta_slots.append(cta.slot)
        self._free_cta_slots.sort()
        self.stats.ctas_completed += 1

    def _finish_warp(self, warp: Warp, now: int) -> None:
        warp.status = WarpStatus.FINISHED
        self._stalled_wakeups.discard(warp)
        self.schedulers[warp.slot % len(self.schedulers)].remove(warp)
        if self.renaming is not None:
            self.renaming.finish_warp(warp.slot, now)
        if self.rfc is not None:
            self._mrf_writebacks(warp, self.rfc.detach_warp(warp.slot))
        self._free_warp_slots.append(warp.slot)
        self._free_warp_slots.sort()
        self.stats.warps_completed += 1
        cta = warp.cta
        cta.live_warps -= 1
        if cta.live_warps == 0:
            self._complete_cta(cta, now)
        elif cta.barrier_arrived >= cta.live_warps > 0:
            # A warp exiting can satisfy a barrier its siblings wait at.
            cta.barrier_arrived = 0
            for peer in cta.warps:
                if peer.status is WarpStatus.AT_BARRIER:
                    peer.status = WarpStatus.ACTIVE
                    self.schedulers[
                        peer.slot % len(self.schedulers)
                    ].wake()

    # ------------------------------------------------------------- throttling
    def _throttle(self) -> int | None:
        """GPU-shrink CTA throttling (Section 8.1).

        Returns the uid of the only CTA allowed to issue, or ``None``
        when no restriction applies.

        The min-balance CTA is memoized on (renaming counter version,
        residency version): the balances only move when a register is
        (de)allocated through the renaming table or a CTA launches or
        completes, so the O(CTAs) scan reruns only then. The free-count
        comparison is against live state every call.

        ``stats.throttle_activations`` counts *transitions* into
        throttling (per restricted CTA); ``stats.throttle_cycles``
        counts every call that returns a restriction — which, with one
        call per :meth:`tick`, is the number of throttled cycles.
        """
        renaming = self.renaming
        if (
            renaming is None
            or not self.config.is_underprovisioned
            or not self.resident
        ):
            self._throttled_cta = None
            return None
        key = (renaming.version, self._residency_version)
        if key != self._throttle_key:
            counters = (
                renaming.cta_assigned
                if self.config.throttle_policy == "assigned"
                else renaming.cta_allocated
            )
            best_cta = None
            min_balance = None
            for cta in self.resident:
                balance = cta.required_regs - counters.get(cta.uid, 0)
                if min_balance is None or balance < min_balance:
                    min_balance = balance
                    best_cta = cta
            self._throttle_key = key
            self._throttle_best = (best_cta.uid, min_balance)
        best_uid, min_balance = self._throttle_best
        if self.regfile.free_count > max(0, min_balance):
            self._throttled_cta = None
            return None
        self.stats.throttle_cycles += 1
        if self._throttled_cta != best_uid:
            self.stats.throttle_activations += 1
            self._throttled_cta = best_uid
        return best_uid

    # ------------------------------------------------------------------ spill
    def _maybe_spill(self, now: int) -> bool:
        """Engage the Section 8.1 spill corner case. Returns True if
        a spill was initiated."""
        if (
            not self.spill_enabled
            or self.renaming is None
            or not self.config.is_underprovisioned
        ):
            return False
        candidates = [
            warp
            for cta in self.resident
            for warp in cta.warps
            if warp.status is WarpStatus.ACTIVE
            and self.renaming.mapped_count(warp.slot) > 0
        ]
        if len(candidates) <= 1:
            return False
        victim = min(candidates, key=lambda w: w.last_issue_cycle)
        regs = self.renaming.spill_warp(victim.slot, now)
        if not regs:
            return False
        victim.spilled_regs = regs
        victim.status = WarpStatus.SPILLING
        self.schedulers[victim.slot % len(self.schedulers)].demote(victim)
        # Coalesced spill: one memory operation per architected register.
        duration = self.config.spill_latency + len(regs)
        self._push_event(now + duration, "spill_done", (victim,))
        self.stats.spill_events += 1
        self.stats.spilled_registers += len(regs)
        self._alloc_fail_streak = 0
        return True

    def _fill_spilled(self, now: int) -> None:
        for cta in self.resident:
            for warp in cta.warps:
                if warp.status is not WarpStatus.SPILLED:
                    continue
                needed = len(warp.spilled_regs) + FILL_HYSTERESIS
                if self.regfile.free_count < needed:
                    continue
                if self.renaming.fill_warp(warp.slot, warp.spilled_regs, now):
                    warp.status = WarpStatus.FILLING
                    if self._spilled_count:
                        self._spilled_count -= 1
                    duration = (
                        self.config.spill_latency + len(warp.spilled_regs)
                    )
                    self._push_event(now + duration, "fill_done", (warp,))
                    self.stats.fill_events += 1

    # --------------------------------------------------------------- sampling
    def _record_samples_until(self, now: int) -> None:
        if not self.sample_interval:
            return
        while self._next_sample <= now:
            allocated = self._resident_required
            live = (
                self.regfile.live_count
                if self.renaming is not None
                else allocated
            )
            self.stats.live_samples.append(
                (self._next_sample, live, allocated)
            )
            self._next_sample += self.sample_interval

    # -------------------------------------------------------------------- issue
    def _try_issue(self, warp: Warp, now: int,
                   forbid_alloc: bool = False) -> _Issue:
        """Attempt to issue one instruction from ``warp``.

        The decode-cached issue frame: issue, register access, execute
        and retire unrolled into one frame over the decoded record and
        the warp's :class:`VectorWarp` rows, for every register mode.
        Register access takes one of two branches:

        * baseline mode reads the decoded per-slot-class bank ids,
          through the register file cache when one is configured;
        * every renaming setup inlines ``RenamingTable.write``,
          ``read`` and ``release``. Redefine mode, the
          least-occupied-bank ablation and a lifetime tracer differ
          only by one test each, on a redefinition, an allocation and
          a traced definition or release.

        Execute is one dispatch over an optional lane mask, ``None``
        for a full, unguarded warp.

        Seed-path cores (``REPRO_DECODE_CACHE=0``) rebind this to
        ``_try_issue_uncached``, the reference it must match: the
        equivalence suites pin every :class:`SimStats` field and the
        memory image of the two.
        """
        stack = warp.stack
        if len(stack._stack) > 1:
            stack.maybe_reconverge()
        stats = self.stats
        top = stack._stack[-1]

        # Zero-cost skip of pir flag words already in the release flag
        # cache (Section 7.2), dispatching on precomputed opcode tags.
        decode = self._decode
        while True:
            d = decode[top.pc]
            if d.is_pir:
                flag_cache = self.flag_cache
                if flag_cache is not None and flag_cache.probe(d.pc):
                    stats.pir_skipped += 1
                    top.pc += 1
                    continue
                if flag_cache is not None:
                    flag_cache.install(d.pc)
                stats.pir_decoded += 1
                top.pc += 1
                warp.last_issue_cycle = now
                return _Issue.ISSUED
            break

        renaming = self.renaming
        slot = warp.slot

        if d.is_pbr:
            stats.pbr_decoded += 1
            # Outside flags mode the decoded release lists are empty.
            for reg in d.release_regs:
                renaming.release(slot, reg, now)
            top.pc += 1
            warp.last_issue_cycle = now
            return _Issue.ISSUED

        pending = warp.pending_regs
        if pending:
            for reg in d.srcs:
                if reg in pending:
                    return _Issue.SCOREBOARD
            if d.dst is not None and d.dst in pending:
                return _Issue.SCOREBOARD
        pending_preds = warp.pending_preds
        if pending_preds:
            if d.guard_preg is not None and d.guard_preg in pending_preds:
                return _Issue.SCOREBOARD
            if d.pdst is not None and d.pdst in pending_preds:
                return _Issue.SCOREBOARD

        # Register access (the cached twin of ``_register_access``):
        # renaming-table lookup conflicts, destination mapping, source
        # reads, bank-conflict accounting and compiler-directed
        # releases. Execute reads no renaming state, so releases take
        # effect here, once the operands are read.
        penalty = 0
        regfile = self.regfile
        bank_acc = stats.rf_bank_accesses
        dst = d.dst
        if renaming is None:
            # Baseline: every architected register is pinned in its
            # compiler bank, ``(reg + slot) % num_banks``.
            slotmod = slot % regfile.num_banks
            src_banks = d.src_banks_by_slotmod[slotmod]
            rfc = self.rfc
            if rfc is None:
                if dst is not None:
                    stats.rf_writes += 1
                    bank_acc[d.dst_bank_by_slotmod[slotmod]] += 1
                if src_banks:
                    stats.rf_reads += len(src_banks)
                    for bank in src_banks:
                        bank_acc[bank] += 1
                    extra = d.baseline_conflict_extra
                    if extra:
                        stats.stall_bank_conflict_cycles += extra
                        penalty += extra
            else:
                if dst is not None:
                    evicted = rfc.write(slot, dst)
                    if evicted is not None:
                        self._mrf_writebacks(warp, [evicted])
                banks = []
                for reg, bank in zip(d.dedup_srcs, src_banks):
                    if rfc.read(slot, reg):
                        continue  # RFC hit: no main-register-file access
                    stats.rf_reads += 1
                    bank_acc[bank] += 1
                    banks.append(bank)
                penalty += self._conflict_penalty(banks)
        else:
            # ``RenamingTable.write``, ``read`` and ``release`` unrolled
            # over the decoded exemption split. The renaming setups
            # differ only where noted: redefinition in redefine mode,
            # the bank an allocation asks for, and the lifetime tracer.
            if d.lookup_conflict_extra:
                stats.renaming_conflict_cycles += d.lookup_conflict_extra
            regs_per_bank = regfile.regs_per_bank
            warp_map = renaming._maps[slot]
            tracer = renaming.tracer
            if dst is not None:
                if d.dst_above:
                    if forbid_alloc and dst not in warp_map:
                        return _Issue.FORBIDDEN
                    stats.renaming_reads += 1
                    dst_phys = warp_map.get(dst)
                    if dst_phys is not None and renaming.redefine:
                        # The hardware-only baseline [46] frees the old
                        # instance and maps a fresh register.
                        renaming._free(slot, dst, dst_phys, now)
                        dst_phys = None
                    if dst_phys is None:
                        # ``RenamingTable._allocate`` unrolled: the
                        # compiler bank is the decode cache's
                        # precomputed ``(dst + slot) % num_banks``,
                        # unless the ablation ignores it.
                        if self.config.bank_preserving_renaming:
                            bank = d.dst_bank_by_slotmod[
                                slot % regfile.num_banks
                            ]
                        else:
                            bank = renaming._least_occupied_bank()
                        result = regfile.allocate(bank, now)
                        if result is None:
                            return _Issue.ALLOC
                        dst_phys, wake = result
                        warp_map[dst] = dst_phys
                        renaming._released_live[slot].discard(dst)
                        stats.renaming_writes += 1
                        renaming.version += 1
                        cta_id = renaming._cta_of_warp[slot]
                        renaming.cta_allocated[cta_id] += 1
                        ever = renaming._ever[slot]
                        if dst not in ever:
                            ever.add(dst)
                            renaming.cta_assigned[cta_id] += 1
                        if wake:
                            penalty += wake
                            stats.stall_wakeup_cycles += wake
                    if tracer is not None:
                        tracer(slot, dst, "def", now)
                else:
                    dst_phys = renaming._direct[slot][dst]
                stats.rf_writes += 1
                bank_acc[dst_phys // regs_per_bank] += 1
            banks: list[int] = []
            if d.below_srcs:
                direct = renaming._direct[slot]
                for reg in d.below_srcs:
                    phys = direct[reg]
                    stats.rf_reads += 1
                    bank = phys // regs_per_bank
                    bank_acc[bank] += 1
                    banks.append(bank)
            for reg in d.above_srcs:
                stats.renaming_reads += 1
                phys = warp_map.get(reg)
                if phys is None:
                    if reg in renaming._released_live[slot]:
                        raise RenamingError(
                            f"use-after-release: warp {slot} read r{reg} "
                            "after its compiler-directed release (unsound "
                            "release plan)"
                        )
                    continue
                stats.rf_reads += 1
                bank = phys // regs_per_bank
                bank_acc[bank] += 1
                banks.append(bank)
            if len(banks) > 1:
                extra = len(banks) - len(set(banks))
                if extra:
                    stats.stall_bank_conflict_cycles += extra
                    penalty += extra
            # ``RenamingTable.release`` with its ``_free`` helper
            # unrolled (only flags mode decodes release lists).
            if d.release_list is not None:
                threshold = renaming.threshold
                rel_live = renaming._released_live[slot]
                for reg in d.release_list:
                    if reg < threshold:
                        continue
                    phys = warp_map.get(reg)
                    if phys is None:
                        stats.wasted_releases += 1
                        continue
                    stats.renaming_writes += 1
                    del warp_map[reg]
                    regfile.free(phys, now)
                    renaming.version += 1
                    renaming.cta_allocated[renaming._cta_of_warp[slot]] -= 1
                    rel_live.add(reg)
                    if tracer is not None:
                        tracer(slot, reg, "release", now)

        # Execute: one dispatch over ``mask``, the lanes a write may
        # touch; ``None`` means a full, unguarded warp, which writes its
        # rows directly. ``taken`` is the integer taken-mask for
        # branches, unused otherwise. Operand rows are bound once per
        # (warp, pc).
        entry = warp._vec_ops.get(d.pc)
        if entry is None:
            entry = _bind_rows(d, warp)
        src_rows, dst_row, guard_row, pdst_row = entry
        if guard_row is not None:
            mask = warp._gscratch
            if d.guard_negated:
                # On booleans ``a > b`` is ``a & ~b``: one fused ufunc.
                np.greater(warp.mask_array(), guard_row, out=mask)
            else:
                np.logical_and(warp.mask_array(), guard_row, out=mask)
        elif top.mask == stack.full_mask:
            mask = None
        else:
            mask = warp.mask_array()
        taken = None
        kind = d.exec_kind
        if kind == EXEC_ALU:
            if mask is None:
                d.exec_out(d.inst, src_rows, warp, dst_row)
            else:
                scratch = warp._scratch
                d.exec_out(d.inst, src_rows, warp, scratch)
                np.copyto(dst_row, scratch, where=mask)
        elif kind == EXEC_SETP:
            rhs = d.setp_imm if d.setp_imm is not None else src_rows[1]
            if mask is None:
                d.setp_cmp(src_rows[0], rhs, out=pdst_row)
            else:
                stage = warp._bscratch
                d.setp_cmp(src_rows[0], rhs, out=stage)
                np.copyto(pdst_row, stage, where=mask)
        elif d.is_branch:
            taken = top.mask if guard_row is None else array_to_mask(mask)
        elif kind == EXEC_LOAD or kind == EXEC_STORE:
            if mask is None:
                mask = warp.mask_array()
            addrs = warp._scratch2
            np.add(src_rows[0], d.offset, out=addrs)
            np.bitwise_and(addrs, ADDR_MASK, out=addrs)
            memory = self.gmem if d.is_global_mem else warp.cta.shared
            if kind == EXEC_LOAD:
                memory.load_into(addrs, mask, warp._mscratch)
                np.copyto(dst_row, warp._mscratch, where=mask)
            else:
                memory.store(addrs, src_rows[1], mask)

        stats.instructions += 1
        warp.last_issue_cycle = now

        # Retire: the cached twin of ``_retire``.
        config = self.config

        if d.is_branch:
            stats.branches += 1
            fallthrough = d.pc + 1
            if guard_row is None:
                stack.pc = d.target_pc
            else:
                if d.reconv_pc is None:
                    raise SimulationError(
                        f"conditional branch at pc {d.pc} has no "
                        "reconvergence point (kernel not compiled?)"
                    )
                if stack.branch(taken, d.target_pc, fallthrough,
                                d.reconv_pc):
                    stats.divergent_branches += 1
            if stack.pc != fallthrough and renaming is not None:
                # The extra renaming pipeline stage (7.1) deepens the
                # front end, so a taken-branch redirect costs one more
                # bubble cycle than the baseline.
                warp.stall_front_end(
                    now + 1 + config.renaming_extra_cycles,
                    self._stalled_wakeups,
                )
            return _Issue.ISSUED

        if d.is_exit:
            exit_mask = (
                top.mask if guard_row is None else array_to_mask(mask)
            )
            if stack.exit_lanes(exit_mask):
                self._finish_warp(warp, now)
            elif warp.pc == d.pc:
                warp.pc += 1
            return _Issue.ISSUED

        if d.is_barrier:
            stats.barriers += 1
            top.pc += 1
            self._arrive_barrier(
                warp, self.schedulers[slot % len(self.schedulers)]
            )
            return _Issue.ISSUED

        top.pc += 1

        if d.is_global_mem:
            stats.memory_instructions += 1
            complete = self.mem_unit.request(now) + penalty
            if not d.is_store:
                warp.pending_regs.add(dst)
                warp.outstanding_mem += 1
                self._push_event(complete, "mem_wb", (warp, d.inst))
                self.schedulers[slot % len(self.schedulers)].demote(warp)
                if self.rfc is not None:
                    # The RFC only backs active warps: demotion flushes
                    # the warp's dirty lines to the MRF ([20]).
                    self._mrf_writebacks(warp, self.rfc.flush_warp(slot))
            return _Issue.ISSUED

        if d.is_shared_mem:
            stats.memory_instructions += 1
            if not d.is_store:
                warp.pending_regs.add(dst)
                self._push_event(
                    now + config.shared_mem_latency + penalty,
                    "wb", (warp, d.inst),
                )
            return _Issue.ISSUED

        if d.needs_wb:
            if dst is not None:
                warp.pending_regs.add(dst)
            if d.pdst is not None:
                warp.pending_preds.add(d.pdst)
            latency = (
                config.sfu_latency if d.is_sfu else config.alu_latency
            )
            heapq.heappush(
                self._events,
                (now + latency + penalty, next(self._seq), "wb",
                 (warp, d.inst)),
            )
        return _Issue.ISSUED

    def _try_issue_uncached(self, warp: Warp, now: int,
                            forbid_alloc: bool = False) -> _Issue:
        """The original per-issue decode path (``REPRO_DECODE_CACHE=0``).

        Kept verbatim as the reference implementation the cached path
        must match bit-for-bit; the equivalence suite diffs the two.
        """
        stack = warp.stack
        stack.maybe_reconverge()

        # Zero-cost skip of pir flag words already in the release flag
        # cache (Section 7.2): the Sched-info stage recognizes the PC and
        # does not spend fetch/decode on them.
        while True:
            inst = self.instructions[warp.pc]
            if inst.opcode is Opcode.PIR:
                if self.flag_cache is not None and self.flag_cache.probe(
                    warp.pc
                ):
                    self.stats.pir_skipped += 1
                    warp.pc += 1
                    continue
                if self.flag_cache is not None:
                    self.flag_cache.install(warp.pc)
                self.stats.pir_decoded += 1
                warp.pc += 1
                warp.last_issue_cycle = now
                return _Issue.ISSUED
            break

        if inst.opcode is Opcode.PBR:
            self.stats.pbr_decoded += 1
            if self.renaming is not None:
                for reg in inst.release_regs:
                    self.renaming.release(warp.slot, reg, now)
            warp.pc += 1
            warp.last_issue_cycle = now
            return _Issue.ISSUED

        if not warp.scoreboard_ready(inst):
            return _Issue.SCOREBOARD

        penalty = self._register_access(warp, inst, now, forbid_alloc)
        if penalty is _ALLOC_FORBIDDEN:
            return _Issue.FORBIDDEN
        if penalty is _ALLOC_FAIL:
            return _Issue.ALLOC

        taken = execute(inst, warp, self.gmem)
        self.stats.instructions += 1
        warp.last_issue_cycle = now

        if self.renaming is not None and inst.release_srcs:
            for reg, flag in zip(inst.srcs, inst.release_srcs):
                if flag:
                    self.renaming.release(warp.slot, reg, now)

        self._retire(warp, inst, taken, penalty, now)
        return _Issue.ISSUED

    def _register_access(self, warp: Warp, inst, now: int,
                         forbid_alloc: bool = False):
        """Perform renaming lookups and RF accesses.

        Returns the extra latency in cycles (bank conflicts, wake-up),
        ``_ALLOC_FAIL`` when destination allocation failed, or
        ``_ALLOC_FORBIDDEN`` when the throttle forbids this warp from
        taking a new register (it may still issue non-allocating
        instructions; only new allocations would endanger the
        restricted CTA's forward progress)."""
        penalty = 0
        num_banks = self.config.num_banks
        if self.renaming is not None:
            # The 4-banked renaming table serializes lookups whose
            # architected ids share a table bank (7.1). The serialized
            # lookup still fits inside the conservative extra renaming
            # pipeline stage (the table access is 0.22 ns), so conflicts
            # are counted for analysis but add no dependency latency.
            threshold = self.renaming.threshold
            lookups = {
                reg for reg in inst.srcs if reg >= threshold
            }
            if inst.dst is not None and inst.dst >= threshold:
                lookups.add(inst.dst)
            if len(lookups) > 1:
                table_banks = {reg % 4 for reg in lookups}
                extra = len(lookups) - len(table_banks)
                if extra:
                    self.stats.renaming_conflict_cycles += extra
            if inst.dst is not None:
                if (
                    forbid_alloc
                    and inst.dst >= self.renaming.threshold
                    and not self.renaming.is_mapped(warp.slot, inst.dst)
                ):
                    return _ALLOC_FORBIDDEN
                result = self.renaming.write(warp.slot, inst.dst, now)
                if result is None:
                    return _ALLOC_FAIL
                dst_phys, wake = result
                penalty += wake
                self.stats.stall_wakeup_cycles += wake
                self.regfile.write(dst_phys)
            banks: list[int] = []
            for reg in dict.fromkeys(inst.srcs):
                phys = self.renaming.read(warp.slot, reg, now)
                if phys is not None:
                    self.regfile.read(phys)
                    banks.append(self.regfile.bank_of(phys))
            penalty += self._conflict_penalty(banks)
        else:
            if inst.dst is not None:
                if self.rfc is not None:
                    evicted = self.rfc.write(warp.slot, inst.dst)
                    if evicted is not None:
                        self._mrf_writebacks(warp, [evicted])
                else:
                    self.stats.rf_writes += 1
                    self.stats.rf_bank_accesses[
                        bank_of(inst.dst, warp.slot, num_banks)
                    ] += 1
            banks = []
            for reg in dict.fromkeys(inst.srcs):
                if self.rfc is not None and self.rfc.read(warp.slot, reg):
                    continue  # RFC hit: no main-register-file access
                bank = bank_of(reg, warp.slot, num_banks)
                self.stats.rf_reads += 1
                self.stats.rf_bank_accesses[bank] += 1
                banks.append(bank)
            penalty += self._conflict_penalty(banks)
        return penalty

    def _mrf_writebacks(self, warp: Warp, regs) -> None:
        """Charge RFC dirty-line writebacks to the main register file."""
        for arch in regs:
            self.stats.rf_writes += 1
            self.stats.rf_bank_accesses[
                bank_of(arch, warp.slot, self.config.num_banks)
            ] += 1

    def _conflict_penalty(self, banks: list[int]) -> int:
        if len(banks) <= 1:
            return 0
        extra = len(banks) - len(set(banks))
        if extra:
            self.stats.stall_bank_conflict_cycles += extra
        return extra

    def _retire(self, warp: Warp, inst, taken: int | None,
                penalty: int, now: int) -> None:
        info = inst.info
        config = self.config
        sched = self.schedulers[warp.slot % len(self.schedulers)]

        if info.is_branch:
            self.stats.branches += 1
            fallthrough = warp.pc + 1
            if inst.guard is None:
                warp.stack.pc = inst.target_pc
            else:
                if inst.reconv_pc is None:
                    raise SimulationError(
                        f"conditional branch at pc {inst.pc} has no "
                        "reconvergence point (kernel not compiled?)"
                    )
                diverged = warp.stack.branch(
                    taken, inst.target_pc, fallthrough, inst.reconv_pc
                )
                if diverged:
                    self.stats.divergent_branches += 1
            if self.renaming is not None and warp.pc != fallthrough:
                # The extra renaming pipeline stage (7.1) deepens the
                # front end, so a taken-branch redirect costs one more
                # bubble cycle than the baseline.
                warp.stall_front_end(
                    now + 1 + config.renaming_extra_cycles,
                    self._stalled_wakeups,
                )
            return

        if info.is_exit:
            exit_mask = array_to_mask(effective_mask(warp, inst))
            done = warp.stack.exit_lanes(exit_mask)
            if done:
                self._finish_warp(warp, now)
            elif warp.pc == inst.pc:
                warp.pc += 1
            return

        if info.is_barrier:
            self.stats.barriers += 1
            warp.pc += 1
            self._arrive_barrier(warp, sched)
            return

        warp.pc += 1

        if info.is_memory and inst.space is MemSpace.GLOBAL:
            self.stats.memory_instructions += 1
            complete = self.mem_unit.request(now) + penalty
            if not info.is_store:
                warp.scoreboard_mark(inst)
                warp.outstanding_mem += 1
                self._push_event(complete, "mem_wb", (warp, inst))
                sched.demote(warp)
                if self.rfc is not None:
                    # The RFC only backs active warps: demotion flushes
                    # the warp's dirty lines to the MRF ([20]).
                    self._mrf_writebacks(
                        warp, self.rfc.flush_warp(warp.slot)
                    )
            return

        if info.is_memory:  # shared memory
            self.stats.memory_instructions += 1
            if not info.is_store:
                warp.scoreboard_mark(inst)
                self._push_event(
                    now + config.shared_mem_latency + penalty,
                    "wb", (warp, inst),
                )
            return

        latency = (
            config.sfu_latency if info.unit is Unit.SFU
            else config.alu_latency
        )
        if inst.dst is not None or inst.pdst is not None:
            warp.scoreboard_mark(inst)
            self._push_event(now + latency + penalty, "wb", (warp, inst))

    def _arrive_barrier(self, warp: Warp, sched: WarpScheduler) -> None:
        cta = warp.cta
        warp.status = WarpStatus.AT_BARRIER
        sched.demote(warp)
        cta.barrier_arrived += 1
        if cta.barrier_arrived >= cta.live_warps:
            cta.barrier_arrived = 0
            for peer in cta.warps:
                if peer.status is WarpStatus.AT_BARRIER:
                    peer.status = WarpStatus.ACTIVE
                    self.schedulers[
                        peer.slot % len(self.schedulers)
                    ].wake()

    # ---------------------------------------------------------------------- tick
    def _tick_generic(self) -> None:
        """One cycle through the scheduler's own ``candidates`` /
        ``issued`` calls: the seed path's tick, and the tick of
        greedy-then-oldest cores (``tick`` delegates here for both)."""
        now = self.cycle
        try_issue = (
            self._try_issue_uncached if self._decode is None
            else self._try_issue
        )
        if self._events:
            self._process_events(now)
        if self.cta_queue:
            self._launch_ctas(now)
        if self._spilled_count:
            self._fill_spilled(now)
        if self.sample_interval:
            self._record_samples_until(now)

        restricted = self._throttle()
        stats = self.stats
        stats.ticks_executed += 1
        skip = self.cycle_skip
        if skip:
            # Snapshot of every counter a non-issuing scan can advance;
            # a dead span repeats the same scan outcome each cycle, so
            # the post-scan deltas times the span length is exactly
            # what the per-cycle reference path would accumulate.
            snap = (
                stats.stall_scoreboard,
                stats.stall_no_free_register,
                stats.stall_throttled,
                stats.renaming_reads,
                stats.renaming_conflict_cycles,
            )
        active = WarpStatus.ACTIVE
        issued_any = False
        alloc_blocked = False
        for sched in self.schedulers:
            if sched.pending or restricted is not None:
                sched.refill(prefer_cta=restricted)
            stats.issue_slots += 1
            issued = False
            for warp in sched.candidates():
                if warp.status is not active:
                    continue
                if now < warp.stalled_until:
                    continue
                forbid = (
                    restricted is not None and warp.cta.uid != restricted
                )
                outcome = try_issue(warp, now, forbid_alloc=forbid)
                if outcome is _Issue.ISSUED:
                    sched.issued(warp)
                    stats.issued += 1
                    issued = True
                    break
                if outcome is _Issue.SCOREBOARD:
                    stats.stall_scoreboard += 1
                elif outcome is _Issue.FORBIDDEN:
                    stats.stall_throttled += 1
                else:
                    stats.stall_no_free_register += 1
                    alloc_blocked = True
            if not issued:
                stats.stall_no_ready_warp += 1
            issued_any = issued_any or issued

        self.cycle = now + 1
        if issued_any:
            self._alloc_fail_streak = 0
            return
        # The streak counts *stalled cycles* with a failed allocation —
        # at most one increment per cycle however many warps failed —
        # so SPILL_TRIGGER_CYCLES means actual wall-clock stall time.
        if alloc_blocked:
            self._alloc_fail_streak += 1
            if self._alloc_fail_streak >= SPILL_TRIGGER_CYCLES:
                if self._maybe_spill(now):
                    return
        if skip:
            self._skip_ahead(now, alloc_blocked, snap, restricted)
        elif self._next_wake(now + 1) is None:
            # Per-cycle reference path: nothing in flight can ever
            # change the issue outcome — same corner as the skip
            # engine's empty jump-target set, detected the same cycle.
            self._force_spill_or_deadlock(alloc_blocked)

    def tick(self) -> None:
        """Advance one cycle (the rotation scheduler policies).

        ``_tick_generic`` with ``_process_events``, the scheduler's
        round-robin ``candidates``/``issued`` fast paths and the
        throttle no-op unrolled inline. The stall/issue accounting is
        line-for-line ``_tick_generic``'s — the equivalence grids
        compare every :class:`SimStats` field across the two ticks.
        Seed-path and greedy-then-oldest cores run ``_tick_generic``."""
        if self._generic_tick:
            return self._tick_generic()
        now = self.cycle
        events = self._events
        if events and events[0][0] <= now:
            # ``_process_events`` unrolled: scoreboard clears go
            # straight at the pending sets, ``wake`` at the dirty bit.
            schedulers = self.schedulers
            nsched = len(schedulers)
            heappop = heapq.heappop
            while events and events[0][0] <= now:
                _, _, kind, payload = heappop(events)
                if kind == "wb":
                    warp, inst = payload
                    if inst.dst is not None:
                        warp.pending_regs.discard(inst.dst)
                    if inst.pdst is not None:
                        warp.pending_preds.discard(inst.pdst)
                elif kind == "mem_wb":
                    warp, inst = payload
                    if inst.dst is not None:
                        warp.pending_regs.discard(inst.dst)
                    if inst.pdst is not None:
                        warp.pending_preds.discard(inst.pdst)
                    warp.outstanding_mem -= 1
                    if warp.outstanding_mem == 0:
                        schedulers[warp.slot % nsched]._refill_dirty = True
                elif kind == "spill_done":
                    (warp,) = payload
                    warp.status = WarpStatus.SPILLED
                    self._spilled_count += 1
                elif kind == "fill_done":
                    (warp,) = payload
                    warp.status = WarpStatus.ACTIVE
                    warp.spilled_regs = ()
                    schedulers[warp.slot % nsched]._refill_dirty = True
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event kind {kind}")
        if self.cta_queue:
            self._launch_ctas(now)
        if self._spilled_count:
            self._fill_spilled(now)
        if self.sample_interval:
            self._record_samples_until(now)

        restricted = self._throttle() if self._underprov else None
        stats = self.stats
        stats.ticks_executed += 1
        skip = self.cycle_skip
        if skip:
            snap = (
                stats.stall_scoreboard,
                stats.stall_no_free_register,
                stats.stall_throttled,
                stats.renaming_reads,
                stats.renaming_conflict_cycles,
            )
        active = WarpStatus.ACTIVE
        issued_any = False
        alloc_blocked = False
        try_issue = self._try_issue
        for sched in self.schedulers:
            if restricted is not None:
                sched.refill(prefer_cta=restricted)
            elif (
                sched.pending
                and sched._refill_dirty
                and len(sched.ready) < sched.ready_size
            ):
                sched.refill()
            stats.issue_slots += 1
            issued = False
            ready = sched.ready
            rr = sched._rr
            snapshot = sched._snapshot
            snapshot.clear()
            if rr:
                snapshot.extend(ready[rr:])
                snapshot.extend(ready[:rr])
            else:
                snapshot.extend(ready)
            for warp in snapshot:
                if warp.status is not active:
                    continue
                if now < warp.stalled_until:
                    continue
                forbid = (
                    restricted is not None and warp.cta.uid != restricted
                )
                outcome = try_issue(warp, now, forbid_alloc=forbid)
                if outcome is _Issue.ISSUED:
                    if warp in ready:
                        sched._rr = (ready.index(warp) + 1) % len(ready)
                    else:
                        sched.issued(warp)
                    stats.issued += 1
                    issued = True
                    break
                if outcome is _Issue.SCOREBOARD:
                    stats.stall_scoreboard += 1
                elif outcome is _Issue.FORBIDDEN:
                    stats.stall_throttled += 1
                else:
                    stats.stall_no_free_register += 1
                    alloc_blocked = True
            if not issued:
                stats.stall_no_ready_warp += 1
            issued_any = issued_any or issued

        self.cycle = now + 1
        if issued_any:
            self._alloc_fail_streak = 0
            return
        if alloc_blocked:
            self._alloc_fail_streak += 1
            if self._alloc_fail_streak >= SPILL_TRIGGER_CYCLES:
                if self._maybe_spill(now):
                    return
        if skip:
            self._skip_ahead(now, alloc_blocked, snap, restricted)
        elif self._next_wake(now + 1) is None:
            self._force_spill_or_deadlock(alloc_blocked)

    def _next_wake(self, nxt: int) -> int | None:
        """Earliest cycle >= ``nxt`` at which the issue outcome can
        change, or ``None`` when nothing in flight can ever change it.

        The candidates are the event-queue head (writebacks, spill and
        fill completions — memory bandwidth backlog only pushes events
        further out, so ``MemoryUnit.busy_until`` is subsumed by the
        heap) and the ``stalled_until`` of active warps. Stalled-warp
        wake-up times come from ``_stalled_wakeups``, the set of warps
        whose ``stalled_until`` may still lie in the future; entries in
        the past (or of finished warps) are pruned here, so the scan is
        over recently stalled warps, not every resident warp.
        """
        target = self._events[0][0] if self._events else None
        wakeups = self._stalled_wakeups
        if wakeups:
            stale: list[Warp] | None = None
            for warp in wakeups:
                until = warp.stalled_until
                if until < nxt or warp.status is WarpStatus.FINISHED:
                    if stale is None:
                        stale = []
                    stale.append(warp)
                elif warp.status is WarpStatus.ACTIVE and (
                    target is None or until < target
                ):
                    target = until
            if stale is not None:
                for warp in stale:
                    wakeups.discard(warp)
        return target

    def _skip_ahead(self, now: int, alloc_blocked: bool,
                    snap: tuple[int, ...], restricted: int | None) -> None:
        """Jump over the dead span following a non-issuing tick.

        ``now`` is the cycle the scan just simulated (``self.cycle`` is
        already ``now + 1``). The jump target is the minimum over the
        next event, the next active-warp wake-up and — while blocked on
        allocation — the cycle the spill trigger fires; every cycle in
        between would replay the scan verbatim (see docs/INTERNALS.md
        for the invariant list), so its stat deltas are bulk-added
        ``span`` more times instead.
        """
        nxt = now + 1
        target = self._next_wake(nxt)
        if target is None:
            self._force_spill_or_deadlock(alloc_blocked)
            return
        if alloc_blocked:
            # A per-cycle walk would reach the spill trigger at the
            # cycle the streak hits SPILL_TRIGGER_CYCLES; never jump
            # past it, so the trigger tick executes for real.
            trigger = now + (SPILL_TRIGGER_CYCLES - self._alloc_fail_streak)
            if trigger < target:
                target = trigger
        span = target - nxt
        if span <= 0:
            return
        if __debug__:
            # Jumping is only sound while every scheduler's candidate
            # set is frozen (no pending warp can self-promote).
            assert all(s.quiescent for s in self.schedulers)
        stats = self.stats
        nsched = len(self.schedulers)
        stats.issue_slots += span * nsched
        stats.stall_no_ready_warp += span * nsched
        stats.stall_scoreboard += span * (stats.stall_scoreboard - snap[0])
        stats.stall_no_free_register += span * (
            stats.stall_no_free_register - snap[1]
        )
        stats.stall_throttled += span * (stats.stall_throttled - snap[2])
        stats.renaming_reads += span * (stats.renaming_reads - snap[3])
        stats.renaming_conflict_cycles += span * (
            stats.renaming_conflict_cycles - snap[4]
        )
        if restricted is not None:
            # The restriction cannot lift mid-span: the free pool and
            # balances only move through issues and CTA transitions.
            stats.throttle_cycles += span
        if alloc_blocked:
            # Keep accounting stall cycles while blocked on registers
            # so the spill trigger can engage.
            self._alloc_fail_streak += span
        stats.skipped_cycles += span
        if self.sample_interval:
            self._record_samples_until(target - 1)
        self.cycle = target

    def _force_spill_or_deadlock(self, alloc_blocked: bool) -> None:
        """Nothing in flight: force the spill corner case or report a
        deadlock. Shared verbatim by both engine paths so the corner
        engages at the identical cycle."""
        if alloc_blocked:
            # No event will ever free registers: force the corner case.
            self._alloc_fail_streak = SPILL_TRIGGER_CYCLES
            if self._maybe_spill(self.cycle):
                return
        if not self.done():
            raise DeadlockError(
                f"SM deadlocked at cycle {self.cycle}: "
                f"{len(self.resident)} CTAs resident, "
                f"{len(self.cta_queue)} queued, free registers="
                f"{self.regfile.free_count}"
            )

    # ----------------------------------------------------------------------- run
    def done(self) -> bool:
        return not self.resident and not self.cta_queue

    def run(self, max_cycles: int = 50_000_000) -> SimStats:
        while not self.done():
            if self.cycle > max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles"
                )
            self.tick()
        self._process_events(self.cycle)
        self.regfile.finalize(self.cycle)
        self.stats.cycles = self.cycle
        self.stats.flag_cache_hits = (
            self.flag_cache.hits if self.flag_cache else 0
        )
        self.stats.flag_cache_misses = (
            self.flag_cache.misses if self.flag_cache else 0
        )
        return self.stats
