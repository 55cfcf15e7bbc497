"""The register renaming table (Section 7.1) and its variants.

The table maps (warp slot, architected register) to a physical register
and is the heart of register virtualization:

* **flags mode** (the paper's proposal): a write to an unmapped
  architected register allocates a physical register in the compiler's
  bank; a write to a mapped one reuses the mapping in place; compiler
  release flags (pir/pbr) free the mapping as soon as the value dies.
* **redefine mode** (the hardware-only baseline, Tarjan/Skadron patent
  [46]): allocation is identical, but a register is only freed when a
  *new value is written* to the same architected register — release
  flags are ignored, so dead-but-never-redefined values occupy storage
  until the warp completes.

Registers with id below ``threshold`` are renaming-exempt: they bypass
the table and are direct-mapped to pinned physical registers allocated
at warp launch (the lowest-id policy of Section 7.1).

The table also maintains the per-CTA allocation counters ``k_i`` that
the GPU-shrink throttle compares against the per-CTA worst-case demand
``C`` (Section 8.1).
"""

from __future__ import annotations

from typing import Callable

from repro.arch import GPUConfig
from repro.compiler.banks import bank_of
from repro.errors import RenamingError
from repro.sim.regfile import PhysicalRegisterFile
from repro.sim.stats import SimStats

#: Lifetime-trace callback: (warp_slot, arch_reg, event, cycle).
Tracer = Callable[[int, int, str, int], None]


class RenamingTable:
    """Per-warp architected-to-physical register mapping."""

    def __init__(
        self,
        config: GPUConfig,
        regfile: PhysicalRegisterFile,
        stats: SimStats,
        threshold: int = 0,
        mode: str = "flags",
        tracer: Tracer | None = None,
    ):
        if mode not in ("flags", "redefine"):
            raise RenamingError(f"unknown renaming mode '{mode}'")
        self.config = config
        self.regfile = regfile
        self.stats = stats
        self.threshold = threshold
        #: Hardware-only renaming [46]: redefinition, not the compiler's
        #: release flags, frees a mapping.
        self.redefine = mode == "redefine"
        self.tracer = tracer
        self._maps: dict[int, dict[int, int]] = {}
        self._direct: dict[int, dict[int, int]] = {}
        self._cta_of_warp: dict[int, int] = {}
        #: Registers currently mapped per CTA.
        self.cta_allocated: dict[int, int] = {}
        #: k_i of Section 8.1 — registers *ever* assigned per CTA. A CTA
        #: that has already been assigned most of its worst-case demand C
        #: has little left to ask for, so its balance C - k_i shrinks to
        #: zero as it warms up and throttling only acts during the
        #: allocation ramp.
        self.cta_assigned: dict[int, int] = {}
        #: Monotonic counter bumped whenever ``cta_allocated`` /
        #: ``cta_assigned`` change. The GPU-shrink throttle memoizes its
        #: min-balance CTA on (this, core residency version) so the
        #: O(CTAs) derivation reruns only when the inputs moved.
        self.version = 0
        #: Architected registers each warp has ever had mapped.
        self._ever: dict[int, set[int]] = {}
        #: Released-but-not-rewritten registers per warp. A read of one
        #: of these means the compiler released a value that was still
        #: needed — on real hardware the data would be gone. The
        #: simulator keeps functional values separately, so this check
        #: is what actually validates release-plan soundness.
        self._released_live: dict[int, set[int]] = {}

    # --- warp lifecycle ----------------------------------------------------
    def launch_warp(self, warp_slot: int, cta_id: int, now: int) -> bool:
        """Register a warp; pins direct-mapped exempt registers.

        Returns False when the exempt registers cannot be allocated
        (the register file is too full to admit the warp at all).
        """
        self._maps[warp_slot] = {}
        self._direct[warp_slot] = {}
        self._ever[warp_slot] = set()
        self._released_live[warp_slot] = set()
        self._cta_of_warp[warp_slot] = cta_id
        self.cta_allocated.setdefault(cta_id, 0)
        self.cta_assigned.setdefault(cta_id, 0)
        for arch in range(self.threshold):
            result = self.regfile.allocate(
                bank_of(arch, warp_slot, self.config.num_banks), now
            )
            if result is None:
                self._rollback_launch(warp_slot, now)
                return False
            self._direct[warp_slot][arch] = result[0]
            self._ever[warp_slot].add(arch)
            self.cta_allocated[cta_id] += 1
            self.cta_assigned[cta_id] += 1
            self.version += 1
        return True

    def _rollback_launch(self, warp_slot: int, now: int) -> None:
        cta_id = self._cta_of_warp[warp_slot]
        for phys in self._direct[warp_slot].values():
            self.regfile.free(phys, now)
            self.cta_allocated[cta_id] -= 1
            self.cta_assigned[cta_id] -= 1
            self.version += 1
        del self._maps[warp_slot]
        del self._direct[warp_slot]
        del self._ever[warp_slot]
        del self._released_live[warp_slot]
        del self._cta_of_warp[warp_slot]

    def finish_warp(self, warp_slot: int, now: int) -> None:
        """Free every register the warp still holds (warp EXIT)."""
        cta_id = self._cta_of_warp.pop(warp_slot)
        self.version += 1
        for phys in self._maps.pop(warp_slot).values():
            self.regfile.free(phys, now)
            self.cta_allocated[cta_id] -= 1
        for phys in self._direct.pop(warp_slot).values():
            self.regfile.free(phys, now)
            self.cta_allocated[cta_id] -= 1
        self._ever.pop(warp_slot, None)
        self._released_live.pop(warp_slot, None)

    def forget_cta(self, cta_id: int) -> None:
        """Drop the balance counters of a completed CTA."""
        self.version += 1
        self.cta_allocated.pop(cta_id, None)
        self.cta_assigned.pop(cta_id, None)

    # --- accesses ------------------------------------------------------------
    def read(self, warp_slot: int, arch: int, now: int) -> int | None:
        """Physical register backing ``arch`` for a source operand.

        An unmapped read (read-before-write, legal but rare in compiled
        code) returns ``None``: the hardware supplies zero without
        touching the register file, so no storage is allocated.
        """
        if arch < self.threshold:
            return self._direct[warp_slot][arch]
        self.stats.renaming_reads += 1
        phys = self._maps[warp_slot].get(arch)
        if phys is None and arch in self._released_live[warp_slot]:
            raise RenamingError(
                f"use-after-release: warp {warp_slot} read r{arch} "
                "after its compiler-directed release (unsound release "
                "plan)"
            )
        return phys

    def write(self, warp_slot: int, arch: int,
              now: int) -> tuple[int, int] | None:
        """Map ``arch`` for a destination write.

        Returns ``(physical, wakeup_penalty)`` or ``None`` when no
        physical register is available (GPU-shrink pressure).
        """
        if arch < self.threshold:
            return self._direct[warp_slot][arch], 0
        self.stats.renaming_reads += 1
        warp_map = self._maps[warp_slot]
        phys = warp_map.get(arch)
        if phys is not None:
            if self.redefine:
                # Hardware-only scheme: redefinition releases the old
                # instance and maps a fresh register.
                self._free(warp_slot, arch, phys, now)
                return self._allocate(warp_slot, arch, now)
            if self.tracer is not None:
                self.tracer(warp_slot, arch, "def", now)
            return phys, 0
        return self._allocate(warp_slot, arch, now)

    def release(self, warp_slot: int, arch: int, now: int) -> bool:
        """Compiler-directed release (pir/pbr). No-op in redefine mode."""
        if self.redefine or arch < self.threshold:
            return False
        phys = self._maps[warp_slot].get(arch)
        if phys is None:
            self.stats.wasted_releases += 1
            return False
        self.stats.renaming_writes += 1
        self._free(warp_slot, arch, phys, now)
        self._released_live[warp_slot].add(arch)
        if self.tracer is not None:
            self.tracer(warp_slot, arch, "release", now)
        return True

    # --- spill support (Section 8.1 corner case) ------------------------------
    def spill_warp(self, warp_slot: int, now: int) -> tuple[int, ...]:
        """Free all of a warp's renamed mappings; returns the arch ids."""
        warp_map = self._maps[warp_slot]
        regs = tuple(sorted(warp_map))
        for arch in regs:
            self._free(warp_slot, arch, warp_map[arch], now)
        return regs

    def fill_warp(self, warp_slot: int, regs: tuple[int, ...],
                  now: int) -> bool:
        """Re-allocate spilled registers; all-or-nothing."""
        allocated: list[int] = []
        for arch in regs:
            result = self._allocate(warp_slot, arch, now)
            if result is None:
                for done in allocated:
                    phys = self._maps[warp_slot][done]
                    self._free(warp_slot, done, phys, now)
                return False
            allocated.append(arch)
        return True

    # --- internals ---------------------------------------------------------------
    def _allocate(self, warp_slot: int, arch: int,
                  now: int) -> tuple[int, int] | None:
        if self.config.bank_preserving_renaming:
            bank = bank_of(arch, warp_slot, self.config.num_banks)
        else:
            bank = self._least_occupied_bank()
        result = self.regfile.allocate(bank, now)
        if result is None:
            return None
        phys, penalty = result
        self._maps[warp_slot][arch] = phys
        self._released_live[warp_slot].discard(arch)
        self.stats.renaming_writes += 1
        self.version += 1
        cta_id = self._cta_of_warp[warp_slot]
        self.cta_allocated[cta_id] += 1
        ever = self._ever[warp_slot]
        if arch not in ever:
            ever.add(arch)
            self.cta_assigned[cta_id] += 1
        if self.tracer is not None:
            self.tracer(warp_slot, arch, "def", now)
        return phys, penalty

    def _least_occupied_bank(self) -> int:
        """Ablation: ignore the compiler's bank assignment and take the
        least-occupied bank, re-introducing operand collector bank
        conflicts."""
        return max(
            range(self.config.num_banks), key=self.regfile.free_count_in_bank
        )

    def _free(self, warp_slot: int, arch: int, phys: int, now: int) -> None:
        del self._maps[warp_slot][arch]
        self.regfile.free(phys, now)
        self.version += 1
        self.cta_allocated[self._cta_of_warp[warp_slot]] -= 1

    # --- queries --------------------------------------------------------------------
    def mapped_count(self, warp_slot: int) -> int:
        return len(self._maps[warp_slot]) + len(self._direct[warp_slot])

    def is_mapped(self, warp_slot: int, arch: int) -> bool:
        if arch < self.threshold:
            return arch in self._direct[warp_slot]
        return arch in self._maps[warp_slot]
