"""SM core integration tests on small kernels."""

import gc
import weakref

import pytest

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.errors import SimulationError
from repro.isa import CmpOp, KernelBuilder, Special, assemble
from repro.launch import LaunchConfig
from repro.sim import simulate
from repro.sim.gpu import GPU

ONE_WARP = LaunchConfig(1, 32, conc_ctas_per_sm=1)
TWO_CTAS = LaunchConfig(2, 64, conc_ctas_per_sm=2)


def run_modes(kernel, launch, **kwargs):
    """Run baseline / flags / redefine; return the three results."""
    base = simulate(kernel.clone(), launch, GPUConfig.baseline(),
                    mode="baseline", **kwargs)
    compiled = compile_kernel(kernel, launch, GPUConfig.renamed())
    flags = simulate(compiled.kernel, launch, GPUConfig.renamed(),
                     mode="flags", threshold=compiled.renaming_threshold,
                     **kwargs)
    redefine = simulate(kernel.clone(), launch, GPUConfig.renamed(),
                        mode="redefine", **kwargs)
    return base, flags, redefine


class TestBasicExecution:
    def test_straight_kernel_completes(self, straight_kernel):
        result = simulate(straight_kernel, ONE_WARP, mode="baseline")
        assert result.stats.warps_completed == 1
        assert result.stats.ctas_completed == 1
        assert result.instructions == len(straight_kernel)

    def test_divergent_kernel_executes_both_paths(self, diamond_kernel):
        result = simulate(diamond_kernel, ONE_WARP, mode="baseline")
        assert result.stats.divergent_branches == 1
        # A diverged warp traverses both sides sequentially, executing
        # every instruction; a uniform warp would skip one side.
        assert result.instructions == len(diamond_kernel)

    def test_loop_kernel_iterates(self, loop_kernel):
        result = simulate(loop_kernel, ONE_WARP, mode="baseline")
        # 3 prologue + 4 iterations x 5 + 2 epilogue
        assert result.instructions == 3 + 4 * 5 + 2

    def test_barrier_synchronizes_warps(self, barrier_kernel):
        result = simulate(barrier_kernel, TWO_CTAS, mode="baseline")
        # One CTA of the grid lands on the simulated SM: 2 warps arrive.
        assert result.stats.barriers == 2
        assert result.stats.ctas_completed == 1

    def test_stores_land_in_global_memory(self, straight_kernel):
        gpu = GPU(GPUConfig.baseline(), straight_kernel, ONE_WARP,
                  mode="baseline")
        gpu.run()
        # STG [r3], r2 with r2 = tid + 16, r3 = r2 << 2.
        assert gpu.gmem.peek((0 + 16) << 2) == 16

    def test_max_cycles_guard(self, loop_kernel):
        with pytest.raises(SimulationError):
            simulate(loop_kernel, ONE_WARP, mode="baseline", max_cycles=3)


class TestModeEquivalence:
    def test_same_instruction_counts(self, loop_kernel):
        base, flags, redefine = run_modes(loop_kernel, TWO_CTAS)
        assert base.instructions == flags.instructions
        assert base.instructions == redefine.instructions

    def test_divergent_equivalence(self, diamond_kernel):
        base, flags, redefine = run_modes(diamond_kernel, TWO_CTAS)
        assert base.instructions == flags.instructions == \
            redefine.instructions

    def test_flags_mode_uses_fewer_peak_registers(self, loop_kernel):
        base, flags, _ = run_modes(loop_kernel, TWO_CTAS)
        assert (
            flags.stats.max_live_registers
            <= base.stats.max_live_registers
        )

    def test_redefine_between_baseline_and_flags(self, loop_kernel):
        base, flags, redefine = run_modes(loop_kernel, TWO_CTAS)
        assert (
            flags.stats.max_live_registers
            <= redefine.stats.max_live_registers
            <= base.stats.max_live_registers
        )


class TestMetadataProcessing:
    def test_pir_decoded_then_cached(self, loop_kernel):
        compiled = compile_kernel(
            loop_kernel, TWO_CTAS, GPUConfig.renamed()
        )
        result = simulate(compiled.kernel, TWO_CTAS,
                          GPUConfig.renamed(), mode="flags")
        stats = result.stats
        assert stats.pir_decoded >= 1
        assert stats.pir_skipped > stats.pir_decoded
        assert stats.flag_cache_hits == stats.pir_skipped

    def test_no_cache_decodes_every_pir(self, loop_kernel):
        config = GPUConfig.renamed(release_flag_cache_entries=0)
        compiled = compile_kernel(loop_kernel, TWO_CTAS, config)
        result = simulate(compiled.kernel, TWO_CTAS, config, mode="flags")
        assert result.stats.pir_skipped == 0
        assert result.stats.pir_decoded > 0

    def test_releases_recycle_registers(self, loop_kernel):
        compiled = compile_kernel(
            loop_kernel, TWO_CTAS, GPUConfig.renamed()
        )
        result = simulate(compiled.kernel, TWO_CTAS,
                          GPUConfig.renamed(), mode="flags")
        stats = result.stats
        assert stats.registers_released_events > 0
        # Never above the architected reservation; with so few
        # registers the tiny loop kernel may momentarily use them all.
        assert stats.max_live_registers <= stats.max_architected_allocated


class TestBaselinePolicy:
    def test_baseline_pins_full_architected_set(self, loop_kernel):
        result = simulate(loop_kernel.clone(), TWO_CTAS, mode="baseline")
        demand = 2 * loop_kernel.num_regs  # 2 warps x 4 regs... per CTA
        assert result.stats.max_live_registers == \
            result.stats.max_architected_allocated
        assert result.stats.max_live_registers >= demand

    def test_baseline_on_shrunk_config_rejected(self, loop_kernel):
        with pytest.raises(SimulationError):
            simulate(loop_kernel.clone(), TWO_CTAS,
                     GPUConfig.shrunk(0.5), mode="baseline")

    def test_unknown_mode_rejected(self, loop_kernel):
        with pytest.raises(SimulationError):
            simulate(loop_kernel.clone(), TWO_CTAS, mode="bogus")


class TestGpuShrink:
    def build_pressure_kernel(self, num_regs=24):
        """Many live registers held across a long-latency load."""
        b = KernelBuilder("pressure")
        b.s2r(0, Special.TID)
        for reg in range(1, num_regs):
            b.iadd(reg, 0, 0)
        b.ldg(0, addr=0)
        for reg in range(1, num_regs):
            b.iadd(0, 0, reg)
        b.stg(addr=0, value=0)
        b.exit()
        return b.build()

    def test_shrink_completes_under_pressure(self):
        kernel = self.build_pressure_kernel()
        launch = LaunchConfig(4, 64, conc_ctas_per_sm=4)
        config = GPUConfig.shrunk(0.5)
        compiled = compile_kernel(kernel, launch, config)
        result = simulate(compiled.kernel, launch, config, mode="flags",
                          threshold=compiled.renaming_threshold)
        assert result.stats.ctas_completed == 1
        assert result.stats.max_live_registers <= 512

    def test_tiny_physical_file_triggers_throttle_or_spill(self):
        kernel = self.build_pressure_kernel(num_regs=30)
        # 8 warps x 30 regs = 240 demanded; physical file of 128.
        # grid of 32 CTAs so the simulated SM receives two at a time.
        launch = LaunchConfig(32, 128, conc_ctas_per_sm=2)
        config = GPUConfig.shrunk(0.125)
        compiled = compile_kernel(kernel, launch, config)
        result = simulate(compiled.kernel, launch, config, mode="flags",
                          threshold=compiled.renaming_threshold)
        stats = result.stats
        assert stats.ctas_completed >= 1
        assert stats.throttle_activations > 0 or stats.spill_events > 0

    def test_single_cta_exceeding_file_spills(self):
        kernel = self.build_pressure_kernel(num_regs=40)
        # One CTA of 4 warps x 40 regs = 160 > 128 physical registers:
        # the Section 8.1 corner case; progress requires spilling.
        launch = LaunchConfig(1, 128, conc_ctas_per_sm=1)
        config = GPUConfig.shrunk(0.125)
        compiled = compile_kernel(kernel, launch, config)
        result = simulate(compiled.kernel, launch, config, mode="flags",
                          threshold=compiled.renaming_threshold)
        stats = result.stats
        assert stats.ctas_completed == 1
        assert stats.spill_events > 0
        assert stats.fill_events > 0


class TestSampling:
    def test_live_samples_recorded(self, loop_kernel):
        compiled = compile_kernel(
            loop_kernel, TWO_CTAS, GPUConfig.renamed()
        )
        result = simulate(compiled.kernel, TWO_CTAS,
                          GPUConfig.renamed(), mode="flags",
                          threshold=compiled.renaming_threshold,
                          sample_interval=5)
        samples = result.stats.live_samples
        assert samples
        cycles = [cycle for cycle, _, _ in samples]
        assert cycles == sorted(cycles)
        for _, live, allocated in samples:
            assert 0 <= live <= max(allocated, 1024)

    def test_lifetime_trace_events(self, loop_kernel):
        compiled = compile_kernel(
            loop_kernel, TWO_CTAS, GPUConfig.renamed()
        )
        result = simulate(compiled.kernel, TWO_CTAS,
                          GPUConfig.renamed(), mode="flags",
                          threshold=compiled.renaming_threshold,
                          trace_warp_slots=(0,))
        events = result.stats.lifetime_events
        assert any(event == "def" for _, _, _, event in events)
        assert any(event == "release" for _, _, _, event in events)
        assert all(slot == 0 for _, slot, _, _ in events)


class TestMultiExitKernel:
    def test_divergent_exit(self):
        kernel = assemble(
            ".kernel k\n"
            "S2R r0, SR_TID\n"
            "SETP p0, r0, 16, LT\n"
            "@p0 BRA early\n"
            "STG [r0], r0\n"
            "EXIT\n"
            "early:\n"
            "EXIT\n"
        )
        result = simulate(kernel, ONE_WARP, mode="baseline")
        assert result.stats.warps_completed == 1
        assert result.stats.divergent_branches == 1


class TestSpillTriggerAccounting:
    def test_streak_counts_stalled_cycles_not_failing_warps(self):
        """Regression: with every physical register taken, a cycle in
        which *several* warps fail allocation must advance the spill
        trigger streak by one, not once per failing warp."""
        from repro.sim.core import SMCore
        from repro.sim.memory import GlobalMemory

        b = KernelBuilder("wants_regs")
        b.s2r(0, Special.TID)
        b.stg(addr=0, value=0)
        b.exit()
        kernel = b.build()
        launch = LaunchConfig(1, 128, conc_ctas_per_sm=1)  # 4 warps
        core = SMCore(GPUConfig.shrunk(0.125), kernel, launch,
                      mode="redefine", gmem=GlobalMemory())
        core.cta_queue = [0]
        core._launch_ctas(0)
        while core.regfile.free_count:
            core.regfile.allocate(0, 0)
        exit_inst = kernel.instructions[-1]
        dummy_warp = core.resident[0].warps[0]
        # Keep one future event pending each cycle so the idle skip
        # advances one cycle at a time instead of forcing a spill.
        for cycle in range(1, 6):
            core._push_event(cycle, "wb", (dummy_warp, exit_inst))
        for expected in range(1, 6):
            core.tick()
            assert core._alloc_fail_streak == expected
        # All four warps failed every cycle; the per-warp stall counter
        # confirms the streak really saw multiple failures per cycle.
        assert core.stats.stall_no_free_register \
            >= 4 * core._alloc_fail_streak

    def test_streak_resets_on_successful_issue(self):
        from repro.sim.core import SMCore
        from repro.sim.memory import GlobalMemory

        b = KernelBuilder("tiny")
        b.s2r(0, Special.TID)
        b.stg(addr=0, value=0)
        b.exit()
        launch = LaunchConfig(1, 32, conc_ctas_per_sm=1)
        core = SMCore(GPUConfig.renamed(), b.build(), launch,
                      mode="redefine", gmem=GlobalMemory())
        core.cta_queue = [0]
        core._alloc_fail_streak = 17  # pretend a stall just ended
        core.tick()  # plenty of registers: the warp issues
        assert core.stats.issued == 1
        assert core._alloc_fail_streak == 0


class TestFailedLaunchRollback:
    def test_rollback_forgets_cta_counters(self, straight_kernel):
        """Regression: a renaming launch that rolls back must not leave
        stale cta_allocated / cta_assigned entries for its CTA uid."""
        from repro.sim.core import SMCore
        from repro.sim.memory import GlobalMemory

        launch = LaunchConfig(4, 64, conc_ctas_per_sm=1)
        core = SMCore(GPUConfig.shrunk(0.125), straight_kernel, launch,
                      mode="flags", threshold=4, gmem=GlobalMemory())
        while core.regfile.free_count:  # no room for the exempt set
            core.regfile.allocate(0, 0)
        core.cta_queue = [0, 1, 2]
        for _ in range(3):  # every attempt fails and must clean up
            assert not core._launch_one_cta(0)
        assert core.renaming.cta_allocated == {}
        assert core.renaming.cta_assigned == {}
        assert core.resident == []
        assert len(core._free_warp_slots) == \
            core.config.max_warps_per_sm

    def test_counters_track_resident_ctas_after_churn(self):
        """After a shrink run with launch pressure, the renaming table
        holds counters only for CTAs that are still resident (none,
        once the grid drains)."""
        from repro.sim.core import SMCore
        from repro.sim.memory import GlobalMemory

        b = KernelBuilder("pressure")
        b.s2r(0, Special.TID)
        for reg in range(1, 24):
            b.iadd(reg, 0, 0)
        b.stg(addr=0, value=0)
        b.exit()
        launch = LaunchConfig(8, 128, conc_ctas_per_sm=2)
        core = SMCore(GPUConfig.shrunk(0.25), b.build(), launch,
                      mode="redefine", gmem=GlobalMemory())
        core.cta_queue = list(range(8))
        core.run()
        assert core.stats.ctas_completed == 8
        assert core.renaming.cta_allocated == {}
        assert core.renaming.cta_assigned == {}


class TestRenamingTableConflicts:
    def test_conflicting_operand_ids_serialize(self):
        """r1 and r5 share renaming-table bank 1 (7.1): the lookup
        costs one extra cycle versus conflict-free operands."""
        def stats_of(src):
            # redefine mode keeps the original register ids (no
            # compaction), so the table-bank collision is visible.
            kernel = assemble(src)
            return simulate(
                kernel, ONE_WARP, GPUConfig.renamed(), mode="redefine"
            ).stats

        conflicting = stats_of(
            ".kernel k\nMOVI r1, 1\nMOVI r5, 2\nIADD r2, r1, r5\n"
            "STG [r2], r2\nEXIT"
        )
        clean = stats_of(
            ".kernel k\nMOVI r1, 1\nMOVI r4, 2\nIADD r2, r1, r4\n"
            "STG [r2], r2\nEXIT"
        )
        assert conflicting.renaming_conflict_cycles > \
            clean.renaming_conflict_cycles

    def test_baseline_has_no_table_conflicts(self, straight_kernel):
        result = simulate(straight_kernel.clone(), ONE_WARP,
                          mode="baseline")
        assert result.stats.renaming_conflict_cycles == 0


#: (mode, decode cache) cases of the reference-counting test: every
#: register mode, traced and greedy-then-oldest, on both decode paths.
LIFETIME_CASES = [
    pytest.param(mode, cache, id=mode if cache == "1" else f"seed-{mode}")
    for cache in ("1", "0")
    for mode in ("baseline", "flags", "redefine", "traced", "gto")
]


class TestReferenceCounting:
    """A finished simulation is freed by reference counting alone: no
    reference cycle keeps a core, a CTA or a warp alive until the
    cyclic garbage collector happens to run."""

    @pytest.mark.parametrize("mode,decode_cache", LIFETIME_CASES)
    def test_finished_gpu_is_freed_without_collector(
        self, mode, decode_cache, loop_kernel, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DECODE_CACHE", decode_cache)
        if mode == "baseline":
            config, kernel, opts = GPUConfig.baseline(), loop_kernel, {}
        elif mode == "gto":
            config = GPUConfig.baseline().replace(scheduler_policy="gto")
            kernel, opts = loop_kernel, dict(mode="baseline")
        elif mode == "redefine":
            config, kernel, opts = GPUConfig.renamed(), loop_kernel, {}
        else:
            config = GPUConfig.renamed()
            compiled = compile_kernel(loop_kernel, TWO_CTAS, config)
            kernel = compiled.kernel
            opts = dict(mode="flags",
                        threshold=compiled.renaming_threshold)
            if mode == "traced":
                opts["trace_warp_slots"] = (0, 1)
        opts.setdefault("mode", mode)
        gc.collect()
        gc.disable()
        try:
            gpu = GPU(config, kernel, TWO_CTAS, **opts)
            core = gpu.core
            core.tick()  # tick 0 launches the CTA
            cta = core.resident[0]
            refs = [weakref.ref(obj) for obj in (core, cta, cta.warps[0])]
            del cta
            assert gpu.run().stats.ctas_completed == 1
            del gpu, core
            alive = [ref() for ref in refs]
            assert alive == [None, None, None], alive
        finally:
            gc.enable()
