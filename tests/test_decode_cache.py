"""The decode cache must be invisible: bit-identical statistics.

The per-kernel decode cache (``repro.sim.decode``) and the cached issue
frame in ``SMCore`` are pure performance work — every counter in
``SimStats`` and the final global-memory image must come out exactly
equal to the uncached seed path, which stays available behind
``REPRO_DECODE_CACHE=0``. These tests pin that equivalence across
workloads, register-management modes and every configuration the frame
branches on (register file cache, lifetime tracer, least-occupied-bank
allocation, release metadata outside flags mode, scheduler policy,
GPU-shrink pressure), plus the structural invariants of the decoded
records themselves.

The ``ticks_executed`` / ``skipped_cycles`` engine diagnostics are
exempt (the convention of test_cycle_skip.py / test_vector_lanes.py):
they record how the tick loop ran, not what it simulated.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.compiler.banks import bank_of
from repro.isa.opcodes import Opcode, opcode_info
from repro.sim.decode import (
    RENAMING_TABLE_BANKS,
    build_decode_cache,
)
from repro.sim.gpu import GPU
from repro.workloads.suite import get_workload

WORKLOADS = ("matrixmul", "blackscholes", "reduction")
MODES = ("baseline", "flags", "redefine")
QUICK = dict(scale=0.5)
DIAGNOSTICS = frozenset({"ticks_executed", "skipped_cycles"})


def _comparable(result) -> dict:
    return {
        name: value
        for name, value in dataclasses.asdict(result.stats).items()
        if name not in DIAGNOSTICS
    }


def _run_case(workload, mode, config=None, compiled=False, **opts):
    """One wave of ``workload`` under ``mode`` on ``config`` (default:
    baseline for baseline mode, else renamed); returns the comparable
    stats and the final global-memory image. Flags mode — and any mode
    with ``compiled`` — runs the kernel compiled for ``config`` (or for
    the renamed file, so it carries release metadata)."""
    if config is None:
        config = (
            GPUConfig.baseline() if mode == "baseline"
            else GPUConfig.renamed()
        )
    opts.setdefault("max_ctas_per_sm_sim",
                    workload.table1.conc_ctas_per_sm)
    kernel = workload.kernel.clone()
    if mode == "flags" or compiled:
        target = config if mode == "flags" else GPUConfig.renamed()
        result = compile_kernel(workload.kernel, workload.launch, target)
        kernel = result.kernel
        if mode == "flags":
            opts["threshold"] = result.renaming_threshold
    gpu = GPU(config, kernel, workload.launch, mode=mode, **opts)
    return _comparable(gpu.run()), gpu.gmem.image()


#: Configurations the issue frame branches on, beyond the three plain
#: modes: label -> (mode, ``_run_case`` options). Each runs on
#: VARIANT_WORKLOADS.
VARIANTS = {
    "rfc-baseline": (
        "baseline", dict(config=GPUConfig.baseline(rfc_entries_per_warp=6))
    ),
    "traced-flags": (
        "flags", dict(trace_warp_slots=(0, 1), sample_interval=7)
    ),
    "least-occupied-flags": (
        "flags",
        dict(config=GPUConfig.renamed(bank_preserving_renaming=False)),
    ),
    "compiled-redefine": ("redefine", dict(compiled=True)),
    "traced-redefine": ("redefine", dict(trace_warp_slots=(0, 1))),
    "compiled-baseline": ("baseline", dict(compiled=True)),
    "gto-baseline": (
        "baseline", dict(config=GPUConfig.baseline(scheduler_policy="gto"))
    ),
    "loose_rr-redefine": (
        "redefine",
        dict(config=GPUConfig.renamed(scheduler_policy="loose_rr")),
    ),
}
VARIANT_WORKLOADS = WORKLOADS + ("bfs",)
#: Register-file pressure: throttling, spill churn and deadlock
#: fallbacks, on the throttle-dominated workloads.
SHRINK_VARIANTS = {
    "shrink0.5-redefine": (
        "redefine", dict(config=GPUConfig.shrunk(0.5))
    ),
    "shrink0.2-traced-flags": (
        "flags", dict(config=GPUConfig.shrunk(0.2), trace_warp_slots=(0, 1))
    ),
    "shrink0.3-nospill-flags": (
        "flags", dict(config=GPUConfig.shrunk(0.3), spill_enabled=False)
    ),
    "shrink0.3-least-occupied-flags": (
        "flags",
        dict(config=GPUConfig.shrunk(0.3, bank_preserving_renaming=False)),
    ),
    "shrink0.3-traced-least-occupied-redefine": (
        "redefine",
        dict(config=GPUConfig.shrunk(0.3, bank_preserving_renaming=False),
             trace_warp_slots=(0, 1)),
    ),
}
SHRINK_WORKLOADS = ("scalarprod", "backprop")

EQUIVALENCE_CASES = [
    pytest.param(mode, name, {}, id=f"{mode}-{name}")
    for mode in MODES
    for name in WORKLOADS
] + [
    pytest.param(mode, name, opts, id=f"{label}-{name}")
    for variants, names in (
        (VARIANTS, VARIANT_WORKLOADS), (SHRINK_VARIANTS, SHRINK_WORKLOADS)
    )
    for label, (mode, opts) in variants.items()
    for name in names
]


class TestEquivalence:
    @pytest.mark.parametrize("mode,name,opts", EQUIVALENCE_CASES)
    def test_cached_path_matches_seed_path(self, mode, name, opts,
                                           monkeypatch):
        """Every SimStats field and the memory image identical on the
        decode-cached path and on the seed path (no decode cache, one
        scan per simulated cycle)."""
        workload = get_workload(name, **QUICK)
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        cached = _run_case(workload, mode, **opts)

        monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "0")
        seed = _run_case(workload, mode, **opts)

        assert cached[0] == seed[0]
        assert cached[1] == seed[1]


class TestSharing:
    def test_env_flag_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
        workload = get_workload("matrixmul", **QUICK)
        gpu = GPU(
            GPUConfig.renamed(), workload.kernel.clone(), workload.launch,
            mode="redefine", max_ctas_per_sm_sim=1,
        )
        assert gpu.core._decode is None


class TestDecodedInst:
    """Structural invariants of the per-instruction records."""

    @pytest.fixture(scope="class")
    def decoded(self):
        workload = get_workload("blackscholes", **QUICK)
        config = GPUConfig.renamed()
        compiled = compile_kernel(workload.kernel, workload.launch, config)
        threshold = compiled.renaming_threshold
        cache = build_decode_cache(compiled.kernel, config, threshold,
                                   "flags")
        return compiled.kernel, cache, threshold, config

    def test_dedup_preserves_first_occurrence_order(self, decoded):
        kernel, cache, _, _ = decoded
        for entry in cache:
            seen = []
            for reg in entry.inst.srcs:
                if reg not in seen:
                    seen.append(reg)
            assert list(entry.dedup_srcs) == seen

    def test_release_list_collapses_unset_flags_to_none(self, decoded):
        kernel, cache, _, _ = decoded
        for entry in cache:
            expected = tuple(
                reg for reg, flag in zip(
                    entry.inst.srcs, entry.inst.release_srcs
                ) if flag
            )
            assert entry.release_list == (expected or None)

    def test_threshold_partition_covers_dedup_srcs(self, decoded):
        kernel, cache, threshold, _ = decoded
        for entry in cache:
            assert sorted(entry.below_srcs + entry.above_srcs) == sorted(
                entry.dedup_srcs
            )
            assert all(reg < threshold for reg in entry.below_srcs)
            assert all(reg >= threshold for reg in entry.above_srcs)

    def test_lookup_conflict_matches_four_banked_table(self, decoded):
        kernel, cache, threshold, _ = decoded
        for entry in cache:
            lookups = {r for r in entry.inst.srcs if r >= threshold}
            if entry.inst.dst is not None and entry.inst.dst >= threshold:
                lookups.add(entry.inst.dst)
            expected = 0
            if len(lookups) > 1:
                expected = len(lookups) - len(
                    {r % RENAMING_TABLE_BANKS for r in lookups}
                )
            assert entry.lookup_conflict_extra == expected

    def test_bank_tables_match_bank_of_for_every_slot(self, decoded):
        kernel, cache, _, config = decoded
        n = config.num_banks
        for entry in cache:
            for slot in range(2 * n):  # beyond one period: wraps
                banks = entry.src_banks_by_slotmod[slot % n]
                assert banks == tuple(
                    bank_of(reg, slot, n) for reg in entry.dedup_srcs
                )
                if entry.inst.dst is not None:
                    assert entry.dst_bank_by_slotmod[slot % n] == bank_of(
                        entry.inst.dst, slot, n
                    )
            expected_extra = len(entry.dedup_srcs) - len(
                {bank_of(r, 0, n) for r in entry.dedup_srcs}
            )
            assert entry.baseline_conflict_extra == expected_extra

    def test_exec_kind_classification(self, decoded):
        kernel, cache, _, _ = decoded
        from repro.sim.execute import (
            _ALU_OPS_OUT,
            EXEC_ALU,
            EXEC_LOAD,
            EXEC_NONE,
            EXEC_SETP,
            EXEC_STORE,
        )

        kinds = set()
        for entry in cache:
            info = opcode_info(entry.opcode)
            kinds.add(entry.exec_kind)
            if entry.opcode is Opcode.SETP:
                assert entry.exec_kind == EXEC_SETP
                assert entry.setp_cmp is not None
                # The immediate substitutes for a second register
                # source only in the one-source form.
                if len(entry.inst.srcs) != 1:
                    assert entry.setp_imm is None
            elif info.is_memory:
                assert entry.exec_kind == (
                    EXEC_STORE if info.is_store else EXEC_LOAD
                )
            elif entry.opcode in _ALU_OPS_OUT:
                assert entry.exec_kind == EXEC_ALU
                assert entry.exec_out is _ALU_OPS_OUT[entry.opcode]
            else:
                assert entry.exec_kind == EXEC_NONE
        # The workload must actually exercise the dispatch classes.
        assert {EXEC_ALU, EXEC_NONE}.issubset(kinds)
