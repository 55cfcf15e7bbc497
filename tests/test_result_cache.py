"""Content-addressed result cache: fingerprints, store, memoization.

The load-bearing guarantee is *bit identity*: a warm cache hit must be
indistinguishable — every SimStats field, every payload byte — from
re-running the simulation, under every engine-flag combination. The
grid tests below pin that across ``REPRO_DECODE_CACHE`` x
``REPRO_CYCLE_SKIP``, and the invalidation tests pin the other
direction: any input that can change the answer must change the key.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import os
import pathlib
import pickle
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# The package re-exports the fingerprint() function under the same
# name as the submodule, so fetch the module object explicitly.
fingerprint_mod = importlib.import_module("repro.cache.fingerprint")
from repro.arch import GPUConfig
from repro.cache import (
    MISS,
    ResultCache,
    cached_compile_kernel,
    cached_simulate,
    compile_key,
    fingerprint,
    simulate_key,
)
from repro.cache.store import TMP_SWEEP_AGE_SECONDS, parse_size
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.sim.gpu import simulate
from repro.sim.stats import SimStats
from repro.workloads.suite import get_workload

ENGINE_GRID = [
    ("1", "1"), ("1", "0"), ("0", "1"), ("0", "0"),
]


def _sim_key(kernel, launch, config, **overrides):
    kwargs = dict(
        mode="baseline", threshold=0,
        max_ctas_per_sm_sim=None, sample_interval=0,
        trace_warp_slots=(), spill_enabled=True,
        max_cycles=50_000_000,
    )
    kwargs.update(overrides)
    return simulate_key(kernel, launch, config, **kwargs)


class Shade(enum.Enum):
    DARK = "dark"


class Level(enum.IntEnum):
    ONE = 1


@dataclasses.dataclass(frozen=True)
class Pair:
    a: object
    b: object


def _changed(value):
    """A different value of the same kind (``1`` in place of ``None``)."""
    if value is None:
        return 1
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, int):
        return value + 1
    return value + (1,)


class TestFingerprint:
    def test_stable_and_sensitive(self, straight_kernel, small_launch):
        config = GPUConfig.baseline()
        key = _sim_key(straight_kernel, small_launch, config)
        assert key == _sim_key(straight_kernel, small_launch, config)
        assert key != _sim_key(
            straight_kernel, small_launch, config, mode="redefine"
        )
        assert key != _sim_key(
            straight_kernel, small_launch, GPUConfig.renamed()
        )

    def test_kernel_name_is_not_content(self, small_launch):
        src = """
.kernel {name}
    S2R r0, SR_TID
    MOVI r1, 0x10
    IADD r2, r0, r1
    STG [r2], r0
    EXIT
"""
        a = assemble(src.format(name="alpha"))
        b = assemble(src.format(name="beta"))
        config = GPUConfig.baseline()
        assert _sim_key(a, small_launch, config) == _sim_key(
            b, small_launch, config
        )

    def test_kernel_edit_changes_key(self, small_launch):
        src = """
.kernel k
    S2R r0, SR_TID
    MOVI r1, {imm}
    IADD r2, r0, r1
    STG [r2], r0
    EXIT
"""
        a = assemble(src.format(imm="0x10"))
        b = assemble(src.format(imm="0x20"))
        config = GPUConfig.baseline()
        assert _sim_key(a, small_launch, config) != _sim_key(
            b, small_launch, config
        )

    def test_engine_flags_split_keys(
        self, straight_kernel, small_launch, monkeypatch
    ):
        config = GPUConfig.baseline()
        keys = set()
        for decode, skip in ENGINE_GRID:
            monkeypatch.setenv("REPRO_DECODE_CACHE", decode)
            monkeypatch.setenv("REPRO_CYCLE_SKIP", skip)
            keys.add(_sim_key(straight_kernel, small_launch, config))
        assert len(keys) == 4

    def test_schema_version_bump_invalidates(
        self, straight_kernel, small_launch, monkeypatch
    ):
        config = GPUConfig.renamed()
        sim_before = _sim_key(straight_kernel, small_launch, config)
        compile_before = compile_key(
            straight_kernel, small_launch, config,
            insert_flags=True, edge_releases=True,
        )
        monkeypatch.setattr(
            fingerprint_mod, "CACHE_SCHEMA_VERSION",
            fingerprint_mod.CACHE_SCHEMA_VERSION + 1,
        )
        assert _sim_key(
            straight_kernel, small_launch, config
        ) != sim_before
        assert compile_key(
            straight_kernel, small_launch, config,
            insert_flags=True, edge_releases=True,
        ) != compile_before

    def test_jobs_is_not_part_of_the_key(self):
        import inspect

        # How a simulation is scheduled must not split the cache;
        # guard against a job count ever joining the key signature.
        params = inspect.signature(simulate_key).parameters
        assert "jobs" not in params

    def test_rejects_unfingerprintable_values(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            fingerprint(Opaque())

    def test_primitive_kinds_key_apart(self):
        values = [
            1, True, 1.0, "1", b"1", Shade.DARK, Shade.DARK.value,
            Level.ONE,
        ]
        assert len({fingerprint(v) for v in values}) == len(values)
        assert fingerprint(0.0) != fingerprint(-0.0)

    def test_primitive_subclasses_key_as_their_value(self):
        class Count(int):
            pass

        assert fingerprint(Count(3)) == fingerprint(3)
        assert fingerprint(np.float64(0.5)) == fingerprint(0.5)

    def test_tuple_and_dataclass_key_apart(self):
        solo = dataclasses.make_dataclass("Solo", ["a"])
        empty = dataclasses.make_dataclass("Empty", [])
        assert fingerprint((1, 2)) != fingerprint(Pair(1, 2))
        assert fingerprint((1,)) != fingerprint(solo(1))
        assert fingerprint(solo(1)) != fingerprint(solo(2))
        assert fingerprint(()) != fingerprint(empty())

    def test_dataclass_name_and_field_names_are_part_of_the_key(self):
        twin = dataclasses.make_dataclass("Twin", ["a", "b"])
        renamed = dataclasses.make_dataclass("Pair", ["a", "c"])
        keys = {
            fingerprint(Pair(1, 2)),
            fingerprint(twin(1, 2)),
            fingerprint(renamed(1, 2)),
        }
        assert len(keys) == 3

    def test_lists_and_tuples_key_alike(self):
        assert fingerprint([1, (2, [3])]) == fingerprint((1, [2, (3,)]))

    def test_shared_objects_do_not_change_the_key(self):
        def text():
            return "".join(["x"] * 64)

        shared, first, second = text(), text(), text()
        assert fingerprint([shared, shared]) == fingerprint([first, second])

    @given(
        st.lists(
            st.one_of(st.integers(), st.text(max_size=3)),
            unique=True, max_size=8,
        ).flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs)))
    )
    @settings(max_examples=50, deadline=None)
    def test_dict_and_set_order_does_not_matter(self, orders):
        first, second = orders
        assert fingerprint({k: repr(k) for k in first}) == fingerprint(
            {k: repr(k) for k in second}
        )
        assert fingerprint(set(first)) == fingerprint(set(second))
        assert fingerprint(frozenset(first)) == fingerprint(
            frozenset(second)
        )

    def test_every_instruction_field_is_part_of_the_key(
        self, straight_kernel, small_launch
    ):
        config = GPUConfig.baseline()
        keys = {_sim_key(straight_kernel, small_launch, config)}
        for f in dataclasses.fields(Instruction):
            kernel = straight_kernel.clone()
            inst = kernel.instructions[2]
            setattr(inst, f.name, _changed(getattr(inst, f.name)))
            keys.add(_sim_key(kernel, small_launch, config))
        assert len(keys) == len(dataclasses.fields(Instruction)) + 1

    def test_rejects_unknown_kinds_at_any_depth(
        self, straight_kernel, small_launch
    ):
        class Opaque:
            pass

        for nested in (
            Pair(1, Opaque()),
            {Opaque(): 1},
            {"k": [(Opaque(),)]},
            {1, Opaque()},
        ):
            with pytest.raises(TypeError):
                fingerprint(nested)
        kernel = straight_kernel.clone()
        kernel.instructions[-1].imm = Opaque()
        with pytest.raises(TypeError):
            _sim_key(kernel, small_launch, GPUConfig.baseline())


class TestStore:
    def test_memory_round_trip_never_aliases(self):
        cache = ResultCache()
        value = {"nested": [1, 2, {"x": (3, 4)}]}
        cache.put("k", value)
        first = cache.get("k")
        second = cache.get("k")
        assert first == value and second == value
        assert first is not value and first is not second

    def test_miss_sentinel_distinct_from_none(self):
        cache = ResultCache()
        assert cache.get("absent") is MISS
        cache.put("k", None)
        assert cache.get("k") is None

    def test_disk_round_trip_across_instances(self, tmp_path):
        writer = ResultCache(directory=tmp_path)
        writer.put("k", SimStats(cycles=42))
        reader = ResultCache(directory=tmp_path)
        hit = reader.get("k")
        assert hit == SimStats(cycles=42)
        assert reader.counters.hits == 1
        assert reader.counters.bytes_read > 0

    def test_disabled_cache_stores_nothing(self, tmp_path):
        cache = ResultCache(directory=tmp_path, enabled=False)
        cache.put("k", 1)
        assert cache.get("k") is MISS
        assert len(cache) == 0
        assert not any(tmp_path.iterdir())
        assert "disabled" in cache.describe()

    def test_exports_and_absorb(self, tmp_path):
        worker = ResultCache()
        worker.put("a", 1)
        worker.put("b", 2)
        exports = worker.take_exports()
        assert [key for key, _ in exports] == ["a", "b"]
        assert worker.take_exports() == []

        parent = ResultCache(directory=tmp_path)
        parent.put("a", 99)  # already known: must not be overwritten
        assert parent.absorb(exports) == 1
        assert parent.get("a") == 99
        assert parent.get("b") == 2
        # Absorbed entries land in the memory tier only: the worker
        # that exported them has already written its own disk copy.
        assert ResultCache(directory=tmp_path).get("b") is MISS

    def test_counters_in_describe(self):
        cache = ResultCache()
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        assert "1 hits, 1 misses, 1 stores" in cache.describe()


class TestCachedSimulate:
    @pytest.mark.parametrize("decode,skip", ENGINE_GRID)
    def test_warm_hit_is_bit_identical(
        self, decode, skip, tmp_path, monkeypatch,
        loop_kernel, small_launch,
    ):
        monkeypatch.setenv("REPRO_DECODE_CACHE", decode)
        monkeypatch.setenv("REPRO_CYCLE_SKIP", skip)
        config = GPUConfig.renamed()

        cold_cache = ResultCache(directory=tmp_path)
        cold = cached_simulate(
            loop_kernel, small_launch, config, mode="redefine",
            cache=cold_cache,
        )
        assert cold_cache.counters.misses == 1
        # A second process (fresh instance, same directory) must see
        # every SimStats field identical, including the engine
        # diagnostics that differ *between* grid points.
        warm_cache = ResultCache(directory=tmp_path)
        warm = cached_simulate(
            loop_kernel, small_launch, config, mode="redefine",
            cache=warm_cache,
        )
        assert warm_cache.counters.hits == 1
        assert warm_cache.counters.misses == 0
        for field in dataclasses.fields(SimStats):
            assert getattr(warm.stats, field.name) == getattr(
                cold.stats, field.name
            ), field.name
        assert pickle.dumps(warm) == pickle.dumps(cold)

    def test_matches_raw_simulate(self, barrier_kernel, small_launch):
        config = GPUConfig.baseline()
        raw = simulate(barrier_kernel.clone(), small_launch, config)
        cached = cached_simulate(
            barrier_kernel, small_launch, config, cache=ResultCache()
        )
        assert cached.stats == raw.stats

    def test_config_change_misses(self, straight_kernel, small_launch):
        cache = ResultCache()
        cached_simulate(
            straight_kernel, small_launch, GPUConfig.baseline(),
            cache=cache,
        )
        cached_simulate(
            straight_kernel, small_launch,
            GPUConfig.baseline().replace(rfc_entries_per_warp=6),
            cache=cache,
        )
        assert cache.counters.misses == 2

    def test_engine_flag_change_misses(
        self, straight_kernel, small_launch, monkeypatch
    ):
        cache = ResultCache()
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "1")
        cached_simulate(
            straight_kernel, small_launch, GPUConfig.baseline(),
            cache=cache,
        )
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "0")
        cached_simulate(
            straight_kernel, small_launch, GPUConfig.baseline(),
            cache=cache,
        )
        assert cache.counters.misses == 2

    def test_disabled_cache_is_pure_passthrough(
        self, straight_kernel, small_launch
    ):
        cache = ResultCache(enabled=False)
        a = cached_simulate(
            straight_kernel, small_launch, cache=cache
        )
        b = cached_simulate(
            straight_kernel, small_launch, cache=cache
        )
        assert a is not b
        assert a.stats == b.stats
        assert len(cache) == 0


class TestCachedCompile:
    def test_round_trip_and_invalidation(self, tmp_path):
        workload = get_workload("vectoradd", scale=0.5)
        config = GPUConfig.renamed()
        cold_cache = ResultCache(directory=tmp_path)
        cold = cached_compile_kernel(
            workload.kernel, workload.launch, config, cache=cold_cache
        )
        warm_cache = ResultCache(directory=tmp_path)
        warm = cached_compile_kernel(
            workload.kernel, workload.launch, config, cache=warm_cache
        )
        assert warm_cache.counters.hits == 1
        assert pickle.dumps(warm) == pickle.dumps(cold)
        # Different compile options are different entries.
        cached_compile_kernel(
            workload.kernel, workload.launch, config,
            edge_releases=False, cache=warm_cache,
        )
        assert warm_cache.counters.misses == 1

    def test_compiled_kernel_simulates_identically(self):
        workload = get_workload("vectoradd", scale=0.5)
        config = GPUConfig.renamed()
        direct = None
        for _ in range(2):
            cache = ResultCache()
            compiled = cached_compile_kernel(
                workload.kernel, workload.launch, config, cache=cache
            )
            result = cached_simulate(
                compiled.kernel, workload.launch, config, mode="flags",
                threshold=compiled.renaming_threshold, cache=cache,
            )
            if direct is None:
                direct = result
            else:
                assert result.stats == direct.stats


# --------------------------------------------------------------------------
# Disk-tier robustness: corruption-as-miss, crash-leftover sweep, LRU cap.


def _entry_bytes() -> int:
    """On-disk size of one equal-sized test entry (``b"x" * 100``)."""
    return len(pickle.dumps(b"x" * 100, protocol=pickle.HIGHEST_PROTOCOL))


def _disk_keys(directory) -> set[str]:
    return {p.stem for p in pathlib.Path(directory).glob("*.pkl")}


class TestCorruptionAndSweep:
    def test_corrupted_entry_is_a_miss_and_deleted(self, tmp_path):
        ResultCache(directory=tmp_path).put("k", {"x": 1})
        (tmp_path / "k.pkl").write_bytes(b"not a pickle")
        # A fresh instance, so the memory tier cannot mask the disk read.
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("k") is MISS
        assert not (tmp_path / "k.pkl").exists()
        assert fresh.counters.corrupt_entries == 1
        assert fresh.counters.misses == 1
        assert fresh.counters.hits == 0
        # The caller recomputes and re-stores; the key works again.
        fresh.put("k", {"x": 2})
        assert fresh.get("k") == {"x": 2}

    def test_truncated_entry_is_a_miss_and_deleted(self, tmp_path):
        ResultCache(directory=tmp_path).put("k", list(range(1000)))
        path = tmp_path / "k.pkl"
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("k") is MISS
        assert fresh.counters.corrupt_entries == 1
        assert not path.exists()

    def test_memory_tier_corruption_also_recovers(self):
        cache = ResultCache()
        cache.put("k", 1)
        cache._memory["k"] = b"garbage"
        assert cache.get("k") is MISS
        assert cache.counters.corrupt_entries == 1
        assert "k" not in cache._memory

    def test_stale_tmp_files_swept_on_open(self, tmp_path):
        stale = tmp_path / ".deadbeef01234567.abc.tmp"
        stale.write_bytes(b"crashed writer leftover")
        old = time.time() - TMP_SWEEP_AGE_SECONDS - 60
        os.utime(stale, (old, old))
        live = tmp_path / ".cafef00d89abcdef.xyz.tmp"
        live.write_bytes(b"concurrent live writer")
        cache = ResultCache(directory=tmp_path)
        cache.put("k", 1)  # first store opens the directory
        assert not stale.exists()
        assert live.exists()
        assert cache.counters.tmp_swept == 1
        # The sweep runs once per instance: a temp file that *ages*
        # while this instance is open belongs to someone else's store.
        os.utime(live, (old, old))
        cache.put("k2", 2)
        assert live.exists()


class TestParseSize:
    def test_units(self):
        assert parse_size("1048576") == 1024 ** 2
        assert parse_size("64k") == 64 * 1024
        assert parse_size("32m") == 32 * 1024 ** 2
        assert parse_size("2g") == 2 * 1024 ** 3
        assert parse_size("10kib") == 10 * 1024
        assert parse_size("64kb") == 64_000  # SI, unlike "k"
        assert parse_size("1.5m") == int(1.5 * 1024 ** 2)
        assert parse_size(" 2 G ") == 2 * 1024 ** 3

    def test_rejects_garbage(self):
        for bad in ("", "lots", "-5", "0", "k"):
            with pytest.raises(ValueError):
                parse_size(bad)

    def test_cache_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(directory=tmp_path, max_bytes=0)


class TestLRUEviction:
    def test_cap_holds_after_every_store(self, tmp_path):
        size = _entry_bytes()
        cache = ResultCache(directory=tmp_path, max_bytes=3 * size)
        for index in range(10):
            cache.put(f"k{index}", b"x" * 100)
            entries, total = cache.disk_usage()
            assert total <= 3 * size
            assert entries <= 3
        assert cache.counters.evictions == 7
        assert _disk_keys(tmp_path) == {"k7", "k8", "k9"}
        # The memory tier is never evicted: every key still hits.
        for index in range(10):
            assert cache.get(f"k{index}") == b"x" * 100

    def test_disk_reads_refresh_lru_order(self, tmp_path):
        size = _entry_bytes()
        cache = ResultCache(directory=tmp_path, max_bytes=3 * size)
        for key in ("a", "b", "c"):
            cache.put(key, b"x" * 100)
        # A *disk* read is an access. Use a fresh instance: the writer
        # would serve "a" from memory, which must not bump disk order.
        fresh = ResultCache(directory=tmp_path, max_bytes=3 * size)
        assert fresh.get("a") == b"x" * 100
        fresh.put("d", b"x" * 100)  # evicts "b", now least recent
        assert _disk_keys(tmp_path) == {"a", "c", "d"}

    def test_memory_hits_do_not_bump_disk_order(self, tmp_path):
        size = _entry_bytes()
        cache = ResultCache(directory=tmp_path, max_bytes=3 * size)
        for key in ("a", "b", "c"):
            cache.put(key, b"x" * 100)
        assert cache.get("a") == b"x" * 100  # memory-tier hit
        cache.put("d", b"x" * 100)  # "a" is still the disk LRU entry
        assert _disk_keys(tmp_path) == {"b", "c", "d"}

    def test_pinned_entries_are_never_evicted(self, tmp_path):
        size = _entry_bytes()
        cache = ResultCache(directory=tmp_path, max_bytes=2 * size)
        cache.put("a", b"x" * 100)
        cache.put("b", b"x" * 100)
        cache.pin("a")
        cache.pin("b")
        cache.put("c", b"x" * 100)
        # Strict cap: with everything older pinned, the new unpinned
        # entry is itself evicted from disk...
        assert _disk_keys(tmp_path) == {"a", "b"}
        assert cache.counters.evictions == 1
        # ...but its memory-tier copy still serves.
        assert cache.get("c") == b"x" * 100
        # Unpinning makes the old entries evictable again.
        cache.unpin("a")
        cache.unpin("b")
        cache.put("d", b"x" * 100)
        assert _disk_keys(tmp_path) == {"b", "d"}

    def test_sweep_reapplies_cap_after_external_writers(self, tmp_path):
        size = _entry_bytes()
        writer = ResultCache(directory=tmp_path)  # uncapped
        for index in range(6):
            writer.put(f"k{index}", b"x" * 100)
        reader = ResultCache(directory=tmp_path, max_bytes=2 * size)
        reader.sweep()
        entries, total = reader.disk_usage()
        assert (entries, total) == (2, 2 * size)
        assert _disk_keys(tmp_path) == {"k4", "k5"}
        assert reader.counters.evictions == 4


class TestRandomizedLRUModel:
    """Randomized put/get/reopen sequences against a pure-python model.

    The model: the disk tier is an ordered key list (LRU -> MRU),
    capped at ``CAP_ENTRIES``; stores and *disk* reads move a key to
    the MRU end; memory-tier hits leave the order alone; reopening the
    cache (a new instance over the same directory) drops the memory
    tier. Every value is the same size, so the byte cap is exactly an
    entry-count cap.
    """

    KEYS = ("a", "b", "c", "d", "e")
    CAP_ENTRIES = 3

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.sampled_from(KEYS)),
                st.tuples(st.just("get"), st.sampled_from(KEYS)),
                st.tuples(st.just("reopen"), st.just("-")),
            ),
            max_size=40,
        )
    )
    def test_disk_tier_matches_model(self, ops):
        size = _entry_bytes()
        cap = self.CAP_ENTRIES * size
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(directory=tmp, max_bytes=cap)
            order: list[str] = []  # LRU -> MRU
            memory: set[str] = set()
            for op, key in ops:
                if op == "put":
                    cache.put(key, b"x" * 100)
                    memory.add(key)
                    if key in order:
                        order.remove(key)
                    order.append(key)
                    if len(order) > self.CAP_ENTRIES:
                        order.pop(0)
                elif op == "get":
                    value = cache.get(key)
                    if key in memory:
                        assert value == b"x" * 100
                    elif key in order:
                        assert value == b"x" * 100
                        memory.add(key)
                        order.remove(key)
                        order.append(key)
                    else:
                        assert value is MISS
                else:  # reopen
                    cache = ResultCache(directory=tmp, max_bytes=cap)
                    memory = set()
                assert _disk_keys(tmp) == set(order)
                _entries, total = cache.disk_usage()
                assert total <= cap
