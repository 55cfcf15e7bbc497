"""Two-tier content-addressed result store: memory dict + disk dir.

Payloads are stored as pickle bytes in both tiers. Storing bytes (not
live objects) means every hit — memory or disk — returns a fresh
unpickle, so callers can never alias or mutate a cached result, and a
warm hit is byte-for-byte the same deserialization a cold run's
``put`` produced. Disk writes go through a temp file + ``os.replace``
so concurrent writers (pool workers or service daemon workers sharing
a directory) can never leave a torn entry; leftover ``*.tmp`` files
from a crashed writer are swept the first time a store touches the
directory.

The disk tier can be capped (``max_bytes`` / the
``REPRO_RESULT_CACHE_MAX_BYTES`` environment variable): every disk
store that pushes the directory over the cap evicts entries in
least-recently-used order (mtime-based — disk reads and stores bump
the file's mtime through a process-monotonic clock) until the
directory fits again. Keys pinned via :meth:`ResultCache.pin` — the
simulation service pins every in-flight request — are never evicted.
A corrupted or truncated entry (unpickle failure) is treated as a
miss: the bad file is deleted and the event counted, never raised.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import tempfile
import time
from dataclasses import dataclass


class _Miss:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cache miss>"


#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is
#: a legitimate cached value).
MISS = _Miss()

#: A ``*.tmp`` file this much older than "now" cannot belong to a live
#: writer (writers replace their temp file within the same store call);
#: it is a crash leftover and gets swept on open.
TMP_SWEEP_AGE_SECONDS = 300.0


@dataclass
class CacheCounters:
    """Hit/miss/store accounting surfaced in reports."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    #: Disk entries removed by the LRU size cap.
    evictions: int = 0
    bytes_evicted: int = 0
    #: Corrupted/truncated entries discarded as misses.
    corrupt_entries: int = 0
    #: Crash-leftover ``*.tmp`` files swept on open.
    tmp_swept: int = 0

    def summary(self) -> str:
        extra = ""
        if self.evictions:
            extra += f", {self.evictions} evicted"
        if self.corrupt_entries:
            extra += f", {self.corrupt_entries} corrupt"
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores{extra}, "
            f"{_human_bytes(self.bytes_written)} written, "
            f"{_human_bytes(self.bytes_read)} read from disk"
        )


def _human_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{count} B"
        value /= 1024.0
    return f"{count} B"  # pragma: no cover - unreachable


def parse_size(text: str) -> int:
    """Parse a byte size like ``1048576``, ``64k``, ``32m`` or ``2g``."""
    raw = text.strip().lower()
    multiplier = 1
    for suffix, factor in (
        ("kib", 1024), ("mib", 1024 ** 2), ("gib", 1024 ** 3),
        ("kb", 1000), ("mb", 1000 ** 2), ("gb", 1000 ** 3),
        ("k", 1024), ("m", 1024 ** 2), ("g", 1024 ** 3), ("b", 1),
    ):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)].strip()
            multiplier = factor
            break
    try:
        value = int(float(raw) * multiplier)
    except ValueError:
        raise ValueError(f"cannot parse byte size {text!r}") from None
    if value <= 0:
        raise ValueError(f"byte size must be positive, got {text!r}")
    return value


class ResultCache:
    """Content-addressed store for simulation/compilation results.

    ``directory=None`` keeps the cache memory-only (one process's
    lifetime); with a directory every store is also persisted, and
    misses fall through to disk before recomputing. ``enabled=False``
    turns every lookup into a miss and every store into a no-op — the
    honest uncached path, selectable via ``REPRO_RESULT_CACHE=0``.
    ``max_bytes`` caps the *disk* tier: stores that push the directory
    over the cap evict unpinned entries oldest-access-first until it
    fits (the memory tier, which lives only as long as the process, is
    never evicted).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        enabled: bool = True,
        max_bytes: int | None = None,
    ):
        self.directory = (
            pathlib.Path(directory) if directory is not None else None
        )
        self.enabled = enabled
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._memory: dict[str, bytes] = {}
        #: (key, payload) pairs stored since the last ``take_exports``
        #: — how pool workers ship their fresh entries back to the
        #: parent process (see ``repro.analysis.runners.run_specs``).
        self._exports: list[tuple[str, bytes]] = []
        #: Keys the LRU evictor must never remove (in-flight service
        #: requests between first lookup and response delivery).
        self._pins: set[str] = set()
        #: Process-monotonic mtime clock: successive disk touches get
        #: strictly increasing timestamps even when the wall clock's
        #: granularity cannot tell them apart, so LRU order within one
        #: process is exact (across processes wall clock decides).
        self._mtime_clock = 0
        self._opened = False
        self.counters = CacheCounters()

    # ------------------------------------------------------------ lookup
    def get(self, key: str) -> object:
        """Return the cached value for ``key``, or :data:`MISS`.

        A corrupted or truncated entry — anything ``pickle.loads``
        rejects — is deleted, counted in
        ``counters.corrupt_entries`` and reported as a miss instead of
        raising: the caller simply recomputes and re-stores it.
        """
        if not self.enabled:
            self.counters.misses += 1
            return MISS
        payload = self._memory.get(key)
        if payload is None and self.directory is not None:
            path = self._path(key)
            try:
                payload = path.read_bytes()
            except OSError:
                payload = None
            if payload is not None:
                self._memory[key] = payload
                self.counters.bytes_read += len(payload)
                # A disk read is an access: bump the entry to the
                # recently-used end of the LRU order.
                self._touch(path)
        if payload is None:
            self.counters.misses += 1
            return MISS
        try:
            value = pickle.loads(payload)
        except Exception:
            self.counters.corrupt_entries += 1
            self.counters.misses += 1
            self._memory.pop(key, None)
            if self.directory is not None:
                try:
                    os.unlink(self._path(key))
                except OSError:
                    pass
            return MISS
        self.counters.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key`` (memory + disk if configured)."""
        if not self.enabled:
            return
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._store(key, payload)
        self._exports.append((key, payload))

    def memoize(self, key: str, compute) -> object:
        """``get`` or ``compute()``-then-``put`` in one step.

        The key is pinned for the duration of the compute so a
        concurrent store's eviction sweep can never remove the entry
        out from under the computation that is about to produce it.
        """
        value = self.get(key)
        if value is not MISS:
            return value
        self.pin(key)
        try:
            value = compute()
            self.put(key, value)
        finally:
            self.unpin(key)
        return value

    # ------------------------------------------------------------ pinning
    def pin(self, key: str) -> None:
        """Protect ``key`` from LRU eviction until :meth:`unpin`."""
        self._pins.add(key)

    def unpin(self, key: str) -> None:
        self._pins.discard(key)

    def pinned(self) -> frozenset[str]:
        return frozenset(self._pins)

    # ------------------------------------------------------ fan-back API
    def take_exports(self) -> list[tuple[str, bytes]]:
        """Drain and return entries stored since the last drain."""
        exports, self._exports = self._exports, []
        return exports

    def absorb(
        self, entries: list[tuple[str, bytes]], persist: bool = True
    ) -> int:
        """Import exported entries from another process's cache.

        Already-present keys are skipped; returns how many were added.
        ``persist=False`` imports into the memory tier only — the
        service daemon uses it for worker exports whose disk writes
        already landed in the shared directory, so absorbing them
        again would double every disk write.
        """
        if not self.enabled:
            return 0
        added = 0
        for key, payload in entries:
            if key in self._memory:
                continue
            if persist:
                self._store(key, payload)
            else:
                self._memory[key] = payload
                self.counters.stores += 1
                self.counters.bytes_written += len(payload)
            added += 1
        return added

    # ------------------------------------------------------------ disk tier
    def disk_usage(self) -> tuple[int, int]:
        """Current ``(entries, bytes)`` of the disk tier (0, 0 if none)."""
        entries = 0
        total = 0
        for _path, stat in self._disk_entries():
            entries += 1
            total += stat.st_size
        return entries, total

    def sweep(self) -> None:
        """Re-apply the size cap now (after external writers, say)."""
        self._enforce_limit()

    def _disk_entries(self) -> list[tuple[pathlib.Path, os.stat_result]]:
        if self.directory is None:
            return []
        entries = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = self.directory / name
            try:
                entries.append((path, path.stat()))
            except OSError:
                continue  # concurrently evicted/replaced — skip
        return entries

    def _open_directory(self) -> None:
        """Create the directory and sweep crash leftovers, once."""
        assert self.directory is not None
        self.directory.mkdir(parents=True, exist_ok=True)
        if self._opened:
            return
        self._opened = True
        # A concurrent writer's live temp file is at most milliseconds
        # old; anything older than the sweep age is an orphan from a
        # crashed or killed process and would otherwise leak forever.
        cutoff = time.time() - TMP_SWEEP_AGE_SECONDS
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = self.directory / name
            try:
                if path.stat().st_mtime <= cutoff:
                    os.unlink(path)
                    self.counters.tmp_swept += 1
            except OSError:
                continue

    def _touch(self, path: pathlib.Path) -> None:
        """Best-effort LRU bump: strictly increasing mtime per process."""
        now = time.time_ns()
        self._mtime_clock = max(self._mtime_clock + 1, now)
        try:
            os.utime(path, ns=(self._mtime_clock, self._mtime_clock))
        except OSError:
            pass

    def _enforce_limit(self) -> None:
        """Evict least-recently-used unpinned entries over the cap.

        Invariants (see ``docs/INTERNALS.md``):

        * after every store, the disk tier's unpinned bytes fit in
          ``max_bytes`` (pinned — in-flight — entries are never
          evicted, even when that leaves the directory over the cap);
        * eviction order is strictly least-recently-*accessed* first,
          where disk reads and stores both count as accesses;
        * eviction only removes ``*.pkl`` entries, never the memory
          tier — a just-evicted key served from memory keeps working.
        """
        if self.max_bytes is None or self.directory is None:
            return
        entries = self._disk_entries()
        total = sum(stat.st_size for _path, stat in entries)
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda item: (item[1].st_mtime_ns, item[0].name))
        for path, stat in entries:
            if total <= self.max_bytes:
                break
            if path.stem in self._pins:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue  # concurrent eviction — already gone
            total -= stat.st_size
            self.counters.evictions += 1
            self.counters.bytes_evicted += stat.st_size

    # ------------------------------------------------------------ internals
    def _store(self, key: str, payload: bytes) -> None:
        self._memory[key] = payload
        self.counters.stores += 1
        self.counters.bytes_written += len(payload)
        if self.directory is None:
            return
        # Created lazily so configuring a directory costs nothing until
        # something is actually cached.
        self._open_directory()
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._touch(self._path(key))
        self._enforce_limit()

    def _path(self, key: str) -> pathlib.Path:
        assert self.directory is not None
        return self.directory / f"{key}.pkl"

    def __len__(self) -> int:
        return len(self._memory)

    def describe(self) -> str:
        """One-line state summary for runner reports."""
        where = (
            f"dir {self.directory}" if self.directory is not None
            else "memory only"
        )
        if self.max_bytes is not None:
            where += f", cap {_human_bytes(self.max_bytes)}"
        if not self.enabled:
            return "cache: disabled (REPRO_RESULT_CACHE=0)"
        return f"cache: {self.counters.summary()} ({where})"
