"""Content-addressed result cache for simulations and compilations.

The *reproduce-all-figures* path runs many overlapping simulations:
the experiment scripts contain dozens of ``run_baseline`` /
``run_virtualized`` call sites whose (workload, config, waves) inputs
repeat across figures. This package memoizes those results behind a
stable content fingerprint, with two tiers:

* an in-memory dict (always, per process), and
* an optional on-disk directory, so a second invocation — e.g. a
  rerun of ``python -m repro.experiments.runner`` — starts warm.

Configuration, in precedence order:

* library callers: :func:`configure_cache` / explicit ``cache=``
  arguments;
* CLI: ``--cache-dir`` / ``--no-cache`` on the experiment runner;
* environment: ``REPRO_RESULT_CACHE`` — ``0`` disables caching
  entirely, ``1``/unset enables the memory tier only, any other value
  is used as the on-disk directory path.
  ``REPRO_RESULT_CACHE_MAX_BYTES`` (plain bytes or ``64k``/``32m``/
  ``2g``) caps the disk tier with LRU eviction; unset means unbounded.

See ``docs/INTERNALS.md`` ("Result cache & sweep planner") for the key
derivation and invalidation rules.
"""

from __future__ import annotations

import os

from repro.cache.fingerprint import (
    CACHE_SCHEMA_VERSION,
    compile_key,
    engine_fingerprint,
    fingerprint,
    flow_spec_key,
    simulate_key,
)
from repro.cache.memo import cached_compile_kernel, cached_simulate
from repro.cache.store import MISS, CacheCounters, ResultCache, parse_size

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheCounters",
    "MISS",
    "ResultCache",
    "cache_env_value",
    "cached_compile_kernel",
    "cached_simulate",
    "compile_key",
    "configure_cache",
    "engine_fingerprint",
    "fingerprint",
    "flow_spec_key",
    "get_cache",
    "init_worker",
    "parse_size",
    "reset_cache",
    "resolve_jobs",
    "simulate_key",
    "swap_cache",
]

_FALSY = ("0", "off", "false", "no")
_TRUTHY = ("", "1", "on", "true", "yes")

#: The process-wide default cache; built lazily from the environment.
_default: ResultCache | None = None


def _max_bytes_from_env() -> int | None:
    raw = os.environ.get("REPRO_RESULT_CACHE_MAX_BYTES", "").strip()
    if not raw or raw.lower() in _FALSY:
        return None
    return parse_size(raw)


def _cache_from_env() -> ResultCache:
    raw = os.environ.get("REPRO_RESULT_CACHE", "").strip()
    low = raw.lower()
    if low in _FALSY:
        return ResultCache(enabled=False)
    if low in _TRUTHY:
        return ResultCache(max_bytes=_max_bytes_from_env())
    return ResultCache(directory=raw, max_bytes=_max_bytes_from_env())


def get_cache() -> ResultCache:
    """The process default cache (created from the env on first use)."""
    global _default
    if _default is None:
        _default = _cache_from_env()
    return _default


def configure_cache(
    directory: str | os.PathLike | None = None,
    enabled: bool = True,
    max_bytes: int | None = None,
) -> ResultCache:
    """Replace the default cache with an explicit configuration.

    ``max_bytes=None`` falls back to ``REPRO_RESULT_CACHE_MAX_BYTES``
    so a CLI that only relocates the directory keeps the environment's
    disk cap.
    """
    global _default
    if max_bytes is None:
        max_bytes = _max_bytes_from_env()
    _default = ResultCache(
        directory=directory, enabled=enabled, max_bytes=max_bytes
    )
    return _default


def swap_cache(cache: ResultCache | None) -> ResultCache | None:
    """Install ``cache`` as the default; returns the previous one.

    Used by harnesses (benchmark, tests) that need a scoped cache and
    must restore the caller's afterwards.
    """
    global _default
    previous, _default = _default, cache
    return previous


def reset_cache() -> None:
    """Drop the default cache; the next use re-reads the environment."""
    global _default
    _default = None


def cache_env_value(cache: ResultCache) -> str:
    """The ``REPRO_RESULT_CACHE`` value that reproduces ``cache``; the
    argument a process pool passes to :func:`init_worker`."""
    if not cache.enabled:
        return "0"
    if cache.directory is not None:
        return str(cache.directory)
    return "1"


def init_worker(cache_env: str) -> None:
    """Process-pool initializer shared by the sweep planner's pool
    (:func:`repro.analysis.runners.run_specs`) and the service daemon's.

    Points the worker's default cache at the parent's (``cache_env`` is
    :func:`cache_env_value` of it) without a size cap: each worker
    writes what it computes into the shared directory once, the parent
    absorbs the exports into its memory tier only, and only the parent
    evicts, so a worker can never evict an entry the parent has pinned.
    """
    os.environ["REPRO_RESULT_CACHE"] = cache_env
    os.environ.pop("REPRO_RESULT_CACHE_MAX_BYTES", None)
    reset_cache()


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value for a pool started with
    :func:`init_worker`: ``0``/``None`` means one per CPU; a negative
    count is a ``ValueError``."""
    if not jobs:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs
