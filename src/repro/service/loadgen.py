"""Load-generator benchmark for the simulation service.

Models the ROADMAP's "heavy traffic" scenario: N concurrent clients
replay a zipf-distributed request mix (a few hot flows, a long tail —
the canonical shape of shared-dashboard / CI traffic) against a
daemon, and every response is verified **bit-identical per SimStats
field** against a direct uncached run of the same flow.

Arrival pattern: requests are dispatched in *waves* of at most one
request per client, with duplicates of the same flow packed into the
same wave (a flash crowd — everyone asks for the hot result at once).
That is the worst case a result cache alone cannot absorb and exactly
what single-flight request coalescing is for: the wave's duplicates
join one in-flight simulation instead of each running their own.

Reported numbers:

* ``baseline_seconds`` — the no-cache sequential cost: every unique
  flow is run directly (result cache disabled) and timed, and the
  baseline charges each request its flow's direct wall time. This is
  what a client script looping over the same mix without the service
  would pay.
* ``throughput_speedup`` — baseline over served wall clock.
* ``single_flight_dedupe`` — miss-level requests per executed
  simulation (coalesced + executed) / executed.
* ``request_dedupe`` — total requests per executed simulation (adds
  the response-cache hits).
* ``mismatches`` — responses whose SimStats payload differs from the
  direct run in any field (must be zero).

``--gate`` turns the run into a pass/fail check: dedupe, throughput
speedup and verification must clear the ``GATE_*`` floors below.

Usage::

    python -m repro.service.loadgen --spawn --quick --gate
    python -m repro.service.loadgen --address .repro-service.sock \
        --clients 8 --requests 96 --unique 24
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import tempfile
import time

from repro.service import protocol
from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    format_address,
    wait_until_ready,
)

#: Gate floors: single-flight must at least halve the executed
#: simulations on the flash-crowd mix, the daemon must serve the mix at
#: least 3x faster than the no-cache sequential baseline, and every
#: response must match the direct run exactly.
GATE_DEDUPE_FLOOR = 2.0
GATE_SPEEDUP_FLOOR = 3.0


def flow_universe(scale: float = 1.0, waves: int | None = 2) -> list[tuple]:
    """Candidate request flows: baseline + virtualized over Table 1.

    32 unique flows — enough headroom for any ``--unique`` floor the
    benchmark asks for while staying plain planner specs.
    """
    from repro.workloads.suite import all_workload_names, get_workload

    specs: list[tuple] = []
    for name in all_workload_names():
        workload = get_workload(name, scale=scale)
        specs.append(("baseline", workload, {"waves": waves}))
        specs.append(("virtualized", workload, {"waves": waves}))
    return specs


def build_mix(
    universe: list[tuple],
    requests: int,
    unique: int,
    zipf_s: float,
    seed: int,
) -> tuple[list[tuple], list[int]]:
    """Pick ``unique`` flows and zipf-distribute ``requests`` over them.

    Returns ``(flows, counts)``. Every chosen flow appears at least
    once (so the unique-flow floor is exact); the remaining draws
    follow zipf weights ``1/rank^s`` over a seed-shuffled rank order.
    Fully deterministic for a given seed.
    """
    if unique > len(universe):
        raise ValueError(
            f"unique={unique} exceeds the {len(universe)}-flow universe"
        )
    if requests < unique:
        raise ValueError(f"requests={requests} < unique={unique}")
    rng = random.Random(seed)
    flows = rng.sample(universe, unique)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(unique)]
    counts = [1] * unique
    for choice in rng.choices(range(unique), weights=weights,
                              k=requests - unique):
        counts[choice] += 1
    return flows, counts


def build_waves(counts: list[int], clients: int) -> list[list[int]]:
    """Flash-crowd schedule: waves of <= ``clients`` flow indices with
    same-flow duplicates packed together (hottest remaining first)."""
    remaining = list(counts)
    waves: list[list[int]] = []
    while sum(remaining) > 0:
        wave: list[int] = []
        for flow in sorted(
            range(len(remaining)), key=lambda f: -remaining[f]
        ):
            if len(wave) >= clients:
                break
            take = min(remaining[flow], clients - len(wave))
            wave.extend([flow] * take)
            remaining[flow] -= take
        waves.append(wave)
    return waves


def measure_baseline(flows: list[tuple]) -> tuple[list[float], list[dict]]:
    """Direct per-flow wall times and response payloads, cache off.

    This is both the honest no-cache baseline timing and the reference
    the served responses are verified against (the flows are
    deterministic, so one direct run per unique flow suffices).
    """
    from repro.analysis.runners import run_flow
    from repro.cache import ResultCache, swap_cache

    seconds: list[float] = []
    payloads: list[dict] = []
    previous = swap_cache(ResultCache(enabled=False))
    try:
        for spec in flows:
            started = time.perf_counter()
            result = run_flow(spec)
            seconds.append(time.perf_counter() - started)
            payloads.append(protocol.response_payload(spec[0], result))
    finally:
        swap_cache(previous)
    return seconds, payloads


def _diff_fields(served: dict, direct: dict) -> list[str]:
    """Field names where a served response differs from the direct run."""
    differing = []
    for field in ("mode", "ctas_simulated", "cycles", "instructions"):
        if served.get(field) != direct.get(field):
            differing.append(field)
    served_stats = served.get("stats") or {}
    direct_stats = direct.get("stats") or {}
    for field in sorted(set(served_stats) | set(direct_stats)):
        if served_stats.get(field) != direct_stats.get(field):
            differing.append(f"stats.{field}")
    return differing


async def _drive(
    address: str, requests: list[dict], waves: list[list[int]],
    clients: int,
) -> tuple[float, dict[int, list[dict]]]:
    """Dispatch the waves over ``clients`` connections; returns the
    served wall clock and the responses grouped by flow index."""
    connections = [
        await AsyncServiceClient.connect(address) for _ in range(clients)
    ]
    responses: dict[int, list[dict]] = {}
    started = time.perf_counter()
    try:
        for wave in waves:
            results = await asyncio.gather(*(
                connections[slot].submit(requests[flow])
                for slot, flow in enumerate(wave)
            ))
            for flow, response in zip(wave, results):
                responses.setdefault(flow, []).append(response)
    finally:
        wall = time.perf_counter() - started
        for connection in connections:
            await connection.close()
    return wall, responses


def run_load(
    address: str,
    clients: int = 8,
    requests: int = 60,
    unique: int = 20,
    zipf_s: float = 1.1,
    seed: int = 7,
    scale: float = 1.0,
    waves: int | None = 2,
    verify: bool = True,
) -> dict:
    """Run the full benchmark against a live daemon; returns the record."""
    universe = flow_universe(scale=scale, waves=waves)
    flows, counts = build_mix(universe, requests, unique, zipf_s, seed)
    schedule = build_waves(counts, clients)
    wire = [protocol.spec_to_request(spec) for spec in flows]

    baseline_seconds = 0.0
    direct: list[dict] = []
    if verify:
        per_flow, direct = measure_baseline(flows)
        baseline_seconds = sum(
            count * seconds for count, seconds in zip(counts, per_flow)
        )

    probe = ServiceClient.connect(address)
    try:
        before = probe.stats()
        wall, responses = asyncio.run(
            _drive(address, wire, schedule, clients)
        )
        after = probe.stats()
    finally:
        probe.close()

    executed = after["executed"] - before["executed"]
    coalesced = after["coalesced"] - before["coalesced"]
    cache_hits = after["cache_hits"] - before["cache_hits"]

    mismatches = 0
    mismatch_details: list[str] = []
    if verify:
        for flow_index, served_list in responses.items():
            for served in served_list:
                differing = _diff_fields(served, direct[flow_index])
                if differing:
                    mismatches += 1
                    if len(mismatch_details) < 5:
                        name = wire[flow_index]["workload"]
                        flow = wire[flow_index]["flow"]
                        mismatch_details.append(
                            f"{flow}/{name}: {', '.join(differing[:6])}"
                        )

    return {
        "clients": clients,
        "requests": requests,
        "unique_flows": unique,
        "zipf_s": zipf_s,
        "seed": seed,
        "scale": scale,
        "waves": waves,
        "dispatch_waves": len(schedule),
        "wall_seconds": wall,
        "requests_per_second": requests / wall if wall > 0 else 0.0,
        "baseline_seconds": baseline_seconds,
        "throughput_speedup": (
            baseline_seconds / wall if wall > 0 and verify else 0.0
        ),
        "executed": executed,
        "coalesced": coalesced,
        "cache_hit_requests": cache_hits,
        "single_flight_dedupe": (
            (executed + coalesced) / executed if executed else 1.0
        ),
        "request_dedupe": requests / executed if executed else 1.0,
        "verified": verify,
        "mismatches": mismatches,
        "mismatch_details": mismatch_details,
        "daemon": {
            "jobs": after.get("jobs"),
            "evictions": after["cache"]["evictions"],
            "disk_bytes": after["cache"]["disk_bytes"],
            "max_bytes": after["cache"]["max_bytes"],
        },
    }


class SpawnedDaemon:
    """A daemon subprocess on a temporary socket + cache directory.

    The daemon starts in its own session, so its process group holds
    the daemon and every process it forks (its pool worker included).
    When the daemon fails to start or to shut down cleanly, the whole
    group is killed and the daemon reaped, so no worker outlives it.
    """

    def __init__(self, jobs: int = 2, max_bytes: str | None = None):
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-service-")
        root = pathlib.Path(self._tmp.name)
        self.address = str(root / "daemon.sock")
        command = [
            sys.executable, "-m", "repro.service.daemon",
            "--socket", self.address,
            "--jobs", str(jobs),
            "--cache-dir", str(root / "cache"),
        ]
        if max_bytes is not None:
            command += ["--max-bytes", max_bytes]
        self._process = subprocess.Popen(
            command, env=dict(os.environ), start_new_session=True
        )
        try:
            wait_until_ready(self.address, timeout=60.0)
        except BaseException:
            self._kill()
            self._tmp.cleanup()
            raise

    def _kill(self) -> None:
        """SIGKILL the daemon's process group and reap the daemon."""
        try:
            os.killpg(self._process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass  # the group is already gone
        self._process.wait()

    def stop(self) -> None:
        try:
            with ServiceClient.connect(self.address, timeout=5.0) as client:
                client.shutdown()
            self._process.wait(timeout=30.0)
        except Exception:
            self._kill()
        finally:
            self._tmp.cleanup()

    def __enter__(self) -> "SpawnedDaemon":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def gate_load(record: dict, dedupe_floor: float = GATE_DEDUPE_FLOOR
              ) -> list[str]:
    """Pass/fail check; returns error strings (empty = pass)."""
    errors = []
    dedupe = record.get("single_flight_dedupe") or 0.0
    if dedupe < dedupe_floor:
        errors.append(
            f"gate: single-flight dedupe {dedupe:.2f}x below floor "
            f"{dedupe_floor:.1f}x"
        )
    if record.get("verified") and record.get("mismatches", 1) != 0:
        errors.append(
            f"gate: {record['mismatches']} response(s) mismatch the "
            f"direct run: {'; '.join(record.get('mismatch_details', []))}"
        )
    if not record.get("verified"):
        errors.append("gate: run with verification enabled")
    speedup = record.get("throughput_speedup") or 0.0
    if record.get("verified") and speedup < GATE_SPEEDUP_FLOOR:
        errors.append(
            f"gate: served throughput {speedup:.2f}x the no-cache "
            f"baseline, below floor {GATE_SPEEDUP_FLOOR:.1f}x"
        )
    return errors


def report(record: dict) -> str:
    lines = [
        f"service load ({record['clients']} clients, "
        f"{record['requests']} requests over {record['unique_flows']} "
        f"unique flows, zipf s={record['zipf_s']}, "
        f"{record['dispatch_waves']} waves)",
        f"served: {record['wall_seconds']:.2f}s "
        f"({record['requests_per_second']:.1f} req/s); "
        f"no-cache sequential baseline {record['baseline_seconds']:.2f}s "
        f"-> {record['throughput_speedup']:.1f}x",
        f"single-flight: {record['executed']} executed, "
        f"{record['coalesced']} coalesced, "
        f"{record['cache_hit_requests']} cache hits -> "
        f"dedupe {record['single_flight_dedupe']:.2f}x in-flight, "
        f"{record['request_dedupe']:.2f}x overall",
        f"verification: "
        + (
            f"{record['mismatches']} mismatches"
            if record.get("verified") else "skipped"
        ),
    ]
    daemon = record.get("daemon") or {}
    if daemon.get("evictions"):
        lines.append(
            f"evictions: {daemon['evictions']} "
            f"(disk {daemon['disk_bytes']} / cap {daemon['max_bytes']})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.loadgen",
        description="Benchmark the simulation service under "
        "zipf-distributed concurrent load.",
    )
    parser.add_argument(
        "--address", metavar="ADDR", default=None,
        help="connect to a running daemon (unix path or host:port) "
        "instead of spawning one",
    )
    parser.add_argument(
        "--spawn", action="store_true",
        help="spawn a fresh daemon on a temporary socket (default when "
        "--address is not given)",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=60)
    parser.add_argument(
        "--unique", type=int, default=20,
        help="unique flows in the mix (default 20)",
    )
    parser.add_argument("--zipf", type=float, default=1.1, metavar="S")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--waves", type=int, default=2)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scale and one CTA wave (CI smoke variant)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="spawned daemon's worker processes (default 2)",
    )
    parser.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="spawned daemon's disk cache cap (exercises eviction)",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the direct-run baseline/verification pass",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the result record as JSON",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help=f"fail unless single-flight dedupe >= "
        f"{GATE_DEDUPE_FLOOR:.1f}x, served throughput >= "
        f"{GATE_SPEEDUP_FLOOR:.1f}x the no-cache baseline and responses "
        "match the direct run",
    )
    args = parser.parse_args(argv)
    scale, waves = args.scale, args.waves
    if args.quick:
        scale, waves = min(scale, 0.5), 1

    def run_against(address: str) -> dict:
        print(f"driving {format_address(address)} ...", flush=True)
        return run_load(
            address, clients=args.clients, requests=args.requests,
            unique=args.unique, zipf_s=args.zipf, seed=args.seed,
            scale=scale, waves=waves, verify=not args.no_verify,
        )

    if args.address is not None:
        record = run_against(args.address)
    else:
        with SpawnedDaemon(
            jobs=args.jobs, max_bytes=args.max_bytes
        ) as daemon:
            record = run_against(daemon.address)

    print(report(record))
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(record, indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    if args.gate:
        errors = gate_load(record)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            return 1
        print(f"gate: pass (dedupe floor {GATE_DEDUPE_FLOOR:.1f}x, "
              f"throughput floor {GATE_SPEEDUP_FLOOR:.1f}x, 0 mismatches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
