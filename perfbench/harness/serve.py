"""Workload ``serve``: a simulation daemon driven open-loop.

Each cycle starts ``python -m repro.service.daemon --jobs 1`` in its
own session on a temporary socket and cache directory, waits until it
answers ``ping`` and warms it with every hot flow (untimed). Then a
seeded open-loop generator drives it over at most two connections:

* the **nominal** phase sends a zipf mix over the hot flows at
  :data:`NOMINAL_RATE`, with each cold flow requested exactly once at a
  seeded slot, so the stream holds cache hits (~2 ms: protocol and
  re-fingerprinting) and misses (a whole simulation on the single
  pool worker) — the median and the tail measure different layers;
* the **ladder** phases send the same zipf mix, now all cached, at
  each rate in :data:`LADDER_RATES`; the highest rate whose tail meets
  :data:`LADDER_LIMIT_MS` without a growing backlog is the capacity.
  Only the first :data:`LADDER_CYCLES` cycles of a run climb it: the
  capacity is steady from cycle to cycle, the nominal tail is not.

Every latency counts from the request's due time, so a stall delays
the requests behind it as a user would see; the generator's own
lateness and backlog are reported with it. The daemon is stopped with
``shutdown``, waited for, and its whole process group killed.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.service import ServiceClient, ServiceError
from repro.service.client import AsyncServiceClient
from repro.service.protocol import PROTOCOL_VERSION

from . import calibrate
from .checks import Tally
from .procs import Children, DaemonFailed, group_members, peak_rss_mb
from .stats import median, tail
from .tracing import maybe_span

SCALE = 0.5
WAVES = 1
#: Requested often: warmed before timing, then served from the cache.
HOT = tuple(
    (flow, name)
    for name in ("matrixmul", "blackscholes", "reduction", "bfs",
                 "vectoradd", "hotspot", "lud", "scalarprod")
    for flow in ("baseline", "virtualized")
)
#: Requested once per nominal phase: each one is a real simulation
#: (40-80 ms on the pool worker at this scale, so one finishes before
#: the next cold request is due).
COLD = tuple(
    ("virtualized", name) for name in ("dct8x8", "nn", "lps", "lib")
) + tuple(
    ("hardware_only", name)
    for name in ("matrixmul", "blackscholes", "reduction", "scalarprod",
                 "bfs", "hotspot", "mum", "lps", "nn")
) + tuple(
    ("baseline", name) for name in ("mum", "backprop", "heartwall")
)
ZIPF_S = 1.1
CONNECTIONS = 2
NOMINAL_RATE = 50.0
NOMINAL_REQUESTS = 120
LADDER_RATES = (200.0, 300.0, 3000.0)
LADDER_REQUESTS = 120
LADDER_LIMIT_MS = 100.0
#: Cycles of a run that climb the ladder after the nominal phase.
LADDER_CYCLES = 2
#: A ladder rung whose generator queue holds more than this many due
#: requests in its last quarter has a growing backlog.
BACKLOG_LIMIT = 16
REQUEST_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
#: A nominal-phase probe of the host speed runs this long before a
#: request is due, and only while no request is in flight.
PROBE_GAP_S = 0.012


def request(flow: str, workload: str, request_id: int) -> dict:
    return {
        "op": "simulate", "v": PROTOCOL_VERSION, "id": request_id,
        "flow": flow, "workload": workload, "scale": SCALE,
        "kwargs": {"waves": WAVES},
    }


def flow_key(flow: str, workload: str) -> str:
    return f"{flow}/{workload}"


def _arrivals(rng, count: int, rate: float) -> list[float]:
    """Arrival offsets (seconds) at ``rate`` per second: one per slot
    of ``1 / rate``, at a seeded point in its first half."""
    return [(slot + rng.uniform(0.0, 0.5)) / rate for slot in range(count)]


def _zipf(rng, flows, count: int) -> list[tuple[str, str]]:
    ranked = list(flows)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


def nominal_schedule(rng, count: int = NOMINAL_REQUESTS,
                     rate: float = NOMINAL_RATE) -> list[tuple]:
    """``(offset, flow, workload)`` triples: a zipf mix over :data:`HOT`
    with the :data:`COLD` flows, in seeded order, at the middle of equal
    strata — far enough apart that one miss finishes on the single
    pool worker before the next arrives."""
    picks = _zipf(rng, HOT, count - len(COLD))
    stratum = count // len(COLD)
    cold = list(COLD)
    rng.shuffle(cold)
    slots = {
        index * stratum + stratum // 2: flow
        for index, flow in enumerate(cold)
    }
    mix, hot = [], iter(picks)
    for slot in range(count):
        mix.append(slots[slot] if slot in slots else next(hot))
    return [(offset, *flow)
            for offset, flow in zip(_arrivals(rng, count, rate), mix)]


def ladder_schedule(rng, rate: float,
                    count: int = LADDER_REQUESTS) -> list[tuple]:
    mix = _zipf(rng, HOT + COLD, count)
    return [(offset, *flow)
            for offset, flow in zip(_arrivals(rng, count, rate), mix)]


@dataclass
class Sample:
    """One request: times are seconds relative to its due time."""

    flow: str
    workload: str
    sent: float
    done: float
    served: str | None
    error: str | None


@dataclass
class Phase:
    rate: float
    samples: list[Sample]
    lateness: list[float]
    backlog: list[int]
    wall: float
    #: Successful responses by schedule index.
    responses: dict = field(default_factory=dict)
    #: Reference-loop samples taken while the phase was idle (nominal
    #: phases only): on the pool worker's vCPU, and on the others.
    probes: list = field(default_factory=list)
    other_probes: list = field(default_factory=list)

    def latencies(self) -> list[float]:
        return [sample.done for sample in self.samples]

    @property
    def achieved_rps(self) -> float:
        return len(self.samples) / self.wall if self.wall else 0.0

    def tail_ms(self) -> float | None:
        found = tail(self.latencies())
        return None if found is None else found[0] * 1e3

    def final_backlog(self) -> int:
        """Largest generator backlog in the phase's last quarter."""
        return max(self.backlog[len(self.backlog) * 3 // 4:], default=0)

    def meets_limit(self) -> bool:
        if any(sample.error for sample in self.samples):
            return False
        tail_ms = self.tail_ms()
        return (tail_ms is not None and tail_ms <= LADDER_LIMIT_MS
                and self.final_backlog() <= BACKLOG_LIMIT)

    def describe(self) -> dict:
        return {"rate": self.rate, "achieved_rps": self.achieved_rps,
                "tail_ms": self.tail_ms(),
                "final_backlog": self.final_backlog(),
                "late_ms": max(self.lateness) * 1e3,
                "meets_limit": self.meets_limit()}


async def _drive(address: str, schedule: list[tuple], tracer,
                 probe=None) -> Phase:
    """Send ``schedule`` open-loop. ``probe`` (:class:`PhaseProbes`)
    samples the host speed in idle gaps, so no request waits for it."""
    loop = asyncio.get_running_loop()
    clients = [await AsyncServiceClient.connect(address)
               for _ in range(CONNECTIONS)]
    queue: asyncio.Queue = asyncio.Queue()
    samples: list[Sample | None] = [None] * len(schedule)
    responses: dict[int, dict] = {}
    lateness: list[float] = []
    backlog: list[int] = []
    in_flight = [0]
    origin = loop.time() + 0.02

    async def sender(slot: int) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due, flow, workload = item
            sent = loop.time()
            served = error = None
            in_flight[0] += 1
            with maybe_span(tracer, "service.request", request=index):
                try:
                    response = await asyncio.wait_for(
                        clients[slot].submit(request(flow, workload, index)),
                        REQUEST_TIMEOUT_S)
                    served = response.get("served")
                    responses[index] = response
                except (ServiceError, OSError, asyncio.TimeoutError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    # The connection may hold a late reply: replace it.
                    await clients[slot].close()
                    clients[slot] = await AsyncServiceClient.connect(
                        address)
            in_flight[0] -= 1
            samples[index] = Sample(flow, workload, sent - due,
                                    loop.time() - due, served, error)

    tasks = [asyncio.create_task(sender(slot))
             for slot in range(CONNECTIONS)]
    try:
        for index, (offset, flow, workload) in enumerate(schedule):
            due = origin + offset
            if probe is not None:
                early = due - PROBE_GAP_S - loop.time()
                if early > 0:
                    await asyncio.sleep(early)
                    if not in_flight[0] and queue.empty():
                        probe.tick()
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(loop.time() - due)
            backlog.append(queue.qsize())
            queue.put_nowait((index, due, flow, workload))
        for _ in tasks:
            queue.put_nowait(None)
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        for client in clients:
            await client.close()
    phase = Phase(0.0, [s for s in samples if s is not None], lateness,
                  backlog, loop.time() - origin, responses)
    if probe is not None:
        phase.probes = probe.worker.samples
        phase.other_probes = probe.other.samples
    return phase


@dataclass
class Cycle:
    ready_s: float
    warmup_s: float
    nominal: Phase
    ladder: list[Phase]
    daemon_stats: dict
    peak_rss_mb: float
    #: The generated inputs: ``(offset, flow, workload)`` per phase.
    schedules: list

    @property
    def max_rps(self) -> float | None:
        """Achieved rate at the highest rung that meets the limit;
        ``None`` for a cycle that did not climb the ladder."""
        if not self.ladder:
            return None
        passing = [phase for phase in self.ladder if phase.meets_limit()]
        return passing[-1].achieved_rps if passing else 0.0


class PhaseProbes:
    """Host-speed probes of a nominal phase, taken in its idle gaps and
    alternating between the vCPU the pool worker is pinned to (where
    misses run) and the other vCPUs (where the daemon answers hits).
    ``worker_cpu`` ``None`` takes every probe where the client is."""

    def __init__(self, worker_cpu: int | None):
        self.worker = calibrate.Probe()
        self.other = calibrate.Probe()
        cpus = os.sched_getaffinity(0)
        self.cpus = (
            (None, None) if worker_cpu is None
            else ({worker_cpu}, cpus - {worker_cpu})
        )

    def tick(self) -> None:
        # Alternate: the probe that waited longest goes next.
        turn = 0 if self.worker.last <= self.other.last else 1
        probe, cpus = (self.worker, self.other)[turn], self.cpus[turn]
        if time.perf_counter() - probe.last < probe.every:
            return
        if cpus is None:
            return probe.take()
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            probe.take()
        finally:
            os.sched_setaffinity(0, home)


def pin_workers(pid: int) -> int | None:
    """Pin every member of the daemon's group but the daemon itself
    (its pool worker) to the last vCPU, which is returned; ``None`` on
    a single vCPU. Misses then run on a known vCPU, whose speed the
    nominal phase probes while it is idle."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    for member in group_members(pid):
        if member != pid:
            try:
                os.sched_setaffinity(member, {cpus[-1]})
            except OSError:
                pass  # it exited; the group kill reaps the rest
    return cpus[-1]


@dataclass
class ServeResult:
    cycles: list[Cycle] = field(default_factory=list)
    traced: list[Cycle] = field(default_factory=list)


def daemon_env(root) -> dict:
    """The environment with every ``REPRO_*`` variable at its default
    and the checkout's sources first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _wait_ready(proc: subprocess.Popen, address: str) -> None:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise DaemonFailed(f"daemon exited with code {proc.returncode}")
        # ServiceClient.connect leaks its socket when connecting fails,
        # so wait for the socket file before the first attempt.
        if os.path.exists(address):
            try:
                with ServiceClient.connect(address, timeout=1.0) as client:
                    client.ping()
                return
            except (OSError, ServiceError):
                pass
        time.sleep(0.02)
    raise DaemonFailed(f"daemon not ready within {READY_TIMEOUT_S:.0f}s")


def _shutdown(address: str) -> None:
    with ServiceClient.connect(address, timeout=5.0) as client:
        client.shutdown()


def one_cycle(root, workdir, children: Children, tally: Tally,
              expected: dict, rng, tracer=None, reference=None,
              ladder: bool = True) -> Cycle:
    """Start a daemon, warm it, run the nominal phase and (with
    ``ladder``) the ladder, read its counters, stop it. The nominal
    phase's host-speed probes join ``reference``."""
    directory = tempfile.mkdtemp(prefix="serve-", dir=workdir)
    address = os.path.relpath(os.path.join(directory, "d.sock"), root)
    log = open(os.path.join(directory, "daemon.log"), "wb")
    proc = None
    try:
        started = time.perf_counter()
        proc = children.spawn(
            [sys.executable, "-m", "repro.service.daemon", "--jobs", "1",
             "--socket", address, "--cache-dir",
             os.path.join(directory, "cache")],
            cwd=root, env=daemon_env(root), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT)
        _wait_ready(proc, address)
        ready_s = time.perf_counter() - started
        started = time.perf_counter()
        with ServiceClient.connect(address, timeout=REQUEST_TIMEOUT_S) as c:
            for flow, workload in HOT:
                key = flow_key(flow, workload)
                try:
                    response = c.submit(request(flow, workload, -1))
                except ServiceError as exc:
                    tally.fail(f"{key}: warm-up: {exc}")
                    continue
                _verify(tally, expected, flow, workload, response)
        warmup_s = time.perf_counter() - started
        worker_cpu = pin_workers(proc.pid)
        rates = (NOMINAL_RATE,) + (LADDER_RATES if ladder else ())
        schedules = [nominal_schedule(rng)] + [
            ladder_schedule(rng, rate) for rate in rates[1:]
        ]
        phases = []
        for rate, schedule in zip(rates, schedules):
            probe = PhaseProbes(worker_cpu) if not phases else None
            with maybe_span(tracer, f"serve.rate.{rate:g}"):
                phase = asyncio.run(_drive(address, schedule, tracer,
                                           probe))
            phase.rate = rate
            if reference is not None:
                reference.add("serve", phase.probes + phase.other_probes)
            for sample in phase.samples:
                if sample.error is not None:
                    tally.fail(f"{flow_key(sample.flow, sample.workload)}: "
                               f"{sample.error}")
            for index, response in phase.responses.items():
                _, flow, workload = schedule[index]
                _verify(tally, expected, flow, workload, response)
            phases.append(phase)
        with ServiceClient.connect(address, timeout=REQUEST_TIMEOUT_S) as c:
            stats = c.stats()
        rss = peak_rss_mb(group_members(proc.pid))
        return Cycle(ready_s, warmup_s, phases[0], phases[1:], stats, rss,
                     schedules)
    finally:
        if proc is not None:
            killed = children.stop(proc, shutdown=lambda: _shutdown(address))
            if killed:
                tally.fail(f"daemon group left {killed} process(es) "
                           "running after shutdown")
        log.close()
        shutil.rmtree(directory, ignore_errors=True)


def direct_costs() -> tuple[float, dict]:
    """In-process reference costs for the traced run: the median
    seconds to rebuild and fingerprint one hot request (what the daemon
    pays per cache hit), and each cold flow's direct run time with the
    result cache off."""
    from repro.analysis.runners import run_flow
    from repro.cache import ResultCache, swap_cache
    from repro.service import protocol

    keys = []
    for flow, workload in HOT:
        started = time.perf_counter()
        protocol.service_key(
            protocol.request_to_spec(request(flow, workload, 0)))
        keys.append(time.perf_counter() - started)
    direct = {}
    previous = swap_cache(ResultCache(enabled=False))
    try:
        for flow, workload in COLD:
            spec = protocol.request_to_spec(request(flow, workload, 0))
            started = time.perf_counter()
            run_flow(spec)
            direct[flow_key(flow, workload)] = (
                time.perf_counter() - started)
    finally:
        swap_cache(previous)
    return median(keys), direct


def _verify(tally: Tally, expected: dict, flow: str, workload: str,
            response: dict) -> None:
    key = flow_key(flow, workload)
    tally.check(key, response.get("stats") or {}, expected.get(key))


def run(root, workdir, children: Children, rng, tally: Tally,
        expected: dict, budget: float, min_cycles: int,
        tracer=None, reference=None) -> ServeResult:
    """Cycles for ``budget`` seconds (at least ``min_cycles``), the
    first :data:`LADDER_CYCLES` of them with the ladder; with a tracer,
    one more traced cycle with the ladder."""
    out = ServeResult()
    deadline = time.perf_counter() + budget
    while len(out.cycles) < min_cycles or time.perf_counter() < deadline:
        out.cycles.append(one_cycle(
            root, workdir, children, tally, expected, rng,
            reference=reference,
            ladder=len(out.cycles) < LADDER_CYCLES))
    if tracer is not None:
        with maybe_span(tracer, "serve.cycle"):
            out.traced.append(one_cycle(root, workdir, children, tally,
                                        expected, rng, tracer, reference))
    return out


def _factor(probes: list[float]) -> float:
    """To the reference host speed; 1 for a phase without probes."""
    return calibrate.to_reference(probes) if probes else 1.0


def summary(cycles: list[Cycle]) -> dict:
    """Medians over cycles of the per-cycle end-to-end numbers (the
    capacity over the cycles that climbed the ladder). ``p50_ms`` and
    ``tail_ms`` are at the reference host speed: each cycle's tail (its
    misses) by the probes of the pool worker's vCPU in its nominal
    phase, its median (hits) by the probes of every vCPU. ``raw_*`` are
    as measured."""
    p50s, tails, raw_p50s, raw_tails = [], [], [], []
    percentile = count = None
    for cycle in cycles:
        nominal = cycle.nominal
        latencies = nominal.latencies()
        raw_p50s.append(median(latencies))
        p50s.append(raw_p50s[-1] * _factor(nominal.probes
                                           + nominal.other_probes))
        found = tail(latencies)
        if found is not None:
            raw_tails.append(found[0])
            tails.append(found[0] * _factor(nominal.probes))
            percentile, count = found[1], found[2]
    return {
        "p50_ms": median(p50s) * 1e3,
        "raw_p50_ms": median(raw_p50s) * 1e3,
        "tail_ms": median(tails) * 1e3 if tails else 0.0,
        "raw_tail_ms": median(raw_tails) * 1e3 if raw_tails else 0.0,
        "tail_percentile": percentile,
        "tail_samples": count,
        "max_rps": median([cycle.max_rps for cycle in cycles
                           if cycle.max_rps is not None]),
        "ready_s": median([cycle.ready_s for cycle in cycles]),
        "ladder": [[phase.describe() for phase in cycle.ladder]
                   for cycle in cycles if cycle.ladder],
    }
