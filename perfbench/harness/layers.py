"""Per-layer metrics from a traced run.

Every traced run reports every metric below; a layer the workload
never calls reports 0 (e.g. ``cache.hits`` on ``modes``, which runs
with the result cache off). Totals are per measured unit — a ``modes``
pass, a ``sweep`` cold + warm pair, a ``serve`` cycle — so they do not
grow with the run length. ``sim.*`` per-mode numbers come from the
simulations the benchmark process runs itself; the daemon's
simulations are outside the trace and show up as ``service.exec_ms``.
"""

from __future__ import annotations

from .stats import median
from .tracing import Span, Tracer, self_times

MODES = ("baseline", "flags", "redefine", "shrink")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = []
for _mode in MODES:
    PER_LAYER += [
        (f"sim.us_per_tick.{_mode}", "us", "lower"),
        (f"sim.ticks.{_mode}", "count", "lower"),
        (f"sim.skipped_fraction.{_mode}", "ratio", "higher"),
        (f"sim.run_s.{_mode}", "s", "lower"),
        (f"sim.ns_per_inst.{_mode}", "ns", "lower"),
    ]
PER_LAYER += [
    ("sim.construct_ms", "ms", "lower"),
    ("sim.warmup_s", "s", "lower"),
    ("compiler.compile_ms", "ms", "lower"),
    ("compiler.calls", "count", "lower"),
    ("workloads.build_ms", "ms", "lower"),
    ("cache.key_ms", "ms", "lower"),
    ("cache.get_ms", "ms", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.bytes_read", "B", "lower"),
    ("cache.put_ms", "ms", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.bytes_written", "B", "lower"),
    ("experiments.plan_ms", "ms", "lower"),
    ("experiments.declared", "count", "higher"),
    ("experiments.unique", "count", "lower"),
    ("experiments.replay_s", "s", "lower"),
    ("analysis.flow_s", "s", "lower"),
    ("service.hit_ms", "ms", "lower"),
    ("service.daemon_p50_ms", "ms", "lower"),
    ("service.wire_ms", "ms", "lower"),
    ("service.exec_ms", "ms", "lower"),
    ("service.queue_ms", "ms", "lower"),
    ("service.executed", "count", "lower"),
    ("service.coalesced", "count", "higher"),
    ("service.cache_hits", "count", "higher"),
    ("service.dedupe", "ratio", "higher"),
    ("service.late_ms", "ms", "lower"),
    ("service.backlog_max", "count", "lower"),
    ("service.ready_s", "s", "lower"),
]
for _mode in MODES:
    PER_LAYER += [
        (f"model.ipc.{_mode}", "inst/cycle", "higher"),
        (f"model.throttle_cycles.{_mode}", "cycles", "lower"),
        (f"model.bank_conflict_cycles.{_mode}", "cycles", "lower"),
        (f"model.spill_events.{_mode}", "count", "lower"),
        (f"model.fill_events.{_mode}", "count", "lower"),
        (f"model.renaming_reads.{_mode}", "count", "lower"),
        (f"model.renaming_writes.{_mode}", "count", "lower"),
        (f"model.flag_cache_hit_ratio.{_mode}", "ratio", "higher"),
    ]
PER_LAYER += [
    ("host.reference_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


class SpanIndex:
    """Spans grouped for the queries below."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.by_id = {span.id: span for span in self.spans}
        self.own = self_times(self.spans)

    def ancestors(self, span: Span):
        parent = span.parent
        while parent is not None:
            found = self.by_id[parent]
            yield found
            parent = found.parent

    def under(self, name: str, root: str) -> list[Span]:
        """Spans called ``name`` with an ancestor called ``root``."""
        return [
            span for span in self.spans if span.name == name
            and any(a.name == root for a in self.ancestors(span))
        ]

    def units(self, root: str) -> list[Span]:
        return [span for span in self.spans if span.name == root]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_metrics(index: SpanIndex, root: str) -> dict:
    """``sim.*`` per mode from the ``sim.run`` spans under ``root``."""
    units = len(index.units(root)) or 1
    runs = index.under("sim.run", root)
    out = {}
    for mode in MODES:
        mine = [span for span in runs if span.attrs.get("mode") == mode]
        ticks = sum(span.attrs["ticks"] for span in mine)
        cycles = sum(span.attrs["cycles"] for span in mine)
        insts = sum(span.attrs["instructions"] for span in mine)
        wall = sum(span.duration for span in mine)
        own = sum(index.own[span.id] for span in mine)
        out[f"sim.us_per_tick.{mode}"] = _ratio(own, ticks) * 1e6
        out[f"sim.ticks.{mode}"] = ticks / units
        out[f"sim.skipped_fraction.{mode}"] = _ratio(
            sum(span.attrs["skipped"] for span in mine), cycles)
        out[f"sim.run_s.{mode}"] = wall / units
        out[f"sim.ns_per_inst.{mode}"] = _ratio(wall, insts) * 1e9
    constructs = index.under("sim.construct", root)
    out["sim.construct_ms"] = _ratio(
        sum(span.duration for span in constructs), len(constructs)) * 1e3
    return out


def span_totals(index: SpanIndex, root: str) -> dict:
    """Per-unit totals of the library-call spans under ``root``."""
    units = len(index.units(root)) or 1

    def total(name: str) -> float:
        return sum(span.duration for span in index.under(name, root))

    flows = index.under("analysis.flow", root)
    plans = index.under("experiments.plan", root)
    return {
        "compiler.compile_ms": total("compiler.compile") / units * 1e3,
        "compiler.calls": len(index.under("compiler.compile", root)) / units,
        "workloads.build_ms": total("workloads.build") / units * 1e3,
        "cache.key_ms": total("cache.key") / units * 1e3,
        "cache.get_ms": total("cache.get") / units * 1e3,
        "cache.put_ms": total("cache.put") / units * 1e3,
        "analysis.flow_s": sum(index.own[s.id] for s in flows) / units,
        "experiments.plan_ms": _ratio(
            sum(span.duration for span in plans), len(plans)) * 1e3,
    }


#: Span names the harness opens to structure a run (units, phases);
#: every other span wraps a call into one of the program's layers.
STRUCTURE = ("modes.", "sweep.", "serve.")


def self_seconds(index: SpanIndex, root: str) -> dict:
    """Self time per span name inside the ``root`` units, per unit.
    The structure spans' share is the wall no layer call covers."""
    units = index.units(root)
    inside = units + [
        span for span in index.spans
        if any(a.name == root for a in index.ancestors(span))
    ]
    totals: dict[str, float] = {}
    for span in inside:
        totals[span.name] = totals.get(span.name, 0.0) + index.own[span.id]
    return {name: value / (len(units) or 1)
            for name, value in sorted(totals.items())}


def unattributed(index: SpanIndex, root: str) -> float:
    """Share of the units' wall time that no layer span covers."""
    per_unit = self_seconds(index, root)
    wall = sum(span.duration for span in index.units(root))
    wall /= len(index.units(root)) or 1
    return _ratio(sum(value for name, value in per_unit.items()
                      if name.startswith(STRUCTURE)), wall)


def model_metrics(model: dict) -> dict:
    """``model.*`` from one pass's per-mode SimStats sums (exact)."""
    out = {}
    for mode in MODES:
        sums = model[mode]
        out[f"model.ipc.{mode}"] = _ratio(sums["instructions"],
                                          sums["cycles"])
        out[f"model.throttle_cycles.{mode}"] = sums["throttle_cycles"]
        out[f"model.bank_conflict_cycles.{mode}"] = (
            sums["stall_bank_conflict_cycles"])
        out[f"model.spill_events.{mode}"] = sums["spill_events"]
        out[f"model.fill_events.{mode}"] = sums["fill_events"]
        out[f"model.renaming_reads.{mode}"] = sums["renaming_reads"]
        out[f"model.renaming_writes.{mode}"] = sums["renaming_writes"]
        out[f"model.flag_cache_hit_ratio.{mode}"] = _ratio(
            sums["flag_cache_hits"],
            sums["flag_cache_hits"] + sums["flag_cache_misses"])
    return out


def overhead(traced: list[float], untraced: list[float]) -> float:
    """Relative cost of tracing: median traced / median untraced - 1."""
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


def empty() -> dict:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def for_modes(result, tracer: Tracer) -> dict:
    index = SpanIndex(tracer)
    out = empty()
    out.update(sim_metrics(index, "modes.pass"))
    setup = span_totals(index, "modes.setup")
    for name in ("compiler.compile_ms", "compiler.calls",
                 "workloads.build_ms"):
        out[name] = setup[name]
    steady = [one.wall for one in result.passes]
    out["sim.warmup_s"] = result.warmup.wall - median(steady)
    out.update(model_metrics(result.passes[0].model))
    out["trace.overhead"] = overhead(
        [one.wall for one in result.traced], steady)
    out["trace.unattributed"] = unattributed(index, "modes.pass")
    out["trace.spans"] = len(index.spans)
    return out


def for_sweep(result, tracer: Tracer) -> dict:
    index = SpanIndex(tracer)
    out = empty()
    out.update(sim_metrics(index, "sweep.pair"))
    out.update(span_totals(index, "sweep.pair"))
    pairs = list(zip(result.traced_cold, result.traced_warm))
    for name in ("hits", "misses", "bytes_read", "stores",
                 "bytes_written"):
        out[f"cache.{name}"] = sum(
            getattr(cold.counters, name) + getattr(warm.counters, name)
            for cold, warm in pairs) / len(pairs)
    out["experiments.declared"] = result.traced_cold[-1].declared
    out["experiments.unique"] = result.traced_cold[-1].unique
    replays = index.under("experiments.replay", "sweep.warm")
    out["experiments.replay_s"] = (
        sum(span.duration for span in replays) / len(pairs))
    out["trace.overhead"] = overhead(
        [cold.wall + warm.wall for cold, warm in pairs],
        [median([cold.wall for cold in result.cold])
         + median([warm.wall for warm in result.warm])])
    out["trace.unattributed"] = unattributed(index, "sweep.pair")
    out["trace.spans"] = len(index.spans)
    return out


def for_serve(result, tracer: Tracer, key_s: float,
              direct_s: dict) -> dict:
    """``key_s``: in-process seconds to rebuild and fingerprint one
    request, as the daemon does per hit; ``direct_s``: direct run
    seconds of each flow, by ``flow/workload``."""
    index = SpanIndex(tracer)
    out = empty()
    cycle = result.traced[-1]
    nominal = cycle.nominal
    hits = [s.done - s.sent for s in nominal.samples if s.served == "cache"]
    executed = [s for s in nominal.samples if s.served == "executed"]
    stats = cycle.daemon_stats
    out["service.hit_ms"] = median(hits) * 1e3
    out["service.daemon_p50_ms"] = stats["latency"]["p50"] * 1e3
    out["service.wire_ms"] = (
        out["service.hit_ms"] - out["service.daemon_p50_ms"])
    if executed:
        out["service.exec_ms"] = median(
            [s.done - s.sent for s in executed]) * 1e3
        out["service.queue_ms"] = median([
            s.done - direct_s[f"{s.flow}/{s.workload}"] for s in executed
        ]) * 1e3
    for name in ("executed", "coalesced", "cache_hits"):
        out[f"service.{name}"] = stats[name]
    out["service.dedupe"] = stats["single_flight_dedupe"]
    out["service.late_ms"] = max(nominal.lateness) * 1e3
    out["service.backlog_max"] = max(nominal.backlog)
    out["service.ready_s"] = cycle.ready_s
    for name in ("hits", "misses", "bytes_read", "stores",
                 "bytes_written"):
        out[f"cache.{name}"] = stats["cache"][name]
    out["cache.key_ms"] = key_s * 1e3
    untraced_hits = [
        median([s.done - s.sent for s in one.nominal.samples
                if s.served == "cache"])
        for one in result.cycles
    ]
    out["trace.overhead"] = overhead([median(hits)] if hits else [],
                                     untraced_hits)
    out["trace.unattributed"] = unattributed(index, "serve.cycle")
    out["trace.spans"] = len(index.spans)
    return out
