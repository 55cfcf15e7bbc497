"""Cross-experiment sweep planner.

Many experiments request overlapping simulations: almost every figure
starts from the same baselines and virtualized runs per workload. When
experiments execute independently — one worker process per experiment —
each process re-simulates the shared flows, and ``--jobs N`` saturates
long before N because the biggest experiment dominates.

The planner inverts that: every selected experiment *declares* the
``(flow, workload, kwargs)`` specs its ``run`` will request (its
``flows(**options)`` function), the planner merges and dedupes the
union by content fingerprint, executes the unique set once through the
worker pool at *simulation granularity*, and absorbs the results into
the process result cache (:mod:`repro.cache`). The experiments then
replay serially: every declared flow is answered from the warm cache,
so each unique simulation runs exactly once per invocation — and not
at all when a shared on-disk cache is already warm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.runners import run_specs, spec_fingerprint
from repro.experiments.registry import get_flows


@dataclass
class SweepPlan:
    """The merged, deduplicated work list for a set of experiments."""

    #: experiment ids that declared flows (in request order)
    planned: list[str] = field(default_factory=list)
    #: experiment ids with no ``flows`` declaration
    unplanned: list[str] = field(default_factory=list)
    #: every declared spec, before dedup
    declared: list[tuple] = field(default_factory=list)
    #: the unique specs actually executed
    unique: list[tuple] = field(default_factory=list)
    #: wall-clock seconds spent executing the unique set
    elapsed: float = 0.0

    @property
    def dedup_ratio(self) -> float:
        """declared / unique — how much work planning removed (>= 1)."""
        if not self.unique:
            return 1.0
        return len(self.declared) / len(self.unique)

    def requests(self) -> list[dict]:
        """The unique specs as service ``simulate`` wire requests.

        Request ``id`` is the spec's position in :attr:`unique`, so
        responses correlate back to specs. This is the bridge between
        ``runner --submit`` and a simulation daemon: a plan's worth of
        flows converts to protocol messages mechanically.
        """
        from repro.service.protocol import spec_to_request

        return [
            spec_to_request(spec, id=index)
            for index, spec in enumerate(self.unique)
        ]

    def describe(self) -> str:
        skipped = (
            f"; no flow declarations: {', '.join(self.unplanned)}"
            if self.unplanned else ""
        )
        return (
            f"plan: {len(self.declared)} declared flows -> "
            f"{len(self.unique)} unique "
            f"(dedup {self.dedup_ratio:.1f}x) across "
            f"{len(self.planned)} experiments{skipped}"
        )


def collect_plan(names: list[str], options: dict) -> SweepPlan:
    """Gather and dedupe the flow specs of the selected experiments."""
    plan = SweepPlan()
    seen: set[str] = set()
    for name in names:
        declare = get_flows(name)
        if declare is None:
            plan.unplanned.append(name)
            continue
        plan.planned.append(name)
        for spec in declare(**options):
            plan.declared.append(spec)
            try:
                key = spec_fingerprint(spec)
            except TypeError:
                plan.unique.append(spec)
                continue
            if key in seen:
                continue
            seen.add(key)
            plan.unique.append(spec)
    return plan


def execute_plan(plan: SweepPlan, jobs: int = 1) -> SweepPlan:
    """Run the plan's unique specs once, warming the result cache.

    :func:`collect_plan` already deduped the specs, so they run as
    they are, without being fingerprinted again. Results land in the
    process cache as a side effect of the cached flows (and of worker
    export absorption when ``jobs > 1``); the caller replays the
    experiments afterwards against the warm cache.
    """
    started = time.time()
    if plan.unique:
        run_specs(plan.unique, jobs=jobs)
    plan.elapsed = time.time() - started
    return plan
