"""Record the expected outputs the benchmark checks against.

Usage (from the root of a checkout)::

    python3 perfbench/record.py

Writes ``perfbench/expected/{modes,serve,sweep}.json``:

* ``modes`` — per-field ``SimStats`` of every (kernel, mode) case;
* ``serve`` — per-field ``SimStats`` of every flow a serve schedule can
  draw, as the daemon's response payload carries them;
* ``sweep`` — each experiment's rendered output.

Everything is computed directly with the result cache off, so the
recorded values never depend on the cache the benchmark exercises.
Engine diagnostics (``ticks_executed``, ``skipped_cycles``) are left
out; the checks ignore them. Run it only when the program's simulated
results are meant to change, and review the diff.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def without_exempt(fields: dict) -> dict:
    from harness.checks import EXEMPT_FIELDS

    return {k: v for k, v in fields.items() if k not in EXEMPT_FIELDS}


def record_modes() -> dict:
    from harness import modes
    from harness.checks import stats_fields

    order = sorted(set(modes.KERNELS) | set(modes.SHRINK_KERNELS))
    return {
        case.key: without_exempt(stats_fields(modes.simulate(case)[1]))
        for case in modes.build_cases(order)
    }


def record_serve() -> dict:
    from repro.analysis.runners import run_flow
    from repro.service import protocol

    from harness import serve

    out = {}
    for flow, workload in serve.HOT + serve.COLD:
        spec = protocol.request_to_spec(serve.request(flow, workload, 0))
        payload = protocol.response_payload(flow, run_flow(spec))
        out[serve.flow_key(flow, workload)] = without_exempt(
            payload["stats"])
    return out


def record_sweep() -> dict:
    from repro.experiments import registry

    from harness import sweep

    return {
        name: registry.get_experiment(name)(**sweep.OPTIONS).render()
        for name in sweep.EXPERIMENTS
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import pin_environment

    pin_environment()
    from repro.cache import ResultCache, swap_cache

    from harness import checks

    swap_cache(ResultCache(enabled=False))
    for name, build in (("modes", record_modes), ("serve", record_serve),
                        ("sweep", record_sweep)):
        payload = build()
        checks.save(name, payload)
        print(f"{name}: {len(payload)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
