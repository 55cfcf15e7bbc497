"""Wire protocol of the simulation service.

Messages are JSON objects, one per line (newline-delimited), over a
local stream socket. Requests carry an ``op``:

``simulate``
    One planner flow spec by *content*: ``flow`` (a
    :data:`repro.analysis.runners.FLOWS` name), ``workload`` (a Table 1
    benchmark name), ``scale`` (the loop-scale factor the workload is
    built at) and ``kwargs`` (the flow's keyword arguments — JSON
    primitives, plus :class:`~repro.arch.GPUConfig` values encoded as
    tagged field maps). This is exactly the ``(flow, workload,
    kwargs)`` shape experiments declare to the sweep planner, so a
    plan's unique specs convert to requests mechanically
    (:meth:`repro.experiments.planner.SweepPlan.requests`).

``stats``
    Live daemon metrics: request/hit/coalesce/execute counts, latency
    aggregates, in-flight count, and the shared cache's counters and
    disk usage.

``ping`` / ``shutdown``
    Liveness probe / orderly stop.

Responses echo the request ``id`` (when given) and carry ``ok``; a
``simulate`` response's ``stats`` member is the **full per-field
SimStats payload** (:func:`stats_payload`), so a client can assert
bit-identity against a direct :func:`repro.cache.cached_simulate` run
field by field — the service's correctness contract.

A request line may be at most :data:`MAX_LINE_BYTES` long, newline
excluded; a longer one is dropped and answered with an error.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import TYPE_CHECKING

from repro.arch import GPUConfig

if TYPE_CHECKING:  # clients encode requests without loading the simulator
    from repro.sim.stats import SimStats

#: Bump on incompatible wire/schema changes; part of every request and
#: of the daemon's response-cache key.
PROTOCOL_VERSION = 1

#: Longest request line the daemon reads, newline excluded.
MAX_LINE_BYTES = 64 * 1024


class ProtocolError(ValueError):
    """A malformed or unsupported wire message."""


def encode_line(payload: dict) -> bytes:
    """One wire message: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"message must be an object, got {type(payload).__name__}"
        )
    return payload


# ------------------------------------------------------------ kwarg codec
def _encode_value(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, GPUConfig):
        return {
            "__config__": "GPUConfig",
            "fields": {
                f.name: _encode_value(getattr(value, f.name))
                for f in fields(value)
            },
        }
    raise ProtocolError(
        f"cannot encode {type(value).__name__!r} kwarg values; the wire "
        "schema accepts JSON primitives, sequences and GPUConfig"
    )


def _decode_value(value: object) -> object:
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    if isinstance(value, dict):
        if value.get("__config__") != "GPUConfig":
            raise ProtocolError(f"unsupported tagged value: {value!r}")
        raw = value.get("fields")
        if not isinstance(raw, dict):
            raise ProtocolError("GPUConfig encoding lacks 'fields'")
        known = {f.name for f in fields(GPUConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ProtocolError(
                f"unknown GPUConfig fields: {sorted(unknown)}"
            )
        decoded = {}
        for name, field_value in raw.items():
            field_value = _decode_value(field_value)
            if isinstance(field_value, list):
                field_value = tuple(field_value)
            decoded[name] = field_value
        return GPUConfig(**decoded)
    return value


# ------------------------------------------------------------ spec codec
def spec_to_request(spec: tuple, id: object = None) -> dict:
    """Convert one planner flow spec into a ``simulate`` request."""
    from repro.analysis.runners import normalize_spec

    flow, workload, kwargs = normalize_spec(spec)
    request = {
        "op": "simulate",
        "v": PROTOCOL_VERSION,
        "flow": flow,
        "workload": workload.name,
        "scale": workload.scale,
        "kwargs": {name: _encode_value(v) for name, v in kwargs.items()},
    }
    if id is not None:
        request["id"] = id
    return request


def request_to_spec(request: dict) -> tuple:
    """Rebuild the ``(flow, workload, kwargs)`` spec from a request.

    Raises :class:`ProtocolError` on unknown flows/workloads or
    undecodable kwargs, so a bad request becomes an error response
    instead of a daemon crash.
    """
    from repro.analysis.runners import FLOWS
    from repro.errors import ConfigError
    from repro.workloads.suite import get_workload

    flow = request.get("flow")
    if flow not in FLOWS:
        known = ", ".join(FLOWS)
        raise ProtocolError(f"unknown flow {flow!r}; known: {known}")
    name = request.get("workload")
    scale = request.get("scale", 1.0)
    if not isinstance(name, str):
        raise ProtocolError(f"workload must be a name, got {name!r}")
    if not isinstance(scale, (int, float)) or isinstance(scale, bool):
        raise ProtocolError(f"scale must be a number, got {scale!r}")
    try:
        workload = get_workload(name, scale=float(scale))
    except ConfigError as exc:
        raise ProtocolError(str(exc)) from None
    raw_kwargs = request.get("kwargs") or {}
    if not isinstance(raw_kwargs, dict):
        raise ProtocolError(f"kwargs must be an object, got {raw_kwargs!r}")
    kwargs = {name: _decode_value(v) for name, v in raw_kwargs.items()}
    return (flow, workload, kwargs)


def service_key(spec: tuple) -> str:
    """The daemon's response-cache / single-flight fingerprint.

    Joins the normalized spec content with the engine fingerprint (a
    cached response must round-trip every SimStats field of a fresh
    run under the same engine flags) and the protocol version (the
    payload layout is part of what is cached).
    """
    from repro.analysis.runners import normalize_spec
    from repro.cache.fingerprint import engine_fingerprint, fingerprint

    flow, workload, kwargs = normalize_spec(spec)
    return fingerprint(
        "service",
        PROTOCOL_VERSION,
        engine_fingerprint(),
        flow,
        workload,
        kwargs,
    )


# ------------------------------------------------------------ responses
def _jsonable(value: object) -> object:
    """Canonical JSON shape: tuples become lists, recursively."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def stats_payload(stats: SimStats) -> dict:
    """Every :class:`SimStats` field as a JSON-able mapping.

    The canonicalization (tuples → lists) is applied identically to
    served and locally computed stats, so payload equality *is*
    per-field bit-identity.
    """
    from repro.sim.stats import SimStats

    return {
        f.name: _jsonable(getattr(stats, f.name))
        for f in fields(SimStats)
    }


def response_payload(flow: str, result: object) -> dict:
    """The cacheable ``simulate`` response body for one flow result."""
    from repro.analysis.runners import RunArtifacts
    from repro.baselines.compiler_spill import SpillBaselineResult

    if isinstance(result, RunArtifacts):
        sim = result.result
        extra = {}
    elif isinstance(result, SpillBaselineResult):
        sim = result.simulation
        extra = {
            "register_budget": result.register_budget,
            "spilled": result.spilled,
        }
    else:  # pragma: no cover - new flow types must be taught here
        raise ProtocolError(
            f"flow {flow!r} returned unsupported {type(result).__name__}"
        )
    payload = {
        "flow": flow,
        "mode": sim.mode,
        "ctas_simulated": sim.ctas_simulated,
        "cycles": sim.stats.cycles,
        "instructions": sim.stats.instructions,
        "stats": stats_payload(sim.stats),
    }
    payload.update(extra)
    return payload
