"""Simulation-as-a-service: async single-flight batch server.

The content-addressed result cache (:mod:`repro.cache`) makes every
simulation a pure, memoizable function; the sweep planner's ``flows``
declarations give every simulation request a canonical ``(flow,
workload, kwargs)`` shape. This package builds the serving layer on
top of both:

* :mod:`repro.service.protocol` — the JSON-lines wire schema:
  requests are planner flow specs by content (workload name + scale +
  kwargs), responses are the full per-field ``SimStats`` payload;
* :mod:`repro.service.daemon` — a long-lived asyncio daemon that
  coalesces duplicate in-flight requests by cache fingerprint
  (**single-flight**: N identical concurrent requests cost one
  simulation), executes misses on a process pool sharing the disk
  cache, and serves live metrics on the ``stats`` endpoint;
* :mod:`repro.service.client` — sync and async clients speaking the
  protocol over a unix socket or local TCP.

Start a server with ``python -m repro.service.daemon``; talk to it
with :class:`~repro.service.client.ServiceClient` (or ``python -m
repro.experiments.runner --submit ADDR``).
"""

from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
    parse_address,
)
from repro.service.protocol import (
    ProtocolError,
    request_to_spec,
    response_payload,
    service_key,
    spec_to_request,
    stats_payload,
)

__all__ = [
    "AsyncServiceClient",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "parse_address",
    "request_to_spec",
    "response_payload",
    "service_key",
    "spec_to_request",
    "stats_payload",
]
