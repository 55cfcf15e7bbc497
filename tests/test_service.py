"""Simulation service: wire protocol, single-flight daemon, clients.

The serving contract under test:

* the protocol round-trips planner flow specs by *content* — a spec
  rebuilt from its wire form fingerprints identically, so the daemon
  caches and coalesces exactly what the sweep planner would dedupe;
* single-flight: K identical concurrent requests execute one
  simulation and all K receive identical responses (and a later
  repeat is a response-cache hit);
* served responses are bit-identical per ``SimStats`` field to a
  direct uncached run — the service may never change an answer;
* failures propagate to every coalesced waiter as error responses and
  never poison the key or leak a pin.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import threading
import warnings

import pytest

from repro.analysis.runners import run_flow, spec_fingerprint
from repro.arch import GPUConfig
from repro.cache import ResultCache, swap_cache
from repro.experiments.planner import SweepPlan
from repro.service import loadgen, protocol
from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
    format_address,
    parse_address,
    submit_requests,
    wait_until_ready,
)
from repro.service.daemon import SimulationDaemon, serve
from repro.sim.stats import SimStats
from repro.workloads.suite import get_workload


def _spec(flow="baseline", name="vectoradd", scale=0.25, **kwargs):
    kwargs.setdefault("waves", 1)
    return (flow, get_workload(name, scale=scale), kwargs)


class TestProtocol:
    def test_spec_round_trip_preserves_fingerprint(self):
        spec = _spec()
        request = protocol.spec_to_request(spec, id=3)
        assert request["op"] == "simulate"
        assert request["id"] == 3
        assert request["v"] == protocol.PROTOCOL_VERSION
        rebuilt = protocol.request_to_spec(request)
        assert rebuilt[1] == spec[1]
        assert spec_fingerprint(rebuilt) == spec_fingerprint(spec)

    def test_round_trip_with_config_kwarg(self):
        config = GPUConfig.shrunk(0.5)
        spec = _spec("virtualized", config=config)
        request = protocol.spec_to_request(spec)
        # The wire form must be pure JSON (encode_line would raise on
        # anything json.dumps cannot serialize).
        line = protocol.encode_line(request)
        rebuilt = protocol.request_to_spec(protocol.decode_line(line))
        assert rebuilt[2]["config"] == config
        assert spec_fingerprint(rebuilt) == spec_fingerprint(spec)

    def test_scale_is_part_of_the_wire_identity(self):
        a = protocol.spec_to_request(_spec(scale=0.25))
        b = protocol.spec_to_request(_spec(scale=0.5))
        assert a["scale"] != b["scale"]
        assert spec_fingerprint(
            protocol.request_to_spec(a)
        ) != spec_fingerprint(protocol.request_to_spec(b))

    def test_decode_line_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"{not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"[1, 2]\n")

    def test_request_to_spec_rejects_bad_requests(self):
        good = protocol.spec_to_request(_spec())
        for broken in (
            dict(good, flow="nope"),
            dict(good, workload="not-a-workload"),
            dict(good, workload=7),
            dict(good, scale="big"),
            dict(good, kwargs=[1, 2]),
            dict(good, kwargs={"x": {"__config__": "Other"}}),
            dict(good, kwargs={"config": {
                "__config__": "GPUConfig",
                "fields": {"no_such_field": 1},
            }}),
        ):
            with pytest.raises(protocol.ProtocolError):
                protocol.request_to_spec(broken)

    def test_encode_rejects_opaque_kwarg_values(self):
        class Opaque:
            pass

        with pytest.raises(protocol.ProtocolError):
            protocol.spec_to_request(_spec(extra=Opaque()))

    def test_service_key_normalizes_and_discriminates(self):
        workload = get_workload("vectoradd", scale=0.25)
        implicit = ("baseline", workload, {"waves": 1})
        explicit = (
            "baseline", workload,
            {"waves": 1, "config": GPUConfig.baseline()},
        )
        assert protocol.service_key(implicit) == protocol.service_key(
            explicit
        )
        assert protocol.service_key(implicit) != protocol.service_key(
            ("virtualized", workload, {"waves": 1})
        )

    def test_service_key_tracks_engine_flags(self, monkeypatch):
        spec = _spec()
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "1")
        with_skip = protocol.service_key(spec)
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "0")
        assert protocol.service_key(spec) != with_skip

    def test_stats_payload_covers_every_field(self):
        stats = SimStats(cycles=7)
        payload = protocol.stats_payload(stats)
        assert set(payload) == {
            f.name for f in dataclasses.fields(SimStats)
        }
        assert payload["cycles"] == 7

    def test_response_payload_for_a_flow_result(self):
        spec = _spec()
        previous = swap_cache(ResultCache(enabled=False))
        try:
            payload = protocol.response_payload("baseline", run_flow(spec))
        finally:
            swap_cache(previous)
        assert payload["flow"] == "baseline"
        assert payload["mode"] == "baseline"
        assert payload["cycles"] == payload["stats"]["cycles"] > 0
        # Must already be wire-clean.
        protocol.encode_line(payload)


class TestAddresses:
    def test_parse_address_shapes(self):
        assert parse_address("host:9001") == ("tcp", "host", 9001)
        assert parse_address(":9001") == ("tcp", "127.0.0.1", 9001)
        assert parse_address("9001") == ("tcp", "127.0.0.1", 9001)
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("svc.sock") == ("unix", "svc.sock")
        # A colon that is not a port falls back to a unix path.
        assert parse_address("dir:name.sock")[0] == "unix"

    def test_format_address(self):
        assert format_address(":9001") == "tcp://127.0.0.1:9001"
        assert format_address("svc.sock") == "unix:svc.sock"


class TestClientCleanup:
    def test_failed_unix_connect_closes_its_socket(self, tmp_path):
        missing = str(tmp_path / "absent.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                ServiceClient.connect(missing, timeout=1.0)
            gc.collect()
        leaks = [w for w in caught if w.category is ResourceWarning]
        assert not leaks, [str(w.message) for w in leaks]

    def test_submit_closes_opened_clients_when_a_connect_fails(
        self, monkeypatch
    ):
        opened, closed = [], []

        class Opened:
            async def close(self):
                closed.append(self)

        async def connect(address):
            if len(opened) == 2:
                raise ConnectionRefusedError("third connection refused")
            opened.append(Opened())
            return opened[-1]

        monkeypatch.setattr(
            AsyncServiceClient, "connect", staticmethod(connect)
        )
        with pytest.raises(ConnectionRefusedError):
            submit_requests("unused.sock", [{}] * 4, connections=4)
        assert len(opened) == 2 and closed == opened


class TestSingleFlight:
    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            release = asyncio.Event()
            calls = 0

            async def fake_run(request):
                nonlocal calls
                calls += 1
                await release.wait()
                return {"flow": request["flow"], "cycles": 123}

            daemon._run_request = fake_run
            request = protocol.spec_to_request(_spec())
            tasks = [
                asyncio.create_task(daemon._simulate(dict(request)))
                for _ in range(6)
            ]
            await asyncio.sleep(0)  # everyone reaches the in-flight map
            release.set()
            responses = await asyncio.gather(*tasks)

            assert calls == 1
            assert daemon.metrics.executed == 1
            assert daemon.metrics.coalesced == 5
            labels = sorted(r["served"] for r in responses)
            assert labels == ["coalesced"] * 5 + ["executed"]
            bodies = [
                {k: v for k, v in r.items() if k != "served"}
                for r in responses
            ]
            assert all(body == bodies[0] for body in bodies)

            # A later repeat is a response-cache hit, still 1 execution.
            again = await daemon._simulate(dict(request))
            assert again["served"] == "cache"
            assert daemon.metrics.cache_hits == 1
            assert calls == 1
            assert not daemon._inflight
            assert not daemon.cache.pinned()

        asyncio.run(scenario())

    def test_inflight_key_is_pinned_during_execution(self):
        async def scenario():
            cache = ResultCache()
            daemon = SimulationDaemon(cache=cache, jobs=1)
            observed = {}

            async def fake_run(request):
                observed["pins"] = set(cache.pinned())
                return {"cycles": 1}

            daemon._run_request = fake_run
            request = protocol.spec_to_request(_spec())
            await daemon._simulate(request)
            key = protocol.service_key(protocol.request_to_spec(request))
            assert observed["pins"] == {key}
            assert not cache.pinned()

        asyncio.run(scenario())

    def test_failure_propagates_to_every_waiter(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            release = asyncio.Event()

            async def fail(request):
                await release.wait()
                raise RuntimeError("boom")

            daemon._run_request = fail
            request = protocol.spec_to_request(_spec())
            tasks = [
                asyncio.create_task(daemon.handle_request(dict(request)))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            release.set()
            responses = await asyncio.gather(*tasks)
            assert [r["ok"] for r in responses] == [False] * 3
            assert all("boom" in r["error"] for r in responses)
            assert daemon.metrics.errors == 3
            # The failure neither caches nor poisons: state is clean.
            assert not daemon._inflight
            assert not daemon.cache.pinned()
            assert daemon.metrics.executed == 0

        asyncio.run(scenario())

    def test_distinct_requests_do_not_coalesce(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            release = asyncio.Event()
            calls = 0

            async def fake_run(request):
                nonlocal calls
                calls += 1
                await release.wait()
                return {"workload": request["workload"]}

            daemon._run_request = fake_run
            first = protocol.spec_to_request(_spec(name="vectoradd"))
            second = protocol.spec_to_request(_spec(name="gaussian"))
            tasks = [
                asyncio.create_task(daemon._simulate(first)),
                asyncio.create_task(daemon._simulate(second)),
            ]
            await asyncio.sleep(0)
            release.set()
            responses = await asyncio.gather(*tasks)
            assert calls == 2
            assert daemon.metrics.coalesced == 0
            assert responses[0]["workload"] == "vectoradd"
            assert responses[1]["workload"] == "gaussian"

        asyncio.run(scenario())

    def test_bad_requests_become_error_responses(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            response = await daemon.handle_request(
                {"op": "simulate", "flow": "nope", "workload": "x",
                 "id": 9}
            )
            assert response["ok"] is False
            assert response["id"] == 9
            assert "nope" in response["error"]
            unknown = await daemon.handle_request({"op": "dance"})
            assert unknown["ok"] is False
            assert daemon.metrics.errors == 2

        asyncio.run(scenario())


class TestEndToEnd:
    def test_unix_socket_serving_matches_direct_run(self, tmp_path):
        address = str(tmp_path / "svc.sock")
        cache = ResultCache(directory=tmp_path / "cache")
        ready = threading.Event()
        thread = threading.Thread(
            target=serve,
            kwargs=dict(
                address=address, cache=cache, jobs=1, ready=ready.set
            ),
            daemon=True,
        )
        thread.start()
        try:
            assert ready.wait(timeout=30)
            wait_until_ready(address, timeout=30)
            spec = _spec()
            previous = swap_cache(ResultCache(enabled=False))
            try:
                direct = protocol.response_payload(
                    "baseline", run_flow(spec)
                )
            finally:
                swap_cache(previous)

            with ServiceClient.connect(address) as client:
                assert client.ping()["pong"] is True

                first = client.submit(protocol.spec_to_request(spec, id=7))
                assert first["ok"] is True
                assert first["id"] == 7
                assert first["served"] == "executed"
                # The correctness contract: every SimStats field of the
                # served payload equals the direct uncached run's.
                for field in dataclasses.fields(SimStats):
                    assert (
                        first["stats"][field.name]
                        == direct["stats"][field.name]
                    ), field.name
                for field in ("mode", "ctas_simulated", "cycles",
                              "instructions"):
                    assert first[field] == direct[field]

                second = client.submit(protocol.spec_to_request(spec))
                assert second["served"] == "cache"
                strip = lambda r: {  # noqa: E731
                    k: v for k, v in r.items()
                    if k not in ("served", "id")
                }
                assert strip(second) == strip(first)

                stats = client.stats()
                assert stats["executed"] == 1
                assert stats["cache_hits"] == 1
                assert stats["in_flight"] == 0
                assert stats["single_flight_dedupe"] == 1.0
                assert stats["cache"]["directory"] is not None
                assert stats["latency"]["count"] >= 3

                # A bad request errors the response, not the connection.
                with pytest.raises(ServiceError):
                    client.submit(
                        {"op": "simulate", "flow": "nope",
                         "workload": "vectoradd"}
                    )
                assert client.ping()["pong"] is True
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()


class TestLoadgen:
    def test_build_mix_is_deterministic_and_exact(self):
        universe = [("baseline", i) for i in range(32)]
        flows, counts = loadgen.build_mix(
            universe, requests=60, unique=20, zipf_s=1.1, seed=7
        )
        again = loadgen.build_mix(
            universe, requests=60, unique=20, zipf_s=1.1, seed=7
        )
        assert (flows, counts) == again
        assert len(flows) == 20
        assert len(set(map(tuple, flows))) == 20
        assert sum(counts) == 60
        assert all(count >= 1 for count in counts)

    def test_build_mix_validates_bounds(self):
        universe = [("baseline", i) for i in range(4)]
        with pytest.raises(ValueError):
            loadgen.build_mix(universe, 10, 5, 1.1, 0)
        with pytest.raises(ValueError):
            loadgen.build_mix(universe, 2, 4, 1.1, 0)

    def test_build_waves_packs_flash_crowds(self):
        counts = [10, 3, 2, 1]
        waves = loadgen.build_waves(counts, clients=8)
        dispatched = [0] * len(counts)
        for wave in waves:
            assert 0 < len(wave) <= 8
            for flow in wave:
                dispatched[flow] += 1
        assert dispatched == counts
        # The hottest flow floods the first wave — the flash crowd the
        # daemon must absorb with one execution.
        assert waves[0] == [0] * 8

    def test_gate_load(self):
        record = {
            "single_flight_dedupe": 3.0, "verified": True,
            "mismatches": 0, "throughput_speedup": 6.0,
        }
        assert loadgen.gate_load(record) == []
        assert loadgen.gate_load(dict(record, single_flight_dedupe=1.2))
        assert loadgen.gate_load(dict(record, mismatches=2))
        assert loadgen.gate_load(dict(record, verified=False))
        assert loadgen.gate_load(record, speedup_floor=8.0)

    def test_diff_fields_pinpoints_mismatches(self):
        served = {"mode": "baseline", "stats": {"cycles": 2, "x": 1}}
        direct = {"mode": "baseline", "stats": {"cycles": 2, "x": 1}}
        assert loadgen._diff_fields(served, direct) == []
        assert loadgen._diff_fields(
            dict(served, stats={"cycles": 3, "x": 1}), direct
        ) == ["stats.cycles"]
        assert loadgen._diff_fields(
            dict(served, mode="flags"), direct
        ) == ["mode"]

    def test_flow_universe_is_wire_encodable(self):
        specs = loadgen.flow_universe(scale=0.25, waves=1)
        assert len(specs) == 32
        for spec in specs[:4]:
            protocol.encode_line(protocol.spec_to_request(spec))


class TestPlannerRequests:
    def test_plan_requests_are_wire_forms_of_unique_specs(self):
        plan = SweepPlan(unique=[_spec(), _spec("virtualized")])
        requests = plan.requests()
        assert [r["id"] for r in requests] == [0, 1]
        for request, spec in zip(requests, plan.unique):
            assert spec_fingerprint(
                protocol.request_to_spec(request)
            ) == spec_fingerprint(spec)


class TestRunnerCLI:
    def test_serve_flag_conflicts(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--serve", "x.sock", "--submit", "y.sock"])
        with pytest.raises(SystemExit):
            runner.main(["--serve", "x.sock", "fig10"])
        with pytest.raises(SystemExit):
            runner.main(["--serve", "x.sock", "--no-cache"])
        with pytest.raises(SystemExit):
            runner.main(["--submit", "y.sock", "--no-cache"])
        with pytest.raises(SystemExit):
            runner.main(["--submit", "y.sock", "--profile"])
