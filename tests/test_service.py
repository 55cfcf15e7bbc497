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
  never poison the key or leak a pin;
* flash crowds over a unix socket: waves of identical requests from
  eight connections execute once per flow, with exact counts, while a
  capped disk cache evicts under the cap;
* the daemon keeps serving after an over-long, torn or non-JSON request
  line and after its pool worker dies (idle, or mid-run under a joined
  request), and a client that hangs up does not cancel an execution
  another client joined;
* a spawned daemon whose orderly stop fails is killed with its whole
  process group.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import gc
import multiprocessing.connection
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.runners import run_flow, spec_fingerprint
from repro.arch import GPUConfig
from repro.cache import ResultCache, swap_cache
from repro.cache.store import MISS
from repro.experiments.planner import SweepPlan
from repro.service import protocol
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


def _direct(spec):
    """The response payload of a direct run of ``spec``, cache off."""
    previous = swap_cache(ResultCache(enabled=False))
    try:
        return protocol.response_payload(spec[0], run_flow(spec))
    finally:
        swap_cache(previous)


def _assert_matches_direct(served, direct):
    """The correctness contract: a served payload equals the direct
    uncached run in every SimStats field."""
    for field in ("mode", "ctas_simulated", "cycles", "instructions"):
        assert served[field] == direct[field], field
    for field in dataclasses.fields(SimStats):
        assert (
            served["stats"][field.name] == direct["stats"][field.name]
        ), field.name


def _serve(tmp_path, max_bytes=None):
    """An in-process daemon (one pool worker) on a unix socket, served
    from a daemon thread; returns ``(daemon, address, thread)``."""
    address = str(tmp_path / "svc.sock")
    daemon = SimulationDaemon(
        cache=ResultCache(directory=tmp_path / "cache", max_bytes=max_bytes),
        jobs=1,
    )
    ready = threading.Event()
    thread = threading.Thread(
        target=asyncio.run,
        args=(daemon.run(address, ready=ready.set),),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30)
    return daemon, address, thread


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
        payload = _direct(_spec())
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

    def test_broken_pool_fails_each_waiter_once_and_is_dropped(self):
        class BreakingPool:
            def __init__(self):
                self.future = concurrent.futures.Future()
                self.shut_down = False

            def submit(self, fn, *args):
                return self.future

            def shutdown(self, wait=True, cancel_futures=False):
                self.shut_down = True

        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            pool = daemon._executor = BreakingPool()
            request = protocol.spec_to_request(_spec())
            tasks = [
                asyncio.create_task(daemon.handle_request(dict(request)))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            assert daemon.metrics.coalesced == 2
            pool.future.set_exception(BrokenProcessPool("worker died"))
            responses = await asyncio.gather(*tasks)
            assert [r["ok"] for r in responses] == [False] * 3
            assert all(
                r["error"] == "BrokenProcessPool: worker died"
                for r in responses
            )
            assert daemon.metrics.errors == 3
            # The broken pool is gone; the next miss builds a new one.
            assert daemon._executor is None and pool.shut_down
            assert not daemon._inflight
            assert not daemon.cache.pinned()
            key = protocol.service_key(protocol.request_to_spec(request))
            assert daemon.cache.get(key) is MISS

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
            direct = _direct(spec)

            with ServiceClient.connect(address) as client:
                assert client.ping()["pong"] is True

                first = client.submit(protocol.spec_to_request(spec, id=7))
                assert first["ok"] is True
                assert first["id"] == 7
                assert first["served"] == "executed"
                _assert_matches_direct(first, direct)

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


#: Connections in the flash-crowd test; each wave sends one flow from all.
CROWD = 8


class TestFlashCrowd:
    """Waves of identical requests over a unix socket, as a busy
    dashboard sends them: every connection asks for the same flow at
    once. Each execution is held until its wave's duplicates have
    joined, so coalescing is exact rather than a timing race."""

    def test_waves_coalesce_and_match_direct_runs_under_a_disk_cap(
        self, tmp_path
    ):
        specs = [
            _spec(flow, name)
            for name in ("vectoradd", "gaussian", "scalarprod")
            for flow in ("baseline", "virtualized")
        ]
        direct = [_direct(spec) for spec in specs]
        # The six flows write about 31 KB to the disk cache.
        max_bytes = 16 * 1024
        daemon, address, thread = _serve(tmp_path, max_bytes=max_bytes)
        run_request = daemon._run_request

        async def held(request):
            # Nothing has joined yet: the key went in flight with no
            # await since. Wait for the rest of the wave to join it.
            joined = daemon.metrics.coalesced + CROWD - 1
            deadline = time.monotonic() + 30
            while daemon.metrics.coalesced < joined:
                if time.monotonic() > deadline:
                    raise TimeoutError("the wave never joined")
                await asyncio.sleep(0.001)
            return await run_request(request)

        daemon._run_request = held
        requests = [protocol.spec_to_request(spec) for spec in specs]

        async def drive(rounds):
            clients = [
                await AsyncServiceClient.connect(address)
                for _ in range(CROWD)
            ]
            try:
                return [
                    await asyncio.gather(
                        *(client.submit(request) for client in clients)
                    )
                    for _ in range(rounds)
                    for request in requests
                ]
            finally:
                for client in clients:
                    await client.close()

        try:
            waves = asyncio.run(drive(rounds=2))
            with ServiceClient.connect(address) as client:
                stats = client.stats()
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

        for index, wave in enumerate(waves):
            expected = (
                ["coalesced"] * (CROWD - 1) + ["executed"]
                if index < len(specs) else ["cache"] * CROWD
            )
            assert sorted(r["served"] for r in wave) == expected
            for served in wave:
                _assert_matches_direct(served, direct[index % len(specs)])
        assert stats["executed"] == 6
        assert stats["coalesced"] == 42
        assert stats["cache_hits"] == 48
        assert stats["errors"] == 0
        assert stats["in_flight"] == 0
        assert stats["single_flight_dedupe"] >= 2.0
        assert stats["cache"]["max_bytes"] == max_bytes
        assert stats["cache"]["evictions"] > 0
        assert stats["cache"]["disk_bytes"] <= max_bytes
        assert not daemon.cache.pinned()


class TestFaults:
    """A served daemon survives malformed input and a dead worker."""

    @pytest.mark.parametrize("size", (70_000, 1_000_000))
    def test_oversized_line_gets_an_error_reply(self, tmp_path, size):
        # 70 KB arrives with its newline in one read; 1 MB overruns the
        # buffer before the newline shows up.
        daemon, address, thread = _serve(tmp_path)
        try:
            with ServiceClient.connect(address) as client:
                with pytest.raises(ServiceError, match="longer than"):
                    client.request({"op": "ping", "pad": "x" * size})
                assert client.ping()["pong"] is True
                assert client.stats()["errors"] == 1
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_torn_line_then_eof_keeps_the_daemon_serving(self, tmp_path):
        spec = _spec()
        direct = _direct(spec)
        request = protocol.spec_to_request(spec)
        line = protocol.encode_line(request)
        daemon, address, thread = _serve(tmp_path)
        try:
            with ServiceClient.connect(address) as torn:
                # Half a request, no newline, then end of stream.
                torn._file.write(line[: len(line) // 2])
                torn._file.flush()
                torn._sock.shutdown(socket.SHUT_WR)
                reply = protocol.decode_line(torn._file.readline())
                assert reply["ok"] is False
                assert "undecodable" in reply["error"]
                assert torn._file.readline() == b""
            with ServiceClient.connect(address) as client:
                served = client.submit(request)
                assert served["served"] == "executed"
                _assert_matches_direct(served, direct)
                stats = client.stats()
                assert stats["errors"] == 1
                assert stats["executed"] == 1
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_non_json_line_errors_and_the_connection_serves_on(
        self, tmp_path
    ):
        spec = _spec()
        direct = _direct(spec)
        daemon, address, thread = _serve(tmp_path)
        try:
            with ServiceClient.connect(address) as client:
                client._file.write(b"this is not json\n")
                client._file.flush()
                reply = protocol.decode_line(client._file.readline())
                assert reply["ok"] is False
                assert "undecodable" in reply["error"]
                assert client.ping()["pong"] is True
                served = client.submit(protocol.spec_to_request(spec))
                assert served["served"] == "executed"
                _assert_matches_direct(served, direct)
                assert client.stats()["errors"] == 1
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_pool_kwargs_are_rejected_and_the_connection_serves_on(
        self, tmp_path
    ):
        # A simulation runs on one SM in one process: kwargs that once
        # asked for four SMs on a four-process pool are an error.
        spec = _spec()
        direct = _direct(spec)
        daemon, address, thread = _serve(tmp_path)
        try:
            with ServiceClient.connect(address) as client:
                bad = protocol.spec_to_request(_spec(sim_sms=4, jobs=4))
                client._file.write(protocol.encode_line(bad))
                client._file.flush()
                reply = protocol.decode_line(client._file.readline())
                assert reply["ok"] is False
                assert "sim_sms" in reply["error"]
                served = client.submit(protocol.spec_to_request(spec))
                assert served["served"] == "executed"
                _assert_matches_direct(served, direct)
                stats = client.stats()
                assert stats["errors"] == 1
                assert stats["executed"] == 1
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_zero_waves_is_an_error_and_is_not_cached(self, tmp_path):
        spec = _spec()
        direct = _direct(spec)
        zero = _spec(waves=0)
        daemon, address, thread = _serve(tmp_path)
        try:
            with ServiceClient.connect(address) as client:
                request = protocol.spec_to_request(zero)
                with pytest.raises(ServiceError, match="max_ctas_per_sm_sim"):
                    client.submit(request)
                with pytest.raises(ServiceError, match="max_ctas_per_sm_sim"):
                    client.submit(request)
                served = client.submit(protocol.spec_to_request(spec))
                _assert_matches_direct(served, direct)
                stats = client.stats()
                assert stats["errors"] == 2
                assert stats["cache_hits"] == 0
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert daemon.cache.get(protocol.service_key(zero)) is MISS

    def test_client_disconnect_keeps_a_joined_execution(self, tmp_path):
        # Client A's miss is executing; client B joins it; A hangs up.
        # B must still get the result, and the daemon keeps serving.
        spec = _spec()
        direct = _direct(spec)
        daemon, address, thread = _serve(tmp_path)
        started, release = threading.Event(), threading.Event()
        run_request = daemon._run_request

        async def gated(request):
            started.set()
            await asyncio.get_running_loop().run_in_executor(
                None, release.wait
            )
            return await run_request(request)

        daemon._run_request = gated
        request = protocol.spec_to_request(spec)
        joined = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        try:
            client_a = ServiceClient.connect(address)
            client_a._file.write(protocol.encode_line(request))
            client_a._file.flush()
            assert started.wait(timeout=30)

            def submit_b():
                with ServiceClient.connect(address) as client_b:
                    return client_b.submit(request)

            response_b = joined.submit(submit_b)
            deadline = time.monotonic() + 30
            while daemon.metrics.coalesced < 1:
                assert time.monotonic() < deadline, "B never joined"
                time.sleep(0.01)
            client_a.close()
            time.sleep(0.2)  # let the daemon see A's end of stream
            release.set()

            served = response_b.result(timeout=60)
            assert served["served"] == "coalesced"
            _assert_matches_direct(served, direct)
            with ServiceClient.connect(address) as client:
                again = client.submit(request)
                assert again["served"] == "cache"
                assert again["stats"] == served["stats"]
                stats = client.stats()
                assert stats["executed"] == 1
                assert stats["coalesced"] == 1
                assert stats["errors"] == 0
                assert stats["in_flight"] == 0
                client.shutdown()
        finally:
            release.set()
            joined.shutdown(wait=True)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not daemon.cache.pinned()

    def test_pool_is_rebuilt_after_its_worker_dies(self, tmp_path):
        spec = _spec(name="gaussian")
        direct = _direct(spec)
        daemon, address, thread = _serve(tmp_path)
        try:
            with ServiceClient.connect(address) as client:
                warm = client.submit(protocol.spec_to_request(_spec()))
                assert warm["served"] == "executed"
                (worker,) = daemon._executor._processes.values()
                os.kill(worker.pid, signal.SIGKILL)
                assert multiprocessing.connection.wait(
                    [worker.sentinel], timeout=30
                )
                request = protocol.spec_to_request(spec)
                with pytest.raises(ServiceError, match="BrokenProcessPool"):
                    client.submit(request)
                served = client.submit(request)
                assert served["served"] == "executed"
                _assert_matches_direct(served, direct)
                stats = client.stats()
                assert stats["errors"] == 1
                assert stats["executed"] == 2
                assert stats["in_flight"] == 0
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not daemon.cache.pinned()

    def test_worker_killed_mid_run_fails_a_joined_request_once(
        self, tmp_path
    ):
        # Client A's miss runs on the worker, client B has joined it, and
        # the worker is killed. The flow runs long enough to kill it
        # mid-run: about 0.85 s on a 2-vCPU host, against some 60 ms
        # from the start of the execution to the kill.
        spec = _spec(name="backprop", scale=1.0, waves=8)
        timed = time.monotonic()
        direct = _direct(spec)
        direct_s = time.monotonic() - timed
        daemon, address, thread = _serve(tmp_path)
        started = threading.Event()
        run_request = daemon._run_request

        async def signalled(request):
            started.set()
            return await run_request(request)

        line = protocol.encode_line(protocol.spec_to_request(spec))
        try:
            with ServiceClient.connect(address) as client_a, \
                    ServiceClient.connect(address) as client_b:
                warm = client_a.submit(protocol.spec_to_request(_spec()))
                assert warm["served"] == "executed"
                pool = daemon._executor
                (worker,) = pool._processes.values()
                daemon._run_request = signalled

                client_a._file.write(line)
                client_a._file.flush()
                assert started.wait(timeout=30)
                began = time.monotonic()
                client_b._file.write(line)
                client_b._file.flush()
                deadline = time.monotonic() + 30
                while daemon.metrics.coalesced < 1:
                    assert time.monotonic() < deadline, "B never joined"
                    time.sleep(0.001)
                time.sleep(0.05)  # let the worker take up the call
                os.kill(worker.pid, signal.SIGKILL)
                assert time.monotonic() - began < direct_s / 2, (
                    "the kill must land mid-run"
                )

                for client in (client_a, client_b):
                    reply = protocol.decode_line(client._file.readline())
                    assert reply["ok"] is False
                    assert reply["error"].startswith("BrokenProcessPool")
                stats = client_a.stats()
                assert stats["errors"] == 2
                assert stats["in_flight"] == 0
                assert not daemon.cache.pinned()

                # The next miss runs on a fresh pool.
                served = client_b.submit(protocol.spec_to_request(spec))
                assert served["served"] == "executed"
                _assert_matches_direct(served, direct)
                assert daemon._executor is not pool
                stats = client_b.stats()
                assert stats["executed"] == 2
                assert stats["coalesced"] == 1
                assert stats["errors"] == 2
                assert stats["in_flight"] == 0
                client_b.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not daemon.cache.pinned()


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


def _live_group_members(pgid):
    """Pids of the live (non-zombie) processes in group ``pgid``."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                raw = handle.read()
        except OSError:
            continue
        # Fields after the command name (which may hold spaces or
        # parentheses): state, ppid, pgrp, ...
        state, _ppid, group = raw[raw.rfind(")") + 2:].split()[:3]
        if int(group) == pgid and state not in ("Z", "X"):
            members.append(int(name))
    return members


class TestSpawnedDaemon:
    def test_failed_stop_kills_the_daemon_process_group(self):
        """When the orderly shutdown fails (here: the socket is gone),
        ``SpawnedDaemon.stop`` kills the daemon's whole process group —
        the pool worker that served a miss included — and reaps the
        daemon. The daemon CLI parses its ``--max-bytes`` cap."""
        daemon = SpawnedDaemon(jobs=1, max_bytes="64k")
        pgid = daemon._process.pid
        try:
            with ServiceClient.connect(daemon.address) as client:
                served = client.submit(protocol.spec_to_request(_spec()))
                assert client.stats()["cache"]["max_bytes"] == 65536
            assert served["served"] == "executed"
            assert len(_live_group_members(pgid)) >= 2, "no pool worker"
            os.unlink(daemon.address)
        finally:
            daemon.stop()
        assert daemon._process.returncode is not None
        deadline = time.monotonic() + 5.0
        while _live_group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_group_members(pgid) == []


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
    def test_usage_errors(self, capsys):
        from repro.experiments import runner

        for argv in (
            ["--submit", "y.sock", "--no-cache"],
            ["--submit", "y.sock", "--profile"],
            # The daemon CLI serves; the runner only submits.
            ["--serve", "x.sock", "--no-cache"],
        ):
            with pytest.raises(SystemExit) as exc:
                runner.main(argv)
            assert exc.value.code == 2, argv
        assert "unrecognized arguments: --serve" in capsys.readouterr().err


class TestDaemonCLI:
    def test_negative_jobs_is_a_usage_error(self, tmp_path):
        """``--jobs -1`` exits 2 before binding its socket. A daemon
        that accepted it would serve until killed, hence the subprocess
        and the timeout."""
        address = tmp_path / "d.sock"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.daemon", "--jobs", "-1",
             "--socket", str(address), "--cache-dir", str(tmp_path / "c")],
            env=dict(os.environ), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            _, err = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("the daemon served with --jobs -1")
        assert process.returncode == 2
        assert b"jobs must be >= 0" in err
        assert not address.exists()
