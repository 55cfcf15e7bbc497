"""Sync and async clients for the simulation service.

Both speak the JSON-lines protocol over a unix socket (default) or
local TCP. One connection carries one request at a time (the daemon
answers in order); concurrency comes from opening multiple
connections, which is exactly what the load generator does.

Usage::

    from repro.service import ServiceClient

    with ServiceClient.connect(".repro-service.sock") as client:
        response = client.simulate("virtualized", "matrixmul", scale=1.0)
        print(response["cycles"], response["served"])
        print(client.stats()["single_flight_dedupe"])
"""

from __future__ import annotations

import asyncio
import socket
import time

from repro.service import protocol

#: Default unix-socket path shared by daemon and clients.
DEFAULT_SOCKET = ".repro-service.sock"


class ServiceError(RuntimeError):
    """An error response from the daemon, or a transport failure."""


def parse_address(address: str) -> tuple:
    """``host:port`` / bare port -> TCP; anything else is a socket path."""
    text = str(address).strip()
    if ":" in text:
        host, _, port = text.rpartition(":")
        try:
            return ("tcp", host or "127.0.0.1", int(port))
        except ValueError:
            pass  # a path with a colon in it — treat as unix below
    if text.isdigit():
        return ("tcp", "127.0.0.1", int(text))
    return ("unix", text)


def format_address(address: str) -> str:
    kind, *where = parse_address(address)
    if kind == "tcp":
        return f"tcp://{where[0]}:{where[1]}"
    return f"unix:{where[0]}"


def _check(response: dict) -> dict:
    if not response.get("ok"):
        raise ServiceError(response.get("error") or f"bad response: "
                           f"{response!r}")
    return response


class ServiceClient:
    """Blocking client (plain sockets; no asyncio required)."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._file = sock.makefile("rwb")

    @classmethod
    def connect(cls, address: str = DEFAULT_SOCKET,
                timeout: float | None = 30.0) -> "ServiceClient":
        kind, *where = parse_address(address)
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(where[0])
            except BaseException:
                sock.close()
                raise
        else:
            sock = socket.create_connection(tuple(where), timeout=timeout)
        return cls(sock)

    def request(self, payload: dict) -> dict:
        try:
            self._file.write(protocol.encode_line(payload))
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise ServiceError(f"transport failure: {exc}") from exc
        if not line:
            raise ServiceError("connection closed by daemon")
        return _check(protocol.decode_line(line))

    def simulate(self, flow: str, workload: str, scale: float = 1.0,
                 kwargs: dict | None = None) -> dict:
        return self.request({
            "op": "simulate", "v": protocol.PROTOCOL_VERSION,
            "flow": flow, "workload": workload, "scale": scale,
            "kwargs": kwargs or {},
        })

    def submit(self, request: dict) -> dict:
        """Send an already-encoded ``simulate`` request (wire dict)."""
        return self.request(request)

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class AsyncServiceClient:
    """Asyncio client; one in-flight request per connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(
        cls, address: str = DEFAULT_SOCKET
    ) -> "AsyncServiceClient":
        kind, *where = parse_address(address)
        if kind == "unix":
            reader, writer = await asyncio.open_unix_connection(where[0])
        else:
            reader, writer = await asyncio.open_connection(*where)
        return cls(reader, writer)

    async def request(self, payload: dict) -> dict:
        async with self._lock:
            self._writer.write(protocol.encode_line(payload))
            await self._writer.drain()
            line = await self._reader.readline()
        if not line:
            raise ServiceError("connection closed by daemon")
        return _check(protocol.decode_line(line))

    async def simulate(self, flow: str, workload: str, scale: float = 1.0,
                       kwargs: dict | None = None) -> dict:
        return await self.request({
            "op": "simulate", "v": protocol.PROTOCOL_VERSION,
            "flow": flow, "workload": workload, "scale": scale,
            "kwargs": kwargs or {},
        })

    async def submit(self, request: dict) -> dict:
        return await self.request(request)

    async def stats(self) -> dict:
        return await self.request({"op": "stats"})

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})

    async def shutdown(self) -> dict:
        return await self.request({"op": "shutdown"})

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def wait_until_ready(address: str, timeout: float = 30.0,
                     interval: float = 0.1) -> None:
    """Block until a daemon answers ``ping`` at ``address`` (or raise)."""
    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            client = ServiceClient.connect(address, timeout=interval * 10)
            try:
                client.ping()
                return
            finally:
                client.close()
        except (OSError, ServiceError) as exc:
            last_error = exc
            time.sleep(interval)
    raise ServiceError(
        f"no daemon answering at {format_address(address)} within "
        f"{timeout:.0f}s: {last_error}"
    )


def submit_requests(
    address: str, requests: list[dict], connections: int = 8
) -> list[dict]:
    """Send encoded ``simulate`` requests to a daemon, concurrently;
    responses in input order. The building block of ``runner
    --submit`` (which feeds it ``SweepPlan.requests()``)."""

    async def _run() -> list[dict]:
        count = max(1, min(connections, len(requests)))
        clients: list[AsyncServiceClient] = []
        results: list[dict | None] = [None] * len(requests)

        async def drain(client: AsyncServiceClient, indices: list[int]):
            for index in indices:
                results[index] = await client.submit(requests[index])

        try:
            for _ in range(count):
                clients.append(await AsyncServiceClient.connect(address))
            await asyncio.gather(*(
                drain(client, list(range(i, len(requests), count)))
                for i, client in enumerate(clients)
            ))
        finally:
            for client in clients:
                await client.close()
        return [response for response in results if response is not None]

    return asyncio.run(_run())


def submit_specs(
    address: str, specs: list[tuple], connections: int = 8
) -> list[dict]:
    """Send planner flow specs to a daemon; responses in input order."""
    return submit_requests(
        address,
        [
            protocol.spec_to_request(spec, id=index)
            for index, spec in enumerate(specs)
        ],
        connections=connections,
    )
