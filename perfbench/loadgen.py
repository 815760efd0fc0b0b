"""The load generator: one asyncio process, at most two connections.

Open loop: requests are due at evenly spaced times, at a fixed offered rate,
whatever the server is doing.  A request waits for a free connection if both are busy, and
its latency is timed from when it was *due*, so a stall is charged to every
request queued behind it.  How late the generator itself sent each request is
recorded separately (``late``).

Closed loop: each connection sends its next request as soon as the previous
answer arrives; the phase reports how long a fixed batch takes.
"""

from __future__ import annotations

import asyncio
import gc
import json
from dataclasses import dataclass, field

#: Responses can carry every group of every trial of a GROUP BY query.
STREAM_LIMIT = 64 * 1024 * 1024


@dataclass
class Outcome:
    request: dict
    due: float  # monotonic seconds; the send time for the closed loop
    done: float
    status: str  # "ok", a server error code, or "timeout"
    line: bytes = field(repr=False, default=b"")  # the raw response

    @property
    def result(self):
        """The response's result, or its error payload for a refusal."""
        if not self.line:
            return None
        response = json.loads(self.line)
        return response["result"] if response.get("ok") else response.get("error")


class Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._reader = self._writer = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=STREAM_LIMIT
        )
        return self

    async def call(self, message: dict, timeout: float) -> tuple[str, bytes]:
        """Send one request; ``(status, raw response line)`` where status is
        "ok", the server's error code, or "timeout" (the connection is then
        reopened and the line is empty)."""
        try:
            self._writer.write(json.dumps(message).encode() + b"\n")
            await self._writer.drain()
            line = await asyncio.wait_for(self._reader.readline(), timeout)
        except asyncio.TimeoutError:
            await self.close()
            await self.open()
            return "timeout", b""
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if response.get("ok"):
            return "ok", line
        return response.get("error", {}).get("code", "internal"), line

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = None


async def _connections(host: str, port: int, count: int) -> list[Connection]:
    return [await Connection(host, port).open() for _ in range(count)]


async def _open_loop(host, port, requests, rate, connections, timeout):
    loop = asyncio.get_running_loop()
    conns = await _connections(host, port, connections)
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    late: list[float] = []
    start = loop.time() + 0.05

    async def dispatch():
        for index, request in enumerate(requests):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - due))
            queue.put_nowait((due, request))
        for _ in conns:
            queue.put_nowait(None)

    async def work(conn):
        while (item := await queue.get()) is not None:
            item_due, request = item
            status, line = await conn.call(request, timeout)
            outcomes.append(Outcome(request, item_due, loop.time(), status, line))

    try:
        await asyncio.gather(dispatch(), *(work(conn) for conn in conns))
    finally:
        for conn in conns:
            await conn.close()
    return outcomes, late, start


async def _closed_loop(host, port, requests, connections, timeout):
    loop = asyncio.get_running_loop()
    conns = await _connections(host, port, connections)
    pending = iter(requests)
    outcomes: list[Outcome] = []

    async def work(conn):
        for request in pending:
            sent = loop.time()
            status, line = await conn.call(request, timeout)
            outcomes.append(Outcome(request, sent, loop.time(), status, line))

    start = loop.time()
    try:
        await asyncio.gather(*(work(conn) for conn in conns))
    finally:
        for conn in conns:
            await conn.close()
    return outcomes, start, loop.time()


def _without_gc(coroutine):
    """Run a timed phase with the cyclic collector paused, so the
    generator's own collections do not show up as server latency."""
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(coroutine)
    finally:
        gc.enable()


def open_loop(host, port, requests, rate, connections=2, timeout=30.0):
    """Run the open-loop phase: ``(outcomes, lateness, start)``."""
    return _without_gc(_open_loop(host, port, requests, rate, connections, timeout))


def closed_loop(host, port, requests, connections=2, timeout=30.0):
    """Run the closed-loop phase: ``(outcomes, start, end)``."""
    return _without_gc(_closed_loop(host, port, requests, connections, timeout))


def send_all(host, port, requests, connections=2, timeout=60.0) -> list[Outcome]:
    """Untimed traffic (the warm-up pass)."""
    return closed_loop(host, port, requests, connections, timeout)[0]


async def _call_one(host, port, message, timeout):
    conn = await Connection(host, port).open()
    try:
        return await conn.call(message, timeout)
    finally:
        await conn.close()


def call(host, port, message, timeout=60.0) -> tuple[str, dict]:
    """One request on a fresh connection (probe, stats, shutdown):
    ``(status, result or error payload)``."""
    status, line = asyncio.run(_call_one(host, port, message, timeout))
    return status, Outcome(message, 0.0, 0.0, status, line).result
