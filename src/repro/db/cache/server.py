"""The out-of-process persistent cache server.

One :class:`CacheServer` holds a bounded :class:`CacheStore` of encoded
cache entries — addressed by the canonical key bytes of
:func:`repro.db.cache.wire.encode_key` and evicted by the same
:class:`~repro.db.cache.local.UtilityCache` policy as every L1 — and serves
them to any number of :class:`~repro.db.cache.remote.RemoteCacheBackend`
clients over the length-prefixed binary frame protocol of
:mod:`repro.db.cache.wire`.  Because keys are content-fingerprint namespaced
(:mod:`repro.db.cache.fingerprints`), processes that never forked from each
other — a batch evaluation run today, a serving process tomorrow — address
the same entries for the same logical database, which is what lets a batch
run warm the online server's cubes and exact answers (and vice versa).

The server never decodes a value: it is a byte store.  All interpretation
(array framing, freezing, promotion into an L1) happens in the client, so a
misbehaving payload can harm only the client that wrote it.  Store
operations — including the write-through sqlite persistence — run
synchronously on the event loop: entries are artefact-sized (KBs) and the
writes are single-row, so a round-trip costs microseconds-to-milliseconds;
a deployment pushing enough concurrent writers for that to head-of-line
block readers should revisit this with an executor or write batching.

Persistence is optional (``--path``): entries are written through to a
sqlite file as they arrive and loaded back at startup, so a restarted server
begins warm.  A corrupted or truncated file — or one a protocol-v1 server
wrote, without access metadata — is moved aside with a warning and the
server starts empty — persistence is an optimisation, never a
correctness dependency (exactly like every other cache tier in this
repository).

Run it standalone::

    python -m repro.db.cache.server --path cache.db --port 8643

or embedded on a background thread via :class:`CacheServerThread` (tests,
benchmarks, and ``--cache-backend remote --cache-path FILE``, the form a
run's forked workers share).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sqlite3
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.db.cache.backend import DEFAULT_EVICTION_POLICY, EVICTION_POLICIES
from repro.db.cache.local import UtilityCache
from repro.db.cache.wire import key_from_header, read_frame_async, write_frame_async
from repro.obs.metrics import render_prometheus, unified_snapshot
from repro.obs.trace import record_span

__all__ = ["CacheServer", "CacheServerThread", "CacheStore", "main"]

#: Bumped when the persistence schema or the op set changes incompatibly.
#: v2 added cost/size metadata on ``put`` and the byte-budget counters (a put
#: without a cost is still valid); v3 dropped the ``warm`` miss-log op.  The
#: ``telemetry`` op and the optional ``trace`` header field on get/put are
#: backward-compatible additions (servers that predate them ignore them).
SERVER_PROTOCOL = 3


# ----------------------------------------------------------------------
# the store: the L1 eviction policy, optionally written through to sqlite
# ----------------------------------------------------------------------
class CacheStore(UtilityCache):
    """Byte entries addressed by ``(namespace, region, key bytes)``.

    The entries live in a :class:`~repro.db.cache.local.UtilityCache` keyed
    by address — the eviction implementation every bounded L1 region uses,
    so ``policy="cost"`` evicts the lowest cost-normalized utility first and
    ``policy="lru"`` the least recently used, past ``max_entries`` *or*
    ``max_bytes``.  This class adds the server's counters and, with a
    ``path``, sqlite write-through: every put and eviction is written to a
    table that is loaded back on construction with each entry's access
    metadata, so a restarted server evicts in exactly the order the old one
    would have.  Eviction deletes from both tiers, so the disk file never
    outgrows the memory bound.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        max_entries: int = 4096,
        max_bytes: Optional[int] = None,
        policy: str = DEFAULT_EVICTION_POLICY,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        super().__init__(max_entries, max_bytes, policy)
        self.path = Path(path) if path is not None else None
        self._conn: Optional[sqlite3.Connection] = None
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.rejected_puts = 0
        self.loaded_from_disk = 0
        if self.path is not None:
            self._open_persistence()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _open_persistence(self) -> None:
        """Open (or recover) the sqlite file and load its entries.

        Any :class:`sqlite3.Error` while opening or loading — or a row
        without access metadata — means the file is corrupt, truncated or
        from an incompatible server: it is moved aside (``<path>.corrupt``)
        with a warning and a fresh empty file replaces it — the server must
        start, cold, rather than crash on a bad disk state.  If even a fresh
        file cannot be opened (unwritable directory), the store continues
        memory-only with a second warning; persistence is never worth a
        startup crash.
        """
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # an unreachable parent is reported by the connect below
        stored_clock = 0.0
        try:
            self._conn = self._connect()
            # Each row carries its access sequence and priority, so the
            # restored store evicts in the order the previous server would
            # have — a warm restart must not turn the first eviction pass
            # into a random purge.
            entries = [
                ((namespace, region, bytes(key)), bytes(value), cost,
                 int(freq), int(last_access), float(priority))
                for namespace, region, key, value, cost, freq, last_access, priority
                in self._conn.execute(
                    "SELECT namespace, region, key, value, cost, freq, last_access,"
                    " priority FROM cache_entries"
                )
            ]
            meta_row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'clock'"
            ).fetchone()
            if meta_row is not None:
                stored_clock = float(meta_row[0])
        except (sqlite3.Error, TypeError, ValueError) as error:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None
            quarantine = self.path.with_suffix(self.path.suffix + ".corrupt")
            try:
                self.path.replace(quarantine)
                where = f"moved aside to {quarantine}"
            except OSError:
                where = "left in place"
            # A crash can leave -wal/-shm sidecars behind; a stale WAL next
            # to a *fresh* database file would be replayed (or refused) at
            # the recovery connect, so drop the sidecars with the body.
            for suffix in ("-wal", "-shm"):
                sidecar = Path(str(self.path) + suffix)
                try:
                    sidecar.unlink()
                except OSError:
                    pass
            warnings.warn(
                f"cache persistence file {self.path} is unreadable ({error}); "
                f"{where}, starting with an empty cache",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                self._conn = self._connect()
            except sqlite3.Error as fresh_error:
                warnings.warn(
                    f"cannot create a fresh persistence file at {self.path} "
                    f"({fresh_error}); continuing memory-only",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._conn = None
                self.path = None
            entries = []
        # A file written under a larger bound still honours this server's.
        evicted = self.restore(entries, stored_clock)
        self.loaded_from_disk = len(entries)
        self._evicted(evicted)

    def _connect(self) -> sqlite3.Connection:
        # The store may be built on one thread (CacheServerThread.__init__)
        # and used on another (the event loop); only one thread ever touches
        # it at a time, so the same-thread guard is safely waived.
        conn = sqlite3.connect(self.path, isolation_level=None, check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS cache_entries ("
            " namespace TEXT NOT NULL,"
            " region TEXT NOT NULL,"
            " key BLOB NOT NULL,"
            " value BLOB NOT NULL,"
            " cost REAL,"
            " nbytes INTEGER,"
            " freq INTEGER,"
            " last_access INTEGER,"
            " priority REAL,"
            " PRIMARY KEY (namespace, region, key))"
        )
        conn.execute("CREATE TABLE IF NOT EXISTS store_meta (key TEXT PRIMARY KEY, value TEXT)")
        return conn

    def flush_metadata(self) -> None:
        """Write the in-memory access metadata (frequency, recency, priority,
        clock) through to sqlite.  Puts and evictions persist row state as
        they happen; the per-``get`` freshening is memory-only until this
        flush (called on close), so a hard kill loses at most recency — never
        an entry."""
        if self._conn is None:
            return
        try:
            self._conn.executemany(
                "UPDATE cache_entries SET cost = ?, nbytes = ?, freq = ?,"
                " last_access = ?, priority = ?"
                " WHERE namespace = ? AND region = ? AND key = ?",
                [(*self.metadata(address), *address) for address in self._data],
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO store_meta (key, value) VALUES ('clock', ?)",
                (repr(self._clock),),
            )
        except sqlite3.Error:  # pragma: no cover - disk died mid-run
            pass

    def close(self) -> None:
        if self._conn is not None:
            self.flush_metadata()
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - nothing left to save
                pass
            self._conn = None

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def get(self, namespace: str, region: str, key: bytes) -> Optional[bytes]:
        value = super().get((namespace, region, key))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def entry_cost(self, namespace: str, region: str, key: bytes) -> Optional[float]:
        return self.cost((namespace, region, key))

    def put(
        self,
        namespace: str,
        region: str,
        key: bytes,
        value: bytes,
        cost: Optional[float] = None,
    ) -> bool:
        """Store ``value``; returns ``False`` when the byte budget refuses it
        (a payload larger than the whole budget is never admitted)."""
        address = (namespace, region, key)
        evicted = super().put(address, value, cost)
        if evicted is None:
            self.rejected_puts += 1
            return False
        self.puts += 1
        metadata = self.metadata(address)  # None: the entry was its own victim
        if self._conn is not None and metadata is not None:
            self._conn.execute(
                "INSERT OR REPLACE INTO cache_entries"
                " (namespace, region, key, value, cost, nbytes, freq, last_access, priority)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (namespace, region, key, value, *metadata),
            )
        self._evicted(evicted)
        return True

    def _evicted(self, addresses: list) -> None:
        """Count evictions and delete the evicted rows from disk too."""
        self.evictions += len(addresses)
        if self._conn is not None and addresses:
            self._conn.executemany(
                "DELETE FROM cache_entries WHERE namespace = ? AND region = ? AND key = ?",
                addresses,
            )

    def clear(self, namespace: Optional[str] = None) -> int:
        """Drop a namespace (or everything); a full clear also zeroes the
        counters — the cross-backend contract for ``clear()``."""
        if namespace is None:
            removed = len(self._data)
            super().clear()
            if self._conn is not None:
                self._conn.execute("DELETE FROM cache_entries")
            self.reset_stats()
            return removed
        stale = [address for address in self._data if address[0] == namespace]
        for address in stale:
            self._discard(address)
        if self._conn is not None:
            self._conn.execute("DELETE FROM cache_entries WHERE namespace = ?", (namespace,))
        return len(stale)

    def entry_count(self, namespace: Optional[str] = None) -> int:
        if namespace is None:
            return len(self._data)
        return sum(1 for address in self._data if address[0] == namespace)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "rejected_puts": self.rejected_puts,
            "entries": len(self._data),
            "bytes_stored": self.nbytes,
            "max_bytes": self.max_bytes,
            "policy": self.policy,
            "loaded_from_disk": self.loaded_from_disk,
            "persisted": self.path is not None,
        }

    def reset_stats(self) -> None:
        self.hits = self.misses = self.puts = self.evictions = self.rejected_puts = 0


# ----------------------------------------------------------------------
# the asyncio server
# ----------------------------------------------------------------------
class CacheServer:
    """Serve a :class:`CacheStore` over length-prefixed binary frames."""

    def __init__(
        self,
        store: Optional[CacheStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
        max_entries: int = 4096,
        max_bytes: Optional[int] = None,
        policy: str = DEFAULT_EVICTION_POLICY,
    ):
        if store is None:
            store = CacheStore(path=path, max_entries=max_entries, max_bytes=max_bytes, policy=policy)
        self.store = store
        self.host = host
        self.port = port  # 0 = ephemeral; replaced with the bound port on start
        self.bytes_received = 0
        self.bytes_sent = 0
        self.requests_served = 0
        self._started_at = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._busy: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self.drain_timeout = 5.0

    # ------------------------------------------------------------------
    # lifecycle (mirrors repro.serving.server.QueryServer)
    # ------------------------------------------------------------------
    async def start(self) -> "CacheServer":
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                installed.append(signum)
            except (ValueError, NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        try:
            await self._shutdown.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting and drain: a connection whose request has been
        read gets its response written (up to ``drain_timeout``) before the
        transport closes — a shutdown must never eat an answered frame."""
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers - self._busy):
            writer.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        while self._busy and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        # Let the per-connection handlers observe their closed transports and
        # finish, so the loop never tears down a still-pending task.
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self.store.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._writers.add(writer)
        try:
            while True:
                try:
                    header, payload, frame_size = await read_frame_async(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # client went away (cleanly or not)
                except ValueError as error:
                    # A garbage length prefix or non-object header cannot be
                    # resynchronised: answer structurally, drop the link.
                    try:
                        self.bytes_sent += await write_frame_async(
                            writer, {"ok": False, "error": f"bad frame: {error}"}
                        )
                    except ConnectionError:
                        pass
                    break
                self.bytes_received += frame_size
                # Busy while a read frame awaits its response, so a graceful
                # shutdown drains this write instead of cutting it.
                self._busy.add(writer)
                try:
                    response, out_payload, stop_after = self._dispatch(header, payload)
                    try:
                        self.bytes_sent += await write_frame_async(writer, response, out_payload)
                    except ConnectionError:
                        break
                finally:
                    self._busy.discard(writer)
                if stop_after:
                    self.request_shutdown()
                    break
        except asyncio.CancelledError:
            pass  # shutdown cancelled this connection mid-read
        finally:
            self._writers.discard(writer)
            writer.close()

    def _dispatch(self, header: dict, payload: bytes) -> Tuple[dict, bytes, bool]:
        try:
            return self._dispatch_op(header, payload)
        except Exception as error:  # never a traceback on the wire
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}, b"", False

    def _dispatch_op(self, header: dict, payload: bytes) -> Tuple[dict, bytes, bool]:
        op = header.get("op")
        self.requests_served += 1
        if op == "ping":
            return (
                {
                    "ok": True,
                    "server": "repro-cache-server",
                    "protocol": SERVER_PROTOCOL,
                    "entries": self.store.entry_count(),
                    "persisted": self.store.path is not None,
                    "uptime_s": round(time.monotonic() - self._started_at, 3),
                },
                b"",
                False,
            )
        if op == "get":
            began = time.perf_counter()
            namespace, region, key = self._address(header)
            value = self.store.get(namespace, region, key)
            if value is None:
                record_span(
                    "cache_server.get", header.get("trace"),
                    time.perf_counter() - began, region=region, hit=False,
                )
                return {"ok": True, "hit": False}, b"", False
            response = {"ok": True, "hit": True}
            cost = self.store.entry_cost(namespace, region, key)
            if cost is not None:
                response["cost"] = cost
            record_span(
                "cache_server.get", header.get("trace"),
                time.perf_counter() - began,
                region=region, hit=True, nbytes=len(value),
            )
            return response, value, False
        if op == "put":
            began = time.perf_counter()
            namespace, region, key = self._address(header)
            cost = header.get("cost")
            stored = self.store.put(
                namespace, region, key, payload, None if cost is None else float(cost)
            )
            record_span(
                "cache_server.put", header.get("trace"),
                time.perf_counter() - began,
                region=region, stored=stored, nbytes=len(payload),
            )
            return {"ok": True, "stored": stored}, b"", False
        if op == "clear":
            namespace = header.get("namespace")
            removed = self.store.clear(None if namespace is None else str(namespace))
            return {"ok": True, "removed": removed}, b"", False
        if op == "count":
            namespace = header.get("namespace")
            count = self.store.entry_count(None if namespace is None else str(namespace))
            return {"ok": True, "count": count}, b"", False
        if op == "stats":
            stats = self.store.stats()
            stats.update(
                {
                    "requests_served": self.requests_served,
                    "bytes_received": self.bytes_received,
                    "bytes_sent": self.bytes_sent,
                }
            )
            return {"ok": True, "stats": stats}, b"", False
        if op == "telemetry":
            snapshot = self.telemetry_snapshot()
            return (
                {
                    "ok": True,
                    "telemetry": snapshot,
                    "prometheus": render_prometheus(snapshot, prefix="repro_cache_server"),
                },
                b"",
                False,
            )
        if op == "reset_stats":
            self.store.reset_stats()
            return {"ok": True}, b"", False
        if op == "shutdown":
            return {"ok": True, "stopping": True}, b"", True
        return {"ok": False, "error": f"unknown op {op!r}"}, b"", False

    def telemetry_snapshot(self) -> dict:
        """The server's state in the unified telemetry schema (the JSON half
        of the ``telemetry`` op; the legacy ``stats`` op is the compatibility
        shim and keeps its historical flat shape)."""
        from repro import __version__

        store = self.store.stats()
        return unified_snapshot(
            counters={
                "hits": store["hits"],
                "misses": store["misses"],
                "puts": store["puts"],
                "evictions": store["evictions"],
                "rejected_puts": store["rejected_puts"],
                "requests_served": self.requests_served,
                "bytes_received": self.bytes_received,
                "bytes_sent": self.bytes_sent,
            },
            gauges={
                "entries": store["entries"],
                "bytes_stored": store["bytes_stored"],
                "loaded_from_disk": store["loaded_from_disk"],
                "uptime_s": round(time.monotonic() - self._started_at, 3),
            },
            histograms={},
            subsystem={
                "name": "cache-server",
                "version": __version__,
                "protocol": SERVER_PROTOCOL,
                "policy": store["policy"],
                "persisted": store["persisted"],
                "max_bytes": store["max_bytes"],
            },
        )

    @staticmethod
    def _address(header: dict) -> Tuple[str, str, bytes]:
        try:
            return (
                str(header["namespace"]),
                str(header["region"]),
                key_from_header(header["key"]),
            )
        except (KeyError, ValueError, TypeError) as error:
            raise ValueError(f"request needs namespace/region/key fields: {error}") from None


class CacheServerThread:
    """Host a :class:`CacheServer` on a background event-loop thread.

    The embedded form used by tests, the ``cache_server`` benchmark and
    ``--cache-backend remote --cache-path FILE`` (a run whose forked workers
    share one persistent cache without operating a separate server
    process)::

        with CacheServerThread(path="cache.db") as handle:
            backend = RemoteCacheBackend(port=handle.server.port)
    """

    def __init__(self, server: Optional[CacheServer] = None, **server_kwargs):
        self.server = server if server is not None else CacheServer(**server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> "CacheServerThread":
        self._thread = threading.Thread(
            target=self._run, name="cache-server-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("cache server event loop failed to start within 30s")
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as error:
            self._error = error
            self._started.set()
            self._loop.close()
            return
        self._started.set()
        try:
            self._loop.run_until_complete(self.server.serve_until_shutdown())
        finally:
            self._loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown and join the loop thread.

        Raises ``RuntimeError`` if the thread is still alive after
        ``timeout``: a silently leaked cache-server loop (and its bound
        port) would poison later tests, so a hung shutdown must be loud.
        """
        if self._thread is None or not self._thread.is_alive():
            return
        try:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        except RuntimeError:
            pass  # a 'shutdown' op already closed the loop under us
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"cache server event loop did not stop within {timeout}s "
                "(a handler or persistence write is hung); the thread is still alive"
            )

    def __enter__(self) -> "CacheServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cache-server",
        description="Serve a persistent artefact cache to batch and serving runs.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8643, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--path",
        default=None,
        help="sqlite file to persist entries to (omit for a memory-only server)",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=4096,
        help="bound on the number of cached entries",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte budget on the summed payload sizes (omit for entry-count only)",
    )
    parser.add_argument(
        "--policy",
        choices=EVICTION_POLICIES,
        default=DEFAULT_EVICTION_POLICY,
        help="eviction policy: cost-normalized utility (default) or plain LRU",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.db.cache.server``."""
    args = _build_parser().parse_args(argv)
    if args.max_entries < 1:
        print("--max-entries must be at least 1", file=sys.stderr)
        return 2
    if args.max_bytes is not None and args.max_bytes < 1:
        print("--max-bytes must be at least 1", file=sys.stderr)
        return 2
    server = CacheServer(
        host=args.host,
        port=args.port,
        path=args.path,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        policy=args.policy,
    )
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        pass  # platforms without add_signal_handler: still exit cleanly
    print("cache server stopped")
    return 0


async def _serve(server: CacheServer) -> None:
    await server.start()
    where = server.store.path if server.store.path is not None else "memory only"
    print(
        f"cache server on {server.host}:{server.port} "
        f"(protocol v{SERVER_PROTOCOL}, {server.store.entry_count()} entries, "
        f"persistence: {where})",
        flush=True,
    )
    await server.serve_until_shutdown()


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
