"""The out-of-process cache backend (client side) — the one cross-process path.

A two-tier design:

* **L1** — a private :class:`~repro.db.cache.local.LocalCacheBackend` per
  process, so hot entries cost a dict lookup.
* **L2** — a :class:`~repro.db.cache.server.CacheServer` reached over TCP.
  Entries in :data:`~repro.db.cache.backend.SHARED_REGIONS` (selection
  masks, contributions, data cubes, exact answers) are written through and,
  on an L1 miss, fetched back.  The server is *not* tied to a fork family:
  a run's forked pool workers share it (``path=`` embeds one for the run),
  and so do a batch evaluation run and a separately launched serving
  process, which address the same entries through content-fingerprint
  namespaces; a ``--path``-persisted server survives them all.

Lifecycle:

* Create **before** the worker pool forks (``evaluation_session`` does) so
  every worker inherits the configuration and the fork-shared counters.
  Sockets cannot cross a fork: each process lazily opens its own small
  connection pool, keyed by pid, so an inherited backend reconnects
  transparently inside the first worker that touches it.
* If the server becomes unreachable — killed mid-run, network gone — a
  :class:`~repro.db.cache.breaker.CircuitBreaker` opens and the backend
  degrades to L1-only instead of failing: sharing is an optimisation, never
  a correctness requirement.  Values are pure functions of their
  content-derived keys, so a degraded run produces byte-identical results,
  just more slowly.  Unlike the old permanent ``_broken`` flag, the breaker
  half-opens after ``breaker_reset_timeout`` and probes the server, so a
  restarted server is picked back up mid-run.  Each remote operation runs
  under an explicit per-op deadline (``op_timeout``) and is retried up to
  ``retry_attempts`` times with exponential backoff + jitter before it
  counts as a hard failure.
* ``close()`` drops this process's connections; with an *owned* embedded
  server (the ``path=`` convenience used by ``--cache-path``) the owner
  process also stops that server thread.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import socket
import struct
import threading
import time
import warnings
from typing import Any, Hashable, Optional

import hashlib

import numpy as np

from repro.db.cache.backend import (
    DEFAULT_EVICTION_POLICY,
    SHARED_REGIONS,
    CacheStats,
    telemetry_from_stats,
)
from repro.db.cache.breaker import CircuitBreaker
from repro.db.cache.local import LocalCacheBackend
from repro.db.cache.wire import (
    MAX_FRAME_PAYLOAD,
    decode_payload,
    encode_key,
    encode_payload,
    key_to_header,
    read_frame,
    write_frame,
)
from repro.obs.metrics import active_registry
from repro.obs.trace import span, wire_context

__all__ = ["RemoteCacheBackend", "parse_cache_url"]

#: Exceptions that mean "the cache server is gone or the wire/payload is
#: garbage"; the backend degrades to its local tier when it sees one.
#: ``struct.error`` (a short/corrupt payload buffer) and ``pickle.PickleError``
#: (an unpicklable value, or a corrupt pickled blob) are included because a
#: bad entry must cost a recomputation, never the run.
_REMOTE_ERRORS = (OSError, EOFError, ValueError, struct.error, pickle.PickleError)


def _freeze_value(value: Any) -> Any:
    """Mark arrays fetched from the server read-only (they arrive as fresh
    writable copies from the payload decode)."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for member in value:
            if isinstance(member, np.ndarray):
                member.flags.writeable = False
    return value


def parse_cache_url(url: str) -> tuple[str, int]:
    """``host:port`` (or ``tcp://host:port``) → ``(host, port)``."""
    text = url.strip()
    for prefix in ("tcp://", "cache://"):
        if text.startswith(prefix):
            text = text[len(prefix) :]
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValueError(f"cache url must look like host:port, got {url!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"cache url has a non-integer port: {url!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"cache url port out of range: {url!r}")
    return host, port


class _Connection:
    """One pooled blocking connection (socket + buffered file object).

    ``timeout`` bounds connection establishment; ``op_timeout`` is the
    per-operation deadline every subsequent send/recv runs under, so a
    frozen (but connected) server surfaces as a timeout instead of a hang.
    """

    def __init__(self, host: str, port: int, timeout: float, op_timeout: Optional[float] = None):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(op_timeout if op_timeout is not None else timeout)
        self.file = self.sock.makefile("rwb")

    def close(self) -> None:
        try:
            self.file.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class RemoteCacheBackend:
    """Two-tier cache backend: in-process LRU over a TCP cache server."""

    name = "remote"

    def __init__(
        self,
        url: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        path: Optional[str] = None,
        max_entries: int = 192,
        remote_regions: frozenset[str] = SHARED_REGIONS,
        timeout: float = 30.0,
        max_connections: int = 4,
        server_max_entries: Optional[int] = None,
        op_timeout: Optional[float] = None,
        retry_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        breaker_threshold: int = 3,
        breaker_reset_timeout: float = 2.0,
        policy: str = DEFAULT_EVICTION_POLICY,
        max_bytes: Optional[int] = None,
        server_max_bytes: Optional[int] = None,
    ):
        """Connect to (or start) a cache server.

        Exactly one way of naming the server: ``url`` (``host:port``),
        ``host``/``port``, or ``path`` — the last starts an *embedded*
        :class:`~repro.db.cache.server.CacheServerThread` persisting to that
        file, owned (and stopped on :meth:`close`) by this backend.  An
        unreachable server degrades the backend to local-only with a warning
        rather than failing construction.

        Resilience knobs: ``op_timeout`` is the per-operation socket
        deadline (defaults to ``timeout``); each operation is attempted up
        to ``retry_attempts`` times with exponential backoff
        (``backoff_base * 2**attempt``, capped at ``backoff_max``, plus up
        to 50% jitter); ``breaker_threshold`` consecutive hard failures
        open the circuit breaker, which half-opens to probe recovery after
        ``breaker_reset_timeout`` seconds.
        """
        self._local = LocalCacheBackend(max_entries, policy=policy, max_bytes=max_bytes)
        self.max_entries = self._local.max_entries
        self.policy = self._local.policy
        self.remote_regions = frozenset(remote_regions)
        self.timeout = float(timeout)
        self.op_timeout = float(op_timeout) if op_timeout is not None else self.timeout
        self.retry_attempts = max(1, int(retry_attempts))
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset_timeout,
        )
        # Backoff jitter RNG: lazily (re)seeded per pid by _jitter_rng().  A
        # single generator created here would be inherited byte-identically
        # by every forked pool worker, so jobs=N workers hitting a struggling
        # server would back off in lockstep — a thundering herd precisely
        # when the server least needs one.  Same pattern as the pid-keyed
        # connection pool below.  Independent of the global random stream.
        self._jitter: Optional[random.Random] = None
        self._jitter_pid: Optional[int] = None
        self.max_connections = max(1, int(max_connections))
        self._server_handle = None
        if path is not None:
            if url is not None or host is not None or port is not None:
                raise ValueError("pass either path= (embedded server) or url/host/port")
            from repro.db.cache.server import CacheServerThread

            bound = server_max_entries if server_max_entries is not None else max_entries * 16
            self._server_handle = CacheServerThread(
                path=str(path), max_entries=bound, max_bytes=server_max_bytes, policy=policy
            ).start()
            host, port = "127.0.0.1", self._server_handle.server.port
        elif url is not None:
            if host is not None or port is not None:
                raise ValueError("pass either url= or host=/port=, not both")
            host, port = parse_cache_url(url)
        elif host is None or port is None:
            raise ValueError(
                "remote cache backend needs a server: pass url='host:port' "
                "(--cache-url) or path='cache.db' (--cache-path) to start one"
            )
        self.host = str(host)
        self.port = int(port)
        self._owner_pid = os.getpid()
        self._closed = False
        self._pool: list[_Connection] = []
        self._pool_pid = os.getpid()
        self._pool_lock = threading.Lock()
        # Fork-inherited counters: workers increment, the parent's stats()
        # sees the whole run.  Remote-tier traffic is reported through the
        # shared_* slots of CacheStats.
        self._shared_hits = multiprocessing.Value("Q", 0)
        self._shared_misses = multiprocessing.Value("Q", 0)
        self._shared_puts = multiprocessing.Value("Q", 0)
        self._bytes_sent = multiprocessing.Value("Q", 0)
        self._bytes_received = multiprocessing.Value("Q", 0)
        self._put_short_circuits = multiprocessing.Value("Q", 0)
        self._put_bytes_saved = multiprocessing.Value("Q", 0)
        # Payload fingerprints of entries this process knows the server
        # holds (recorded on every successful put and get).  A repeated put
        # of an identical payload — the single-flight-adjacent race where
        # two workers compute the same artefact — skips the round trip.
        # Entries are dropped the moment the server reports a miss for the
        # key (it may have evicted it), so a skipped write can never leave
        # the server cold.  Bounded; per-process after fork (copy-on-write
        # snapshots stay valid — they only describe server state).
        self._digests: dict[bytes, bytes] = {}
        self._max_digests = 4096
        self._digest_lock = threading.Lock()
        try:
            self._request({"op": "ping"})
        except _REMOTE_ERRORS as error:
            warnings.warn(
                f"cache server {self.host}:{self.port} is unreachable ({error}); "
                "continuing with the local tier only",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _checkout(self) -> tuple[_Connection, bool]:
        """A connection plus whether it came from the pool (a pooled socket
        may predate a server restart, so its failures are retryable)."""
        with self._pool_lock:
            if self._pool_pid != os.getpid():
                # Forked child: the inherited sockets belong to the parent's
                # conversation.  Drop the references without closing — the
                # parent still holds its copies — and start a fresh pool.
                self._pool = []
                self._pool_pid = os.getpid()
            if self._pool:
                return self._pool.pop(), True
        return _Connection(self.host, self.port, self.timeout, self.op_timeout), False

    def _checkin(self, connection: _Connection) -> None:
        with self._pool_lock:
            if self._pool_pid == os.getpid() and len(self._pool) < self.max_connections:
                self._pool.append(connection)
                return
        connection.close()

    def _count(self, counter, amount: int = 1) -> None:
        with counter.get_lock():
            counter.value += amount

    def _jitter_rng(self) -> random.Random:
        """This process's backoff-jitter generator, reseeded after a fork.

        Seeded from (pid, monotonic entropy, instance id) so forked workers —
        which inherit this object's state copy-on-write — draw *divergent*
        jitter sequences instead of the parent's, and two backends in one
        process stay independent of each other.  Deliberately not derived
        from any experiment seed: jitter timing never touches results.
        """
        pid = os.getpid()
        if self._jitter is None or self._jitter_pid != pid:
            self._jitter = random.Random(f"{pid}:{time.time_ns()}:{id(self)}")
            self._jitter_pid = pid
        return self._jitter

    def _backoff(self, attempt: int) -> None:
        delay = min(self.backoff_base * (2**attempt), self.backoff_max)
        time.sleep(delay * (1.0 + 0.5 * self._jitter_rng().random()))

    def _request(self, header: dict, payload: bytes = b"") -> tuple[dict, bytes]:
        """One request/response round-trip, with bounded retry.

        A transport failure on a *pooled* socket is ambiguous — the server
        may merely have restarted since the socket was pooled (the headline
        persistence scenario) — so it costs nothing: it is not reported to
        the breaker and does not consume a retry attempt.  Failures on
        fresh connections are real: each is recorded with the breaker, and
        the operation is retried up to ``retry_attempts`` times (once while
        the breaker is probing — a probe that needed three tries did not
        recover) with exponential backoff + jitter before the last error
        propagates.  Raises one of :data:`_REMOTE_ERRORS` when the server
        is genuinely unreachable (the caller degrades) and ``RuntimeError``
        when the server answers a structured error.
        """
        connection, pooled = self._checkout()
        if pooled:
            try:
                return self._round_trip(connection, header, payload)
            except _REMOTE_ERRORS:
                connection = None  # stale pooled socket: retry fresh below
        attempts = self.retry_attempts if self.breaker.is_closed else 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                if connection is None:
                    connection = _Connection(
                        self.host, self.port, self.timeout, self.op_timeout
                    )
                return self._round_trip(connection, header, payload)
            except _REMOTE_ERRORS as error:
                self.breaker.record_failure(error)
                last_error = error
                connection = None
                if attempt + 1 < attempts:
                    self._backoff(attempt)
        raise last_error

    def _round_trip(self, connection: _Connection, header: dict, payload: bytes):
        try:
            sent = write_frame(connection.file, header, payload)
            response, response_payload, received = read_frame(connection.file)
        except BaseException:
            connection.close()
            raise
        # A complete round trip — even one carrying a structured refusal —
        # proves the transport is healthy.
        self.breaker.record_success()
        self._count(self._bytes_sent, sent)
        self._count(self._bytes_received, received)
        active_registry().counter("cache_remote_roundtrips_total").inc()
        if not response.get("ok"):
            # A structured refusal may come with the server about to drop
            # the link (the bad-frame path); never pool a connection whose
            # state we cannot vouch for, or the *next* healthy request
            # would hit its EOF and wrongly mark the backend broken.
            connection.close()
            raise RuntimeError(f"cache server error: {response.get('error')}")
        self._checkin(connection)
        return response, response_payload

    # ------------------------------------------------------------------
    # the CacheBackend protocol
    # ------------------------------------------------------------------
    def _remote_allowed(self) -> bool:
        """Whether a remote round trip may be attempted right now: the
        backend is not closed and the circuit breaker admits the request
        (closed, or half-open granting this call the probe slot)."""
        return not self._closed and self.breaker.allow()

    def _remember_digest(self, encoded_key: bytes, payload: bytes) -> None:
        digest = hashlib.sha256(payload).digest()
        # Locked: a query server's engine threads share this backend, and
        # two threads trimming at once would pop the same oldest key.
        with self._digest_lock:
            self._digests.pop(encoded_key, None)
            self._digests[encoded_key] = digest
            while len(self._digests) > self._max_digests:
                self._digests.pop(next(iter(self._digests)))

    def get(self, namespace: str, region: str, key: Hashable) -> Any:
        value = self._local.get(namespace, region, key)
        if value is not None or region not in self.remote_regions:
            return value
        if not self._remote_allowed():
            return None
        encoded_key = encode_key(namespace, region, key)
        header = {
            "op": "get",
            "namespace": namespace,
            "region": region,
            "key": key_to_header(encoded_key),
        }
        with span("cache.remote.get", region=region) as current:
            # Propagate the trace over the wire (optional header field;
            # servers that predate it ignore unknown fields — v2 policy).
            context = wire_context()
            if context is not None:
                header["trace"] = context
            try:
                response, payload = self._request(header)
                if not response.get("hit"):
                    # The server does not hold the key (any more): forget its
                    # fingerprint so the next put writes it back.
                    self._digests.pop(encoded_key, None)
                    self._count(self._shared_misses)
                    if current is not None:
                        current.set(hit=False)
                    return None
                value = decode_payload(payload)
            except _REMOTE_ERRORS as error:
                # A payload that decoded to garbage trips the breaker outright:
                # the round trip "succeeded", so only an immediate trip stops
                # the next op from decoding more garbage.  Transport errors
                # have already been counted per-attempt inside _request.
                self.breaker.trip(error)
                return None
            except RuntimeError:
                self._count(self._shared_misses)
                return None
            if current is not None:
                current.set(hit=True, nbytes=len(payload))
        self._count(self._shared_hits)
        self._remember_digest(encoded_key, payload)
        value = _freeze_value(value)
        cost = response.get("cost")
        # Promote to L1 quietly: a promotion is not a new artefact, so it
        # must not inflate the put counter.
        self._local._put(namespace, region, key, value, cost)
        return value

    def put(
        self,
        namespace: str,
        region: str,
        key: Hashable,
        value: Any,
        cost: Optional[float] = None,
    ) -> None:
        self._local.put(namespace, region, key, value, cost)
        if region not in self.remote_regions:
            return
        try:
            payload = encode_payload(value)
        except Exception:
            # A value that cannot cross the wire (unpicklable, exotic) is a
            # value problem, not a server problem: L1 already holds it, so
            # skip the remote write without degrading the whole backend.
            return
        if len(payload) > MAX_FRAME_PAYLOAD:
            return  # same rule: an oversized value must not cost the tier
        if not self._remote_allowed():
            return
        encoded_key = encode_key(namespace, region, key)
        if self._digests.get(encoded_key) == hashlib.sha256(payload).digest():
            # Fingerprint short-circuit: the server already holds this exact
            # payload for this key — the write would be a byte-for-byte
            # no-op, so save the wire traffic and count what it would have
            # cost.  (Values are pure functions of their keys, so an equal
            # digest means an equal artefact, not a lucky collision.)
            self._count(self._put_short_circuits)
            self._count(self._put_bytes_saved, len(payload))
            return
        header = {
            "op": "put",
            "namespace": namespace,
            "region": region,
            "key": key_to_header(encoded_key),
        }
        if cost is not None:
            header["cost"] = round(float(cost), 9)
        with span("cache.remote.put", region=region, nbytes=len(payload)) as current:
            context = wire_context()
            if context is not None:
                header["trace"] = context
            try:
                response, _ = self._request(header, payload)
                self._count(self._shared_puts)
                if response.get("stored"):
                    self._remember_digest(encoded_key, payload)
                elif current is not None:
                    current.set(stored=False)
            except _REMOTE_ERRORS:
                pass  # attempts already recorded; the breaker is open by now
            except RuntimeError:
                pass  # the server refused one entry; nothing to degrade over

    def clear(self, namespace: Optional[str] = None) -> None:
        self._local.clear(namespace)
        self._digests.clear()  # conservatively: the server is losing entries
        if namespace is None:
            self.reset_stats()  # a full clear is a fresh start, counters too
        if not self._remote_allowed():
            return
        try:
            self._request({"op": "clear", "namespace": namespace})
        except _REMOTE_ERRORS:
            pass
        except RuntimeError:
            pass

    def release(self, namespace: str) -> None:
        """Drop the L1 entries only: the server may still be warming other
        processes (or future runs, through its persistence file)."""
        self._local.clear(namespace)

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        stats = self._local.stats()
        stats.shared_hits = int(self._shared_hits.value)
        stats.shared_misses = int(self._shared_misses.value)
        stats.shared_puts = int(self._shared_puts.value)
        return stats

    def reset_stats(self) -> None:
        self._local.reset_stats()
        for counter in (
            self._shared_hits,
            self._shared_misses,
            self._shared_puts,
            self._put_short_circuits,
            self._put_bytes_saved,
        ):
            with counter.get_lock():
                counter.value = 0

    def entry_count(self, namespace: Optional[str] = None) -> int:
        count = self._local.entry_count(namespace)
        if not self._remote_allowed():
            return count
        try:
            response, _ = self._request({"op": "count", "namespace": namespace})
            return count + int(response.get("count", 0))
        except _REMOTE_ERRORS:
            return count
        except RuntimeError:
            return count

    # ------------------------------------------------------------------
    # observability beyond the protocol
    # ------------------------------------------------------------------
    @property
    def _broken(self) -> bool:
        """Whether the remote tier is currently out of service: the backend
        was closed, or the circuit breaker is open / probing.  Kept as the
        historical name; unlike the flag it replaced, it flips back to
        ``False`` when a half-open probe finds the server again."""
        return self._closed or not self.breaker.is_closed

    @property
    def degraded(self) -> bool:
        """Whether this backend has fallen back to its local tier only
        (the server is unreachable right now; results are still correct,
        just recomputed instead of shared).  Clears automatically once the
        breaker's half-open probe finds the server healthy again."""
        return self._broken

    def remote_io(self) -> dict:
        """Client-side wire traffic of this backend (fork-shared totals)."""
        return {
            "bytes_sent": int(self._bytes_sent.value),
            "bytes_received": int(self._bytes_received.value),
        }

    def telemetry_snapshot(self) -> dict:
        """Client-side counters in the unified telemetry schema — wire
        traffic and short-circuit savings included (``stats()`` remains the
        legacy-shaped compatibility surface).  Deliberately no server round
        trip: the server reports itself via its own ``telemetry`` op."""
        breaker = self.breaker.stats()
        io = self.remote_io()
        snapshot = telemetry_from_stats(
            self.stats(),
            self.name,
            gauges={
                "entries": self._local.entry_count(),
                "bytes": self._local.byte_count(),
            },
            subsystem_extra={
                "policy": self._local.policy,
                "max_entries": self._local.max_entries,
                "degraded": self.degraded,
                "breaker_state": breaker.get("state"),
                "server": f"{self.host}:{self.port}",
            },
        )
        snapshot["counters"].update(
            {
                "bytes_sent": io["bytes_sent"],
                "bytes_received": io["bytes_received"],
                "put_short_circuits": int(self._put_short_circuits.value),
                "put_bytes_saved": int(self._put_bytes_saved.value),
                "breaker_trips": int(breaker.get("trips", 0)),
            }
        )
        return snapshot

    def breaker_stats(self) -> dict:
        """The circuit breaker's state and lifetime counters, plus the
        fingerprint short-circuit savings (fork-shared totals)."""
        stats = self.breaker.stats()
        stats["put_short_circuits"] = int(self._put_short_circuits.value)
        stats["put_bytes_saved"] = int(self._put_bytes_saved.value)
        return stats

    def server_stats(self) -> Optional[dict]:
        """The server's own counters (hits across *all* clients), or ``None``
        when the server is unreachable."""
        if not self._remote_allowed():
            return None
        try:
            response, _ = self._request({"op": "stats"})
            return response.get("stats")
        except _REMOTE_ERRORS:
            return None
        except RuntimeError:
            return None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's connections; the owner also stops an owned
        embedded server.  Workers that inherited the backend through fork
        must never tear the server down."""
        self._closed = True
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()
        if self._server_handle is not None and os.getpid() == self._owner_pid:
            self._server_handle.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "degraded" if self._broken else "live"
        return (
            f"RemoteCacheBackend({self.host}:{self.port}, {state}, "
            f"max_entries={self.max_entries}, {self.stats().summary()})"
        )
