"""Single-flight request coalescing.

When several analysts (or one impatient analyst) issue the *same* query
concurrently, executing it once is enough: served answers are a pure function
of the request key — the per-request seed stream is derived from the same
label (see :mod:`repro.serving.planner`), so every concurrent duplicate would
compute byte-identical results anyway.  :class:`SingleFlight` makes the
leader execute while the duplicates wait on its result, which turns a
thundering herd of identical dashboard refreshes into one engine execution.
(A refresh arriving after the flight lands is answered by the planner's memo
of released answers instead.)

This is the thread-based analogue of Go's ``singleflight`` package: the
asyncio server runs engine work on a thread pool, so coalescing lives at the
thread layer and is equally usable from plain threaded code (benchmarks,
tests).  Errors propagate to every waiter — a shared failure is still shared.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable, Optional, Tuple

__all__ = ["SingleFlight"]


class _Flight:
    __slots__ = ("done", "error", "result")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Coalesce concurrent calls that share a key into one execution."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}
        #: Calls that actually executed ``fn``.
        self.executions = 0
        #: Calls served by another caller's in-flight execution.
        self.coalesced = 0

    def do(self, key: Hashable, fn: Callable[[], Any]) -> Tuple[Any, bool]:
        """Run ``fn`` once per concurrent ``key``; return ``(result, shared)``.

        The first caller for a key (the leader) executes ``fn``; callers
        arriving while that execution is in flight wait and receive the same
        result (``shared=True``).  Once a flight lands the key is free again —
        coalescing is about *concurrency*; the query planner reuses results
        across time through its memo of released answers, the engine's
        ``release`` cache region (:mod:`repro.serving.planner`).
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
                self.executions += 1
            else:
                leader = False
                self.coalesced += 1
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result, True
        try:
            flight.result = fn()
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
        return flight.result, False

    def in_flight(self) -> int:
        """Number of keys currently executing (for stats/tests)."""
        with self._lock:
            return len(self._flights)

    def stats(self) -> dict:
        with self._lock:
            return {
                "executions": self.executions,
                "coalesced": self.coalesced,
                "in_flight": len(self._flights),
            }
