"""Sharded-fleet smoke: a router, two serving shards, two cache shards.

The full topology of docs/SERVING.md's "Sharded fleet" section, end to end
(CI runs this next to the serving and fault-tolerance smokes):

1. **Topology up** — two cache shard servers, two serving shard processes
   (``--cache-url shard1,shard2 --cache-replicas 2``: every cache entry on
   both shards), one fleet router process fronting the serving shards.
2. **Routed answers are the shard's answers** — the same queries through
   the router and directly against each analyst's home shard are
   byte-identical to an in-process planner with the same seed, and repeats
   are deterministic.
3. **Kill a cache shard mid-run** — answers do not move (replica reads and
   recompute absorb the loss), the survivors' breakers trip and are visible
   through the router's aggregated health; restart the shard on the same
   port and the breaker-recovery trace shows the probe closing it again.
   Each phase asks at ε values no earlier phase asked, and after the kill
   every analyst asks at its own ε: a repeat would be answered from the
   serving shard's memo of released answers and never reach the cache
   shards.

Usage::

    PYTHONPATH=src python examples/sharded_fleet_demo.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro.db.cache.server import CacheServerThread
from repro.serving import QueryPlanner, ServingClient

#: The serving shards' master noise seed (``--seed``).
SEED = 20230711

DEMO_SPEC = {
    "name": "demo",
    "kind": "ssb",
    "scale_factor": 1.0,
    "rows_per_scale_factor": 2000,
    "seed": 5,
}

QUERIES = ("Qc1", "Qs2", "Qc3")
ANALYSTS = ("alice", "bob", "carol", "dave")

#: The ε of each phase's first query (the next queries add 0.1 each).
ROUTED, AFTER_KILL, RECOVERED = 0.1, 0.15, 0.12
#: After the kill, analyst i starts at the phase's ε + i × this step.  With
#: one ε for all, only a serving shard's first analyst executes (the rest
#: are memo hits), and those few executions do not always reach the
#: restarted cache shard, so its breaker may never be probed.
ANALYST_STEP = 0.005


def _spawn_serving_shard(cache_urls: str) -> tuple[subprocess.Popen, int]:
    """One serving shard on an ephemeral port, caching through the shard list."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro.serving",
            "--port",
            "0",
            "--seed",
            str(SEED),
            "--workers",
            "2",
            "--analyst-epsilon",
            "1000.0",
            "--cache-backend",
            "remote",
            "--cache-url",
            cache_urls,
            "--cache-replicas",
            "2",
            # A one-entry L1: the demo has three distinct cache keys, so any
            # L1 that can hold all of them would absorb every repeat query
            # in-process and the remote shards (and, in step 3, the failover
            # ladder) would never be exercised.
            "--cache-size",
            "1",
            "--register",
            json.dumps(DEMO_SPEC),
        ],
        env=os.environ.copy(),
        stdout=subprocess.PIPE,
        text=True,
    )
    return process, _await_banner(process, "serving on ")


def _spawn_router(shards: list[str]) -> tuple[subprocess.Popen, int]:
    argv = [sys.executable, "-u", "-m", "repro.serving.fleet", "--port", "0"]
    for shard in shards:
        argv += ["--shard", shard]
    process = subprocess.Popen(
        argv, env=os.environ.copy(), stdout=subprocess.PIPE, text=True
    )
    return process, _await_banner(process, "fleet router on ")


def _await_banner(process: subprocess.Popen, prefix: str) -> int:
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"process exited at startup ({process.returncode})")
        line = process.stdout.readline()
        if not line:
            time.sleep(0.05)
            continue
        print(f"    {line.rstrip()}")
        if line.startswith(prefix):
            address = line.removeprefix(prefix).split(" ", 1)[0]
            return int(address.rstrip(":").rsplit(":", 1)[1])
    process.kill()
    raise RuntimeError(f"process did not print {prefix!r} within 120s")


def _epsilons(first: float) -> list[float]:
    return [round(first + 0.1 * index, 3) for index in range(len(QUERIES))]


def _per_analyst(first: float) -> dict[str, float]:
    return {
        analyst: round(first + ANALYST_STEP * index, 3)
        for index, analyst in enumerate(ANALYSTS)
    }


def _query_answers(port: int, analyst: str, first_epsilon: float) -> dict[str, str]:
    """One answer blob per named query, for byte comparison."""
    answers = {}
    with ServingClient(port=port) as client:
        for query, epsilon in zip(QUERIES, _epsilons(first_epsilon)):
            payload = client.query("demo", "PM", epsilon, query=query, analyst=analyst)
            answers[query] = json.dumps(payload["answers"])
    return answers


def _reference_planner() -> QueryPlanner:
    """An in-process planner with the shards' seed: no fleet, no cache shards."""
    planner = QueryPlanner(seed=SEED)
    spec = dict(DEMO_SPEC)
    planner.register(spec.pop("name"), spec.pop("kind"), **spec)
    return planner


def _reference_answers(planner: QueryPlanner, first_epsilon: float) -> dict[str, str]:
    answers = {}
    for query, epsilon in zip(QUERIES, _epsilons(first_epsilon)):
        request = {"database": "demo", "mechanism": "PM", "epsilon": epsilon, "query": query}
        answers[query] = json.dumps(planner.execute(planner.plan(request))["answers"])
    return answers


def main() -> int:
    planner = _reference_planner()
    cache_a = CacheServerThread(max_entries=4096).start()
    cache_b = CacheServerThread(max_entries=4096).start()
    cache_urls = f"127.0.0.1:{cache_a.server.port},127.0.0.1:{cache_b.server.port}"
    shard_1, port_1 = _spawn_serving_shard(cache_urls)
    shard_2, port_2 = _spawn_serving_shard(cache_urls)
    shard_labels = [f"127.0.0.1:{port_1}", f"127.0.0.1:{port_2}"]
    router, router_port = _spawn_router(shard_labels)
    print(
        f"[1/3] topology up: router :{router_port} -> serving "
        f"{shard_labels} -> cache shards [{cache_urls}] (1 replica)"
    )
    try:
        with ServingClient(port=router_port) as client:
            fleet = client.ping()["fleet"]
            if sorted(fleet["shards"]) != sorted(shard_labels):
                print(f"router fronts the wrong shards: {fleet}", file=sys.stderr)
                return 1

        # --- routed answers == each home shard's own answers -------------
        routed = {
            analyst: _query_answers(router_port, analyst, ROUTED) for analyst in ANALYSTS
        }
        again = {
            analyst: _query_answers(router_port, analyst, ROUTED) for analyst in ANALYSTS
        }
        if routed != again:
            print("repeat queries through the router changed bytes", file=sys.stderr)
            return 1
        direct = {}
        for shard_port in (port_1, port_2):
            for analyst in ANALYSTS:
                direct[analyst] = _query_answers(shard_port, analyst, ROUTED)
                break  # answers are analyst-independent; one shard suffices
            break
        for analyst in ANALYSTS:
            if routed[analyst] != routed[ANALYSTS[0]]:
                print("answers depended on the analyst", file=sys.stderr)
                return 1
        if routed[ANALYSTS[0]] != direct[ANALYSTS[0]]:
            print("routed answers differ from a direct shard's", file=sys.stderr)
            return 1
        if routed[ANALYSTS[0]] != _reference_answers(planner, ROUTED):
            print("routed answers differ from an in-process planner's", file=sys.stderr)
            return 1
        with ServingClient(port=router_port) as client:
            per_shard = client.stats()["router"]["routed_per_shard"]
        print(
            f"[2/3] parity: routed == direct == repeat == in-process for "
            f"{len(ANALYSTS)} analysts "
            f"x {len(QUERIES)} queries (routed per shard: {per_shard})"
        )

        # --- kill one cache shard mid-run ---------------------------------
        dead_port = cache_a.server.port
        cache_a.stop()
        firsts = _per_analyst(AFTER_KILL)
        after_kill = {
            analyst: _query_answers(router_port, analyst, first)
            for analyst, first in firsts.items()
        }
        if any(
            after_kill[analyst] != _reference_answers(planner, first)
            for analyst, first in firsts.items()
        ):
            print("answers moved after a cache shard died", file=sys.stderr)
            return 1
        with ServingClient(port=router_port) as client:
            health = client.health()
        trips = 0
        for label, shard_health in health["shards"].items():
            breaker = (shard_health.get("cache") or {}).get("breaker") or {}
            trips += int(breaker.get("trips", 0))
        if trips < 1:
            print(f"no breaker trip recorded after the kill: {health}", file=sys.stderr)
            return 1

        # Restart the cache shard on the same port; the breakers probe back.
        cache_a = CacheServerThread(port=dead_port, max_entries=4096).start()
        time.sleep(2.2)  # past the default breaker_reset_timeout (2s)
        firsts = _per_analyst(RECOVERED)
        recovered = {
            analyst: _query_answers(router_port, analyst, first)
            for analyst, first in firsts.items()
        }
        if any(
            recovered[analyst] != _reference_answers(planner, first)
            for analyst, first in firsts.items()
        ):
            print("answers moved after the cache shard came back", file=sys.stderr)
            return 1
        with ServingClient(port=router_port) as client:
            health = client.health()
        open_shards = []
        for label, shard_health in health["shards"].items():
            breaker = (shard_health.get("cache") or {}).get("breaker") or {}
            open_shards.extend(breaker.get("open_shards") or [])
        if open_shards:
            print(f"breakers still open after recovery: {health}", file=sys.stderr)
            return 1
        print(
            f"[3/3] cache shard killed and restarted: answers byte-identical "
            f"throughout ({trips} breaker trip(s), all breakers closed again)"
        )
        return 0
    finally:
        for process in (router, shard_1, shard_2):
            process.terminate()
        for process in (router, shard_1, shard_2):
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
        for cache in (cache_a, cache_b):
            try:
                cache.stop()
            except RuntimeError:
                pass


if __name__ == "__main__":
    sys.exit(main())
