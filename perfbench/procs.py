"""Starting, probing and stopping the processes under test."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import loadgen
import traffic
from grid_child import vm_hwm_kb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOST = "127.0.0.1"

#: Engine worker threads of the query server.  One, because with two the
#: L1 cache's eviction (``UtilityCache.put`` takes ``min`` over a dict that the
#: other thread is inserting into) sporadically fails a request with
#: "dictionary changed size during iteration" on the evicting workloads.
SERVER_WORKERS = 1

#: Seed of every serving workload's SSB instance.  The instance is part of
#: the workload, like ``serve_shared``'s template pool; the benchmark seed
#: draws the traffic.  With the instance drawn from the benchmark seed too,
#: ``serve_adhoc``'s median closed-loop request time ranged 3.8–4.8 ms over
#: five seeds, and the same seeds kept their order on a second pass;
#: with one instance, 4.1–4.5 ms.
DATA_SEED = 20230711


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Process:
    """A child process whose stdout is read until it announces its port."""

    def __init__(self, argv: list[str], log: Path):
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *argv],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )

    def wait_for(self, marker: str) -> int:
        """Block until a stdout line contains ``marker``; return its port."""
        for line in self.proc.stdout:
            if marker in line:
                return int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
        raise RuntimeError(f"process exited before printing {marker!r} (see {self._log.name})")

    def rss_kb(self) -> int:
        return vm_hwm_kb(self.proc.pid)

    def cpu_s(self) -> float:
        """User plus system CPU time of all the process's threads so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 30.0) -> None:
        """Wait for the process to exit, killing it after ``timeout``."""
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        finally:
            self._log.close()


def cache_server_stats(port: int) -> dict:
    """The cache server's own counters, over its binary wire protocol."""
    from repro.db.cache.wire import read_frame, write_frame

    with socket.create_connection((HOST, port), timeout=30) as sock:
        with sock.makefile("rwb") as stream:
            write_frame(stream, {"op": "stats"})
            header, _payload, _size = read_frame(stream)
    return header.get("stats", {})


class ServingStack:
    """One query server, plus its cache server for ``--cache-backend remote``.

    ``setup_s`` runs from launching the first process until the first query
    (``traffic.PROBE``) is answered, which includes ``--register``'s datagen.
    """

    def __init__(self, run_dir: Path, index: int, settings: dict, seed: int,
                 trace_out: Path | None = None):
        self.cache: Process | None = None
        self.cache_port: int | None = None
        began = time.monotonic()
        serve_args = [
            "--port", "0",
            "--seed", str(20230711 + seed),
            "--workers", str(SERVER_WORKERS),
            "--ledger-path", str(run_dir / f"ledger-{index}.db"),
            "--analyst-epsilon", "1e12",
            "--register", json.dumps(register_spec(settings)),
        ]
        try:
            if settings.get("cache_server_max_bytes"):
                self.cache = Process(
                    ["-m", "repro.db.cache.server", "--port", "0",
                     "--path", str(run_dir / f"cache-{index}.db"),
                     "--max-bytes", str(settings["cache_server_max_bytes"])],
                    run_dir / f"cache-{index}.log",
                )
                self.cache_port = self.cache.wait_for("cache server on ")
                serve_args += ["--cache-backend", "remote",
                               "--cache-url", f"{HOST}:{self.cache_port}"]
            if settings.get("cache_size"):
                serve_args += ["--cache-size", str(settings["cache_size"])]
            launcher = [str(HERE / "serve_child.py")]
            if trace_out is not None:
                launcher += ["--trace-out", str(trace_out)]
            self.server = Process([*launcher, "--", *serve_args], run_dir / f"serve-{index}.log")
            self.port = self.server.wait_for("serving on ")
            status, _ = loadgen.call(HOST, self.port, traffic.PROBE)
            if status != "ok":
                raise RuntimeError(f"probe query failed: {status}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - began

    def stats(self) -> dict:
        status, result = loadgen.call(HOST, self.port, {"op": "stats"})
        if status != "ok":
            raise RuntimeError(f"stats op failed: {status}")
        if self.cache_port is not None:
            result["cache_server"] = cache_server_stats(self.cache_port)
        return result

    def rss_kb(self) -> int:
        return self.server.rss_kb() + (self.cache.rss_kb() if self.cache else 0)

    def cpu_s(self) -> float:
        return self.server.cpu_s() + (self.cache.cpu_s() if self.cache else 0.0)

    def stop(self) -> None:
        """Shut the query server down through its protocol, then the cache
        server by SIGTERM (its graceful drain)."""
        try:
            loadgen.call(HOST, self.port, {"op": "shutdown"})
        finally:
            self.server.stop()
            if self.cache is not None:
                self.cache.proc.terminate()
                self.cache.stop()

    def kill(self) -> None:
        for process in (getattr(self, "server", None), self.cache):
            if process is not None and process.proc.poll() is None:
                process.proc.kill()
                process.stop()


def register_spec(settings: dict) -> dict:
    return {"name": traffic.DATABASE, "kind": "ssb", "scale_factor": 1.0,
            "rows_per_scale_factor": settings["rows"], "seed": DATA_SEED}
