"""One cold run of the paper's experiment grid, as the benchmark's child process.

Usage::

    python perfbench/grid_child.py --out FILE --seed N --trials T --jobs J
        [--rows R] [--only NAME ...] [--setup-only] [--trace-dir DIR]

Runs the ten experiment drivers in one ``evaluation_session``, the way
``python -m repro.evaluation.cli`` does, and writes one JSON object to FILE:

* ``first_driver`` — ``time.monotonic()`` when the first driver starts (the
  parent started its clock just before launching this process);
* ``wall_s`` — wall time of the drivers;
* ``digest`` — SHA-256 over every result row with the ``*time_s`` columns
  dropped (the rest is deterministic for a seed);
* ``driver_s`` — each experiment driver's wall time (one table or figure);
* ``trial_s`` — every mechanism trial's time, as the runner measured it;
* ``rss_kb`` — VmHWM of this process plus the pool workers alive at the end.

``--setup-only`` stops where the first driver would start.  ``--trace-dir``
installs the per-layer wrappers of :mod:`layers` before the pool forks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set of a live process, from ``/proc``; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids() -> list[str]:
    pids: list[str] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as handle:
                pids.extend(handle.read().split())
        except OSError:
            pass
    return pids


def rows_digest(results: dict) -> str:
    digest = hashlib.sha256()
    for name, result in results.items():
        digest.update(name.encode())
        for row in result.rows:
            kept = {key: value for key, value in row.items() if not key.endswith("time_s")}
            digest.update(json.dumps(kept, sort_keys=True, default=str).encode())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--only", nargs="+", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    from repro.evaluation.cli import EXPERIMENTS
    from repro.evaluation.experiments import ExperimentConfig
    from repro.evaluation.parallel import TrialScheduler, evaluation_session

    config = ExperimentConfig(trials=args.trials, jobs=args.jobs, seed=args.seed)
    if args.rows is not None:
        config.rows_per_scale_factor = args.rows
    names = args.only or list(EXPERIMENTS)

    # Every cell result passes through the scheduler; keep the runner's own
    # per-trial timings from it.
    trial_s: list[float] = []
    cells = [0]
    scheduler_map = TrialScheduler.map

    def map_keeping_times(self, fn, items):
        results = scheduler_map(self, fn, items)
        for result in results:
            trial_s.extend(getattr(result, "times", ()))
        cells[0] += len(results)
        return results

    TrialScheduler.map = map_keeping_times

    recorder = None
    if args.trace_dir:
        import layers

        recorder = layers.Recorder()
        layers.install_compute(recorder)
        layers.install_grid_workers(recorder, args.trace_dir)

    with evaluation_session(config):
        first_driver = time.monotonic()
        out = {"first_driver": first_driver}
        if not args.setup_only:
            results, driver_s = {}, []
            for name in names:
                began = time.monotonic()
                results[name] = EXPERIMENTS[name](config)
                driver_s.append(time.monotonic() - began)
            out["wall_s"] = time.monotonic() - first_driver
            out["driver_s"] = driver_s
            out["rss_kb"] = vm_hwm_kb("self") + sum(vm_hwm_kb(pid) for pid in child_pids())
            out["digest"] = rows_digest(results)
            out["rows"] = sum(len(result.rows) for result in results.values())
            out["cells"] = cells[0]
            out["trial_s"] = trial_s
        if recorder is not None:
            from repro.db.cache import active_backend

            path = os.path.join(args.trace_dir, f"layers-{os.getpid()}.jsonl")
            layers.dump(recorder, path, active_backend())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
