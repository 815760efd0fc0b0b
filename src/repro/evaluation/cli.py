"""Command-line entry point that regenerates every table and figure.

Usage::

    python -m repro.evaluation.cli                 # quick configuration
    python -m repro.evaluation.cli --full          # higher-fidelity configuration
    python -m repro.evaluation.cli --only table1 figure9
    python -m repro.evaluation.cli --output-dir results/
    python -m repro.evaluation.cli --jobs 4        # parallel trial scheduler
    python -m repro.evaluation.cli --jobs 4 --cache-backend remote \
        --cache-path cache.db --cache-stats

The whole invocation runs inside one :func:`~repro.evaluation.parallel.evaluation_session`:
a single worker pool serves every requested experiment, and the configured
cache backend (``--cache-backend``) is installed process-wide before that
pool forks, so with ``--cache-backend remote`` the workers exchange selection
masks, data cubes and exact answers through one cache server for the entire
run (``--cache-stats`` reports the counters).  Each experiment prints its text table and, when
``--output-dir`` is given, writes a CSV with the same rows.  The experiment
set and configurations are the ones documented in DESIGN.md and
EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.db.cache import (
    CACHE_BACKENDS,
    DEFAULT_EVICTION_POLICY,
    EVICTION_POLICIES,
    active_backend,
)
from repro.obs.metrics import active_registry
from repro.obs.trace import span
from repro.evaluation.experiments import (
    ExperimentConfig,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    table1,
    table2,
)
from repro.evaluation.parallel import evaluation_session
from repro.evaluation.reporting import ExperimentResult

__all__ = ["EXPERIMENTS", "main", "run_experiments"]

#: Registry of experiment name → callable(config) → ExperimentResult.
EXPERIMENTS: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "table1": lambda config: table1.run(config),
    "table2": lambda config: table2.run(config),
    "figure4": lambda config: figure4.run(config),
    "figure5": lambda config: figure5.run(config),
    "figure6": lambda config: figure6.run(config),
    "figure7": lambda config: figure7.run(config),
    "figure8": lambda config: figure8.run(config),
    "figure9": lambda config: figure9.run(config),
    "figure10": lambda config: figure10.run(config),
    "figure11": lambda config: figure11.run(config),
}


def _append_metrics(path: str, experiment: str, elapsed_s: float) -> None:
    """Append one unified registry snapshot (JSON line) for a finished
    experiment — the batch-run counterpart of the serving ``telemetry`` op.
    With ``jobs > 1`` the session's registry is fork-shared, so the counters
    cover every worker of the pool."""
    snapshot = active_registry().snapshot(
        subsystem={
            "name": "evaluation",
            "experiment": experiment,
            "elapsed_s": round(elapsed_s, 6),
            "ts_s": round(time.time(), 6),
        }
    )
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(snapshot, separators=(",", ":"), sort_keys=True) + "\n")


def run_experiments(
    names: Sequence[str],
    config: ExperimentConfig,
    output_dir: Optional[Path] = None,
    echo: Callable[[str], None] = print,
    cache_stats: bool = False,
) -> dict[str, ExperimentResult]:
    """Run the named experiments inside one evaluation session.

    The session (see :func:`repro.evaluation.parallel.evaluation_session`)
    gives the whole run a single worker pool and one cache backend, both
    selected by ``config``.  ``cache_stats=True`` echoes the backend's
    hit/miss/eviction counters after every experiment and at the end of the
    run.

    Unknown names raise ``KeyError`` before anything is executed so a typo in
    one name does not waste the time already spent on earlier experiments.
    """
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}; available: {sorted(EXPERIMENTS)}")

    results: dict[str, ExperimentResult] = {}
    # The local backend's counters are per process: with a worker pool the
    # parent only sees its own warm-up traffic, so say so rather than print
    # near-zero rates as if they covered the run.  The remote backend's
    # shared_* counters are fork-shared and do cover every worker.
    stats_scope = (
        " (parent process only; use --cache-backend remote --cache-path FILE"
        " for run-wide counters)"
        if config.jobs > 1 and config.cache_backend == "local"
        else ""
    )
    with evaluation_session(config):
        # With --warm-ahead the session installed a warming queue; between
        # experiments the batch run owns all the idle time there is, so the
        # drain is unbounded (contrast the serving tier's small batches).
        warming_worker = None
        if config.warm_ahead:
            from repro.db.cache.warming import WarmAheadWorker, active_queue

            queue = active_queue()
            if queue is not None:
                warming_worker = WarmAheadWorker(queue)
        if config.metrics_path:
            open(config.metrics_path, "w", encoding="utf-8").close()  # start clean
        for name in names:
            started = time.perf_counter()
            echo(f"\n=== running {name} ===")
            # One root span per experiment: scheduler cells, engine kernels
            # and cache round-trips (local or over the wire) descend from it.
            with span("evaluation.experiment", experiment=name):
                result = EXPERIMENTS[name](config)
            elapsed = time.perf_counter() - started
            echo(result.to_text())
            echo(f"[{name} finished in {elapsed:.1f}s]")
            if config.metrics_path:
                _append_metrics(config.metrics_path, name, elapsed)
            if warming_worker is not None:
                warmed = warming_worker.run_once(max_tasks=None)
                if warmed:
                    echo(f"[warm-ahead: replayed {warmed} missed queries after {name}]")
            if cache_stats:
                echo(
                    f"[cache after {name}: "
                    f"{active_backend().stats().summary()}{stats_scope}]"
                )
            if output_dir is not None:
                path = result.to_csv(Path(output_dir) / f"{name}.csv")
                echo(f"[rows written to {path}]")
            results[name] = result
        if cache_stats:
            echo(
                f"\n[cache backend {config.cache_backend!r} (run total): "
                f"{active_backend().stats().summary()}{stats_scope}]"
            )
    return results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the DP-starJ evaluation.",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        default=sorted(EXPERIMENTS),
        help="experiments to run (default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the higher-fidelity configuration (larger data, 10 trials)",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="override the number of trials per cell"
    )
    parser.add_argument(
        "--rows-per-scale-factor",
        type=int,
        default=None,
        help="override the fact rows generated per unit of scale factor",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help=(
            "worker processes for the trial scheduler (default 1 = serial; "
            "results are identical for any value)"
        ),
    )
    parser.add_argument(
        "--cache-backend",
        choices=CACHE_BACKENDS,
        default="local",
        help=(
            "cache backend of the run's execution engines: 'local' keeps every "
            "cache in-process; 'remote' lets pool workers share selection masks, "
            "data cubes and exact answers through a cache server (--cache-path "
            "embeds one for the run, --cache-url names a running one that batch "
            "and serving runs can both reach; results are identical either way)"
        ),
    )
    parser.add_argument(
        "--cache-url",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help=(
            "with --cache-backend remote: address of a running cache server "
            "(python -m repro.db.cache.server); a comma-separated list shards "
            "the keyspace across those servers on a consistent-hash ring "
            "(results are identical either way; see docs/CACHE.md)"
        ),
    )
    parser.add_argument(
        "--cache-replicas",
        type=int,
        default=1,
        metavar="N",
        help=(
            "with a sharded --cache-url list: write each entry to N distinct "
            "shards; reads fail over to a replica when the primary shard's "
            "circuit breaker is open, before degrading to local-only"
        ),
    )
    parser.add_argument(
        "--cache-path",
        default=None,
        metavar="FILE",
        help=(
            "with --cache-backend remote: start an embedded cache server "
            "persisting entries to this sqlite file instead of connecting to "
            "--cache-url; a later run against the same file starts warm"
        ),
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=192,
        help=(
            "maximum entries per bounded cache region (masks, contributions, "
            "results); an embedded cache server (--cache-path) is bounded at "
            "16x this value"
        ),
    )
    parser.add_argument(
        "--cache-policy",
        choices=EVICTION_POLICIES,
        default=DEFAULT_EVICTION_POLICY,
        help=(
            "eviction policy of every bounded cache tier: 'cost' keeps entries "
            "that are expensive to recompute per byte; 'lru' is classical "
            "recency (results are byte-identical for either choice)"
        ),
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "byte budget per bounded in-process cache region alongside the "
            "entry bound; cross-process tiers are bounded at 16x this value"
        ),
    )
    parser.add_argument(
        "--warm-ahead",
        action="store_true",
        help=(
            "replay observed cache misses through the engine between "
            "experiments (with --serve: between requests), pre-populating the "
            "cache tiers; results are byte-identical either way"
        ),
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="report cache hit/miss/eviction counters per experiment and per run",
    )
    parser.add_argument(
        "--storage",
        choices=("memory", "mapped"),
        default="memory",
        help=(
            "where generated instances live: 'memory' holds eager arrays; "
            "'mapped' spills each instance once to --data-dir and attaches it "
            "read-only, streaming the fact table chunk-wise so runs fit in a "
            "fraction of the data size and fork workers share one copy "
            "(results are byte-identical; see docs/STORAGE.md)"
        ),
    )
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for the mapped instances (required with --storage mapped)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="directory to write one CSV per experiment",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help=(
            "start the online query server instead of running experiments "
            "(python -m repro.serving with this invocation's seed and cache "
            "settings; see docs/SERVING.md)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address for --serve")
    parser.add_argument("--port", type=int, default=8642, help="bind port for --serve")
    parser.add_argument(
        "--ledger-path",
        default=None,
        metavar="FILE",
        help=(
            "with --serve: persist the per-analyst budget ledger to this "
            "sqlite journal so spent ε survives restarts and crashes"
        ),
    )
    parser.add_argument(
        "--trace-path",
        default=None,
        metavar="FILE",
        help=(
            "record request traces to this JSONL file (batch: one trace per "
            "experiment spanning scheduler cells, engine kernels and cache "
            "round-trips; with --serve: one per request); render with "
            "python -m repro.obs.summarize — results are byte-identical "
            "either way (see docs/OBSERVABILITY.md)"
        ),
    )
    parser.add_argument(
        "--metrics-path",
        default=None,
        metavar="FILE",
        help=(
            "append one unified telemetry snapshot (JSON line) per finished "
            "experiment; with --jobs > 1 the counters aggregate across the "
            "worker pool (batch runs only)"
        ),
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "with --serve: log requests slower than this threshold to "
            "--slow-query-path as structured JSONL"
        ),
    )
    parser.add_argument(
        "--slow-query-path",
        default=None,
        metavar="FILE",
        help="with --serve: destination of the slow-query log",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    config = ExperimentConfig.paper_scale() if args.full else ExperimentConfig.quick()
    if args.trials is not None:
        config.trials = args.trials
    if args.rows_per_scale_factor is not None:
        config.rows_per_scale_factor = args.rows_per_scale_factor
    if args.seed is not None:
        config.seed = args.seed
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    if args.cache_size < 1:
        print("--cache-size must be at least 1", file=sys.stderr)
        return 2
    if args.cache_max_bytes is not None and args.cache_max_bytes < 1:
        print("--cache-max-bytes must be at least 1", file=sys.stderr)
        return 2
    if args.cache_backend != "remote" and (args.cache_url or args.cache_path):
        print("--cache-url/--cache-path require --cache-backend remote", file=sys.stderr)
        return 2
    if args.cache_url and args.cache_path:
        print("pass either --cache-url or --cache-path, not both", file=sys.stderr)
        return 2
    if args.cache_backend == "remote" and not (args.cache_url or args.cache_path):
        print(
            "--cache-backend remote needs a server: --cache-url host:port "
            "(python -m repro.db.cache.server) or --cache-path file "
            "(embedded, persisted)",
            file=sys.stderr,
        )
        return 2
    if args.cache_replicas < 1:
        print("--cache-replicas must be >= 1", file=sys.stderr)
        return 2
    if args.cache_replicas > 1 and not (args.cache_url and "," in args.cache_url):
        print(
            "--cache-replicas > 1 requires a sharded --cache-url list "
            "(host:port,host:port,...)",
            file=sys.stderr,
        )
        return 2
    if args.ledger_path and not args.serve:
        print("--ledger-path only applies with --serve", file=sys.stderr)
        return 2
    if (args.slow_query_ms is not None or args.slow_query_path) and not args.serve:
        print("--slow-query-ms/--slow-query-path only apply with --serve", file=sys.stderr)
        return 2
    if (args.slow_query_ms is None) != (args.slow_query_path is None):
        print("--slow-query-ms and --slow-query-path go together", file=sys.stderr)
        return 2
    if args.metrics_path and args.serve:
        print(
            "--metrics-path only applies to batch runs; with --serve use the "
            "'telemetry' op",
            file=sys.stderr,
        )
        return 2
    if args.storage == "mapped" and args.data_dir is None:
        print("--storage mapped requires --data-dir", file=sys.stderr)
        return 2
    if args.data_dir is not None and args.storage != "mapped":
        print("--data-dir only applies with --storage mapped", file=sys.stderr)
        return 2
    config.jobs = args.jobs
    config.cache_backend = args.cache_backend
    config.cache_size = args.cache_size
    config.cache_policy = args.cache_policy
    config.cache_max_bytes = args.cache_max_bytes
    config.warm_ahead = args.warm_ahead
    config.cache_url = args.cache_url
    config.cache_replicas = args.cache_replicas
    config.cache_path = args.cache_path
    config.ledger_path = args.ledger_path
    config.storage = args.storage
    config.data_dir = str(args.data_dir) if args.data_dir is not None else None
    config.trace_path = args.trace_path
    config.metrics_path = args.metrics_path

    if args.serve:
        # Delegate to the serving entry point with this invocation's seed and
        # cache configuration (experiment selection flags do not apply).
        from repro.serving.server import main as serve_main

        serve_argv = [
            "--host", args.host,
            "--port", str(args.port),
            "--seed", str(config.seed),
            "--cache-backend", config.cache_backend,
            "--cache-size", str(config.cache_size),
            "--cache-policy", config.cache_policy,
        ]
        if config.cache_max_bytes is not None:
            serve_argv += ["--cache-max-bytes", str(config.cache_max_bytes)]
        if config.warm_ahead:
            serve_argv += ["--warm-ahead"]
        if config.cache_url:
            serve_argv += ["--cache-url", config.cache_url]
        if config.cache_replicas > 1:
            serve_argv += ["--cache-replicas", str(config.cache_replicas)]
        if config.cache_path:
            serve_argv += ["--cache-path", config.cache_path]
        if config.ledger_path:
            serve_argv += ["--ledger-path", config.ledger_path]
        if config.storage == "mapped":
            serve_argv += ["--storage", "mapped", "--data-dir", config.data_dir]
        if config.trace_path:
            serve_argv += ["--trace-path", config.trace_path]
        if args.slow_query_ms is not None:
            serve_argv += [
                "--slow-query-ms", str(args.slow_query_ms),
                "--slow-query-path", args.slow_query_path,
            ]
        return serve_main(serve_argv)

    try:
        run_experiments(
            args.only, config, output_dir=args.output_dir, cache_stats=args.cache_stats
        )
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
