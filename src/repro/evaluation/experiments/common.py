"""Shared configuration and helpers for the experiment drivers.

The paper's setup (Section 6.1): relative error averaged over 10 independent
runs, privacy budgets ε ∈ {0.1, 0.2, 0.5, 0.8, 1}, SSB data at scale factors
0.25–1, and the Customer / Supplier / Part dimension tables as the realistic
private relations (the paper notes "sensitive information is mostly contained
in the dimension tables ... e.g. Customer").

:class:`ExperimentConfig` bundles those knobs; the defaults favour quick
laptop runs (smaller fact tables, 5 trials) and every driver accepts a custom
configuration (``ExperimentConfig.paper_scale()``) for higher-fidelity runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from zlib import crc32

import numpy as np

from repro.datagen.ssb import SSBConfig, SSBGenerator
from repro.db.database import StarDatabase
from repro.db.engine import ExecutionEngine
from repro.dp.neighboring import PrivacyScenario

__all__ = [
    "ExperimentConfig",
    "DEFAULT_PRIVATE_DIMENSIONS",
    "build_ssb_database",
    "cell_seed",
    "cell_stream",
    "engine_for",
    "clear_database_cache",
]


def cell_seed(*parts, modulus: int = 10_000) -> int:
    """A deterministic per-*dataset* seed offset derived from labels.

    CRC32 over the stringified labels is stable across processes and
    platforms.  This remains the scheme for data-generation seed offsets
    (which identify an *instance*); the noise streams of experiment cells use
    :func:`cell_stream` instead — the additive ``seed + crc32 % modulus``
    scheme folds the label space onto ``modulus`` values, so two cells can
    collide and share their noise.
    """
    text = "|".join(str(part) for part in parts)
    return crc32(text.encode("utf-8")) % modulus


def cell_stream(master_seed: int, *parts) -> np.random.SeedSequence:
    """The per-cell random stream for the experiment cell labelled ``parts``.

    The full cell label (experiment name, mechanism, query, ε, …) is hashed
    with SHA-256 into a :class:`numpy.random.SeedSequence` spawn key, giving
    every cell a collision-free stream (128 bits of key) that is a pure
    function of ``(master_seed, label)`` — independent of evaluation order
    and of which process runs the cell.  Per-trial generators are then split
    off with ``SeedSequence.spawn`` (see :func:`repro.rng.spawn`), which is
    what makes the parallel trial runner produce results identical to the
    serial loop.
    """
    label = "|".join(str(part) for part in parts)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    spawn_key = tuple(
        int.from_bytes(digest[index : index + 4], "little") for index in range(0, 16, 4)
    )
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=spawn_key)

#: The dimension tables treated as private in the evaluation: the entity
#: tables.  Date carries no personal information and is treated as public.
DEFAULT_PRIVATE_DIMENSIONS: tuple[str, ...] = ("Customer", "Supplier", "Part")

#: The privacy budgets of Table 1 / Figure 9 / Figure 11.
PAPER_EPSILONS: tuple[float, ...] = (0.1, 0.2, 0.5, 0.8, 1.0)

#: The scale factors of Figures 4 and 5.
PAPER_SCALES: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)


@dataclass
class ExperimentConfig:
    """Common experiment knobs.

    Parameters
    ----------
    epsilons:
        Privacy budgets to sweep.
    trials:
        Independent runs per (mechanism, query, ε) cell; the paper uses 10.
    scale_factor:
        SSB scale factor for single-scale experiments.
    rows_per_scale_factor:
        Fact rows per unit of scale factor (see
        :class:`repro.datagen.ssb.SSBConfig`).
    seed:
        Master seed; every cell derives its own stream from it.
    private_dimensions:
        The dimension tables considered private (drives R2T / LS / TM
        calibration).
    jobs:
        Worker processes for the trial scheduler; 1 (the default) evaluates
        every cell serially in-process.  Results are identical for any value
        (see :mod:`repro.evaluation.parallel`).
    cache_backend:
        Cache backend of the run's execution engines: ``"local"``
        (in-process, the default) or ``"remote"`` (pool workers share
        selection masks, cubes and exact answers through a cache server —
        embedded for the run with ``cache_path``, or a running one named by
        ``cache_url`` that other runs and serving processes share too; see
        :mod:`repro.db.cache`).  Results are identical for either value.
    cache_size:
        Maximum entries per bounded cache region (masks, contributions,
        results); statistics regions are unbounded.
    cache_policy:
        Eviction policy of every bounded cache tier: ``"cost"`` (the
        default) keeps the entries that are expensive to recompute per
        byte; ``"lru"`` is classical recency.  Results are byte-identical
        under either policy — eviction only changes what gets recomputed.
    cache_max_bytes:
        Optional byte budget per bounded in-process cache region alongside
        the entry bound (an embedded cache server is bounded at 16 × this,
        mirroring the entry convention).  ``None`` (the default) bounds by
        entry count only.
    warm_ahead:
        Replay observed exact-answer misses through the engine after each
        experiment, pre-populating the put-through cache server (remote
        backend) for the experiments that follow.  Off by default; results
        are byte-identical either way.
    cache_url:
        ``host:port`` of a running cache server
        (``python -m repro.db.cache.server``); only meaningful with
        ``cache_backend="remote"``.  A comma-separated list shards the
        keyspace across those servers on a consistent-hash ring (results
        are byte-identical either way; see ``docs/CACHE.md``).
    cache_replicas:
        With a sharded ``cache_url`` list: how many distinct shards hold
        each entry.  Reads fail over to a replica when the primary shard's
        circuit breaker is open, before degrading to local-only.
    cache_path:
        Alternative to ``cache_url``: a sqlite file an *embedded* cache
        server (started and stopped with the run) persists entries to, so a
        later run — batch or serving — starts warm.
    ledger_path:
        Sqlite journal the serving budget ledger persists charges to
        (``--serve`` runs only): spent ε survives server restarts and
        crashes (see :mod:`repro.serving.durable`).  Batch experiments
        ignore it — their privacy accounting is per-run by design.
    storage:
        Where generated instances live: ``"memory"`` (eager arrays, the
        default) or ``"mapped"`` (each instance is spilled once to the
        mapped on-disk layout under ``data_dir`` and attached read-only, so
        the engine streams the fact table chunk-wise and fork workers share
        one copy through the page cache — see ``docs/STORAGE.md``).  Results
        are byte-identical for either value.
    data_dir:
        Directory the mapped instances are spilled to / attached from.
        Required when ``storage="mapped"``.
    trace_path:
        Record request traces (one JSON line per span) to this file for the
        whole run — experiments, scheduler cells, engine kernels and cache
        round-trips land in one connected trace per experiment.  ``None``
        (the default) disables tracing; answers are byte-identical either
        way (see ``docs/OBSERVABILITY.md``).
    metrics_path:
        Append one unified telemetry snapshot (JSON line) per experiment to
        this file — the batch-run counterpart of the serving ``telemetry``
        op.  With ``jobs > 1`` the session installs a fork-shared registry,
        so worker increments aggregate into the dumped snapshots.
    """

    epsilons: tuple[float, ...] = PAPER_EPSILONS
    trials: int = 5
    scale_factor: float = 1.0
    rows_per_scale_factor: int = 240_000
    seed: int = 20230711
    private_dimensions: tuple[str, ...] = DEFAULT_PRIVATE_DIMENSIONS
    jobs: int = 1
    cache_backend: str = "local"
    cache_size: int = 192
    cache_policy: str = "cost"
    cache_max_bytes: Optional[int] = None
    warm_ahead: bool = False
    cache_url: Optional[str] = None
    cache_replicas: int = 1
    cache_path: Optional[str] = None
    ledger_path: Optional[str] = None
    storage: str = "memory"
    data_dir: Optional[str] = None
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A minutes-scale configuration for CI and pytest-benchmark runs."""
        return cls(epsilons=(0.1, 0.5, 1.0), trials=3, rows_per_scale_factor=60_000)

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """A higher-fidelity configuration (larger fact table, 10 trials)."""
        return cls(trials=10, rows_per_scale_factor=1_200_000)

    @property
    def scenario(self) -> PrivacyScenario:
        return PrivacyScenario.dimensions(*self.private_dimensions)

    def ssb_config(
        self,
        scale_factor: Optional[float] = None,
        key_distribution: str = "uniform",
        measure_distribution: str = "uniform",
        seed_offset: int = 0,
    ) -> SSBConfig:
        return SSBConfig(
            scale_factor=scale_factor if scale_factor is not None else self.scale_factor,
            rows_per_scale_factor=self.rows_per_scale_factor,
            key_distribution=key_distribution,
            measure_distribution=measure_distribution,
            seed=self.seed + seed_offset,
        )


#: Generated instances cached by their full generator configuration, so the
#: experiment drivers (which rebuild the same instances figure after figure)
#: share one database — and therefore one ExecutionEngine — per configuration.
_DATABASE_CACHE: dict[tuple, StarDatabase] = {}
_DATABASE_CACHE_MAX = 6


def clear_database_cache() -> None:
    """Drop the generated-instance cache (frees memory between suites)."""
    _DATABASE_CACHE.clear()


def _mapped_instance(ssb_config: SSBConfig, key: tuple, data_dir: str) -> StarDatabase:
    """Attach (spilling first if absent) the mapped copy of one instance.

    The instance directory name is a pure function of the generator knobs, so
    every process — the driver, each fork worker resolving the same builder,
    a later run with the same configuration — lands on the same files.  The
    spill itself is idempotent and race-safe (see
    :func:`repro.db.storage.spill_database`), so concurrent workers resolve
    to one copy and share it through the page cache.
    """
    from repro.db.storage import MANIFEST_NAME, attach_database

    scale, rows, key_dist, measure_dist, seed = key
    instance_dir = Path(data_dir) / (
        f"ssb-sf{scale}-rows{rows}-{key_dist}-{measure_dist}-seed{seed}"
    )
    manifest = instance_dir / MANIFEST_NAME
    if not manifest.is_file():
        SSBGenerator(ssb_config).spill_to(instance_dir)
    return attach_database(instance_dir)


def build_ssb_database(
    config: ExperimentConfig,
    scale_factor: Optional[float] = None,
    key_distribution: str = "uniform",
    measure_distribution: str = "uniform",
    seed_offset: int = 0,
) -> StarDatabase:
    """Generate (or reuse) the SSB instance an experiment runs on.

    Generation is deterministic in the configuration, so instances are cached
    by their knobs; distribution objects (rather than names) bypass the cache.
    With ``config.storage == "mapped"`` the instance is spilled once under
    ``config.data_dir`` and attached read-only instead of being held as eager
    arrays — answers are byte-identical either way (sampler *objects* cannot
    be named deterministically on disk, so they always build in memory).
    """
    ssb_config = config.ssb_config(
        scale_factor=scale_factor,
        key_distribution=key_distribution,
        measure_distribution=measure_distribution,
        seed_offset=seed_offset,
    )
    cacheable = isinstance(key_distribution, str) and isinstance(measure_distribution, str)
    if not cacheable:
        return SSBGenerator(ssb_config).build()
    mapped = config.storage == "mapped"
    if mapped and not config.data_dir:
        raise ValueError('storage="mapped" requires data_dir')
    key = (
        ssb_config.scale_factor,
        ssb_config.rows_per_scale_factor,
        key_distribution,
        measure_distribution,
        ssb_config.seed,
    )
    cache_key = key + ((config.storage, config.data_dir) if mapped else ())
    database = _DATABASE_CACHE.get(cache_key)
    if database is None:
        if mapped:
            database = _mapped_instance(ssb_config, key, config.data_dir)
        else:
            database = SSBGenerator(ssb_config).build()
        while len(_DATABASE_CACHE) >= _DATABASE_CACHE_MAX:
            _DATABASE_CACHE.pop(next(iter(_DATABASE_CACHE)))
        _DATABASE_CACHE[cache_key] = database
    return database


def engine_for(database: StarDatabase) -> ExecutionEngine:
    """The shared execution engine of ``database`` (one per instance)."""
    return ExecutionEngine.for_database(database)
