"""Process-parallel sweep engine with deterministic merge.

This package fans embarrassingly-parallel simulation grids across host
processes — a different axis of parallelism from
:mod:`repro.scale.parallel`, which *models* data-parallel replica
groups inside one simulation.  Here the simulations themselves are the
unit of work: each shard is one seeded run, executed in a worker
process, whose metrics fold back into a single deterministic result.

The three-layer contract:

* :mod:`repro.sweep.spec` — declare the grid.  :class:`SweepSpec`
  names a worker by import path (spawn-safe) and derives per-shard
  seeds from ``(base_seed, shard_index)`` only, so results never
  depend on worker count or completion order.
* :mod:`repro.sweep.runner` — execute it.  :class:`SweepRunner` fans
  shards over a ``ProcessPoolExecutor`` (longest expected job first),
  captures per-shard faults as structured :class:`ShardError` values
  with one bounded retry, and re-sorts outcomes by shard index.
* :mod:`repro.sweep.merge` — reduce it.  Mergeable summaries compute
  quantiles by bucket re-accumulation (never quantile averaging), and
  registry folds are commutative, so 1-worker and 16-worker sweeps
  produce byte-identical scrapes and tables.  A sim-time profile of
  the merged sweep is a function of the merged registry
  (:func:`repro.serving.profiler.profile_run`), so it needs no merge
  of its own.
"""

from repro.sweep.merge import (
    BucketSummary,
    merge_registries,
    merge_summaries,
    normal_ci,
)
from repro.sweep.runner import (
    ShardError,
    ShardOutcome,
    SweepError,
    SweepResult,
    SweepRunner,
)
from repro.sweep.spec import Shard, SweepSpec, derive_seed, resolve_worker

__all__ = [
    "BucketSummary",
    "Shard",
    "ShardError",
    "ShardOutcome",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "derive_seed",
    "merge_registries",
    "merge_summaries",
    "normal_ci",
    "resolve_worker",
]
