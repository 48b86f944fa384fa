"""Declaring a sweep: the grid, the worker, and the seed contract.

A :class:`SweepSpec` names *what* to run — a worker function resolvable
by import path — and *over which points*: an explicit ``grid`` of
parameter dicts, a cartesian product of ``axes``, or both, each point
optionally replicated ``replications`` times with an independent
derived seed (Monte Carlo seed replication for the sampled
faas/network regimes).

The worker is a string (``"repro.sweep.workloads:replay_sparse_diurnal"``)
rather than a callable on purpose: a callable would drag its closure
through pickle into every pool worker, which breaks under the ``spawn``
start method and quietly captures parent state under ``fork``.  An
import path re-resolves inside the worker process, so the same spec is
spawn-safe and fork-safe.

Seed derivation is the determinism anchor: ``derive_seed(base, index)``
hashes the base seed and the shard index with SHA-256, so a shard's
seed depends only on its position in the grid — never on worker count,
submission order, or completion order — and a retried shard reruns
with *exactly* the seed of its failed attempt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
from collections.abc import Callable, Mapping, Sequence

from repro.bounds import within


def derive_seed(base: int, shard_index: int) -> int:
    """Derive shard ``shard_index``'s seed from the sweep's base seed.

    SHA-256 over the ``"base:index"`` string, truncated to 63 bits (so
    it stays a non-negative int for every RNG API).  Stable across
    processes, platforms, and Python versions — unlike ``hash()``,
    which ``PYTHONHASHSEED`` randomizes per interpreter.

    >>> derive_seed(7, 0) == derive_seed(7, 0)
    True
    >>> derive_seed(7, 0) != derive_seed(7, 1)
    True
    """
    if shard_index < 0:
        raise ValueError("shard_index must be >= 0")
    digest = hashlib.sha256(
        f"{int(base)}:{int(shard_index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def resolve_worker(path: str) -> Callable[[dict], object]:
    """Resolve a ``"module:function"`` (or ``"module.function"``) path.

    Raises ``ValueError`` when the path does not name an importable
    module-level callable — the shape required for the function to be
    re-resolvable inside a spawned worker process.
    """
    module_name, sep, attr = path.partition(":")
    if not sep:
        module_name, _, attr = path.rpartition(".")
    if not module_name or not attr:
        raise ValueError(
            f"worker path {path!r} must look like 'pkg.module:function'")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ValueError(
            f"cannot import worker module {module_name!r}: {exc}"
        ) from exc
    worker = getattr(module, attr, None)
    if worker is None:
        raise ValueError(
            f"module {module_name!r} has no attribute {attr!r}")
    if not callable(worker):
        raise ValueError(f"worker {path!r} is not callable")
    return worker


@dataclasses.dataclass(frozen=True)
class Shard:
    """One unit of sweep work: a grid point × replication.

    ``params`` is the complete dict handed to the worker; it already
    carries ``seed`` (derived), ``shard_index``, and ``replication``.
    """

    index: int
    seed: int
    params: dict


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """An embarrassingly-parallel simulation grid.

    Parameters
    ----------
    worker:
        Import path of the shard function (``"pkg.module:function"``).
        It receives one ``params`` dict and returns a picklable result.
    grid:
        Explicit parameter points (list of dicts).  When ``axes`` is
        also given, each grid point is crossed with the axes product.
    axes:
        ``{name: values}`` — the cartesian product (in the given axis
        order, last axis fastest) generates one point per combination.
    base_params:
        Defaults merged under every point.
    replications:
        Seed-replication count per point: each point runs this many
        times, every replication an independent shard with its own
        derived seed.
    base_seed:
        Root of the seed derivation (see :func:`derive_seed`).
    expected_cost:
        Optional ``params -> float`` estimating a shard's runtime.
        The runner submits costlier shards first (longest expected job
        first), which shortens the tail when shard costs are skewed.
        Scheduling only — results are merged in shard-index order, so
        a bad estimate can slow the sweep but never change its output.
    """

    worker: str
    grid: Sequence[Mapping] | None = None
    axes: Mapping[str, Sequence] | None = None
    base_params: Mapping = dataclasses.field(default_factory=dict)
    replications: int = 1
    base_seed: int = 0
    expected_cost: Callable[[dict], float] | None = None

    def __post_init__(self) -> None:
        within("replications", self.replications, "[1, inf)")
        if self.grid is not None and len(self.grid) == 0:
            raise ValueError("an explicit grid cannot be empty")
        # With neither grid nor axes the spec is a pure seed-replication
        # set over one implicit point — replications is the whole grid.
        resolve_worker(self.worker)  # fail at declaration, not dispatch

    def points(self) -> list[dict]:
        """The parameter points before replication, in grid order."""
        bases = [dict(p) for p in self.grid] if self.grid else [{}]
        if not self.axes:
            return [{**self.base_params, **base} for base in bases]
        names = list(self.axes)
        out = []
        for base in bases:
            for combo in itertools.product(
                    *(self.axes[name] for name in names)):
                out.append({**self.base_params, **base,
                            **dict(zip(names, combo))})
        return out

    def shards(self) -> list[Shard]:
        """Every shard, in index order (point-major, replication-minor).

        The index — and therefore the derived seed — depends only on
        the spec itself, never on how the runner schedules the work.
        """
        shards = []
        index = 0
        for point in self.points():
            for replication in range(self.replications):
                seed = derive_seed(self.base_seed, index)
                params = dict(point)
                params["seed"] = seed
                params["shard_index"] = index
                params["replication"] = replication
                shards.append(Shard(index=index, seed=seed,
                                    params=params))
                index += 1
        return shards

    def cost_of(self, shard: Shard) -> float:
        """Expected cost of one shard (0 when no estimator is set)."""
        if self.expected_cost is None:
            return 0.0
        return float(self.expected_cost(shard.params))
