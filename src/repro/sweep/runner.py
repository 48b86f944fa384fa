"""Fan a deterministic sweep out over a process pool, safely.

``SweepRunner`` executes a :class:`~repro.sweep.spec.SweepSpec` with
``jobs`` worker processes (inline in this process when ``jobs <= 1`` —
same code path, no pool) and returns a :class:`SweepResult` whose
shard outcomes are **always in shard-index order**, whatever order the
pool completed them in.  That re-sort, plus per-shard derived seeds,
is the determinism contract: a 1-worker and a 16-worker run of the
same spec produce byte-identical merged output.

Fault handling is structured, bounded, and pool-preserving:

* a shard that raises is captured *inside* the worker process —
  traceback text and all — and comes back as a :class:`ShardError`
  carrying the shard's params, so no exception object ever has to
  survive pickling through the result queue (unpicklable exceptions
  are the classic way to wedge a ``ProcessPoolExecutor``);
* each failed shard is retried once (``retries=1``), re-running with
  *exactly* the same derived seed — a retry can never change what a
  successful shard computes;
* an optional sweep-wide ``timeout_seconds`` converts stuck shards to
  ``ShardError`` outcomes and tears the pool down (terminating its
  processes) instead of waiting forever;
* a broken pool (a worker hard-killed mid-run) marks the unfinished
  shards failed rather than raising out of the collection loop.

This is **host-process** parallelism across *independent simulations*
— one process per shard, no shared state, results merged after the
fact.  It is orthogonal to :mod:`repro.scale.parallel`, which *models*
data-parallel replica groups inside a single simulation.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
import traceback as traceback_module
from concurrent.futures.process import BrokenProcessPool

from repro.bounds import within
from repro.sweep.spec import Shard, SweepSpec, resolve_worker


def _execute_shard(worker_path: str, index: int, params: dict) -> tuple:
    """Pool entry point: run one shard, never raise.

    Returns ``(index, wall_seconds, payload, error_fields_or_None)``.
    Exceptions are rendered to strings here, in the worker process,
    because the exception *object* may not survive the pickle trip
    home — its string form always does.
    """
    start = time.perf_counter()
    try:
        worker = resolve_worker(worker_path)
        payload = worker(dict(params))
        return index, time.perf_counter() - start, payload, None
    except Exception as exc:
        fields = (type(exc).__name__, str(exc),
                  traceback_module.format_exc())
        return index, time.perf_counter() - start, None, fields


@dataclasses.dataclass(frozen=True)
class ShardError:
    """A shard's structured failure: what ran, with what, and why.

    ``traceback`` is the worker-side traceback text of the *last*
    attempt; ``attempts`` counts how many times the shard ran.  The
    params (seed included) are attached so the failure is reproducible
    with ``resolve_worker(spec.worker)(error.params)``.
    """

    shard_index: int
    seed: int
    params: dict
    error_type: str
    message: str
    traceback: str
    attempts: int

    def summary(self) -> str:
        """One-line human rendering: shard, seed, attempts, error."""
        return (f"shard {self.shard_index} (seed {self.seed}) failed "
                f"after {self.attempts} attempt"
                f"{'s' if self.attempts != 1 else ''}: "
                f"{self.error_type}: {self.message}")


@dataclasses.dataclass(frozen=True)
class ShardOutcome:
    """One shard's result slot, success or failure."""

    index: int
    seed: int
    params: dict
    #: The worker's return value (None on failure).
    value: object | None
    #: Structured failure (None on success).
    error: ShardError | None
    attempts: int
    #: Worker-measured wall seconds of the last attempt (0.0 when the
    #: shard never ran, e.g. a timeout before dispatch).  Wall time is
    #: nondeterministic — report it, never merge on it.
    wall_seconds: float

    @property
    def ok(self) -> bool:
        """True when the shard produced a value (no :class:`ShardError`)."""
        return self.error is None


class SweepError(RuntimeError):
    """Raised by :meth:`SweepResult.raise_on_error` when shards failed."""

    def __init__(self, errors: list[ShardError]):
        self.errors = errors
        lines = [error.summary() for error in errors]
        super().__init__(
            f"{len(errors)} sweep shard(s) failed:\n" + "\n".join(lines))


@dataclasses.dataclass
class SweepResult:
    """All shard outcomes of one sweep, in shard-index order."""

    shards: list[ShardOutcome]
    #: Parent-measured wall seconds for the whole sweep.
    wall_seconds: float
    jobs: int

    def values(self) -> list[object]:
        """Successful shard payloads, in shard-index order.

        Failed shards are *skipped* here — check :meth:`errors` (or
        call :meth:`raise_on_error`) before merging if partial results
        would corrupt the reduction.
        """
        return [s.value for s in self.shards if s.ok]

    def errors(self) -> list[ShardError]:
        """Every shard failure, in shard-index order."""
        return [s.error for s in self.shards if s.error is not None]

    def raise_on_error(self) -> "SweepResult":
        """Raise :class:`SweepError` if any shard failed; else self."""
        errors = self.errors()
        if errors:
            raise SweepError(errors)
        return self


class SweepRunner:
    """Execute a :class:`SweepSpec` across processes, deterministically.

    Parameters
    ----------
    jobs:
        Worker process count.  ``jobs <= 1`` runs every shard inline in
        this process — the same ``_execute_shard`` path, so retry and
        fault semantics are identical and tests of either mode cover
        both.
    mp_context:
        A ``multiprocessing`` context (e.g.
        ``multiprocessing.get_context("spawn")``).  ``None`` uses the
        platform default (``fork`` on Linux — cheapest); the engine is
        spawn-safe by construction either way.
    retries:
        Bounded re-runs per failed shard (default 1).  Retries reuse
        the shard's derived seed, so a flaky-environment retry that
        succeeds is indistinguishable from a first-try success.
    timeout_seconds:
        Optional wall-clock budget for the whole sweep.  On expiry the
        pool is shut down (worker processes terminated), and every
        unfinished shard becomes a ``ShardError`` outcome.
    """

    def __init__(self, jobs: int = 1, mp_context=None, retries: int = 1,
                 timeout_seconds: float | None = None):
        within("jobs", jobs, "[1, inf)")
        within("retries", retries, "[0, inf)")
        if timeout_seconds is not None:
            within("timeout_seconds", timeout_seconds, "(0, inf)")
        self.jobs = jobs
        self.mp_context = mp_context
        self.retries = retries
        self.timeout_seconds = timeout_seconds

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Run every shard; return outcomes in shard-index order."""
        shards = spec.shards()
        start = time.perf_counter()
        if not shards:
            return SweepResult(shards=[], wall_seconds=0.0,
                               jobs=self.jobs)
        # Longest expected job first: submission order only.  The tie
        # break on index keeps scheduling itself reproducible.
        order = sorted(shards,
                       key=lambda s: (-spec.cost_of(s), s.index))
        if self.jobs == 1 or len(shards) == 1:
            outcomes = [self._run_inline(spec, shard)
                        for shard in order]
        else:
            outcomes = self._run_pool(spec, order)
        outcomes.sort(key=lambda outcome: outcome.index)
        return SweepResult(shards=outcomes,
                           wall_seconds=time.perf_counter() - start,
                           jobs=self.jobs)

    # ------------------------------------------------------------------
    def _run_inline(self, spec: SweepSpec, shard: Shard) -> ShardOutcome:
        attempts = 0
        while True:
            attempts += 1
            index, wall, payload, error = _execute_shard(
                spec.worker, shard.index, shard.params)
            if error is None:
                return ShardOutcome(
                    index=shard.index, seed=shard.seed,
                    params=shard.params, value=payload, error=None,
                    attempts=attempts, wall_seconds=wall)
            if attempts > self.retries:
                error_type, message, trace = error
                return ShardOutcome(
                    index=shard.index, seed=shard.seed,
                    params=shard.params, value=None,
                    error=ShardError(
                        shard_index=shard.index, seed=shard.seed,
                        params=shard.params, error_type=error_type,
                        message=message, traceback=trace,
                        attempts=attempts),
                    attempts=attempts, wall_seconds=wall)

    # ------------------------------------------------------------------
    def _run_pool(self, spec: SweepSpec,
                  order: list[Shard]) -> list[ShardOutcome]:
        deadline = (None if self.timeout_seconds is None
                    else time.perf_counter() + self.timeout_seconds)
        by_index = {shard.index: shard for shard in order}
        attempts: dict[int, int] = {shard.index: 0 for shard in order}
        outcomes: dict[int, ShardOutcome] = {}
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.jobs, len(order)),
            mp_context=self.mp_context)
        pending: dict = {}
        clean_shutdown = True
        try:
            for shard in order:
                attempts[shard.index] += 1
                future = executor.submit(_execute_shard, spec.worker,
                                         shard.index, shard.params)
                pending[future] = shard
            while pending:
                remaining = (None if deadline is None
                             else max(0.0, deadline - time.perf_counter()))
                done, _ = concurrent.futures.wait(
                    pending, timeout=remaining,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                if not done:  # sweep timeout expired
                    clean_shutdown = False
                    self._fail_pending(pending, attempts, outcomes,
                                       "TimeoutError",
                                       f"sweep exceeded its "
                                       f"{self.timeout_seconds}s budget")
                    self._terminate(executor)
                    break
                for future in done:
                    shard = pending[future]
                    try:
                        index, wall, payload, error = future.result()
                    except BrokenProcessPool:
                        # Leave the shard in ``pending`` so the outer
                        # handler records the real failure reason.
                        raise
                    except Exception as exc:
                        # The payload failed to unpickle (or similar
                        # transport fault): structured failure, and the
                        # pool itself is still alive.
                        error = (type(exc).__name__, str(exc),
                                 traceback_module.format_exc())
                        index, wall, payload = shard.index, 0.0, None
                    del pending[future]
                    if error is None:
                        outcomes[index] = ShardOutcome(
                            index=index, seed=shard.seed,
                            params=shard.params, value=payload,
                            error=None, attempts=attempts[index],
                            wall_seconds=wall)
                    elif attempts[index] <= self.retries:
                        attempts[index] += 1
                        retry = executor.submit(
                            _execute_shard, spec.worker, shard.index,
                            shard.params)
                        pending[retry] = shard
                    else:
                        error_type, message, trace = error
                        outcomes[index] = ShardOutcome(
                            index=index, seed=shard.seed,
                            params=shard.params, value=None,
                            error=ShardError(
                                shard_index=index, seed=shard.seed,
                                params=shard.params,
                                error_type=error_type, message=message,
                                traceback=trace,
                                attempts=attempts[index]),
                            attempts=attempts[index], wall_seconds=wall)
        except BrokenProcessPool as exc:
            # A worker died hard (OOM-kill, segfault): everything not
            # yet completed fails structurally instead of hanging or
            # raising past the already-collected results.
            clean_shutdown = False
            self._fail_pending(pending, attempts, outcomes,
                               "BrokenProcessPool", str(exc))
        finally:
            # A completed sweep joins the pool properly — leaving the
            # management thread to die asynchronously makes the
            # interpreter's atexit hook poke a closed wakeup pipe
            # ("Exception ignored" noise at exit).  Only a timed-out or
            # broken pool, whose workers were terminated, is abandoned
            # without waiting.
            executor.shutdown(wait=clean_shutdown, cancel_futures=True)
        # Shards that never got an outcome (pathological teardown
        # races) fail explicitly — the result always has every index.
        for index, shard in by_index.items():
            if index not in outcomes:
                outcomes[index] = self._synthetic_failure(
                    shard, attempts[index], "RuntimeError",
                    "shard lost during pool teardown")
        return list(outcomes.values())

    def _fail_pending(self, pending: dict, attempts: dict,
                      outcomes: dict, error_type: str,
                      message: str) -> None:
        for future, shard in pending.items():
            future.cancel()
            outcomes[shard.index] = self._synthetic_failure(
                shard, attempts[shard.index], error_type, message)
        pending.clear()

    @staticmethod
    def _synthetic_failure(shard: Shard, attempts: int,
                           error_type: str, message: str) -> ShardOutcome:
        return ShardOutcome(
            index=shard.index, seed=shard.seed, params=shard.params,
            value=None,
            error=ShardError(
                shard_index=shard.index, seed=shard.seed,
                params=shard.params, error_type=error_type,
                message=message, traceback="", attempts=attempts),
            attempts=attempts, wall_seconds=0.0)

    @staticmethod
    def _terminate(executor) -> None:
        """Kill worker processes so a stuck shard cannot outlive us."""
        processes = getattr(executor, "_processes", None)
        if not processes:
            return
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
