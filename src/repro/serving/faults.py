"""Fault injection for the serving substrate.

Field deployments fail in ways benchmarks don't: a backend instance
crashes mid-batch (driver resets on the thermally-stressed Jetson,
preempted cloud jobs).  :class:`FaultModel` injects such failures
deterministically into backend executions; the server detects them after
a timeout and retries the affected requests up to a retry budget, after
which they complete with ``status="failed"``.

:class:`LinkOutageModel` injects *connectivity* failures: alternating
up/down windows on a continuum link (a rural LTE cell dropping out, a
farm AP rebooting).  The continuum's
:class:`~repro.continuum.uplink.StoreAndForward` buffer consumes the
windows so outages degrade to delayed delivery.

Used by the failure-injection tests and the resilience ablation: what
does a 1% instance-failure rate cost in tail latency and goodput?
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.bounds import within


@dataclasses.dataclass
class FaultModel:
    """Per-execution failure process.

    Parameters
    ----------
    failure_probability:
        Chance that one batch execution fails.
    detect_seconds:
        Time until the scheduler notices (health-check interval); the
        batch occupies the instance for this long before failing.
    seed:
        Deterministic stream — simulations stay reproducible.
    """

    failure_probability: float
    detect_seconds: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        within("failure_probability", self.failure_probability, "[0, 1]")
        within("detect_seconds", self.detect_seconds, "[0, inf)")
        self._rng = np.random.default_rng(self.seed)
        self.injected = 0

    def draw_failure(self) -> bool:
        """Whether the next execution fails."""
        failed = bool(self._rng.random() < self.failure_probability)
        if failed:
            self.injected += 1
        return failed


@dataclasses.dataclass
class LinkOutageModel:
    """Alternating up/down windows for a continuum link.

    Two construction modes:

    * **Explicit** — pass ``windows`` as ``(start, end)`` pairs (the
      deterministic CLI/scenario form).
    * **Sampled** — leave ``windows`` empty and give mean up/down
      durations; :meth:`windows_until` draws alternating exponential
      intervals from the seeded stream (same seed, same outages).

    Consumed by :class:`~repro.continuum.uplink.StoreAndForward`, which
    buffers transfers submitted inside a window and drains them at the
    window's end.
    """

    windows: tuple[tuple[float, float], ...] = ()
    mean_up_seconds: float = 60.0
    mean_down_seconds: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        within("mean_up_seconds", self.mean_up_seconds, "(0, inf)")
        within("mean_down_seconds", self.mean_down_seconds, "(0, inf)")
        for start, end in self.windows:
            if not 0 <= start < end:
                raise ValueError(
                    f"bad outage window ({start}, {end})")

    def windows_until(self, horizon: float
                      ) -> list[tuple[float, float]]:
        """Outage windows intersecting ``[0, horizon)``, in order."""
        within("horizon", horizon, "(0, inf)")
        if self.windows:
            return [(start, min(end, horizon))
                    for start, end in self.windows if start < horizon]
        rng = np.random.default_rng(self.seed)
        out: list[tuple[float, float]] = []
        t = 0.0
        while True:
            t += float(rng.exponential(self.mean_up_seconds))
            if t >= horizon:
                return out
            down = float(rng.exponential(self.mean_down_seconds))
            out.append((t, min(t + down, horizon)))
            t += down
