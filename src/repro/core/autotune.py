"""Online SLO autotuning of the dynamic batcher.

The paper's guidance is static (pick a batch size from the Fig. 6
analysis); real load varies.  :class:`SLOAutotuner` closes the loop at
runtime: it periodically measures the recent p95 latency of a served
model and adjusts the batcher's queue-delay budget with an AIMD-style
rule — shrink multiplicatively when the SLO is violated, grow additively
when there is comfortable headroom (larger delay → larger batches →
better MFU, the Fig. 5 efficiency axis).

Runs entirely on the discrete-event simulator; the ablation bench shows
it tracking a load step that a static configuration misses.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.serving.batcher import BatcherConfig
from repro.serving.server import TritonLikeServer


@dataclasses.dataclass(frozen=True)
class TuningStep:
    """One controller decision (for post-run inspection)."""

    time: float
    observed_p95: float | None
    queue_delay: float
    action: str  # "shrink" | "grow" | "hold" | "idle"


class SLOAutotuner:
    """AIMD controller on ``max_queue_delay`` for one served model.

    Parameters
    ----------
    server / model:
        The serving stack and the model entry to control.
    target_p95_seconds:
        The latency SLO.
    interval_seconds:
        Control period (measurement window).
    shrink_factor / grow_step:
        Multiplicative decrease on violation, additive increase (in
        seconds) when p95 sits below ``headroom`` of the target.
    """

    def __init__(self, server: TritonLikeServer, model: str,
                 target_p95_seconds: float,
                 interval_seconds: float = 0.25,
                 min_delay: float = 1e-4, max_delay: float = 0.05,
                 shrink_factor: float = 0.5, grow_step: float = 1e-3,
                 headroom: float = 0.6):
        if not target_p95_seconds > 0 or not interval_seconds > 0:
            raise ValueError("target and interval must be positive")
        if not 0 < min_delay <= max_delay:
            raise ValueError("need 0 < min_delay <= max_delay")
        if not 0 < shrink_factor < 1:
            raise ValueError("shrink_factor must be in (0, 1)")
        if not 0 < headroom < 1:
            raise ValueError("headroom must be in (0, 1)")
        self.server = server
        self.model = model
        self.target = target_p95_seconds
        self.interval = interval_seconds
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.shrink_factor = shrink_factor
        self.grow_step = grow_step
        self.headroom = headroom
        self.history: list[TuningStep] = []
        self._seen = 0
        self._running = False

    # ------------------------------------------------------------------
    def start(self, duration: float | None = None) -> None:
        """Arm the control loop (optionally for a bounded duration)."""
        if self._running:
            raise RuntimeError("autotuner already started")
        self._running = True
        self._deadline = (None if duration is None
                          else self.server.sim.now + duration)
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._deadline is not None and \
                self.server.sim.now >= self._deadline:
            self._running = False
            return
        self.server.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        window = [r for r in self.server.responses[self._seen:]
                  if r.ok and r.request.model_name == self.model]
        self._seen = len(self.server.responses)
        config = self.server.batcher_config(self.model)
        delay = config.max_queue_delay

        if not window:
            self.history.append(TuningStep(self.server.sim.now, None,
                                           delay, "idle"))
            self._schedule_next()
            return

        p95 = float(np.percentile([r.latency for r in window], 95))
        if p95 > self.target:
            new_delay = max(self.min_delay, delay * self.shrink_factor)
            action = "shrink"
        elif p95 < self.headroom * self.target:
            new_delay = min(self.max_delay, delay + self.grow_step)
            action = "grow"
        else:
            new_delay = delay
            action = "hold"
        if new_delay != delay:
            self.server.reconfigure_batcher(
                self.model,
                dataclasses.replace(config, max_queue_delay=new_delay))
        self.history.append(TuningStep(self.server.sim.now, p95,
                                       new_delay, action))
        self._schedule_next()

    # ------------------------------------------------------------------
    @property
    def current_delay(self) -> float:
        """The batcher's live queue-delay setting."""
        return self.server.batcher_config(self.model).max_queue_delay

    def violations(self) -> int:
        """Control periods whose window p95 exceeded the target."""
        return sum(1 for step in self.history
                   if step.observed_p95 is not None
                   and step.observed_p95 > self.target)
