"""SLO error budgets and multi-window burn-rate alerting.

The HARVEST real-time scenario hinges on a hard deadline — 60 QPS at a
16.7 ms frame budget (Section 2.2.3) — and a one-off p95 readout cannot
say whether a deployment *sustains* it.  The SRE-standard answer is an
error budget: with an objective of 99 % of requests under the threshold,
1 % of requests may violate it; the **burn rate** is how many times
faster than that allowance violations are arriving.  A burn rate of 1
exactly exhausts the budget over the period; 14.4 exhausts it 14.4×
faster.  Alerting on two windows at once — a *fast* window for
reactivity and a *slow* window for evidence — is the standard
multi-window multi-burn-rate rule: both must burn before an alert
fires, so a single slow batch cannot page but a genuine overload pages
within the fast window.

:class:`SLOMonitor` runs as a periodic task on the simulator clock and
reads violations the way a production alerter would: windowed deltas of
a :class:`~repro.serving.observability.Histogram` in the shared
:class:`~repro.serving.observability.MetricsRegistry` (the server's
``request_latency_seconds`` or the continuum replayer's
``continuum_latency_seconds``), never by walking response objects.
Counting is conservative: any observation in the bucket containing the
threshold counts as a violation, so the monitor never under-reports a
breach.  Alerts go to registered callbacks — wire
:meth:`~repro.scale.autoscaler.Autoscaler.notify_slo_alert` to use
sustained budget burn as a scale-out signal.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from collections import deque
from collections.abc import Callable

from repro.bounds import within
from repro.serving.observability import Histogram, MetricsRegistry


@dataclasses.dataclass(frozen=True)
class SLOConfig:
    """The objective and the alerting policy around it.

    ``objective`` is the fraction of requests that must finish under
    ``latency_threshold_seconds``; ``1 - objective`` is the error
    budget.  The default burn thresholds are the classic page-worthy
    pair (14.4 on the fast window, 6 on the slow one, both required).
    """

    latency_threshold_seconds: float
    objective: float = 0.99
    interval: float = 0.25
    fast_window_seconds: float = 1.0
    slow_window_seconds: float = 10.0
    fast_burn_threshold: float = 14.4
    slow_burn_threshold: float = 6.0
    #: Minimum completions inside the fast window before an alert may
    #: fire (tiny windows make noisy rates).
    min_window_samples: int = 5
    #: While the burn condition holds continuously, re-alert at most
    #: every this many seconds (0 = alert on every burning tick).
    rearm_seconds: float = 5.0

    def __post_init__(self) -> None:
        within("latency_threshold_seconds",
               self.latency_threshold_seconds, "(0, inf)")
        within("objective", self.objective, "(0, 1)")
        within("interval", self.interval, "(0, inf)")
        within("fast_window_seconds", self.fast_window_seconds, "(0, inf)")
        within("slow_window_seconds", self.slow_window_seconds, "(0, inf)")
        if self.slow_window_seconds < self.fast_window_seconds:
            raise ValueError("windows must be positive with slow >= fast")
        within("fast_burn_threshold", self.fast_burn_threshold, "(0, inf)")
        within("slow_burn_threshold", self.slow_burn_threshold, "(0, inf)")
        within("min_window_samples", self.min_window_samples, "[1, inf)")
        within("rearm_seconds", self.rearm_seconds, "[0, inf)")


class _Window:
    """The ticks inside one trailing window and their running sums.

    A tick at ``time`` is inside the window at ``now`` while
    ``time > now - seconds``; ticks arrive in time order, so every
    push evicts from the left exactly the ticks that left the window
    and keeps ``(violations, total)`` equal to the sum over the rest.
    """

    __slots__ = ("seconds", "ticks", "violations", "total")

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.ticks: deque[tuple[float, int, int]] = deque()
        self.violations = 0
        self.total = 0

    def push(self, now: float, violations: int, total: int) -> None:
        """Add the tick at ``now`` and evict the ticks now outside."""
        ticks = self.ticks
        ticks.append((now, violations, total))
        self.violations += violations
        self.total += total
        horizon = now - self.seconds
        while ticks and ticks[0][0] <= horizon:
            _, old_violations, old_total = ticks.popleft()
            self.violations -= old_violations
            self.total -= old_total


@dataclasses.dataclass(frozen=True)
class BurnAlert:
    """One burn-rate alert: both windows exceeded their thresholds."""

    time: float
    fast_burn_rate: float
    slow_burn_rate: float
    #: Violating fraction inside the fast window.
    window_error_rate: float
    #: Fraction of the total error budget consumed since monitoring
    #: began (can exceed 1 when the budget is blown).
    budget_consumed: float

    @property
    def budget_remaining(self) -> float:
        """Unspent budget fraction (negative once overspent)."""
        return 1.0 - self.budget_consumed


class SLOMonitor:
    """Periodic error-budget evaluation on the simulator clock.

    ``histogram_name`` selects which latency histogram in ``registry``
    to watch (default: the server's end-to-end
    ``request_latency_seconds``).  The monitor follows the sampler
    discipline — it re-arms only while the simulation has other pending
    events, so it never keeps a finished run alive.
    """

    def __init__(self, sim, registry: MetricsRegistry, config: SLOConfig,
                 histogram_name: str = "request_latency_seconds"):
        self.sim = sim
        self.registry = registry
        self.config = config
        self.histogram_name = histogram_name
        self.alerts: list[BurnAlert] = []
        self._callbacks: list[Callable[[BurnAlert], None]] = []
        self._running = False
        #: Per-tick (time, violations, total) deltas inside each alert
        #: window, with their running (violations, total) sums.
        self._fast = _Window(config.fast_window_seconds)
        self._slow = _Window(config.slow_window_seconds)
        self._last_violations = 0
        self._last_total = 0
        self._cum_violations = 0
        self._cum_total = 0
        self._last_alert_time: float | None = None
        self._c_alerts = registry.counter(
            "slo_burn_alerts_total", "Burn-rate alerts fired.").labels()
        self._g_fast = registry.gauge(
            "slo_fast_burn_rate", "Error-budget burn over the fast "
            "window.").labels()
        self._g_slow = registry.gauge(
            "slo_slow_burn_rate", "Error-budget burn over the slow "
            "window.").labels()
        self._g_budget = registry.gauge(
            "slo_error_budget_remaining",
            "Unspent error-budget fraction since monitoring began."
        ).labels()

    # ------------------------------------------------------------------
    def on_alert(self, callback: Callable[[BurnAlert], None]) -> None:
        """Register a burn-alert consumer (autoscaler, reporting)."""
        self._callbacks.append(callback)

    def start(self) -> None:
        """Arm the evaluation loop at the current virtual time."""
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        # Baseline so the first tick only covers activity after start().
        self._last_violations, self._last_total = self._cumulative()
        self.sim.schedule(self.config.interval, self._tick, daemon=True)

    def stop(self) -> None:
        """Stop evaluating after the current tick."""
        self._running = False

    # ------------------------------------------------------------------
    def _histogram(self) -> Histogram | None:
        metric = self.registry.get(self.histogram_name)
        return metric if isinstance(metric, Histogram) else None

    def _cumulative(self) -> tuple[int, int]:
        """(violations, total) observed so far, across all label sets.

        Conservative bucketing: the violation count is everything above
        the largest bucket bound that is <= the threshold, so requests
        inside the threshold's bucket count as violations.
        """
        histogram = self._histogram()
        if histogram is None:
            return 0, 0
        # Buckets whose upper bound is <= the threshold hold the good
        # observations.
        good_buckets = bisect_right(histogram.buckets,
                                    self.config.latency_threshold_seconds)
        total = 0
        good = 0
        for _, series in histogram.items():
            total += series.count
            good += sum(series.bucket_counts[:good_buckets])
        return total - good, total

    def _burn(self, violations: int, total: int) -> float:
        if total == 0:
            return 0.0
        return (violations / total) / (1.0 - self.config.objective)

    def budget_consumed(self) -> float:
        """Error budget spent since monitoring began (fraction)."""
        if self._cum_total == 0:
            return 0.0
        allowance = self._cum_total * (1.0 - self.config.objective)
        return self._cum_violations / allowance

    # ------------------------------------------------------------------
    def evaluate_now(self) -> BurnAlert | None:
        """One evaluation step; returns the alert if one fired."""
        cfg = self.config
        violations, total = self._cumulative()
        d_viol = violations - self._last_violations
        d_total = total - self._last_total
        self._last_violations, self._last_total = violations, total
        self._cum_violations += d_viol
        self._cum_total += d_total
        now = self.sim.now
        fast, slow = self._fast, self._slow
        fast.push(now, d_viol, d_total)
        slow.push(now, d_viol, d_total)
        fast_viol, fast_total = fast.violations, fast.total
        fast_burn = self._burn(fast_viol, fast_total)
        slow_burn = self._burn(slow.violations, slow.total)
        consumed = self.budget_consumed()
        self._g_fast.set(fast_burn)
        self._g_slow.set(slow_burn)
        self._g_budget.set(1.0 - consumed)

        burning = (fast_burn >= cfg.fast_burn_threshold
                   and slow_burn >= cfg.slow_burn_threshold
                   and fast_total >= cfg.min_window_samples)
        if not burning:
            self._last_alert_time = None
            return None
        if self._last_alert_time is not None and \
                now - self._last_alert_time < cfg.rearm_seconds:
            return None
        self._last_alert_time = now
        alert = BurnAlert(
            time=now, fast_burn_rate=fast_burn,
            slow_burn_rate=slow_burn,
            window_error_rate=(fast_viol / fast_total
                               if fast_total else 0.0),
            budget_consumed=consumed)
        self.alerts.append(alert)
        self._c_alerts.inc()
        for callback in self._callbacks:
            callback(alert)
        return alert

    def _tick(self) -> None:
        if not self._running:
            return
        self.evaluate_now()
        if self.sim.peek_foreground_time() is not None:
            self.sim.schedule(self.config.interval, self._tick,
                              daemon=True)
        else:
            self._running = False
