"""Admission control at the load-balancer front door.

An open-loop arrival stream does not care whether the cluster keeps up;
without admission control an overloaded balancer just grows its queues
without bound and every request's latency diverges ("Beyond Inference":
the serving tier, not the model, becomes the bottleneck).  This module
implements the two standard front-door defenses:

* a **token bucket** rate limit — sustained arrivals above
  ``rate_per_second`` are shed, while bursts up to ``burst`` tokens pass
  untouched (survey uploads are bursty; see
  :func:`repro.serving.traces.burst_trace`);
* **queue-length shedding** — once the backlog behind the balancer
  exceeds ``max_queued_requests``, new arrivals are turned away
  immediately with a ``rejected`` response instead of joining a queue
  that already violates the latency SLO.

Both operate on the simulator clock and are fully deterministic.  The
:class:`~repro.scale.balancer.LoadBalancer` consults the controller on
every :meth:`~repro.scale.balancer.LoadBalancer.submit`.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class AdmissionConfig:
    """Front-door admission policy.

    ``rate_per_second`` of 0 disables the rate limit;
    ``max_queued_requests`` of 0 disables queue shedding.  With both
    disabled the controller admits everything (a useful ablation).
    """

    rate_per_second: float = 0.0
    #: Bucket capacity: how many requests may arrive back-to-back
    #: before the rate limit bites.
    burst: int = 1
    max_queued_requests: int = 0
    #: Count cache hits outside the token bucket: a request the cache
    #: hierarchy will answer without inference does not consume the
    #: work budget the bucket meters.  Queue-length shedding still
    #: applies (a hit still occupies the front door briefly).
    exempt_cache_hits: bool = False

    def __post_init__(self) -> None:
        if not self.rate_per_second >= 0:  # NaN compares false too
            raise ValueError("rate_per_second must be >= 0 (0 = off)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.max_queued_requests < 0:
            raise ValueError(
                "max_queued_requests must be >= 0 (0 = off)")


@dataclasses.dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one arrival."""

    admitted: bool
    #: "ok" when admitted; "rate" (token bucket empty) or "queue"
    #: (backlog past the shed threshold) when rejected.
    reason: str


class TokenBucket:
    """A deterministic token bucket on a caller-supplied clock.

    Tokens refill continuously at ``rate`` per second up to ``burst``;
    each admitted request takes one token.  Refill is computed lazily
    from the elapsed virtual time, so no timer events are needed.
    """

    def __init__(self, rate: float, burst: int):
        if rate <= 0:
            raise ValueError("token refill rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._last_refill = 0.0

    def available(self, now: float) -> float:
        """Tokens available at virtual time ``now`` (refills lazily)."""
        elapsed = max(0.0, now - self._last_refill)
        self._tokens = min(float(self.burst),
                           self._tokens + elapsed * self.rate)
        self._last_refill = max(self._last_refill, now)
        return self._tokens

    def try_take(self, now: float) -> bool:
        """Take one token if available; False when the bucket is dry."""
        if self.available(now) < 1.0:
            return False
        self._tokens -= 1.0
        return True


class AdmissionController:
    """Applies an :class:`AdmissionConfig` to an arrival stream.

    The balancer passes the current virtual time and its live backlog;
    the queue check runs *before* the rate limit so a shed request does
    not also burn a token (tokens meter work the cluster will actually
    accept).
    """

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self._bucket = (TokenBucket(config.rate_per_second, config.burst)
                        if config.rate_per_second > 0 else None)

    def admit(self, now: float, queued_requests: int,
              trace=None, cache_hit: bool = False) -> AdmissionDecision:
        """Decide one arrival given the backlog behind the balancer.

        With a :class:`~repro.serving.tracectx.TraceContext` passed, the
        verdict is recorded as an instant ``admission`` event (shed
        attempts stay visible in the trace even though they never reach
        a backend).  ``cache_hit`` marks arrivals the cache hierarchy
        will answer without inference; with
        :attr:`AdmissionConfig.exempt_cache_hits` set they bypass the
        token bucket (no token consumed), so cached traffic never
        starves the budget metering real backend work.
        """
        exempt = cache_hit and self.config.exempt_cache_hits
        limit = self.config.max_queued_requests
        if limit and queued_requests >= limit:
            decision = AdmissionDecision(False, "queue")
        elif (self._bucket is not None and not exempt
                and not self._bucket.try_take(now)):
            decision = AdmissionDecision(False, "rate")
        else:
            decision = AdmissionDecision(True, "ok")
        if trace is not None:
            trace.instant("admission", now, category="admission",
                          admitted=decision.admitted,
                          reason=decision.reason,
                          queued_requests=queued_requests,
                          cache_exempt=exempt)
        return decision
