"""Request load balancing across replica servers.

The frontend tier of a scaled-out HARVEST deployment: one entry point
fanning requests across replica :class:`TritonLikeServer` backends that
share a simulator clock.  Policies: round-robin (stateless rotation,
resize-safe) and join-shortest-queue (queue-aware, the standard
low-latency choice, with rotating tie-breaks).

The pool is **elastic**: backends can be added live, drained (they stop
receiving routes but finish everything in flight), and released once
drained — the mechanics the :mod:`repro.scale.autoscaler` control loop
drives.  An optional :class:`~repro.scale.admission.AdmissionController`
guards the front door, turning arrivals away with ``rejected``
responses instead of letting queues grow without bound.
"""

from __future__ import annotations

import abc

from repro.scale.admission import AdmissionController
from repro.serving.observability import (
    HandleCache,
    MetricsRegistry,
    ensure_registry,
)
from repro.serving.request import Request, Response
from repro.serving.server import TritonLikeServer


class BalancingPolicy(abc.ABC):
    """Chooses a backend index for each incoming request.

    ``backends`` is the list of *routable* (non-draining) backends at
    the moment of the call; the pool may grow or shrink between calls,
    so policies must not assume a stable length or stable indices.
    """

    @abc.abstractmethod
    def choose(self, backends: list[TritonLikeServer],
               request: Request) -> int:
        """Backend index for this request."""


class RoundRobinPolicy(BalancingPolicy):
    """Cycle through backends regardless of load.

    The rotation is anchored on backend *identity*, not on a global
    counter modulo the current pool size: after a resize the next pick
    is simply the backend after the previously chosen one, so scaling
    events neither repeat nor starve a backend.  (The old counter%len
    scheme permuted the rotation on every resize — e.g. adding a fourth
    backend right after a full cycle of three sent two consecutive
    requests to the same backend while the newcomer idled.)
    """

    def __init__(self) -> None:
        self._last: TritonLikeServer | None = None
        #: Pool position of the previous pick, used to re-anchor the
        #: rotation when that backend has since been removed.
        self._position = 0

    def choose(self, backends: list[TritonLikeServer],
               request: Request) -> int:
        """The backend after the previously chosen one (wrapping)."""
        if self._last is None:
            index = 0
        else:
            try:
                index = (backends.index(self._last) + 1) % len(backends)
            except ValueError:  # previous pick was removed from the pool
                index = self._position % len(backends)
        self._last = backends[index]
        self._position = index
        return index


class JoinShortestQueuePolicy(BalancingPolicy):
    """Send each request to the backend with the fewest queued images.

    Ties rotate instead of always resolving to the lowest index, so a
    pool of equally idle backends shares load evenly rather than
    hammering backend 0.
    """

    def __init__(self) -> None:
        self._rotation = 0

    def choose(self, backends: list[TritonLikeServer],
               request: Request) -> int:
        """Index of the backend with the least queued work."""
        loads = [s.queued_images() + s.busy_instances() for s in backends]
        least = min(loads)
        candidates = [i for i, load in enumerate(loads) if load == least]
        index = candidates[self._rotation % len(candidates)]
        self._rotation += 1
        return index


class LoadBalancer:
    """Fan requests across an elastic pool of replica servers.

    All backends must be constructed over the *same*
    :class:`~repro.serving.events.Simulator` so virtual time is
    consistent across the group.  ``registry`` (front-door metrics:
    routing, admission, pool size) defaults to a fresh
    :class:`MetricsRegistry` on the shared clock; pass the backends'
    shared registry to get one combined scrape.  ``admission`` gates
    :meth:`submit` (see :mod:`repro.scale.admission`).
    """

    def __init__(self, backends: list[TritonLikeServer],
                 policy: BalancingPolicy | None = None,
                 registry: MetricsRegistry | None = None,
                 admission: AdmissionController | None = None,
                 cache=None):
        if not backends:
            raise ValueError("need at least one backend")
        sims = {id(s.sim) for s in backends}
        if len(sims) != 1:
            raise ValueError("backends must share one simulator")
        self.backends = list(backends)
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.admission = admission
        #: Optional :class:`~repro.cache.tiers.CacheHierarchy` consulted
        #: (non-mutating peek at the cloud tensor tier) to flag arrivals
        #: the cache will serve, so admission control can count them
        #: outside the token bucket (see
        #: :attr:`~repro.scale.admission.AdmissionConfig.exempt_cache_hits`).
        self.cache = cache
        self.routed: list[int] = []
        #: Responses already handed out by :meth:`run`/:meth:`collect`.
        self.completed: list[Response] = []
        self._draining: set[int] = set()
        #: Next unread index into each attached backend's response log.
        self._cursors: dict[int, int] = {
            id(b): len(b.responses) for b in backends}
        self._counts: dict[int, int] = {id(b): 0 for b in backends}
        #: Balancer-made responses (admission rejections) and responses
        #: harvested from released backends, awaiting the next collect.
        self._pending: list[Response] = []
        sim = backends[0].sim
        self.metrics = ensure_registry(registry, lambda: sim.now)
        m = self.metrics
        # Label-free metrics bind their single series once; the shed
        # counter keeps a small per-reason handle cache (reasons come
        # from the admission policy, a handful at most).
        self._c_routed = m.counter(
            "balancer_routed_total",
            "Requests routed to backends.").labels()
        self._c_admitted = m.counter(
            "admission_admitted_total",
            "Requests admitted at the balancer front door.").labels()
        shed = m.counter(
            "admission_rejected_total",
            "Requests shed at the front door, by reason.")
        self._c_shed = HandleCache(lambda r: shed.labels(reason=r))
        self._g_active = m.gauge(
            "balancer_active_backends",
            "Backends receiving routes.").labels()
        self._g_draining = m.gauge(
            "balancer_draining_backends",
            "Backends draining in-flight work before release.").labels()
        self._update_pool_gauges()

    @property
    def sim(self):
        """The shared simulator clock."""
        return self.backends[0].sim

    # ------------------------------------------------------------------
    # Elastic pool management
    # ------------------------------------------------------------------
    @property
    def active_backends(self) -> list[TritonLikeServer]:
        """Backends currently receiving new routes (not draining)."""
        return [b for b in self.backends if id(b) not in self._draining]

    @property
    def draining_backends(self) -> list[TritonLikeServer]:
        """Backends finishing in-flight work before release."""
        return [b for b in self.backends if id(b) in self._draining]

    def _update_pool_gauges(self) -> None:
        self._g_active.set(len(self.active_backends))
        self._g_draining.set(len(self._draining))

    def add_backend(self, backend: TritonLikeServer) -> None:
        """Attach a new replica; it starts receiving routes at once."""
        if any(b is backend for b in self.backends):
            raise ValueError("backend is already attached")
        if id(backend.sim) != id(self.sim):
            raise ValueError("backends must share one simulator")
        if backend.draining:
            raise ValueError("cannot attach a draining backend")
        self.backends.append(backend)
        self._cursors[id(backend)] = len(backend.responses)
        self._counts[id(backend)] = 0
        self._update_pool_gauges()

    def drain_backend(self, backend: TritonLikeServer) -> None:
        """Stop routing to ``backend``; it finishes in-flight work.

        The backend stays attached (its remaining responses are still
        collected) until :meth:`release_backend` detaches it.  At least
        one backend must remain active.
        """
        if not any(b is backend for b in self.backends):
            raise ValueError("backend is not attached")
        if id(backend) in self._draining:
            return  # already draining
        if len(self.active_backends) <= 1:
            raise ValueError("cannot drain the last active backend")
        self._draining.add(id(backend))
        backend.begin_drain()
        self._update_pool_gauges()

    def release_backend(self, backend: TritonLikeServer) -> None:
        """Detach a fully drained backend from the pool.

        Its not-yet-collected responses are harvested first, so nothing
        a drained replica completed is ever lost.
        """
        if not any(b is backend for b in self.backends):
            raise ValueError("backend is not attached")
        if id(backend) not in self._draining:
            raise ValueError("release requires a draining backend")
        if not backend.is_drained:
            raise RuntimeError(
                "backend still has in-flight work; drain must finish "
                "before release")
        key = id(backend)
        self._pending.extend(backend.responses[self._cursors[key]:])
        self.backends = [b for b in self.backends if b is not backend]
        self._draining.discard(key)
        del self._cursors[key]
        del self._counts[key]
        self._update_pool_gauges()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests waiting behind the balancer (all attached backends)."""
        return sum(b.queue_depth() for b in self.backends)

    def submit(self, request: Request) -> None:
        """Route one request per the policy and submit it.

        With an admission controller set, a shed request is answered
        immediately with a ``rejected`` response (surfaced by the next
        :meth:`run`/:meth:`collect`) and never reaches a backend.
        """
        if self.admission is not None:
            cache_hit = False
            if self.cache is not None and request.cache_key is not None:
                from repro.cache.tiers import CLOUD_TENSOR

                cache_hit = self.cache.peek(CLOUD_TENSOR,
                                            request.cache_key)
            decision = self.admission.admit(self.sim.now,
                                            self.queue_depth(),
                                            trace=request.trace,
                                            cache_hit=cache_hit)
            if not decision.admitted:
                self._c_shed[decision.reason].inc()
                request.arrival_time = self.sim.now
                if request.trace is not None:
                    request.trace.close(self.sim.now, status="rejected")
                self._pending.append(
                    Response(request, self.sim.now, status="rejected"))
                return
            self._c_admitted.inc()
        active = self.active_backends
        index = self.policy.choose(active, request)
        if not 0 <= index < len(active):
            raise IndexError(
                f"policy chose backend {index} of {len(active)}")
        backend = active[index]
        if request.trace is not None:
            request.trace.instant("route", self.sim.now,
                                  category="balancer", backend=index,
                                  active_backends=len(active))
        self.routed.append(self.backends.index(backend))
        self._counts[id(backend)] += 1
        self._c_routed.inc()
        backend.submit(request)

    def run(self, until: float | None = None) -> list[Response]:
        """Drive the shared simulation; returns *newly* completed
        responses.

        Successive calls with growing ``until`` horizons each return
        only the responses completed since the previous call (merged
        across backends in completion order), so callers can
        concatenate returns without double-counting.  The cumulative
        log lives in :attr:`completed` / :meth:`all_responses`.
        """
        self.sim.run(until=until)
        return self.collect()

    def collect(self) -> list[Response]:
        """Harvest responses completed since the previous collection."""
        fresh = self._pending
        self._pending = []
        for backend in self.backends:
            key = id(backend)
            cursor = self._cursors[key]
            fresh.extend(backend.responses[cursor:])
            self._cursors[key] = len(backend.responses)
        fresh.sort(key=lambda r: (r.completion_time,
                                  r.request.request_id))
        self.completed.extend(fresh)
        return fresh

    def all_responses(self) -> list[Response]:
        """Every response collected so far, plus any still unharvested."""
        self.collect()
        return list(self.completed)

    def routing_counts(self) -> list[int]:
        """Requests routed per attached backend (balance diagnostics).

        Aligned with the current :attr:`backends` list; counts for
        released backends leave with them.
        """
        return [self._counts[id(b)] for b in self.backends]
