"""Outside-in per-layer tracer: times calls into ``repro`` from outside.

Nothing in ``repro`` knows it is traced.  :meth:`Tracer.install` swaps
a timing wrapper onto three kinds of attribute and
:meth:`Tracer.uninstall` puts every original back:

* ``Simulator.schedule`` and ``Simulator.add_stream``, so every callback
  a layer hands to the event loop is timed and attributed to the module
  that defines the callback;
* ``Simulator.run``, ``Simulator.cancel`` and the scheduling calls
  themselves (the event core);
* the public entry points in :func:`entry_points`.

A layer is a module path under ``repro`` (``serving.events``,
``cache.store``, ...).  Each span's self time is its duration minus the
spans nested inside it, so the self times of all layers plus
``unattributed`` (the root span and the benchmark's own callbacks) add
up to the traced wall time.  Work between an entry point's own calls
lands in the caller's self time, and so does the wrapper's own cost:
the tracer inflates the layers that call many small traced functions.

Aggregates cover every span; only the first ``max_spans`` are kept, in
memory, for :meth:`Tracer.chrome_trace`.
"""

from __future__ import annotations

import functools
import time
import types

#: The layers the benchmark reports, whether or not a workload uses them.
LAYERS = (
    "serving.events",
    "serving.server",
    "serving.batcher",
    "serving.instance",
    "serving.observability",
    "serving.tracectx",
    "serving.fluid",
    "serving.traces",
    "serving.slo",
    "continuum.pipeline",
    "continuum.uplink",
    "continuum.network",
    "continuum.broker",
    "cache.tiers",
    "cache.store",
    "cache.keys",
    "engine.latency",
    "faas.backend",
    "faas.cost",
    "scale.autoscaler",
    "models.functional",
    "preprocessing.pipelines",
    "preprocessing.ops",
    "core.study",
)

#: Time in the root span and in callbacks defined outside ``repro``.
UNATTRIBUTED = "unattributed"

_EVENTS = "serving.events"


def entry_points() -> list[tuple[object, str]]:
    """``(owner, attribute)`` pairs timed as spans of the owner's layer."""
    from repro.cache import keys
    from repro.cache.store import CacheStore
    from repro.cache.tiers import CacheTier
    from repro.continuum.broker import Broker
    from repro.continuum.network import NetworkLink
    from repro.continuum.pipeline import ContinuumReplayer
    from repro.continuum.uplink import SharedUplink, StoreAndForward
    from repro.core.study import CharacterizationStudy
    from repro.engine.latency import LatencyModel
    from repro.faas.backend import FaaSBackend
    from repro.faas.cost import CostLedger
    from repro.models.functional import FunctionalModel
    from repro.preprocessing import ops
    from repro.preprocessing.pipelines import PreprocessPipeline
    from repro.serving import observability as obs
    from repro.serving.batcher import DynamicBatcher
    from repro.serving.events import Simulator
    from repro.serving.instance import BackendInstance
    from repro.serving.server import TritonLikeServer
    from repro.serving.tracectx import TraceContext

    return [
        (Simulator, "run"), (Simulator, "cancel"),
        (TritonLikeServer, "submit"),
        (DynamicBatcher, "enqueue"), (DynamicBatcher, "form_batch"),
        (BackendInstance, "execute"),
        (obs.Counter, "inc"), (obs.BoundCounter, "inc"),
        (obs.Gauge, "set"), (obs.Gauge, "add"),
        (obs.BoundGauge, "set"), (obs.BoundGauge, "add"),
        (obs.Histogram, "observe"), (obs.Histogram, "observe_many"),
        (obs.BoundHistogram, "observe"),
        (obs.BoundHistogram, "observe_many"),
        (TraceContext, "begin"), (TraceContext, "end"),
        (TraceContext, "instant"), (TraceContext, "close"),
        (ContinuumReplayer, "submit"),
        (ContinuumReplayer, "handle_response"),
        (SharedUplink, "schedule_transfer"),
        (StoreAndForward, "schedule_transfer"),
        (NetworkLink, "schedule_transfer"),
        (Broker, "publish"),
        (CacheTier, "lookup"), (CacheTier, "insert"), (CacheTier, "peek"),
        (CacheStore, "lookup"), (CacheStore, "insert"),
        (CacheStore, "peek"),
        (keys, "fingerprint"),
        (LatencyModel, "latency"),
        (FaaSBackend, "submit"),
        (CostLedger, "charge_invocation"), (CostLedger, "charge_init"),
        (CostLedger, "charge_provisioned"),
        (FunctionalModel, "__call__"),
        (PreprocessPipeline, "__call__"),
        (ops, "warp_perspective"), (ops, "resize_bilinear"),
        (ops, "normalize"),
        (CharacterizationStudy, "run"),
    ]


def layer_of(module: str | None) -> str:
    """The layer a module belongs to (``repro.`` stripped)."""
    if module is not None and module.startswith("repro."):
        return module[len("repro."):]
    return UNATTRIBUTED


def _describe(callback) -> tuple[object, str, str]:
    """``(cache key, layer, span name)`` for a scheduled callable."""
    fn = getattr(callback, "__func__", callback)
    while isinstance(fn, functools.partial):
        fn = fn.func
    code = getattr(fn, "__code__", None)
    if code is None:  # a callable object
        kind = type(fn)
        return kind, layer_of(kind.__module__), kind.__qualname__
    return code, layer_of(fn.__module__), fn.__qualname__


class Tracer:
    """Spans around calls into ``repro``, aggregated per layer."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        #: ``(layer, name, start, end)`` of the first ``max_spans``
        #: finished spans, in finishing order.
        self.spans: list[tuple[str, str, float, float]] = []
        #: layer -> ``[self seconds, calls]``.
        self._totals: dict[str, list] = {}
        #: Child seconds of each open span, innermost last.
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        #: Code object (or type) of a scheduled callable -> its finisher.
        self._callbacks: dict[object, object] = {}

    # -- span bookkeeping ----------------------------------------------
    def _finisher(self, layer: str, name: str):
        totals = self._totals.setdefault(layer, [0.0, 0])
        stack = self._stack
        spans = self.spans
        limit = self.max_spans

        def finish(start: float, end: float) -> None:
            duration = end - start
            child = stack.pop()
            if stack:
                stack[-1] += duration
            totals[0] += duration - child
            totals[1] += 1
            if len(spans) < limit:
                spans.append((layer, name, start, end))
        return finish

    def _wrap(self, fn, layer: str, name: str):
        finish = self._finisher(layer, name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(start, clock())
        return timed

    def _callback(self, callback):
        key, layer, name = _describe(callback)
        finish = self._callbacks.get(key)
        if finish is None:
            finish = self._callbacks[key] = self._finisher(layer, name)
        stack = self._stack
        clock = time.perf_counter

        def fire(*args):
            stack.append(0.0)
            start = clock()
            try:
                return callback(*args)
            finally:
                finish(start, clock())
        return fire

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced attribute (once per tracer)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from repro.serving.events import Simulator

        for owner, attr in entry_points():
            if isinstance(owner, types.ModuleType):
                module = owner.__name__
                title = module.rsplit(".", 1)[-1]
            else:
                module, title = owner.__module__, owner.__qualname__
            self._patch(owner, attr, self._wrap(
                vars(owner)[attr], layer_of(module), f"{title}.{attr}"))
        schedule = self._wrap(vars(Simulator)["schedule"], _EVENTS,
                              "Simulator.schedule")
        add_stream = self._wrap(vars(Simulator)["add_stream"], _EVENTS,
                                "Simulator.add_stream")
        timed = self._callback

        # Same parameter names as the originals, for keyword callers.
        def traced_schedule(sim, delay, callback, daemon=False):
            return schedule(sim, delay, timed(callback), daemon)

        def traced_add_stream(sim, times, callback, daemon=False):
            return add_stream(sim, times, timed(callback), daemon)

        self._patch(Simulator, "schedule", traced_schedule)
        self._patch(Simulator, "add_stream", traced_add_stream)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run(self, fn, *args):
        """Call ``fn(*args)`` inside a root span; returns its result."""
        return self._wrap(fn, UNATTRIBUTED, "execute")(*args)

    # -- reporting ------------------------------------------------------
    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """layer -> ``(self seconds, calls)`` for every reported layer."""
        names = set(LAYERS) | set(self._totals) | {UNATTRIBUTED}
        return {name: tuple(self._totals.get(name, (0.0, 0)))
                for name in sorted(names)}

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (``X`` events, us)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[2] for span in self.spans)
        ordered = sorted(self.spans, key=lambda s: (s[2], -s[3]))
        return {"traceEvents": [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6}
            for layer, name, start, end in ordered]}
