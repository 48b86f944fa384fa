"""Sim-time / wall-clock profiler with folded-stack and speedscope export.

``SimProfiler`` attributes cost to a component hierarchy (serving
stages, continuum legs, fluid vs DES regime, NumPy kernel phases)
along two axes at once:

* **sim-time** — seconds of simulated time a component accounts for.
  Deterministic: two identical runs produce byte-identical sim-time
  profiles, so CLI output and CI checks use this axis.
* **wall-clock** — host seconds spent inside a component, measured
  with ``time.perf_counter``.  Nondeterministic by nature; exported
  only on request.

Two attribution styles compose:

* ``with profiler.scope("kernel", "attention"):`` — a nested wall
  timer.  Scopes stack: a scope's *self* cost is its elapsed time minus
  the time of scopes opened inside it, so a parent never double-counts
  its children (standard flamegraph semantics).
* ``profiler.record(("serve", "vit_tiny", "execute"), sim_seconds=d)``
  — attribution at an **absolute** path, independent of whatever
  scopes happen to be open.

The serving stack carries no profiler: :func:`profile_run` derives a
run's sim-time profile afterwards from what the run already recorded —
the registry's per-stage series, the retained traces' leg spans and
the hybrid engine's fluid intervals.

Exports: ``folded()`` (collapsed flamegraph dict), ``render_folded``
(``a;b;c <int microseconds>`` text for ``flamegraph.pl`` and friends),
``render_tree`` (aligned terminal tree), and ``speedscope`` /
``export_speedscope`` (the speedscope.app "sampled" JSON schema).
"""

from __future__ import annotations

import json
import time
from typing import Iterable, Sequence

__all__ = ["SimProfiler", "ProfileScope", "profile_run"]

#: Valid weight axes for the export helpers.
_WEIGHTS = ("sim", "wall")

#: Continuum span names attributed to ``continuum;<leg>``.
_CONTINUUM_LEGS = frozenset({"edge_preprocess", "cache_hit",
                             "edge_inference", "uplink", "downlink"})


class _Node:
    """Accumulated self-cost of one path in the hierarchy."""

    __slots__ = ("sim", "wall", "count")

    def __init__(self) -> None:
        self.sim = 0.0
        self.wall = 0.0
        self.count = 0


class ProfileScope:
    """One active scoped wall timer; use via ``SimProfiler.scope``."""

    __slots__ = ("_profiler", "_path", "_wall0", "child_wall")

    def __init__(self, profiler: "SimProfiler",
                 path: tuple[str, ...]) -> None:
        self._profiler = profiler
        self._path = path
        self._wall0 = 0.0
        self.child_wall = 0.0

    def __enter__(self) -> "ProfileScope":
        self._profiler._stack.append(self)
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        prof = self._profiler
        stack = prof._stack
        stack.pop()
        if stack:
            stack[-1].child_wall += wall
        node = prof._node(self._path)
        node.wall += wall - self.child_wall
        node.count += 1


class SimProfiler:
    """Hierarchical sim-time + wall-clock cost attribution."""

    def __init__(self) -> None:
        self._nodes: dict[tuple[str, ...], _Node] = {}
        self._stack: list[ProfileScope] = []

    # -- recording ---------------------------------------------------
    def scope(self, *names: str) -> ProfileScope:
        """Context manager timing a nested scope in wall time.

        The scope's path is the enclosing scope's path extended by
        ``names`` (absolute when no scope is open).
        """
        if not names:
            raise ValueError("scope requires at least one name")
        base = self._stack[-1]._path if self._stack else ()
        return ProfileScope(self, base + names)

    def record(self, path: Sequence[str], sim_seconds: float = 0.0,
               wall_seconds: float = 0.0, count: int = 1) -> None:
        """Attribute cost to an absolute ``path``, ignoring open scopes."""
        node = self._node(tuple(path))
        node.sim += sim_seconds
        node.wall += wall_seconds
        node.count += count

    def _node(self, path: tuple[str, ...]) -> _Node:
        node = self._nodes.get(path)
        if node is None:
            if not path or not all(
                    isinstance(p, str) and p for p in path):
                raise ValueError(
                    f"profile path must be non-empty strings: {path!r}")
            node = self._nodes[path] = _Node()
        return node

    # -- reading -----------------------------------------------------
    def nodes(self) -> dict[tuple[str, ...], tuple[float, float, int]]:
        """``{path: (sim_self, wall_self, count)}`` snapshot."""
        return {path: (n.sim, n.wall, n.count)
                for path, n in sorted(self._nodes.items())}

    def total(self, weight: str = "sim") -> float:
        """Sum of self-costs over every node, in seconds."""
        _check_weight(weight)
        if weight == "sim":
            return sum(n.sim for n in self._nodes.values())
        return sum(n.wall for n in self._nodes.values())

    def folded(self, weight: str = "sim") -> dict[str, float]:
        """Collapsed stacks: ``{"a;b;c": self_seconds}``, sorted."""
        _check_weight(weight)
        out: dict[str, float] = {}
        for path, node in sorted(self._nodes.items()):
            out[";".join(path)] = (node.sim if weight == "sim"
                                   else node.wall)
        return out

    # -- rendering ---------------------------------------------------
    def render_folded(self, weight: str = "sim") -> str:
        """Collapsed-flamegraph text: one ``stack <int us>`` per line.

        Integer microseconds keep the format exact and deterministic
        (for ``weight="sim"``); zero-weight stacks are kept so the
        node set itself is visible.
        """
        lines = [f"{stack} {round(seconds * 1e6):d}"
                 for stack, seconds in self.folded(weight).items()]
        return "\n".join(lines) + ("\n" if lines else "")

    def render_tree(self, weight: str = "sim",
                    include_wall: bool = False) -> str:
        """Aligned tree of total/self cost per node.

        Totals include descendants; self is the node's own cost.
        Deterministic for ``weight="sim"`` — wall columns are opt-in
        via ``include_wall`` because they never reproduce exactly.
        """
        _check_weight(weight)
        totals: dict[tuple[str, ...], list[float]] = {}
        for path, node in self._nodes.items():
            weight_value = node.sim if weight == "sim" else node.wall
            wall_value = node.wall
            for depth in range(1, len(path) + 1):
                entry = totals.setdefault(path[:depth], [0.0, 0.0, 0.0, 0])
                entry[0] += weight_value
                entry[1] += wall_value
            entry = totals[path]
            entry[2] += weight_value
            entry[3] += node.count
        if not totals:
            return "(profiler is empty)\n"
        unit = "sim-s" if weight == "sim" else "wall-s"
        header = f"{'component':<40} {unit + ' total':>12} {'self':>12} {'count':>7}"
        if include_wall:
            header += f" {'wall total':>12}"
        lines = [header, "-" * len(header)]
        for path in sorted(totals):
            total_w, total_wall, self_w, count = totals[path]
            label = "  " * (len(path) - 1) + path[-1]
            row = (f"{label:<40} {total_w:>12.6f} {self_w:>12.6f} "
                   f"{count:>7d}")
            if include_wall:
                row += f" {total_wall:>12.6f}"
            lines.append(row)
        return "\n".join(lines) + "\n"

    def speedscope(self, name: str = "harvest-profile",
                   weight: str = "sim") -> dict:
        """The profile as a speedscope.app "sampled" document.

        Each folded stack becomes one sample whose weight is its self
        cost in microseconds; open https://speedscope.app and drop the
        exported file on it.
        """
        _check_weight(weight)
        frames: list[dict] = []
        frame_index: dict[str, int] = {}
        samples: list[list[int]] = []
        weights: list[float] = []
        for path, node in sorted(self._nodes.items()):
            stack = []
            for part in path:
                idx = frame_index.get(part)
                if idx is None:
                    idx = frame_index[part] = len(frames)
                    frames.append({"name": part})
                stack.append(idx)
            samples.append(stack)
            weights.append(
                round((node.sim if weight == "sim" else node.wall)
                      * 1e6))
        end = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": f"{name} ({weight})",
                "unit": "microseconds",
                "startValue": 0,
                "endValue": end,
                "samples": samples,
                "weights": weights,
            }],
            "name": name,
            "exporter": "repro.serving.profiler",
        }

    def export_speedscope(self, name: str = "harvest-profile",
                          weight: str = "sim") -> str:
        """``speedscope()`` serialized as stable JSON text."""
        return json.dumps(self.speedscope(name, weight),
                          sort_keys=True,
                          separators=(",", ":")) + "\n"


def profile_run(sim_seconds: float, registry,
                traces: Iterable = (),
                fluid_intervals: Iterable = ()) -> SimProfiler:
    """A finished run's sim-time profile, derived from what it recorded.

    * ``serve;<stage>;execute`` / ``queue_wait`` — the per-stage
      ``execution_seconds`` / ``queue_wait_seconds`` series (sum and
      observation count: batches executed, requests dispatched);
    * ``serve;<stage>;fault`` — ``fault_seconds_total``, counted by
      ``execution_failures_total``;
    * ``continuum;<leg>`` — the closed leg spans of ``traces``.  Pass a
      replayer's retained traces: under trace sampling these nodes
      cover only the retained requests, while ``serve;*`` covers all;
    * ``regime;fluid`` — the hybrid engine's fluid intervals;
    * ``sim;run`` — ``sim_seconds``, the simulated horizon.
    """
    prof = SimProfiler()
    for metric, kind in (("execution_seconds", "execute"),
                         ("queue_wait_seconds", "queue_wait")):
        hist = registry.get(metric)
        for key, series in hist.items() if hist is not None else ():
            prof.record(("serve", dict(key)["stage"], kind),
                        sim_seconds=series.sum, count=series.count)
    failures = registry.get("execution_failures_total")
    lost = registry.get("fault_seconds_total")
    for key, value in failures.items() if failures is not None else ():
        stage = dict(key)["stage"]
        prof.record(("serve", stage, "fault"),
                    sim_seconds=lost.value(stage=stage), count=int(value))
    for ctx in traces:
        for span in ctx.spans:
            if span.name in _CONTINUUM_LEGS and span.end is not None:
                prof.record(("continuum", span.name),
                            sim_seconds=span.end - span.start)
    for interval in fluid_intervals:
        prof.record(("regime", "fluid"),
                    sim_seconds=interval.resumed - interval.entered)
    prof.record(("sim", "run"), sim_seconds=sim_seconds)
    return prof


def _check_weight(weight: str) -> None:
    if weight not in _WEIGHTS:
        raise ValueError(
            f"unknown weight {weight!r}; expected one of {_WEIGHTS}")
