"""Sim-time / wall-clock profiler with folded-stack and speedscope export.

``SimProfiler`` attributes cost to a component hierarchy (server →
batcher → instance → kernel; continuum legs; fluid vs DES regime;
control loops) along two axes at once:

* **sim-time** — seconds of simulated time a component accounts for.
  Deterministic: two identical runs produce byte-identical sim-time
  profiles, so CLI output and CI checks use this axis.
* **wall-clock** — host seconds the *simulator itself* spent inside a
  component, measured with ``time.perf_counter``.  Nondeterministic by
  nature; exported only on request.

Two attribution styles compose:

* ``with profiler.scope("regime", "fluid"):`` — a nested scoped timer.
  Scopes stack: a scope's *self* cost is its elapsed cost minus the
  cost of scopes opened inside it, so a parent never double-counts its
  children (standard flamegraph semantics).
* ``profiler.record(("serve", "vit_tiny", "execute"), sim_seconds=d)``
  — event-driven attribution at an **absolute** path, independent of
  whatever scopes happen to be open.  Discrete-event components use
  this because their cost is known at completion time, not bracketed
  by a Python call.

The zero-cost-when-disabled contract: every instrumentation site in
the serving stack guards on ``profiler is not None``, and a disabled
profiler's ``scope``/``record`` are O(1) early returns, so scrapes and
Chrome traces stay byte-identical with the profiler off (checked by
``tests/test_serving_profiler.py::TestZeroCostContract``).

Exports: ``folded()`` (collapsed flamegraph dict), ``render_folded``
(``a;b;c <int microseconds>`` text for ``flamegraph.pl`` and friends),
``render_tree`` (aligned terminal tree), and ``speedscope`` /
``export_speedscope`` (the speedscope.app "sampled" JSON schema).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Iterable, Sequence

__all__ = ["SimProfiler", "ProfileScope"]

#: Valid weight axes for the export helpers.
_WEIGHTS = ("sim", "wall")


class _Node:
    """Accumulated self-cost of one path in the hierarchy."""

    __slots__ = ("sim", "wall", "count")

    def __init__(self) -> None:
        self.sim = 0.0
        self.wall = 0.0
        self.count = 0


class ProfileScope:
    """One active scoped timer; use via ``SimProfiler.scope``."""

    __slots__ = ("_profiler", "_path", "_wall0", "_sim0",
                 "child_wall", "child_sim")

    def __init__(self, profiler: "SimProfiler",
                 path: tuple[str, ...]) -> None:
        self._profiler = profiler
        self._path = path
        self._wall0 = 0.0
        self._sim0 = 0.0
        self.child_wall = 0.0
        self.child_sim = 0.0

    def __enter__(self) -> "ProfileScope":
        prof = self._profiler
        prof._stack.append(self)
        self._sim0 = prof._clock()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        prof = self._profiler
        sim = prof._clock() - self._sim0
        stack = prof._stack
        stack.pop()
        if stack:
            parent = stack[-1]
            parent.child_wall += wall
            parent.child_sim += sim
        node = prof._node(self._path)
        node.sim += sim - self.child_sim
        node.wall += wall - self.child_wall
        node.count += 1


class _NullScope:
    """Shared no-op scope returned while the profiler is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SCOPE = _NullScope()


def _zero_clock() -> float:
    """Clock restored on unpickled profilers (no simulator to read)."""
    return 0.0


class SimProfiler:
    """Hierarchical sim-time + wall-clock cost attribution.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current sim time (pass
        ``lambda: sim.now``).  Defaults to a constant 0 clock, which
        turns scopes into pure wall-clock timers.
    enabled:
        Start enabled (default) or disabled.  A disabled profiler's
        methods are O(1) no-ops, so it can stay attached permanently.
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 enabled: bool = True) -> None:
        self._clock = clock if clock is not None else lambda: 0.0
        self.enabled = bool(enabled)
        self._nodes: dict[tuple[str, ...], _Node] = {}
        self._stack: list[ProfileScope] = []

    # -- recording ---------------------------------------------------
    def scope(self, *names: str):
        """Context manager timing a nested scope.

        The scope's path is the enclosing scope's path extended by
        ``names`` (absolute when no scope is open).
        """
        if not self.enabled:
            return _NULL_SCOPE
        if not names:
            raise ValueError("scope requires at least one name")
        base = self._stack[-1]._path if self._stack else ()
        return ProfileScope(self, base + names)

    def record(self, path: Sequence[str], sim_seconds: float = 0.0,
               wall_seconds: float = 0.0, count: int = 1) -> None:
        """Attribute cost to an absolute ``path``, ignoring open scopes.

        Event-driven components (batcher picks, instance completions,
        continuum legs) call this when a cost becomes known.
        """
        if not self.enabled:
            return
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

    def reset(self) -> None:
        """Drop all accumulated nodes (open scopes stay valid)."""
        self._nodes.clear()

    def merge(self, other: "SimProfiler") -> "SimProfiler":
        """Fold another profiler's accumulated nodes into this one.

        Self-costs and counts add per path — the folded profile of N
        merged shards equals the profile one process would have
        accumulated running them back to back, so
        :meth:`render_folded` over a merged profiler is deterministic
        on the sim axis regardless of merge order or worker count.
        (Wall costs add too, but wall time never reproduces exactly.)
        ``other`` must not have open scopes.
        """
        if other._stack:
            raise ValueError(
                "cannot merge a profiler with open scopes")
        for path, theirs in other._nodes.items():
            node = self._node(path)
            node.sim += theirs.sim
            node.wall += theirs.wall
            node.count += theirs.count
        return self

    # A profiler rides along when a sweep shard returns its results to
    # the parent process; the clock holds a reference into the shard's
    # simulator and freezes at 0 on the other side (recorded costs are
    # preserved — merge folds state, it never re-records).
    def __getstate__(self) -> dict:
        if self._stack:
            raise ValueError(
                "cannot pickle a profiler with open scopes")
        state = self.__dict__.copy()
        state["_clock"] = None
        state["_stack"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._clock is None:
            self._clock = _zero_clock

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


def _check_weight(weight: str) -> None:
    if weight not in _WEIGHTS:
        raise ValueError(
            f"unknown weight {weight!r}; expected one of {_WEIGHTS}")
