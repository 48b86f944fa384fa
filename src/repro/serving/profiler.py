"""Sim-time profiler with folded-stack and speedscope export.

``SimProfiler`` attributes seconds of simulated time to a component
hierarchy (serving stages, continuum legs, the fluid regime, the run's
horizon).  ``profiler.record(("serve", "vit_tiny", "execute"),
sim_seconds=d)`` adds cost and a count at an absolute path.  Sim time
is deterministic: two identical runs produce byte-identical profiles,
so CLI output and CI checks compare them exactly.  Where the
simulator's own wall time goes is ``bench/tracer.py``'s question.

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
from typing import Iterable, Sequence

__all__ = ["SimProfiler", "profile_run"]

#: Continuum span names attributed to ``continuum;<leg>``.
_CONTINUUM_LEGS = frozenset({"edge_preprocess", "cache_hit",
                             "edge_inference", "uplink", "downlink"})


class _Node:
    """Accumulated self-cost of one path in the hierarchy."""

    __slots__ = ("sim", "count")

    def __init__(self) -> None:
        self.sim = 0.0
        self.count = 0


class SimProfiler:
    """Hierarchical sim-time cost attribution."""

    def __init__(self) -> None:
        self._nodes: dict[tuple[str, ...], _Node] = {}

    def record(self, path: Sequence[str], sim_seconds: float = 0.0,
               count: int = 1) -> None:
        """Add ``sim_seconds`` and ``count`` to the node at ``path``."""
        path = tuple(path)
        node = self._nodes.get(path)
        if node is None:
            if not path or not all(
                    isinstance(p, str) and p for p in path):
                raise ValueError(
                    f"profile path must be non-empty strings: {path!r}")
            node = self._nodes[path] = _Node()
        node.sim += sim_seconds
        node.count += count

    # -- reading -----------------------------------------------------
    def nodes(self) -> dict[tuple[str, ...], tuple[float, int]]:
        """``{path: (sim_self, count)}`` snapshot."""
        return {path: (n.sim, n.count)
                for path, n in sorted(self._nodes.items())}

    def folded(self) -> dict[str, float]:
        """Collapsed stacks: ``{"a;b;c": self_seconds}``, sorted."""
        return {";".join(path): node.sim
                for path, node in sorted(self._nodes.items())}

    # -- rendering ---------------------------------------------------
    def render_folded(self) -> str:
        """Collapsed-flamegraph text: one ``stack <int us>`` per line.

        Integer microseconds keep the format exact and deterministic;
        zero-weight stacks are kept so the node set itself is visible.
        """
        lines = [f"{stack} {round(seconds * 1e6):d}"
                 for stack, seconds in self.folded().items()]
        return "\n".join(lines) + ("\n" if lines else "")

    def render_tree(self) -> str:
        """Aligned tree of total/self sim time and count per node.

        Totals include descendants; self is the node's own cost.
        """
        totals: dict[tuple[str, ...], list[float]] = {}
        for path, node in self._nodes.items():
            for depth in range(1, len(path) + 1):
                totals.setdefault(path[:depth], [0.0, 0.0, 0])[0] += node.sim
            entry = totals[path]
            entry[1] += node.sim
            entry[2] += node.count
        if not totals:
            return "(profiler is empty)\n"
        header = (f"{'component':<40} {'sim-s total':>12} {'self':>12} "
                  f"{'count':>7}")
        lines = [header, "-" * len(header)]
        for path in sorted(totals):
            total, self_sim, count = totals[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(f"{label:<40} {total:>12.6f} {self_sim:>12.6f} "
                         f"{count:>7d}")
        return "\n".join(lines) + "\n"

    def speedscope(self, name: str = "harvest-profile") -> dict:
        """The profile as a speedscope.app "sampled" document.

        Each folded stack becomes one sample whose weight is its self
        sim time in microseconds; open https://speedscope.app and drop
        the exported file on it.
        """
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
            weights.append(round(node.sim * 1e6))
        end = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": f"{name} (sim)",
                "unit": "microseconds",
                "startValue": 0,
                "endValue": end,
                "samples": samples,
                "weights": weights,
            }],
            "name": name,
            "exporter": "repro.serving.profiler",
        }

    def export_speedscope(self, name: str = "harvest-profile") -> str:
        """``speedscope()`` serialized as stable JSON text."""
        return json.dumps(self.speedscope(name), sort_keys=True,
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

