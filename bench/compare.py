"""Compare two result files from ``run.py --out``, metric by metric.

    python3 bench/compare.py BASE.json CANDIDATE.json

Every end-to-end metric of ``BENCHMARK.json`` on every workload both
files ran gets one label:

* ``unresolved`` — a side's quartile spread ((q3 - q1) / median of its
  samples) is wider than the metric's bound, so the bound cannot be
  judged; unless every candidate sample beats every base sample, which
  counts as ``improved``;
* ``regressed`` — the candidate median is worse than the base median
  by more than the bound;
* ``improved`` — the candidate median is better by more than the
  base's spread (by more than the bound when the base has fewer than
  four samples) and the candidate wins at least 90% of sample pairs;
* ``within bound`` — anything else.

``failed_frac`` has an absolute bound of 0: any rise regresses.  Exits
1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())

#: Share of sample pairs the candidate must win to claim a gain.
WIN_SHARE = 0.9


def spread(samples: list[float]) -> float | None:
    """(q3 - q1) / median, or None with fewer than four samples."""
    if len(samples) < 4:
        return None
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median


def label(base: list[float], candidate: list[float], better: str,
          bound: float) -> str:
    """Judge one metric on one workload (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse = sign * (statistics.median(candidate) - base_median) \
        / base_median
    wins = sum(sign * (c - b) < 0 for b in base for c in candidate) \
        / (len(base) * len(candidate))
    spreads = [s for s in (spread(base), spread(candidate))
               if s is not None]
    if any(s > bound for s in spreads):
        return "improved" if wins == 1.0 else "unresolved"
    if worse > bound:
        return "regressed"
    noise = spread(base)
    if -worse > (bound if noise is None else noise) and wins >= WIN_SHARE:
        return "improved"
    return "within bound"


def compare(base: dict, candidate: dict) -> list[tuple]:
    """``(workload, metric, base, candidate, change, label)`` rows."""
    rows = []
    for workload, old in base["workloads"].items():
        new = candidate["workloads"].get(workload)
        if new is None:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            old_v, new_v = old["values"][name], new["values"][name]
            rows.append((workload, name, old_v, new_v,
                         (new_v - old_v) / old_v,
                         label(old["samples"][name], new["samples"][name],
                               metric["better"], metric["bound"])))
        old_f = old["values"]["failed_frac"]
        new_f = new["values"]["failed_frac"]
        rows.append((workload, "failed_frac", old_f, new_f,
                     new_f - old_f,
                     "regressed" if new_f > old_f else
                     "improved" if new_f < old_f else "within bound"))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("candidate", type=pathlib.Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    candidate = json.loads(args.candidate.read_text())
    rows = compare(base, candidate)
    print(f"{'workload':<16s} {'metric':<13s} {'base':>12s} "
          f"{'candidate':>12s} {'change':>8s}  label")
    for workload, name, old, new, change, verdict in rows:
        print(f"{workload:<16s} {name:<13s} {old:12.4f} {new:12.4f} "
              f"{change:+8.1%}  {verdict}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
