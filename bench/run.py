"""The end-to-end benchmark: four workloads, one command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE]

Each workload runs alone in a fresh child process (``child.py``) with
BLAS pinned to one thread.  The child builds its inputs, runs one cold
execution, then timed executions for ``--seconds`` (at least five),
reads peak memory and, with tracing on, runs once more under the
per-layer tracer.  Two more children stop after the cold execution,
so ``setup_s`` and ``cold_run_s`` are medians of three.  Every
execution's outputs are checked against ``expected.json`` (or, for an
unrecorded seed, against the cold run) and against the conservation
identity.

Prints every metric by name and unit, then, as the last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics, and no ``--trace`` both.  Without
``--workload`` all four run and metric names gain a ``<workload>.``
prefix.  ``--out`` writes every measurement, sample and digest as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Children per workload that measure ``setup_s`` and ``cold_run_s``
#: (the measuring child is one of them).
COLD_SAMPLES = 3

#: Wall-clock budget per workload; a child still running past it is
#: killed and the run fails.
BUDGET_S = 170.0

_LAYER_FIELDS = (".self_s", ".calls", ".share")


class BenchError(RuntimeError):
    """A child failed or the benchmark cannot run here."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _child(args: list[str], deadline: float) -> dict:
    """Run ``child.py`` to completion; its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT,
            env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} exceeded {timeout:.0f} s") \
            from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def _spread(samples: list[float]) -> tuple[float, float]:
    """First and third quartiles (the sample itself when alone)."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def measure(workload: str, seed: int, seconds: float, trace: int | None,
            smoke: bool, deadline: float) -> dict:
    """Run one workload's children; its metrics, samples and digest."""
    common = ["--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    argv = [workload, *common, "--trace", "0" if trace == 0 else "1"]
    if trace != 0:
        argv += ["--trace-out", str(BENCH / "out" / f"{workload}.trace.json")]
    cold_only = [workload, *common, "--cold-only"]
    extra = 0 if trace == 1 else COLD_SAMPLES - 1
    # Half the cold-only children run before the measuring child and
    # half after, so one slow spell of a shared host rarely covers them
    # all.
    before = [_child(cold_only, deadline) for _ in range(extra // 2)]
    main = _child(argv, deadline)
    children = [main, *before, *(_child(cold_only, deadline)
                                 for _ in range(extra - extra // 2))]
    runs = main["run_samples"]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    samples = {
        "setup_s": [child["setup_s"] for child in children],
        "cold_run_s": [child["cold_run_s"] for child in children],
        "run_s": runs,
        "items_per_s": [main["items"] / s for s in runs],
        "peak_rss_mb": [main["peak_rss_mb"]],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["items_per_s"] = main["items"] / values["run_s"]
    values["failed_frac"] = failed / attempted
    return {
        "seed": seed,
        "items": main["items"],
        "items_unit": main["items_unit"],
        "attempted": attempted,
        "failed": failed,
        "problems": [p for child in children for p in child["problems"]],
        "values": values,
        "samples": samples,
        "per_layer": main.get("per_layer"),
        "digest": main["digest"],
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": main["numpy"],
                 "blas_threads": main["blas_threads"],
                 "platform": platform.platform()},
    }


def _render(workload: str, record: dict, trace: int | None) -> str:
    values, samples = record["values"], record["samples"]
    lines = [f"== {workload} (seed {record['seed']}, {record['items']} "
             f"{record['items_unit']}) =="]
    if trace != 1:
        for metric in SPEC["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            q1, q3 = _spread(samples[name])
            lines.append(
                f"  {name:<14s} {values[name]:12.4f} {unit:<6s} "
                f"q1 {q1:.4f} q3 {q3:.4f} ({len(samples[name])} samples)")
        lines.append(f"  {'failed_frac':<14s} {values['failed_frac']:12.4f} "
                     f"{'1':<6s} ({record['failed']}/{record['attempted']} "
                     "executions)")
    layers = record["per_layer"]
    if layers is not None:
        lines.append(f"  traced run {layers['traced_s']:.4f} s, "
                     f"tracer.overhead {layers['tracer.overhead']:.3f}x")
        lines.append(f"  {'layer':<26s} {'self_s':>10s} {'calls':>10s} "
                     f"{'share':>7s}")
        names = sorted((k[:-len(".self_s")] for k in layers
                        if k.endswith(".self_s")),
                       key=lambda n: -layers[f"{n}.self_s"])
        for name in names:
            if layers[f"{name}.calls"]:
                lines.append(
                    f"  {name:<26s} {layers[f'{name}.self_s']:10.4f} "
                    f"{layers[f'{name}.calls']:10d} "
                    f"{layers[f'{name}.share']:7.1%}")
        work = [f"{name}={value:.6g}" for name, value in layers.items()
                if value and not name.endswith(_LAYER_FIELDS)
                and name not in ("traced_s", "tracer.overhead")]
        lines.append("  work: " + " ".join(work))
    for problem in record["problems"]:
        lines.append(f"  FAILED: {problem}")
    return "\n".join(lines)


def _metrics(record: dict, trace: int | None) -> dict:
    """The ``BENCHMARK.json`` metrics of one workload, by name."""
    chosen = {}
    if trace != 1:
        for metric in SPEC["end_to_end"]:
            chosen[metric["name"]] = {
                "value": record["values"][metric["name"]],
                "unit": metric["unit"]}
    if trace != 0:
        for metric in SPEC["per_layer"]:
            chosen[metric["name"]] = {
                "value": record["per_layer"][metric["name"]],
                "unit": metric["unit"]}
    return chosen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help=f"timed window per workload (default "
                             f"{SPEC['run_seconds']}; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "only; default both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for tests")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write every measurement here as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(SPEC["run_seconds"])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    chosen = [args.workload] if args.workload else WORKLOADS
    results, metrics = {}, {}
    attempted = failed = 0
    try:
        for workload in chosen:
            deadline = time.monotonic() + BUDGET_S
            record = measure(workload, args.seed, args.seconds,
                             args.trace, args.smoke, deadline)
            results[workload] = record
            print(_render(workload, record, args.trace), flush=True)
            attempted += record["attempted"]
            failed += record["failed"]
            prefix = "" if args.workload else f"{workload}."
            metrics.update({prefix + name: value for name, value
                            in _metrics(record, args.trace).items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "smoke": args.smoke,
             "seconds": args.seconds, "workloads": results},
            indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
