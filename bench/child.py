"""One workload in one fresh process; ``run.py`` starts it.

In order: setup; one cold execution; timed executions (at least
:data:`MIN_REPEATS`, and more until ``--seconds`` have passed), each
after ``gc.collect()`` with the previous result dropped; a read of peak
memory; with ``--trace 1`` one execution under the per-layer tracer.
Every execution's outputs are checked.  The last line of stdout is one
JSON object with the raw measurements; ``run.py`` turns them into
metrics.  ``--cold-only`` stops after the cold execution (more
``setup_s`` and ``cold_run_s`` samples).
"""

import time

_START = time.perf_counter()  # setup_s counts from here, imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent

#: The fewest timed executions a run makes, however long they take.
MIN_REPEATS = 5

#: Relative tolerance for float outputs (the logits checksums are
#: BLAS-order sensitive; everything else matches far tighter).
RTOL = 1e-4


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-9)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def digest_problems(digest: dict, reference: dict | None) -> list[str]:
    """What is wrong with one execution's outputs (empty when correct)."""
    from workloads import CONSERVATION

    arrivals, *outcomes = (digest[key] for key in CONSERVATION)
    problems = []
    if arrivals != sum(outcomes):
        problems.append(
            f"conservation: {arrivals} arrivals != "
            + " + ".join(f"{k} {digest[k]}" for k in CONSERVATION[1:]))
    if reference is not None:
        for key in sorted(set(digest) | set(reference)):
            if key not in digest or key not in reference or \
                    not _same(digest[key], reference[key]):
                problems.append(f"{key}: {digest.get(key)!r} != "
                                f"expected {reference.get(key)!r}")
    return problems


def layer_metrics(tracer, traced_s: float, run_s: float,
                  counts: dict) -> dict:
    """Per-layer self time, calls and share, work counts and rates."""
    from workloads import WORK_COUNTS

    metrics = {"traced_s": traced_s, "tracer.overhead": traced_s / run_s}
    totals = tracer.layer_totals()
    for layer, (self_s, calls) in totals.items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.share"] = self_s / traced_s
    for name in WORK_COUNTS:
        metrics[name] = counts.get(name, 0)
    kernel_s = totals["models.functional"][0]
    metrics["models.functional.gmacs_per_s"] = (
        metrics["models.functional.gmacs"] / kernel_s if kernel_s else 0.0)
    preprocess_s = (totals["preprocessing.pipelines"][0]
                    + totals["preprocessing.ops"][0])
    metrics["preprocessing.pipelines.mpix_per_s"] = (
        counts.get("mpix", 0.0) / preprocess_s if preprocess_s else 0.0)
    return metrics


def main() -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--cold-only", action="store_true")
    parser.add_argument("--trace-out", type=pathlib.Path)
    args = parser.parse_args()

    import numpy as np

    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.smoke)
    result = {"setup_s": time.perf_counter() - _START}

    size = "smoke" if args.smoke else "full"
    expected = json.loads((HERE / "expected.json").read_text())
    reference = expected.get(args.workload, {}).get(size, {}).get(
        str(args.seed))
    problems: list[str] = []
    attempted = failed = 0

    def execute(run=workload.execute):
        nonlocal attempted, failed, reference
        start = time.perf_counter()
        outcome = run(inputs)
        elapsed = time.perf_counter() - start
        found = digest_problems(outcome.digest, reference)
        # Without a committed digest the cold run is the reference that
        # every later execution must reproduce.
        reference = reference or outcome.digest
        attempted += 1
        if found:
            failed += 1
            problems.extend(found[:5])
        return outcome, elapsed

    cold, result["cold_run_s"] = execute()
    result.update(attempted=attempted, failed=failed, problems=problems)
    if args.cold_only:
        return result
    digest, items = cold.digest, cold.items
    del cold
    samples = []
    window = time.perf_counter()
    while (len(samples) < MIN_REPEATS
           or time.perf_counter() - window < args.seconds):
        gc.collect()
        samples.append(execute()[1])
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.trace:
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_s = execute(
                lambda inp: tracer.run(workload.execute, inp))
        finally:
            tracer.uninstall()
        result["per_layer"] = layer_metrics(
            tracer, traced_s, statistics.median(samples), traced.counts)
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(tracer.chrome_trace()))
    result.update(
        run_samples=samples, items=items, items_unit=workload.items,
        attempted=attempted, failed=failed, digest=digest,
        numpy=np.__version__,
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"))
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
