"""What-if platform definition: preview hardware before buying it.

"enable practitioners to establish performance expectations before
deployment" — :func:`define_platform` turns datasheet numbers into a
:class:`PlatformSpec` (practical FLOPS estimated from the tier's observed
efficiency when no measurement exists), and :func:`preview_platform` runs
the whole model zoo through the predictor on it.

:func:`cache_effective_qps` extends the same pre-deployment question to
the caching subsystem (:mod:`repro.cache`): what request rate does the
same hardware sustain once a cache tier with a given hit ratio
short-circuits a given fraction of per-request cost?
"""

from __future__ import annotations

import math

from repro.bounds import within
from repro.hardware.platform import (
    PlatformKind,
    PlatformSpec,
    Scenario,
    get_platform,
)
from repro.hardware.precision import Precision, parse_precision
from repro.models.zoo import list_models
from repro.predict.predictor import PerformancePredictor

#: Practical/theoretical efficiency assumed for an unmeasured device,
#: taken from the tier's measured platforms (Table 1): cloud 75-83%,
#: edge 67%.
_TIER_EFFICIENCY = {PlatformKind.CLOUD: 0.78, PlatformKind.EDGE: 0.67}


def define_platform(
    name: str,
    kind: "PlatformKind | str",
    peak_tflops: float,
    precision: "Precision | str",
    gpu_memory_gb: float,
    memory_bandwidth_gbps: float,
    cpu_cores: int,
    unified_memory: bool = False,
    host_memory_gb: float | None = None,
    measured_practical_tflops: float | None = None,
    power_watts: float | None = None,
) -> PlatformSpec:
    """Build a hypothetical platform from datasheet numbers.

    ``measured_practical_tflops`` overrides the tier-efficiency estimate
    when the practitioner has run the Table 1 GEMM benchmark on real
    hardware.

    >>> orin_nx = define_platform("OrinNX", "edge", peak_tflops=50.0,
    ...     precision="fp16", gpu_memory_gb=16, memory_bandwidth_gbps=102,
    ...     cpu_cores=8, unified_memory=True)
    >>> orin_nx.practical_tflops
    33.5
    """
    kind = PlatformKind(kind)
    if kind is PlatformKind.HOST:
        raise ValueError("define cloud or edge platforms")
    precision = parse_precision(precision)
    within("peak_tflops", peak_tflops, "(0, inf)")
    practical = (measured_practical_tflops
                 if measured_practical_tflops is not None
                 else round(peak_tflops * _TIER_EFFICIENCY[kind], 1))
    scenarios = ((Scenario.REAL_TIME,) if kind is PlatformKind.EDGE
                 else (Scenario.ONLINE, Scenario.OFFLINE))
    usable = 0.52 if unified_memory else 0.92
    return PlatformSpec(
        name=name,
        kind=kind,
        cpu_cores=cpu_cores,
        gpu_name=f"{name} (hypothetical)",
        gpu_count=1,
        gpu_memory_gb=gpu_memory_gb,
        host_memory_gb=(gpu_memory_gb if unified_memory
                        else (host_memory_gb or 4 * gpu_memory_gb)),
        unified_memory=unified_memory,
        theoretical_tflops={precision: peak_tflops},
        practical_tflops=practical,
        benchmark_precision=precision,
        memory_bandwidth_gbps=memory_bandwidth_gbps,
        scenarios=scenarios,
        power_watts=power_watts,
        usable_memory_fraction=usable,
    )


def cache_effective_qps(base_qps: float, hit_ratio: float,
                        stage_fraction: float) -> float:
    """Sustainable QPS once a cache absorbs part of every request.

    A cache tier with hit ratio *h* short-circuiting a stage that is
    fraction *f* of each request's serving cost leaves ``1 - h*f`` of
    the original per-request work, so the same hardware sustains

        ``effective_qps = base_qps / (1 - h * f)``

    An edge *result* cache short-circuits the whole serving path
    (``stage_fraction=1.0``: at h=0.8 one replica set serves 5x the
    frames); a cloud *tensor* cache removes only the preprocess share
    (CRSA's CPU-bound warp can be >0.5 of the Fig. 8 budget).  A fully
    absorbed workload (``h*f == 1``) returns ``inf``.
    """
    within("base_qps", base_qps, "(0, inf)")
    within("hit_ratio", hit_ratio, "[0, 1]")
    within("stage_fraction", stage_fraction, "[0, 1]")
    remaining = 1.0 - hit_ratio * stage_fraction
    if remaining <= 0.0:
        return float("inf")
    return base_qps / remaining


def uplink_fair_share_rate(link, endpoints: int,
                           image_bytes: float) -> float:
    """Per-endpoint upload ceiling on a shared bottleneck (images/s).

    ``endpoints`` co-located devices fair-share one uplink, so each
    sustains ``link.sustainable_images_per_second(image_bytes) /
    endpoints`` — already discounted for the link's loss-retransmission
    expansion.  The "can four field cameras stream through one LTE
    modem" question, answered before deploying.
    """
    within("endpoints", endpoints, "[1, inf)")
    return link.sustainable_images_per_second(image_bytes) / endpoints


def compare_serverless(trace, *, execute_seconds: float,
                       memory_gb: float, replica_cost_per_hour: float,
                       replica_qps_capacity: float, cost_model=None,
                       bins: int = 24) -> dict:
    """Serverless vs. provisioned replicas for one farm trace.

    Planner-regime arithmetic (deterministic, no simulation): the
    trace is binned into ``bins`` equal windows via
    :meth:`~repro.serving.traces.ArrivalTrace.rate_histogram`; in each
    bin the serverless cost rate is ``rate x invocation_cost`` while
    the provisioned fleet — sized for the trace's *peak* bin, because
    replicas cannot scale-to-zero between frames — costs a flat
    ``replicas x replica_cost_per_hour``.  The crossover falls out of
    the comparison: sparse nighttime bins favor the per-invocation
    meter, the daylight peak favors the flat replica.

    ``break_even_qps`` is the request rate at which serverless spend
    matches *one* provisioned replica — above it, provisioned becomes
    cheaper per replica's worth of traffic.

    Returns a JSON-friendly dict: per-bin rates and cost rates, trace
    totals in dollars, the break-even QPS, crossover hours (bins where
    serverless is the cheaper regime), and the overall verdict.
    """
    from repro.faas.cost import CostModel

    within("execute_seconds", execute_seconds, "(0, inf)")
    within("memory_gb", memory_gb, "(0, inf)")
    within("replica_cost_per_hour", replica_cost_per_hour, "[0, inf)")
    within("replica_qps_capacity", replica_qps_capacity, "(0, inf)")
    if cost_model is None:
        cost_model = CostModel()
    rates = trace.rate_histogram(bins)
    peak_rate = max(rates) if rates else 0.0
    replicas = max(1, math.ceil(peak_rate / replica_qps_capacity))
    provisioned_per_second = replicas * replica_cost_per_hour / 3600.0
    per_invocation = cost_model.invocation_cost(execute_seconds,
                                                memory_gb)
    bin_seconds = trace.duration / bins
    bin_rows = []
    serverless_total = 0.0
    crossover_bins = 0
    for index, rate in enumerate(rates):
        serverless_rate = cost_model.serverless_cost_per_second(
            rate, execute_seconds, memory_gb)
        serverless_total += serverless_rate * bin_seconds
        cheaper = serverless_rate < provisioned_per_second
        crossover_bins += cheaper
        bin_rows.append({
            "start": index * bin_seconds,
            "rate": rate,
            "serverless_usd_per_s": serverless_rate,
            "provisioned_usd_per_s": provisioned_per_second,
            "serverless_cheaper": bool(cheaper),
        })
    provisioned_total = provisioned_per_second * trace.duration
    break_even_qps = (float("inf") if per_invocation == 0 else
                      (replica_cost_per_hour / 3600.0) / per_invocation)
    return {
        "bins": bin_rows,
        "replicas": replicas,
        "peak_rate": peak_rate,
        "per_invocation_usd": per_invocation,
        "serverless_total_usd": serverless_total,
        "provisioned_total_usd": provisioned_total,
        "break_even_qps": break_even_qps,
        "crossover_hours": crossover_bins * bin_seconds / 3600.0,
        "cheaper": ("serverless"
                    if serverless_total < provisioned_total
                    else "provisioned"),
    }


def preview_platform(platform: PlatformSpec,
                     donor: str | None = None) -> list[dict]:
    """Run the model zoo through the predictor on a candidate device.

    Returns one expectation report per zoo model, plus the speedup over
    the same-tier reference platform — the "should we buy it" table.
    """
    predictor = PerformancePredictor(platform, donor=donor)
    reference = get_platform("jetson"
                             if platform.kind is PlatformKind.EDGE
                             else "a100")
    ref_predictor = PerformancePredictor(reference)
    rows = []
    for entry in list_models():
        report = predictor.expectation_report(entry.graph)
        ref = ref_predictor.expectation_report(entry.graph)
        report["speedup_vs_" + reference.name.lower()] = (
            report["peak_throughput"] / ref["peak_throughput"])
        rows.append(report)
    return rows

