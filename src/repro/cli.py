"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``report [artifact]``   print a reproduced table/figure (default: all)
``compare``             paper-vs-model anchor diff table
``advise``              tuning advice for a (platform, dataset) pair
``predict``             expectation report for a (model, platform) pair
``figures``             write the Fig 5-8 panels as SVG files
``backtest``            leave-one-platform-out predictor validation
``metrics``             run a serving scenario; print its live time
                        series, stage breakdown, and metrics scrape
``autoscale``           replay a step-load trace through the balancer
                        with admission control and the replica
                        autoscaler; print the scaling timeline
``trace``               replay a bursty trace across the continuum
                        with end-to-end tracing; emit Perfetto JSON,
                        the critical-path table, and SLO burn alerts
``cache``               replay a correlated field-camera frame
                        sequence through the two-tier cache hierarchy
                        at several scene-change rates; print the
                        tier-by-tier hit table, uplink bytes saved,
                        and p95 with/without the cache
``profile``             run deterministic serving scenarios with
                        exemplars enabled; print the sim-time cost
                        tree derived from the run, folded stacks, the
                        exemplar-joined tail attribution, and the
                        fluid regime timeline
``faas``                replay a sparse nighttime diurnal trace
                        through the serverless backend: cold-start
                        p99 inflation, scale-to-zero reaping, the
                        GB-second cost meter, and the serverless-vs-
                        provisioned break-even
``sweep``               fan a seed-replicated sparse-diurnal sweep
                        across worker processes; print the
                        deterministic per-shard table, aggregate
                        confidence intervals, and merged quantiles
                        (byte-identical output for any --jobs)

Subcommands that run the same experiment share one private builder:
``autoscale`` and ``trace`` take their flags from ``_step_load_parent``
and their fleet from ``_step_load_fleet``; ``cache`` and ``network``
replay frames through ``_two_tier_cache`` and ``_replay_frames``.
Imports stay inside the functions, so ``repro report`` loads no
simulator.  tests/golden/cli/ pins every simulation subcommand's
output byte for byte.

Every numeric option declares its bound where it is added:
``add_argument(..., within="(0, inf)")`` checks the value with
:func:`repro.bounds.within` as it is parsed, so an out-of-range value
exits 2 with ``error: --option ...`` before any subcommand runs.  A
``_cmd_*`` body checks only what relates two options, such as
``--night-rate`` against ``--peak-rate``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bounds import within


class _Within(argparse.Action):
    """Store an option's value once it lies in ``interval``."""

    def __init__(self, *args, interval: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.interval = interval

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest,
                within(self.option_strings[0], value, self.interval))


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose ``add_argument`` also takes
    ``within=``, the interval (see :mod:`repro.bounds`) the option's
    value must lie in; a value outside it raises ``ValueError``, which
    :func:`main` reports as ``error: --option ...``."""

    def add_argument(self, *args, within: str | None = None, **kwargs):
        if within is not None:
            kwargs.update(action=_Within, interval=within)
        return super().add_argument(*args, **kwargs)


def _check_day(args: argparse.Namespace) -> None:
    """The sparse-diurnal day's one cross-option bound."""
    if args.night_rate > args.peak_rate:
        raise ValueError("--night-rate must lie in [0, --peak-rate], "
                         f"got {args.night_rate}")


def _check_step(args: argparse.Namespace) -> None:
    """The step trace's one cross-option bound."""
    if not args.step_start < args.step_end <= args.duration:
        raise ValueError("--step-start and --step-end must satisfy "
                         "--step-start < --step-end <= --duration, got "
                         f"{args.step_start:g}, {args.step_end:g} and "
                         f"{args.duration:g}")


def _write(path: str, content, note: str = "") -> None:
    """Write ``content`` to ``path`` and say so on stdout.

    A dict is written as indented, key-sorted JSON ending in a newline.
    """
    import pathlib

    if not isinstance(content, str):
        import json

        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    pathlib.Path(path).write_text(content)
    print(f"wrote {path}{note}")


def _scrape_lines(registry, keep) -> list[str]:
    """The lines of ``registry``'s scrape for which ``keep`` holds."""
    from repro.serving.exporter import export_registry

    return [line for line in export_registry(registry).splitlines()
            if keep(line)]


def _tally(statuses) -> str:
    """``status=count`` pairs in status order, two spaces apart."""
    from collections import Counter

    return "  ".join(f"{status}={count}" for status, count
                     in sorted(Counter(statuses).items()))


def _register(server, name: str, service, batch: int, delay: float,
              queue: int = 0, **config):
    """Register ``name`` on ``server`` behind a dynamic batcher of up to
    ``batch`` images, ``delay`` seconds and ``queue`` queued images
    (0 = unbounded); returns ``server``."""
    from repro.serving.batcher import BatcherConfig
    from repro.serving.server import ModelConfig

    server.register(ModelConfig(name, service, batcher=BatcherConfig(
        max_batch_size=batch, max_queue_delay=delay,
        max_queue_size=queue), **config))
    return server


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import full_report, render_report

    if args.format == "text":
        text = (full_report() if args.artifact == "all"
                else render_report(args.artifact))
    else:
        table = _structured_table(args.artifact)
        text = (table.to_json(indent=2) if args.format == "json"
                else table.to_csv())
    if args.out:
        _write(args.out, text)
    else:
        print(text)
    return 0


def _structured_table(artifact: str):
    """A ResultTable for machine-readable export."""
    from repro.core.study import CharacterizationStudy

    study = CharacterizationStudy()
    generators = {
        "table1": study.table1,
        "table2": study.table2,
        "table3": study.table3,
        "fig5": study.engine_scaling,
        "fig6": study.engine_scaling,
        "fig7": study.preprocessing,
        "fig8": study.end_to_end,
    }
    if artifact not in generators:
        raise KeyError(
            f"structured export supports {sorted(generators)}, "
            f"not {artifact!r}")
    return generators[artifact]()


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import render_comparison

    print(render_comparison())
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.guidance import TuningAdvisor
    from repro.data.datasets import get_dataset
    from repro.hardware.platform import get_platform

    advisor = TuningAdvisor(get_platform(args.platform),
                            latency_target_seconds=args.latency_ms / 1e3)
    dataset = get_dataset(args.dataset)
    print(f"deployment advice for {dataset.display_name} on "
          f"{args.platform} (target {args.latency_ms:.1f} ms):")
    for rec in advisor.recommend_model(dataset):
        status = "meets target" if rec.meets_target else "misses target"
        print(f"  {rec.model:10s} @BS{rec.batch_size:<4d} "
              f"{rec.throughput:8.0f} img/s  "
              f"{rec.latency_seconds * 1e3:7.1f} ms  "
              f"{rec.bottleneck}-bound  [{status}]")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.hardware.platform import get_platform
    from repro.models.zoo import get_model
    from repro.predict.predictor import PerformancePredictor

    predictor = PerformancePredictor(get_platform(args.platform))
    report = predictor.expectation_report(get_model(args.model).graph)
    for key, value in report.items():
        if isinstance(value, float):
            value = f"{value:.4g}"
        print(f"  {key}: {value}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz.charts import save_all_figures

    paths = save_all_figures(args.out)
    for path in paths:
        print(path)
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    from repro.predict.validation import backtest_platform

    results = backtest_platform(args.platform, args.donor)
    print(f"predicting {args.platform} from {args.donor} calibration:")
    for r in results:
        print(f"  {r.model:10s} @BS{r.batch:<5d} paper "
              f"{r.paper_images_per_second:9.1f}  predicted "
              f"{r.predicted_images_per_second:9.1f}  "
              f"({r.relative_error:+.1%})")
    mean = sum(r.relative_error for r in results) / len(results)
    print(f"  mean relative error: {mean:.1%}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        registry_stage_breakdown,
        render_stage_breakdown,
    )
    from repro.serving.client import OpenLoopClient
    from repro.serving.exporter import export_metrics
    from repro.serving.observability import TimeSeriesSampler
    from repro.serving.server import TritonLikeServer

    server = _register(TritonLikeServer(), "preprocess",
                       lambda n: 0.0008 * n, 16, 0.002)
    _register(server, "infer", lambda n: 0.004 + 0.0012 * n, 32, 0.005,
              args.queue_limit, instances=args.instances,
              preprocess_model="preprocess")
    client = OpenLoopClient(server, "infer", rate_per_second=args.rate,
                            num_requests=args.requests, seed=args.seed)
    sampler = TimeSeriesSampler(server, interval=args.interval)
    client.start()
    sampler.start()
    server.run()

    print(f"scenario: preprocess->infer, {args.requests} requests @ "
          f"{args.rate:g} rps, sampled every {args.interval:g} s")
    print("== timeline ==")
    print(sampler.render_timeline(), end="")
    print("== stage breakdown ==")
    breakdown = registry_stage_breakdown(server.metrics)
    print(render_stage_breakdown(breakdown), end="")
    print("== scrape ==")
    print(export_metrics(server), end="")
    return 0


def _step_load_fleet(args: argparse.Namespace, model_name: str,
                     batch: int, queue_delay: float, max_replicas: int,
                     slo: float, interval: float = 0.25,
                     cooldown: float = 1.0):
    """The replica fleet ``autoscale`` and ``trace`` replay a step into.

    A simulator and registry, replicas serving ``model_name`` at
    ``args.model``'s latency on ``args.platform``, token-bucket
    admission, a JSQ balancer over one replica, the autoscaler, and
    the step trace with its one-line ``header``.  Every callable in
    ``on_replica`` receives each replica the autoscaler adds.
    """
    from types import SimpleNamespace

    from repro.engine.latency import LatencyModel
    from repro.hardware.platform import get_platform
    from repro.models.zoo import get_model
    from repro.scale.admission import AdmissionConfig, AdmissionController
    from repro.scale.autoscaler import Autoscaler, AutoscalerConfig
    from repro.scale.balancer import JoinShortestQueuePolicy, LoadBalancer
    from repro.serving.events import Simulator
    from repro.serving.observability import MetricsRegistry
    from repro.serving.server import TritonLikeServer
    from repro.serving.traces import step_trace

    _check_step(args)
    latency = LatencyModel(get_model(args.model).graph,
                           get_platform(args.platform))
    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    on_replica: list = []

    def replica_factory() -> TritonLikeServer:
        server = _register(TritonLikeServer(sim, registry=registry),
                           model_name, lambda n: latency.latency(max(1, n)),
                           batch, queue_delay)
        for hook in on_replica:
            hook(server)
        return server

    admission = AdmissionController(AdmissionConfig(
        rate_per_second=args.admit_rate, burst=args.admit_burst,
        max_queued_requests=args.shed_queue))
    balancer = LoadBalancer([replica_factory()],
                            policy=JoinShortestQueuePolicy(),
                            registry=registry, admission=admission)
    autoscaler = Autoscaler(balancer, replica_factory, AutoscalerConfig(
        slo_p95_seconds=slo, interval=interval, min_replicas=1,
        max_replicas=max_replicas, cooldown_seconds=cooldown))
    trace = step_trace(duration=args.duration, base_rate=args.base_rate,
                       step_rate=args.step_rate,
                       step_start=args.step_start,
                       step_end=args.step_end, seed=args.seed)
    header = (f"trace: {args.base_rate:g}->{args.step_rate:g}->"
              f"{args.base_rate:g} rps over {args.duration:g} s "
              f"(step {args.step_start:g}..{args.step_end:g} s, "
              f"seed {args.seed}), {len(trace)} requests")
    return SimpleNamespace(sim=sim, registry=registry, balancer=balancer,
                           autoscaler=autoscaler, trace=trace,
                           header=header, on_replica=on_replica)


def _cmd_autoscale(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_scaling_timeline
    from repro.hardware.platform import get_platform
    from repro.models.zoo import get_model
    from repro.predict.capacity import CapacityPlanner, WorkloadSpec
    from repro.scale.autoscaler import replica_ceiling
    from repro.serving.metrics import summarize_responses
    from repro.serving.traces import TraceReplayer

    slo = args.slo_ms / 1e3
    max_replicas = args.max_replicas
    ceiling_note = f"{max_replicas} (--max-replicas)"
    if max_replicas == 0:
        # The planner bounds what reacting may cost: size the ceiling
        # for the trace's peak demand, with scale-out safety slack.
        workload = WorkloadSpec(images_per_second=args.step_rate,
                                latency_slo_seconds=slo)
        plan = CapacityPlanner(workload).plan(get_model(args.model).graph,
                                              get_platform(args.platform))
        max_replicas = replica_ceiling(plan, safety_factor=1.25)
        ceiling_note = (f"{max_replicas} (capacity plan: {plan.devices} "
                        f"device(s) x 1.25 safety)")

    fleet = _step_load_fleet(args, "infer", 32, 0.01, max_replicas, slo,
                             interval=args.interval,
                             cooldown=args.cooldown)
    balancer, autoscaler = fleet.balancer, fleet.autoscaler
    replayer = TraceReplayer(balancer, "infer")
    replayer.schedule(fleet.trace)
    autoscaler.start()
    responses = balancer.run()

    print(f"autoscale scenario: {args.model} on {args.platform} "
          f"replicas, p95 SLO {args.slo_ms:g} ms")
    print(fleet.header)
    print(f"replica ceiling: {ceiling_note}")
    print("== scaling timeline ==")
    print(render_scaling_timeline(autoscaler.events, slo_seconds=slo),
          end="")
    ok = [r for r in responses if r.ok]
    shed = balancer.metrics.get("admission_rejected_total")
    peak = max((e.replicas for e in autoscaler.events),
               default=len(balancer.backends))
    print("== summary ==")
    print(f"  submitted {replayer.submitted}  admitted "
          f"{replayer.submitted - int(shed.total())}  "
          f"shed rate={int(shed.value(reason='rate'))} "
          f"queue={int(shed.value(reason='queue'))}")
    print(f"  responses: {_tally(r.status for r in responses)}")
    if ok:
        stats = summarize_responses(ok)
        print(f"  served p50 {stats.p50_latency * 1e3:.1f} ms  "
              f"p95 {stats.p95_latency * 1e3:.1f} ms  "
              f"throughput {stats.throughput_ips:.0f} img/s")
    print(f"  replicas: peak {peak}, final {len(balancer.backends)}")
    print("== control metrics ==")
    print("\n".join(_scrape_lines(
        fleet.registry, lambda line: "autoscale" in line
        or "admission" in line or "balancer" in line)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        render_scaling_timeline,
        render_slo_alerts,
    )
    from repro.continuum.network import get_link
    from repro.continuum.pipeline import ContinuumReplayer
    from repro.serving.observability import DEFAULT_BUCKETS
    from repro.serving.slo import SLOConfig, SLOMonitor
    from repro.serving.trace_export import (
        critical_path_summary,
        export_chrome_trace,
        render_critical_path,
    )
    from repro.serving.traces import TraceReplayer

    link = get_link(args.link)
    threshold = args.slo_ms / 1e3
    fleet = _step_load_fleet(args, args.model, args.batch, 0.002,
                             args.max_replicas, threshold)
    # Bucket boundary exactly at the SLO threshold, so the monitor's
    # conservative bucket counting is exact at the objective.
    buckets = tuple(sorted({*DEFAULT_BUCKETS, threshold}))
    replayer = ContinuumReplayer(
        fleet.balancer, link,
        edge_preprocess_time=lambda n: args.edge_preprocess_ms / 1e3 * n,
        image_bytes=args.image_kb * 1024.0,
        registry=fleet.registry, latency_buckets=buckets)
    replayer.attach_backend(fleet.balancer.backends[0])
    fleet.on_replica.append(replayer.attach_backend)

    slo_config = SLOConfig(
        latency_threshold_seconds=threshold, objective=args.objective,
        fast_window_seconds=1.0, slow_window_seconds=5.0,
        rearm_seconds=2.0)
    monitor = SLOMonitor(fleet.sim, fleet.registry, slo_config,
                         histogram_name="continuum_latency_seconds")
    monitor.on_alert(fleet.autoscaler.notify_slo_alert)
    TraceReplayer(replayer, args.model).schedule(fleet.trace)
    fleet.autoscaler.start()
    monitor.start()
    fleet.balancer.run()

    print(f"trace scenario: {args.model} on {args.platform} replicas "
          f"behind {link.name}, {args.slo_ms:g} ms / "
          f"{args.objective:.0%} SLO")
    print(fleet.header)
    closed = replayer.completed_traces()
    print(f"  traces: {len(closed)} closed of {len(replayer.traces)} "
          f"({_tally(ctx.status for ctx in closed)})")

    print("== critical path ==")
    served = [t for t in closed if t.status == "ok"]
    if served:
        print(render_critical_path(critical_path_summary(served)),
              end="")
    else:
        print("(no served requests)")
    print("== slo burn alerts ==")
    print(render_slo_alerts(monitor.alerts, slo_config), end="")
    print("== scaling timeline ==")
    print(render_scaling_timeline(fleet.autoscaler.events,
                                  slo_seconds=threshold), end="")
    if args.out:
        text = export_chrome_trace(closed)
        events = text.count('"ph"')
        _write(args.out, text, f" ({len(closed)} traces, {events} events)")
    return 0


def _two_tier_cache(server, edge_kb: float, cloud_mb: float, ttl: float,
                    threshold: int = 0, admission=None):
    """An edge result tier over a cloud tensor tier on ``server``'s
    clock and registry (``threshold`` is the Hamming match budget)."""
    from repro.cache.store import CacheStore
    from repro.cache.tiers import (
        CLOUD_TENSOR,
        EDGE_RESULT,
        CacheHierarchy,
        CacheTier,
    )

    def clock() -> float:
        return server.sim.now

    edge = CacheStore(capacity_bytes=edge_kb * 1024.0, clock=clock,
                      match_threshold=threshold, ttl_seconds=ttl,
                      admission=admission, name=EDGE_RESULT)
    cloud = CacheStore(capacity_bytes=cloud_mb * 1024.0 * 1024.0,
                       clock=clock, match_threshold=threshold,
                       name=CLOUD_TENSOR)
    return CacheHierarchy(
        edge=CacheTier(EDGE_RESULT, edge, stage="uplink+serving",
                       registry=server.metrics),
        cloud=CacheTier(CLOUD_TENSOR, cloud, stage="preprocess",
                        registry=server.metrics))


def _camera_frames(spec, count: int, scene_change_rate: float, seed):
    """Fingerprints of one camera's correlated frame sequence, and
    the size of one frame in bytes."""
    import numpy as np

    from repro.cache.keys import fingerprint
    from repro.data.synthetic import synth_frame_sequence

    frames = synth_frame_sequence(spec, count, scene_change_rate,
                                  np.random.default_rng(seed))
    return [fingerprint(frame) for frame in frames], float(frames[0].nbytes)


def _replay_frames(server, transport, sequences: list[list],
                   interval: float, image_bytes: float, cache=None):
    """Replay fingerprinted frames through a ``ContinuumReplayer``.

    ``sequences`` holds one fingerprint list per endpoint; endpoints
    capture in lockstep, one frame each every ``interval`` seconds.
    Runs ``server``'s simulator to completion and returns the
    replayer, its closed traces, and the sorted latencies of the
    served ones.
    """
    from repro.continuum.pipeline import ContinuumReplayer
    from repro.serving.request import Request

    replayer = ContinuumReplayer(
        server, transport, edge_preprocess_time=lambda n: 0.002 * n,
        image_bytes=image_bytes, registry=server.metrics, cache=cache)
    if cache is not None:
        server.attach_cache(cache)
    endpoints = len(sequences)
    for index in range(len(sequences[0])):
        for endpoint, fingerprints in enumerate(sequences):
            request = Request("infer", num_images=1,
                              request_id=index * endpoints + endpoint + 1,
                              cache_key=fingerprints[index])
            request.endpoint = endpoint
            server.sim.schedule_at(index * interval,
                                   lambda r=request: replayer.submit(r))
    server.run()
    closed = replayer.completed_traces()
    latencies = sorted(t.latency for t in closed if t.status == "ok")
    return replayer, closed, latencies


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_cache_table
    from repro.cache.store import FrequencySketch
    from repro.continuum.network import get_link
    from repro.data.datasets import get_dataset
    from repro.predict.whatif import cache_effective_qps
    from repro.serving.metrics import ceil_rank
    from repro.serving.server import TritonLikeServer

    rates = []
    for token in filter(str.strip, args.scene_change_rates.split(",")):
        try:
            rates.append(float(token))
        except ValueError:
            raise ValueError("--scene-change-rates must list numbers, "
                             f"got {token.strip()!r}") from None
    if not rates:
        raise ValueError("--scene-change-rates must name at least one "
                         "rate")
    for rate in rates:
        within("--scene-change-rates", rate, "[0, 1]")
    spec = get_dataset(args.dataset)
    link = get_link(args.link)

    def replay(fingerprints, image_bytes: float, cached: bool):
        # CRSA's CPU-bound perspective warp: linear in batch size, so
        # batching does not raise throughput and the uncached run
        # saturates whenever rate * preprocess time > 1.
        server = _register(TritonLikeServer(), "preprocess",
                           lambda n: args.preprocess_ms / 1e3 * n, 8, 0.001)
        _register(server, "infer", lambda n: 0.004 + 0.0012 * n, 8, 0.002,
                  preprocess_model="preprocess")
        cache = (_two_tier_cache(server, args.edge_capacity_kb,
                                 args.cloud_capacity_mb, args.edge_ttl,
                                 args.threshold, FrequencySketch())
                 if cached else None)
        replayer, _, latencies = _replay_frames(
            server, link, [fingerprints], 1.0 / args.rate, image_bytes,
            cache)
        p95 = ceil_rank(latencies, 0.95) if latencies else 0.0
        return replayer, cache, len(latencies), p95

    print(f"cache scenario: {spec.name} frames behind {link.name}, "
          f"{args.frames} frames @ {args.rate:g} rps")
    print(f"fingerprint: 8x8 dhash + 4x4 blocks, Hamming threshold "
          f"{args.threshold}; edge ttl {args.edge_ttl:g} s, edge "
          f"{args.edge_capacity_kb:g} KiB, cloud "
          f"{args.cloud_capacity_mb:g} MiB (seed {args.seed})")
    report_rows = []
    for rate in rates:
        fingerprints, image_bytes = _camera_frames(
            spec, args.frames, rate, [args.seed, int(round(rate * 1000))])
        _, _, base_served, p95_uncached = replay(fingerprints,
                                                 image_bytes, False)
        replayer, cache, served, p95_cached = replay(fingerprints,
                                                     image_bytes, True)
        edge_ratio = cache.edge.hit_ratio
        multiplier = (cache_effective_qps(args.rate, edge_ratio, 1.0)
                      / args.rate)
        saved_frames = len(replayer.cache_responses)
        print(f"== scene change rate {rate:.2f} ==")
        print(render_cache_table(cache.summaries()), end="")
        print(f"  p95 latency: cached {p95_cached * 1e3:.1f} ms / "
              f"uncached {p95_uncached * 1e3:.1f} ms "
              f"({served} and {base_served} served)")
        print(f"  uplink bytes saved: "
              f"{replayer.uplink_bytes_saved:.0f} "
              f"({saved_frames} of {args.frames} frames)")
        print(f"  whatif: edge hit ratio {edge_ratio:.1%} over the "
              f"full path -> {multiplier:.1f}x sustainable rate")
        report_rows.append({
            "scene_change_rate": rate,
            "frames": args.frames,
            "edge_hit_ratio": round(edge_ratio, 6),
            "cloud_hit_ratio": round(cache.cloud.hit_ratio, 6),
            "cached_p95_ms": round(p95_cached * 1e3, 3),
            "uncached_p95_ms": round(p95_uncached * 1e3, 3),
            "uplink_bytes_saved": replayer.uplink_bytes_saved,
            "cache_served_frames": saved_frames,
            "capacity_multiplier": round(multiplier, 3),
            "tiers": cache.summaries(),
        })
    if args.out:
        _write(args.out, {
            "scenario": {
                "dataset": spec.name, "link": link.name,
                "frames": args.frames, "rate_per_second": args.rate,
                "threshold": args.threshold,
                "edge_ttl_seconds": args.edge_ttl,
                "seed": args.seed,
            },
            "rates": report_rows,
        }, f" ({len(report_rows)} rates)")
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from repro.continuum.broker import Broker
    from repro.continuum.network import get_link
    from repro.continuum.uplink import SharedUplink, StoreAndForward
    from repro.data.datasets import get_dataset
    from repro.engine.latency import LatencyModel
    from repro.hardware.platform import get_platform
    from repro.models.zoo import get_model
    from repro.predict.whatif import uplink_fair_share_rate
    from repro.serving.events import Simulator
    from repro.serving.faults import LinkOutageModel
    from repro.serving.metrics import ceil_rank
    from repro.serving.server import TritonLikeServer

    link = get_link(args.link)
    if args.loss is not None or args.jitter_ms is not None:
        link = _dc.replace(
            link,
            loss_probability=(link.loss_probability if args.loss is None
                              else args.loss),
            jitter_seconds=(link.jitter_seconds
                            if args.jitter_ms is None
                            else args.jitter_ms / 1e3))
    outage = None
    if args.outage_start > 0:
        outage = LinkOutageModel(windows=(
            (args.outage_start,
             args.outage_start + args.outage_seconds),))
    spec = get_dataset(args.dataset)
    platform = get_platform(args.platform)
    latency = LatencyModel(get_model(args.model).graph, platform)
    image_bytes = args.image_kb * 1024.0
    interval = 1.0 / args.rate
    horizon = args.frames * interval + 60.0

    # Per-endpoint correlated frame sequences (shared seed family).
    sequences = [_camera_frames(spec, args.frames, args.scene_change_rate,
                                [args.seed, endpoint])[0]
                 for endpoint in range(args.endpoints)]

    def uplink_span_stats(closed):
        durations = sorted(
            span.duration
            for trace in closed for span in trace.find("uplink"))
        if not durations:
            return {"transfers": 0, "mean_ms": 0.0, "max_ms": 0.0}
        return {
            "transfers": len(durations),
            "mean_ms": round(
                sum(durations) / len(durations) * 1e3, 3),
            "max_ms": round(durations[-1] * 1e3, 3),
        }

    uncontended_ms = link.transfer_seconds(image_bytes) * 1e3
    total = args.frames * args.endpoints
    print(f"network scenario: {args.endpoints} co-located endpoints on "
          f"{link.name} ({link.bandwidth_bps / 1e6:g} Mbps, rtt "
          f"{link.round_trip_seconds * 1e3:g} ms, jitter ±"
          f"{link.jitter_seconds * 1e3:g} ms, loss "
          f"{link.loss_probability:.2%})")
    print(f"frames: {args.frames} per endpoint @ {args.rate:g} fps, "
          f"{args.image_kb:g} KiB images, scene change "
          f"{args.scene_change_rate:g}, {spec.name} (seed {args.seed})")
    if outage is not None:
        print(f"outage: link down {args.outage_start:g}.."
              f"{args.outage_start + args.outage_seconds:g} s "
              f"(store-and-forward)")
    fair = uplink_fair_share_rate(link, args.endpoints, image_bytes)
    print(f"whatif: fair share {fair:.2f} img/s per endpoint "
          f"({fair * args.endpoints:.2f} aggregate ceiling, expected "
          f"uncontended transfer {uncontended_ms:.0f} ms)")

    runs = {}
    for label, with_cache in (("uncached", False), ("cached", True)):
        server = _register(TritonLikeServer(), "infer",
                           lambda n: latency.latency(max(1, n)), 8, 0.002)
        uplink = SharedUplink(link, server.sim, seed=args.seed,
                              registry=server.metrics)
        buffer = None
        if outage is not None:
            buffer = StoreAndForward(uplink, server.sim, outage=outage,
                                     registry=server.metrics)
            buffer.start(horizon)
        cache = (_two_tier_cache(server, 64.0, 32.0, args.edge_ttl)
                 if with_cache else None)
        # Co-located endpoints capture in lockstep (synchronized
        # triggers), so every tick puts `endpoints` transfers on the
        # bottleneck at once — the contention the uplink must absorb.
        replayer, closed, latencies = _replay_frames(
            server, uplink if buffer is None else buffer, sequences,
            interval, image_bytes, cache)
        spans = uplink_span_stats(closed)
        p95 = ceil_rank(latencies, 0.95) if latencies else 0.0
        p50 = latencies[len(latencies) // 2] if latencies else 0.0
        print(f"== {label} replay ==")
        print(f"  served {len(latencies)}/{total}  p50 "
              f"{p50 * 1e3:.1f} ms  p95 {p95 * 1e3:.1f} ms")
        print(f"  uplink: {spans['transfers']} transfers, "
              f"{uplink.total_retransmits} retransmits, peak "
              f"concurrency {uplink.peak_concurrency}")
        if spans["transfers"]:
            print(f"  uplink spans: mean {spans['mean_ms']:.1f} ms / "
                  f"max {spans['max_ms']:.1f} ms "
                  f"({spans['mean_ms'] / uncontended_ms:.2f}x the "
                  f"uncontended transfer)")
        if buffer is not None:
            print(f"  store-and-forward: {buffer.outages} outage(s), "
                  f"{buffer.buffered_total} buffered, max depth "
                  f"{buffer.max_buffer_depth}, {buffer.dropped} "
                  f"dropped")
        summary = {
            "served": len(latencies),
            "p50_ms": round(p50 * 1e3, 3),
            "p95_ms": round(p95 * 1e3, 3),
            "uplink_spans": spans,
            "retransmits": uplink.total_retransmits,
            "peak_concurrency": uplink.peak_concurrency,
        }
        if with_cache:
            print(f"  edge cache: hit ratio "
                  f"{cache.edge.hit_ratio:.1%}, uplink bytes saved "
                  f"{replayer.uplink_bytes_saved:.0f} "
                  f"({len(replayer.cache_responses)} of {total} "
                  f"frames)")
            summary["edge_hit_ratio"] = round(cache.edge.hit_ratio, 6)
            summary["uplink_bytes_saved"] = replayer.uplink_bytes_saved
        runs[label] = (summary, closed, server.metrics)

    # Broker leg: co-located sensors publishing telemetry over the same
    # (idle) link — QoS 0 pays loss in drops, QoS 1 in duplicates.
    broker_stats = {}
    print(f"== broker (QoS over {link.name}) ==")
    for qos in (0, 1):
        sim = Simulator()
        broker = Broker(sim, link, seed=args.seed + qos)
        received = []
        broker.subscribe("telemetry",
                         lambda t, b, dup: received.append(dup))
        for index in range(args.broker_messages):
            sim.schedule_at(index * 0.05,
                            lambda: broker.publish(
                                "telemetry", 2048.0, qos=qos))
        sim.run()
        stats = {
            "published": broker.published,
            "delivered": broker.delivered,
            "dropped": broker.dropped,
            "duplicates": broker.duplicates,
            "retries": broker.retries,
            "failed": broker.failed,
        }
        broker_stats[f"qos{qos}"] = stats
        print(f"  qos{qos}: published {stats['published']}  delivered "
              f"{stats['delivered']}  dropped {stats['dropped']}  "
              f"duplicates {stats['duplicates']}  retries "
              f"{stats['retries']}  failed {stats['failed']}")
    loss_2k = Broker(Simulator(), link).message_loss_probability(2048.0)
    print(f"  message loss probability (2 KiB, unacknowledged): "
          f"{loss_2k:.2%}")

    uncached, uncached_closed, _ = runs["uncached"]
    cached, _, cached_registry = runs["cached"]
    print("== link metrics (cached run) ==")
    print("\n".join(_scrape_lines(cached_registry,
                                  lambda line: "link_" in line)))

    if args.trace_out:
        from repro.serving.trace_export import export_chrome_trace

        _write(args.trace_out, export_chrome_trace(uncached_closed),
               f" ({len(uncached_closed)} traces)")
    if args.out:
        payload = {
            "scenario": {
                "link": link.name,
                "bandwidth_mbps": link.bandwidth_bps / 1e6,
                "rtt_ms": link.round_trip_seconds * 1e3,
                "jitter_ms": link.jitter_seconds * 1e3,
                "loss_probability": link.loss_probability,
                "endpoints": args.endpoints,
                "frames_per_endpoint": args.frames,
                "rate_per_second": args.rate,
                "image_kb": args.image_kb,
                "scene_change_rate": args.scene_change_rate,
                "dataset": spec.name,
                "model": args.model,
                "platform": args.platform,
                "seed": args.seed,
            },
            "uncached": uncached,
            "cached": cached,
            "broker": broker_stats,
            "fair_share_images_per_second": round(fair, 6),
        }
        if cached["p95_ms"] > 0:
            payload["p95_speedup"] = round(
                uncached["p95_ms"] / cached["p95_ms"], 3)
        _write(args.out, payload)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.continuum.network import get_link
    from repro.continuum.pipeline import ContinuumReplayer
    from repro.serving.fluid import HybridReplayer, render_regime_timeline
    from repro.serving.profiler import profile_run
    from repro.serving.server import TritonLikeServer
    from repro.serving.trace_export import explain_tail, render_attribution
    from repro.serving.traces import TraceReplayer, burst_trace, step_trace

    link = get_link(args.link)

    def server_for(batch: int, delay: float):
        return _register(TritonLikeServer(), "infer",
                         lambda n: 0.004 + 0.0012 * n, batch, delay)

    # Leg 1: a continuum step trace with exemplars on; its profile is
    # derived after the run from the registry and the retained traces.
    # Everything printed derives from sim time, so two runs with the
    # same arguments produce byte-identical output (the CI contract).
    server = server_for(8, 0.002)
    registry = server.metrics
    server.enable_exemplars()
    replayer = ContinuumReplayer(
        server, link,
        edge_preprocess_time=lambda n: 0.002 * n,
        image_bytes=args.image_kb * 1024.0,
        registry=registry, trace_sample_rate=args.sample_rate,
        exemplars=True)
    trace = step_trace(duration=args.duration, base_rate=args.base_rate,
                       step_rate=args.step_rate,
                       step_start=args.duration * 0.2,
                       step_end=args.duration * 0.6, seed=args.seed)
    driver = TraceReplayer(replayer, "infer")
    driver.schedule(trace)
    server.run()
    profiler = profile_run(server.sim.now, registry, replayer.traces)

    closed = replayer.completed_traces()
    print(f"profile scenario: continuum step trace behind {link.name}, "
          f"{len(trace)} requests over {args.duration:g} s "
          f"(sample rate {args.sample_rate:g}, seed {args.seed})")
    print(f"  traces: {len(closed)} closed of {len(replayer.traces)} "
          f"retained")
    print("== profile tree (sim-time) ==")
    print(profiler.render_tree(), end="")
    print("== folded stacks (sim-time) ==")
    print(profiler.render_folded(), end="")
    print("== exemplars ==")
    print("\n".join(_scrape_lines(registry, lambda line: " # {" in line)))
    print("== tail attribution ==")
    report = explain_tail(registry, replayer.traces,
                          quantile=args.quantile)
    print(render_attribution(report), end="")

    # Leg 2: a saturated burst trace through the hybrid engine, so the
    # regime controller's decisions become visible.
    server2 = server_for(32, 0.005)
    registry2 = server2.metrics
    hybrid = HybridReplayer(server2, "infer")
    trace2 = burst_trace(duration=args.fluid_duration,
                         background_rate=2.0, bursts=2,
                         burst_rate=args.burst_rate,
                         burst_seconds=args.fluid_duration * 0.15,
                         seed=args.seed)
    hybrid.schedule(trace2)
    server2.run()
    profiler2 = profile_run(server2.sim.now, registry2,
                            fluid_intervals=hybrid.intervals)

    intervals = int(registry2.get("fluid_intervals_total").total())
    folded = int(registry2.get("fluid_folded_arrivals_total").total())
    print(f"== fluid regime ({len(trace2)} burst arrivals over "
          f"{args.fluid_duration:g} s) ==")
    print(render_regime_timeline(hybrid), end="")
    print(f"  fluid_intervals_total {intervals}  "
          f"fluid_folded_arrivals_total {folded}")
    print("== fluid profile tree (sim-time) ==")
    print(profiler2.render_tree(), end="")

    if args.forward:
        # ViT-Tiny's kernel phases per forward pass, from its config:
        # one patch embedding and one head, attention and MLP per block.
        from repro.models.vit import VIT_CONFIGS

        depth = VIT_CONFIGS["vit_tiny"].depth
        print("== kernel phases (vit_tiny forward, counts) ==")
        for phase, count in (("attention", depth), ("head", 1),
                             ("mlp", depth), ("patch_embed", 1)):
            print(f"  {'kernel;' + phase:<24s} x{count}")

    if args.folded_out:
        _write(args.folded_out, profiler.render_folded())
    if args.speedscope:
        _write(args.speedscope,
               profiler.export_speedscope("repro-profile"))
    if args.out:
        _write(args.out, {
            "scenario": {
                "link": link.name,
                "duration_seconds": args.duration,
                "base_rate": args.base_rate,
                "step_rate": args.step_rate,
                "sample_rate": args.sample_rate,
                "fluid_duration_seconds": args.fluid_duration,
                "burst_rate": args.burst_rate,
                "quantile": args.quantile,
                "seed": args.seed,
            },
            "continuum": {
                "folded_sim": profiler.folded(),
                "closed_traces": len(closed),
                "attribution": report,
            },
            "fluid": {
                "folded_sim": profiler2.folded(),
                "intervals": intervals,
                "folded_arrivals": folded,
            },
        })
    return 0


def _cmd_faas(args: argparse.Namespace) -> int:
    from repro.engine.latency import LatencyModel
    from repro.faas import (
        FaaSBackend,
        FaaSFunctionConfig,
        get_faas_platform,
    )
    from repro.hardware.platform import get_platform
    from repro.models.zoo import get_model
    from repro.predict.whatif import compare_serverless
    from repro.scale.autoscaler import (
        FaaSConcurrencyPolicy,
        FaaSPolicyConfig,
    )
    from repro.serving.events import Simulator
    from repro.serving.metrics import nearest_rank_quantile as quantile
    from repro.serving.observability import MetricsRegistry
    from repro.serving.slo import SLOConfig, SLOMonitor
    from repro.serving.traces import TraceReplayer, sparse_diurnal_trace

    _check_day(args)
    platform = get_platform(args.platform)
    faas_platform = get_faas_platform(args.faas_platform)
    latency = LatencyModel(get_model(args.model).graph, platform)
    execute_seconds = latency.latency(1)

    trace = sparse_diurnal_trace(
        duration=args.duration, peak_rate=args.peak_rate,
        night_rate=args.night_rate, seed=args.seed)

    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    backend = FaaSBackend(sim, registry=registry, seed=args.seed)
    backend.register(FaaSFunctionConfig(
        "infer", lambda n: latency.latency(max(1, n)),
        platform=faas_platform,
        concurrency_limit=args.concurrency,
        keep_alive_seconds=args.keep_alive))

    # SLO burn alerts drive the provisioned-concurrency floor: the
    # windows are sized so the sparse nighttime rate still produces
    # enough completions to evaluate (cold starts at night are the
    # breach this policy exists to absorb).
    monitor = SLOMonitor(sim, registry, SLOConfig(
        latency_threshold_seconds=args.slo_ms / 1e3,
        objective=0.99, interval=10.0, fast_window_seconds=150.0,
        slow_window_seconds=600.0, min_window_samples=2,
        rearm_seconds=60.0))
    policy = FaaSConcurrencyPolicy(backend, "infer", FaaSPolicyConfig(
        interval=10.0, min_provisioned=0,
        max_provisioned=args.max_provisioned, step=1,
        hold_seconds=args.hold_seconds))
    monitor.on_alert(policy.notify_slo_alert)

    replayer = TraceReplayer(backend, "infer")
    replayer.schedule(trace)
    monitor.start()
    policy.start()
    sim.run()

    stats = backend.function_stats("infer")
    served = [r for r in backend.responses if r.status == "ok"]
    cold = [r.latency for r in served if r.request.cold_start]
    warm = [r.latency for r in served if not r.request.cold_start]
    warm_p50, warm_p99 = quantile(warm, 0.50), quantile(warm, 0.99)
    cold_p50, cold_p99 = quantile(cold, 0.50), quantile(cold, 0.99)
    inflation = cold_p99 / warm_p99 if warm_p99 > 0 else float("inf")

    print("== faas scenario ==")
    print(f"  function 'infer': {args.model} on {args.platform}, "
          f"platform {faas_platform.name}")
    print(f"  execute {execute_seconds * 1e3:.1f} ms/image, memory "
          f"{faas_platform.memory_gb:.1f} GB, concurrency limit "
          f"{args.concurrency}")
    print(f"  cold start: sandbox "
          f"{faas_platform.cold_start_base_seconds:.2f} s +/- "
          f"{faas_platform.cold_start_jitter_seconds:.2f} s, init "
          f"{faas_platform.init_seconds:.2f} s "
          f"({faas_platform.artifact_bytes / 1e6:.0f} MB artifact)")
    print(f"  keep-alive {args.keep_alive:.0f} s, trace {trace.name}: "
          f"{len(trace.arrival_times)} arrivals over "
          f"{trace.duration:.0f} s (peak {args.peak_rate:g} rps, "
          f"night floor {args.night_rate:g} rps)")

    print("== cold-start inflation ==")
    print(f"  invocations {stats.invocations} (cold "
          f"{stats.cold_starts} / warm {stats.warm_starts})")
    print(f"  warm latency p50 {warm_p50 * 1e3:8.1f} ms  p99 "
          f"{warm_p99 * 1e3:8.1f} ms")
    print(f"  cold latency p50 {cold_p50 * 1e3:8.1f} ms  p99 "
          f"{cold_p99 * 1e3:8.1f} ms  ({inflation:.1f}x warm p99)")

    print("== scale-to-zero ==")
    print(f"  sandboxes spawned {stats.cold_starts + stats.prewarms} "
          f"(prewarmed {stats.prewarms}), reaped {stats.reaps}, peak "
          f"pool {stats.peak_instances}")
    print(f"  warm pool at end {backend.total_instances()}")

    print("== provisioned-concurrency policy ==")
    print(f"  slo burn alerts {len(monitor.alerts)} -> policy events "
          f"{len(policy.events)}")
    shown = policy.events[:args.max_events]
    for event in shown:
        print(f"  t={event.time:8.1f}s {event.action:<9} -> "
              f"{event.provisioned} ({event.reason})")
    if len(policy.events) > len(shown):
        print(f"  ... {len(policy.events) - len(shown)} more")

    costs = backend.cost_summary()
    print("== cost (GB-seconds meter) ==")
    print(f"  on-demand {costs['gb_seconds']:.1f} GB-s "
          f"(${costs['compute_usd']:.6f}) + {costs['invocations']} "
          f"invocations (${costs['invocation_usd']:.6f})")
    print(f"  provisioned-warm {costs['provisioned_gb_seconds']:.1f} "
          f"GB-s (${costs['provisioned_usd']:.6f})")
    print(f"  total ${costs['total_usd']:.6f}")

    whatif = compare_serverless(
        trace, execute_seconds=execute_seconds,
        memory_gb=faas_platform.memory_gb,
        replica_cost_per_hour=args.replica_cost_per_hour,
        replica_qps_capacity=1.0 / execute_seconds,
        cost_model=backend.cost.model)
    print("== whatif: serverless vs provisioned ==")
    print(f"  per-invocation ${whatif['per_invocation_usd']:.7f}, "
          f"replica ${args.replica_cost_per_hour:.3f}/h x "
          f"{whatif['replicas']} (sized for the "
          f"{whatif['peak_rate']:.1f} rps peak)")
    print(f"  break-even {whatif['break_even_qps']:.2f} qps: "
          f"provisioned becomes cheaper above this rate")
    print(f"  trace verdict: serverless "
          f"${whatif['serverless_total_usd']:.6f} vs provisioned "
          f"${whatif['provisioned_total_usd']:.6f} -> "
          f"{whatif['cheaper']}")
    print(f"  serverless is the cheaper regime in "
          f"{whatif['crossover_hours']:.1f} h of the trace's "
          f"{trace.duration / 3600:.1f} h")

    print("== faas metrics ==")
    for line in _scrape_lines(registry,
                              lambda line: line.startswith("harvest_faas_")):
        print(f"  {line}")

    if args.out:
        _write(args.out, {
            "scenario": {
                "model": args.model,
                "platform": args.platform,
                "faas_platform": faas_platform.name,
                "execute_seconds": round(execute_seconds, 6),
                "keep_alive_seconds": args.keep_alive,
                "concurrency_limit": args.concurrency,
                "duration": trace.duration,
                "arrivals": len(trace.arrival_times),
                "seed": args.seed,
            },
            "latency": {
                "invocations": stats.invocations,
                "cold_starts": stats.cold_starts,
                "warm_starts": stats.warm_starts,
                "warm_p50": round(warm_p50, 6),
                "warm_p99": round(warm_p99, 6),
                "cold_p50": round(cold_p50, 6),
                "cold_p99": round(cold_p99, 6),
                "inflation_x": round(inflation, 3),
            },
            "scale_to_zero": {
                "spawned": stats.cold_starts + stats.prewarms,
                "prewarms": stats.prewarms,
                "reaps": stats.reaps,
                "peak_pool": stats.peak_instances,
            },
            "policy": {
                "alerts": len(monitor.alerts),
                "events": [
                    {"time": round(e.time, 3), "action": e.action,
                     "provisioned": e.provisioned, "reason": e.reason}
                    for e in policy.events],
            },
            "cost": {k: round(v, 8) if isinstance(v, float) else v
                     for k, v in costs.items()},
            "whatif": {
                k: (round(v, 8) if isinstance(v, float) else v)
                for k, v in whatif.items() if k != "bins"},
        })
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.serving.exporter import export_registry
    from repro.sweep import (
        SweepRunner,
        SweepSpec,
        merge_registries,
        merge_summaries,
        normal_ci,
    )

    _check_day(args)
    params = {
        "duration": args.duration,
        "peak_rate": args.peak_rate,
        "night_rate": args.night_rate,
        "instances": args.instances,
    }
    spec = SweepSpec(
        worker="repro.sweep.workloads:replay_sparse_diurnal",
        base_params=params, replications=args.replications,
        base_seed=args.seed)
    result = SweepRunner(jobs=args.jobs).run(spec)
    errors = result.errors()
    if errors:
        print(f"sweep failed: {len(errors)}/{len(result.shards)} "
              "shards errored", file=sys.stderr)
        for error in errors:
            print(f"  {error.summary()}", file=sys.stderr)
        return 1
    values = result.values()

    # Everything below prints only simulation-derived quantities, so
    # the table is byte-identical for any --jobs value; host timings
    # (which are not) stay behind --wall.
    print(f"sweep: {len(values)} seed replications of the sparse "
          f"diurnal day (duration {args.duration:.0f}s, peak "
          f"{args.peak_rate:g}/s, night {args.night_rate:g}/s, base "
          f"seed {args.seed})")
    header = (f"{'shard':>5} {'seed':>16} {'arrivals':>8} "
              f"{'completed':>9} {'p50_ms':>8} {'p95_ms':>8} "
              f"{'p99_ms':>8} {'sim_s':>8}")
    print(header)
    print("-" * len(header))
    for v in values:
        print(f"{v['shard_index']:>5} {v['seed']:016x} "
              f"{v['arrivals']:>8} {v['completed']:>9} "
              f"{v['p50'] * 1e3:>8.2f} {v['p95'] * 1e3:>8.2f} "
              f"{v['p99'] * 1e3:>8.2f} {v['sim_seconds']:>8.1f}")
    merged = merge_summaries(v["summary"] for v in values)
    mean_completed, hw_completed = normal_ci(
        [v["completed"] for v in values])
    mean_p95, hw_p95 = normal_ci([v["p95"] for v in values])
    print(f"aggregate: completed {mean_completed:.1f} ± "
          f"{hw_completed:.1f} per shard (95% CI), per-shard p95 "
          f"{mean_p95 * 1e3:.2f} ± {hw_p95 * 1e3:.2f} ms")
    print(f"merged   : {merged.count} requests, p50 "
          f"{merged.quantile(0.5) * 1e3:.2f} ms, p95 "
          f"{merged.quantile(0.95) * 1e3:.2f} ms, p99 "
          f"{merged.quantile(0.99) * 1e3:.2f} ms "
          "(bucket re-accumulation over all shards)")
    if args.wall:
        wall = [o.wall_seconds for o in result.shards]
        print(f"wall     : {result.wall_seconds:.2f}s total with "
              f"{args.jobs} job(s); per-shard "
              f"{min(wall):.2f}-{max(wall):.2f}s "
              "(host timings; not deterministic)")
    if args.metrics_out:
        _write(args.metrics_out, export_registry(
            merge_registries(v["registry"] for v in values)))
    if args.out:
        _write(args.out, {
            "workload": "sparse_diurnal_replay",
            "params": {**params, "replications": args.replications,
                       "base_seed": args.seed},
            "shards": [
                {k: v[k] for k in ("shard_index", "seed", "arrivals",
                                   "completed", "p50", "p95", "p99",
                                   "sim_seconds", "events")}
                for v in values
            ],
            "aggregate": {
                "completed_mean": mean_completed,
                "completed_ci95": hw_completed,
                "p95_mean": mean_p95,
                "p95_ci95": hw_p95,
                "merged": merged.as_dict(),
            },
        })
    return 0


def _step_load_parent(ceiling_within: str, ceiling_help: str,
                      **defaults) -> argparse.ArgumentParser:
    """The step-load fleet flags ``autoscale`` and ``trace`` share,
    with each subcommand's own defaults and ``--max-replicas`` bound
    and help."""
    p = _Parser(add_help=False)
    p.add_argument("--model", default="resnet50",
                   help="model whose latency curve the replicas serve")
    p.add_argument("--platform", default="jetson",
                   help="platform each replica models (one device)")
    p.add_argument("--slo-ms", type=float, within="(0, inf)",
                   help="latency SLO (ms): the p95 autoscale defends, "
                        "the threshold trace's burn alerts watch")
    p.add_argument("--base-rate", type=float, within="(0, inf)",
                   help="background arrival rate (requests/s)")
    p.add_argument("--step-rate", type=float, within="(0, inf)",
                   help="arrival rate during the step (requests/s)")
    p.add_argument("--step-start", type=float, within="[0, inf)")
    p.add_argument("--step-end", type=float, within="(0, inf)")
    p.add_argument("--duration", type=float, within="(0, inf)",
                   help="trace length (s); leave tail for scale-in")
    p.add_argument("--max-replicas", type=int, within=ceiling_within,
                   help=ceiling_help)
    p.add_argument("--admit-rate", type=float, within="[0, inf)",
                   help="token-bucket admission rate (req/s; 0 = off)")
    p.add_argument("--admit-burst", type=int, within="[1, inf)",
                   help="token-bucket burst capacity")
    p.add_argument("--shed-queue", type=int, within="[0, inf)",
                   help="shed arrivals past this many queued requests "
                        "(0 = off)")
    p.add_argument("--seed", type=int, default=0, within="[0, inf)")
    p.set_defaults(**defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = _Parser(
        prog="repro",
        description="HARVEST Inference reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="print a reproduced artifact")
    p.add_argument("artifact", nargs="?", default="all",
                   choices=["all", "table1", "table2", "table3",
                            "fig5", "fig6", "fig7", "fig8"])
    p.add_argument("--format", default="text",
                   choices=["text", "json", "csv"])
    p.add_argument("--out", default=None,
                   help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("compare", help="paper-vs-model anchor table")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("advise", help="deployment tuning advice")
    p.add_argument("--platform", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--latency-ms", type=float, default=1000.0 / 60.0,
                   within="(0, inf)")
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser("predict", help="pre-deployment expectations")
    p.add_argument("--model", required=True)
    p.add_argument("--platform", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("figures", help="write Fig 5-8 SVG panels")
    p.add_argument("--out", default="figures")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("backtest", help="validate the predictor")
    p.add_argument("--platform", required=True)
    p.add_argument("--donor", required=True)
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser(
        "metrics",
        help="run a serving scenario and print its observability view")
    p.add_argument("--rate", type=float, default=80.0, within="(0, inf)",
                   help="open-loop arrival rate (requests/s)")
    p.add_argument("--requests", type=int, default=200, within="[1, inf)")
    p.add_argument("--interval", type=float, default=0.05, within="(0, inf)",
                   help="time-series sampling interval (s)")
    p.add_argument("--instances", type=int, default=1, within="[1, inf)",
                   help="inference instance-group size")
    p.add_argument("--queue-limit", type=int, default=0, within="[0, inf)",
                   help="bound the infer queue (images; 0 = unbounded)")
    p.add_argument("--seed", type=int, default=0, within="[0, inf)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "autoscale",
        help="replay a step-load trace through the replica autoscaler",
        parents=[_step_load_parent(
            "[0, inf)", "replica ceiling (0 = derive from the capacity "
                        "planner at the step rate)",
            slo_ms=100.0, base_rate=200.0, step_rate=3000.0,
            step_start=5.0, step_end=15.0, duration=30.0, max_replicas=0,
            admit_rate=3500.0, admit_burst=200, shed_queue=500)])
    p.add_argument("--interval", type=float, default=0.25, within="(0, inf)",
                   help="autoscaler evaluation interval (s)")
    p.add_argument("--cooldown", type=float, default=1.0, within="[0, inf)",
                   help="seconds between scaling actions (0 = no "
                        "pause)")
    p.set_defaults(func=_cmd_autoscale)

    p = sub.add_parser(
        "trace",
        help="replay a trace across the continuum with end-to-end "
             "tracing, Perfetto export, and SLO burn-rate alerts",
        parents=[_step_load_parent(
            "[1, inf)", "replica ceiling",
            slo_ms=1000.0 / 60.0, base_rate=60.0, step_rate=900.0,
            step_start=3.0, step_end=8.0, duration=15.0, max_replicas=4,
            admit_rate=0.0, admit_burst=100, shed_queue=300)])
    p.add_argument("--link", default="station_ethernet",
                   help="edge->cloud network link preset")
    p.add_argument("--objective", type=float, default=0.99, within="(0, 1)",
                   help="fraction of requests that must meet the "
                        "threshold")
    p.add_argument("--batch", type=int, default=4, within="[1, inf)",
                   help="replica max batch size")
    p.add_argument("--edge-preprocess-ms", type=float, default=2.0,
                   within="[0, inf)",
                   help="edge preprocessing time per image (ms)")
    p.add_argument("--image-kb", type=float, default=128.0, within="(0, inf)",
                   help="uplink payload per image (KiB)")
    p.add_argument("--out", default=None,
                   help="write Chrome/Perfetto trace-event JSON here")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "cache",
        help="replay a correlated frame sequence through the two-tier "
             "cache hierarchy at several scene-change rates")
    p.add_argument("--dataset", default="crsa",
                   help="dataset whose frames the camera captures")
    p.add_argument("--link", default="station_ethernet",
                   help="edge->cloud network link preset")
    p.add_argument("--frames", type=int, default=240, within="[1, inf)",
                   help="frames per scene-change rate")
    p.add_argument("--rate", type=float, default=20.0, within="(0, inf)",
                   help="camera frame rate (frames/s)")
    p.add_argument("--scene-change-rates", default="0.0,0.05,0.5",
                   help="comma-separated per-frame scene-cut "
                        "probabilities")
    p.add_argument("--threshold", type=int, default=8, within="[0, inf)",
                   help="fingerprint Hamming match budget (0 = exact)")
    p.add_argument("--edge-ttl", type=float, default=2.0, within="(0, inf)",
                   help="edge result freshness bound (s)")
    p.add_argument("--edge-capacity-kb", type=float, default=64.0,
                   within="(0, inf)",
                   help="edge result cache capacity (KiB)")
    p.add_argument("--cloud-capacity-mb", type=float, default=32.0,
                   within="(0, inf)",
                   help="cloud tensor cache capacity (MiB)")
    p.add_argument("--preprocess-ms", type=float, default=55.0,
                   within="(0, inf)",
                   help="cloud preprocess time per image (ms; CRSA's "
                        "CPU-bound warp)")
    p.add_argument("--seed", type=int, default=0, within="[0, inf)")
    p.add_argument("--out", default=None,
                   help="write the per-rate results as JSON here")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "network",
        help="replay co-located field endpoints over one contended, "
             "lossy uplink (shared fair-share link, broker QoS, "
             "optional outage with store-and-forward)")
    p.add_argument("--endpoints", type=int, default=4, within="[1, inf)",
                   help="co-located cameras sharing the uplink")
    p.add_argument("--link", default="field_lte_lossy",
                   help="uplink preset (see repro.continuum.network)")
    p.add_argument("--loss", type=float, default=None, within="[0, 1)",
                   help="override the preset's packet loss probability")
    p.add_argument("--jitter-ms", type=float, default=None, within="[0, inf)",
                   help="override the preset's one-way jitter bound "
                        "(ms)")
    p.add_argument("--frames", type=int, default=60, within="[1, inf)",
                   help="frames per endpoint")
    p.add_argument("--rate", type=float, default=1.0, within="(0, inf)",
                   help="per-endpoint capture rate (frames/s)")
    p.add_argument("--image-kb", type=float, default=256.0, within="(0, inf)",
                   help="image payload per frame (KiB)")
    p.add_argument("--scene-change-rate", type=float, default=0.05,
                   within="[0, 1]",
                   help="per-frame scene-cut probability (drives edge "
                        "cache hits)")
    p.add_argument("--dataset", default="crsa",
                   help="dataset whose frames the cameras capture")
    p.add_argument("--model", default="resnet50",
                   help="cloud-side model")
    p.add_argument("--platform", default="a100",
                   help="cloud-side platform")
    p.add_argument("--edge-ttl", type=float, default=30.0, within="(0, inf)",
                   help="edge result freshness bound (s)")
    p.add_argument("--outage-start", type=float, default=0.0,
                   within="[0, inf)",
                   help="link outage start (s; 0 = no outage)")
    p.add_argument("--outage-seconds", type=float, default=3.0,
                   within="(0, inf)",
                   help="link outage duration (s)")
    p.add_argument("--broker-messages", type=int, default=200,
                   within="[0, inf)",
                   help="sensor messages per QoS level in the broker "
                        "leg (0 = publish none)")
    p.add_argument("--seed", type=int, default=0, within="[0, inf)")
    p.add_argument("--out", default=None,
                   help="write the scenario results as JSON here")
    p.add_argument("--trace-out", default=None,
                   help="write the contended (uncached) replay as "
                        "Chrome trace-event JSON here")
    p.set_defaults(func=_cmd_network)

    p = sub.add_parser(
        "profile",
        help="run deterministic serving scenarios with exemplars on; "
             "print the sim-time cost tree derived from the run, folded "
             "stacks, tail attribution, and fluid regime timeline")
    p.add_argument("--link", default="station_ethernet",
                   help="edge->cloud network link preset")
    p.add_argument("--duration", type=float, default=10.0, within="(0, inf)",
                   help="continuum step-trace length (s)")
    p.add_argument("--base-rate", type=float, default=40.0, within="(0, inf)",
                   help="background arrival rate (requests/s)")
    p.add_argument("--step-rate", type=float, default=120.0, within="(0, inf)",
                   help="arrival rate during the step (requests/s)")
    p.add_argument("--image-kb", type=float, default=128.0, within="(0, inf)",
                   help="uplink payload per image (KiB)")
    p.add_argument("--sample-rate", type=float, default=1.0, within="(0, 1]",
                   help="fraction of traces retained (deterministic "
                        "fractional sampling); the continuum;* profile "
                        "nodes cover only the retained traces")
    p.add_argument("--quantile", type=float, default=0.99, within="(0, 1)",
                   help="tail quantile the attribution report explains")
    p.add_argument("--fluid-duration", type=float, default=120.0,
                   within="(0, inf)",
                   help="hybrid burst-trace length (s)")
    p.add_argument("--burst-rate", type=float, default=1200.0,
                   within="(0, inf)",
                   help="burst arrival rate (requests/s; must exceed "
                        "the pool's saturated rate to go fluid)")
    p.add_argument("--forward", action="store_true",
                   help="also print ViT-Tiny's kernel-phase counts "
                        "from its config")
    p.add_argument("--seed", type=int, default=0, within="[0, inf)")
    p.add_argument("--out", default=None,
                   help="write the profile report as JSON here")
    p.add_argument("--speedscope", default=None,
                   help="write the continuum profile as speedscope "
                        "JSON here")
    p.add_argument("--folded-out", default=None,
                   help="write the continuum folded stacks here "
                        "(collapsed flamegraph text)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "faas",
        help="replay a sparse nighttime diurnal trace through the "
             "serverless backend; print cold-start inflation, "
             "scale-to-zero stats, the GB-second bill, and the "
             "serverless-vs-provisioned crossover")
    p.add_argument("--model", default="vit_base",
                   help="model the function serves")
    p.add_argument("--platform", default="jetson",
                   help="hardware whose latency curve the function "
                        "executes at")
    p.add_argument("--faas-platform", default="container_faas",
                   help="serverless platform preset (see "
                        "repro.faas.platform)")
    p.add_argument("--duration", type=float, default=7200.0, within="(0, inf)",
                   help="trace length (s; the daylight window scales "
                        "with it)")
    p.add_argument("--peak-rate", type=float, default=6.0, within="(0, inf)",
                   help="solar-noon arrival rate (requests/s)")
    p.add_argument("--night-rate", type=float, default=0.02, within="[0, inf)",
                   help="nighttime arrival floor (requests/s; 0 = "
                        "an idle night)")
    p.add_argument("--keep-alive", type=float, default=45.0, within="[0, inf]",
                   help="idle seconds before a warm instance is "
                        "reaped (0 = reap after every response, inf = "
                        "never reap)")
    p.add_argument("--concurrency", type=int, default=8, within="[1, inf)",
                   help="per-function instance limit")
    p.add_argument("--slo-ms", type=float, default=100.0, within="(0, inf)",
                   help="latency threshold the burn-rate monitor "
                        "defends (ms)")
    p.add_argument("--max-provisioned", type=int, default=2, within="[0, inf)",
                   help="provisioned-concurrency ceiling for the "
                        "policy (0 = never provision)")
    p.add_argument("--hold-seconds", type=float, default=900.0,
                   within="(0, inf)",
                   help="calm seconds before the policy releases a "
                        "pinned instance")
    p.add_argument("--replica-cost-per-hour", type=float, default=0.02,
                   within="(0, inf)",
                   help="amortized cost of one provisioned edge "
                        "replica ($/h)")
    p.add_argument("--max-events", type=int, default=12, within="[0, inf)",
                   help="policy events printed before eliding (0 = "
                        "none)")
    p.add_argument("--seed", type=int, default=1, within="[0, inf)")
    p.add_argument("--out", default=None,
                   help="write the scenario results as JSON here")
    p.set_defaults(func=_cmd_faas)

    p = sub.add_parser(
        "sweep",
        help="fan a seed-replicated sparse-diurnal sweep across "
             "worker processes; deterministic table, aggregate CIs, "
             "and merged metrics")
    p.add_argument("--replications", type=int, default=8, within="[1, inf)",
                   help="seed replications (= shards) of the workload")
    p.add_argument("--duration", type=float, default=3600.0, within="(0, inf)",
                   help="trace duration in seconds per shard")
    p.add_argument("--peak-rate", type=float, default=3.0, within="(0, inf)",
                   help="daytime peak arrival rate (req/s)")
    p.add_argument("--night-rate", type=float, default=0.01, within="[0, inf)",
                   help="nighttime arrival rate (req/s; 0 = an idle "
                        "night)")
    p.add_argument("--instances", type=int, default=1, within="[1, inf)",
                   help="backend instances per shard's server")
    p.add_argument("--seed", type=int, default=42, within="[0, inf)",
                   help="base seed; shard seeds derive from "
                        "(base, shard_index)")
    p.add_argument("--jobs", type=int, default=1, within="[1, inf)",
                   help="worker processes; the printed table is "
                        "byte-identical for any value")
    p.add_argument("--wall", action="store_true",
                   help="append host wall-clock timings "
                        "(nondeterministic; breaks byte-identity)")
    p.add_argument("--out", default=None,
                   help="write the sweep document JSON here")
    p.add_argument("--metrics-out", default=None,
                   help="write the merged metrics scrape here")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
