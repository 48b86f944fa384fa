"""Text rendering of the full reproduction report."""

from __future__ import annotations

from repro.analysis.figures import FigureSeries, fig5, fig6, fig7, fig8
from repro.analysis.tables import table1, table2, table3


def render_series(series: list[FigureSeries], max_points: int = 6) -> str:
    """Compact text rendering of figure series (legend + endpoints)."""
    lines = []
    current_panel = None
    for s in series:
        if (s.figure, s.panel) != current_panel:
            current_panel = (s.figure, s.panel)
            lines.append(f"-- {s.figure} [{s.panel}] --")
        pts = list(zip(s.x, s.y))
        if len(pts) > max_points:
            shown = pts[:max_points // 2] + [("...", "...")] + \
                pts[-max_points // 2:]
        else:
            shown = pts
        rendered = ", ".join(
            f"{x}:{y:.4g}" if isinstance(y, float) else f"{x}:{y}"
            for x, y in shown)
        lines.append(f"  {s.name}: {rendered}")
    return "\n".join(lines) + "\n"


def render_report(artifact: str) -> str:
    """Render one named artifact ("table1".."table3", "fig5".."fig8")."""
    generators = {
        "table1": lambda: table1().render(),
        "table2": lambda: table2().render(),
        "table3": lambda: table3().render(),
        "fig5": lambda: render_series(fig5()),
        "fig6": lambda: render_series(fig6()),
        "fig7": lambda: render_series(fig7()),
        "fig8": lambda: render_series(fig8()),
    }
    if artifact not in generators:
        raise KeyError(
            f"unknown artifact {artifact!r}; available: "
            f"{sorted(generators)}")
    return generators[artifact]()


def full_report() -> str:
    """Every table and figure, rendered to one text document."""
    parts = [render_report(name)
             for name in ("table1", "table2", "table3",
                          "fig5", "fig6", "fig7", "fig8")]
    return "\n".join(parts)


def registry_stage_breakdown(registry) -> dict[str, dict]:
    """Per-stage time summary from a live metrics registry.

    {stage: {count, total_seconds, mean_seconds, retried_attempts}}
    plus the ``"queued"`` pseudo-stage, computed from the registry's
    ``execution_seconds`` / ``queue_wait_seconds`` histograms and
    ``retries_total`` counters, so it works mid-run and at production
    request volumes.  Stage counts are successful *batch executions*
    (what an instance actually ran); queue waits are per request.  The
    per-request view of the same decomposition is the ``execute``
    spans of each :class:`~repro.serving.tracectx.TraceContext`.
    """
    out: dict[str, dict] = {}
    exec_hist = registry.get("execution_seconds")
    retries = registry.get("retries_total")
    if exec_hist is not None:
        for key, series in exec_hist.items():
            stage = dict(key).get("stage", "")
            out[stage] = {
                "count": series.count,
                "total_seconds": series.sum,
                "mean_seconds": (series.sum / series.count
                                 if series.count else 0.0),
                "retried_attempts": (int(retries.value(stage=stage))
                                     if retries is not None else 0),
            }
    wait_hist = registry.get("queue_wait_seconds")
    if wait_hist is not None:
        count = sum(s.count for _, s in wait_hist.items())
        total = sum(s.sum for _, s in wait_hist.items())
        out["queued"] = {
            "count": count,
            "total_seconds": total,
            "mean_seconds": total / count if count else 0.0,
            "retried_attempts": 0,
        }
    return out


def render_scaling_timeline(events, slo_seconds: float | None = None,
                            width: int = 24) -> str:
    """Text timeline of autoscaler actions.

    ``events`` is a sequence of
    :class:`~repro.scale.autoscaler.ScaleEvent`; each row shows the
    action, the pool size after it (with a bar), and the signals that
    triggered it.  ``slo_seconds`` annotates p95 readings that breached
    the SLO with ``!``.
    """
    if width < 4:
        raise ValueError("width must be >= 4")
    if not events:
        return "(no scale events)\n"
    peak = max(max(e.replicas for e in events), 1)
    lines = [f"{'t (s)':>8s}  {'action':<10s} {'repl':>4s}  "
             f"{'p95 ms':>8s}  {'queue':>6s}  {'util':>5s}  "
             f"pool                      reason"]
    for event in events:
        if event.p95_seconds is None:
            p95 = "-"
        else:
            p95 = f"{event.p95_seconds * 1e3:.1f}"
            if (slo_seconds is not None
                    and event.p95_seconds > slo_seconds):
                p95 += "!"
        bar = "#" * max(1, round(event.replicas / peak * width))
        lines.append(
            f"{event.time:8.2f}  {event.action:<10s} "
            f"{event.replicas:4d}  {p95:>8s}  "
            f"{event.queue_per_replica:6.1f}  "
            f"{event.utilization:5.0%}  {bar:<{width}s}  "
            f"{event.reason}")
    return "\n".join(lines) + "\n"


def render_slo_alerts(alerts, config=None) -> str:
    """Text table of SLO burn-rate alerts.

    ``alerts`` is a sequence of
    :class:`~repro.serving.slo.BurnAlert`; ``config`` (an
    :class:`~repro.serving.slo.SLOConfig`) adds a header line naming
    the objective and windows.
    """
    lines = []
    if config is not None:
        lines.append(
            f"objective: {config.objective:.1%} under "
            f"{config.latency_threshold_seconds * 1e3:g} ms "
            f"(windows {config.fast_window_seconds:g}s/"
            f"{config.slow_window_seconds:g}s, burn thresholds "
            f"{config.fast_burn_threshold:g}/"
            f"{config.slow_burn_threshold:g})")
    if not alerts:
        lines.append("(no burn-rate alerts)")
        return "\n".join(lines) + "\n"
    lines.append(f"{'t (s)':>8s}  {'fast burn':>9s}  {'slow burn':>9s}  "
                 f"{'err rate':>8s}  {'budget left':>11s}")
    for alert in alerts:
        lines.append(
            f"{alert.time:8.2f}  {alert.fast_burn_rate:9.1f}  "
            f"{alert.slow_burn_rate:9.1f}  "
            f"{alert.window_error_rate:8.1%}  "
            f"{alert.budget_remaining:11.1%}")
    return "\n".join(lines) + "\n"


def render_cache_table(summaries: list[dict]) -> str:
    """Text table of per-tier cache behaviour.

    ``summaries`` is :meth:`repro.cache.tiers.CacheHierarchy.summaries`
    output: one row per tier with lookup counts, hit ratio, stale and
    eviction counts, and byte residency against capacity.
    """
    if not summaries:
        return "(no cache tiers)\n"
    lines = [f"{'tier':<14s} {'lookups':>8s} {'hits':>7s} "
             f"{'miss':>6s} {'stale':>6s} {'ratio':>6s} "
             f"{'evict':>6s} {'entries':>7s} {'resident':>12s}"]
    for row in summaries:
        resident = (f"{row['used_bytes'] / 1024:.0f}/"
                    f"{row['capacity_bytes'] / 1024:.0f}KiB")
        lines.append(
            f"{row['tier']:<14s} {row['lookups']:8d} {row['hits']:7d} "
            f"{row['misses']:6d} {row['stale']:6d} "
            f"{row['hit_ratio']:6.1%} {row['evictions']:6d} "
            f"{row['entries']:7d} {resident:>12s}")
    return "\n".join(lines) + "\n"


def render_stage_breakdown(breakdown: dict[str, dict]) -> str:
    """Text table for a :func:`registry_stage_breakdown` result."""
    lines = [f"{'stage':<16s} {'count':>7s} {'total s':>10s} "
             f"{'mean ms':>9s} {'retried':>8s}"]
    for stage in sorted(breakdown):
        row = breakdown[stage]
        lines.append(
            f"{stage:<16s} {row['count']:7d} "
            f"{row['total_seconds']:10.4f} "
            f"{row['mean_seconds'] * 1e3:9.3f} "
            f"{row.get('retried_attempts', 0):8d}")
    return "\n".join(lines) + "\n"
