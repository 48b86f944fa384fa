"""Chrome/Perfetto trace-event export and critical-path analysis.

Consumers for the spans :mod:`repro.serving.tracectx` accumulates:

* :func:`export_chrome_trace` — the Chrome trace-event JSON format
  (``chrome://tracing``, https://ui.perfetto.dev): one process, one
  timeline row (tid) per request, a complete-event (``"ph": "X"``) per
  span and an instant-event (``"ph": "i"``) per decision mark.  The
  output is deterministic and byte-identical across runs: timestamps
  come from the simulator clock, ids from per-run counters, and the
  JSON is serialized with sorted keys and fixed separators.
* :func:`critical_path` / :func:`critical_path_summary` — walks each
  trace's span DAG and attributes every instant of the request's
  lifetime to the span that bounds it (latest-started covering span;
  uncovered time books to ``untracked``), then reports which stage
  bounds the p50/p95/p99 request — the paper's "where did the 16.7 ms
  go" question, answered per quantile.
* :func:`render_gantt` — a terminal Gantt chart of one request, one
  row per span that the Chrome export draws as a complete event.
"""

from __future__ import annotations

import json
import math

from repro.bounds import within
from repro.serving.metrics import ceil_rank
from repro.serving.tracectx import SpanRecord, TraceContext

#: Seconds -> trace-event microseconds, rounded to nanoseconds so float
#: formatting stays stable and readable.
def _us(seconds: float) -> float:
    value = round(seconds * 1e6, 3)
    return value if value % 1 else int(value)


def chrome_trace_events(traces: list[TraceContext],
                        process_name: str = "harvest-continuum",
                        ) -> list[dict]:
    """The ``traceEvents`` list for a set of traces.

    Each trace renders on its own thread row (``tid`` = trace id);
    unclosed spans (work still in flight when the simulation stopped)
    are skipped.  Event order is deterministic: metadata first, then
    traces in input order, spans in creation order.
    """
    events: list[dict] = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": process_name},
    }]
    for trace in traces:
        label = f"request {trace.trace_id}"
        model = trace.baggage.get("model")
        if model:
            label += f" {model}"
        if trace.status:
            label += f" [{trace.status}]"
        events.append({
            "ph": "M", "pid": 1, "tid": trace.trace_id,
            "name": "thread_name", "args": {"name": label},
        })
        for span in trace.spans:
            if span.end is None:
                continue
            args = dict(span.args)
            if span.duration == 0 and not _is_interval(span):
                # Decision marks (admission, route, batch_dispatch, ...)
                # render as thread-scoped instants.
                events.append({
                    "ph": "i", "s": "t", "pid": 1,
                    "tid": trace.trace_id, "ts": _us(span.start),
                    "name": span.name, "cat": span.category,
                    "args": args,
                })
                continue
            events.append({
                "ph": "X", "pid": 1, "tid": trace.trace_id,
                "ts": _us(span.start), "dur": _us(span.duration),
                "name": span.name, "cat": span.category,
                "args": args,
            })
    return events


#: Span names that are true intervals even when they collapse to zero
#: duration (e.g. a batch dispatched the instant it was enqueued).
_INTERVAL_NAMES = frozenset({
    "request", "queue_wait", "execute", "uplink", "downlink",
    "edge_preprocess", "edge_inference", "cache_hit",
})


def _is_interval(span: SpanRecord) -> bool:
    return span.name in _INTERVAL_NAMES


def gantt_rows(trace: TraceContext) -> list[tuple[str, SpanRecord]]:
    """``(label, span)`` for each closed interval child span.

    The rows are the spans :func:`chrome_trace_events` emits as
    complete events, in creation order.  A row is labelled with the
    span's ``instance`` arg (its name when it has none), plus
    ``@<attempt>`` for a retried execution.
    """
    rows = []
    for span in trace.children():
        if span.end is None or (span.duration == 0
                                and not _is_interval(span)):
            continue
        label = str(span.args.get("instance", span.name))
        attempt = span.args.get("attempt", 0)
        if attempt:
            label += f"@{attempt}"
        rows.append((label, span))
    return rows


def render_gantt(trace: TraceContext, width: int = 60) -> str:
    """ASCII Gantt chart of one closed trace, a row per :func:`gantt_rows`.

    The header carries the latency and the time no span covers (see
    :func:`critical_path`).  A zero-duration trace (a request shed the
    instant it arrived) has no timeline to scale bars against; it
    renders as a degenerate one-column chart — every row a single
    ``#`` at the origin — rather than dividing by the total.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    total = trace.latency
    untracked = critical_path(trace).get("untracked", 0.0)
    lines = [f"request {trace.trace_id} ({trace.status}): "
             f"{total * 1e3:.2f} ms "
             f"(untracked {untracked * 1e3:.2f} ms)"]
    for label, span in gantt_rows(trace):
        if total <= 0:
            lead, bar = 0, 1
        else:
            lead = int((span.start - trace.start) / total * width)
            bar = max(1, int(span.duration / total * width))
        lines.append(f"  {label:20s} {'.' * lead}{'#' * bar}"
                     f" {span.duration * 1e3:.2f} ms")
    return "\n".join(lines)


def export_chrome_trace(traces: list[TraceContext],
                        process_name: str = "harvest-continuum") -> str:
    """Serialize traces as deterministic Chrome trace-event JSON."""
    payload = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(traces,
                                           process_name=process_name),
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")) + "\n"


def validate_chrome_trace(text: str) -> dict:
    """Schema-check trace-event JSON; returns the parsed payload.

    Raises :class:`ValueError` on anything Perfetto would refuse:
    missing ``traceEvents``, unknown phase codes, negative or missing
    timestamps/durations, or metadata events without a name.  Used by
    the CI gate after the ``repro trace`` smoke run.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or \
            not isinstance(payload.get("traceEvents"), list):
        raise ValueError("payload must be an object with a "
                         "'traceEvents' list")
    for index, event in enumerate(payload["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in ("M", "X", "i", "I"):
            raise ValueError(f"{where} has unsupported phase {phase!r}")
        if phase == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                raise ValueError(
                    f"{where} metadata name {event.get('name')!r}")
            if not isinstance(event.get("args", {}).get("name"), str):
                raise ValueError(f"{where} metadata lacks args.name")
            continue
        for field in ("name", "cat"):
            if not isinstance(event.get(field), str):
                raise ValueError(f"{where} lacks string {field!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where} has bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} has bad dur {dur!r}")
    return payload


# ----------------------------------------------------------------------
# Critical-path analysis
# ----------------------------------------------------------------------
def critical_path(trace: TraceContext) -> dict[str, float]:
    """Attribute every instant of the trace to the span bounding it.

    Returns ``{span_name: seconds}`` summing exactly to the trace's
    latency.  Where child spans overlap (ensemble fan-out, a retry's
    queue wait overlapping a sibling's execution) the *latest-started*
    covering span wins — the stage the request most recently entered is
    the one bounding progress.  Time covered by no child span books to
    ``"untracked"``.
    """
    if not trace.closed:
        raise ValueError("cannot analyze an open trace")
    lo, hi = trace.root.start, trace.root.end
    out: dict[str, float] = {}
    if hi <= lo:
        return out
    intervals = [
        s for s in trace.children()
        if s.closed and s.end > s.start
    ]
    bounds = sorted({lo, hi, *(
        t for s in intervals for t in (s.start, s.end)
        if lo < t < hi)})
    for left, right in zip(bounds, bounds[1:]):
        covering = [s for s in intervals
                    if s.start <= left and s.end >= right]
        if covering:
            winner = max(covering, key=lambda s: (s.start, s.span_id))
            name = winner.name
        else:
            name = "untracked"
        out[name] = out.get(name, 0.0) + (right - left)
    return out


def critical_path_summary(traces: list[TraceContext],
                          quantiles: tuple[float, ...] = (0.5, 0.95,
                                                          0.99),
                          ) -> dict[str, dict]:
    """Which stage bounds the p50/p95/p99 request, plus the overall mix.

    For each quantile the *witness* request (the order statistic of the
    latency distribution) is decomposed with :func:`critical_path`;
    ``"overall"`` aggregates attribution across every closed trace.
    Each entry carries ``latency_seconds``, ``stages`` (name ->
    seconds), and ``tracked_fraction`` (1 - untracked share).
    """
    closed = [t for t in traces if t.closed]
    if not closed:
        raise ValueError("no closed traces to analyze")
    ranked = sorted(closed, key=lambda t: (t.latency, t.trace_id))
    out: dict[str, dict] = {}
    for q in quantiles:
        witness = ceil_rank(ranked, q)
        stages = critical_path(witness)
        out[f"p{q * 100:g}"] = _entry(witness.latency, stages,
                                      trace_id=witness.trace_id)
    overall: dict[str, float] = {}
    total = 0.0
    for trace in closed:
        for name, seconds in critical_path(trace).items():
            overall[name] = overall.get(name, 0.0) + seconds
        total += trace.latency
    out["overall"] = _entry(total, overall)
    return out


def _entry(latency: float, stages: dict[str, float],
           trace_id: int | None = None) -> dict:
    tracked = sum(v for k, v in stages.items() if k != "untracked")
    entry = {
        "latency_seconds": latency,
        "stages": stages,
        "tracked_fraction": (tracked / latency) if latency > 0 else 1.0,
    }
    if trace_id is not None:
        entry["trace_id"] = trace_id
    return entry


def explain_tail(registry, traces: list[TraceContext],
                 histogram: str = "continuum_latency_seconds",
                 quantile: float = 0.99,
                 intervals=None, sim_end: float | None = None) -> dict:
    """Answer "why is the p99 high" by joining metrics with traces.

    Three observability layers meet here:

    1. the *histogram* (aggregated over its label sets) locates the
       tail — the first bucket at which cumulative count reaches the
       requested quantile — and yields the exemplar witnesses stamped
       on tail buckets (``(value, trace_id, sim_time)``, recorded when
       the family has exemplars enabled);
    2. each exemplar's trace id joins back to a concrete closed trace,
       whose :func:`critical_path` decomposition attributes the
       latency to stages;
    3. optionally, the fluid-regime ``intervals`` of a
       :class:`~repro.serving.fluid.HybridReplayer` summarize how much
       of the run was integrated analytically (``sim_end`` scales the
       share; defaults to the last interval's resume time).

    Returns a deterministic report dict; render with
    :func:`render_attribution`.  The stage breakdown aggregates over
    the joined exemplar witnesses, falling back to the quantile
    witness from :func:`critical_path_summary` when no exemplar joins
    (exemplars disabled, or their traces sampled out).
    """
    within("quantile", quantile, "(0, 1)")
    closed = [t for t in traces if t.closed]
    if not closed:
        raise ValueError("no closed traces to explain")
    hist = registry.get(histogram) if registry is not None else None
    if hist is None:
        raise KeyError(f"histogram {histogram!r} is not in the registry")
    n_buckets = len(hist.buckets) + 1
    aggregate = [0] * n_buckets
    for _key, series in hist.items():
        for index, count in enumerate(series.bucket_counts):
            aggregate[index] += count
    total = sum(aggregate)
    threshold = None
    tail_index = n_buckets - 1
    tail_count = 0
    if total:
        target = math.ceil(quantile * total)
        running = 0
        for index, count in enumerate(aggregate):
            running += count
            if running >= target:
                tail_index = index
                break
        threshold = (hist.buckets[tail_index - 1]
                     if tail_index > 0 else 0.0)
        tail_count = sum(aggregate[tail_index:])
    exemplars: list[dict] = []
    for key, series in hist.items():
        if not series.exemplars:
            continue
        for index in sorted(series.exemplars):
            if index < tail_index:
                continue
            value, trace_id, stamp = series.exemplars[index]
            bound = (hist.buckets[index] if index < len(hist.buckets)
                     else float("inf"))
            exemplars.append({
                "bucket_le": bound, "value": value,
                "trace_id": trace_id, "sim_time": stamp,
                "labels": dict(key)})
    exemplars.sort(key=lambda e: (-e["value"], e["trace_id"]))
    by_id = {str(t.trace_id): t for t in closed}
    witnesses: list[dict] = []
    stages_agg: dict[str, float] = {}
    for exemplar in exemplars:
        trace = by_id.get(exemplar["trace_id"])
        if trace is None:
            continue
        stages = critical_path(trace)
        for name, seconds in stages.items():
            stages_agg[name] = stages_agg.get(name, 0.0) + seconds
        top = (max(stages.items(), key=lambda kv: (kv[1], kv[0]))[0]
               if stages else "untracked")
        witnesses.append({
            "trace_id": trace.trace_id,
            "latency_seconds": trace.latency,
            "stages": stages,
            "top_stage": top})
    quantile_key = f"p{quantile * 100:g}"
    witness = critical_path_summary(
        closed, quantiles=(quantile,))[quantile_key]
    if not stages_agg:
        stages_agg = dict(witness["stages"])
    agg_total = sum(stages_agg.values())
    stage_shares = [
        {"stage": name, "seconds": seconds,
         "share": seconds / agg_total if agg_total > 0 else 0.0}
        for name, seconds in sorted(stages_agg.items(),
                                    key=lambda kv: (-kv[1], kv[0]))]
    report = {
        "histogram": histogram,
        "quantile": quantile,
        "observations": total,
        "threshold_seconds": threshold,
        "tail_observations": tail_count,
        "witness": witness,
        "tail_exemplars": exemplars,
        "exemplar_witnesses": witnesses,
        "stages": stage_shares,
    }
    if intervals is not None:
        fluid_total = sum(iv.resumed - iv.entered for iv in intervals)
        end = sim_end
        if end is None:
            end = max((iv.resumed for iv in intervals), default=0.0)
        report["regime"] = {
            "fluid_intervals": len(intervals),
            "fluid_seconds": fluid_total,
            "sim_seconds": end,
            "fluid_share": (fluid_total / end
                            if end and end > 0 else 0.0),
        }
    return report


def render_attribution(report: dict) -> str:
    """Deterministic text rendering of an :func:`explain_tail` report."""
    quantile_key = f"p{report['quantile'] * 100:g}"
    lines: list[str] = []
    threshold = report["threshold_seconds"]
    if threshold is None:
        lines.append(
            f"why is {quantile_key} high: no observations in "
            f"{report['histogram']}")
    else:
        lines.append(
            f"why is {quantile_key} high: {report['histogram']} tail "
            f"starts past {threshold * 1e3:g} ms "
            f"({report['tail_observations']} of "
            f"{report['observations']} observations)")
    witness = report["witness"]
    lines.append(
        f"{quantile_key} witness: trace {witness['trace_id']} at "
        f"{witness['latency_seconds'] * 1e3:.2f} ms "
        f"(tracked {witness['tracked_fraction']:.0%})")
    lines.append("tail stage breakdown:")
    for entry in report["stages"]:
        lines.append(
            f"  {entry['stage']:<16s} {entry['seconds'] * 1e3:9.2f}ms "
            f"{entry['share']:5.0%}")
    if report["tail_exemplars"]:
        lines.append("tail exemplars (bucket -> trace witness):")
        for exemplar in report["tail_exemplars"]:
            bound = exemplar["bucket_le"]
            bound_text = ("+Inf" if bound == float("inf")
                          else f"{bound:g}")
            lines.append(
                f"  le={bound_text:<8s} trace "
                f"{exemplar['trace_id']:<6s} "
                f"{exemplar['value'] * 1e3:9.2f}ms "
                f"@ t={exemplar['sim_time']:.3f}s")
    regime = report.get("regime")
    if regime is not None:
        plural = "es" if regime["fluid_intervals"] != 1 else ""
        lines.append(
            f"regime: {regime['fluid_intervals']} fluid "
            f"stretch{plural}, {regime['fluid_seconds']:.3f} of "
            f"{regime['sim_seconds']:.3f} sim-s fluid "
            f"({regime['fluid_share']:.0%})")
    return "\n".join(lines) + "\n"


def render_critical_path(summary: dict[str, dict]) -> str:
    """Text table: stages as rows, quantile witnesses as columns.

    Stages order by their share of the widest-latency column; each cell
    shows milliseconds and the column share.
    """
    columns = list(summary)
    names: set[str] = set()
    for entry in summary.values():
        names.update(entry["stages"])
    anchor = ("p95" if "p95" in summary else columns[-1])
    order = sorted(names, key=lambda n: (
        -summary[anchor]["stages"].get(n, 0.0), n))
    header = f"{'stage':<16s}" + "".join(f" {c:>16s}" for c in columns)
    lines = [header]
    for name in order:
        row = f"{name:<16s}"
        for column in columns:
            entry = summary[column]
            seconds = entry["stages"].get(name, 0.0)
            total = entry["latency_seconds"]
            share = seconds / total if total > 0 else 0.0
            row += f" {seconds * 1e3:9.2f}ms {share:4.0%}"
        lines.append(row)
    totals = f"{'total':<16s}"
    tracked = f"{'tracked':<16s}"
    for column in columns:
        entry = summary[column]
        totals += f" {entry['latency_seconds'] * 1e3:9.2f}ms     "
        tracked += f" {entry['tracked_fraction']:>14.1%} "
    lines.append(totals)
    lines.append(tracked)
    return "\n".join(lines) + "\n"
