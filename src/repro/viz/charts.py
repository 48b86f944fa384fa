"""Figure-to-SVG rendering: draw the reproduced Figs. 5-8.

Consumes the same :class:`~repro.analysis.figures.FigureSeries` data the
text report uses, so the drawn figures and the tabulated ones can never
disagree.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.analysis.figures import FigureSeries, fig5, fig6, fig7, fig8
from repro.viz.svg import Axis, BarChart, LineChart, SvgCanvas


def _line_figure(series: list[FigureSeries], panel: str, title: str,
                 y_label: str, log_y: bool) -> str:
    chart = LineChart(title, Axis("batch size", log=True),
                      Axis(y_label, log=log_y))
    for s in series:
        if s.panel != panel:
            continue
        dashed = s.meta.get("style") in ("dashed", "threshold")
        chart.add(s.name, s.x, s.y, dashed=dashed)
    return chart.render()


def _bar_figure(series: list[FigureSeries], panel: str, title: str,
                metric: str, y_label: str) -> str:
    groups = [s for s in series
              if s.panel == panel and s.meta.get("metric") == metric]
    if not groups:
        raise ValueError(f"no {metric} series for panel {panel!r}")
    categories = list(groups[0].x)
    chart = BarChart(title, y_label, log_y=True)
    chart.set_categories(categories)
    for s in groups:
        values = [dict(zip(s.x, s.y)).get(c, 0.0) for c in categories]
        chart.add_group(s.name.rsplit(" ", 1)[0], values)
    return chart.render()


def render_figure_svg(figure: str, panel: str) -> str:
    """Render one panel of one figure ("fig5".."fig8") to SVG text."""
    if figure == "fig5":
        return _line_figure(fig5(panel.lower()), panel,
                            f"Fig 5 ({panel}): achieved TFLOPS vs batch",
                            "TFLOPS", log_y=False)
    if figure == "fig6":
        return _line_figure(fig6(panel.lower()), panel,
                            f"Fig 6 ({panel}): request latency vs batch",
                            "latency (ms)", log_y=True)
    if figure == "fig7":
        return _bar_figure(fig7(panel.lower()), panel,
                           f"Fig 7 ({panel}): preprocessing throughput",
                           "images_per_second", "images/s")
    if figure == "fig8":
        return _bar_figure(fig8(panel.lower()), panel,
                           f"Fig 8 ({panel}): end-to-end throughput",
                           "images_per_second", "images/s")
    raise KeyError(f"unknown figure {figure!r}; use fig5..fig8")


def render_heatmap_svg(grid: np.ndarray, title: str = "field heatmap",
                       cell: int = 14) -> str:
    """Render a class-index grid (the offline workflow's output).

    Cells with value < 0 are uncovered (left white); classes map onto a
    green-to-brown agricultural ramp.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValueError("heatmap grid must be 2D")
    h, w = grid.shape
    canvas = SvgCanvas(width=w * cell + 20, height=h * cell + 40)
    canvas.text(10, 20, title, size=13)
    peak = max(int(grid.max()), 1)
    for y in range(h):
        for x in range(w):
            value = int(grid[y, x])
            if value < 0:
                continue
            t = value / peak
            r = int(60 + 150 * t)
            g = int(160 - 90 * t)
            b = 40
            canvas.rect(10 + x * cell, 30 + y * cell, cell - 1, cell - 1,
                        fill=f"rgb({r},{g},{b})")
    return canvas.to_svg()


def render_trace_svg(trace, width: int = 640,
                     row_height: int = 22) -> str:
    """SVG Gantt timeline of one request.

    ``trace`` is a closed :class:`repro.serving.tracectx.TraceContext`;
    it draws one colored bar per
    :func:`repro.serving.trace_export.gantt_rows` entry, and gaps
    between bars show as empty track.
    """
    from repro.serving.trace_export import critical_path, gantt_rows
    from repro.viz.svg import PALETTE

    rows = gantt_rows(trace)
    if not rows:
        raise ValueError("trace has no spans to draw")
    total = max(trace.latency, 1e-12)
    untracked = critical_path(trace).get("untracked", 0.0)
    height = 50 + row_height * len(rows)
    canvas = SvgCanvas(width, height)
    canvas.text(10, 18,
                f"request {trace.trace_id} ({trace.status}) — "
                f"{trace.latency * 1e3:.2f} ms, untracked "
                f"{untracked * 1e3:.2f} ms", size=12)
    track_x, track_w = 150, width - 170
    for i, (label, span) in enumerate(rows):
        y = 34 + i * row_height
        canvas.text(10, y + 12, label, size=10)
        x0 = track_x + (span.start - trace.start) / total * track_w
        bar = max(1.0, span.duration / total * track_w)
        canvas.rect(x0, y, bar, row_height - 6,
                    fill=PALETTE[i % len(PALETTE)])
    return canvas.to_svg()


def save_all_figures(directory: "str | pathlib.Path") -> list[pathlib.Path]:
    """Write every figure panel as an SVG file; returns the paths."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for figure in ("fig5", "fig6", "fig7", "fig8"):
        for panel in ("A100", "V100", "Jetson"):
            path = directory / f"{figure}_{panel.lower()}.svg"
            path.write_text(render_figure_svg(figure, panel))
            paths.append(path)
    return paths
