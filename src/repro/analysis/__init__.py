"""Analysis harness: regenerate every table and figure of the paper.

One function per artifact (``table1``..``table3``, ``fig4``..``fig8``),
each returning structured data plus a ``render_*`` helper producing the
text report, and :mod:`repro.analysis.compare` producing the
paper-vs-model deltas recorded in EXPERIMENTS.md.
"""

from repro.analysis.tables import table1, table2, table3
from repro.analysis.figures import (
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    FigureSeries,
)
from repro.analysis.report import render_report, full_report
from repro.analysis.compare import (
    paper_comparison,
    ComparisonRow,
)
from repro.analysis.stats import (
    ConfidenceInterval,
    bootstrap_ci,
    latency_cis,
)

__all__ = [
    "table1",
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "FigureSeries",
    "render_report",
    "full_report",
    "paper_comparison",
    "ComparisonRow",
    "ConfidenceInterval",
    "bootstrap_ci",
    "latency_cis",
]
