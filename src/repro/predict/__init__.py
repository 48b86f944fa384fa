"""Performance-prediction toolkit (the paper's stated future work).

Conclusion: "Future work will develop comprehensive quantitative models
for scalable performance prediction and provide deployment toolkits that
enable practitioners to establish performance expectations before
deployment."

This package is that toolkit:

* :mod:`repro.predict.predictor` — predict throughput/latency/memory/
  energy for any (model, platform, batch), including *hypothetical*
  platforms never measured, by transferring the calibrated MFU structure
  from a donor platform;
* :mod:`repro.predict.whatif` — define a candidate device from datasheet
  numbers (:func:`define_platform`) and preview the whole evaluation on
  it before buying hardware;
* :mod:`repro.predict.capacity` — size a deployment: nodes/instances
  needed for a target workload under a latency SLO, with energy totals;
* :mod:`repro.predict.validation` — honesty check: leave-one-platform-
  out backtesting of the predictor against the paper's own anchors.
"""

from repro.predict.predictor import (
    PerformancePredictor,
    Prediction,
)
from repro.predict.whatif import define_platform, preview_platform
from repro.predict.capacity import (
    CapacityPlanner,
    DeploymentPlan,
    WorkloadSpec,
)
from repro.predict.validation import (
    backtest_platform,
    BacktestResult,
)

__all__ = [
    "PerformancePredictor",
    "Prediction",
    "define_platform",
    "preview_platform",
    "CapacityPlanner",
    "DeploymentPlan",
    "WorkloadSpec",
    "backtest_platform",
    "BacktestResult",
]
