"""Smoke tests: the examples that run in seconds run end to end as scripts.

``farm_day_simulation.py`` (about half a minute) and
``farm_localized_training.py`` are slower; no test runs them, so run
them by hand after changing what they use.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Table 1: evaluated platforms" in out
        assert "Paper vs model" in out
        assert "Tuning advisor" in out

    def test_model_selection_advisor(self):
        out = run_example("model_selection_advisor.py")
        assert "A100" in out and "Jetson" in out
        assert "deploy" in out

    def test_offline_drone_survey(self):
        # The only caller of continuum/stitching.py: the Fig 3a path.
        out = run_example("offline_drone_survey.py")
        assert "stitched mosaic: 320x192, 100% covered" in out
        assert "total field turnaround: 1.7 min" in out

    def test_online_cloud_serving(self):
        out = run_example("online_cloud_serving.py")
        assert "uplink" in out
        assert "SLO" in out

    def test_examples_directory_complete(self):
        names = sorted(p.name for p in EXAMPLES.glob("*.py"))
        assert names == [
            "farm_day_simulation.py",
            "farm_localized_training.py",
            "model_selection_advisor.py",
            "offline_drone_survey.py",
            "online_cloud_serving.py",
            "quickstart.py",
            "realtime_ground_vehicle.py",
        ]
