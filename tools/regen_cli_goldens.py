"""Regenerate the CLI goldens under tests/golden/cli/.

Run from the repository root:

    PYTHONPATH=src python tools/regen_cli_goldens.py

Each case replays the argument set of the tests/test_cli.py test that
checks it, with its output files written into a fresh directory.  Only
regenerate when a CLI output changes on purpose, and say why in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.cli import main  # noqa: E402
from tests import test_cli as t  # noqa: E402
from tests.cli_golden import GOLDEN, defaults_text, snapshot  # noqa: E402

# case -> (arguments, output option -> file name)
CASES = {
    "metrics": (t.TestMetricsCommand.SCRAPE, {}),
    "metrics_reject": (t.TestMetricsCommand.REJECT, {}),
    "autoscale": (t.TestAutoscale.FAST, {}),
    "trace": (t.TestTrace.FAST, {"--out": "trace.json"}),
    "cache": (t.TestCache.FAST, {"--out": "cache.json"}),
    "cache_exact": (t.TestCache.EXACT, {"--out": "cache.json"}),
    "network": (t.TestNetwork.FAST, {"--out": "network.json",
                                     "--trace-out": "network.trace.json"}),
    "network_outage": (t.TestNetwork.OUTAGE, {
        "--out": "network.json", "--trace-out": "network.trace.json"}),
    "profile": (t.TestProfile.FAST, {
        "--out": "p.json", "--speedscope": "p.speedscope.json",
        "--folded-out": "p.folded"}),
    "profile_forward": (t.TestProfile.FAST + ["--forward"], {}),
    "faas": (t.TestFaas.FAST, {"--out": "faas.json"}),
    "faas_churn": (t.TestFaas.CHURN, {"--out": "faas.json"}),
    "faas_never_reap": (t.TestFaas.NEVER_REAP, {}),
    "sweep": (t.TestSweep.ARGS + ["--jobs", "1"],
              {"--out": "sweep.json", "--metrics-out": "sweep.prom"}),
}


def regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    (GOLDEN / "defaults.json").write_text(defaults_text())
    for case, (args, outputs) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = pathlib.Path(tmp)
            argv = list(args)
            for option, name in outputs.items():
                argv += [option, str(out_dir / name)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0, case
            files = snapshot(stdout.getvalue(), out_dir)
        (GOLDEN / case).mkdir()
        for name, data in files.items():
            (GOLDEN / case / name).write_bytes(data)
        print(f"{case}: {', '.join(sorted(files))}")


if __name__ == "__main__":
    regenerate()
