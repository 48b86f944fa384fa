"""Smoke tests of the benchmark itself (about 20 s).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of all four workloads: (last line, --out)."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out",
         str(out)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == 0
    return json.loads(proc.stdout.splitlines()[-1]), \
        json.loads(out.read_text())


def test_workloads_and_layers_match_the_spec():
    assert list(workloads.WORKLOADS) == [
        w["name"] for w in SPEC["workloads"]]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in tracer.LAYERS:
        assert {f"{layer}.share", f"{layer}.calls"} <= per_layer
    assert set(workloads.WORK_COUNTS) <= per_layer
    assert len(per_layer) <= 128


def test_every_metric_is_emitted(smoke):
    line, _ = smoke
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            emitted = line["metrics"][f"{workload['name']}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
            if metric in SPEC["end_to_end"]:
                assert emitted["value"] > 0


def test_layer_self_times_add_up_to_the_traced_wall(smoke):
    _, results = smoke
    for record in results["workloads"].values():
        layers = record["per_layer"]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert total == pytest.approx(layers["traced_s"], rel=0.02)
        assert layers["unattributed.share"] <= 0.05


def test_uninstall_restores_every_wrapped_attribute():
    from repro.serving.events import Simulator

    targets = tracer.entry_points() + [(Simulator, "schedule"),
                                       (Simulator, "add_stream")]
    before = [vars(owner)[attr] for owner, attr in targets]
    traced = tracer.Tracer()
    traced.install()
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(targets, before))
    finally:
        traced.uninstall()
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(targets, before))


def test_tracer_attributes_callbacks_to_their_module():
    from repro.serving.batcher import BatcherConfig
    from repro.serving.server import ModelConfig, TritonLikeServer
    from repro.serving.traces import TraceReplayer, step_trace

    def replay():
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.001 * n, batcher=BatcherConfig(
                max_batch_size=4, max_queue_delay=0.001)))
        TraceReplayer(server, "m").schedule(step_trace(
            duration=5.0, base_rate=20.0, step_rate=200.0, step_start=1.0,
            step_end=2.0, seed=3))
        server.run()
        return len(server.responses)

    traced = tracer.Tracer(max_spans=10)
    traced.install()
    try:
        served = traced.run(replay)
    finally:
        traced.uninstall()
    assert served == replay()
    totals = traced.layer_totals()
    assert totals["serving.traces"][1] == served  # one per arrival
    assert totals["serving.instance"][1] > 0  # completion callbacks
    assert totals[tracer.UNATTRIBUTED][1] == 1  # the root span
    assert len(traced.spans) == 10
    assert len(traced.chrome_trace()["traceEvents"]) == 10


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "burst_day"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("base, candidate, expected", [
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.01, 1.0, 1.02, 0.99, 1.0],
     "within bound"),
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.3, 1.31, 1.29, 1.3, 1.32],
     "regressed"),
    ([1.0, 1.01, 0.99, 1.0, 1.02], [0.8, 0.81, 0.79, 0.8, 0.82],
     "improved"),
    ([1.0, 1.5, 0.7, 1.2, 0.9], [1.0, 1.01, 0.99, 1.0, 1.02],
     "unresolved"),
])
def test_compare_labels(base, candidate, expected):
    assert compare.label(base, candidate, "lower", 0.1) == expected
