"""Extension: serverless execution on the sparse nighttime farm trace.

Replays the ``repro faas`` scenario — a vision function on a
container-based FaaS platform serving the sparse diurnal trace — and
records ``results/BENCH_faas_cli.json``.  The structural claims under
test: nighttime gaps exceed the keep-alive window so scale-to-zero
forces cold starts, cold-start p99 inflates at least 2x over warm p99,
the GB-second meter bills every invocation, and the what-if analysis
reports a finite break-even QPS that the daylight peak actually
crosses.
"""

import json

from repro.cli import main


def test_serverless_cold_starts_and_cost_crossover(benchmark,
                                                   results_dir):
    out_file = results_dir / "BENCH_faas_cli.json"

    def run():
        assert main(["faas", "--out", str(out_file)]) == 0
        return json.loads(out_file.read_text())

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    latency = payload["latency"]
    scale = payload["scale_to_zero"]
    cost = payload["cost"]
    whatif = payload["whatif"]

    # Scale-to-zero: the nighttime floor leaves gaps longer than the
    # keep-alive window, so instances are reaped and later arrivals
    # cold-start.  Warm daytime traffic dominates the invocation mix.
    assert scale["reaps"] > 0
    assert latency["cold_starts"] > 0
    assert latency["warm_starts"] > latency["cold_starts"]
    assert latency["invocations"] == payload["scenario"]["arrivals"]

    # Cold-start inflation: the acceptance bar is p99 >= 2x warm p99;
    # a multi-second sandbox + artifact fetch against a ~20 ms forward
    # clears it by orders of magnitude.
    assert latency["cold_p99"] >= 2.0 * latency["warm_p99"]
    assert latency["inflation_x"] >= 2.0

    # The GB-second meter: every invocation billed, plus provisioned
    # pinning accrued while the SLO-burn policy held a warm floor.
    assert cost["invocations"] == latency["invocations"]
    assert cost["gb_seconds"] > 0
    assert cost["total_usd"] > 0
    assert payload["policy"]["alerts"] > 0
    assert payload["policy"]["events"]

    # The crossover: a finite break-even QPS, with the daylight peak
    # above it (provisioned wins at noon) while the sparse trace as a
    # whole still favors serverless — both regimes appear.
    assert 0 < whatif["break_even_qps"] < float("inf")
    assert whatif["peak_rate"] > whatif["break_even_qps"]
    assert whatif["cheaper"] == "serverless"
    assert 0 < whatif["crossover_hours"] \
        < payload["scenario"]["duration"] / 3600.0
