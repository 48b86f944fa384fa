"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from tests.cli_golden import GOLDEN, assert_golden, defaults_text


class TestReport:
    def test_single_artifact(self, capsys):
        assert main(["report", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Plant Village" in out

    def test_figure_artifact(self, capsys):
        assert main(["report", "fig5"]) == 0
        assert "ViT Tiny" in capsys.readouterr().out

    def test_invalid_artifact_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["report", "fig9"])


class TestCompare:
    def test_prints_anchor_table(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "rel_err_pct" in out


class TestAdvise:
    def test_ranks_models(self, capsys):
        assert main(["advise", "--platform", "a100",
                     "--dataset", "plant_village"]) == 0
        out = capsys.readouterr().out
        assert "vit_base" in out and "meets target" in out

    def test_unknown_platform_is_an_error_exit(self, capsys):
        assert main(["advise", "--platform", "h100",
                     "--dataset", "plant_village"]) == 2
        assert "error" in capsys.readouterr().err


class TestPredict:
    def test_expectation_report(self, capsys):
        assert main(["predict", "--model", "vit_tiny",
                     "--platform", "jetson"]) == 0
        out = capsys.readouterr().out
        assert "max_batch: 196" in out

    def test_unknown_model_error(self, capsys):
        assert main(["predict", "--model", "bert",
                     "--platform", "a100"]) == 2


class TestFigures:
    def test_writes_svgs(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("*.svg"))) == 12


class TestParserDefaults:
    def test_simulation_defaults_match_golden(self):
        assert defaults_text() == (GOLDEN / "defaults.json").read_text()


class TestMetricsCommand:
    SCRAPE = ["metrics", "--requests", "60", "--rate", "120",
              "--seed", "3"]
    REJECT = ["metrics", "--requests", "60", "--rate", "400",
              "--queue-limit", "4", "--seed", "3"]

    def test_end_to_end_smoke(self, capsys):
        assert main(["metrics", "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "== timeline ==" in out
        assert "== stage breakdown ==" in out
        assert "== scrape ==" in out
        assert "harvest_responses_total" in out
        assert "queue_wait_seconds" in out

    def test_scrape_is_deterministic_across_runs(self, capsys):
        # Tier-1 smoke: two identical simulated runs must print the
        # same timeline and the same scrape, byte for byte — the
        # observability layer adds no hidden nondeterminism.
        assert main(self.SCRAPE) == 0
        first = capsys.readouterr().out
        assert_golden("metrics", first)
        assert main(self.SCRAPE) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_queue_rejections_are_pinned(self, capsys):
        # A bounded queue under overload: the scrape carries the
        # rejected responses and the per-stage rejection counter.
        assert main(self.REJECT) == 0
        out = capsys.readouterr().out
        assert 'rejections_total{stage="infer"} 5' in out
        assert_golden("metrics_reject", out)

    def test_invalid_rate_is_an_error_exit(self, capsys):
        assert main(["metrics", "--rate", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["nan", "inf", "0"])
    def test_bad_interval_is_rejected_before_the_run(self, capsys,
                                                     interval):
        assert main(["metrics", "--interval", interval,
                     "--requests", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--interval" in captured.err

    def test_nan_rate_is_rejected_before_the_run(self, capsys):
        # NaN passed a `rate <= 0` check and failed mid-run with an
        # event-core error that did not name the option.
        assert main(["metrics", "--rate", "nan", "--requests", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--rate" in captured.err


class TestAutoscale:
    FAST = ["autoscale", "--duration", "12", "--step-start", "2",
            "--step-end", "6", "--step-rate", "2000",
            "--base-rate", "150", "--seed", "5"]

    def test_end_to_end_smoke(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "scaling timeline" in out
        assert "scale_out" in out
        assert "drain" in out
        assert "autoscale_replicas" in out
        assert "admission_admitted_total" in out

    def test_output_is_deterministic_across_runs(self, capsys):
        # Acceptance: two identical invocations are byte-identical —
        # scaling decisions, shed counts, scrape and all.
        assert main(self.FAST) == 0
        first = capsys.readouterr().out
        assert_golden("autoscale", first)
        assert main(self.FAST) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_explicit_ceiling_skips_planner(self, capsys):
        assert main(self.FAST + ["--max-replicas", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 (--max-replicas)" in out

    def test_invalid_slo_is_an_error_exit(self, capsys):
        assert main(["autoscale", "--slo-ms", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_model_is_an_error_exit(self, capsys):
        assert main(["autoscale", "--model", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        ("--cooldown", "cooldown_seconds"),
        ("--interval", "interval"),
    ])
    def test_nan_option_is_rejected_before_the_run(self, capsys, option,
                                                   message):
        assert main(self.FAST + [option, "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestTrace:
    FAST = ["trace", "--duration", "6", "--step-start", "1",
            "--step-end", "3", "--step-rate", "700",
            "--base-rate", "60", "--seed", "2"]

    def test_end_to_end_smoke(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "== critical path ==" in out
        assert "== slo burn alerts ==" in out
        assert "== scaling timeline ==" in out
        assert "queue_wait" in out
        assert "tracked" in out

    def test_overload_fires_burn_alert_and_scales(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        alerts = out.split("== slo burn alerts ==")[1] \
                    .split("== scaling timeline ==")[0]
        assert "(no burn-rate alerts)" not in alerts
        assert "scale_out" in out

    def test_output_is_deterministic_across_runs(self, capsys,
                                                 tmp_path):
        # Acceptance: two identical invocations produce byte-identical
        # stdout AND byte-identical Perfetto JSON.
        out_file = tmp_path / "trace.json"
        args = self.FAST + ["--out", str(out_file)]
        assert main(args) == 0
        first_stdout = capsys.readouterr().out
        assert_golden("trace", first_stdout, tmp_path)
        first_json = out_file.read_bytes()
        assert main(args) == 0
        second_stdout = capsys.readouterr().out
        assert first_stdout == second_stdout
        assert first_json == out_file.read_bytes()

    def test_written_trace_passes_schema_check(self, tmp_path):
        from repro.serving.trace_export import validate_chrome_trace

        out_file = tmp_path / "trace.json"
        assert main(self.FAST + ["--out", str(out_file)]) == 0
        payload = validate_chrome_trace(out_file.read_text())
        assert payload["traceEvents"]

    def test_unknown_link_is_an_error_exit(self, capsys):
        assert main(["trace", "--link", "carrier-pigeon"]) == 2
        assert "error" in capsys.readouterr().err


class TestCache:
    FAST = ["cache", "--frames", "80", "--rate", "20",
            "--scene-change-rates", "0.05", "--seed", "1"]
    EXACT = FAST + ["--threshold", "0"]

    def test_end_to_end_smoke(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "== scene change rate 0.05 ==" in out
        assert "edge_result" in out and "cloud_tensor" in out
        assert "p95 latency" in out
        assert "uplink bytes saved" in out

    def test_hit_ratio_and_p95_meet_acceptance_floor(self, capsys,
                                                     tmp_path):
        # Acceptance: at scene_change_rate=0.05 the edge tier absorbs
        # >= 80% of lookups, saves uplink bytes, and beats the
        # cache-disabled p95.
        import json

        out_file = tmp_path / "cache.json"
        args = ["cache", "--scene-change-rates", "0.05",
                "--out", str(out_file)]
        assert main(args) == 0
        capsys.readouterr()
        [row] = json.loads(out_file.read_text())["rates"]
        assert row["edge_hit_ratio"] >= 0.8
        assert row["uplink_bytes_saved"] > 0
        assert row["cached_p95_ms"] < row["uncached_p95_ms"]

    def test_output_is_deterministic_across_runs(self, capsys,
                                                 tmp_path):
        # Acceptance: two identical invocations produce byte-identical
        # stdout AND byte-identical JSON.
        out_file = tmp_path / "cache.json"
        args = self.FAST + ["--out", str(out_file)]
        assert main(args) == 0
        first_stdout = capsys.readouterr().out
        assert_golden("cache", first_stdout, tmp_path)
        first_json = out_file.read_bytes()
        assert main(args) == 0
        assert capsys.readouterr().out == first_stdout
        assert out_file.read_bytes() == first_json

    def test_exact_match_output_matches_golden(self, capsys, tmp_path):
        # threshold 0: every probe is an exact-key lookup, never a scan.
        args = self.EXACT + ["--out", str(tmp_path / "cache.json")]
        assert main(args) == 0
        assert_golden("cache_exact", capsys.readouterr().out, tmp_path)

    def test_hit_ratio_decays_with_scene_change_rate(self, capsys,
                                                     tmp_path):
        import json

        out_file = tmp_path / "cache.json"
        args = ["cache", "--frames", "80", "--seed", "1",
                "--scene-change-rates", "0.0,0.2,0.8",
                "--out", str(out_file)]
        assert main(args) == 0
        capsys.readouterr()
        rows = json.loads(out_file.read_text())["rates"]
        ratios = [row["edge_hit_ratio"] for row in rows]
        assert ratios == sorted(ratios, reverse=True)

    def test_empty_rates_is_an_error_exit(self, capsys):
        assert main(["cache", "--scene-change-rates", " "]) == 2
        assert "error" in capsys.readouterr().err

    def test_out_of_range_rate_is_an_error_exit(self, capsys):
        assert main(["cache", "--scene-change-rates", "1.5"]) == 2
        assert "error" in capsys.readouterr().err


class TestNetwork:
    FAST = ["network", "--frames", "15", "--broker-messages", "60",
            "--seed", "1"]
    OUTAGE = FAST + ["--outage-start", "5", "--outage-seconds", "3"]

    def test_end_to_end_smoke(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "4 co-located endpoints on field_lte_lossy" in out
        assert "== uncached replay ==" in out
        assert "== cached replay ==" in out
        assert "uplink spans:" in out
        assert "retransmits" in out
        assert "qos0:" in out and "qos1:" in out
        assert "link_bytes_total" in out
        assert "link_queue_depth" in out

    def test_contention_widens_uplink_spans(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "network.json"
        assert main(self.FAST + ["--out", str(out_file)]) == 0
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        uncached = payload["uncached"]
        # Four lockstep senders: every span stretches toward 4x the
        # solo serialization time, and the cache relieves the p95.
        assert uncached["peak_concurrency"] == 4
        solo_ms = 256.0 * 1024 * 8 / 10e6 * 1e3
        assert uncached["uplink_spans"]["mean_ms"] > 2.5 * solo_ms
        assert payload["cached"]["p95_ms"] < uncached["p95_ms"]

    def test_output_is_deterministic_across_runs(self, capsys,
                                                 tmp_path):
        # Acceptance: byte-identical stdout, JSON, and Chrome trace
        # across identical invocations.
        out_file = tmp_path / "network.json"
        trace_file = tmp_path / "network.trace.json"
        args = self.FAST + ["--out", str(out_file),
                            "--trace-out", str(trace_file)]
        assert main(args) == 0
        first_stdout = capsys.readouterr().out
        assert_golden("network", first_stdout, tmp_path)
        first_json = out_file.read_bytes()
        first_trace = trace_file.read_bytes()
        assert main(args) == 0
        assert capsys.readouterr().out == first_stdout
        assert out_file.read_bytes() == first_json
        assert trace_file.read_bytes() == first_trace

    def test_trace_out_validates(self, capsys, tmp_path):
        from repro.serving.trace_export import validate_chrome_trace

        trace_file = tmp_path / "network.trace.json"
        assert main(self.FAST + ["--trace-out", str(trace_file)]) == 0
        capsys.readouterr()
        payload = validate_chrome_trace(trace_file.read_text())
        names = {e.get("name") for e in payload["traceEvents"]}
        assert "uplink" in names and "downlink" in names

    def test_outage_buffers_instead_of_dropping(self, capsys):
        assert main(self.OUTAGE) == 0
        out = capsys.readouterr().out
        assert "outage: link down 5..8 s" in out
        assert "store-and-forward:" in out
        assert "0 dropped" in out

    def test_outage_run_matches_golden(self, capsys, tmp_path):
        # Pins the store-and-forward path: buffered frames, the outage
        # counters and the trace of the drained backlog.
        assert main(self.OUTAGE + [
            "--out", str(tmp_path / "network.json"),
            "--trace-out", str(tmp_path / "network.trace.json")]) == 0
        assert_golden("network_outage", capsys.readouterr().out, tmp_path)

    def test_bad_arguments_are_error_exits(self, capsys):
        assert main(["network", "--endpoints", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["network", "--rate", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["network", "--link", "nope"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["network", "--broker-messages", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag", [
        (["--jitter-ms", "nan"], "--jitter-ms"),
        (["--jitter-ms", "inf"], "--jitter-ms"),
        (["--jitter-ms", "-1"], "--jitter-ms"),
        (["--loss", "nan"], "--loss"),
        (["--outage-start", "nan", "--outage-seconds", "2"],
         "--outage-start"),
        (["--outage-start", "-1"], "--outage-start"),
        (["--outage-start", "5", "--outage-seconds", "nan"],
         "--outage-seconds"),
        (["--outage-start", "5", "--outage-seconds", "0"],
         "--outage-seconds"),
    ])
    def test_bad_link_and_outage_options_exit_before_the_run(
            self, capsys, args, flag):
        assert main(["network", "--frames", "5", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")


class TestBacktest:
    def test_prints_errors(self, capsys):
        assert main(["backtest", "--platform", "v100",
                     "--donor", "a100"]) == 0
        out = capsys.readouterr().out
        assert "mean relative error" in out

    def test_same_platform_error(self, capsys):
        assert main(["backtest", "--platform", "a100",
                     "--donor", "a100"]) == 2


class TestProfile:
    FAST = ["profile", "--duration", "3", "--fluid-duration", "30",
            "--burst-rate", "900"]

    def test_end_to_end_smoke(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "== profile tree (sim-time) ==" in out
        assert "serve" in out and "continuum" in out
        assert "== folded stacks (sim-time) ==" in out
        assert "sim;run " in out
        assert "== exemplars ==" in out
        assert ' # {trace_id="' in out
        assert "== tail attribution ==" in out
        assert "why is p99 high" in out
        assert "== fluid regime" in out
        assert "fluid_intervals_total" in out
        assert "== fluid profile tree (sim-time) ==" in out

    def test_output_is_deterministic_across_runs(self, capsys):
        assert main(self.FAST) == 0
        first = capsys.readouterr().out
        assert main(self.FAST) == 0
        assert capsys.readouterr().out == first

    def test_forward_prints_kernel_phase_counts(self, capsys):
        assert main(self.FAST + ["--forward"]) == 0
        assert_golden("profile_forward", capsys.readouterr().out)

    def test_artifacts_are_written_and_deterministic(self, capsys,
                                                     tmp_path):
        args = self.FAST + [
            "--out", str(tmp_path / "p.json"),
            "--speedscope", str(tmp_path / "p.speedscope.json"),
            "--folded-out", str(tmp_path / "p.folded")]
        assert main(args) == 0
        assert_golden("profile", capsys.readouterr().out, tmp_path)
        import json
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["continuum"]["closed_traces"] > 0
        assert "sim;run" in doc["continuum"]["folded_sim"]
        speedscope = json.loads(
            (tmp_path / "p.speedscope.json").read_text())
        assert speedscope["profiles"][0]["unit"] == "microseconds"
        folded_1 = (tmp_path / "p.folded").read_text()
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "p.folded").read_text() == folded_1

    def test_bad_sample_rate_is_an_error_exit(self, capsys):
        assert main(["profile", "--sample-rate", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestFaas:
    FAST = ["faas", "--duration", "3600", "--seed", "1"]
    # Short keep-alive and a tight SLO: both burn windows fire and
    # re-arm, the policy acts, and idle instances are reaped.
    CHURN = ["faas", "--duration", "3600", "--seed", "2",
             "--keep-alive", "10", "--slo-ms", "25",
             "--hold-seconds", "300"]
    # An infinite keep-alive: no idle instance is ever reaped.
    NEVER_REAP = ["faas", "--duration", "600", "--seed", "1",
                  "--keep-alive", "inf"]

    def test_end_to_end_smoke(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "== cold-start inflation ==" in out
        assert "== scale-to-zero ==" in out
        assert "== provisioned-concurrency policy ==" in out
        assert "== whatif: serverless vs provisioned ==" in out
        assert "harvest_faas_" in out

    def test_output_is_deterministic_across_runs(self, capsys,
                                                 tmp_path):
        out_file = tmp_path / "faas.json"
        args = self.FAST + ["--out", str(out_file)]
        assert main(args) == 0
        first_stdout = capsys.readouterr().out
        assert_golden("faas", first_stdout, tmp_path)
        first_json = out_file.read_bytes()
        assert main(args) == 0
        assert capsys.readouterr().out == first_stdout
        assert out_file.read_bytes() == first_json

    def test_churn_run_matches_golden(self, capsys, tmp_path):
        out_file = tmp_path / "faas.json"
        assert main(self.CHURN + ["--out", str(out_file)]) == 0
        assert_golden("faas_churn", capsys.readouterr().out, tmp_path)

    def test_never_reap_run_matches_golden(self, capsys):
        assert main(self.NEVER_REAP) == 0
        assert_golden("faas_never_reap", capsys.readouterr().out)

    def test_negative_max_events_is_an_error_exit(self, capsys):
        assert main(["faas", "--max-events", "-1"]) == 2
        assert "--max-events" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        ("--slo-ms", "latency threshold"),
        ("--keep-alive", "keep-alive"),
        ("--hold-seconds", "hold_seconds"),
        ("--duration", "--duration"),
        ("--peak-rate", "--peak-rate"),
        ("--night-rate", "--night-rate"),
    ])
    def test_nan_option_is_rejected_before_the_run(self, capsys, option,
                                                   message):
        argv = ["faas", "--duration", "600", "--seed", "1", option, "nan"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestSweep:
    ARGS = ["sweep", "--replications", "3", "--duration", "300",
            "--seed", "7"]

    def test_prints_deterministic_table(self, capsys):
        assert main(self.ARGS + ["--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "3 seed replications" in out
        assert "aggregate:" in out and "merged" in out
        assert "job" not in out  # worker count must not leak into stdout

    def test_stdout_byte_identical_across_jobs(self, capsys):
        assert main(self.ARGS + ["--jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(self.ARGS + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_out_and_metrics_out_match_across_jobs(self, capsys,
                                                   tmp_path):
        import json

        files = {}
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            out_dir.mkdir()
            out = out_dir / "sweep.json"
            prom = out_dir / "sweep.prom"
            assert main(self.ARGS + ["--jobs", jobs, "--out", str(out),
                                     "--metrics-out", str(prom)]) == 0
            assert_golden("sweep", capsys.readouterr().out, out_dir)
            files[jobs] = (out.read_text(), prom.read_text())
        assert files["1"] == files["2"]
        doc = json.loads(files["1"][0])
        assert len(doc["shards"]) == 3
        assert doc["aggregate"]["merged"]["count"] == sum(
            s["completed"] for s in doc["shards"])
        assert files["1"][1].startswith("# HELP")

    def test_wall_flag_appends_host_timings(self, capsys):
        assert main(self.ARGS + ["--jobs", "2", "--wall"]) == 0
        assert "wall" in capsys.readouterr().out

    def test_failed_shard_exits_nonzero_with_summary(self, capsys,
                                                     monkeypatch):
        import repro.sweep.workloads as workloads

        monkeypatch.setattr(
            workloads, "replay_sparse_diurnal",
            workloads._always_fails)
        assert main(self.ARGS + ["--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert "sweep failed" in err and "failed as designed" in err

    def test_bad_replications_is_an_error_exit(self, capsys):
        assert main(["sweep", "--replications", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--duration", "nan"), ("--duration", "0"),
        ("--peak-rate", "nan"), ("--peak-rate", "-1"),
        ("--night-rate", "nan"), ("--night-rate", "-0.5"),
        ("--night-rate", "10"),
    ])
    def test_bad_day_option_is_rejected_before_the_pool(
            self, capsys, monkeypatch, option, value):
        # A NaN duration used to burn every shard retry and exit 1; a
        # NaN peak rate exited 0 with an empty table.
        import repro.sweep as sweep

        def no_pool(*args, **kwargs):
            raise AssertionError("SweepRunner started")

        monkeypatch.setattr(sweep, "SweepRunner", no_pool)
        argv = ["sweep", "--replications", "2", "--duration", "60",
                "--jobs", "1", option, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err
