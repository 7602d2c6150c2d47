"""The ``python -m repro`` command line."""

import pytest

from repro.__main__ import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig5", "table4", "fig8"):
            assert name in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        assert "GTXTitan" in capsys.readouterr().out

    def test_corpus(self, capsys):
        assert main(["corpus", "INT"]) == 0
        out = capsys.readouterr().out
        assert "internet" in out and "mu" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_run_with_matrix_subset(self, capsys):
        assert main(["run", "table5", "--matrices", "INT", "ENR"]) == 0
        out = capsys.readouterr().out
        assert "INT" in out and "ENR" in out

    def test_run_fig5_on_device(self, capsys):
        assert (
            main(
                [
                    "run",
                    "fig5",
                    "--matrices",
                    "INT",
                    "--device",
                    "gtx580",
                ]
            )
            == 0
        )
        assert "GTX580" in capsys.readouterr().out

    def test_every_experiment_registered(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig7-top",
            "fig8",
        }
        assert expected <= set(EXPERIMENTS)


class TestTraceFlag:
    def test_run_rejects_the_trace_flag(self, capsys, tmp_path):
        """``run`` has no ``--trace``: an ACSR SpMV is one pooled launch,
        drawn by ``profile --chrome``."""
        out = tmp_path / "trace.json"
        with pytest.raises(SystemExit) as exc:
            main(["run", "table5", "--matrices", "INT", "--trace", str(out)])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err
        assert not out.exists()


class TestProfileCli:
    def test_profile_prints_table_and_verdict(self, capsys):
        assert main(["profile", "INT", "csr", "GTXTitan"]) == 0
        out = capsys.readouterr().out
        assert "== profile:" in out
        assert "GTXTitan" in out
        assert "verdict:" in out
        assert "TOTAL" in out or "total" in out

    def test_profile_k_flag_shows_batch_width(self, capsys):
        assert main(["profile", "INT", "csr", "GTXTitan", "--k", "8"]) == 0
        assert "k=8" in capsys.readouterr().out

    def test_profile_acsr_reports_dp(self, capsys):
        assert main(["profile", "INT", "acsr", "GTXTitan"]) == 0
        out = capsys.readouterr().out
        assert "DP" in out

    def test_profile_exports_validate(self, capsys, tmp_path):
        import json

        jsonl = tmp_path / "p.jsonl"
        csv_path = tmp_path / "p.csv"
        chrome = tmp_path / "p.json"
        assert (
            main(
                [
                    "profile",
                    "INT",
                    "acsr",
                    "GTXTitan",
                    "--jsonl",
                    str(jsonl),
                    "--csv",
                    str(csv_path),
                    "--chrome",
                    str(chrome),
                ]
            )
            == 0
        )
        assert jsonl.exists() and csv_path.exists() and chrome.exists()
        doc = json.loads(chrome.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} == {"C"}
        # The written JSONL passes its own validator via profile-check.
        assert main(["profile-check", str(jsonl)]) == 0
        assert ": ok" in capsys.readouterr().out

    def test_profile_check_flags_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert main(["profile-check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "bad.jsonl:1" in out  # per-field message names the line

    def test_profile_check_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["profile-check", str(tmp_path / "nope.jsonl")]) == 2
        assert "MISSING" in capsys.readouterr().out

    def test_profile_check_missing_beats_invalid(self, capsys, tmp_path):
        """Exit codes: 2 (unreadable/missing) wins over 1 (invalid)."""
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert (
            main(
                ["profile-check", str(bad), str(tmp_path / "gone.jsonl")]
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "INVALID" in out and "MISSING" in out

    def test_profile_check_undecodable_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bytes.jsonl"
        bad.write_bytes(b"\xff\xfe\x00garbage\n")
        assert main(["profile-check", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "bytes.jsonl: UNREADABLE" in out
        assert "unreadable" in out

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "INT", "nope", "GTXTitan"])

    def test_unknown_diff_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["diff", "INT", "csr", "nope", "GTXTitan"]
            )

    def test_devices_table_lists_hardware_limits(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "tex KiB/SM" in out
        assert "RowMax" in out
        assert "GFLOP/s" in out


class TestDevicesJson:
    def test_emits_parseable_registry(self, capsys):
        import json

        assert main(["devices", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["device"] for r in rows} >= {
            "GTX580",
            "TeslaK10",
            "GTXTitan",
        }

    def test_key_order_is_deterministic(self, capsys):
        import json

        main(["devices", "--json"])
        first = capsys.readouterr().out
        main(["devices", "--json"])
        second = capsys.readouterr().out
        assert first == second  # byte-identical, stable key order
        rows = json.loads(first)
        orders = {tuple(r.keys()) for r in rows}
        assert len(orders) == 1  # same column order for every device
        assert next(iter(orders))[0] == "device"


class TestServeSimCli:
    ARGS = [
        "serve-sim",
        "WIK",
        "GTXTitan",
        "--scale",
        "0.002",
        "--requests",
        "24",
        "--format",
        "csr",
        "--seed",
        "3",
    ]

    def test_prints_summary_and_exits_zero(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "admitted" in out
        assert "p99" in out
        assert "queries/s" in out

    def test_jsonl_artifact_passes_profile_check(self, capsys, tmp_path):
        jsonl = tmp_path / "serve.jsonl"
        assert main(self.ARGS + ["--jsonl", str(jsonl)]) == 0
        assert main(["profile-check", str(jsonl)]) == 0
        assert ": ok" in capsys.readouterr().out

    def test_trace_artifact_is_chrome_loadable(self, tmp_path):
        import json

        trace = tmp_path / "serve-trace.json"
        assert main(self.ARGS + ["--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]

    def test_same_seed_byte_identical_jsonl(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(self.ARGS + ["--jsonl", str(a)]) == 0
        assert main(self.ARGS + ["--jsonl", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_matrix_exits_2(self, capsys):
        args = list(self.ARGS)
        args[1] = "NOPE"
        assert main(args) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_unknown_device_exits_2(self, capsys):
        args = list(self.ARGS)
        args[2] = "Voodoo2"
        assert main(args) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_failed_p99_assertion_exits_3(self, capsys):
        assert main(self.ARGS + ["--assert-p99", "1e-12"]) == 3
        assert "ASSERTION FAILED" in capsys.readouterr().err

    def test_passing_p99_assertion_exits_0(self):
        assert main(self.ARGS + ["--assert-p99", "10.0"]) == 0


class TestServeSimMonitorCli:
    #: Burst-heavy overload that fires the burn-rate alert (the CI
    #: slo-smoke configuration, 96 requests).
    HOT = [
        "serve-sim",
        "WIK",
        "GTXTitan",
        "--scale",
        "0.002",
        "--requests",
        "96",
        "--format",
        "csr",
        "--seed",
        "3",
        "--rate",
        "120",
        "--burst",
        "6",
        "--slo",
        "p99<=350us@5ms",
    ]

    def test_monitor_summary_and_alert_lines(self, capsys):
        assert main(self.HOT) == 0
        out = capsys.readouterr().out
        assert "monitor:" in out
        assert "rolling p50" in out
        assert "FIRING" in out

    def test_slo_implies_monitor_and_assert_alerts_passes(self):
        assert main(self.HOT + ["--assert-alerts", "1"]) == 0

    def test_quiet_run_fails_the_alert_assertion(self, capsys):
        args = TestServeSimCli.ARGS + [
            "--slo",
            "p99<=1@10s",  # 1 s: nothing is ever bad
            "--assert-alerts",
            "1",
        ]
        assert main(args) == 3
        assert "ASSERTION FAILED" in capsys.readouterr().err

    def test_bad_slo_spec_exits_2(self, capsys):
        args = TestServeSimCli.ARGS + ["--slo", "p99<=oops@5ms"]
        assert main(args) == 2
        assert "bad SLO spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "slos, message",
        [
            (["p99<=350us@5ms", "p99<=350us@5ms"], "duplicate SLO"),
            (["p99<=350us@1e999s"], "finite and positive"),
        ],
        ids=["duplicate", "infinite-window"],
    )
    def test_bad_slo_set_exits_2_before_serving(
        self, capsys, monkeypatch, slos, message
    ):
        from repro.serve import ServeEngine

        def refuse(*args, **kwargs):
            raise AssertionError("served a trace with a bad SLO set")

        monkeypatch.setattr(ServeEngine, "run_trace", refuse)
        args = list(TestServeSimCli.ARGS)
        for spec in slos:
            args += ["--slo", spec]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "serve-sim:" not in captured.out

    @pytest.mark.parametrize(
        "knob",
        [
            ["--window-us", "nan"],
            ["--window-us", "inf"],
            ["--window-us", "0"],
            ["--sample-every-us", "nan"],
            ["--sample-every-us", "inf"],
        ],
    )
    def test_non_finite_window_knobs_exit_2(self, capsys, knob):
        args = TestServeSimCli.ARGS + ["--monitor"] + knob
        assert main(args) == 2
        assert "finite and positive" in capsys.readouterr().err

    def test_cadence_finer_than_a_bucket_exits_2_before_serving(
        self, capsys, monkeypatch
    ):
        # 1 ns against a 250 us bucket would be ~10^9 ticks per key.
        from repro.serve import ServeEngine

        def refuse(*args, **kwargs):
            raise AssertionError("served with a sub-bucket cadence")

        monkeypatch.setattr(ServeEngine, "run_trace", refuse)
        args = TestServeSimCli.ARGS + [
            "--monitor", "--sample-every-us", "0.001"
        ]
        assert main(args) == 2
        assert "finer than one window bucket" in capsys.readouterr().err

    def test_non_finite_tracer_window_exits_2(self, capsys, tmp_path):
        args = TestServeSimCli.ARGS + [
            "--trace-queries",
            str(tmp_path / "t.jsonl"),
            "--window-us",
            "nan",
        ]
        assert main(args) == 2
        assert "finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    def test_monitored_jsonl_passes_profile_check(self, capsys, tmp_path):
        jsonl = tmp_path / "mon.jsonl"
        assert main(self.HOT + ["--jsonl", str(jsonl)]) == 0
        assert main(["profile-check", str(jsonl)]) == 0
        assert ": ok" in capsys.readouterr().out
        text = jsonl.read_text()
        assert '"record": "metric"' in text
        assert '"record": "alert"' in text
        assert '"record": "flightrec"' in text

    def test_same_seed_byte_identical_monitor_artifacts(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            jsonl = tmp_path / f"{tag}.jsonl"
            dash = tmp_path / f"{tag}.html"
            chrome = tmp_path / f"{tag}.json"
            assert (
                main(
                    self.HOT
                    + [
                        "--jsonl",
                        str(jsonl),
                        "--html-dash",
                        str(dash),
                        "--monitor-chrome",
                        str(chrome),
                    ]
                )
                == 0
            )
            outs.append(
                (jsonl.read_bytes(), dash.read_bytes(), chrome.read_bytes())
            )
        assert outs[0] == outs[1]

    def test_dashboard_is_selfcontained_html(self, tmp_path):
        dash = tmp_path / "dash.html"
        assert main(self.HOT + ["--html-dash", str(dash)]) == 0
        text = dash.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text
        assert "http://" not in text.replace(
            "http://www.w3.org/2000/svg", ""
        )

    def test_chrome_counters_artifact_validates(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        chrome = tmp_path / "counters.json"
        assert main(self.HOT + ["--monitor-chrome", str(chrome)]) == 0
        trace = json.loads(chrome.read_text())
        assert validate_chrome_trace(trace) == []

    def test_monitor_flag_alone_attaches(self, capsys):
        assert main(TestServeSimCli.ARGS + ["--monitor"]) == 0
        out = capsys.readouterr().out
        assert "monitor:" in out
        assert "0 alert(s)" in out


class TestDiffCli:
    def test_diff_prints_ranked_report(self, capsys):
        assert main(["diff", "INT", "csr-scalar", "acsr", "GTXTitan"]) == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "csr-scalar@GTXTitan" in out and "acsr@GTXTitan" in out
        assert "tail_warp" in out

    def test_diff_exports_and_gantt(self, capsys, tmp_path):
        import json

        jsonl = tmp_path / "d.jsonl"
        html = tmp_path / "d.html"
        assert (
            main(
                [
                    "diff",
                    "INT",
                    "csr-scalar",
                    "acsr",
                    "GTXTitan",
                    "--jsonl",
                    str(jsonl),
                    "--html",
                    str(html),
                    "--gantt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # --gantt prints both sides' timelines under the report.
        assert out.count("timeline:") >= 2
        assert html.read_text().startswith("<!DOCTYPE html>")
        kinds = [
            json.loads(x)["record"]
            for x in jsonl.read_text().splitlines()
            if x
        ]
        assert kinds[0] == "meta" and kinds[-1] == "delta"
        # The exported JSONL passes profile-check.
        assert main(["profile-check", str(jsonl)]) == 0

    def test_diff_cross_device_and_batch_flags(self, capsys):
        assert (
            main(
                [
                    "diff",
                    "INT",
                    "csr",
                    "csr",
                    "GTX580",
                    "--device-b",
                    "GTXTitan",
                    "--k-b",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "csr@GTX580" in out and "csr@GTXTitan" in out

    def test_failed_winner_assertion_exits_3(self, capsys):
        assert (
            main(
                [
                    "diff",
                    "INT",
                    "csr-scalar",
                    "acsr",
                    "GTXTitan",
                    "--assert-winner",
                    "a",
                ]
            )
            == 3
        )
        assert "ASSERTION FAILED" in capsys.readouterr().err

    def test_failed_top_term_assertion_exits_3(self, capsys):
        assert (
            main(
                [
                    "diff",
                    "INT",
                    "csr-scalar",
                    "acsr",
                    "GTXTitan",
                    "--assert-top",
                    "pcie",
                ]
            )
            == 3
        )
        assert "ASSERTION FAILED" in capsys.readouterr().err

    def test_passing_assertions_exit_0(self):
        assert (
            main(
                [
                    "diff",
                    "INT",
                    "csr-scalar",
                    "acsr",
                    "GTXTitan",
                    "--assert-winner",
                    "b",
                ]
            )
            == 0
        )

    def test_unknown_matrix_exits_2(self, capsys):
        assert main(["diff", "NOPE", "csr", "acsr", "GTXTitan"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_unknown_device_exits_2(self, capsys):
        assert main(["diff", "INT", "csr", "acsr", "Voodoo2"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()


class TestTraceQueriesCli:
    """``serve-sim --trace-queries`` + the ``repro trace`` reader."""

    HOT = [
        "serve-sim",
        "WIK",
        "GTXTitan",
        "--scale",
        "0.002",
        "--requests",
        "32",
        "--format",
        "csr",
        "--seed",
        "3",
        "--rate",
        "120",
        "--burst",
        "6",
        "--monitor",
        "--slo",
        "p99<=350us@5ms",
    ]

    def run_traced(self, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        assert main(self.HOT + ["--trace-queries", str(jsonl)]) == 0
        return jsonl

    def test_trace_artifact_passes_profile_check(self, capsys, tmp_path):
        jsonl = self.run_traced(tmp_path)
        assert main(["profile-check", str(jsonl)]) == 0
        assert ": ok" in capsys.readouterr().out

    def test_same_seed_byte_identical_spans(self, tmp_path):
        a = self.run_traced(tmp_path)
        b = tmp_path / "b.jsonl"
        assert main(self.HOT + ["--trace-queries", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_serve_jsonl_identical_with_tracing_on_or_off(self, tmp_path):
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        spans = tmp_path / "spans.jsonl"
        assert main(self.HOT + ["--jsonl", str(off)]) == 0
        assert (
            main(
                self.HOT
                + ["--jsonl", str(on), "--trace-queries", str(spans)]
            )
            == 0
        )
        assert on.read_bytes() == off.read_bytes()

    def test_slowest_table_prints(self, capsys, tmp_path):
        jsonl = self.run_traced(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(jsonl), "--slowest", "5"]) == 0
        out = capsys.readouterr().out
        assert "trace_id" in out
        assert "latency_us" in out

    def test_explain_worst_prints_waterfall_and_exact_table(
        self, capsys, tmp_path
    ):
        jsonl = self.run_traced(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(jsonl), "--explain", "worst"]) == 0
        out = capsys.readouterr().out
        assert "queue_wait" in out
        assert "timeline:" in out
        assert "exact: terms sum to latency bit-for-bit" in out
        assert "drill-down" in out

    def test_explain_by_unique_prefix(self, capsys, tmp_path):
        jsonl = self.run_traced(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(jsonl), "--slowest", "1"]) == 0
        out = capsys.readouterr().out
        trace_id = out.splitlines()[2].split()[0]
        assert main(["trace", str(jsonl), "--explain", trace_id[:12]]) == 0

    def test_unknown_explain_id_exits_2(self, capsys, tmp_path):
        jsonl = self.run_traced(tmp_path)
        assert main(["trace", str(jsonl), "--explain", "zzzz"]) == 2
        assert "no request trace" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_jsonl_without_spans_exits_2(self, capsys, tmp_path):
        serve = tmp_path / "serve.jsonl"
        assert main(self.HOT + ["--jsonl", str(serve)]) == 0
        assert main(["trace", str(serve)]) == 2
        assert "no trace spans" in capsys.readouterr().err

    def test_bad_head_rate_exits_2(self, capsys, tmp_path):
        assert (
            main(
                self.HOT
                + [
                    "--trace-queries",
                    str(tmp_path / "s.jsonl"),
                    "--trace-head-rate",
                    "1.5",
                ]
            )
            == 2
        )
        assert "head_rate" in capsys.readouterr().err

    def test_html_dash_gains_trace_section(self, tmp_path):
        dash = tmp_path / "dash.html"
        spans = tmp_path / "spans.jsonl"
        assert (
            main(
                self.HOT
                + [
                    "--html-dash",
                    str(dash),
                    "--trace-queries",
                    str(spans),
                ]
            )
            == 0
        )
        assert "Slow queries (traced)" in dash.read_text()


class TestServeMetaEcho:
    """The serve JSONL meta line echoes every resolved knob (and the
    run is reconstructible from the meta line alone)."""

    ARGS = [
        "serve-sim",
        "WIK",
        "GTXTitan",
        "--scale",
        "0.002",
        "--requests",
        "24",
        "--format",
        "csr",
        "--seed",
        "7",
        "--rate",
        "150",
        "--burst",
        "3.5",
        "--monitor",
        "--slo",
        "p99<=350us@5ms",
    ]

    KNOBS = (
        "matrices",
        "device",
        "precision",
        "seed",
        "scale",
        "format",
        "gpus",
        "max_batch",
        "max_wait_s",
        "requests",
        "tenants",
        "mean_interarrival_s",
        "epsilon",
        "restart",
        "burst",
        "zipf_graph",
        "zipf_node",
        "queue_limit",
        "tenant_limit",
        "max_iterations",
        "rate_us",
        "window_us",
        "monitored",
        "slos",
    )

    def meta(self, tmp_path, name="m.jsonl"):
        import json

        jsonl = tmp_path / name
        assert main(self.ARGS + ["--jsonl", str(jsonl)]) == 0
        return json.loads(jsonl.read_text().splitlines()[0]), jsonl

    def test_meta_echoes_every_resolved_knob(self, tmp_path):
        meta, _ = self.meta(tmp_path)
        assert meta["record"] == "meta"
        for knob in self.KNOBS:
            assert knob in meta, f"meta missing {knob!r}"
        assert meta["burst"] == 3.5
        assert meta["rate_us"] == 150.0
        assert meta["monitored"] is True
        assert meta["slos"] == ["p99<=350us@5ms"]

    def test_run_reconstructs_from_meta_alone(self, tmp_path):
        meta, original = self.meta(tmp_path)
        args = [
            "serve-sim",
            ",".join(meta["matrices"]),
            meta["device"],
            "--scale",
            str(meta["scale"]),
            "--requests",
            str(meta["requests"]),
            "--tenants",
            str(meta["tenants"]),
            "--seed",
            str(meta["seed"]),
            "--max-batch",
            str(meta["max_batch"]),
            "--max-wait-us",
            str(meta["max_wait_s"] * 1e6),
            "--queue-limit",
            str(meta["queue_limit"]),
            "--tenant-limit",
            str(meta["tenant_limit"]),
            "--gpus",
            str(meta["gpus"]),
            "--rate",
            str(meta["rate_us"]),
            "--burst",
            str(meta["burst"]),
            "--zipf-graph",
            str(meta["zipf_graph"]),
            "--zipf-node",
            str(meta["zipf_node"]),
            "--format",
            meta["format"],
            "--epsilon",
            str(meta["epsilon"]),
            "--restart",
            str(meta["restart"]),
            "--precision",
            meta["precision"],
            "--window-us",
            str(meta["window_us"]),
        ]
        if meta["monitored"]:
            args.append("--monitor")
        for spec in meta["slos"]:
            args += ["--slo", spec]
        rebuilt = tmp_path / "rebuilt.jsonl"
        assert main(args + ["--jsonl", str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == original.read_bytes()
