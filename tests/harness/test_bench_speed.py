"""The cost-model speed benchmark engine (``python -m repro bench``)."""

import json
from pathlib import Path

from repro.__main__ import main
from repro.gpu.device import GTX_TITAN
from repro.harness.bench_speed import (
    EFFICIENCY_COLUMNS,
    SERVE_CASES,
    SERVE_GATED_COLUMNS,
    bench_cases,
    check_regressions,
    gated_columns,
    run_bench,
    run_case,
    run_serve_case,
)

BASELINE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_baseline.json"
)


def spmv_cell(**columns):
    """An SpMV cell carrying every column ``check_regressions`` gates."""
    cell = {
        "name": "INT",
        "scale": 0.5,
        "k": 1,
        "wall_s": 1.0,
        "peak_entries": 1,
        "model_time_s": 1e-3,
        "achieved_occupancy": 0.8,
        "warp_execution_efficiency": 0.9,
        "gld_coalescing_ratio": 0.7,
        "dram_bytes": 1e6,
        "dp_overflow": 0,
    }
    cell.update(columns)
    return cell


def serve_cell(**columns):
    """A serving cell carrying every column ``check_regressions`` gates."""
    cell = {
        "name": "WIK-serve",
        "scale": 0.002,
        "k": 1,
        "wall_s": 1.0,
        "serve_qps": 100.0,
        "serve_p99_s": 1e-3,
        "serve_windowed_p99_s": 1e-3,
        "serve_p99_drift": 0.0,
        "serve_alert_count": 2,
        "serve_trace_overhead": 1.0,
        "serve_trace_identical": True,
    }
    cell.update(columns)
    return cell


def payload(*cells):
    return {"cases": list(cells)}


class TestRunCase:
    def test_record_schema(self):
        r = run_case("INT", 0.5, GTX_TITAN, repeats=1)
        assert set(r) >= {"name", "scale", "wall_s", "peak_entries"}
        assert r["name"] == "INT"
        assert r["scale"] == 0.5
        assert r["wall_s"] > 0
        assert 1 <= r["peak_entries"] <= r["total_entries"]
        assert r["total_entries"] <= r["total_warps"]

    def test_run_bench_payload(self):
        payload = run_bench(
            [("INT", 0.5, 1)], GTX_TITAN, repeats=1, serve_cases=()
        )
        assert payload["device"] == GTX_TITAN.name
        assert len(payload["cases"]) == 1
        json.dumps(payload)  # JSON-serialisable end to end

    def test_run_bench_appends_serve_cells(self):
        payload = run_bench(
            [],
            GTX_TITAN,
            repeats=1,
            serve_cases=(("WIK", 0.002, 1),),
        )
        (record,) = payload["cases"]
        assert record["name"] == "WIK-serve"
        json.dumps(payload)


class TestServeCase:
    def test_record_schema_and_determinism(self):
        a = run_serve_case(
            "WIK", 0.002, GTX_TITAN, gpus=1, repeats=1, requests=12
        )
        assert a["name"] == "WIK-serve"
        assert a["k"] == 1 and a["gpus"] == 1
        assert a["wall_s"] > 0
        assert a["serve_qps"] > 0
        assert a["serve_p99_s"] > 0
        assert a["admitted"] + a["shed"] == 12
        # The SLO columns are virtual-clock outputs: bit-identical on
        # a re-run, unlike the wall-clock.
        b = run_serve_case(
            "WIK", 0.002, GTX_TITAN, gpus=1, repeats=1, requests=12
        )
        assert a["serve_qps"] == b["serve_qps"]
        assert a["serve_p99_s"] == b["serve_p99_s"]

    def test_monitor_columns_present_and_deterministic(self):
        a = run_serve_case(
            "WIK", 0.002, GTX_TITAN, gpus=1, repeats=1, requests=12
        )
        # The monitor window is wider than the makespan, so the
        # end-of-run windowed p99 merges every sample: zero drift.
        assert a["serve_windowed_p99_s"] == a["serve_p99_s"]
        assert a["serve_p99_drift"] == 0.0
        assert isinstance(a["serve_alert_count"], int)
        b = run_serve_case(
            "WIK", 0.002, GTX_TITAN, gpus=1, repeats=1, requests=12
        )
        assert a["serve_alert_count"] == b["serve_alert_count"]
        assert a["serve_windowed_p99_s"] == b["serve_windowed_p99_s"]

    def test_multi_gpu_cell_is_named_and_faster(self):
        solo = run_serve_case(
            "WIK", 0.002, GTX_TITAN, gpus=1, repeats=1, requests=24
        )
        duo = run_serve_case(
            "WIK", 0.002, GTX_TITAN, gpus=2, repeats=1, requests=24
        )
        assert duo["name"] == "WIK-serve-g2"
        assert duo["serve_qps"] > solo["serve_qps"]


class TestServeGates:
    def _payload(self, qps, p99):
        return self._monitored(qps=qps, p99=p99)

    def test_identical_slo_passes(self):
        cur = self._payload(100.0, 1e-3)
        assert check_regressions(cur, self._payload(100.0, 1e-3)) == []

    def test_qps_drop_fails(self):
        failures = check_regressions(
            self._payload(70.0, 1e-3), self._payload(100.0, 1e-3)
        )
        assert any("serve_qps" in f for f in failures)

    def test_p99_growth_fails(self):
        failures = check_regressions(
            self._payload(100.0, 2e-3), self._payload(100.0, 1e-3)
        )
        assert any("serve_p99_s" in f for f in failures)

    def _monitored(self, drift=0.0, alerts=2, qps=100.0, p99=1e-3):
        return payload(
            serve_cell(
                serve_qps=qps,
                serve_p99_s=p99,
                serve_windowed_p99_s=p99 * (1.0 + drift),
                serve_p99_drift=drift,
                serve_alert_count=alerts,
            )
        )

    def test_drift_within_limit_passes(self):
        cur = self._monitored(drift=0.05)
        assert check_regressions(cur, self._monitored(drift=0.0)) == []

    def test_excessive_drift_fails(self):
        failures = check_regressions(
            self._monitored(drift=0.2), self._monitored(drift=0.0)
        )
        assert any("serve_p99_drift" in f for f in failures)

    def test_alert_count_change_fails(self):
        failures = check_regressions(
            self._monitored(alerts=5), self._monitored(alerts=2)
        )
        assert any("serve_alert_count" in f for f in failures)

    def test_wall_s_is_median_of_repeats(self, monkeypatch):
        """wall_s = median of the per-repeat timings; wall_s_min = best."""
        import itertools
        from types import SimpleNamespace

        durations = itertools.chain([5.0, 1.0, 3.0], itertools.repeat(0.0))
        clock = {"t": 0.0, "calls": 0}

        def fake_perf():
            # run_case reads the clock twice per repeat (start, end);
            # advance it by one scripted duration on every second read.
            if clock["calls"] % 2 == 1:
                clock["t"] += next(durations)
            clock["calls"] += 1
            return clock["t"]

        # Patch only bench_speed's view of the time module, so nothing
        # else in the process sees the scripted clock.
        monkeypatch.setattr(
            "repro.harness.bench_speed.time",
            SimpleNamespace(perf_counter=fake_perf),
        )
        r = run_case("INT", 0.5, GTX_TITAN, repeats=3)
        assert r["wall_s"] == 3.0  # median of 5, 1, 3
        assert r["wall_s_min"] == 1.0

    def test_min_never_exceeds_median(self):
        r = run_case("INT", 0.5, GTX_TITAN, repeats=3)
        assert 0 < r["wall_s_min"] <= r["wall_s"]

    def test_record_carries_imbalance_columns(self):
        r = run_case("INT", 0.5, GTX_TITAN, repeats=1)
        assert 0.0 <= r["tail_warp_share"] <= 1.0
        assert 0.0 <= r["warp_work_gini"] <= 1.0
        json.dumps(r)

    def test_batched_case(self):
        r = run_case("INT", 0.5, GTX_TITAN, repeats=1, k=8)
        assert r["k"] == 8
        single = run_case("INT", 0.5, GTX_TITAN, repeats=1)
        assert single["k"] == 1
        # One 8-wide SpMM models faster than 8 sequential SpMVs.
        assert single["model_time_s"] < r["model_time_s"]
        assert r["model_time_s"] < 8 * single["model_time_s"]


class TestCases:
    def test_quick_is_a_prefix_of_full(self):
        quick, full = bench_cases(True), bench_cases(False)
        assert len(quick) >= 6
        assert full[: len(quick)] == quick
        assert any(scale == 1.0 for _, scale, _k in full)
        assert all(scale < 1.0 for _, scale, _k in quick)
        assert any(k > 1 for _, _scale, k in quick)  # the batched case


class TestCheck:
    def _payload(self, wall):
        return payload(spmv_cell(wall_s=wall))

    def test_within_budget_passes(self):
        assert check_regressions(self._payload(1.9), self._payload(1.0)) == []

    def test_regression_fails(self):
        failures = check_regressions(self._payload(2.1), self._payload(1.0))
        assert len(failures) == 1
        assert "INT" in failures[0]

    def test_new_case_ignored(self):
        assert check_regressions(self._payload(9.9), {"cases": []}) == []


class TestSpeedTarget:
    """The bounds against the pre-batch-engine snapshot: ``model_time_s``
    byte-identity in every SpMV cell, and a >=5x speed-up on the
    scale>=0.5 cells, whose baseline rows hold the snapshot wall-clock
    / 10 under the 2x wall gate."""

    #: WIK@1.0 median wall-clock of the pre-batch-engine snapshot.
    SNAPSHOT_WALL_S = 0.5734770879998905

    def _big_cell(self):
        (row,) = [
            c
            for c in json.loads(BASELINE.read_text())["cases"]
            if (c["name"], c["scale"], c["k"]) == ("WIK", 1.0, 1)
        ]
        assert row["wall_s"] == self.SNAPSHOT_WALL_S / 10.0
        return row

    def _speedup(self, factor):
        row = self._big_cell()
        current = dict(row, wall_s=self.SNAPSHOT_WALL_S / factor)
        return check_regressions(payload(current), payload(row))

    def test_fast_enough_and_identical_passes(self):
        assert self._speedup(5.0) == []

    def test_too_slow_fails(self):
        failures = self._speedup(4.9)
        assert len(failures) == 1
        assert "WIK@1" in failures[0] and "2x baseline" in failures[0]

    def test_model_drift_fails_at_any_scale(self):
        """One ulp of model_time_s drift fails, on small and big cells."""
        for scale in (0.05, 1.0):
            current = spmv_cell(
                scale=scale, wall_s=0.01, model_time_s=1e-3 * (1 + 2e-16)
            )
            failures = check_regressions(
                payload(current), payload(spmv_cell(scale=scale))
            )
            assert len(failures) == 1, scale
            assert "byte-identical" in failures[0]


class TestGatedColumns:
    def test_baseline_without_dram_bytes_fails(self):
        ref = spmv_cell()
        del ref["dram_bytes"]
        failures = check_regressions(payload(spmv_cell()), payload(ref))
        assert len(failures) == 1
        assert "INT@0.5" in failures[0] and "dram_bytes" in failures[0]

    def test_baseline_without_alert_count_fails(self):
        ref = serve_cell()
        del ref["serve_alert_count"]
        failures = check_regressions(payload(serve_cell()), payload(ref))
        assert len(failures) == 1
        assert "WIK-serve" in failures[0]
        assert "serve_alert_count" in failures[0]

    def test_serve_cell_not_asked_for_efficiency_columns(self):
        assert not set(EFFICIENCY_COLUMNS) & set(SERVE_GATED_COLUMNS)
        assert check_regressions(
            payload(serve_cell()), payload(serve_cell())
        ) == []


class TestCommittedBaseline:
    def _cells(self):
        return json.loads(BASELINE.read_text())["cases"]

    def test_holds_every_bench_cell(self):
        expected = set(bench_cases(quick=False)) | {
            (f"{m}-serve" + (f"-g{g}" if g > 1 else ""), scale, 1)
            for m, scale, g in SERVE_CASES
        }
        held = {(c["name"], c["scale"], c["k"]) for c in self._cells()}
        assert expected <= held, expected - held

    def test_carries_every_gated_column(self):
        for cell in self._cells():
            missing = [c for c in gated_columns(cell) if c not in cell]
            assert not missing, (cell["name"], cell["scale"], missing)


class TestCli:
    def test_writes_output_and_checks(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "BENCH_speed.json"
        base = tmp_path / "base.json"
        monkeypatch.setattr(
            "repro.harness.bench_speed.QUICK_CASES", (("INT", 0.5, 1),)
        )
        monkeypatch.setattr(
            "repro.harness.bench_speed.SERVE_CASES", ()
        )
        # Median of 5 repeats: the cell evaluates in single-digit
        # milliseconds, so a 1-repeat wall is too noisy to self-check
        # against the 2x gate under a loaded test runner.
        assert (
            main(["bench", "--quick", "--repeats", "5", "--out", str(out)])
            == 0
        )
        base.write_text(out.read_text())
        assert (
            main(
                [
                    "bench",
                    "--quick",
                    "--repeats",
                    "5",
                    "--out",
                    str(out),
                    "--check",
                    str(base),
                ]
            )
            == 0
        )
        assert "no regressions" in capsys.readouterr().out


class TestCounterColumns:
    def test_record_carries_efficiency_counters(self):
        r = run_case("INT", 0.5, GTX_TITAN, repeats=1)
        for column in EFFICIENCY_COLUMNS:
            assert 0.0 <= r[column] <= 1.0
        assert r["dram_bytes"] > 0
        assert 0.0 <= r["dram_bw_fraction"] <= 1.0
        assert r["dp_children"] >= 0
        assert r["dp_overflow"] >= 0
        assert r["bound"] in ("compute", "memory", "latency", "launch")
        json.dumps(r)

    def test_counters_are_deterministic(self):
        a = run_case("INT", 0.5, GTX_TITAN, repeats=1)
        b = run_case("INT", 0.5, GTX_TITAN, repeats=1)
        for col in ("dram_bytes", "achieved_occupancy", "bound"):
            assert a[col] == b[col]


class TestEfficiencyGate:
    def _case(self, **extra):
        return payload(spmv_cell(**extra))

    def test_identical_counters_pass(self):
        assert check_regressions(self._case(), self._case()) == []

    def test_occupancy_drop_fails(self):
        failures = check_regressions(
            self._case(achieved_occupancy=0.7), self._case()
        )
        assert any("achieved_occupancy" in f for f in failures)

    def test_drop_within_tolerance_passes(self):
        assert (
            check_regressions(
                self._case(achieved_occupancy=0.79), self._case()
            )
            == []
        )

    def test_dram_growth_fails(self):
        failures = check_regressions(
            self._case(dram_bytes=1.1e6), self._case()
        )
        assert any("dram_bytes" in f for f in failures)

    def test_dp_overflow_increase_fails(self):
        failures = check_regressions(
            self._case(dp_overflow=2), self._case()
        )
        assert any("dp_overflow" in f for f in failures)


class TestTraceOverheadColumns:
    def test_record_carries_trace_columns(self):
        a = run_serve_case(
            "WIK", 0.002, GTX_TITAN, gpus=1, repeats=1, requests=12
        )
        assert a["serve_trace_overhead"] > 0
        assert a["serve_trace_identical"] is True
        assert a["serve_trace_spans"] > 0
        # Span count is a deterministic virtual-clock output.
        b = run_serve_case(
            "WIK", 0.002, GTX_TITAN, gpus=1, repeats=1, requests=12
        )
        assert a["serve_trace_spans"] == b["serve_trace_spans"]


class TestTraceOverheadGate:
    def _payload(self, overhead=1.0, identical=True, with_trace=True):
        case = serve_cell(
            serve_trace_overhead=overhead, serve_trace_identical=identical
        )
        if not with_trace:
            del case["serve_trace_overhead"], case["serve_trace_identical"]
        return payload(case)

    def test_cheap_tracing_passes(self):
        assert (
            check_regressions(self._payload(1.02), self._payload(1.0))
            == []
        )

    def test_overhead_beyond_limit_fails(self):
        failures = check_regressions(
            self._payload(1.5), self._payload(1.0)
        )
        assert any("serve_trace_overhead" in f for f in failures)

    def test_limit_itself_passes(self):
        from repro.harness.bench_speed import SERVE_TRACE_OVERHEAD_LIMIT

        assert (
            check_regressions(
                self._payload(SERVE_TRACE_OVERHEAD_LIMIT),
                self._payload(1.0),
            )
            == []
        )

    def test_broken_identity_fails_even_without_baseline_column(self):
        failures = check_regressions(
            self._payload(1.0, identical=False),
            self._payload(with_trace=False),
        )
        assert any("byte-identical" in f for f in failures)
