"""Serve reports: byte-identical JSONL, schema validity, exact SLOs."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.gpu.device import GTX_TITAN
from repro.obs import exact_quantile, validate_profile_jsonl
from repro.serve import (
    ServeConfig,
    ServeEngine,
    TraceConfig,
    auto_interarrival_s,
    generate_trace,
    serve_report_lines,
    slo_summary,
    write_serve_jsonl,
)

MATRIX = "WIK"
SCALE = 0.002
DEV = GTX_TITAN


def engine_and_trace(seed=4, n=32, **cfg):
    engine = ServeEngine(DEV, ServeConfig(**cfg))
    plan = engine.register(MATRIX, scale=SCALE, format_name="csr")
    mean = auto_interarrival_s(
        [plan], engine.config.gpus, engine.config.epsilon,
        engine.config.restart,
    )
    trace = generate_trace(
        TraceConfig(n_requests=n, seed=seed),
        engine.registered_graphs(),
        mean,
    )
    return engine, trace


def run_once(seed=4, n=32, **cfg):
    engine, trace = engine_and_trace(seed, n, **cfg)
    return engine.run_trace(trace)


class TestSloSummary:
    def test_exact_percentiles_and_counts(self):
        result = run_once()
        slo = slo_summary(result)
        lat = result.latencies_s
        assert slo["p50_s"] == exact_quantile(lat, 0.50)
        assert slo["p95_s"] == exact_quantile(lat, 0.95)
        assert slo["p99_s"] == exact_quantile(lat, 0.99)
        assert slo["admitted"] == len(result.admitted)
        assert slo["shed"] == len(result.shed)
        assert slo["batches"] == len(result.batches)
        assert slo["queries_per_s"] == result.queries_per_s

    def test_empty_run_has_null_percentiles(self):
        engine = ServeEngine(DEV)
        engine.register(MATRIX, scale=SCALE, format_name="csr")
        slo = slo_summary(engine.run_trace([]))
        assert slo["p50_s"] is None and slo["p99_s"] is None
        assert slo["mean_batch_width"] is None
        assert slo["queries_per_s"] == 0.0


class TestJsonl:
    def test_same_seed_byte_identical_lines(self):
        lines_a = serve_report_lines(run_once(seed=11), seed=11)
        lines_b = serve_report_lines(run_once(seed=11), seed=11)
        assert lines_a == lines_b

    def test_different_seed_differs(self):
        assert serve_report_lines(run_once(seed=11)) != serve_report_lines(
            run_once(seed=12)
        )

    def test_report_passes_the_profile_validator(self, tmp_path):
        path = write_serve_jsonl(
            run_once(), tmp_path / "serve.jsonl", matrices=MATRIX
        )
        assert validate_profile_jsonl(path) == []

    def test_record_layout(self):
        result = run_once(n=16)
        records = [json.loads(x) for x in serve_report_lines(result)]
        kinds = [r["record"] for r in records]
        assert kinds[0] == "meta"
        assert kinds[-2:] == ["slo", "metrics"]
        assert kinds.count("request") == 16
        assert kinds.count("span") == len(result.batches)

    def test_latency_rederivable_from_the_record_alone(self):
        records = [
            json.loads(x) for x in serve_report_lines(run_once(n=24))
        ]
        oks = [
            r
            for r in records
            if r["record"] == "request" and r["status"] == "ok"
        ]
        assert oks
        for r in oks:
            # JSON round-trips floats exactly, so the decomposition's
            # plain sum reproduces the reported latency bit for bit.
            assert r["latency_s"] == (
                r["queue_wait_s"] + r["formation_s"] + r["compute_s"]
            )
            assert r["completion_s"] == r["arrival_s"] + r["latency_s"]

    def test_shed_requests_carry_retry_hint(self):
        result = run_once(n=48, queue_limit=2, tenant_limit=2, seed=6)
        assert result.shed  # the tight limits must actually shed
        records = [json.loads(x) for x in serve_report_lines(result)]
        sheds = [
            r
            for r in records
            if r["record"] == "request" and r["status"] == "shed"
        ]
        assert len(sheds) == len(result.shed)
        for r in sheds:
            assert r["reason"] in ("queue-full", "tenant-limit")
            assert r["retry_after_s"] >= 0.0

    def test_meta_kwargs_land_in_line_one(self):
        lines = serve_report_lines(run_once(), device="GTXTitan", seed=4)
        meta = json.loads(lines[0])
        assert meta == {
            "record": "meta",
            "kind": "serve",
            "device": "GTXTitan",
            "seed": 4,
        }


class TestMetricsRecord:
    def test_reused_engine_reports_each_run_alone(self):
        engine, trace = engine_and_trace(n=48, queue_limit=2, seed=6)
        first = engine.run_trace(trace)
        first_lines = serve_report_lines(first)
        second = engine.run_trace(trace)
        assert serve_report_lines(second) == first_lines
        # Writing the second run leaves the first one's report alone.
        assert serve_report_lines(first) == first_lines

    def test_recounted_from_request_and_span_lines(self):
        result = run_once(n=48, queue_limit=2, tenant_limit=2, seed=6)
        assert result.shed
        records = [json.loads(x) for x in serve_report_lines(result)]
        metrics = records[-1]["metrics"]
        requests = [r for r in records if r["record"] == "request"]
        latencies = [r["latency_s"] for r in requests if r["status"] == "ok"]
        widths = [r["attrs"]["k"] for r in records if r["record"] == "span"]

        def counter(key):
            return metrics[key]["value"]

        assert counter("serve_batches_total") == len(widths)
        assert counter("serve_requests_total{status=ok}") == len(latencies)
        assert counter("serve_requests_total{status=shed}") == sum(
            r["status"] == "shed" for r in requests
        )
        for key, values, bounds in (
            ("serve_batch_width", widths, (1, 2, 4, 8, 16, 32)),
            ("serve_latency_s", latencies, (1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                            1e-1, 1.0)),
        ):
            hist = metrics[key]
            assert hist["bounds"] == list(bounds)
            assert hist["count"] == len(values)
            assert hist["min"] == min(values)
            assert hist["max"] == max(values)
            assert math.isclose(hist["sum"], math.fsum(values), rel_tol=1e-12)
            # A value lands in the first bucket whose bound it does not
            # exceed; past the last bound, in the overflow bucket.
            buckets = np.searchsorted(bounds, values, side="left")
            assert hist["counts"] == np.bincount(
                buckets, minlength=len(bounds) + 1
            ).tolist()
        assert metrics["serve_queries_per_s"]["value"] == (
            records[-2]["queries_per_s"]
        )


class TestShedAccounting:
    def _all_shed_result(self):
        from repro.serve import QueryRequest, ShedQuery
        from repro.serve.server import ServeResult

        sheds = tuple(
            ShedQuery(
                request=QueryRequest(
                    rid=i,
                    tenant=f"tenant-{i % 2}",
                    graph=MATRIX,
                    node=i,
                    arrival_s=1e-4 * i,
                ),
                reason="queue-full",
                retry_after_s=1e-4,
            )
            for i in range(4)
        )
        return ServeResult(
            requests=sheds,
            makespan_s=0.0,
            config=ServeConfig(),
        )

    def test_shed_by_tenant_counts(self):
        from repro.serve import shed_by_tenant

        result = run_once(n=48, queue_limit=2, tenant_limit=2, seed=6)
        assert result.shed
        counts = shed_by_tenant(result)
        assert sum(counts.values()) == len(result.shed)
        assert list(counts) == sorted(counts)
        assert all(v > 0 for v in counts.values())

    def test_shed_by_tenant_lands_in_slo_record(self):
        from repro.serve import shed_by_tenant

        result = run_once(n=48, queue_limit=2, tenant_limit=2, seed=6)
        slo = slo_summary(result)
        assert slo["shed_by_tenant"] == shed_by_tenant(result)
        assert slo["no_admitted_queries"] is False

    def test_all_shed_flagged_explicitly(self):
        slo = slo_summary(self._all_shed_result())
        assert slo["no_admitted_queries"] is True
        assert slo["admitted"] == 0
        assert slo["shed_by_tenant"] == {"tenant-0": 2, "tenant-1": 2}

    def test_empty_run_not_flagged(self):
        engine = ServeEngine(DEV)
        engine.register(MATRIX, scale=SCALE, format_name="csr")
        slo = slo_summary(engine.run_trace([]))
        # No requests at all is not the same failure as all-shed.
        assert slo["no_admitted_queries"] is False
        assert slo["shed_by_tenant"] == {}
