"""End-to-end causal tracing: exactness, read-only proof, sampling.

The load-bearing claims of the tracing subsystem, swept over seeds and
devices with hypothesis:

* every kept request root span's duration equals the engine's billed
  ``latency_s`` bit-for-bit, its children float-sum exactly to it, and
  the explain table's terms float-sum exactly to it;
* attaching a tracer never perturbs the run — the serve report is
  byte-identical with tracing on or off;
* the span JSONL survives a JSON round-trip through the schema
  validator, which re-checks the exact-sum identities;
* head/tail sampling keeps what it promises (shed, rolling-p99 tails,
  alert-overlapping requests) and nothing else at ``head_rate=0``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10
from repro.obs import validate_chrome_trace, validate_profile_jsonl
from repro.obs.tracing import (
    EXPLAIN_ORDER,
    ExplainTable,
    QueryTracer,
    TracingConfig,
    spans_from_records,
    trace_report_lines,
    write_trace_jsonl,
)
from repro.serve import (
    MonitorConfig,
    ServeConfig,
    ServeEngine,
    ServeMonitor,
    TraceConfig,
    auto_interarrival_s,
    generate_trace,
    serve_dash_html,
    serve_report_lines,
)

MATRIX = "WIK"
SCALE = 0.002
DEVICES = (GTX_580, TESLA_K10, GTX_TITAN)

HOT_CONFIG = MonitorConfig(
    window_s=5e-3,
    slos=("p99<=0.00035@5ms",),
    p99_min_samples=8,
)


def run_traced(
    seed=3,
    n=32,
    device=GTX_TITAN,
    monitor=None,
    tracer_config=None,
    rate_s=None,
    burst=None,
    serve_config=None,
):
    engine = ServeEngine(device, serve_config or ServeConfig())
    plan = engine.register(MATRIX, scale=SCALE, format_name="csr")
    mean = rate_s or auto_interarrival_s(
        [plan], engine.config.gpus, engine.config.epsilon,
        engine.config.restart,
    )
    trace_config = (
        TraceConfig(n_requests=n, seed=seed)
        if burst is None
        else TraceConfig(n_requests=n, seed=seed, burst_factor=burst)
    )
    trace = generate_trace(trace_config, engine.registered_graphs(), mean)
    tracer = QueryTracer(
        tracer_config or TracingConfig(seed=seed), monitor=monitor
    )
    result = engine.run_trace(trace, monitor=monitor, tracer=tracer)
    return result, tracer


@pytest.fixture(scope="module")
def hot_traced():
    """One monitored + traced burst overload (alerts and tails exist)."""
    monitor = ServeMonitor(HOT_CONFIG)
    result, tracer = run_traced(
        seed=3, n=96, monitor=monitor, rate_s=120e-6, burst=6.0
    )
    assert monitor.alert_count > 0
    return result, monitor, tracer


class TestExactness:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        device=st.sampled_from(DEVICES),
    )
    @settings(max_examples=8, deadline=None)
    def test_root_children_and_explain_sum_exactly(self, seed, device):
        result, tracer = run_traced(seed=seed, n=24, device=device)
        latencies = {
            o.request.rid: o.latency_s for o in result.admitted
        }
        roots = tracer.request_roots
        assert roots  # head_rate=1 keeps everything
        for root in roots:
            if root.status != "ok":
                continue
            rid = root.attrs["rid"]
            # Root duration IS the billed latency, bit-for-bit.
            assert root.duration_s == latencies[rid]
            children = [
                s
                for s in tracer.traces[root.trace_id]
                if s.parent_id == root.span_id
            ]
            s = 0.0
            for child in children:
                s += child.duration_s
            assert s == root.duration_s
            table = ExplainTable.from_root_span(root)
            assert table is not None
            assert table.check_exact()
            assert [k for k, _ in table.terms] == list(EXPLAIN_ORDER)

    def test_batch_compute_span_matches_timeline(self, hot_traced):
        _, _, tracer = hot_traced
        batch_spans = [
            s for s in tracer.spans if s.kind == "batch_compute"
        ]
        assert batch_spans
        for span in batch_spans:
            assert span.attrs["timeline_time_s"] == span.duration_s

    def test_member_compute_links_resolve(self, hot_traced):
        _, _, tracer = hot_traced
        ids = {s.span_id for s in tracer.spans}
        computes = [s for s in tracer.spans if s.kind == "compute"]
        assert computes
        for span in computes:
            assert span.links
            assert all(link in ids for link in span.links)


class TestReadOnly:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        device=st.sampled_from(DEVICES),
    )
    @settings(max_examples=8, deadline=None)
    def test_tracing_never_perturbs_the_run(self, seed, device):
        engine = ServeEngine(device, ServeConfig())
        plan = engine.register(MATRIX, scale=SCALE, format_name="csr")
        mean = auto_interarrival_s(
            [plan],
            engine.config.gpus,
            engine.config.epsilon,
            engine.config.restart,
        )
        trace = generate_trace(
            TraceConfig(n_requests=24, seed=seed),
            engine.registered_graphs(),
            mean,
        )
        plain = engine.run_trace(trace)
        traced = engine.run_trace(
            trace, tracer=QueryTracer(TracingConfig(seed=seed))
        )
        assert serve_report_lines(plain) == serve_report_lines(traced)

    def test_same_seed_same_trace_bytes(self):
        _, a = run_traced(seed=11, n=24)
        _, b = run_traced(seed=11, n=24)
        assert a.jsonl_lines() == b.jsonl_lines()
        assert trace_report_lines(a, seed=11) == trace_report_lines(
            b, seed=11
        )

    def test_tracer_is_one_run_per_instance(self):
        _, tracer = run_traced(seed=1, n=8)
        engine = ServeEngine(GTX_TITAN, ServeConfig())
        engine.register(MATRIX, scale=SCALE, format_name="csr")
        trace = generate_trace(
            TraceConfig(n_requests=4, seed=1),
            engine.registered_graphs(),
            1e-4,
        )
        with pytest.raises(RuntimeError):
            engine.run_trace(trace, tracer=tracer)


class TestMonitorHandOff:
    def _engine_and_trace(self):
        engine = ServeEngine(GTX_TITAN, ServeConfig())
        engine.register(MATRIX, scale=SCALE, format_name="csr")
        trace = generate_trace(
            TraceConfig(n_requests=8, seed=3),
            engine.registered_graphs(),
            120e-6,
        )
        return engine, trace

    @pytest.mark.parametrize("attached", [None, "other"])
    def test_unattached_tracer_monitor_rejected_before_serving(
        self, attached
    ):
        engine, trace = self._engine_and_trace()
        tracer = QueryTracer(
            TracingConfig(seed=3), monitor=ServeMonitor(HOT_CONFIG)
        )
        monitor = ServeMonitor(HOT_CONFIG) if attached else None
        with pytest.raises(ValueError, match="not attached"):
            engine.run_trace(trace, monitor=monitor, tracer=tracer)
        # Nothing was served: no numerics, observers unused.
        assert engine._graphs[MATRIX].query_cache == {}
        result = engine.run_trace(trace, monitor=tracer.monitor, tracer=tracer)
        assert tracer.summary["requests_seen"] == len(trace)
        # The metrics record counts this run's requests, no more.
        metrics = json.loads(serve_report_lines(result)[-1])["metrics"]
        outcomes = [
            entry["value"]
            for key, entry in metrics.items()
            if key.startswith("serve_requests_total")
        ]
        assert sum(outcomes) == len(trace)

    @staticmethod
    def _tail_captures_and_keeps(seed):
        # Matching window settings: both observers apply the one
        # p99-tail rule to the same completions.
        monitor = ServeMonitor(HOT_CONFIG)
        _, tracer = run_traced(
            seed=seed,
            n=96,
            monitor=monitor,
            tracer_config=TracingConfig(
                seed=seed,
                window_s=HOT_CONFIG.window_s,
                n_buckets=HOT_CONFIG.n_buckets,
                p99_min_samples=HOT_CONFIG.p99_min_samples,
            ),
            rate_s=120e-6,
            burst=6.0,
        )
        captures = {
            fr.rid
            for fr in monitor.flight_records
            if fr.trigger == "p99_tail"
        }
        keeps = {
            root.attrs["rid"]
            for root in tracer.request_roots
            if "p99_tail" in root.attrs["sampled_by"]
        }
        return captures, keeps

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=6, deadline=None)
    def test_monitor_tail_captures_are_tracer_tail_keeps(self, seed):
        captures, keeps = self._tail_captures_and_keeps(seed)
        assert captures <= keeps

    def test_tail_agreement_on_the_hot_run(self):
        captures, keeps = self._tail_captures_and_keeps(3)
        assert captures  # the overload produces p99_tail captures
        assert captures <= keeps


class TestRoundTrip:
    def test_jsonl_validates_and_rebuilds(self, tmp_path, hot_traced):
        _, _, tracer = hot_traced
        path = write_trace_jsonl(tracer, tmp_path / "t.jsonl", seed=3)
        assert validate_profile_jsonl(path) == []
        objs = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        spans = spans_from_records(objs)
        assert spans == tracer.spans

    def test_chrome_trace_validates(self, hot_traced):
        _, _, tracer = hot_traced
        payload = tracer.chrome_trace()
        assert validate_chrome_trace(payload) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"s", "f"} <= phases  # fan-in flow events present

    def test_dashboard_renders_with_tracer(self, hot_traced):
        result, monitor, tracer = hot_traced
        html = serve_dash_html(result, monitor, tracer=tracer)
        assert "Slow queries (traced)" in html
        assert "<svg" in html

    def test_dashboard_bytes_identical_per_seed(self):
        pages = []
        for _ in range(2):
            monitor = ServeMonitor(HOT_CONFIG)
            result, tracer = run_traced(
                seed=3, n=96, monitor=monitor, rate_s=120e-6, burst=6.0
            )
            pages.append(
                serve_dash_html(result, monitor, tracer=tracer)
            )
        assert pages[0] == pages[1]


class TestSampling:
    def test_head_rate_zero_keeps_only_tails(self, hot_traced):
        monitor = ServeMonitor(HOT_CONFIG)
        _, tracer = run_traced(
            seed=3,
            n=96,
            monitor=monitor,
            tracer_config=TracingConfig(seed=3, head_rate=0.0),
            rate_s=120e-6,
            burst=6.0,
        )
        roots = tracer.request_roots
        assert tracer.summary["head_kept"] == 0
        assert roots  # the overload produces tail keeps
        for root in roots:
            sampled_by = root.attrs["sampled_by"]
            assert sampled_by
            assert "head" not in sampled_by
            assert set(sampled_by) <= {"shed", "p99_tail", "alert"}

    def test_shed_requests_always_kept(self):
        monitor = ServeMonitor(HOT_CONFIG)
        result, tracer = run_traced(
            seed=5,
            n=96,
            monitor=monitor,
            tracer_config=TracingConfig(seed=5, head_rate=0.0),
            rate_s=40e-6,
            burst=8.0,
            serve_config=ServeConfig(queue_limit=4, tenant_limit=2),
        )
        shed_rids = {o.request.rid for o in result.shed}
        assert shed_rids  # the slam sheds something
        kept_shed = {
            r.attrs["rid"]
            for r in tracer.request_roots
            if r.status == "shed"
        }
        assert kept_shed == shed_rids

    def test_head_rate_half_drops_some(self):
        _, tracer = run_traced(
            seed=9,
            n=64,
            tracer_config=TracingConfig(seed=9, head_rate=0.5),
        )
        summary = tracer.summary
        assert 0 < summary["kept"] < summary["requests_seen"]

    def test_p99_exemplar_points_at_kept_trace(self, hot_traced):
        _, _, tracer = hot_traced
        exemplar = tracer.summary["p99_exemplar"]
        assert exemplar is not None
        assert exemplar in tracer.traces
