"""The live serving monitor: read-only proof, flight-recorder exactness.

The load-bearing claims: attaching a :class:`ServeMonitor` cannot
perturb a run (byte-identical reports with it on or off, swept over
seeds and devices), the same seed renders byte-identical telemetry, and
every captured flight record's timeline equals the billed compute
bit-for-bit.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10
from repro.obs import (
    exact_quantile,
    validate_chrome_trace,
    validate_profile_jsonl,
)
from repro.serve import (
    MonitorConfig,
    ServeConfig,
    ServeEngine,
    ServeMonitor,
    TraceConfig,
    auto_interarrival_s,
    batch_timeline,
    expand_series,
    generate_trace,
    serve_dash_html,
    serve_report_lines,
    write_serve_jsonl,
)

MATRIX = "WIK"
SCALE = 0.002
DEVICES = (GTX_580, TESLA_K10, GTX_TITAN)

#: Tight objective + fast-arming recorder: fires on the WIK analog.
HOT_CONFIG = MonitorConfig(
    window_s=5e-3,
    slos=("p99<=0.00035@5ms",),
    p99_min_samples=8,
)


def run_once(
    seed=3, n=32, device=GTX_TITAN, monitor=None, rate_s=None, burst=None
):
    engine = ServeEngine(device, ServeConfig())
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
    trace = generate_trace(
        trace_config, engine.registered_graphs(), mean
    )
    return engine.run_trace(trace, monitor=monitor)


@pytest.fixture(scope="module")
def hot_run():
    """One monitored burst-overload run: alerts and flight records exist."""
    monitor = ServeMonitor(HOT_CONFIG)
    result = run_once(
        seed=3, n=96, monitor=monitor, rate_s=120e-6, burst=6.0
    )
    assert monitor.alert_count > 0
    assert monitor.flight_records
    return result, monitor


class TestReadOnly:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        device=st.sampled_from(DEVICES),
    )
    @settings(max_examples=8, deadline=None)
    def test_monitor_never_perturbs_the_run(self, seed, device):
        plain = run_once(seed=seed, n=24, device=device)
        monitored = run_once(
            seed=seed,
            n=24,
            device=device,
            monitor=ServeMonitor(HOT_CONFIG),
        )
        # Byte-identical reports: same requests, batches, billing,
        # registry counters — the monitor observed without touching.
        assert serve_report_lines(monitored, seed=seed) == (
            serve_report_lines(plain, seed=seed)
        )

    def test_same_seed_byte_identical_telemetry(self):
        lines = []
        htmls = []
        for _ in range(2):
            monitor = ServeMonitor(HOT_CONFIG)
            result = run_once(seed=3, n=48, monitor=monitor)
            lines.append(monitor.jsonl_lines())
            htmls.append(serve_dash_html(result, monitor))
        assert lines[0] == lines[1]
        assert htmls[0] == htmls[1]

    def test_monitor_is_single_use(self):
        monitor = ServeMonitor()
        run_once(n=8, monitor=monitor)
        with pytest.raises(RuntimeError, match="exactly one run"):
            run_once(n=8, monitor=monitor)


class TestFlightRecorder:
    def test_timeline_equals_billed_compute_bitwise(self, hot_run):
        _, monitor = hot_run
        for fr in monitor.flight_records:
            assert fr.timeline.time_s == fr.batch.compute_s
            lane = fr.timeline.lanes[0]
            assert lane.events
            assert lane.events[-1].end_s == fr.batch.compute_s

    def test_attribution_forced_exact_to_the_same_total(self, hot_run):
        _, monitor = hot_run
        for fr in monitor.flight_records:
            assert fr.attribution.time_s == fr.batch.compute_s
            assert fr.attribution.check_exact()

    def test_triggers_and_context(self, hot_run):
        _, monitor = hot_run
        for fr in monitor.flight_records:
            assert fr.trigger in ("p99_tail", "alert")
            assert fr.rid in fr.rids
            assert len(fr.rids) == fr.batch.k
            assert len(fr.iterations) == fr.batch.k
            assert fr.queue_depth >= 0
            assert fr.coalescer_pending >= 0
        assert any(fr.trigger == "alert" for fr in monitor.flight_records)

    def test_capacity_bounds_the_ring(self):
        monitor = ServeMonitor(
            MonitorConfig(
                window_s=HOT_CONFIG.window_s,
                slos=HOT_CONFIG.slos,
                p99_min_samples=HOT_CONFIG.p99_min_samples,
                flightrec_capacity=2,
            )
        )
        run_once(seed=3, n=96, monitor=monitor, rate_s=120e-6, burst=6.0)
        assert len(monitor.flight_records) == 2


class TestBatchTimeline:
    def test_boundaries_come_from_the_bill(self):
        from repro.apps.power_method import make_batch_bill
        from repro.serve import BatchRecord

        # Widths 3,3,2,1,1 -> three equal-width runs, one event each.
        bill = make_batch_bill([5, 3, 2], lambda w: w * 1e-5)
        record = BatchRecord(
            batch_id=0,
            graph=MATRIX,
            worker=1,
            k=3,
            close_s=0.0,
            start_s=0.0,
            formation_s=0.0,
            compute_s=bill.total_s,
            end_s=bill.total_s,
        )
        tl = batch_timeline(record, bill, GTX_TITAN.name)
        assert tl.time_s == bill.total_s
        events = tl.lanes[0].events
        assert len(events) == 3
        assert events[0].start_s == 0.0
        for prev, nxt in zip(events, events[1:]):
            assert prev.end_s == nxt.start_s
        assert events[-1].end_s == bill.total_s
        assert tl.lanes[0].label == "worker1"


class TestSurfaces:
    def test_jsonl_passes_the_profile_validator(self, hot_run, tmp_path):
        result, monitor = hot_run
        path = write_serve_jsonl(
            result, tmp_path / "mon.jsonl", monitor=monitor, seed=3
        )
        assert validate_profile_jsonl(path) == []

    def test_record_kinds_present_and_time_ordered(self, hot_run):
        _, monitor = hot_run
        records = [json.loads(x) for x in monitor.jsonl_lines()]
        kinds = {r["record"] for r in records}
        assert kinds == {"metric", "alert", "flightrec"}
        times = [r["t_s"] for r in records]
        assert times == sorted(times)

    def test_metric_scopes_and_keys(self, hot_run):
        _, monitor = hot_run
        metrics = [r for r in monitor.records if r["record"] == "metric"]
        scopes = {r["scope"] for r in metrics}
        assert scopes == {"global", "tenant", "graph"}
        assert {r["key"] for r in metrics if r["scope"] == "graph"} == {
            MATRIX
        }

    def test_chrome_counters_validate(self, hot_run):
        _, monitor = hot_run
        trace = json.loads(json.dumps(monitor.chrome_counters()))
        assert validate_chrome_trace(trace) == []
        assert any(e["ph"] == "C" for e in trace["traceEvents"])

    def test_dashboard_mentions_the_telemetry(self, hot_run):
        result, monitor = hot_run
        html = serve_dash_html(result, monitor)
        assert "Rolling series" in html
        assert "FIRING".lower() in html.lower() or "firing" in html
        assert "<svg" in html
        assert "p99&lt;=0.00035@5ms" in html

    def test_meta_describes_the_config(self, hot_run):
        _, monitor = hot_run
        meta = monitor.meta()
        assert meta["window_s"] == HOT_CONFIG.window_s
        assert meta["slos"] == ["p99<=0.00035@5ms"]
        assert meta["end_t_s"] == monitor.summary["end_t_s"]
        assert meta["n_ticks"] > 1


class TestMonitorConfig:
    def test_bad_slo_spec_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MonitorConfig(slos=("p99<=oops@5ms",))

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(window_s=0.0)
        with pytest.raises(ValueError):
            MonitorConfig(n_buckets=0)
        with pytest.raises(ValueError):
            MonitorConfig(sample_every_s=-1.0)
        with pytest.raises(ValueError):
            MonitorConfig(flightrec_capacity=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_non_finite_or_zero_knobs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            MonitorConfig(window_s=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            MonitorConfig(sample_every_s=bad)

    def test_duplicate_slos_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate SLO"):
            MonitorConfig(slos=("p99<=350us@5ms", "p99<=350us@5ms"))

    def test_non_finite_slo_window_rejected_at_construction(self):
        with pytest.raises(ValueError, match="finite and positive"):
            MonitorConfig(slos=("p99<=350us@1e999s",))

    def test_fast_leg_narrower_than_a_bucket_rejected(self):
        from repro.obs import BurnRatePolicy

        policy = BurnRatePolicy(fast_fraction=1 / 50)
        with pytest.raises(ValueError, match="fast_fraction"):
            MonitorConfig(slos=HOT_CONFIG.slos, policy=policy)
        cfg = MonitorConfig(slos=HOT_CONFIG.slos, policy=policy,
                            slo_buckets=50)
        assert cfg.slo_buckets == 50

    def test_slo_buckets_must_be_positive(self):
        with pytest.raises(ValueError, match="slo_buckets"):
            MonitorConfig(slos=HOT_CONFIG.slos, slo_buckets=0)

    def test_cadence_defaults_to_one_bucket(self):
        cfg = MonitorConfig(window_s=1.0, n_buckets=20)
        assert cfg.cadence_s == cfg.bucket_s == 0.05
        assert MonitorConfig(sample_every_s=0.5).cadence_s == 0.5

    def test_cadence_finer_than_a_bucket_rejected(self):
        with pytest.raises(ValueError, match="finer than one window bucket"):
            MonitorConfig(window_s=5e-3, n_buckets=20, sample_every_s=1e-9)
        with pytest.raises(ValueError, match="finer than one window bucket"):
            MonitorConfig(window_s=1.0, n_buckets=20, sample_every_s=0.049)
        # One bucket as the CLI spells it (100 * 1e-6 is one ulp below
        # 2000 * 1e-6 / 20) is still one bucket.
        cfg = MonitorConfig(window_s=2000 * 1e-6, n_buckets=20,
                            sample_every_s=100 * 1e-6)
        assert cfg.cadence_s < cfg.bucket_s


def metric_oracle(result, config):
    """Every ``metric`` record, recomputed from plain lists of the log.

    A record at tick ``T`` sees the events before ``T`` (the final
    record, at the end of the run, sees them all), restricted to the
    bucket-aligned window ``[cur - m + 1, cur]`` with ``cur =
    floor(T / bucket_s)`` and ``m = n_buckets``.
    """
    bucket_s = config.window_s / config.n_buckets
    m = config.n_buckets
    done = [
        (c.completion_s, c.request, c.latency_s)
        for b in result.batch_events
        for c in b.completions
    ]
    sheds = [(s.outcome.request.arrival_s, s.outcome.request)
             for s in result.shed_events]
    depths = sorted(
        [(b.record.close_s, 0, b.record.batch_id, b.queue_depth)
         for b in result.batch_events]
        + [(s.outcome.request.arrival_s, 1, s.outcome.request.rid,
            s.queue_depth) for s in result.shed_events]
    )
    times = [t for t, *_ in done] + [t for t, _ in sheds]
    times += [t for t, *_ in depths]
    ticks = []
    tick = config.cadence_s
    while times and tick <= max(times):
        ticks.append((tick, False))
        tick += config.cadence_s
    end_t = max([result.makespan_s] + times)
    ticks.append((end_t, True))
    tenants = sorted({r.request.tenant for r in result.requests})
    graphs = sorted({r.request.graph for r in result.requests})
    keys = [("global", "*")] + [("tenant", t) for t in tenants]
    keys += [("graph", g) for g in graphs]

    def matches(scope, key, request):
        if scope == "tenant":
            return request.tenant == key
        if scope == "graph":
            return request.graph == key
        return True

    out = []
    for t, final in ticks:
        cur = math.floor(t / bucket_s)

        def seen(ts):
            before = ts <= t if final else ts < t
            return before and math.floor(ts / bucket_s) >= cur - m + 1

        depth = 0
        for ts, _rank, _id, d in depths:
            if ts <= t if final else ts < t:
                depth = d
        for scope, key in keys:
            lat = [v for ts, r, v in done
                   if seen(ts) and matches(scope, key, r)]
            n_shed = sum(1 for ts, r in sheds
                         if seen(ts) and matches(scope, key, r))
            n = len(lat) + n_shed
            q = [exact_quantile(lat, p) if lat else None
                 for p in (0.5, 0.95, 0.99)]
            out.append({
                "record": "metric",
                "t_s": t,
                "scope": scope,
                "key": key,
                "window_s": config.window_s,
                "qps": len(lat) / (min(m, cur + 1) * bucket_s),
                "shed_rate": n_shed / n if n > 0 else 0.0,
                "n": n,
                "p50_s": q[0],
                "p95_s": q[1],
                "p99_s": q[2],
                "queue_depth": depth if scope == "global" else None,
            })
    return out


#: The oracle configurations: alerting, shedding off the default grid
#: (7 buckets, a 310 us cadence), and a one-bucket window.
ORACLE_CASES = pytest.mark.parametrize(
    "seed, config, serve",
    [
        (3, HOT_CONFIG, ServeConfig()),
        (7, MonitorConfig(window_s=2e-3, n_buckets=7,
                          sample_every_s=3.1e-4),
         ServeConfig(queue_limit=6, tenant_limit=3)),
        (11, MonitorConfig(window_s=1e-3, n_buckets=1),
         ServeConfig(queue_limit=4, tenant_limit=2)),
    ],
    ids=["hot", "shedding", "one-bucket"],
)


def run_oracle_case(device, seed, config, serve):
    engine = ServeEngine(device, serve)
    engine.register(MATRIX, scale=SCALE, format_name="csr")
    trace = generate_trace(
        TraceConfig(n_requests=96, seed=seed, burst_factor=6.0),
        engine.registered_graphs(),
        120e-6,
    )
    monitor = ServeMonitor(config)
    return engine.run_trace(trace, monitor=monitor), monitor


def assert_change_points(monitor):
    """Each series is written at its first tick, where a field changes,
    and at the end tick: no two consecutive records of a series encode
    the same fields but ``t_s``, except the end tick's."""
    meta = monitor.meta()
    t_first = meta["sample_every_s"] if meta["n_ticks"] > 1 else (
        meta["end_t_s"]
    )
    by_series: dict = {}
    for rec in monitor.records:
        if rec["record"] == "metric":
            by_series.setdefault((rec["scope"], rec["key"]), []).append(rec)
    for recs in by_series.values():
        assert recs[0]["t_s"] == t_first
        assert recs[-1]["t_s"] == meta["end_t_s"]
        fields = [json.dumps({**r, "t_s": None}) for r in recs[:-1]]
        assert all(a != b for a, b in zip(fields, fields[1:]))
    n_series = len(by_series)
    assert monitor.summary["samples"] == meta["n_ticks"] * n_series


class TestMetricOracle:
    """The expanded metric records equal a plain-list recomputation,
    exactly."""

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @ORACLE_CASES
    def test_metric_records_match_the_list_oracle(
        self, device, seed, config, serve
    ):
        result, monitor = run_oracle_case(device, seed, config, serve)
        got = expand_series(monitor.records, monitor.meta())
        assert got == metric_oracle(result, config)
        assert_change_points(monitor)
        if serve.queue_limit < 64:
            assert result.shed_events  # the sheds reach the oracle

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        window_us=st.integers(min_value=200, max_value=8000),
        n_buckets=st.integers(min_value=1, max_value=24),
        cadence_buckets=st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=6.0)
        ),
        queue_limit=st.sampled_from([3, 6, 64]),
    )
    @settings(max_examples=25, deadline=None)
    def test_expansion_matches_the_oracle_on_random_runs(
        self, seed, window_us, n_buckets, cadence_buckets, queue_limit
    ):
        window_s = window_us * 1e-6
        bucket_s = window_s / n_buckets
        config = MonitorConfig(
            window_s=window_s,
            n_buckets=n_buckets,
            sample_every_s=(
                None if cadence_buckets is None
                else bucket_s * cadence_buckets
            ),
        )
        engine = ServeEngine(
            GTX_TITAN,
            ServeConfig(queue_limit=queue_limit,
                        tenant_limit=min(queue_limit, 16)),
        )
        engine.register(MATRIX, scale=SCALE, format_name="csr")
        trace = generate_trace(
            TraceConfig(n_requests=40, seed=seed, burst_factor=4.0),
            engine.registered_graphs(),
            150e-6,
        )
        monitor = ServeMonitor(config)
        result = engine.run_trace(trace, monitor=monitor)
        got = expand_series(monitor.records, monitor.meta())
        assert got == metric_oracle(result, config)
        assert_change_points(monitor)


class TestExpandSeries:
    T3 = 1e-4 + 1e-4 + 1e-4
    META = {"sample_every_s": 1e-4, "n_ticks": 4, "end_t_s": T3}

    @staticmethod
    def sample(t_s, n, key="*"):
        return {"record": "metric", "t_s": t_s, "scope": "global",
                "key": key, "n": n}

    def test_steps_fill_the_grid_and_the_end_tick_stays_apart(self):
        t3 = self.T3
        records = [
            self.sample(1e-4, 1),
            {"record": "alert", "t_s": 1.5e-4},
            self.sample(t3, 2),
            self.sample(t3, 3),
        ]
        got = expand_series(records, self.META)
        assert [(r["t_s"], r["n"]) for r in got] == [
            (1e-4, 1), (2e-4, 1), (t3, 2), (t3, 3)
        ]
        assert list(got[1]) == list(records[0])  # field order kept

    def test_series_without_its_first_tick_rejected(self):
        records = [self.sample(2e-4, 1), self.sample(self.T3, 1)]
        with pytest.raises(ValueError, match="first-tick"):
            expand_series(records, self.META)


class TestSampleOrder:
    """Samples splice back into the replay's record stream at their
    ticks."""

    @staticmethod
    def assert_samples_in_replay_order(records):
        """A metric record at tick ``T`` follows every alert/flightrec
        with ``t_s < T`` and precedes every one with ``t_s >= T``; the
        end-of-run samples (one per series) follow everything."""
        n_series = len({
            (r["scope"], r["key"]) for r in records if r["record"] == "metric"
        })
        ticked, final = records[:-n_series], records[-n_series:]
        assert all(r["record"] == "metric" for r in final)
        event_times = [r["t_s"] for r in records if r["record"] != "metric"]
        events_seen = 0
        for r in ticked:
            if r["record"] != "metric":
                events_seen += 1
                continue
            t = r["t_s"]
            assert all(x < t for x in event_times[:events_seen])
            assert all(x >= t for x in event_times[events_seen:])

    def test_samples_splice_between_events_hot(self, hot_run):
        _, monitor = hot_run
        assert {r["record"] for r in monitor.records} == {
            "metric", "alert", "flightrec"
        }
        self.assert_samples_in_replay_order(monitor.records)

    @ORACLE_CASES
    def test_samples_splice_between_events(self, seed, config, serve):
        _, monitor = run_oracle_case(GTX_TITAN, seed, config, serve)
        assert monitor.records[-1]["record"] == "metric"
        self.assert_samples_in_replay_order(monitor.records)
