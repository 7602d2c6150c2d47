"""The serving engine: billing identities, shedding, the event log."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.rwr import run_rwr_batch, rwr
from repro.gpu.device import GTX_TITAN, Precision
from repro.serve import (
    REASON_QUEUE_FULL,
    REASON_TENANT_LIMIT,
    BatchEvent,
    CompletedQuery,
    QueryRequest,
    ServeConfig,
    ServeEngine,
    ShedEvent,
    ShedQuery,
    TraceConfig,
    auto_interarrival_s,
    generate_trace,
    operator_format,
    serve_report_lines,
)

MATRIX = "WIK"
SCALE = 0.002
DEV = GTX_TITAN


def make_engine(**cfg) -> ServeEngine:
    engine = ServeEngine(DEV, ServeConfig(**cfg))
    engine.register(MATRIX, scale=SCALE, format_name="csr")
    return engine


def req(rid, node, t=0.0, tenant="a", graph=MATRIX):
    return QueryRequest(
        rid=rid, tenant=tenant, graph=graph, node=node, arrival_s=t
    )


@pytest.fixture(scope="module")
def operator_fmt():
    return operator_format(MATRIX, "csr", Precision.SINGLE, SCALE)


class TestRegistration:
    def test_unknown_graph_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="not registered"):
            engine.run_trace([req(0, 1, graph="NOPE")])

    def test_duplicate_rids_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="unique"):
            engine.run_trace([req(0, 1), req(0, 2)])

    def test_registered_graphs_expose_sizes(self):
        engine = make_engine()
        ((key, n),) = engine.registered_graphs()
        assert key == MATRIX
        assert n == engine._graphs[MATRIX].plan.n_rows

    def test_narrow_plan_rejected(self):
        engine = ServeEngine(DEV, ServeConfig(max_batch=8))
        with pytest.raises(ValueError, match="below max_batch"):
            engine.register(MATRIX, scale=SCALE, format_name="csr", k_max=2)


class TestBillingIdentities:
    def test_solo_query_compute_equals_rwr_bitwise(self, operator_fmt):
        engine = make_engine()
        result = engine.run_trace([req(0, node=7)])
        (outcome,) = result.requests
        assert isinstance(outcome, CompletedQuery)
        direct = rwr(
            operator_fmt,
            DEV,
            7,
            restart=engine.config.restart,
            epsilon=engine.config.epsilon,
            max_iterations=engine.config.max_iterations,
        )
        assert outcome.compute_s == direct.modeled_time_s
        assert outcome.iterations == direct.iterations
        assert outcome.converged == direct.converged

    def test_numerics_run_no_cost_model(self, monkeypatch):
        """Queries bill from the plan tables; the per-seed numerics are
        the RWR trajectory alone, so they never price a round."""
        engine = make_engine()
        fmt = engine._graphs[MATRIX].fmt

        def never(*args, **kwargs):
            raise AssertionError("serve numerics priced a round")

        monkeypatch.setattr(type(fmt), "spmm_time_s", never)
        result = engine.run_trace([req(0, node=7), req(1, node=11)])
        assert all(isinstance(o, CompletedQuery) for o in result.requests)

    def test_latency_is_the_plain_sum_of_its_terms(self):
        engine = make_engine()
        trace = generate_trace(
            TraceConfig(n_requests=24, seed=5, mean_interarrival_s=2e-4),
            engine.registered_graphs(),
        )
        result = engine.run_trace(trace)
        assert result.admitted
        for r in result.admitted:
            assert r.latency_s == (
                r.queue_wait_s + r.formation_s + r.compute_s
            )
            assert r.completion_s == r.request.arrival_s + r.latency_s

    def test_solo_query_waits_out_the_coalescing_window(self):
        engine = make_engine()
        # Arrival at 0.0 keeps `deadline - arrival` float-exact.
        result = engine.run_trace([req(0, node=7, t=0.0)])
        (outcome,) = result.admitted
        # Alone in the queue: the flush timer is the whole queue wait.
        assert outcome.queue_wait_s == engine.config.max_wait_s
        assert outcome.k == 1
        (batch,) = result.batches
        assert batch.start_s == engine.config.max_wait_s

    def test_full_batch_bills_like_run_rwr_batch(self, operator_fmt):
        engine = make_engine(max_batch=4)
        nodes = [3, 17, 90, 401]
        # Distinct tenants so the fair fill preserves arrival order.
        trace = [
            req(i, n, t=0.0, tenant=f"t{i}") for i, n in enumerate(nodes)
        ]
        result = engine.run_trace(trace)
        (batch,) = result.batches
        assert batch.k == 4
        assert batch.close_s == 0.0  # sealed on width, not timeout
        direct = run_rwr_batch(
            operator_fmt,
            DEV,
            nodes,
            restart=engine.config.restart,
            epsilon=engine.config.epsilon,
            max_iterations=engine.config.max_iterations,
        )
        assert batch.compute_s == direct.modeled_time_s
        for j, outcome in enumerate(result.admitted):
            assert outcome.compute_s == float(direct.column_times_s[j])
            assert outcome.queue_wait_s == 0.0
            assert outcome.iterations == direct.iterations[j]

    def test_batch_end_accounting(self):
        engine = make_engine(max_batch=2)
        result = engine.run_trace(
            [req(0, 1, tenant="a"), req(1, 2, tenant="b")]
        )
        (batch,) = result.batches
        assert batch.end_s == (batch.start_s + batch.formation_s) + (
            batch.compute_s
        )
        assert result.makespan_s == batch.end_s
        assert result.queries_per_s == 2 / batch.end_s


class TestAdmission:
    def test_queue_limit_sheds_with_retry_hint(self):
        engine = make_engine(queue_limit=2, tenant_limit=16, max_batch=16)
        trace = [req(i, i, t=0.0, tenant=f"t{i}") for i in range(4)]
        result = engine.run_trace(trace)
        assert len(result.admitted) == 2
        assert len(result.shed) == 2
        for s in result.shed:
            assert s.reason == REASON_QUEUE_FULL
            assert s.retry_after_s >= engine.config.max_wait_s

    def test_tenant_limit_spares_other_tenants(self):
        engine = make_engine(tenant_limit=1, max_batch=16)
        trace = [
            req(0, 1, tenant="hog"),
            req(1, 2, tenant="hog"),
            req(2, 3, tenant="meek"),
        ]
        result = engine.run_trace(trace)
        (shed,) = result.shed
        assert shed.request.rid == 1
        assert shed.reason == REASON_TENANT_LIMIT
        assert {r.request.rid for r in result.admitted} == {0, 2}

    def test_batch_start_releases_admission(self):
        engine = make_engine(queue_limit=1)
        wait = engine.config.max_wait_s
        # The second query arrives after the first batch has started
        # (flush at t=wait), so the queue slot is free again.
        result = engine.run_trace([req(0, 1, t=0.0), req(1, 2, t=3 * wait)])
        assert len(result.admitted) == 2
        assert not result.shed

    def test_shed_outcomes_count_in_metrics(self):
        engine = make_engine(queue_limit=1, max_batch=16)
        result = engine.run_trace(
            [req(0, 1, tenant="a"), req(1, 2, tenant="b")]
        )
        line = json.loads(serve_report_lines(result)[-1])
        metrics = line["metrics"]
        assert metrics["serve_requests_total{status=ok}"]["value"] == 1
        assert metrics["serve_requests_total{status=shed}"]["value"] == 1
        assert metrics["serve_batches_total"]["value"] == 1
        assert metrics["serve_batch_width"]["count"] == 1
        # The shed came before the first batch closed; the key order is
        # fixed all the same: batch keys, then sheds, then the gauge.
        assert list(metrics) == [
            "serve_batches_total",
            "serve_batch_width",
            "serve_requests_total{status=ok}",
            "serve_latency_s",
            "serve_requests_total{status=shed}",
            "serve_queries_per_s",
        ]


class TestScheduling:
    def trace(self, engine, n=48, seed=2, overload=25.0):
        # Pace well past one GPU's capacity so batches actually queue;
        # at the default 0.8-utilisation pace a second worker is idle.
        mean = auto_interarrival_s(
            [engine._graphs[MATRIX].plan],
            1,
            engine.config.epsilon,
            engine.config.restart,
        )
        return generate_trace(
            TraceConfig(n_requests=n, seed=seed),
            engine.registered_graphs(),
            mean / overload,
        )

    def test_second_gpu_reduces_queueing_delay(self):
        solo = make_engine(gpus=1, queue_limit=256, tenant_limit=256)
        duo = make_engine(gpus=2, queue_limit=256, tenant_limit=256)
        trace = self.trace(solo)
        r1 = solo.run_trace(trace)
        r2 = duo.run_trace(trace)
        assert len(r1.admitted) == len(r2.admitted) == len(trace)
        # Coalescing waits are identical (same close schedule); the
        # scheduler backlog behind the single worker is what shrinks.
        assert sum(r.queue_wait_s for r in r2.admitted) < sum(
            r.queue_wait_s for r in r1.admitted
        )
        assert r2.makespan_s <= r1.makespan_s
        assert {b.worker for b in r2.batches} == {0, 1}
        # No batch ever starts before the one placed before it frees
        # its worker; under overload at least one solo batch queued.
        assert any(b.start_s > b.close_s for b in r1.batches)

    def test_batches_never_overlap_on_a_worker(self):
        engine = make_engine(gpus=2)
        result = engine.run_trace(self.trace(engine, n=64, seed=9))
        last = {}
        for b in sorted(result.batches, key=lambda b: b.start_s):
            assert b.start_s >= last.get(b.worker, 0.0)
            assert b.start_s >= b.close_s
            last[b.worker] = b.end_s

    def test_popular_seeds_hit_the_query_cache(self):
        engine = make_engine()
        engine.run_trace([req(0, 5), req(1, 5, t=1.0)])
        cache = engine._graphs[MATRIX].query_cache
        assert list(cache) == [5]  # one numeric run for both queries


class TestEmptyRun:
    def test_empty_trace_yields_empty_result(self):
        engine = make_engine()
        result = engine.run_trace([])
        assert result.requests == ()
        assert result.batches == ()
        assert result.makespan_s == 0.0
        assert result.queries_per_s == 0.0
        assert result.batch_events == ()
        assert result.shed_events == ()


class TestEventLog:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        queue_limit=st.sampled_from((2, 4, 64)),
    )
    @settings(max_examples=10, deadline=None)
    def test_log_is_complete_and_ordered(self, seed, queue_limit):
        engine = make_engine(
            queue_limit=queue_limit, tenant_limit=queue_limit
        )
        trace = generate_trace(
            TraceConfig(n_requests=32, seed=seed, burst_factor=8.0),
            engine.registered_graphs(),
            40e-6,
        )
        result = engine.run_trace(trace)
        batch_rids = [
            done.request.rid
            for event in result.batch_events
            for done in event.completions
        ]
        shed_rids = [e.outcome.request.rid for e in result.shed_events]
        assert sorted(batch_rids) == [r.request.rid for r in result.admitted]
        assert sorted(shed_rids) == [r.request.rid for r in result.shed]
        assert [e.record.batch_id for e in result.batch_events] == list(
            range(len(result.batches))
        )
        by_rid = {r.request.rid: r for r in result.requests}
        for event in result.batch_events:
            assert isinstance(event, BatchEvent)
            assert event.record is result.batches[event.record.batch_id]
            assert len(event.completions) == event.record.k
            assert event.iterations == tuple(
                done.iterations for done in event.completions
            )
            assert event.bill.total_s == event.record.compute_s
            for done in event.completions:
                assert by_rid[done.request.rid] is done
        for event in result.shed_events:
            assert isinstance(event, ShedEvent)
            assert by_rid[event.outcome.request.rid] is event.outcome
            assert 0 <= event.queue_depth <= queue_limit

    def test_result_carries_what_attribution_needs(self):
        engine = make_engine()
        result = engine.run_trace([req(0, 1)])
        assert result.device is DEV
        fmt = result.formats[MATRIX]
        assert fmt is engine._graphs[MATRIX].fmt
        assert fmt.n_rows == engine.registered_graphs()[0][1]
