"""Unit tests for :mod:`repro.obs.tracing` and its validator hooks.

Covers the deterministic identity layer (trace ids, head sampling),
the span record round-trip, the explain table's exactness contract,
``force_exact_sum`` with a custom term order, the window log's
trace-id exemplars, and the JSONL / Chrome-trace validator extensions
(span linkage, exact-sum re-checks, flow events).
"""

from __future__ import annotations

import json

import pytest

from repro.obs import validate_chrome_trace, validate_profile_jsonl
from repro.obs.attribution import TERM_ORDER, force_exact_sum
from repro.obs.registry import WindowLog
from repro.obs.tracing import (
    EXPLAIN_ORDER,
    ExplainTable,
    Span,
    TraceContext,
    TracingConfig,
    format_slowest,
    group_traces,
    spans_from_records,
    trace_waterfall,
)


class TestTraceContext:
    def test_ids_are_pure_functions_of_seed_and_index(self):
        a = TraceContext.for_request(7, 3)
        b = TraceContext.for_request(7, 3)
        assert a.trace_id == b.trace_id
        assert len(a.trace_id) == 16
        int(a.trace_id, 16)  # hex digest

    def test_ids_differ_across_seed_index_and_scope(self):
        base = TraceContext.for_request(7, 3).trace_id
        assert TraceContext.for_request(8, 3).trace_id != base
        assert TraceContext.for_request(7, 4).trace_id != base
        assert TraceContext.for_batch(7, 3).trace_id != base

    def test_span_ids_number_from_root(self):
        ctx = TraceContext.for_request(0, 0)
        assert ctx.span_id(0) == f"{ctx.trace_id}:0"
        assert ctx.span_id(4) == f"{ctx.trace_id}:4"

    def test_head_keep_extremes_and_determinism(self):
        ctx = TraceContext.for_request(1, 1)
        assert ctx.head_keep(1.0) is True
        assert ctx.head_keep(0.0) is False
        mid = ctx.head_keep(0.5)
        assert mid == ctx.head_keep(0.5)

    def test_head_keep_rate_is_roughly_honoured(self):
        kept = sum(
            TraceContext.for_request(0, rid).head_keep(0.25)
            for rid in range(400)
        )
        # Hash-bucket sampling: the keep fraction tracks the rate.
        assert 0.15 < kept / 400 < 0.35

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TracingConfig(head_rate=1.5)
        with pytest.raises(ValueError):
            TracingConfig(window_s=0.0)
        with pytest.raises(ValueError):
            TracingConfig(p99_min_samples=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                TracingConfig(window_s=bad)


class TestSpanRoundTrip:
    def span(self):
        ctx = TraceContext.for_request(5, 9)
        return Span(
            trace_id=ctx.trace_id,
            span_id=ctx.span_id(2),
            parent_id=ctx.span_id(0),
            name="compute",
            kind="compute",
            start_s=1.5e-4,
            duration_s=3.25e-5,
            attrs={"rid": 9, "k": 4},
            links=("abc:2",),
        )

    def test_json_round_trip_is_exact(self):
        span = self.span()
        back = Span.from_record(json.loads(json.dumps(span.to_record())))
        assert back == span
        assert back.duration_s == span.duration_s  # bit-for-bit
        assert back.end_s == span.end_s

    def test_record_shape(self):
        rec = self.span().to_record()
        assert rec["record"] == "span"
        assert rec["path"] == f"trace/{rec['trace_id']}/{rec['span_id']}"
        assert rec["time_s"] == rec["attrs"]["k"] * 0 + self.span().duration_s


class TestForceExactSumOrder:
    def test_custom_order_sums_exactly(self):
        terms = {name: 0.0 for name in EXPLAIN_ORDER}
        terms["queue_wait"] = 9.47e-4
        terms["formation"] = 1.5e-5
        terms["ideal"] = 9.3e-6
        terms["tail_warp"] = 3.02e-4
        target = 0.00127341
        out = force_exact_sum(
            terms, target, adjust="ideal", order=EXPLAIN_ORDER
        )
        s = 0.0
        for name in EXPLAIN_ORDER:
            s += out[name]
        assert s == target
        assert out["queue_wait"] == terms["queue_wait"]

    def test_default_order_is_term_order(self):
        terms = {name: 1e-6 for name in TERM_ORDER}
        out = force_exact_sum(terms, 1.1e-5)
        s = 0.0
        for name in TERM_ORDER:
            s += out[name]
        assert s == 1.1e-5


class TestExplainTable:
    def table(self, exact=True):
        terms = [(name, 0.0) for name in EXPLAIN_ORDER]
        terms[0] = ("queue_wait", 2e-4)
        terms[2] = ("ideal", 1e-5)
        latency = 2e-4 + 1e-5 if exact else 3e-4
        return ExplainTable(
            trace_id="ab" * 8,
            rid=1,
            tenant="t0",
            graph="WIK",
            device="GTXTitan",
            latency_s=latency,
            terms=tuple(terms),
        )

    def test_check_exact(self):
        assert self.table(exact=True).check_exact()
        assert not self.table(exact=False).check_exact()

    def test_render_marks_exactness(self):
        assert "exact" in self.table(exact=True).render()
        assert "INEXACT" in self.table(exact=False).render()

    def test_nonzero_keeps_ideal(self):
        keys = [k for k, _ in self.table().nonzero()]
        assert keys == ["queue_wait", "ideal"]

    def test_term_lookup(self):
        assert self.table().term("queue_wait") == 2e-4
        with pytest.raises(KeyError):
            self.table().term("nope")

    def test_from_root_span_requires_explain_attr(self):
        root = Span(
            trace_id="x" * 16,
            span_id="x" * 16 + ":0",
            parent_id=None,
            name="request",
            kind="request",
            start_s=0.0,
            duration_s=1e-4,
        )
        assert ExplainTable.from_root_span(root) is None


def _tree(seed=0, rid=0, latency=4e-4):
    """A minimal exact request trace: root + 4 children."""
    ctx = TraceContext.for_request(seed, rid)
    queue, formation = 2e-4, 5e-5
    compute = latency - queue - formation
    explain = {name: 0.0 for name in EXPLAIN_ORDER}
    explain["queue_wait"] = queue
    explain["formation"] = formation
    explain = force_exact_sum(
        explain, latency, adjust="ideal", order=EXPLAIN_ORDER
    )
    root = Span(
        trace_id=ctx.trace_id,
        span_id=ctx.span_id(0),
        parent_id=None,
        name="request",
        kind="request",
        start_s=0.0,
        duration_s=latency,
        attrs={"rid": rid, "device": "GTXTitan", "explain": explain},
    )
    names = ("admission", "queue_wait", "formation", "compute")
    durations = (0.0, queue, formation, compute)
    children, cursor = [], 0.0
    for n, (name, dur) in enumerate(zip(names, durations), start=1):
        children.append(
            Span(
                trace_id=ctx.trace_id,
                span_id=ctx.span_id(n),
                parent_id=ctx.span_id(0),
                name=name,
                kind=name if name != "admission" else "admission",
                start_s=cursor,
                duration_s=dur,
            )
        )
        cursor += dur
    return [root, *children]


class TestHelpers:
    def test_group_traces_keeps_root_first(self):
        spans = _tree() + _tree(rid=1)
        groups = group_traces(spans)
        assert len(groups) == 2
        for tid, group in groups.items():
            assert group[0].parent_id is None
            assert all(s.trace_id == tid for s in group)

    def test_trace_waterfall_time_equals_root_duration(self):
        spans = _tree(latency=5e-4)
        tl = trace_waterfall(spans)
        assert tl.time_s == 5e-4
        assert tl.gantt()  # renders

    def test_format_slowest_orders_by_latency(self):
        roots = [
            _tree(rid=0, latency=1e-4)[0],
            _tree(rid=1, latency=9e-4)[0],
        ]
        roots.sort(key=lambda s: -s.duration_s)
        text = format_slowest(roots, 5)
        lines = text.splitlines()
        assert "trace_id" in lines[0]
        assert lines[1].split()[1] == "1"  # slowest rid first

    def test_spans_from_records_ignores_non_trace_records(self):
        objs = [
            {"record": "meta", "kind": "trace"},
            {"record": "span", "name": "x", "path": "p", "time_s": 0.0},
            _tree()[0].to_record(),
        ]
        spans = spans_from_records(objs)
        assert len(spans) == 1
        assert spans[0].kind == "request"


class TestValidatorSpans:
    def lines(self, spans):
        meta = {"record": "meta", "kind": "trace", "seed": 0}
        return [json.dumps(meta)] + [
            json.dumps(s.to_record()) for s in spans
        ]

    def test_valid_tree_passes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(self.lines(_tree())) + "\n")
        assert validate_profile_jsonl(path) == []

    def test_orphan_parent_fails(self, tmp_path):
        spans = _tree()
        bad = Span(
            trace_id=spans[0].trace_id,
            span_id=spans[0].trace_id + ":9",
            parent_id=spans[0].trace_id + ":404",
            name="x",
            kind="compute",
            start_s=0.0,
            duration_s=0.0,
        )
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(self.lines(spans + [bad])) + "\n")
        assert any(
            "parent" in e for e in validate_profile_jsonl(path)
        )

    def test_broken_child_sum_fails(self, tmp_path):
        spans = _tree()
        spans[-1] = Span(
            **{
                **spans[-1].__dict__,
                "duration_s": spans[-1].duration_s * 0.5,
            }
        )
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(self.lines(spans)) + "\n")
        assert any("sum" in e for e in validate_profile_jsonl(path))

    def test_broken_explain_sum_fails(self, tmp_path):
        spans = _tree()
        attrs = dict(spans[0].attrs)
        attrs["explain"] = {
            **attrs["explain"],
            "ideal": attrs["explain"]["ideal"] + 1e-9,
        }
        spans[0] = Span(**{**spans[0].__dict__, "attrs": attrs})
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(self.lines(spans)) + "\n")
        assert any("explain" in e for e in validate_profile_jsonl(path))

    def test_unresolved_link_fails(self, tmp_path):
        spans = _tree()
        spans[-1] = Span(
            **{**spans[-1].__dict__, "links": ("nowhere:2",)}
        )
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(self.lines(spans)) + "\n")
        assert any("link" in e for e in validate_profile_jsonl(path))

    def test_two_roots_fail(self, tmp_path):
        spans = _tree()
        extra = Span(
            **{
                **spans[0].__dict__,
                "span_id": spans[0].trace_id + ":8",
                "attrs": {},
            }
        )
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(self.lines(spans + [extra])) + "\n")
        assert any("root" in e for e in validate_profile_jsonl(path))


class TestChromeFlowValidation:
    def base(self):
        return {
            "name": "x",
            "cat": "kernel",
            "ph": "X",
            "ts": 0.0,
            "dur": 1.0,
            "pid": "p",
            "tid": "t",
        }

    def flow(self, ph, ts):
        return {
            "name": "f",
            "cat": "flow",
            "ph": ph,
            "ts": ts,
            "pid": "p",
            "tid": "t",
            "id": 1,
        }

    def test_flow_pair_passes(self):
        events = [self.base(), self.flow("s", 0.0), self.flow("f", 0.5)]
        assert validate_chrome_trace({"traceEvents": events}) == []

    def test_finish_without_start_fails(self):
        events = [self.base(), self.flow("f", 0.5)]
        assert validate_chrome_trace({"traceEvents": events})

    def test_finish_before_start_fails(self):
        events = [self.base(), self.flow("s", 1.0), self.flow("f", 0.5)]
        assert validate_chrome_trace({"traceEvents": events})


class TestChromeLaneKeys:
    """A lane named by a JSON list or object is reported, not a crash."""

    COMPLETE = {"name": "x", "cat": "c", "ph": "X", "ts": 0, "dur": 1,
                "pid": 1, "tid": 0}
    COUNTER = {"name": "x", "cat": "c", "ph": "C", "ts": 0, "pid": 1,
               "args": {"value": 1}}

    @pytest.mark.parametrize(
        "event",
        [
            {**COMPLETE, "pid": [1]},
            {**COMPLETE, "tid": {"stream": 0}},
            {**COUNTER, "name": ["x"]},
        ],
        ids=["pid", "tid", "counter-name"],
    )
    def test_unhashable_lane_is_an_error(self, event):
        errors = validate_chrome_trace({"traceEvents": [event]})
        assert len(errors) == 1
        assert "must be strings or numbers" in errors[0]


class TestHistogramExemplars:
    def test_observe_and_read_back(self):
        hist = WindowLog(window_s=1.0, n_buckets=4)
        hist.append(0.1, 1.0, exemplar="a")
        hist.append(0.2, 2.0)
        hist.append(0.3, 3.0, exemplar="c")
        (lo,), _ = hist.windows([0.3])
        assert tuple(hist._values[lo:]) == (1.0, 2.0, 3.0)
        assert hist.exemplar_near(0.0, 0.3) == "a"
        # The median (2.0) carries no exemplar: the next value up does.
        assert hist.exemplar_near(0.5, 0.3) == "c"
        assert hist.exemplar_near(1.0, 0.3) == "c"

    def test_exemplar_near_quantile(self):
        hist = WindowLog(window_s=1.0, n_buckets=4)
        for i in range(10):
            hist.append(0.01 * i, float(i), exemplar=f"t{i}")
        assert hist.exemplar_near(0.99, 0.1) == "t9"
        assert hist.exemplar_near(0.0, 0.1) == "t0"

    def test_exemplars_expire_with_window(self):
        hist = WindowLog(window_s=0.1, n_buckets=2)
        hist.append(0.0, 1.0, exemplar="old")
        hist.append(1.0, 2.0, exemplar="new")
        (lo,), _ = hist.windows([1.0])
        assert tuple(hist._values[lo:]) == (2.0,)
        assert hist.exemplar_near(0.0, 1.0) == "new"
        assert hist.exemplar_near(0.0, 0.0) == "old"

    def test_exemplar_ties_broken_by_append_order(self):
        hist = WindowLog(window_s=1.0, n_buckets=4)
        hist.append(0.1, 5.0, exemplar="first")
        hist.append(0.2, 5.0, exemplar="second")
        assert hist.exemplar_near(0.5, 0.2) == "first"
