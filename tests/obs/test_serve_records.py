"""Validator rules for the serve-report record kinds (request, slo,
metric, alert, flightrec), the monitor's tick grid, the ``meta`` line,
and malformed values in any field."""

from __future__ import annotations

import json
import math
import time
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.obs import validate_profile_jsonl

#: A one-tick monitor grid: the lone METRIC record below is its series'
#: first and end-of-run tick.
META = {
    "record": "meta",
    "kind": "serve",
    "monitor": {"sample_every_s": 2.5e-4, "n_ticks": 1, "end_t_s": 2.5e-4},
}
OK_REQUEST = {
    "record": "request",
    "rid": 0,
    "tenant": "t0",
    "graph": "WIK",
    "node": 3,
    "arrival_s": 0.0,
    "status": "ok",
    "k": 2,
    "queue_wait_s": 1e-4,
    "formation_s": 2e-5,
    "compute_s": 3e-4,
    "latency_s": 4.2e-4,
}
SHED_REQUEST = {
    "record": "request",
    "rid": 1,
    "tenant": "t1",
    "graph": "WIK",
    "node": 5,
    "arrival_s": 1e-3,
    "status": "shed",
    "reason": "queue-full",
    "retry_after_s": 2.5e-4,
}
SLO = {
    "record": "slo",
    "queries_per_s": 120.0,
    "p50_s": 1e-4,
    "p95_s": 2e-4,
    "p99_s": 3e-4,
}


def write(tmp_path, *records):
    path = tmp_path / "serve.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


class TestRequestRecords:
    def test_minimal_valid_report(self, tmp_path):
        path = write(tmp_path, META, OK_REQUEST, SHED_REQUEST, SLO)
        assert validate_profile_jsonl(path) == []

    def test_requests_alone_satisfy_the_content_check(self, tmp_path):
        # No launch/aggregate records needed when requests are present.
        path = write(tmp_path, META, OK_REQUEST)
        assert validate_profile_jsonl(path) == []

    def test_missing_identity_fields_flagged(self, tmp_path):
        broken = {k: v for k, v in OK_REQUEST.items() if k != "tenant"}
        errors = validate_profile_jsonl(write(tmp_path, META, broken))
        assert any("tenant" in e for e in errors)

    def test_unknown_status_flagged(self, tmp_path):
        bad = dict(OK_REQUEST, status="maybe")
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("unknown request status" in e for e in errors)

    def test_ok_request_needs_every_latency_term(self, tmp_path):
        bad = {k: v for k, v in OK_REQUEST.items() if k != "compute_s"}
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("compute_s" in e for e in errors)

    def test_negative_latency_flagged(self, tmp_path):
        bad = dict(OK_REQUEST, latency_s=-1.0)
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("negative" in e for e in errors)

    def test_ok_request_needs_positive_width(self, tmp_path):
        bad = dict(OK_REQUEST, k=0)
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("k >= 1" in e for e in errors)

    def test_shed_request_needs_retry_hint(self, tmp_path):
        bad = {k: v for k, v in SHED_REQUEST.items() if k != "retry_after_s"}
        errors = validate_profile_jsonl(write(tmp_path, META, bad, SLO))
        assert any("retry_after_s" in e for e in errors)


class TestSloRecords:
    def test_null_percentiles_allowed(self, tmp_path):
        empty = dict(SLO, p50_s=None, p95_s=None, p99_s=None)
        path = write(tmp_path, META, OK_REQUEST, empty)
        assert validate_profile_jsonl(path) == []

    def test_non_numeric_percentile_flagged(self, tmp_path):
        bad = dict(SLO, p99_s="slow")
        errors = validate_profile_jsonl(write(tmp_path, META, OK_REQUEST, bad))
        assert any("p99_s" in e for e in errors)

    def test_missing_throughput_flagged(self, tmp_path):
        bad = {k: v for k, v in SLO.items() if k != "queries_per_s"}
        errors = validate_profile_jsonl(write(tmp_path, META, OK_REQUEST, bad))
        assert any("queries_per_s" in e for e in errors)


METRIC = {
    "record": "metric",
    "t_s": 2.5e-4,
    "scope": "tenant",
    "key": "t0",
    "window_s": 5e-3,
    "qps": 1200.0,
    "shed_rate": 0.25,
    "n": 6,
    "p50_s": 1e-4,
    "p95_s": 2e-4,
    "p99_s": None,
    "queue_depth": None,
}
ALERT = {
    "record": "alert",
    "t_s": 3e-4,
    "slo": "p99<=350us@5ms",
    "key": "*",
    "state": "firing",
    "burn_fast": 12.5,
    "burn_slow": 3.0,
    "window_events": 9,
}
FLIGHTREC = {
    "record": "flightrec",
    "t_s": 4e-4,
    "trigger": "p99_tail",
    "rid": 7,
    "tenant": "t0",
    "latency_s": 9e-4,
    "window_p99_s": 5e-4,
    "alerts": [],
    "batch_id": 3,
    "graph": "WIK",
    "worker": 0,
    "k": 2,
    "close_s": 1e-4,
    "start_s": 1e-4,
    "formation_s": 1e-5,
    "compute_s": 3e-4,
    "end_s": 4.1e-4,
    "queue_depth": 4,
    "coalescer_pending": 1,
    "rids": [6, 7],
    "iterations": [12, 9],
    "timeline_time_s": 3e-4,
    # 2.25e-4 + 0.75e-4 == 3e-4 bit-for-bit (the addends share an
    # exponent scale, so the sum rounds to exactly 3e-4); most pairs,
    # e.g. 2e-4 + 1e-4, do not.
    "attribution": {"spmm": 2.25e-4, "vector": 0.75e-4},
}


class TestMetricRecords:
    def test_valid_metric_record(self, tmp_path):
        path = write(tmp_path, META, METRIC)
        assert validate_profile_jsonl(path) == []

    def test_metrics_alone_satisfy_the_content_check(self, tmp_path):
        # Like requests, a metric stream is substantive on its own.
        path = write(tmp_path, META, METRIC)
        assert validate_profile_jsonl(path) == []

    def test_unknown_scope_flagged(self, tmp_path):
        bad = dict(METRIC, scope="universe")
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("unknown metric scope" in e for e in errors)

    def test_shed_rate_above_one_flagged(self, tmp_path):
        bad = dict(METRIC, shed_rate=1.5)
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("above 1" in e for e in errors)

    def test_non_integer_window_count_flagged(self, tmp_path):
        bad = dict(METRIC, n=2.5)
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("'n'" in e for e in errors)

    def test_percentiles_numeric_or_null(self, tmp_path):
        bad = dict(METRIC, p95_s="slow")
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("p95_s" in e for e in errors)

    def test_negative_queue_depth_flagged(self, tmp_path):
        bad = dict(METRIC, queue_depth=-1)
        errors = validate_profile_jsonl(write(tmp_path, META, bad))
        assert any("queue_depth" in e for e in errors)


class TestAlertRecords:
    def test_valid_alert_record(self, tmp_path):
        path = write(tmp_path, META, METRIC, ALERT)
        assert validate_profile_jsonl(path) == []

    def test_unknown_state_flagged(self, tmp_path):
        bad = dict(ALERT, state="panicking")
        errors = validate_profile_jsonl(write(tmp_path, META, METRIC, bad))
        assert any("unknown alert state" in e for e in errors)

    def test_negative_burn_flagged(self, tmp_path):
        bad = dict(ALERT, burn_fast=-0.5)
        errors = validate_profile_jsonl(write(tmp_path, META, METRIC, bad))
        assert any("burn_fast" in e for e in errors)


class TestFlightrecRecords:
    def test_valid_flightrec_record(self, tmp_path):
        path = write(tmp_path, META, METRIC, FLIGHTREC)
        assert validate_profile_jsonl(path) == []

    def test_unknown_trigger_flagged(self, tmp_path):
        bad = dict(FLIGHTREC, trigger="gut_feeling")
        errors = validate_profile_jsonl(write(tmp_path, META, METRIC, bad))
        assert any("unknown flightrec trigger" in e for e in errors)

    def test_timeline_must_equal_billed_compute_bitwise(self, tmp_path):
        bad = dict(FLIGHTREC, timeline_time_s=3.0000001e-4)
        errors = validate_profile_jsonl(write(tmp_path, META, METRIC, bad))
        assert any("bit-for-bit" in e for e in errors)

    def test_attribution_must_sum_to_the_timeline(self, tmp_path):
        bad = dict(FLIGHTREC, attribution={"spmm": 2e-4, "vector": 2e-4})
        errors = validate_profile_jsonl(write(tmp_path, META, METRIC, bad))
        assert any("attribution terms sum" in e for e in errors)

    def test_non_numeric_attribution_flagged(self, tmp_path):
        bad = dict(FLIGHTREC, attribution={"spmm": "fast"})
        errors = validate_profile_jsonl(write(tmp_path, META, METRIC, bad))
        assert any("numeric 'attribution'" in e for e in errors)

    def test_width_and_lists_checked(self, tmp_path):
        bad = dict(FLIGHTREC, k=0, rids=7)
        errors = validate_profile_jsonl(write(tmp_path, META, METRIC, bad))
        assert any("k >= 1" in e for e in errors)
        assert any("'rids'" in e for e in errors)


#: Five ticks every 100 us: the running sums 1e-4, 2e-4,
#: 0.00030000000000000003 and 4e-4, then the end of the run at 4.5e-4.
GRID = {"sample_every_s": 1e-4, "n_ticks": 5, "end_t_s": 4.5e-4}
T3 = 1e-4 + 1e-4 + 1e-4


def grid_meta(**grid):
    return {"record": "meta", "kind": "serve", "monitor": {**GRID, **grid}}


def sample(t_s, key="*", **fields):
    scope = "global" if key == "*" else "tenant"
    depth = 0 if key == "*" else None
    return dict(METRIC, t_s=t_s, scope=scope, key=key, queue_depth=depth,
                **fields)


#: A change-only stream of two series: the global one changes at the
#: third tick, the tenant one never does.
CHANGE_ONLY = (
    sample(1e-4), sample(1e-4, key="t0"),
    sample(T3, n=7),
    sample(4.5e-4, n=7), sample(4.5e-4, key="t0"),
)


class TestMetricGrid:
    def test_change_only_series_are_valid(self, tmp_path):
        path = write(tmp_path, grid_meta(), *CHANGE_ONLY)
        assert validate_profile_jsonl(path) == []

    def test_end_tick_may_repeat_the_last_grid_tick(self, tmp_path):
        path = write(
            tmp_path, grid_meta(n_ticks=4, end_t_s=T3),
            sample(1e-4), sample(T3, n=7), sample(T3, n=8),
        )
        assert validate_profile_jsonl(path) == []

    def test_metrics_need_the_grid_in_the_meta_line(self, tmp_path):
        meta = {"record": "meta", "kind": "serve"}
        errors = validate_profile_jsonl(write(tmp_path, meta, *CHANGE_ONLY))
        assert any("tick grid" in e for e in errors)

    def test_off_grid_tick_rejected(self, tmp_path):
        # 3e-4 is not the running sum the monitor's replay reaches.
        records = list(CHANGE_ONLY)
        records[2] = sample(3e-4, n=7)
        errors = validate_profile_jsonl(write(tmp_path, grid_meta(), *records))
        assert any("off the monitor's tick grid" in e for e in errors)

    def test_series_must_strictly_increase(self, tmp_path):
        records = list(CHANGE_ONLY)
        records.insert(3, sample(2e-4, n=6))
        errors = validate_profile_jsonl(write(tmp_path, grid_meta(), *records))
        assert any("does not increase" in e for e in errors)
        records[3] = sample(T3, n=6)
        errors = validate_profile_jsonl(write(tmp_path, grid_meta(), *records))
        assert any("does not increase" in e for e in errors)

    def test_series_needs_its_first_tick(self, tmp_path):
        records = [r for r in CHANGE_ONLY if r is not CHANGE_ONLY[1]]
        errors = validate_profile_jsonl(write(tmp_path, grid_meta(), *records))
        assert any("tenant:t0 has no record at the first tick" in e
                   for e in errors)

    def test_series_needs_its_end_tick(self, tmp_path):
        errors = validate_profile_jsonl(
            write(tmp_path, grid_meta(), *CHANGE_ONLY[:4])
        )
        assert any("tenant:t0 ends at t_s=0.0001, not at the end tick" in e
                   for e in errors)

    def test_grid_past_the_end_of_the_run_rejected(self, tmp_path):
        errors = validate_profile_jsonl(
            write(tmp_path, grid_meta(n_ticks=10**9), *CHANGE_ONLY)
        )
        assert any("runs past end_t_s" in e for e in errors)

    def test_huge_grid_costs_only_its_records(self, tmp_path):
        # The grid promises a million ticks, but the series change only
        # at the first one: checking them must not build the whole grid.
        meta = grid_meta(
            sample_every_s=1e-300, n_ticks=10**6, end_t_s=1e300
        )
        path = write(tmp_path, meta, sample(1e-300), sample(1e300, n=7))
        tracemalloc.start()
        try:
            errors = validate_profile_jsonl(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert errors == []
        assert peak < 5 * 2**20

    def test_far_off_grid_record_rejected_without_a_walk(self, tmp_path):
        # A billion-tick grid and one record ~1e500 cadences out: it is
        # rejected without walking the running sums towards it.
        meta = grid_meta(
            sample_every_s=1e-300, n_ticks=10**9, end_t_s=1e300
        )
        path = write(
            tmp_path, meta,
            sample(1e-300), sample(1e200, n=7), sample(1e300, n=7),
        )
        start = time.perf_counter()
        errors = validate_profile_jsonl(path)
        assert time.perf_counter() - start < 1.0
        assert any("t_s=1e+200 is off the monitor's tick grid" in e
                   for e in errors)

    def test_walk_crosses_chunks_with_the_monitors_sums(self, tmp_path):
        # Tick 200,000 lies three chunks into the walk; its running sum
        # is accepted and the float one ulp above it is not.
        t = 0.0
        for _ in range(200_000):
            t += 1e-4
        meta = grid_meta(n_ticks=200_001, end_t_s=t + 5e-5)
        records = [sample(1e-4), sample(t, n=7), sample(t + 5e-5, n=7)]
        assert validate_profile_jsonl(write(tmp_path, meta, *records)) == []
        records[1] = sample(math.nextafter(t, math.inf), n=7)
        errors = validate_profile_jsonl(write(tmp_path, meta, *records))
        assert any("off the monitor's tick grid" in e for e in errors)

    def test_grid_past_the_float_range_rejected(self, tmp_path):
        errors = validate_profile_jsonl(
            write(tmp_path, grid_meta(end_t_s=10**400), *CHANGE_ONLY)
        )
        assert any("overflows a float" in e for e in errors)


class TestMetaLine:
    def test_first_non_blank_line_must_be_meta(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        path.write_text("\n" + json.dumps(OK_REQUEST) + "\n")
        errors = validate_profile_jsonl(path)
        assert any("first record must be 'meta'" in e for e in errors)

    def test_blank_lines_before_the_meta_line_allowed(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        path.write_text("\n" + "\n".join(map(json.dumps, (META, METRIC))))
        assert validate_profile_jsonl(path) == []

    def test_second_meta_line_rejected(self, tmp_path):
        errors = validate_profile_jsonl(
            write(tmp_path, META, OK_REQUEST, META)
        )
        assert errors == [
            f"{tmp_path / 'serve.jsonl'}:3: only the first record may be "
            "'meta'"
        ]


#: A one-span trace: a batch_compute root whose timeline reproduces its
#: billed time.
TRACE_SPAN = {
    "record": "span",
    "name": "compute",
    "path": "trace/t0/t0:0",
    "time_s": 1.25e-4,
    "trace_id": "t0",
    "span_id": "t0:0",
    "parent_id": None,
    "kind": "batch_compute",
    "start_s": 3e-4,
    "status": "ok",
    "attrs": {"timeline_time_s": 1.25e-4},
    "links": [],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


class TestMalformedFields:
    @given(
        record=st.sampled_from([OK_REQUEST, SHED_REQUEST, FLIGHTREC, METRIC]),
        mutate_span=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_one_field_replaced(
        self, tmp_path_factory, record, mutate_span, data
    ):
        """Replacing one field of a valid trace span or serve record with
        any JSON value yields a list of errors, never an exception, and
        a rejection names the field (the ``record`` tag aside: it picks
        the schema the other fields are checked against)."""
        records = [dict(TRACE_SPAN), dict(record)]
        target = records[0 if mutate_span else 1]
        field = data.draw(st.sampled_from(sorted(target)))
        target[field] = data.draw(JSON_VALUES)
        path = tmp_path_factory.mktemp("mutant") / "m.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in (META, *records)) + "\n"
        )
        errors = validate_profile_jsonl(path)
        assert isinstance(errors, list)
        if errors and field != "record":
            assert any(field in e for e in errors), (field, errors)

    def test_non_string_ids_and_links_rejected(self, tmp_path):
        for field, value in (
            ("trace_id", ["a"]), ("span_id", {}), ("parent_id", ["a"]),
            ("links", 2), ("links", None),
        ):
            bad = dict(TRACE_SPAN, **{field: value})
            errors = validate_profile_jsonl(write(tmp_path, META, bad))
            assert any(repr(field) in e for e in errors), (field, errors)

    def test_values_json_or_float_arithmetic_cannot_hold(self, tmp_path):
        # A 5000-digit integer and 100k open brackets do not parse; an
        # integer term past the float range cannot be summed.
        path = tmp_path / "serve.jsonl"
        path.write_text("\n".join([
            json.dumps(META),
            '{"record": "request", "node": ' + "1" * 5000 + "}",
            "[" * 100_000,
            json.dumps(dict(FLIGHTREC, attribution={"spmm": 10**400})),
            json.dumps(METRIC),
        ]) + "\n")
        errors = validate_profile_jsonl(path)
        assert {e.split(":")[1] for e in errors} == {"2", "3", "4"}
        assert any(
            "attribution terms sum to nan, not timeline_time_s" in e
            for e in errors
        )
