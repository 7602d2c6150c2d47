"""The stream engine's Chrome trace and the modelled-timeline views."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acsr import ACSRFormat
from repro.formats.base import FormatCapacityError
from repro.formats.convert import available_formats, build_format
from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10
from repro.gpu.kernel import KernelWork
from repro.gpu.streams import CopyDirection, StreamEngine
from repro.obs import validate_chrome_trace
from repro.obs.timeline import timeline_from_format

from ..conftest import make_powerlaw_csr


def work(n=100, name="k", k=1):
    return KernelWork(
        name=name,
        compute_insts=np.full(n, 10.0),
        dram_bytes=np.full(n, 256.0),
        mem_ops=np.full(n, 2.0),
        flops=1.0,
        k=k,
    )


def events_by_name(result):
    return {e["name"]: e for e in result.chrome_trace()["traceEvents"]}


class TestTimeline:
    """Per-stream placement as the engine's Chrome trace draws it:
    ops on one stream run in order, ops on different streams overlap."""

    def test_sequential_events_advance_cursor(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().launch(work(name="a")).launch(work(name="b"))
        ev = events_by_name(eng.run())
        assert ev["a"]["ts"] == 0.0
        assert ev["b"]["ts"] == pytest.approx(ev["a"]["ts"] + ev["a"]["dur"])

    def test_concurrent_events_overlay(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().launch(work(name="a"))
        eng.stream().launch(work(name="b"))
        ev = events_by_name(eng.run())
        assert ev["a"]["ts"] == ev["b"]["ts"] == 0.0
        assert ev["b"]["tid"] == "stream 1"

    def test_spans(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("launch", 5e-6).launch(work(name="k"))
        ev = events_by_name(eng.run())
        assert ev["launch"]["cat"] == "span"
        assert ev["k"]["ts"] == pytest.approx(5.0)

    def test_cursors_are_per_stream(self):
        """A span on stream 0 must not delay stream 1's next op."""
        eng = StreamEngine(GTX_TITAN)
        s0, s1 = eng.stream(), eng.stream()
        s0.span("launch", 5e-6, utilization=0.0).launch(work(name="again"))
        s1.launch(work(name="other"))
        ev = events_by_name(eng.run())
        assert ev["other"]["ts"] == 0.0
        assert ev["again"]["ts"] == pytest.approx(5.0)

    def test_summary_mentions_events(self):
        """The one-screen text view of a modelled SpMV is its timeline's
        Gantt: device, lanes and the pooled launch bill."""
        csr = make_powerlaw_csr(n_rows=2000, seed=151, max_degree=1200)
        text = timeline_from_format(
            ACSRFormat.from_csr(csr), GTX_TITAN
        ).gantt()
        assert "GTXTitan" in text and "host" in text and "pool" in text


class TestChromeExport:
    def test_schema(self, tmp_path):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("launch", 1e-6)
        eng.stream()
        eng.stream().launch(work())
        doc = eng.run().chrome_trace()
        assert doc["displayTimeUnit"] == "ns"
        assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
        assert doc["traceEvents"][1]["tid"] == "stream 2"
        assert doc["traceEvents"][1]["args"]["warps"] == 100

        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc, indent=1))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == 2

    def test_round_trip_preserves_ts_dur_tid(self, tmp_path):
        """JSON round-trip: ts/dur in microseconds, tid from the stream."""
        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("a", 3e-6)
        eng.stream()
        eng.stream().span("pad", 1e-6, utilization=0.0).span("b", 7e-6)
        res = eng.run()
        path = tmp_path / "rt.json"
        path.write_text(json.dumps(res.chrome_trace(), indent=1))
        loaded = json.loads(path.read_text())["traceEvents"]
        assert [e["name"] for e in loaded] == ["pad", "a", "b"]
        records = {r.name: r for r in res.records}
        for out in loaded:
            r = records[out["name"]]
            assert out["ts"] == r.start_s * 1e6
            assert out["dur"] == r.duration_s * 1e6
            assert out["tid"] == f"stream {r.stream}"
            assert out["pid"] == "GTXTitan"

    def test_per_event_device_becomes_pid(self):
        """A multi-device engine names each process row ``name#index``."""
        eng = StreamEngine((GTX_TITAN, TESLA_K10))
        eng.stream(device=0).span("a", 1e-6)
        eng.stream(device=1).span("b", 1e-6)
        ev = events_by_name(eng.run())
        assert ev["a"]["pid"] == "GTXTitan#0"
        assert ev["b"]["pid"] == "TeslaK10#1"

    def test_engine_trace_round_trips_with_true_starts(self, tmp_path):
        """The stream engine's trace survives a JSON round-trip intact."""
        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("compute", 50e-6)
        eng.stream().copy("h2d", 100_000)
        path = tmp_path / "e.json"
        path.write_text(json.dumps(eng.run().chrome_trace(), indent=1))
        loaded = json.loads(path.read_text())
        by_name = {e["name"]: e for e in loaded["traceEvents"]}
        assert by_name["compute"]["tid"] == "stream 0"
        assert by_name["h2d"]["tid"] == "stream 1"
        assert by_name["h2d"]["cat"] == "copy"
        assert by_name["h2d"]["ts"] == 0.0  # overlapped, not serialised

    def test_batched_launch_is_labelled_and_shared_flagged(self):
        """A ``k > 1`` launch carries ``[k=...]``; co-resident saturating
        grids that stretch each other are flagged ``shared``."""
        eng = StreamEngine(GTX_TITAN)
        eng.stream().launch(work(n=200_000, name="wide", k=4))
        eng.stream().launch(work(n=200_000, name="other"))
        ev = events_by_name(eng.run())
        assert ev["wide[k=4]"]["args"]["k"] == 4
        assert ev["wide[k=4]"]["args"]["shared"] is True
        assert ev["other"]["args"]["shared"] is True


class TestMultiStreamCursors:
    def test_overlapping_streams_keep_independent_cursors(self):
        """Ops on different streams never push each other's placement,
        even when their windows overlap."""
        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("long", 10e-6, utilization=0.0)
        eng.stream().span("short", 2e-6, utilization=0.0).span(
            "sync", 1e-6, utilization=0.0
        )
        ev = events_by_name(eng.run())
        assert ev["sync"]["ts"] == pytest.approx(2.0)
        assert ev["long"]["ts"] == 0.0

    def test_cursor_of_untouched_stream_is_zero(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream()
        eng.stream().span("launch", 5e-6)
        res = eng.run()
        assert all(r.stream == 1 for r in res.records)
        assert max(r.end_s for r in res.records) == pytest.approx(5e-6)
        tids = {e["tid"] for e in res.chrome_trace()["traceEvents"]}
        assert tids == {"stream 1"}

    def test_zero_duration_span_advances_nothing(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("marker", 0.0).launch(work(name="k"))
        ev = events_by_name(eng.run())
        assert ev["marker"]["dur"] == 0.0
        assert ev["k"]["ts"] == 0.0

    def test_back_to_back_spans_tile_their_stream(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream()
        eng.stream().span("a", 2e-6).span("b", 3e-6)
        res = eng.run()
        ev = events_by_name(res)
        assert ev["b"]["ts"] == ev["a"]["ts"] + ev["a"]["dur"]
        assert max(
            r.end_s for r in res.records if r.stream == 1
        ) == pytest.approx(5e-6)


@st.composite
def engine_programs(draw):
    """A random engine program: one or two devices, up to four streams,
    launches (some with DP children or ``k > 1``), spans of length 0 and
    above, copies both ways, and event record/wait pairs.  A stream only
    waits on events of lower-numbered streams, so no program deadlocks."""
    n_dev = draw(st.integers(1, 2))
    eng = StreamEngine(tuple([GTX_TITAN] * n_dev))
    streams = [
        eng.stream(device=draw(st.integers(0, n_dev - 1)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    recorded: list[list] = [[] for _ in streams]
    for j in range(draw(st.integers(1, 12))):
        i = draw(st.integers(0, len(streams) - 1))
        s = streams[i]
        kind = draw(st.sampled_from(["launch", "span", "copy", "record", "wait"]))
        if kind == "launch":
            s.launch(
                work(
                    n=draw(st.integers(1, 30_000)),
                    name=f"k{j}",
                    k=draw(st.sampled_from([1, 1, 4])),
                ),
                dp_children=draw(st.sampled_from([0, 0, 50, 3000])),
            )
        elif kind == "span":
            s.span(
                f"sp{j}",
                draw(st.sampled_from([0.0, 1e-6, 2.5e-5])),
                utilization=draw(st.sampled_from([0.0, 0.4, 1.0])),
            )
        elif kind == "copy":
            s.copy(
                f"c{j}",
                draw(st.integers(0, 10**6)),
                direction=draw(st.sampled_from(list(CopyDirection))),
            )
        elif kind == "record":
            recorded[i].append(s.record())
        else:
            waitable = [e for evs in recorded[:i] for e in evs]
            if waitable:
                s.wait(draw(st.sampled_from(waitable)))
    return eng


class TestChromeTraceProperty:
    @settings(max_examples=60, deadline=None)
    @given(engine_programs())
    def test_one_event_per_record_in_finish_order(self, eng):
        res = eng.run()
        doc = res.chrome_trace()
        events = doc["traceEvents"]
        assert len(events) == len(res.records)
        finish = sorted(res.records, key=lambda r: (r.end_s, r.op_id))
        for ev, r in zip(events, finish):
            assert ev["name"].startswith(r.name)
            assert ev["cat"] == r.kind
            assert ev["ts"] == r.start_s * 1e6
            assert ev["dur"] == r.duration_s * 1e6
            assert ev["tid"] == f"stream {r.stream}"
        ends = [r.end_s for r in finish]
        assert ends == sorted(ends)
        assert validate_chrome_trace(doc) == []


class TestChromeSchemaValidator:
    def test_kernel_trace_passes(self):
        """Back-to-back launches on one stream after a span."""
        eng = StreamEngine(GTX_TITAN)
        eng.stream()
        eng.stream()
        eng.stream().span("launch", 1e-6).launch(work()).launch(work())
        assert validate_chrome_trace(eng.run().chrome_trace()) == []

    def test_engine_trace_passes(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("compute", 50e-6)
        eng.stream().copy("h2d", 100_000)
        assert validate_chrome_trace(eng.run().chrome_trace()) == []

    def test_counter_track_passes(self):
        from repro.gpu.simulator import simulate_kernel as sim
        from repro.obs import (
            Profiler,
            launch_counters,
            validate_chrome_trace,
        )

        prof = Profiler("p")
        for n in (50, 100):
            w = KernelWork(
                name="k",
                compute_insts=np.full(n, 10.0),
                dram_bytes=np.full(n, 256.0),
                mem_ops=np.full(n, 2.0),
                flops=1.0,
            )
            prof.record(launch_counters(GTX_TITAN, w, sim(GTX_TITAN, w)))
        doc = prof.to_chrome_counters()
        assert {e["ph"] for e in doc["traceEvents"]} == {"C"}
        assert validate_chrome_trace(doc) == []

    def test_flags_missing_fields_and_bad_ph(self):
        from repro.obs import validate_chrome_trace

        errors = validate_chrome_trace(
            {
                "traceEvents": [
                    {"name": "a", "cat": "c", "ph": "X", "ts": 0.0,
                     "pid": "p", "tid": "t", "dur": 1.0},
                    {"name": "b", "cat": "c", "ph": "B", "ts": 0.0,
                     "pid": "p", "tid": "t"},
                    {"cat": "c", "ph": "X", "ts": 0.0, "pid": "p"},
                ]
            }
        )
        assert any("ph" in e for e in errors)
        assert any("name" in e for e in errors)

    def test_flags_ts_regression_within_a_lane(self):
        from repro.obs import validate_chrome_trace

        ev = {"name": "a", "cat": "c", "ph": "X", "pid": "p",
              "tid": "t", "dur": 1.0}
        errors = validate_chrome_trace(
            {"traceEvents": [
                {**ev, "ts": 5.0},
                {**ev, "ts": 1.0},
            ]}
        )
        assert any("monoton" in e or "ts" in e for e in errors)
        # Different lanes may interleave freely.
        assert validate_chrome_trace(
            {"traceEvents": [
                {**ev, "ts": 5.0},
                {**ev, "tid": "u", "ts": 1.0},
            ]}
        ) == []

    def test_flags_non_numeric_counter_args(self):
        from repro.obs import validate_chrome_trace

        errors = validate_chrome_trace(
            {"traceEvents": [
                {"name": "m", "cat": "c", "ph": "C", "ts": 0.0,
                 "pid": "p", "args": {"v": "high"}},
            ]}
        )
        assert errors


class TestAcsrTrace:
    def test_spmv_trace(self):
        """ACSR's timeline draws the host launch bill, then the pool; its
        total is the model's SpMV time bit for bit."""
        csr = make_powerlaw_csr(n_rows=4000, seed=151, max_degree=1200)
        acsr = ACSRFormat.from_csr(csr)
        tl = timeline_from_format(acsr, GTX_TITAN)
        assert tl.time_s == acsr.spmv_time_s(GTX_TITAN)
        names = [e.name for lane in tl.lanes for e in lane.events]
        assert "launch-bill" in names
        assert any(n.startswith("acsr") for n in names)


class TestFormatTrace:
    def test_hyb_trace_shows_both_launches(self):
        from repro.formats.hyb import HYBFormat

        csr = make_powerlaw_csr(n_rows=2000, seed=161, max_degree=500)
        hyb = HYBFormat.from_csr(csr)
        tl = timeline_from_format(hyb, GTX_TITAN)
        (lane,) = tl.lanes
        assert [e.name for e in lane.events] == ["hyb-ell", "hyb-coo"]
        # one kernel event per launch, its launch overhead included
        assert [e.category for e in lane.events] == ["kernel", "kernel"]
        assert lane.events[1].start_s == lane.events[0].end_s

    def test_trace_duration_matches_spmv_time(self):
        """Bit-for-bit, for every registry format on every device."""
        csr = make_powerlaw_csr(n_rows=2000, seed=163, max_degree=500)
        checked = set()
        for name in available_formats():
            for device in (GTX_580, TESLA_K10, GTX_TITAN):
                kwargs = {"device": device} if name == "acsr" else {}
                try:
                    fmt = build_format(name, csr, **kwargs)
                except (FormatCapacityError, ValueError):
                    continue
                tl = timeline_from_format(fmt, device)
                assert tl.time_s == fmt.spmv_time_s(device), (name, device)
                checked.add(name)
        assert {"csr", "hyb", "acsr"} <= checked
