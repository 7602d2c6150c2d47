"""Kernel timeline traces and the Chrome export."""

import json

import numpy as np
import pytest

from repro.core.acsr import ACSRFormat
from repro.formats.base import FormatCapacityError
from repro.formats.convert import available_formats, build_format
from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10, Precision
from repro.gpu.kernel import KernelWork
from repro.gpu.simulator import simulate_kernel
from repro.gpu.trace import KernelTrace, TraceEvent

from ..conftest import make_powerlaw_csr


def timing(n=100):
    w = KernelWork(
        name="k",
        compute_insts=np.full(n, 10.0),
        dram_bytes=np.full(n, 256.0),
        mem_ops=np.full(n, 2.0),
        flops=1.0,
    )
    return simulate_kernel(GTX_TITAN, w)


class TestEvents:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(name="x", start_s=0.0, duration_s=-1.0)

    def test_end(self):
        ev = TraceEvent(name="x", start_s=1.0, duration_s=2.0)
        assert ev.end_s == 3.0


class TestTimeline:
    def test_sequential_events_advance_cursor(self):
        tr = KernelTrace()
        a = tr.append_timing(timing())
        b = tr.append_timing(timing())
        assert b.start_s == pytest.approx(a.end_s)
        assert tr.duration_s == pytest.approx(b.end_s)

    def test_concurrent_events_overlay(self):
        tr = KernelTrace()
        a = tr.append_timing(timing(), stream=0, concurrent=True)
        b = tr.append_timing(timing(), stream=1, concurrent=True)
        assert a.start_s == b.start_s == 0.0

    def test_spans(self):
        tr = KernelTrace()
        tr.add_span("launch", 5e-6)
        ev = tr.append_timing(timing())
        assert ev.start_s == pytest.approx(5e-6)

    def test_cursors_are_per_stream(self):
        """A span on stream 0 must not delay stream 1's next event."""
        tr = KernelTrace()
        tr.add_span("launch", 5e-6, stream=0)
        other = tr.append_timing(timing(), stream=1)
        assert other.start_s == 0.0
        again = tr.append_timing(timing(), stream=0)
        assert again.start_s == pytest.approx(5e-6)

    def test_explicit_start_places_event_exactly(self):
        tr = KernelTrace()
        ev = tr.append_timing(timing(), start_s=42e-6)
        assert ev.start_s == pytest.approx(42e-6)
        assert tr.cursor_s(0) == pytest.approx(ev.end_s)
        sp = tr.add_span("sync", 1e-6, stream=3, start_s=10e-6)
        assert sp.start_s == pytest.approx(10e-6)

    def test_explicit_start_never_rewinds_cursor(self):
        tr = KernelTrace()
        first = tr.append_timing(timing())
        tr.append_timing(timing(), start_s=0.0, concurrent=True)
        nxt = tr.append_timing(timing())
        assert nxt.start_s == pytest.approx(first.end_s)

    def test_summary_mentions_events(self):
        tr = KernelTrace("GTXTitan")
        tr.add_span("launch", 5e-6)
        tr.append_timing(timing())
        s = tr.summary()
        assert "GTXTitan" in s and "launch" in s and "k" in s


class TestChromeExport:
    def test_schema(self, tmp_path):
        tr = KernelTrace("dev")
        tr.add_span("launch", 1e-6)
        tr.append_timing(timing(), stream=2)
        doc = tr.to_chrome_trace()
        assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
        assert doc["traceEvents"][1]["tid"] == "stream 2"
        assert doc["traceEvents"][1]["args"]["warps"] == 100

        path = tr.save(tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == 2

    def test_round_trip_preserves_ts_dur_tid(self, tmp_path):
        """JSON round-trip: ts/dur in microseconds, tid from the stream."""
        tr = KernelTrace("dev")
        spans = [
            tr.add_span("a", 3e-6, stream=0),
            tr.add_span("b", 7e-6, stream=2, start_s=1e-6),
        ]
        loaded = json.loads((tr.save(tmp_path / "rt.json")).read_text())
        for ev, out in zip(spans, loaded["traceEvents"]):
            assert out["ts"] == pytest.approx(ev.start_s * 1e6)
            assert out["dur"] == pytest.approx(ev.duration_s * 1e6)
            assert out["tid"] == f"stream {ev.stream}"
            assert out["pid"] == "dev"

    def test_per_event_device_becomes_pid(self):
        tr = KernelTrace("engine")
        tr.add_span("a", 1e-6, device="GPU#0")
        tr.add_span("b", 1e-6)
        doc = tr.to_chrome_trace()
        assert doc["traceEvents"][0]["pid"] == "GPU#0"
        assert doc["traceEvents"][1]["pid"] == "engine"

    def test_engine_trace_round_trips_with_true_starts(self, tmp_path):
        """The stream engine's trace survives a JSON round-trip intact."""
        from repro.gpu.streams import StreamEngine

        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("compute", 50e-6)
        eng.stream().copy("h2d", 100_000)
        res = eng.run()
        loaded = json.loads((res.trace.save(tmp_path / "e.json")).read_text())
        by_name = {e["name"]: e for e in loaded["traceEvents"]}
        assert by_name["compute"]["tid"] == "stream 0"
        assert by_name["h2d"]["tid"] == "stream 1"
        assert by_name["h2d"]["ts"] == 0.0  # overlapped, not serialised


class TestMultiStreamCursors:
    def test_overlapping_streams_keep_independent_cursors(self):
        """Concurrent events on different streams never push each
        other's cursors, even when their windows overlap."""
        tr = KernelTrace()
        a = tr.append_timing(timing(), stream=0)
        b = tr.append_timing(timing(), stream=1, concurrent=True)
        assert b.start_s == 0.0
        assert tr.cursor_s(0) == a.end_s
        # A concurrent overlay never advances its stream's cursor.
        assert tr.cursor_s(1) == 0.0
        # A later-placed span on stream 1 inside stream 0's window.
        sp = tr.add_span("sync", 1e-6, stream=1, start_s=b.end_s / 2)
        assert sp.start_s == b.end_s / 2
        # Spans do advance: the cursor jumps to the span's end.
        assert tr.cursor_s(1) == sp.end_s
        assert tr.cursor_s(0) == a.end_s  # stream 0 untouched

    def test_cursor_of_untouched_stream_is_zero(self):
        tr = KernelTrace()
        tr.add_span("launch", 5e-6, stream=3)
        assert tr.cursor_s(0) == 0.0
        assert tr.cursor_s(3) == pytest.approx(5e-6)

    def test_zero_duration_span_advances_nothing(self):
        tr = KernelTrace()
        tr.add_span("marker", 0.0, stream=0)
        assert tr.cursor_s(0) == 0.0
        ev = tr.append_timing(timing())
        assert ev.start_s == 0.0

    def test_back_to_back_spans_tile_their_stream(self):
        tr = KernelTrace()
        a = tr.add_span("a", 2e-6, stream=1)
        b = tr.add_span("b", 3e-6, stream=1)
        assert b.start_s == a.end_s
        assert tr.cursor_s(1) == pytest.approx(5e-6)

    def test_interleaved_explicit_starts_never_rewind(self):
        """An early explicit start inside an occupied window records the
        overlap but leaves the high-water cursor alone."""
        tr = KernelTrace()
        first = tr.add_span("long", 10e-6, stream=0)
        tr.add_span("overlap", 1e-6, stream=0, start_s=2e-6)
        assert tr.cursor_s(0) == first.end_s
        nxt = tr.append_timing(timing(), stream=0)
        assert nxt.start_s == first.end_s


class TestChromeSchemaValidator:
    def test_kernel_trace_passes(self):
        from repro.obs import validate_chrome_trace

        tr = KernelTrace("dev")
        tr.add_span("launch", 1e-6)
        tr.append_timing(timing(), stream=2)
        tr.append_timing(timing(), stream=2)
        assert validate_chrome_trace(tr.to_chrome_trace()) == []

    def test_engine_trace_passes(self):
        from repro.gpu.streams import StreamEngine
        from repro.obs import validate_chrome_trace

        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("compute", 50e-6)
        eng.stream().copy("h2d", 100_000)
        assert validate_chrome_trace(eng.run().trace.to_chrome_trace()) == []

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
    def test_spmv_trace(self, tmp_path):
        csr = make_powerlaw_csr(n_rows=4000, seed=151, max_degree=1200)
        acsr = ACSRFormat.from_csr(csr)
        tr = acsr.trace(GTX_TITAN)
        assert tr.duration_s > 0
        names = [e.name for e in tr.events]
        assert any("launch" in n for n in names)
        assert any(n.startswith("acsr") for n in names)
        tr.save(tmp_path / "acsr.json")


class TestFormatTrace:
    def test_hyb_trace_shows_both_launches(self):
        from repro.formats.hyb import HYBFormat

        csr = make_powerlaw_csr(n_rows=2000, seed=161, max_degree=500)
        hyb = HYBFormat.from_csr(csr)
        tr = hyb.trace(GTX_TITAN)
        names = [e.name for e in tr.events]
        assert any("hyb-ell" in n for n in names)
        assert any("hyb-coo" in n for n in names)
        # one kernel event per launch, its launch overhead included
        assert [e.category for e in tr.events] == ["kernel", "kernel"]

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
                tr = fmt.trace(device)
                assert tr.duration_s == fmt.spmv_time_s(device), (name, device)
                checked.add(name)
        assert {"csr", "hyb", "acsr"} <= checked
