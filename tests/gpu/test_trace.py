"""Chrome-trace schema checks and the modelled-timeline views."""

import numpy as np

from repro.core.acsr import ACSRFormat
from repro.formats.base import FormatCapacityError
from repro.formats.convert import available_formats, build_format
from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10
from repro.gpu.kernel import KernelWork
from repro.obs import validate_chrome_trace
from repro.obs.timeline import timeline_from_format
from repro.serve import BatchRecord, worker_chrome_trace

from ..conftest import make_powerlaw_csr


def batch(batch_id, worker, start, formation=1e-6, compute=2e-6):
    return BatchRecord(
        batch_id=batch_id,
        graph="WIK",
        worker=worker,
        k=2,
        close_s=start,
        start_s=start,
        formation_s=formation,
        compute_s=compute,
        end_s=(start + formation) + compute,
    )


class TestTimeline:
    def test_summary_mentions_events(self):
        """The one-screen text view of a modelled SpMV is its timeline's
        Gantt: device, lanes and the pooled launch bill."""
        csr = make_powerlaw_csr(n_rows=2000, seed=151, max_degree=1200)
        text = timeline_from_format(
            ACSRFormat.from_csr(csr), GTX_TITAN
        ).gantt()
        assert "GTXTitan" in text and "host" in text and "pool" in text


class TestChromeSchemaValidator:
    def test_kernel_trace_passes(self):
        """Back-to-back batches on one worker after an idle gap."""
        first = batch(0, 0, 1e-6)
        batches = [first, batch(1, 0, first.end_s)]
        doc = worker_chrome_trace(GTX_TITAN, 1, batches)
        assert validate_chrome_trace(doc) == []

    def test_engine_trace_passes(self):
        """The serve engine's worker trace, two workers interleaved."""
        batches = [batch(0, 0, 0.0), batch(1, 1, 1e-6), batch(2, 0, 9e-6)]
        doc = worker_chrome_trace(GTX_TITAN, 2, batches)
        assert validate_chrome_trace(doc) == []

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
