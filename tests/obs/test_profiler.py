"""Spans, explicit records, and the three exporters."""

import csv
import json

import numpy as np

from repro.gpu.device import GTX_TITAN, Precision
from repro.gpu.memory import GatherProfile
from repro.gpu.simulator import simulate_kernel
from repro.kernels.common import gang_row_work
from repro.obs import (
    Profiler,
    chrome_counter_trace,
    launch_counters,
    launch_metrics,
    validate_profile_jsonl,
)


def _work(lengths=(64, 64, 128)):
    return gang_row_work(
        "t",
        np.asarray(lengths, dtype=np.int64),
        vector_size=32,
        device=GTX_TITAN,
        n_cols=4096,
        precision=Precision.SINGLE,
        profile=GatherProfile(reuse=2.0, clustering=0.5),
    )


def _counters(lengths=(64, 64, 128)):
    w = _work(lengths)
    return launch_counters(GTX_TITAN, w, simulate_kernel(GTX_TITAN, w))


class TestSpans:
    def test_nesting_shapes_the_tree(self):
        prof = Profiler("app")
        with prof.span("outer", epoch=0):
            prof.record(_counters())
            with prof.span("inner"):
                prof.record(_counters())
        paths = [p for p, _ in prof.root.walk()]
        assert ("app",) in paths
        assert ("app", "outer") in paths
        assert ("app", "outer", "inner") in paths
        outer = prof.root.children[0]
        assert outer.attrs == {"epoch": 0}
        assert len(outer.records) == 1
        assert len(outer.all_records()) == 2

    def test_total_aggregates_depth_first(self):
        prof = Profiler("app")
        with prof.span("a"):
            prof.record(_counters())
        with prof.span("b"):
            prof.record(_counters())
        total = prof.total()
        assert total.n_launches == 2
        one = _counters()
        assert total.time_s == 2 * one.time_s

    def test_explicit_span_duration_wins(self):
        prof = Profiler("app")
        with prof.span("maintenance") as sp:
            sp.duration_s = 1.5
        assert prof.root.children[0].total_time_s == 1.5

    def test_record_feeds_registry(self, tmp_path):
        # The recorded launches feed the written metrics record.
        prof = Profiler("app")
        cs = _counters()
        prof.record(cs)
        prof.record(cs)
        path = prof.to_jsonl(tmp_path / "p.jsonl")
        line = json.loads(path.read_text().splitlines()[-1])
        assert line["record"] == "metrics"
        metrics = line["metrics"]
        assert metrics == launch_metrics(prof.all_records())
        assert metrics["launches_total"]["value"] == 2.0
        assert metrics["dram_bytes_total"]["value"] == 2 * cs.dram_bytes
        assert metrics["launch_duration_seconds"]["count"] == 2
        assert metrics["achieved_occupancy"] == {
            "type": "gauge",
            "value": cs.achieved_occupancy,
        }


class TestJsonl:
    def _profiled(self):
        prof = Profiler("export")
        with prof.span("iter", i=1):
            prof.record(_counters())
        return prof

    def test_empty_profile_has_empty_metrics(self, tmp_path):
        path = Profiler("idle").to_jsonl(tmp_path / "p.jsonl")
        line = json.loads(path.read_text().splitlines()[-1])
        assert line == {"record": "metrics", "metrics": {}}

    def test_empty_profile_span_time_is_a_float(self, tmp_path):
        """A span over no records sums from 0.0: the root span line
        writes ``0.0`` like every other span's float, not the int ``0``."""
        path = Profiler("empty").to_jsonl(tmp_path / "p.jsonl")
        text = path.read_text()
        [span] = [
            json.loads(line)
            for line in text.splitlines()
            if json.loads(line)["record"] == "span"
        ]
        assert type(span["time_s"]) is float and span["time_s"] == 0.0
        assert '"time_s": 0.0' in text
        assert type(Profiler("empty").root.total_time_s) is float

    def test_roundtrip_validates(self, tmp_path):
        path = tmp_path / "p.jsonl"
        self._profiled().to_jsonl(path, matrix="WIK")
        assert validate_profile_jsonl(path) == []
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["record"] == "meta"
        assert lines[0]["matrix"] == "WIK"
        kinds = {l["record"] for l in lines}
        assert kinds >= {"meta", "span", "launch", "aggregate", "metrics"}

    def test_validator_flags_corruption(self, tmp_path):
        path = tmp_path / "p.jsonl"
        self._profiled().to_jsonl(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        # Corrupt a counter value out of range.
        for rec in lines:
            if rec["record"] == "launch":
                rec["achieved_occupancy"] = 3.0
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        assert any("outside [0, 1]" in e for e in validate_profile_jsonl(path))

    def test_validator_requires_meta_first(self, tmp_path):
        path = tmp_path / "p.jsonl"
        self._profiled().to_jsonl(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
        assert any(
            "first record must be 'meta'" in e
            for e in validate_profile_jsonl(path)
        )

    def test_validator_rejects_garbage_and_empty(self, tmp_path):
        garbage = tmp_path / "g.jsonl"
        garbage.write_text("not json\n")
        assert validate_profile_jsonl(garbage)
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        assert validate_profile_jsonl(empty)
        assert validate_profile_jsonl(tmp_path / "missing.jsonl")


class TestCsv:
    def test_one_row_per_launch(self, tmp_path):
        prof = Profiler("csv")
        prof.record(_counters())
        prof.record(_counters((5, 6, 7)))
        path = tmp_path / "p.csv"
        prof.to_csv(path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert 0.0 <= float(rows[0]["achieved_occupancy"]) <= 1.0
        assert rows[0]["bound"] in ("compute", "memory", "latency", "launch")


class TestChromeCounters:
    def test_counter_track_events(self):
        records = [_counters(), _counters((5, 6))]
        trace = chrome_counter_trace(records, name="t")
        events = trace["traceEvents"]
        # Four tracks per launch.
        assert len(events) == 8
        assert {e["ph"] for e in events} == {"C"}
        tracks = {e["name"] for e in events}
        assert tracks == {
            "occupancy",
            "warp_efficiency",
            "dram_pct_of_peak",
            "gld_coalescing",
        }
        # Launches laid end to end: second launch's events start later.
        ts = sorted({e["ts"] for e in events})
        assert len(ts) == 2 and ts[1] > ts[0]
        json.dumps(trace)
