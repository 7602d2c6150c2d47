"""Worker placement and the workers' Chrome trace."""

from __future__ import annotations

import pytest

from repro.gpu.device import GTX_TITAN
from repro.obs import validate_chrome_trace
from repro.serve import (
    BatchRecord,
    ServeConfig,
    ServeEngine,
    TraceConfig,
    WorkerPool,
    generate_trace,
    worker_chrome_trace,
)


class TestWorkerPool:
    def test_needs_a_worker(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_idle_pool_starts_immediately(self):
        pool = WorkerPool(2)
        worker, start = pool.place(3.0)
        assert (worker, start) == (0, 3.0)
        assert pool.min_free_at() == 0.0

    def test_earliest_free_wins_ties_to_lowest_index(self):
        pool = WorkerPool(3)
        pool.commit(0, 5.0)
        worker, start = pool.place(1.0)
        assert worker == 1  # 1 and 2 both free at 0; lowest index wins
        pool.commit(1, 4.0)
        worker, start = pool.place(1.0)
        assert (worker, start) == (2, 1.0)
        pool.commit(2, 6.0)
        # All busy now: earliest-free is worker 1 at t=4.
        worker, start = pool.place(1.0)
        assert (worker, start) == (1, 4.0)
        assert pool.min_free_at() == 4.0

    def test_commit_validation(self):
        pool = WorkerPool(1)
        pool.commit(0, 2.0)
        with pytest.raises(ValueError):
            pool.commit(0, 1.0)  # workers run in order
        with pytest.raises(ValueError):
            pool.commit(5, 3.0)


def record(batch_id, worker, start, formation=1e-4, compute=2e-4, close=None):
    return BatchRecord(
        batch_id=batch_id,
        graph="WIK",
        worker=worker,
        k=2,
        close_s=start if close is None else close,
        start_s=start,
        formation_s=formation,
        compute_s=compute,
        end_s=(start + formation) + compute,
    )


@pytest.fixture(scope="module")
def served():
    """One small RWR serve run per pool size, 1 to 4 workers."""
    runs = {}
    for gpus in (1, 2, 3, 4):
        engine = ServeEngine(GTX_TITAN, ServeConfig(gpus=gpus))
        engine.register("WIK", scale=0.002, format_name="csr")
        trace = generate_trace(
            TraceConfig(n_requests=48, seed=3, mean_interarrival_s=20e-6),
            engine.registered_graphs(),
        )
        runs[gpus] = engine.run_trace(trace)
    return runs


def trace_of(result):
    return worker_chrome_trace(
        GTX_TITAN, result.config.gpus, result.batches
    )["traceEvents"]


class TestWorkerChromeTrace:
    @pytest.mark.parametrize("gpus", [1, 2, 3, 4])
    def test_last_event_ends_at_makespan(self, served, gpus):
        """The last event is the compute of the batch that ends the run,
        drawn to the serve loop's makespan itself, not an accumulation."""
        result = served[gpus]
        last = trace_of(result)[-1]
        (b,) = [
            b for b in result.batches
            if last["name"] == f"rwr-batch/WIK/b{b.batch_id}[k={b.k}]"
        ]
        assert b.end_s == result.makespan_s
        formed = b.start_s + b.formation_s
        assert last["ts"] == formed * 1e6
        assert last["dur"] == (result.makespan_s - formed) * 1e6

    @pytest.mark.parametrize("gpus", [1, 2, 3, 4])
    def test_events_start_at_record_times(self, served, gpus):
        result = served[gpus]
        by_name = {e["name"]: e for e in trace_of(result)}
        for b in result.batches:
            form = by_name[f"form/WIK/b{b.batch_id}"]
            compute = by_name[f"rwr-batch/WIK/b{b.batch_id}[k={b.k}]"]
            assert form["ts"] == b.start_s * 1e6
            assert compute["ts"] == (b.start_s + b.formation_s) * 1e6
            assert compute["tid"] == form["tid"] == f"stream {b.worker}"

    @pytest.mark.parametrize("gpus", [1, 2, 3, 4])
    def test_trace_validates(self, served, gpus):
        doc = worker_chrome_trace(
            GTX_TITAN, gpus, served[gpus].batches
        )
        assert doc["displayTimeUnit"] == "ns"
        assert validate_chrome_trace(doc) == []

    def test_spans_form_then_compute_with_idle_gaps(self):
        batches = [record(0, 0, 1e-3)]  # idle gap before the first batch
        events = worker_chrome_trace(GTX_TITAN, 1, batches)["traceEvents"]
        names = [e["name"] for e in events]
        assert names == ["idle", "form/WIK/b0", "rwr-batch/WIK/b0[k=2]"]
        assert {e["pid"] for e in events} == {"GTXTitan"}

    def test_events_in_finish_order_across_workers(self):
        batches = [
            record(0, 0, 0.0, compute=5e-4),
            record(1, 1, 1e-4),
        ]
        events = worker_chrome_trace(GTX_TITAN, 2, batches)["traceEvents"]
        assert [e["name"] for e in events] == [
            "form/WIK/b0",
            "idle",
            "form/WIK/b1",
            "rwr-batch/WIK/b1[k=2]",
            "rwr-batch/WIK/b0[k=2]",
        ]
        assert [e["pid"] for e in events[:2]] == ["GTXTitan#0", "GTXTitan#1"]

    def test_empty_run_is_empty(self):
        doc = worker_chrome_trace(GTX_TITAN, 2, [])
        assert doc["traceEvents"] == []
