"""The event-driven stream engine: ordering, sharing, overlap, determinism."""

import json

import numpy as np
import pytest

from repro.gpu.device import GTX_TITAN, TESLA_K10
from repro.gpu.kernel import KernelWork
from repro.gpu.simulator import simulate_kernel, simulate_sequence
from repro.gpu.streams import CopyDirection, StreamEngine
from repro.gpu.transfer import DEFAULT_LINK


def work(n=100, dram=1024.0, name="w"):
    return KernelWork(
        name=name,
        compute_insts=np.full(n, 10.0),
        dram_bytes=np.full(n, dram),
        mem_ops=np.full(n, 2.0),
        flops=100.0,
    )


def saturating(name="big"):
    """A kernel large enough to occupy the whole device."""
    return work(n=200_000, dram=4096.0, name=name)


class TestConstruction:
    def test_single_device_shorthand(self):
        eng = StreamEngine(GTX_TITAN)
        assert eng.devices == (GTX_TITAN,)

    def test_rejects_empty_device_list(self):
        with pytest.raises(ValueError):
            StreamEngine(())

    def test_rejects_out_of_range_device(self):
        with pytest.raises(ValueError, match="out of range"):
            StreamEngine(GTX_TITAN).stream(device=1)

    def test_span_validation(self):
        s = StreamEngine(GTX_TITAN).stream()
        with pytest.raises(ValueError):
            s.span("x", -1.0)
        with pytest.raises(ValueError):
            s.span("x", 1.0, utilization=2.0)

    def test_negative_children_rejected(self):
        s = StreamEngine(GTX_TITAN).stream()
        with pytest.raises(ValueError):
            s.launch(work(), dp_children=-1)


class TestSerialEquivalence:
    def test_one_stream_matches_simulate_sequence(self):
        """A single stream is exactly the back-to-back model."""
        works = [work(name="a"), work(n=5000, name="b"), work(name="c")]
        eng = StreamEngine(GTX_TITAN)
        s = eng.stream()
        for w in works:
            s.launch(w)
        res = eng.run()
        assert res.duration_s == pytest.approx(
            simulate_sequence(GTX_TITAN, works).time_s, rel=1e-12
        )

    def test_in_order_within_stream(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().launch(work(name="a")).launch(work(name="b"))
        res = eng.run()
        a, b = res.records
        assert a.name == "a" and b.name == "b"
        assert b.start_s == pytest.approx(a.end_s)


class TestConcurrentKernels:
    def test_small_grids_overlap_free(self):
        """Two under-occupying grids co-run without slowdown."""
        solo = simulate_kernel(GTX_TITAN, work()).time_s
        eng = StreamEngine(GTX_TITAN)
        eng.stream().launch(work(name="a"))
        eng.stream().launch(work(name="b"))
        assert eng.run().duration_s == pytest.approx(solo, rel=1e-9)

    def test_saturating_grids_share_the_device(self):
        """Two saturating grids take twice as long as one."""
        solo = simulate_kernel(GTX_TITAN, saturating()).time_s
        eng = StreamEngine(GTX_TITAN)
        eng.stream().launch(saturating("a"))
        eng.stream().launch(saturating("b"))
        res = eng.run()
        assert res.duration_s == pytest.approx(2 * solo, rel=0.05)
        assert all(r.stretched for r in res.kernel_records())

    def test_devices_do_not_interfere(self):
        solo = simulate_kernel(TESLA_K10, saturating()).time_s
        eng = StreamEngine((TESLA_K10, TESLA_K10))
        eng.stream(device=0).launch(saturating("a"))
        eng.stream(device=1).launch(saturating("b"))
        assert eng.run().duration_s == pytest.approx(solo, rel=1e-9)


class TestCopies:
    def test_copy_overlaps_compute(self):
        kernel_s = 100e-6
        copy_s = DEFAULT_LINK.transfer_time_s(100_000, n_transfers=1)
        eng = StreamEngine(GTX_TITAN)
        eng.stream().span("compute", kernel_s)
        eng.stream().copy("h2d", 100_000)
        assert eng.run().duration_s == pytest.approx(max(kernel_s, copy_s))

    def test_same_direction_copies_serialise(self):
        copy_s = DEFAULT_LINK.transfer_time_s(1_000_000)
        eng = StreamEngine(GTX_TITAN)
        eng.stream().copy("a", 1_000_000)
        eng.stream().copy("b", 1_000_000)
        assert eng.run().duration_s == pytest.approx(2 * copy_s)

    def test_opposite_directions_overlap(self):
        copy_s = DEFAULT_LINK.transfer_time_s(1_000_000)
        eng = StreamEngine(GTX_TITAN)
        eng.stream().copy("up", 1_000_000, direction=CopyDirection.H2D)
        eng.stream().copy("down", 1_000_000, direction=CopyDirection.D2H)
        assert eng.run().duration_s == pytest.approx(copy_s)

    def test_channel_fifo_by_stream_order(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().copy("first", 1000)
        eng.stream().copy("second", 1000)
        res = eng.run()
        first = next(r for r in res.records if r.name == "first")
        second = next(r for r in res.records if r.name == "second")
        assert first.start_s < second.start_s


class TestEvents:
    def test_wait_orders_across_streams(self):
        eng = StreamEngine(GTX_TITAN)
        producer = eng.stream(name="producer")
        consumer = eng.stream(name="consumer")
        producer.span("produce", 50e-6)
        ev = producer.record()
        consumer.wait(ev)
        consumer.launch(work(name="consume"))
        res = eng.run()
        consume = next(r for r in res.records if r.name == "consume")
        assert consume.start_s == pytest.approx(50e-6)

    def test_satisfied_wait_is_free(self):
        eng = StreamEngine(GTX_TITAN)
        producer = eng.stream()
        ev = producer.record()  # records at t=0
        consumer = eng.stream()
        consumer.wait(ev)
        consumer.span("go", 10e-6)
        assert eng.run().duration_s == pytest.approx(10e-6)

    def test_foreign_event_rejected(self):
        """An event from another engine must not alias a local one."""
        other = StreamEngine(GTX_TITAN)
        foreign = other.stream().record()
        eng = StreamEngine(GTX_TITAN)
        eng.stream().record()  # local event with the same index
        with pytest.raises(ValueError, match="different engine"):
            eng.stream().wait(foreign)

    def test_deadlock_detected(self):
        eng = StreamEngine(GTX_TITAN)
        s = eng.stream(name="waiter")
        ev = eng._new_event("never-recorded")
        s.wait(ev)
        with pytest.raises(RuntimeError, match="deadlock"):
            eng.run()


class TestDynamicParallelismBudget:
    def test_enqueue_overlaps_body(self):
        """Enqueue cost under the limit hides beneath a long body."""
        eng = StreamEngine(GTX_TITAN)
        eng.stream().launch(saturating(), dp_children=1000)
        solo = simulate_kernel(GTX_TITAN, saturating()).time_s
        assert eng.run().duration_s == pytest.approx(solo, rel=1e-9)

    def test_co_resident_children_share_the_budget(self):
        """Two grids that fit alone overflow the pending limit together."""
        n = GTX_TITAN.pending_launch_limit  # fits alone, overflows shared

        def run_pair(children):
            eng = StreamEngine(GTX_TITAN)
            eng.stream().launch(work(name="a"), dp_children=children)
            eng.stream().launch(work(name="b"), dp_children=children)
            return eng.run().duration_s

        assert run_pair(n) > run_pair(n // 2)


class TestDeterminism:
    def _build(self):
        eng = StreamEngine((GTX_TITAN, GTX_TITAN))
        a = eng.stream(device=0, name="a")
        b = eng.stream(device=0, name="b")
        c = eng.stream(device=1, name="c")
        a.copy("x-h2d", 123_456, n_transfers=3)
        ev = a.record()
        b.wait(ev)
        b.launch(work(n=7777, name="k1"))
        b.launch(saturating("k2"))
        a.launch(work(n=50, name="k3"))
        c.launch(work(n=12_000, name="k4"), dp_children=100)
        return eng

    def test_identical_runs_are_byte_identical(self):
        doc1 = json.dumps(self._build().run().chrome_trace())
        doc2 = json.dumps(self._build().run().chrome_trace())
        assert doc1 == doc2

    def test_rerun_of_same_engine_is_byte_identical(self):
        eng = self._build()
        doc1 = json.dumps(eng.run().chrome_trace())
        doc2 = json.dumps(eng.run().chrome_trace())
        assert doc1 == doc2


class TestResult:
    def test_stream_end_and_kernel_records(self):
        eng = StreamEngine(GTX_TITAN)
        eng.stream().launch(work(name="a"))
        eng.stream().copy("c", 1000)
        res = eng.run()
        assert max(r.end_s for r in res.records if r.stream == 0) > 0
        assert {r.stream for r in res.records} == {0, 1}
        assert [r.name for r in res.kernel_records()] == ["a"]

    def test_trace_has_true_start_times(self):
        eng = StreamEngine(GTX_TITAN)
        s = eng.stream()
        s.span("first", 10e-6)
        s.launch(work(name="second"))
        res = eng.run()
        by_name = {e["name"]: e for e in res.chrome_trace()["traceEvents"]}
        assert by_name["second"]["ts"] == pytest.approx(10.0)
