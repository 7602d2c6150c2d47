"""Counter derivation: coherence with the timing model, by construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.device import DEVICES, GTX_580, GTX_TITAN, TESLA_K10, Precision
from repro.gpu.kernel import CounterHints, KernelWork, merge_hints
from repro.gpu.memory import GatherProfile
from repro.gpu.simulator import simulate_kernel
from repro.kernels.common import gang_row_work
from repro.obs import CounterSet, aggregate, launch_counters, with_totals

ALL_DEVICES = tuple(DEVICES.values())


def _work_from_lengths(lengths, device, k=1):
    return gang_row_work(
        "t",
        np.asarray(lengths, dtype=np.int64),
        vector_size=32,
        device=device,
        n_cols=4096,
        precision=Precision.SINGLE,
        profile=GatherProfile(reuse=2.0, clustering=0.5),
        k=k,
    )


class TestLaunchCounters:
    @settings(max_examples=30, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(min_value=0, max_value=600), min_size=1, max_size=40
        )
    )
    def test_dram_bytes_identical_on_every_device(self, lengths):
        """Profiled traffic is byte-identical to the timing's, everywhere."""
        for device in ALL_DEVICES:
            work = _work_from_lengths(lengths, device)
            timing = simulate_kernel(device, work)
            cs = launch_counters(device, work, timing)
            assert cs.dram_bytes == timing.dram_bytes
            assert cs.time_s == timing.time_s
            assert cs.launch_overhead_s == timing.launch_overhead_s
            assert cs.flops == work.flops
            assert 0.0 <= cs.achieved_occupancy <= 1.0
            assert 0.0 <= cs.warp_execution_efficiency <= 1.0
            assert 0.0 <= cs.gld_coalescing_ratio <= 1.0
            assert cs.bound == timing.bound

    def test_bound_matches_kernel_timing_rule(self, powerlaw_csr):
        for device in (GTX_580, TESLA_K10, GTX_TITAN):
            work = _work_from_lengths(powerlaw_csr.nnz_per_row[:500], device)
            timing = simulate_kernel(device, work)
            cs = launch_counters(device, work, timing)
            assert cs.bound == timing.bound
            assert cs.bound in ("compute", "memory", "latency", "launch")

    def test_tex_hit_rate_carried_from_hints(self):
        work = _work_from_lengths([32, 64, 128], GTX_TITAN)
        assert work.hints is not None and work.hints.tex_hit_rate is not None
        cs = launch_counters(GTX_TITAN, work, simulate_kernel(GTX_TITAN, work))
        assert cs.tex_hit_rate == pytest.approx(work.hints.tex_hit_rate)

    def test_balanced_rows_have_high_warp_efficiency(self):
        balanced = _work_from_lengths([64] * 32, GTX_TITAN)
        skewed = _work_from_lengths([1] * 31 + [10_000], GTX_TITAN)
        eff = lambda w: launch_counters(  # noqa: E731
            GTX_TITAN, w, simulate_kernel(GTX_TITAN, w)
        ).warp_execution_efficiency
        assert eff(balanced) > 0.9
        assert eff(skewed) < eff(balanced)

    def test_derived_rates(self):
        work = _work_from_lengths([100] * 20, GTX_TITAN)
        timing = simulate_kernel(GTX_TITAN, work)
        cs = launch_counters(GTX_TITAN, work, timing)
        assert cs.achieved_dram_gbps == pytest.approx(
            cs.dram_bytes / cs.time_s / 1e9
        )
        assert cs.gflops == pytest.approx(cs.flops / cs.time_s / 1e9)
        assert 0.0 <= cs.dram_bw_fraction <= 1.0
        assert 0.0 <= cs.flop_fraction <= 1.0
        assert 0.0 <= cs.launch_overhead_share <= 1.0

    def test_dp_counters(self):
        work = _work_from_lengths([32], GTX_TITAN)
        timing = simulate_kernel(GTX_TITAN, work)
        cs = launch_counters(
            GTX_TITAN, work, timing, dp_children=100, dp_overflow=4
        )
        assert cs.dp_children == 100
        assert cs.dp_overflow == 4


class TestValidation:
    def _base(self):
        work = _work_from_lengths([32], GTX_TITAN)
        return launch_counters(
            GTX_TITAN, work, simulate_kernel(GTX_TITAN, work)
        )

    def test_ratio_out_of_range_rejected(self):
        cs = self._base()
        with pytest.raises(ValueError):
            dataclasses.replace(cs, achieved_occupancy=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(cs, warp_execution_efficiency=-0.1)

    def test_negative_totals_rejected(self):
        cs = self._base()
        with pytest.raises(ValueError):
            dataclasses.replace(cs, dram_bytes=-1.0)

    def test_overflow_cannot_exceed_children(self):
        cs = self._base()
        with pytest.raises(ValueError):
            dataclasses.replace(cs, dp_children=2, dp_overflow=3)


class TestAggregate:
    def _two(self):
        w1 = _work_from_lengths([64] * 8, GTX_TITAN)
        w2 = _work_from_lengths([1] * 100, GTX_TITAN, k=4)
        return tuple(
            launch_counters(GTX_TITAN, w, simulate_kernel(GTX_TITAN, w))
            for w in (w1, w2)
        )

    def test_totals_sum(self):
        a, b = self._two()
        tot = aggregate([a, b], name="sum")
        assert tot.time_s == a.time_s + b.time_s
        assert tot.dram_bytes == a.dram_bytes + b.dram_bytes
        assert tot.flops == a.flops + b.flops
        assert tot.n_launches == 2
        assert tot.n_warps == a.n_warps + b.n_warps
        assert tot.name == "sum"

    def test_k_is_max_and_ratios_stay_in_range(self):
        a, b = self._two()
        tot = aggregate([a, b])
        assert tot.k == 4
        assert 0.0 <= tot.achieved_occupancy <= 1.0
        assert 0.0 <= tot.warp_execution_efficiency <= 1.0
        assert 0.0 <= tot.gld_coalescing_ratio <= 1.0

    def test_occupancy_time_weighted(self):
        a, b = self._two()
        tot = aggregate([a, b])
        expect = (
            a.achieved_occupancy * a.time_s + b.achieved_occupancy * b.time_s
        ) / (a.time_s + b.time_s)
        assert tot.achieved_occupancy == pytest.approx(min(1.0, expect))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_single_passthrough_totals(self):
        a, _ = self._two()
        tot = aggregate([a])
        assert tot.time_s == a.time_s
        assert tot.dram_bytes == a.dram_bytes


class TestWithTotals:
    def test_overrides(self):
        w = _work_from_lengths([64] * 8, GTX_TITAN)
        cs = launch_counters(GTX_TITAN, w, simulate_kernel(GTX_TITAN, w))
        out = with_totals(cs, time_s=cs.time_s * 2, name="renamed")
        assert out.time_s == cs.time_s * 2
        assert out.name == "renamed"
        assert out.dram_bytes == cs.dram_bytes  # untouched


class TestHints:
    def test_hints_validate(self):
        with pytest.raises(ValueError):
            CounterHints(tex_hit_rate=1.5)
        with pytest.raises(ValueError):
            CounterHints(useful_bytes=-1.0)

    def test_merge_requires_all_useful_bytes(self):
        a = KernelWork(
            name="a",
            compute_insts=np.array([10.0]),
            dram_bytes=np.array([100.0]),
            mem_ops=np.array([1.0]),
            flops=10.0,
            precision=Precision.SINGLE,
            hints=CounterHints(useful_bytes=90.0),
        )
        b = dataclasses.replace(a, name="b", hints=None)
        merged = merge_hints([a, b])
        assert merged is None or merged.useful_bytes is None

    def test_merge_sums_useful_and_weights_tex(self):
        a = KernelWork(
            name="a",
            compute_insts=np.array([10.0]),
            dram_bytes=np.array([100.0]),
            mem_ops=np.array([1.0]),
            flops=10.0,
            precision=Precision.SINGLE,
            hints=CounterHints(tex_hit_rate=1.0, useful_bytes=90.0),
        )
        b = dataclasses.replace(
            a,
            name="b",
            dram_bytes=np.array([300.0]),
            hints=CounterHints(tex_hit_rate=0.5, useful_bytes=200.0),
        )
        merged = merge_hints([a, b])
        assert merged.useful_bytes == pytest.approx(290.0)
        assert merged.tex_hit_rate == pytest.approx(
            (1.0 * 100.0 + 0.5 * 300.0) / 400.0
        )


class TestProfilingNeverChangesTiming:
    def test_time_s_identical_under_observation(self):
        from repro.obs import Profiler

        work = _work_from_lengths([7, 400, 31, 64], GTX_TITAN)
        bare = simulate_kernel(GTX_TITAN, work)
        prof = Profiler("watch")
        prof.record_launch(GTX_TITAN, work, bare)
        # Recording reads the frozen pair; a fresh evaluation of the same
        # work is still field-for-field the unrecorded timing.
        assert simulate_kernel(GTX_TITAN, work) == bare
        assert len(prof.all_records()) == 1
        assert prof.all_records()[0].time_s == bare.time_s
