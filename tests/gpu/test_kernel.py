"""KernelWork container and merging."""

import numpy as np
import pytest

from repro.gpu.device import Precision
from repro.gpu.kernel import KernelWork, LaunchConfig, merge_concurrent


def make_work(n_warps=4, flops=100.0, precision=Precision.SINGLE, name="k"):
    return KernelWork(
        name=name,
        compute_insts=np.full(n_warps, 10.0),
        dram_bytes=np.full(n_warps, 128.0),
        mem_ops=np.full(n_warps, 2.0),
        flops=flops,
        precision=precision,
    )


class TestLaunchConfig:
    def test_totals(self):
        lc = LaunchConfig(grid_blocks=10, threads_per_block=128)
        assert lc.total_threads == 1280
        assert lc.total_warps == 40

    def test_partial_warp_rounds_up(self):
        lc = LaunchConfig(grid_blocks=2, threads_per_block=33)
        assert lc.total_warps == 4

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError):
            LaunchConfig(grid_blocks=1, threads_per_block=2048)

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError):
            LaunchConfig(grid_blocks=1, threads_per_block=0)

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            LaunchConfig(grid_blocks=-1, threads_per_block=32)


class TestKernelWork:
    def test_totals(self):
        w = make_work()
        assert w.n_warps == 4
        assert w.total_insts == 40.0
        assert w.total_dram_bytes == 512.0

    def test_empty(self):
        w = KernelWork.empty("nothing")
        assert w.n_warps == 0
        assert w.flops == 0.0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            KernelWork(
                name="bad",
                compute_insts=np.ones(3),
                dram_bytes=np.ones(2),
                mem_ops=np.ones(3),
                flops=0.0,
            )

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            KernelWork(
                name="bad",
                compute_insts=np.ones(1),
                dram_bytes=np.ones(1),
                mem_ops=np.ones(1),
                flops=-1.0,
            )


class TestMerge:
    def test_merge_concatenates(self):
        merged = merge_concurrent([make_work(2), make_work(3)])
        assert merged.n_warps == 5
        assert merged.flops == 200.0

    def test_merged_with_pairwise(self):
        m = merge_concurrent([make_work(2), make_work(1)])
        assert m.n_warps == 3

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_concurrent([])

    def test_merge_mixed_precision_rejected(self):
        with pytest.raises(ValueError):
            merge_concurrent(
                [make_work(), make_work(precision=Precision.DOUBLE)]
            )

    def test_merge_preserves_totals(self):
        parts = [make_work(i + 1, flops=float(i)) for i in range(5)]
        merged = merge_concurrent(parts)
        assert merged.total_insts == sum(p.total_insts for p in parts)
        assert merged.total_dram_bytes == sum(
            p.total_dram_bytes for p in parts
        )


class TestWeightedWorks:
    def test_weights_scale_totals(self):
        w = KernelWork(
            name="u",
            compute_insts=np.array([10.0, 5.0]),
            dram_bytes=np.array([128.0, 64.0]),
            mem_ops=np.array([2.0, 1.0]),
            flops=100.0,
            warp_weights=np.array([1000.0, 1.0]),
        )
        assert w.n_warps == 1001
        assert w.n_entries == 2
        assert w.total_insts == 10.0 * 1000 + 5.0
        assert w.total_dram_bytes == 128.0 * 1000 + 64.0

    def test_weight_length_validated(self):
        with pytest.raises(ValueError):
            KernelWork(
                name="bad",
                compute_insts=np.ones(2),
                dram_bytes=np.ones(2),
                mem_ops=np.ones(2),
                flops=0.0,
                warp_weights=np.ones(3),
            )

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            KernelWork(
                name="bad",
                compute_insts=np.ones(1),
                dram_bytes=np.ones(1),
                mem_ops=np.ones(1),
                flops=0.0,
                warp_weights=np.zeros(1),
            )

    def test_merge_mixes_weighted_and_plain(self):
        weighted = KernelWork(
            name="u",
            compute_insts=np.array([10.0]),
            dram_bytes=np.array([128.0]),
            mem_ops=np.array([2.0]),
            flops=1.0,
            warp_weights=np.array([50.0]),
        )
        merged = merge_concurrent([weighted, make_work(3)])
        assert merged.n_warps == 53
        assert merged.total_insts == 500.0 + 30.0

    def test_weighted_equivalent_to_expanded(self):
        """A weighted work must time identically to its expansion."""
        from repro.gpu.device import GTX_TITAN
        from repro.gpu.simulator import simulate_kernel

        n = 10_000
        expanded = KernelWork(
            name="e",
            compute_insts=np.full(n, 12.0),
            dram_bytes=np.full(n, 256.0),
            mem_ops=np.full(n, 4.0),
            flops=1.0,
        )
        compact = KernelWork(
            name="c",
            compute_insts=np.array([12.0]),
            dram_bytes=np.array([256.0]),
            mem_ops=np.array([4.0]),
            flops=1.0,
            warp_weights=np.array([float(n)]),
        )
        a = simulate_kernel(GTX_TITAN, expanded)
        b = simulate_kernel(GTX_TITAN, compact)
        assert b.time_s == pytest.approx(a.time_s, rel=0.02)
        assert b.n_warps == a.n_warps
