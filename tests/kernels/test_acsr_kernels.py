"""ACSR's own kernels: bin-specific, pooled, and dynamic-parallelism."""

import numpy as np
import pytest

from repro.core.binning import compute_binning
from repro.gpu.device import GTX_TITAN, Precision, WARP_SIZE
from repro.kernels import acsr_bin, acsr_dp

from ..conftest import make_powerlaw_csr


@pytest.fixture(scope="module")
def csr():
    return make_powerlaw_csr(n_rows=1500, seed=91, max_degree=700)


class TestGangSize:
    @pytest.mark.parametrize(
        "b,v", [(1, 1), (2, 2), (3, 4), (6, 32), (7, 32), (12, 32)]
    )
    def test_gang_for_bin(self, b, v):
        assert acsr_bin.gang_size_for_bin(b) == v

    def test_rejects_bin_zero(self):
        with pytest.raises(ValueError):
            acsr_bin.gang_size_for_bin(0)


class TestBinWork:
    def test_balanced_bins_have_no_divergence_waste(self, csr):
        binning = compute_binning(csr.nnz_per_row)
        for b, rows in zip(binning.bin_ids, binning.rows_by_bin):
            w = acsr_bin.work(csr, rows, b, GTX_TITAN)
            # per-warp iterations bounded by 2x the bin's unit (rows in a
            # bin differ by at most a factor of two)
            gang = acsr_bin.gang_size_for_bin(b)
            if gang < WARP_SIZE:
                assert w.mem_ops.max() <= 2 * 2  # <=2 iters x 2 loads

    def test_pooled_traffic_below_sum_of_parts(self, csr):
        """The stream-union argument: pooling cannot cost more than the
        standalone bins."""
        binning = compute_binning(csr.nnz_per_row)
        bins = list(zip(binning.bin_ids, binning.rows_by_bin))
        pooled = acsr_bin.pooled_work(csr, bins, GTX_TITAN)
        parts = sum(
            acsr_bin.work(csr, rows, b, GTX_TITAN).total_dram_bytes
            for b, rows in bins
        )
        assert pooled.total_dram_bytes <= parts
        assert pooled.flops == pytest.approx(2.0 * csr.nnz)

    def test_pooled_empty(self, csr):
        w = acsr_bin.pooled_work(csr, [], GTX_TITAN)
        assert w.n_warps == 0


class TestDpKernels:
    def test_parent_is_control_only(self):
        w = acsr_dp.parent_work(100, Precision.SINGLE)
        assert w.flops == 0.0
        assert w.n_warps == 4  # ceil(100/32)

    def test_parent_empty(self):
        assert acsr_dp.parent_work(0, Precision.SINGLE).n_warps == 0

    def test_child_covers_row(self, csr):
        row = int(np.argmax(csr.nnz_per_row))
        w = acsr_dp.child_work(csr, row, thread_load=16, device=GTX_TITAN)
        assert w.flops == pytest.approx(2.0 * csr.nnz_per_row[row])
        assert w.n_warps >= 1

    def test_child_thread_load_trades_warps_for_iterations(self, csr):
        row = int(np.argmax(csr.nnz_per_row))
        fine = acsr_dp.child_work(csr, row, 2, GTX_TITAN)
        coarse = acsr_dp.child_work(csr, row, 64, GTX_TITAN)
        assert fine.n_warps > coarse.n_warps
        assert coarse.mem_ops.max() > fine.mem_ops.max()

    def test_child_rejects_bad_load(self, csr):
        with pytest.raises(ValueError):
            acsr_dp.child_work(csr, 0, 0, GTX_TITAN)

    def test_children_works_one_per_row(self, csr):
        rows = np.argsort(csr.nnz_per_row)[-5:]
        works = acsr_dp.children_works(csr, rows, 16, GTX_TITAN)
        assert len(works) == 5
