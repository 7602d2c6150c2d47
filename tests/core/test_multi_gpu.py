"""Multi-GPU ACSR: per-bin partitioning and scaling behaviour."""

import numpy as np
import pytest

from repro.core.acsr import ACSRFormat
from repro.core.multi_gpu import (
    partition_bin_rows,
    spmv,
    spmv_time_s,
    works_per_device,
)
from repro.gpu.device import TESLA_K10, Precision
from repro.gpu.multi import MultiGPUContext

from ..conftest import (
    assert_spmv_close,
    make_powerlaw_csr,
    reference_matvec,
)


@pytest.fixture(scope="module")
def acsr():
    return ACSRFormat.from_csr(
        make_powerlaw_csr(n_rows=20_000, seed=41, max_degree=1500),
        device=TESLA_K10,
    )


class TestPartition:
    def test_split_covers_everything(self):
        rows = np.arange(101)
        parts = partition_bin_rows(rows, 3)
        np.testing.assert_array_equal(np.concatenate(parts), rows)

    def test_split_is_balanced(self):
        parts = partition_bin_rows(np.arange(100), 2)
        assert abs(len(parts[0]) - len(parts[1])) <= 1

    def test_single_device(self):
        parts = partition_bin_rows(np.arange(10), 1)
        assert len(parts) == 1

    def test_rejects_zero_devices(self):
        with pytest.raises(ValueError):
            partition_bin_rows(np.arange(10), 0)

    def test_empty_bin(self):
        parts = partition_bin_rows(np.array([], dtype=np.int64), 2)
        assert all(p.size == 0 for p in parts)

    @pytest.mark.parametrize("n_gpus", [1, 2, 4])
    def test_bin_shares_cover_every_nonempty_row_once(self, acsr, n_gpus):
        """Every device's share of every bin, together, is each non-empty
        row exactly once — so the partitioned product is the plain one."""
        shares = [
            share
            for rows in acsr.binning.rows_by_bin
            for share in partition_bin_rows(rows, n_gpus)
        ]
        covered = np.sort(np.concatenate(shares))
        nonempty = np.flatnonzero(acsr.csr.nnz_per_row)
        np.testing.assert_array_equal(covered, nonempty)


class TestNumerics:
    @pytest.mark.parametrize("n_gpus", [1, 2, 4])
    def test_result_independent_of_device_count(self, acsr, rng, n_gpus):
        x = rng.standard_normal(acsr.csr.n_cols).astype(np.float32)
        ctx = MultiGPUContext.of(TESLA_K10, n_gpus)
        res = spmv(acsr, x, ctx)
        assert_spmv_close(
            res.y, reference_matvec(acsr.csr, x), Precision.SINGLE
        )

    def test_x_validated(self, acsr):
        ctx = MultiGPUContext.of(TESLA_K10, 2)
        with pytest.raises(ValueError):
            spmv(acsr, np.ones(1, dtype=np.float32), ctx)


class TestScaling:
    def test_large_matrix_scales(self):
        big = ACSRFormat.from_csr(
            make_powerlaw_csr(n_rows=500_000, seed=45, max_degree=3000),
            device=TESLA_K10,
        )
        t1 = spmv_time_s(big, MultiGPUContext.of(TESLA_K10, 1))
        t2 = spmv_time_s(big, MultiGPUContext.of(TESLA_K10, 2))
        assert 1.2 < t1 / t2 <= 2.05

    def test_tiny_matrix_does_not_scale(self):
        tiny = ACSRFormat.from_csr(
            make_powerlaw_csr(n_rows=300, seed=43, max_degree=50),
            device=TESLA_K10,
        )
        t1 = spmv_time_s(tiny, MultiGPUContext.of(TESLA_K10, 1))
        t2 = spmv_time_s(tiny, MultiGPUContext.of(TESLA_K10, 2))
        # "using multi-GPU not only does not improve performance, but
        # adds the overhead of synchronizing two GPUs" (Section VIII)
        assert t1 / t2 < 1.3

    def test_per_device_work_balanced(self, acsr):
        ctx = MultiGPUContext.of(TESLA_K10, 2)
        works = works_per_device(acsr, ctx)
        assert len(works) == 2
        f0 = sum(w.flops for w in works[0])
        f1 = sum(w.flops for w in works[1])
        assert f0 == pytest.approx(f1, rel=0.25)
        assert f0 + f1 == pytest.approx(2.0 * acsr.nnz)
