"""ELL and DIA: slab counts, padding guards, diagonal extraction."""

import numpy as np
import pytest

from repro.formats.base import FormatCapacityError
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAFormat
from repro.formats.ell import ELLFormat, ell_real_nnz
from repro.formats.hyb import HYBFormat
from repro.gpu.device import GTX_TITAN

from ..conftest import make_tridiagonal_csr, make_uniform_csr


class TestEllSlabs:
    def test_slab_shape(self, uniform_csr):
        h = HYBFormat.from_csr(uniform_csr, width=8)
        assert (h.n_rows, h.ell_width) == (uniform_csr.n_rows, 8)
        assert h.ell_real_nnz == uniform_csr.nnz

    def test_truncation_counts_only_kept(self, uniform_csr):
        real = ell_real_nnz(uniform_csr, 3)
        expected = int(np.minimum(uniform_csr.nnz_per_row, 3).sum())
        assert real == expected

    def test_zero_width(self, uniform_csr):
        assert ell_real_nnz(uniform_csr, 0) == 0
        with pytest.raises(ValueError):
            ell_real_nnz(uniform_csr, -1)

    def test_capacity_guard(self):
        rng = np.random.default_rng(0)
        # one hub of 60k in 10k rows: slab would be 600M slots
        deg = np.ones(10_000, dtype=np.int64)
        deg[0] = 60_000
        rows = np.repeat(np.arange(10_000), deg)
        cols = rng.integers(0, 70_000, rows.shape[0])
        m = CSRMatrix.from_coo(
            rows, cols, np.ones(rows.shape[0]), (10_000, 70_000)
        )
        with pytest.raises(FormatCapacityError):
            ELLFormat.from_csr(m)


class TestEllFormat:
    def test_width_is_max_row(self, uniform_csr):
        e = ELLFormat.from_csr(uniform_csr)
        assert e.width == uniform_csr.max_nnz_row

    def test_no_padding_for_uniform(self):
        m = make_uniform_csr(n_rows=100, row_len=4, seed=9)
        e = ELLFormat.from_csr(m)
        if e.width == 4:  # duplicates may shrink some rows
            assert e.preprocess.padding_fraction == pytest.approx(
                1.0 - m.nnz / (100 * 4)
            )


class TestDia:
    def test_tridiagonal_has_three_diagonals(self):
        m = make_tridiagonal_csr()
        d = DIAFormat.from_csr(m)
        assert d.n_diags == 3
        np.testing.assert_array_equal(d.offsets, [-1, 0, 1])

    def test_kernel_work_flops_counts_real_entries(self):
        m = make_tridiagonal_csr()
        d = DIAFormat.from_csr(m)
        w = d.kernel_works(GTX_TITAN)[0]
        assert w.flops == pytest.approx(2.0 * m.nnz)

    def test_capacity_guard(self):
        rng = np.random.default_rng(1)
        n = 40_000
        rows = rng.integers(0, n, 30_000)
        cols = rng.integers(0, n, 30_000)
        m = CSRMatrix.from_coo(
            rows, cols, np.ones(30_000), (n, n)
        )
        with pytest.raises(FormatCapacityError):
            DIAFormat.from_csr(m)
