"""Cost models of the CSR scalar/vector, HYB and update kernels."""

import numpy as np
import pytest

from repro.gpu.device import GTX_580, GTX_TITAN, Precision
from repro.kernels import csr_scalar, csr_vector, hyb_kernel, update_kernel

from ..conftest import make_powerlaw_csr


@pytest.fixture(scope="module")
def csr():
    return make_powerlaw_csr(n_rows=2000, seed=23, max_degree=600)


class TestCsrScalar:
    def test_work_is_uncoalesced_heavy(self, csr):
        scalar = csr_scalar.work(csr, GTX_TITAN)
        vector = csr_vector.work(csr, GTX_TITAN)
        assert scalar.total_dram_bytes > 1.5 * vector.total_dram_bytes


class TestCsrVector:
    @pytest.mark.parametrize(
        "mu,expected", [(1.0, 2), (3.0, 2), (7.0, 8), (20.0, 16), (300.0, 32)]
    )
    def test_gang_size_heuristic(self, mu, expected):
        assert csr_vector.gang_size_for(mu) == expected

    def test_explicit_vector_size(self, csr):
        w = csr_vector.work(csr, GTX_TITAN, vector_size=32)
        assert "32" in w.name

    def test_warp_per_row_suffers_on_sparse_heads(self, csr):
        """The cuSPARSE pathology: 32-wide gangs on short rows."""
        v32 = csr_vector.work(csr, GTX_TITAN, vector_size=32)
        matched = csr_vector.work(csr, GTX_TITAN)  # mean-sized
        assert v32.total_dram_bytes > matched.total_dram_bytes

    def test_flops_invariant(self, csr):
        for v in (2, 8, 32):
            w = csr_vector.work(csr, GTX_TITAN, vector_size=v)
            assert w.flops == pytest.approx(2.0 * csr.nnz)


class TestHyb:
    def test_works_skip_empty_parts(self, csr):
        works = hyb_kernel.works(
            100,
            0,
            0,
            0,
            0,
            device=GTX_TITAN,
            n_cols=100,
            precision=Precision.SINGLE,
            profile=csr.gather_profile,
        )
        assert works == []


class TestUpdateKernel:
    def test_cost_scales_with_touched_elements(self):
        small = update_kernel.work(
            np.full(10, 5.0),
            np.full(10, 1.0),
            np.full(10, 1.0),
            Precision.SINGLE,
            GTX_TITAN,
        )
        large = update_kernel.work(
            np.full(10, 500.0),
            np.full(10, 50.0),
            np.full(10, 50.0),
            Precision.SINGLE,
            GTX_TITAN,
        )
        assert large.total_insts > 10 * small.total_insts

    def test_empty(self):
        w = update_kernel.work(
            np.zeros(0),
            np.zeros(0),
            np.zeros(0),
            Precision.SINGLE,
            GTX_TITAN,
        )
        assert w.n_warps == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            update_kernel.work(
                np.zeros(3),
                np.zeros(2),
                np.zeros(3),
                Precision.SINGLE,
                GTX_TITAN,
            )

    def test_no_flops(self):
        w = update_kernel.work(
            np.full(4, 8.0),
            np.full(4, 2.0),
            np.full(4, 2.0),
            Precision.SINGLE,
            GTX_580,
        )
        assert w.flops == 0.0
