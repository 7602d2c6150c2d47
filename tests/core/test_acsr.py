"""ACSRFormat: the public face of the paper's contribution."""

import numpy as np
import pytest

from repro.core.acsr import ACSRFormat
from repro.core.parameters import ACSRParams
from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10, Precision

from ..conftest import (
    assert_spmv_close,
    make_powerlaw_csr,
    make_uniform_csr,
    reference_matvec,
)


@pytest.fixture(scope="module")
def acsr():
    # Large enough that kernel time dominates launch overheads.
    return ACSRFormat.from_csr(
        make_powerlaw_csr(n_rows=60_000, seed=31, max_degree=900)
    )


class TestApi:
    def test_shape_passthrough(self, acsr):
        assert acsr.shape == acsr.csr.shape
        assert acsr.nnz == acsr.csr.nnz
        assert acsr.precision is Precision.SINGLE

    def test_multiply_matches_reference(self, acsr, rng):
        x = rng.standard_normal(acsr.n_cols).astype(np.float32)
        assert_spmv_close(
            acsr.multiply(x),
            reference_matvec(acsr.csr, x),
            Precision.SINGLE,
        )

    @pytest.mark.parametrize(
        "device", [GTX_580, TESLA_K10, GTX_TITAN], ids=lambda d: d.name
    )
    def test_plan_covers_every_nonempty_row_once(self, acsr, device):
        """The launch plan only prices the product: its G2 bin rows plus
        its G1 rows are each non-empty row exactly once."""
        plan = acsr.plan_for(device)
        covered = np.concatenate(
            [rows for _, rows in plan.g2] + [plan.g1_rows]
        )
        nonempty = np.flatnonzero(acsr.csr.nnz_per_row)
        np.testing.assert_array_equal(np.sort(covered), nonempty)

    def test_run_spmv(self, acsr, rng):
        x = rng.standard_normal(acsr.n_cols).astype(np.float32)
        res = acsr.run_spmv(x, GTX_TITAN)
        assert res.time_s > 0
        assert res.flops == 2.0 * acsr.nnz
        assert_spmv_close(
            res.y, reference_matvec(acsr.csr, x), Precision.SINGLE
        )

    @pytest.mark.parametrize(
        "device", [GTX_580, TESLA_K10, GTX_TITAN], ids=lambda d: d.name
    )
    def test_flops_are_two_per_nonzero_per_vector(self, acsr, device):
        """The pooled work counts 2 flops per stored entry and vector,
        with and without DP children (the fixture has some on Titan)."""
        x = np.ones(acsr.n_cols, dtype=np.float32)
        assert acsr.run_spmv(x, device).flops == 2.0 * acsr.nnz
        X = np.ones((acsr.n_cols, 8), dtype=np.float32)
        assert acsr.run_spmm(X, device).flops == 2.0 * acsr.nnz * 8
        if device is GTX_TITAN:
            assert acsr.modelled_run(device).dp_children > 0

    def test_run_spmv_validates_x(self, acsr):
        with pytest.raises(ValueError):
            acsr.run_spmv(np.ones(1, dtype=np.float32), GTX_TITAN)


class TestPlans:
    def test_plans_cached_per_device(self, acsr):
        assert acsr.plan_for(GTX_TITAN) is acsr.plan_for(GTX_TITAN)

    def test_device_specific_plans_differ(self, acsr):
        titan = acsr.plan_for(GTX_TITAN)
        fermi = acsr.plan_for(GTX_580)
        assert fermi.n_row_grids == 0
        if titan.n_row_grids:
            assert titan.n_row_grids > 0

    def test_grid_counts(self, acsr):
        bs, rs = acsr.grid_counts(GTX_TITAN)
        plan = acsr.plan_for(GTX_TITAN)
        assert (bs, rs) == (plan.n_bin_grids, plan.n_row_grids)


class TestPreprocessing:
    def test_cheap_relative_to_spmv(self, acsr):
        """Figure 4's headline: ACSR PT is a handful of SpMVs."""
        st = acsr.spmv_time_s(GTX_TITAN)
        assert acsr.preprocess.total_s < 30 * st

    def test_no_data_transformation(self, acsr):
        assert acsr.preprocess.transfer_s == 0.0
        assert acsr.preprocess.padding_fraction == 0.0

    def test_same_memory_as_csr_plus_bins(self, acsr):
        extra = acsr.preprocess.device_bytes - acsr.csr.device_bytes()
        assert extra == acsr.csr.n_rows * 4


class TestAdaptivity:
    def test_power_law_beats_csr_baseline(self, acsr):
        """The headline comparison on the kind of matrix ACSR targets."""
        from repro.formats.csr_format import CSRFormat

        csr_fmt = CSRFormat.from_csr(acsr.csr)
        assert csr_fmt.spmv_time_s(GTX_TITAN) > acsr.spmv_time_s(GTX_TITAN)

    def test_dp_disabled_param_respected(self):
        m = make_powerlaw_csr(seed=77, max_degree=2000)
        no_dp = ACSRFormat.from_csr(m, params=ACSRParams(enable_dp=False))
        assert no_dp.plan_for(GTX_TITAN).n_row_grids == 0

    def test_uniform_matrix_single_bin(self):
        m = make_uniform_csr(row_len=8, seed=5)
        a = ACSRFormat.from_csr(m)
        # duplicates may produce a couple of bins, but no DP group
        assert a.plan_for(GTX_TITAN).n_row_grids == 0
        assert a.plan_for(GTX_TITAN).n_bin_grids <= 3

    def test_timing_deterministic(self, acsr):
        assert acsr.spmv_time_s(GTX_TITAN) == acsr.spmv_time_s(GTX_TITAN)
