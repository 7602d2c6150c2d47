"""The Algorithm 1 driver: planning and timing."""

import numpy as np
import pytest

from repro.core.binning import compute_binning
from repro.core.dispatch import build_plan, time_spmv, time_spmv_streamed
from repro.core.parameters import ACSRParams
from repro.gpu.device import GTX_580, GTX_TITAN
from repro.gpu.dynamic_parallelism import DynamicParallelismUnsupported

from ..conftest import make_powerlaw_csr


@pytest.fixture(scope="module")
def csr():
    return make_powerlaw_csr(n_rows=3000, seed=21, max_degree=800)


@pytest.fixture(scope="module")
def titan_plan(csr):
    return build_plan(
        compute_binning(csr.nnz_per_row), ACSRParams(), GTX_TITAN, mu=csr.mu
    )


@pytest.fixture(scope="module")
def dp_plan(csr):
    """A plan whose top bin's rows go to the dynamic-parallelism group."""
    binning = compute_binning(csr.nnz_per_row)
    return build_plan(
        binning, ACSRParams(bin_max=binning.max_bin - 1), GTX_TITAN, mu=csr.mu
    )


class TestPlan:
    def test_g1_g2_partition_complete(self, csr, titan_plan):
        g2_rows = (
            np.concatenate([r for _, r in titan_plan.g2])
            if titan_plan.g2
            else np.array([], dtype=np.int64)
        )
        covered = np.sort(np.concatenate([g2_rows, titan_plan.g1_rows]))
        nonempty = np.nonzero(csr.nnz_per_row > 0)[0]
        np.testing.assert_array_equal(covered, nonempty)

    def test_g1_respects_rowmax(self, titan_plan):
        assert titan_plan.n_row_grids <= titan_plan.resolved.row_max

    def test_g1_rows_are_tail(self, csr, titan_plan):
        if titan_plan.g1_rows.size:
            assert csr.nnz_per_row[titan_plan.g1_rows].min() > 16 * csr.mu

    def test_binning_only_plan_has_no_g1(self, csr):
        plan = build_plan(
            compute_binning(csr.nnz_per_row),
            ACSRParams(),
            GTX_580,
            mu=csr.mu,
        )
        assert plan.g1_rows.size == 0
        assert plan.n_row_grids == 0


class TestTiming:
    def test_structure(self, csr, titan_plan):
        t = time_spmv(csr, titan_plan, GTX_TITAN)
        assert t.time_s > 0
        assert t.n_bin_grids == len(titan_plan.g2)
        assert t.n_row_grids == titan_plan.g1_rows.shape[0]
        assert t.launch_s >= GTX_TITAN.kernel_launch_overhead_s

    def test_dp_plan_rejected_on_fermi(self, csr, dp_plan):
        assert dp_plan.g1_rows.size > 0, "plan has no DP group"
        with pytest.raises(DynamicParallelismUnsupported):
            time_spmv(csr, dp_plan, GTX_580)

    def test_binning_only_timing_on_fermi(self, csr):
        plan = build_plan(
            compute_binning(csr.nnz_per_row),
            ACSRParams(),
            GTX_580,
            mu=csr.mu,
        )
        t = time_spmv(csr, plan, GTX_580)
        assert t.time_s > 0
        assert t.enqueue_s == 0.0

    def test_pool_flops_cover_matrix(self, csr, titan_plan):
        t = time_spmv(csr, titan_plan, GTX_TITAN)
        assert t.pool.dram_bytes > 0


class TestStreamedTiming:
    """time_spmv_streamed: per-bin grids on concurrent engine streams."""

    def test_streamed_beats_back_to_back(self, csr, titan_plan):
        """Concurrent bin grids beat serialising every bin launch."""
        from repro.core.dispatch import bin_works
        from repro.gpu.simulator import simulate_sequence

        streamed = time_spmv_streamed(csr, titan_plan, GTX_TITAN)
        serial = simulate_sequence(
            GTX_TITAN, bin_works(csr, titan_plan, GTX_TITAN)
        ).time_s
        assert streamed.time_s < serial

    def test_streamed_reports_grid_counts_and_trace(self, csr, titan_plan):
        t = time_spmv_streamed(csr, titan_plan, GTX_TITAN)
        assert t.n_bin_grids == titan_plan.n_bin_grids
        assert t.n_row_grids == titan_plan.n_row_grids
        kernels = [
            e for e in t.result.chrome_trace()["traceEvents"]
            if e["cat"] == "kernel"
        ]
        assert len(kernels) == t.n_bin_grids + (1 if t.n_row_grids else 0)
        assert {e["tid"] for e in kernels} != {"stream 0"}  # multi-stream
        assert "bound" in t.bound_summary()

    def test_streamed_deterministic(self, csr, titan_plan):
        a = time_spmv_streamed(csr, titan_plan, GTX_TITAN)
        b = time_spmv_streamed(csr, titan_plan, GTX_TITAN)
        assert a.time_s == b.time_s

    def test_caller_owned_engine(self, csr, titan_plan):
        """``stream_spmv`` enqueues into an engine the caller owns and
        runs; alone on it, the SpMV takes the streamed model's time."""
        from repro.core.dispatch import stream_spmv
        from repro.gpu.streams import StreamEngine

        engine = StreamEngine(GTX_TITAN)
        stream_spmv(csr, titan_plan, GTX_TITAN, engine)
        result = engine.run()
        streamed = time_spmv_streamed(csr, titan_plan, GTX_TITAN)
        assert result.duration_s == streamed.time_s > 0

    def test_streamed_dp_rejected_on_fermi(self, csr, dp_plan):
        assert dp_plan.g1_rows.size > 0, "plan has no DP group"
        with pytest.raises(DynamicParallelismUnsupported):
            time_spmv_streamed(csr, dp_plan, GTX_580)

    def test_streamed_dp_group_rides_its_own_stream(self):
        csr_big = make_powerlaw_csr(n_rows=50_000, seed=31, max_degree=3000)
        plan = build_plan(
            compute_binning(csr_big.nnz_per_row),
            ACSRParams(),
            GTX_TITAN,
            mu=csr_big.mu,
        )
        if plan.g1_rows.size == 0:
            pytest.skip("plan has no DP group")
        t = time_spmv_streamed(csr_big, plan, GTX_TITAN)
        dp = [r for r in t.result.records if r.name == "acsr-dp"]
        assert len(dp) == 1
        assert t.time_s > 0


class TestBatchedDispatch:
    """k > 1 flows through the whole ACSR dispatch path."""

    def test_spmm_amortises(self, csr, titan_plan):
        t1 = time_spmv(csr, titan_plan, GTX_TITAN, k=1)
        t8 = time_spmv(csr, titan_plan, GTX_TITAN, k=8)
        assert t1.time_s < t8.time_s < 8 * t1.time_s

    def test_k1_identical_to_default(self, csr, titan_plan):
        assert (
            time_spmv(csr, titan_plan, GTX_TITAN, k=1).time_s
            == time_spmv(csr, titan_plan, GTX_TITAN).time_s
        )

    def test_bin_works_cached_per_k(self, csr, titan_plan):
        from repro.core.dispatch import bin_works

        a = bin_works(csr, titan_plan, GTX_TITAN, k=4)
        b = bin_works(csr, titan_plan, GTX_TITAN, k=4)
        assert all(x is y for x, y in zip(a, b))
        c = bin_works(csr, titan_plan, GTX_TITAN, k=2)
        assert a[0] is not c[0]

    def test_streamed_spmm_amortises(self, csr, titan_plan):
        t1 = time_spmv_streamed(csr, titan_plan, GTX_TITAN, k=1)
        t8 = time_spmv_streamed(csr, titan_plan, GTX_TITAN, k=8)
        assert t1.time_s < t8.time_s < 8 * t1.time_s
