"""The one power-method loop and its bill."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.apps import hits, pagerank, run_rwr_batch, rwr
from repro.apps.power_method import (
    DEFAULT_VECTOR_PASSES,
    bill_trajectory,
    make_batch_bill,
    run_trajectory,
    vector_ops_work,
)
from repro.formats.csr_format import CSRFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.device import GTX_TITAN, Precision
from repro.gpu.simulator import simulate_kernel


def diagonal_halver(n=32):
    """A = 0.5 I — every iterate halves, so convergence is analysable."""
    idx = np.arange(n)
    return CSRMatrix.from_coo(
        idx, idx, np.full(n, 0.5), (n, n), precision=Precision.DOUBLE
    )


def run_batch(fmt, X0, step, **kwargs):
    """The loop from ``X0``, billed for ``fmt`` as the apps bill it."""
    traj = run_trajectory(fmt, X0, step, **kwargs)
    return bill_trajectory(traj, fmt, GTX_TITAN)


def run_single(fmt, x0, step, **kwargs):
    """The loop at k = 1, as the apps run it; ``step`` maps ``A @ x``."""
    return run_batch(
        fmt, x0[:, None], lambda X, AX, _cols: step(AX), **kwargs
    ).single()


class TestVectorOpsWork:
    def test_scales_with_passes(self):
        w1 = vector_ops_work(10_000, 2, Precision.SINGLE)
        w2 = vector_ops_work(10_000, 4, Precision.SINGLE)
        assert w2.total_dram_bytes == pytest.approx(
            2 * w1.total_dram_bytes
        )

    def test_empty(self):
        assert vector_ops_work(0, 3, Precision.SINGLE).n_warps == 0

    def test_constant_entry_count(self):
        """O(1) weighted entries, regardless of vector length."""
        for n in (31, 32, 33, 10_000, 10_007, 1_000_000):
            w = vector_ops_work(n, 3, Precision.SINGLE)
            assert w.n_entries <= 2
            assert w.n_warps == -(-n // 32)

    def test_weighted_totals_match_per_warp_sum(self):
        """Weights recover exactly the dense per-warp totals."""
        n = 10_007  # 312 full warps + a 23-lane straggler
        w = vector_ops_work(n, 2, Precision.SINGLE)
        full = vector_ops_work(32 * 312, 2, Precision.SINGLE)
        tail = vector_ops_work(23, 2, Precision.SINGLE)
        assert w.total_dram_bytes == pytest.approx(
            full.total_dram_bytes + tail.total_dram_bytes
        )
        assert w.total_insts == pytest.approx(
            full.total_insts + tail.total_insts
        )


class TestDriver:
    def test_geometric_convergence(self):
        fmt = CSRFormat.from_csr(diagonal_halver())
        res = run_single(
            fmt,
            x0=np.ones(32),
            step=lambda ax: ax,
            epsilon=1e-6,
        )
        assert res.converged
        # ||x_k - x_{k+1}|| = 0.5^k * ||x0|| / 2... about 25 iterations
        assert 15 <= res.iterations <= 35
        assert np.all(np.abs(res.vector) < 1e-4)

    def test_iteration_cap(self):
        fmt = CSRFormat.from_csr(diagonal_halver())
        res = run_single(
            fmt,
            x0=np.ones(32),
            step=lambda ax: ax,
            epsilon=1e-300,
            max_iterations=7,
        )
        assert not res.converged
        assert res.iterations == 7

    def test_divergence_detected(self):
        """A doubling operator overflows; the driver must stop."""
        n = 16
        idx = np.arange(n)
        doubler = CSRMatrix.from_coo(
            idx, idx, np.full(n, 1e30), (n, n), precision=Precision.SINGLE
        )
        fmt = CSRFormat.from_csr(doubler)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_single(
                fmt,
                x0=np.full(n, 1e30, dtype=np.float32),
                step=lambda ax: ax,
                epsilon=1e-9,
            )
        assert not res.converged
        assert res.iterations < 50

    def test_rejects_bad_epsilon(self):
        fmt = CSRFormat.from_csr(diagonal_halver())
        with pytest.raises(ValueError):
            run_single(fmt, np.ones(32), lambda ax: ax, epsilon=0.0)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_nonpositive_max_iterations(self, cap):
        fmt = CSRFormat.from_csr(diagonal_halver())
        with pytest.raises(ValueError, match="max_iterations"):
            run_single(fmt, np.ones(32), lambda ax: ax, max_iterations=cap)

    def test_time_includes_vector_ops(self):
        fmt = CSRFormat.from_csr(diagonal_halver())
        res = run_single(
            fmt,
            x0=np.ones(32),
            step=lambda ax: ax,
            epsilon=1e-6,
        )
        assert res.modeled_time_s > res.iterations * fmt.spmv_time_s(GTX_TITAN)


def oracle_run(A, x0, teleport, epsilon, max_iterations):
    """A plain power loop: scipy SpMV, the step arithmetic of
    :func:`affine_step` and a 1-D ``np.linalg.norm`` distance."""
    x, its = x0, 0
    while its < max_iterations:
        nxt = 0.5 * (A @ x) + teleport
        its += 1
        dist = np.linalg.norm(nxt - x)
        x = nxt
        if not np.isfinite(dist):
            return x, its, False
        if dist <= epsilon:
            return x, its, True
    return x, its, False


def affine_step(T):
    """The k-wide step ``x <- A x / 2 + t`` with a teleport per column."""
    return lambda X, AX, cols: 0.5 * AX + T[:, cols]


class TestOracle:
    """Every column of a k-wide run is the plain single-vector loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 48),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.1, 1.0),
        scale=st.floats(0.2, 2.5),
        epsilon=st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    def test_columns_equal_the_plain_loop(
        self, n, k, seed, density, scale, epsilon
    ):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((n, n)) * scale / np.sqrt(n)
        dense *= rng.random((n, n)) < density
        dense[np.arange(n), np.arange(n)] += scale / 2  # never empty
        rows, cols = np.nonzero(dense)
        fmt = CSRFormat.from_csr(
            CSRMatrix.from_coo(
                rows, cols, dense[rows, cols], (n, n),
                precision=Precision.DOUBLE,
            )
        )
        A = sp.csr_matrix(dense)
        X0 = rng.standard_normal((n, k))
        T = rng.random((n, k))
        cap = 40
        res = run_batch(
            fmt, X0, affine_step(T), epsilon=epsilon, max_iterations=cap
        )

        def cost_of_width(w):
            vec = vector_ops_work(n * w, DEFAULT_VECTOR_PASSES, fmt.precision)
            return (
                fmt.spmm_time_s(GTX_TITAN, k=w)
                + simulate_kernel(GTX_TITAN, vec).time_s
            )

        bill = make_batch_bill(res.iterations, cost_of_width)
        for j in range(k):
            x, its, conv = oracle_run(A, X0[:, j], T[:, j], epsilon, cap)
            assert np.array_equal(res.vectors[:, j], x)
            assert res.iterations[j] == its
            assert bool(res.converged[j]) == conv
            assert res.column_times_s[j] == bill.time_through_round(its)
        assert res.modeled_time_s == bill.total_s


class TestFixedStep:
    """Epsilon equal to the 1-D norm of the first step.

    ``np.linalg.norm(d)`` is a BLAS dot; ``norm(axis=0)`` sums in another
    order and can land an ulp above it (for this ``d``: 31.524719037925973
    against 31.52471903792597).  The loop takes the 1-D norm, so the run
    stops after one round at every width.
    """

    @pytest.mark.parametrize("k", [1, 2])
    def test_stops_after_one_round(self, k):
        n = 3000
        d = np.random.default_rng(0).random(n)
        epsilon = float(np.linalg.norm(d))
        idx = np.arange(n)
        identity = CSRFormat.from_csr(
            CSRMatrix.from_coo(
                idx, idx, np.ones(n), (n, n), precision=Precision.DOUBLE
            )
        )
        # A second column stepping 3d moves 3e, 1.5e, 0.75e: it runs
        # three rounds, the last two alone.
        D = np.stack([d, 3.0 * d], axis=1)[:, :k]
        res = run_batch(
            identity, np.zeros((n, k)), affine_step(D), epsilon=epsilon
        )
        assert res.iterations[0] == 1
        assert res.converged[0]
        assert np.array_equal(res.vectors[:, 0], d)
        if k == 2:
            assert res.iterations[1] == 3


_APPS = {
    "pagerank": pagerank,
    "hits": hits,
    "rwr": lambda fmt, dev, **kw: rwr(fmt, dev, 0, **kw),
    "rwr-batch": lambda fmt, dev, **kw: run_rwr_batch(fmt, dev, [0, 1], **kw),
}


class TestAppsRejectNoIterations:
    @pytest.mark.parametrize("cap", [0, -3])
    @pytest.mark.parametrize("app", sorted(_APPS))
    def test_raises_before_any_work(self, app, cap):
        # Placeholder format and device: touching either would raise
        # AttributeError, so the ValueError shows nothing ran first.
        with pytest.raises(ValueError, match="max_iterations"):
            _APPS[app](object(), object(), max_iterations=cap)
