"""PageRank: normalisation, convergence, oracle comparison vs networkx."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps.pagerank import DEFAULT_DAMPING, google_matrix, pagerank
from repro.formats.csr import CSRMatrix
from repro.formats.csr_format import CSRFormat
from repro.gpu.device import GTX_TITAN, Precision

from ..conftest import make_csr_with_empty_rows, make_powerlaw_csr


def ring_graph(n=50):
    """i -> i+1 ring plus a chord, unweighted."""
    rows = list(range(n)) + [0]
    cols = [(i + 1) % n for i in range(n)] + [n // 2]
    return CSRMatrix.from_coo(
        np.array(rows),
        np.array(cols),
        np.ones(len(rows)),
        (n, n),
        precision=Precision.DOUBLE,
    )


class TestGoogleMatrix:
    def test_transposed_shape(self):
        m = make_powerlaw_csr(n_rows=100, n_cols=100, seed=8)
        g = google_matrix(m)
        assert g.shape == (100, 100)

    def test_columns_are_stochastic(self):
        """Each column of M = (D^-1 A)^T sums to 1 for non-dangling rows."""
        adj = ring_graph().binarized()
        g = google_matrix(adj)
        col_sums = np.zeros(g.n_cols)
        np.add.at(
            col_sums,
            g.col_idx,
            np.zeros_like(g.values, dtype=float) + g.values,
        )
        np.testing.assert_allclose(col_sums, 1.0, rtol=1e-12)

    def test_dangling_rows_zeroed(self):
        rows = np.array([0])
        cols = np.array([1])
        adj = CSRMatrix.from_coo(
            rows, cols, np.ones(1), (3, 3), precision=Precision.DOUBLE
        )
        g = google_matrix(adj)
        assert g.nnz == 1  # only the one link survives

    @pytest.mark.parametrize("precision", list(Precision))
    def test_matches_python_row_weight_loop(self, precision):
        """Row weights sum ``|values|`` one at a time from 0.0 in storage
        order, so the operator is bitwise the plain loop's."""
        adj = make_csr_with_empty_rows(seed=12, precision=precision)
        weights = [0.0] * adj.n_rows
        for r in range(adj.n_rows):
            for v in adj.values[adj.row_off[r]:adj.row_off[r + 1]].tolist():
                weights[r] += abs(v)
        inv = np.array([1.0 / w if w > 0 else 0.0 for w in weights])
        scaled = (
            adj.values.astype(np.float64) * np.repeat(inv, adj.nnz_per_row)
        ).astype(adj.values.dtype)
        want = sp.csr_matrix(
            (scaled, adj.col_idx, adj.row_off), shape=adj.shape
        ).T.tocsr()
        got = google_matrix(adj)
        assert got.values.tobytes() == want.data.tobytes()
        np.testing.assert_array_equal(got.col_idx, want.indices)
        np.testing.assert_array_equal(got.row_off, want.indptr)


class TestPageRank:
    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        adj = ring_graph()
        g = nx.DiGraph()
        rows = np.repeat(np.arange(adj.n_rows), adj.nnz_per_row)
        for r, c in zip(rows, adj.col_idx):
            g.add_edge(int(r), int(c))
        expected = nx.pagerank(g, alpha=DEFAULT_DAMPING, tol=1e-11, max_iter=5000)

        fmt = CSRFormat.from_csr(google_matrix(adj))
        res = pagerank(fmt, GTX_TITAN, epsilon=1e-12)
        assert res.converged
        got = res.vector / res.vector.sum()
        for node, pr in expected.items():
            assert got[node] == pytest.approx(pr, rel=1e-4)

    def test_uniform_on_symmetric_ring(self):
        n = 40
        rows = np.concatenate([np.arange(n), np.arange(n)])
        cols = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) - 1) % n])
        adj = CSRMatrix.from_coo(
            rows, cols, np.ones(2 * n), (n, n), precision=Precision.DOUBLE
        )
        fmt = CSRFormat.from_csr(google_matrix(adj))
        res = pagerank(fmt, GTX_TITAN, epsilon=1e-10)
        np.testing.assert_allclose(res.vector, 1.0 / n, rtol=1e-6)

    def test_warm_start_converges_faster(self):
        adj = make_powerlaw_csr(n_rows=2000, seed=9).binarized()
        fmt = CSRFormat.from_csr(google_matrix(adj))
        cold = pagerank(fmt, GTX_TITAN)
        warm = pagerank(fmt, GTX_TITAN, x0=cold.vector)
        assert warm.iterations < cold.iterations
        assert warm.iterations <= 2

    def test_modeled_time_scales_with_iterations(self):
        adj = make_powerlaw_csr(n_rows=2000, seed=9).binarized()
        fmt = CSRFormat.from_csr(google_matrix(adj))
        res = pagerank(fmt, GTX_TITAN)
        assert res.modeled_time_s == pytest.approx(
            res.iterations * res.time_per_iteration_s
        )
        assert res.time_per_iteration_s > fmt.spmv_time_s(GTX_TITAN) > 0

    def test_validates_damping(self):
        fmt = CSRFormat.from_csr(google_matrix(ring_graph()))
        with pytest.raises(ValueError):
            pagerank(fmt, GTX_TITAN, damping=1.5)

    def test_validates_square(self):
        m = make_powerlaw_csr(n_rows=20, n_cols=30, seed=2)
        fmt = CSRFormat.from_csr(m)
        with pytest.raises(ValueError, match="square"):
            pagerank(fmt, GTX_TITAN)

    def test_validates_x0_shape(self):
        fmt = CSRFormat.from_csr(google_matrix(ring_graph()))
        with pytest.raises(ValueError):
            pagerank(fmt, GTX_TITAN, x0=np.ones(3))

    def test_backend_independence(self):
        """Every SpMV backend converges to the same ranks."""
        from repro.formats.convert import build_format

        adj = make_powerlaw_csr(n_rows=1500, seed=10).binarized()
        g = google_matrix(adj)
        results = {}
        for name in ("csr", "hyb", "acsr"):
            res = pagerank(build_format(name, g), GTX_TITAN)
            results[name] = res
        base = results["csr"]
        for name, res in results.items():
            assert res.iterations == base.iterations, name
            np.testing.assert_allclose(
                res.vector, base.vector, rtol=1e-4, atol=1e-7
            )
