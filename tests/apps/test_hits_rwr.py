"""HITS and Random Walk with Restart."""

import numpy as np
import pytest

from repro.apps.hits import hits, split_scores, stacked_matrix
from repro.apps.pagerank import google_matrix
from repro.apps.rwr import column_normalized, rwr
from repro.formats.csr import CSRMatrix
from repro.formats.csr_format import CSRFormat
from repro.gpu.device import GTX_TITAN, Precision

from ..conftest import make_csr_with_empty_rows, make_powerlaw_csr


def small_web(n=60, seed=4):
    return make_powerlaw_csr(
        n_rows=n, n_cols=n, seed=seed, max_degree=20
    ).binarized()


@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
@pytest.mark.parametrize(
    "operator", [column_normalized, google_matrix, stacked_matrix]
)
def test_app_operators_store_one_value_per_column(operator, precision):
    """The graph operators are a 0/1 pattern scaled per column, so the
    kernel multiplies them through a column scale (bitwise like scipy in
    float64); the random-valued matrix they come from has none."""
    raw = make_csr_with_empty_rows(seed=6, precision=precision)
    assert raw.col_scale is None
    op = operator(raw.binarized())
    scale = op.col_scale
    assert scale is not None
    assert np.array_equal(scale[op.col_idx], op.values.astype(np.float64))
    x = np.random.default_rng(1).random(op.n_cols).astype(op.values.dtype)
    want = op.to_scipy().astype(np.float64) @ x.astype(np.float64)
    assert np.array_equal(op.matvec(x), want.astype(x.dtype))


class TestStackedMatrix:
    def test_shape_and_nnz(self):
        adj = small_web()
        b = stacked_matrix(adj)
        assert b.shape == (2 * adj.n_rows, 2 * adj.n_rows)
        assert b.nnz == 2 * adj.nnz

    def test_block_structure(self):
        """Top rows reference only columns >= n; bottom rows only < n."""
        adj = small_web()
        n = adj.n_rows
        b = stacked_matrix(adj)
        rows = np.repeat(np.arange(2 * n), b.nnz_per_row)
        top = rows < n
        assert np.all(b.col_idx[top] >= n)
        assert np.all(b.col_idx[~top] < n)

    def test_rejects_rectangular(self):
        m = make_powerlaw_csr(n_rows=20, n_cols=30, seed=2)
        with pytest.raises(ValueError, match="square"):
            stacked_matrix(m)

    def test_one_stacked_spmv_equals_two_halves(self, rng):
        """Equation 7: B @ [a; h] == [A^T h; A a]."""
        adj = small_web()
        n = adj.n_rows
        b = stacked_matrix(adj)
        a = rng.random(n).astype(np.float32)
        h = rng.random(n).astype(np.float32)
        combined = b.matvec(np.concatenate([a, h]))
        expected_top = adj.to_scipy().T @ h
        expected_bot = adj.to_scipy() @ a
        np.testing.assert_allclose(combined[:n], expected_top, rtol=1e-4)
        np.testing.assert_allclose(combined[n:], expected_bot, rtol=1e-4)


class TestHits:
    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        adj = small_web()
        g = nx.DiGraph()
        g.add_nodes_from(range(adj.n_rows))
        rows = np.repeat(np.arange(adj.n_rows), adj.nnz_per_row)
        for r, c in zip(rows, adj.col_idx):
            g.add_edge(int(r), int(c))
        hubs_nx, auth_nx = nx.hits(g, max_iter=5000, tol=1e-14)

        fmt = CSRFormat.from_csr(
            stacked_matrix(adj).astype(Precision.DOUBLE)
        )
        res = hits(fmt, GTX_TITAN, epsilon=1e-10)
        assert res.converged
        auth, hub = split_scores(res.vector)
        # networkx normalises to sum 1; ours to L2 — compare shapes
        auth = auth / auth.sum()
        hub = hub / hub.sum()
        for i in range(adj.n_rows):
            assert auth[i] == pytest.approx(auth_nx[i], abs=1e-4)
            assert hub[i] == pytest.approx(hubs_nx[i], abs=1e-4)

    def test_scores_nonnegative(self):
        adj = small_web(seed=6)
        fmt = CSRFormat.from_csr(stacked_matrix(adj))
        res = hits(fmt, GTX_TITAN)
        assert res.converged
        assert np.all(res.vector >= -1e-9)

    def test_split_scores_validates(self):
        with pytest.raises(ValueError):
            split_scores(np.ones(3))

    def test_rejects_odd_operator(self):
        m = make_powerlaw_csr(n_rows=21, n_cols=21, seed=2)
        fmt = CSRFormat.from_csr(m)
        with pytest.raises(ValueError, match="stacked"):
            hits(fmt, GTX_TITAN)


class TestRwr:
    def test_column_normalized_is_substochastic(self):
        adj = small_web()
        w = column_normalized(adj)
        sums = np.zeros(w.n_cols)
        np.add.at(sums, w.col_idx, np.abs(w.values.astype(np.float64)))
        assert np.all(sums <= 1.0 + 1e-6)

    @pytest.mark.parametrize("precision", list(Precision))
    def test_column_sums_match_python_loop(self, precision):
        """Column sums add ``|values|`` one at a time from 0.0 in storage
        order, so ``W`` is bitwise the plain loop's."""
        adj = make_csr_with_empty_rows(seed=6, precision=precision)
        sums = [0.0] * adj.n_cols
        for c, v in zip(adj.col_idx.tolist(), adj.values.tolist()):
            sums[c] += abs(v)
        inv = np.array([1.0 / s if s > 0 else 0.0 for s in sums])
        want = (adj.values.astype(np.float64) * inv[adj.col_idx]).astype(
            adj.values.dtype
        )
        assert column_normalized(adj).values.tobytes() == want.tobytes()

    def test_converges_and_sums_to_one(self):
        adj = small_web()
        fmt = CSRFormat.from_csr(
            column_normalized(adj).astype(Precision.DOUBLE)
        )
        res = rwr(fmt, GTX_TITAN, seed_node=3, epsilon=1e-10)
        assert res.converged
        # W is SUBstochastic (columns with no in-links lose mass), so the
        # relevance vector sums to at most 1 and stays non-negative.
        assert 0.2 < res.vector.sum() <= 1.0 + 1e-9
        assert np.all(res.vector >= -1e-12)

    def test_seed_node_is_most_relevant_to_itself(self):
        adj = small_web(seed=8)
        fmt = CSRFormat.from_csr(column_normalized(adj))
        res = rwr(fmt, GTX_TITAN, seed_node=5, restart=0.5)
        assert np.argmax(res.vector) == 5

    def test_validates_seed(self):
        adj = small_web()
        fmt = CSRFormat.from_csr(column_normalized(adj))
        with pytest.raises(ValueError):
            rwr(fmt, GTX_TITAN, seed_node=-1)
        with pytest.raises(ValueError):
            rwr(fmt, GTX_TITAN, seed_node=10**6)

    def test_validates_restart(self):
        adj = small_web()
        fmt = CSRFormat.from_csr(column_normalized(adj))
        with pytest.raises(ValueError):
            rwr(fmt, GTX_TITAN, seed_node=0, restart=1.0)
