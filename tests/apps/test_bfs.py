"""SpMV-based BFS (extension application)."""

import numpy as np
import pytest

from repro.apps.bfs import UNREACHED, bfs, bfs_matrix
from repro.apps.power_method import vector_ops_work
from repro.formats.csr import CSRMatrix
from repro.formats.csr_format import CSRFormat
from repro.formats.convert import build_format
from repro.gpu.device import GTX_TITAN, Precision
from repro.gpu.simulator import simulate_kernel

from ..conftest import make_powerlaw_csr


def chain_graph(n=10):
    """0 -> 1 -> 2 -> ... -> n-1."""
    rows = np.arange(n - 1)
    cols = np.arange(1, n)
    return CSRMatrix.from_coo(
        rows, cols, np.ones(n - 1), (n, n), precision=Precision.SINGLE
    )


class TestBfs:
    def test_chain_levels(self):
        fmt = CSRFormat.from_csr(bfs_matrix(chain_graph(8)))
        res = bfs(fmt, GTX_TITAN, source=0)
        np.testing.assert_array_equal(res.levels, np.arange(8))
        assert res.eccentricity == 7
        assert res.n_reached == 8

    def test_unreachable_marked(self):
        fmt = CSRFormat.from_csr(bfs_matrix(chain_graph(8)))
        res = bfs(fmt, GTX_TITAN, source=4)
        assert np.all(res.levels[:4] == UNREACHED)
        np.testing.assert_array_equal(res.levels[4:], np.arange(4))

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        adj = make_powerlaw_csr(n_rows=150, seed=33, max_degree=25)
        g = nx.DiGraph()
        g.add_nodes_from(range(adj.n_rows))
        rows = np.repeat(np.arange(adj.n_rows), adj.nnz_per_row)
        for r, c in zip(rows, adj.col_idx):
            g.add_edge(int(r), int(c))
        expected = nx.single_source_shortest_path_length(g, 0)

        fmt = CSRFormat.from_csr(bfs_matrix(adj))
        res = bfs(fmt, GTX_TITAN, source=0)
        for v in range(adj.n_rows):
            if v in expected:
                assert res.levels[v] == expected[v], v
            else:
                assert res.levels[v] == UNREACHED, v

    def test_backend_independent(self):
        adj = make_powerlaw_csr(n_rows=300, seed=35, max_degree=40)
        op = bfs_matrix(adj)
        base = bfs(CSRFormat.from_csr(op), GTX_TITAN, source=1)
        for name in ("hyb", "acsr"):
            res = bfs(build_format(name, op), GTX_TITAN, source=1)
            np.testing.assert_array_equal(res.levels, base.levels)

    def test_max_levels_cap(self):
        fmt = CSRFormat.from_csr(bfs_matrix(chain_graph(20)))
        res = bfs(fmt, GTX_TITAN, source=0, max_levels=3)
        assert res.iterations == 3
        assert res.levels.max() <= 3

    def test_modeled_time_positive(self):
        fmt = CSRFormat.from_csr(bfs_matrix(chain_graph(8)))
        res = bfs(fmt, GTX_TITAN, source=0)
        assert res.modeled_time_s > 0

    @pytest.mark.parametrize("name", ["csr", "hyb", "acsr"])
    def test_bill_is_iterations_times_spmv_plus_vector_kernel(self, name):
        """The width-1 batch bill reproduces the per-level formula
        ``iters * (spmv + frontier kernel)`` bit for bit."""
        op = bfs_matrix(make_powerlaw_csr(n_rows=300, seed=35, max_degree=40))
        fmt = build_format(name, op)
        res = bfs(fmt, GTX_TITAN, source=1)
        assert res.iterations > 1
        vec = vector_ops_work(fmt.n_rows, 3, fmt.precision)
        assert repr(res.modeled_time_s) == repr(
            res.iterations
            * (
                fmt.spmv_time_s(GTX_TITAN)
                + simulate_kernel(GTX_TITAN, vec).time_s
            )
        )

    def test_validation(self):
        fmt = CSRFormat.from_csr(bfs_matrix(chain_graph(8)))
        with pytest.raises(ValueError):
            bfs(fmt, GTX_TITAN, source=99)
        with pytest.raises(ValueError):
            bfs(fmt, GTX_TITAN, source=0, max_levels=0)
        rect = make_powerlaw_csr(n_rows=10, n_cols=20, seed=1)
        with pytest.raises(ValueError, match="square"):
            bfs(CSRFormat.from_csr(rect), GTX_TITAN, source=0)
