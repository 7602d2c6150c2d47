"""Format advisor: the Section IX decision procedure."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro

from repro.formats.advisor import (
    Recommendation,
    Workload,
    matrix_traits,
    recommend,
)
from repro.formats.csr import CSRMatrix

from ..conftest import make_powerlaw_csr, make_uniform_csr


def tridiagonal(n=300):
    rows, cols = [], []
    for i in range(n):
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                rows.append(i)
                cols.append(j)
    return CSRMatrix.from_coo(
        np.array(rows), np.array(cols), np.ones(len(rows)), (n, n)
    )


class TestTraits:
    def test_tridiagonal_traits(self):
        t = matrix_traits(tridiagonal())
        assert t["n_diags"] == 3
        assert t["cv"] < 0.3

    def test_powerlaw_traits(self):
        t = matrix_traits(make_powerlaw_csr(seed=3))
        assert t["cv"] > 1.0
        assert t["max_over_mu"] > 10

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=30),
        n_cols=st.integers(min_value=0, max_value=30),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_diagonal_count_matches_unique(self, n_rows, n_cols, density, seed):
        """``n_diags`` is the number of distinct ``col - row`` over the
        stored entries, on rectangular shapes, with empty rows and with
        no entries at all."""
        rng = np.random.default_rng(seed)
        mask = rng.random((n_rows, n_cols)) < density
        rows, cols = np.nonzero(mask)
        csr = CSRMatrix.from_coo(rows, cols, np.ones(rows.size), (n_rows, n_cols))
        assert matrix_traits(csr)["n_diags"] == np.unique(cols - rows).size

    def test_registering_a_graph_leaves_numpy_ma_unloaded(self):
        """Serving a corpus graph counts its diagonals without a sort,
        so ``numpy.ma`` (which ``np.unique`` imports) is never loaded."""
        code = (
            "import sys\n"
            "from repro.gpu import GTX_TITAN\n"
            "from repro.serve.server import ServeEngine\n"
            "ServeEngine(GTX_TITAN).register('WIK', scale=0.01)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestRecommendations:
    def test_dynamic_always_acsr(self):
        rec = recommend(
            make_powerlaw_csr(seed=1), Workload(dynamic=True)
        )
        assert rec.format_name == "acsr"
        assert "changes" in rec.rationale

    def test_banded_gets_dia(self):
        rec = recommend(tridiagonal())
        assert rec.format_name == "dia"

    def test_uniform_gets_ell(self):
        m = make_uniform_csr(n_rows=400, row_len=8, seed=7)
        rec = recommend(m)
        assert rec.format_name == "ell"

    def test_powerlaw_short_run_gets_acsr(self):
        rec = recommend(
            make_powerlaw_csr(seed=2), Workload(spmv_per_structure=30)
        )
        assert rec.format_name == "acsr"

    def test_powerlaw_medium_run_gets_brc(self):
        rec = recommend(
            make_powerlaw_csr(seed=2), Workload(spmv_per_structure=5_000)
        )
        assert rec.format_name == "brc"

    def test_powerlaw_marathon_gets_bccoo(self):
        rec = recommend(
            make_powerlaw_csr(seed=2),
            Workload(spmv_per_structure=1_000_000),
        )
        assert rec.format_name == "bccoo"

    def test_alternatives_are_known_formats(self):
        from repro.formats.convert import available_formats

        rec = recommend(make_powerlaw_csr(seed=2))
        for alt in rec.alternatives:
            assert alt in available_formats()

    def test_workload_validated(self):
        with pytest.raises(ValueError):
            Workload(spmv_per_structure=0)
