"""Shared fixtures: small deterministic matrices of every interesting shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.gpu.device import Precision


def make_powerlaw_csr(
    n_rows: int = 2000,
    n_cols: int | None = None,
    seed: int = 7,
    precision: Precision = Precision.SINGLE,
    max_degree: int = 400,
    hub_exponent: float = 2.0,
) -> CSRMatrix:
    """A small power-law matrix with a planted hub row."""
    rng = np.random.default_rng(seed)
    n_cols = n_cols or n_rows
    # Pareto-ish degrees, clipped.
    deg = np.minimum(
        (rng.pareto(1.3, n_rows) * 2 + 1).astype(np.int64), max_degree
    )
    deg[int(rng.integers(n_rows))] = max_degree  # the hub
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), deg)
    u = rng.random(rows.shape[0])
    cols = np.minimum(
        (n_cols * u**hub_exponent).astype(np.int64), n_cols - 1
    )
    vals = rng.standard_normal(rows.shape[0])
    return CSRMatrix.from_coo(
        rows, cols, vals, shape=(n_rows, n_cols), precision=precision
    )


def make_uniform_csr(
    n_rows: int = 500,
    row_len: int = 8,
    seed: int = 11,
    precision: Precision = Precision.SINGLE,
) -> CSRMatrix:
    """Low-variance matrix (the AMZ/DBL regime)."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), row_len)
    cols = rng.integers(0, n_rows, rows.shape[0])
    vals = rng.standard_normal(rows.shape[0])
    return CSRMatrix.from_coo(
        rows, cols, vals, shape=(n_rows, n_rows), precision=precision
    )


def make_csr_with_empty_rows(
    seed: int = 3, precision: Precision = Precision.SINGLE
) -> CSRMatrix:
    """Every third row empty — exercises the reduceat pitfall."""
    rng = np.random.default_rng(seed)
    n = 300
    deg = rng.integers(1, 6, n)
    deg[::3] = 0
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    cols = rng.integers(0, n, rows.shape[0])
    vals = rng.standard_normal(rows.shape[0])
    return CSRMatrix.from_coo(
        rows, cols, vals, shape=(n, n), precision=precision
    )



def make_tridiagonal_csr(
    n: int = 200, precision: Precision = Precision.SINGLE
) -> CSRMatrix:
    """The three-diagonal band DIA stores without padding."""
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                rows.append(i)
                cols.append(j)
                vals.append(float(i - j + 2))
    return CSRMatrix.from_coo(
        np.array(rows), np.array(cols), np.array(vals), (n, n), precision
    )

@pytest.fixture(scope="session")
def powerlaw_csr() -> CSRMatrix:
    return make_powerlaw_csr()


@pytest.fixture(scope="session")
def uniform_csr() -> CSRMatrix:
    return make_uniform_csr()


@pytest.fixture(scope="session")
def empty_rows_csr() -> CSRMatrix:
    return make_csr_with_empty_rows()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def reference_matvec(csr: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """SciPy oracle."""
    return csr.to_scipy() @ x


def assert_spmv_close(y, ref, precision: Precision) -> None:
    rtol = 1e-4 if precision is Precision.SINGLE else 1e-10
    atol = 1e-5 if precision is Precision.SINGLE else 1e-12
    scale = max(1.0, float(np.max(np.abs(ref))) if ref.size else 1.0)
    np.testing.assert_allclose(y, ref, rtol=rtol, atol=atol * scale)
