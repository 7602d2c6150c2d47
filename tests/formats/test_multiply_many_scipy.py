"""``multiply_many`` vs scipy: every registry format, same numbers.

Every format's batched product goes through its source CSR's
``matmat``; it must agree with an independent oracle —
``scipy.sparse.csr_matrix @ X`` — for every format the registry can
build, and each column must stay bitwise equal to the format's own
single-vector ``multiply``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import available_formats, build_format
from repro.formats.bccoo import BCCOOConfig

from ..conftest import make_powerlaw_csr

#: Cheap construction kwargs so the tuners don't dominate the test.
FAST_KWARGS = {
    "bccoo": {
        "configs": [
            BCCOOConfig(1, 1, 128, 2, True),
            BCCOOConfig(2, 2, 128, 4, True),
        ]
    },
    "tcoo": {"candidates": (1, 4, 16)},
}


@pytest.fixture(scope="module")
def matrix():
    return make_powerlaw_csr(n_rows=900, seed=5, max_degree=200)


@pytest.fixture(scope="module")
def scipy_reference(matrix):
    return sp.csr_matrix(
        (
            matrix.values.astype(np.float64),
            matrix.col_idx,
            matrix.row_off,
        ),
        shape=matrix.shape,
    )


@pytest.mark.parametrize("name", sorted(available_formats()))
def test_multiply_many_matches_scipy(name, matrix, scipy_reference):
    fmt = build_format(name, matrix, **FAST_KWARGS.get(name, {}))
    rng = np.random.default_rng(17)
    X = rng.standard_normal((matrix.n_cols, 6)).astype(
        fmt.precision.numpy_dtype
    )
    Y = fmt.multiply_many(X)
    assert Y.shape == (matrix.n_rows, 6)
    expected = scipy_reference @ X.astype(np.float64)
    np.testing.assert_allclose(Y, expected, rtol=1e-4, atol=1e-4)
    # Each column must also be the format's own single-vector product,
    # bitwise — the SpMM path reorganises loops, never the arithmetic.
    for j in range(X.shape[1]):
        assert np.array_equal(Y[:, j], fmt.multiply(X[:, j].copy()))
