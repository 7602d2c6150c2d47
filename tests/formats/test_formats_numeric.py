"""Every format multiplies through its source CSR's one kernel.

Parametrised across the full registry and several matrix shapes; this is
the backbone numeric guarantee — format layouts may differ wildly, but
the product never does.  ``multiply``/``multiply_many`` are bitwise the
CSR kernel's, which is checked against independent oracles: SciPy, and a
per-row ``math.fsum`` under the sequential-sum error bound.
"""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.formats import available_formats, build_format
from repro.formats.bccoo import BCCOOConfig
from repro.formats.csr import CSRMatrix
from repro.gpu.device import GTX_TITAN, Precision

from ..conftest import (
    assert_spmv_close,
    make_csr_with_empty_rows,
    make_powerlaw_csr,
    make_tridiagonal_csr,
    make_uniform_csr,
    reference_matvec,
)

#: Cheap tuning spaces so tests stay fast.
FAST_KWARGS = {
    "bccoo": {
        "configs": [
            BCCOOConfig(1, 1, 128, 2, True),
            BCCOOConfig(2, 2, 128, 2, True),
        ]
    },
    "tcoo": {"candidates": (1, 4)},
}

MATRICES = {
    "powerlaw": make_powerlaw_csr(seed=1),
    "uniform": make_uniform_csr(seed=2),
    "empty_rows": make_csr_with_empty_rows(seed=3),
    "tiny": make_powerlaw_csr(n_rows=40, seed=4, max_degree=30),
    "tridiagonal": make_tridiagonal_csr(),
    "hub200": make_powerlaw_csr(n_rows=900, seed=5, max_degree=200),
}

#: Formats whose builders reject double precision (Section V).
SINGLE_ONLY = ("bccoo", "tcoo")


def build(fmt_name: str, csr: CSRMatrix):
    """``fmt_name`` built from ``csr``, or ``None`` if it cannot hold it."""
    if fmt_name in SINGLE_ONLY and csr.precision is Precision.DOUBLE:
        return None
    return build_format(fmt_name, csr, **FAST_KWARGS.get(fmt_name, {}))


def fsum_rows(csr: CSRMatrix, x: np.ndarray):
    """Per-row ``math.fsum`` of the float64 products, and of their
    magnitudes ``sum |a_ij * x_j|``."""
    exact, magnitude = [], []
    for i in range(csr.n_rows):
        lo, hi = csr.row_off[i], csr.row_off[i + 1]
        prods = [
            float(a) * float(x[j])
            for a, j in zip(csr.values[lo:hi], csr.col_idx[lo:hi])
        ]
        exact.append(math.fsum(prods))
        magnitude.append(math.fsum(abs(p) for p in prods))
    return np.array(exact), np.array(magnitude)


def mixed_magnitude_csr(seed: int, n_rows: int, precision: Precision):
    """Rows of ~1e12 heads beside rows of ~1e-3 tails, head first."""
    rng = np.random.default_rng(seed)
    n_cols = 64
    rows, cols, vals = [], [], []
    for i in range(n_rows):
        head = i == 0 or rng.random() < 0.5
        length = int(rng.integers(1, 40 if head else 6))
        picked = rng.choice(n_cols, size=length, replace=False)
        scale = 1e12 if head else 1e-3
        rows += [i] * length
        cols += list(picked)
        vals += list(scale * (1.0 + rng.random(length)) * rng.choice([-1, 1], length))
    return CSRMatrix.from_coo(
        np.array(rows), np.array(cols), np.array(vals), (n_rows, n_cols), precision
    )


@pytest.mark.parametrize("fmt_name", available_formats())
@pytest.mark.parametrize("matrix_name", sorted(MATRICES))
def test_multiply_matches_scipy(fmt_name, matrix_name):
    csr = MATRICES[matrix_name]
    if fmt_name in ("ell", "dia") and matrix_name == "powerlaw":
        pytest.skip("padding formats guard against power-law slabs")
    fmt = build_format(fmt_name, csr, **FAST_KWARGS.get(fmt_name, {}))
    rng = np.random.default_rng(99)
    x = rng.standard_normal(csr.n_cols).astype(np.float32)
    y = fmt.multiply(x)
    assert_spmv_close(y, reference_matvec(csr, x), Precision.SINGLE)


@pytest.mark.parametrize("fmt_name", available_formats())
def test_run_spmv_returns_consistent_result(fmt_name):
    csr = MATRICES["empty_rows"]
    fmt = build_format(fmt_name, csr, **FAST_KWARGS.get(fmt_name, {}))
    x = np.ones(csr.n_cols, dtype=np.float32)
    res = fmt.run_spmv(x, GTX_TITAN)
    assert res.time_s > 0
    assert res.flops >= 0
    assert res.gflops >= 0
    assert_spmv_close(res.y, reference_matvec(csr, x), Precision.SINGLE)


@pytest.mark.parametrize(
    "fmt_name",
    [f for f in available_formats() if f not in ("bccoo", "tcoo")],
)
def test_double_precision_supported(fmt_name):
    csr = MATRICES["uniform"].astype(Precision.DOUBLE)
    fmt = build_format(fmt_name, csr)
    assert fmt.precision is Precision.DOUBLE
    x = np.ones(csr.n_cols)
    y = fmt.multiply(x)
    assert_spmv_close(y, reference_matvec(csr, x), Precision.DOUBLE)


@pytest.mark.parametrize("fmt_name", ["bccoo", "tcoo"])
def test_single_precision_only_formats(fmt_name):
    csr = MATRICES["uniform"].astype(Precision.DOUBLE)
    with pytest.raises(ValueError, match="single precision"):
        build_format(fmt_name, csr, **FAST_KWARGS.get(fmt_name, {}))


@pytest.mark.parametrize("fmt_name", available_formats())
def test_kernel_works_nonempty(fmt_name):
    csr = MATRICES["uniform"]
    fmt = build_format(fmt_name, csr, **FAST_KWARGS.get(fmt_name, {}))
    works = fmt.kernel_works(GTX_TITAN)
    assert len(works) >= 1
    total_flops = sum(w.flops for w in works)
    # every format performs 2*nnz useful flops (DIA/ELL padding is not
    # counted as useful)
    assert total_flops == pytest.approx(2.0 * csr.nnz)


@pytest.mark.parametrize("fmt_name", available_formats())
def test_preprocess_report_present(fmt_name):
    csr = MATRICES["uniform"]
    fmt = build_format(fmt_name, csr, **FAST_KWARGS.get(fmt_name, {}))
    rep = fmt.preprocess
    assert rep.total_s >= 0.0
    assert rep.device_bytes > 0
    # CSR needs no transformation; every other format pays something.
    if fmt_name not in ("csr", "csr-scalar", "csr-vector"):
        assert rep.total_s > 0.0


def test_unknown_format_rejected():
    with pytest.raises(KeyError, match="unknown format"):
        build_format("csr5", MATRICES["uniform"])


def test_x_shape_validated():
    fmt = build_format("csr", MATRICES["uniform"])
    with pytest.raises(ValueError, match="shape"):
        fmt.run_spmv(np.ones(3, dtype=np.float32), GTX_TITAN)


@pytest.mark.parametrize("fmt_name", available_formats())
@pytest.mark.parametrize("matrix_name", sorted(MATRICES))
def test_multiply_bitwise_equals_csr_kernel(fmt_name, matrix_name):
    """``multiply`` and ``multiply_many`` (k in {1, 3, 8}) are bitwise the
    source CSR's ``matvec``/``matmat`` for every registry format."""
    csr = MATRICES[matrix_name]
    fmt = build(fmt_name, csr)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((csr.n_cols, 8)).astype(fmt.precision.numpy_dtype)
    y = fmt.multiply(X[:, 0])
    assert np.array_equal(y, csr.matvec(X[:, 0]))
    for k in (1, 3, 8):
        Y = fmt.multiply_many(X[:, :k])
        assert np.array_equal(Y, csr.matmat(X[:, :k])), k
        # The k=1 anchor: every column is the single-vector product.
        for j in range(k):
            assert np.array_equal(Y[:, j], fmt.multiply(X[:, j])), (k, j)


#: Per-column shares of ``x`` set to ±0.0: dense, sparse enough for the
#: kernel to skip zeros, and all-zero.
ZERO_SHARES = st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.0, max_value=0.6),
    zero_shares=st.lists(ZERO_SHARES, min_size=1, max_size=6),
    x_specials=st.booleans(),
    stored_non_finite=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_csr_kernel_bitwise_equals_scipy(
    n, m, density, zero_shares, x_specials, stored_non_finite, seed
):
    """The kernel sums each row sequentially from 0.0 in storage order:
    SciPy's CSR loop, bit for bit, in float64.  Each column of ``X`` has
    its own share of ±0.0 entries, so a block mixes columns that take the
    zero-skipping path with columns that take the full pass; ``x`` may
    hold -0.0, NaN and inf, and the matrix negative and non-finite
    values."""
    rng = np.random.default_rng(seed)
    mat = sp.random(n, m, density=density, format="csr", random_state=seed)
    mat.data -= 0.5
    if stored_non_finite and mat.nnz:
        mat.data[rng.integers(0, mat.nnz, 2)] = [np.inf, np.nan]
    csr = CSRMatrix.from_scipy(mat, precision=Precision.DOUBLE)
    k = len(zero_shares)
    X = rng.standard_normal((m, k))
    zero = rng.random((m, k)) < np.array(zero_shares)
    X[zero] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zero)))
    if x_specials:
        X[rng.integers(0, m, 3), rng.integers(0, k, 3)] = [-0.0, np.nan, np.inf]
    assert np.array_equal(csr.matmat(X), mat @ X, equal_nan=True)


def _two_entry_columns(n_cols: int = 64) -> CSRMatrix:
    """Rows ``i`` and ``i + n_cols/2`` both store columns ``2i`` and
    ``2i + 1``: every column holds two entries, so a support of ``s``
    columns touches exactly ``2s`` entries."""
    cols = np.tile(np.arange(n_cols), 2)
    vals = np.random.default_rng(0).standard_normal(2 * n_cols)
    return CSRMatrix.from_coo(
        cols // 2 + np.repeat([0, n_cols // 2], n_cols),
        cols,
        vals,
        (n_cols, n_cols),
        Precision.DOUBLE,
    )


@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_zero_skipping_switches_at_a_quarter_of_the_entries(offset):
    """A column touching at most ``nnz // 4`` entries walks the column
    index (built at that call); one touching more takes the full pass and
    builds nothing, although its support is well under ``nnz // 4``.
    Both are scipy's bits."""
    csr = _two_entry_columns()
    touched = csr.nnz // 4 + offset
    x = np.zeros(csr.n_cols)
    x[np.random.default_rng(1).permutation(csr.n_cols)[: touched // 2]] = 1.5
    y = csr.matvec(x)
    assert ("col_major" in vars(csr)) == (offset <= 0)
    assert np.array_equal(y, csr.to_scipy() @ x)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_stored_non_finite_values_take_the_full_pass():
    """inf·0 is NaN: a zero ``x[c]`` still reaches the rows that store a
    non-finite value in column ``c``."""
    n = 16
    vals = np.ones(n)
    vals[0], vals[1] = np.inf, np.nan
    csr = CSRMatrix.from_coo(np.arange(n), np.arange(n), vals, (n, n))
    x = np.zeros(n)
    x[2] = 3.0
    y = csr.matvec(x)
    assert np.isnan(y[0]) and np.isnan(y[1]) and y[2] == 3.0
    assert not np.any(y[3:])
    assert "col_major" not in vars(csr)


def test_rows_with_unsorted_columns_sum_in_storage_order():
    """Row 0 stores columns 2, 0, 1 with values 1, 1e16, -1e16: in
    storage order 1 is absorbed by 1e16 and the row sums to 0.0, while a
    column-ordered walk would give 1.0.  Such a matrix multiplies by the
    full pass, bitwise like scipy on the same arrays."""
    n_cols = 8
    col_idx = np.array([2, 0, 1] + [3, 4, 5, 6, 7] * 3)
    values = np.array([1.0, 1e16, -1e16] + [2.0] * 15)
    row_off = np.array([0, 3, 8, 13, 18])
    csr = CSRMatrix.from_arrays(values, col_idx, row_off, n_cols)
    x = np.zeros(n_cols)
    x[:3] = 1.0
    y = csr.matvec(x)
    assert y[0] == 0.0
    assert np.array_equal(y, csr.to_scipy() @ x)
    assert "col_major" not in vars(csr)


def test_multiply_casts_x_to_the_format_precision():
    """``multiply`` is ``multiply_many`` of the one-column block, so a
    float64 ``x`` on a single-precision format is rounded to float32
    first and the result is float32, bit for bit the block's column.
    Integer ``x`` is cast the same way."""
    csr = MATRICES["powerlaw"]
    assert csr.precision is Precision.SINGLE
    fmt = build("csr", csr)
    x = np.random.default_rng(5).standard_normal(csr.n_cols) / 3.0
    y = fmt.multiply(x)
    assert y.dtype == np.float32
    assert np.array_equal(y, fmt.multiply_many(x[:, None])[:, 0])
    with pytest.raises(ValueError, match="shape"):
        fmt.multiply(x[:, None])
    ints = np.arange(csr.n_cols) % 5
    assert np.array_equal(fmt.multiply(ints), fmt.multiply(ints.astype(np.float32)))


@pytest.mark.parametrize(
    "dtype", [np.complex64, np.complex128, np.str_, np.bytes_, object]
)
def test_format_layer_rejects_non_real_x(dtype):
    """A complex, string, bytes or object ``x`` is refused by name
    before any cast, through both entry points."""
    fmt = build("csr", MATRICES["powerlaw"])
    x = np.ones(fmt.n_cols).astype(dtype)
    with pytest.raises(ValueError, match=re.escape(str(x.dtype))):
        fmt.multiply(x)
    with pytest.raises(ValueError, match=re.escape(str(x.dtype))):
        fmt.multiply_many(x[:, None])


@pytest.mark.parametrize("fmt_name", available_formats())
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_rows=st.integers(min_value=2, max_value=12),
    precision=st.sampled_from([Precision.SINGLE, Precision.DOUBLE]),
)
def test_mixed_magnitude_rows_within_sequential_bound(
    fmt_name, seed, n_rows, precision
):
    """Each row matches its ``math.fsum`` within
    ``len(row) * eps * sum |a_ij * x_j|``: no row loses its low-order
    terms to a neighbouring row's magnitude."""
    csr = mixed_magnitude_csr(seed, n_rows, precision)
    fmt = build(fmt_name, csr)
    if fmt is None:
        return
    dtype = precision.numpy_dtype
    x = (0.5 + np.random.default_rng(seed).random(csr.n_cols)).astype(dtype)
    exact, magnitude = fsum_rows(csr, x)
    bound = csr.nnz_per_row * np.finfo(dtype).eps * magnitude
    for Y in (fmt.multiply(x)[:, None], fmt.multiply_many(x[:, None])):
        err = np.abs(Y[:, 0].astype(np.float64) - exact)
        assert np.all(err <= bound), (err, bound)


@pytest.mark.parametrize("fmt_name", available_formats())
def test_cancellation_reproducer(fmt_name):
    """Row 0 holds 1000 x 1e12, row 1 holds [1e-3, 2e-3, 3e-3]."""
    rows = np.array([0] * 1000 + [1, 1, 1])
    cols = np.array(list(range(1000)) + [0, 1, 2])
    vals = np.array([1e12] * 1000 + [1e-3, 2e-3, 3e-3])
    for precision in (Precision.DOUBLE, Precision.SINGLE):
        csr = CSRMatrix.from_coo(rows, cols, vals, (2, 1000), precision)
        fmt = build(fmt_name, csr)
        if fmt is None:
            continue
        y = fmt.multiply(np.ones(1000, dtype=precision.numpy_dtype))
        np.testing.assert_allclose(y, [1e15, 6e-3], rtol=1e-6)


@pytest.mark.parametrize("fmt_name", available_formats())
def test_non_finite_x_reaches_only_its_rows(fmt_name):
    """An ``inf`` in ``x[c]`` turns exactly the rows that store column
    ``c`` non-finite; every other row stays finite."""
    diag = CSRMatrix.from_coo(
        np.arange(3), np.arange(3), np.ones(3), (3, 3), Precision.SINGLE
    )
    y = build(fmt_name, diag).multiply(np.array([np.inf, 1, 2], np.float32))
    np.testing.assert_array_equal(y, [np.inf, 1, 2])

    csr = MATRICES["empty_rows"]
    fmt = build(fmt_name, csr)
    for c in (0, csr.n_cols // 2, csr.n_cols - 1):
        x = np.ones(csr.n_cols, dtype=np.float32)
        x[c] = np.inf
        touches = np.zeros(csr.n_rows, dtype=bool)
        touches[np.repeat(np.arange(csr.n_rows), csr.nnz_per_row)[csr.col_idx == c]] = True
        y = fmt.multiply(x)
        assert np.all(np.isfinite(y[~touches]))
        assert not np.any(np.isfinite(y[touches]))


@pytest.mark.parametrize("fmt_name", available_formats())
def test_formats_hold_no_copy_of_the_matrix(fmt_name):
    """Layouts are counts plus the source CSR: no per-entry array."""
    csr = MATRICES["powerlaw"]
    fmt = build(fmt_name, csr)
    assert fmt.csr is csr
    for name, value in vars(fmt).items():
        if isinstance(value, np.ndarray):
            assert value.size < csr.nnz, name


def _column_blocks(X: np.ndarray):
    """``X`` as a C-ordered, a Fortran-ordered and a column-sliced block
    (every other column of a twice-as-wide array, as a shrinking active
    set passes it)."""
    wide = np.empty((X.shape[0], 2 * X.shape[1]), dtype=X.dtype)
    wide[:, ::2] = X
    return {
        "C": np.ascontiguousarray(X),
        "F": np.asfortranarray(X),
        "sliced": wide[:, np.arange(0, wide.shape[1], 2)],
        "strided": wide[:, ::2],
    }


@pytest.mark.parametrize("k", [1, 2, 7, 16])
@pytest.mark.parametrize("matrix_name", sorted(MATRICES))
@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_matmat_columns_bitwise_equal_matvec_and_scipy(k, matrix_name, precision):
    csr = MATRICES[matrix_name].astype(precision)
    dtype = precision.numpy_dtype
    X = np.random.default_rng(k).standard_normal((csr.n_cols, k)).astype(dtype)
    want = (csr.to_scipy().astype(np.float64) @ X.astype(np.float64)).astype(dtype)
    for layout, block in _column_blocks(X).items():
        Y = csr.matmat(block)
        assert Y.shape == (csr.n_rows, k) and Y.dtype == dtype, layout
        assert np.array_equal(Y, want), layout
        for j in range(k):
            assert np.array_equal(Y[:, j], csr.matvec(block[:, j])), (layout, j)


def test_spmv_index_built_once_and_read_only():
    csr = make_uniform_csr(seed=5)
    assert "spmv_index" not in vars(csr)
    x = np.ones(csr.n_cols, dtype=np.float32)
    csr.matvec(x)
    index = csr.spmv_index
    csr.matmat(np.ones((csr.n_cols, 3), dtype=np.float32))
    assert csr.spmv_index is index
    rows, cols = index
    assert rows.dtype == cols.dtype == np.intp
    assert rows.nbytes + cols.nbytes == 16 * csr.nnz
    np.testing.assert_array_equal(rows, np.repeat(np.arange(csr.n_rows), csr.nnz_per_row))
    np.testing.assert_array_equal(cols, csr.col_idx)
    for arr in index:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_copied_matrix_multiplies_bitwise():
    """A deep copy or pickle round trip carries the built index along and
    still multiplies bit for bit."""
    import copy
    import pickle

    csr = MATRICES["powerlaw"]
    x = np.random.default_rng(3).standard_normal(csr.n_cols).astype(np.float32)
    y = csr.matvec(x)
    for clone in (copy.deepcopy(csr), pickle.loads(pickle.dumps(csr))):
        assert np.array_equal(clone.matvec(x), y)


@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (6, 0), (6, 5)])
def test_matmat_without_entries_returns_zeros(precision, shape):
    """nnz = 0, with or without rows: zeros of the right shape and dtype."""
    n_rows, n_cols = shape
    empty = CSRMatrix.from_coo(
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([]),
        shape,
        precision,
    )
    dtype = precision.numpy_dtype
    for k in (1, 4):
        Y = empty.matmat(np.ones((n_cols, k), dtype=dtype))
        assert Y.shape == (n_rows, k) and Y.dtype == dtype
        assert not Y.any()
    y = empty.matvec(np.ones(n_cols, dtype=dtype))
    assert y.shape == (n_rows,) and y.dtype == dtype and not y.any()
