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
from repro.formats.csr import _BIN_CAP, CSRMatrix
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


#: Row lengths at every bin edge up to the cap and just past it: each
#: power of two and the first length of the next bin.
BIN_EDGES = sorted(
    {0, _BIN_CAP + 1}
    | {1 << i for i in range(_BIN_CAP.bit_length())}
    | {(1 << i) + 1 for i in range(_BIN_CAP.bit_length() - 1)}
)


def binned_csr(lengths, n_cols, precision, seed) -> CSRMatrix:
    """Rows of the given lengths over random distinct columns, with
    values of both signs."""
    rng = np.random.default_rng(seed)
    cols = [rng.choice(n_cols, size=n, replace=False) for n in lengths]
    return CSRMatrix.from_coo(
        np.repeat(np.arange(len(lengths)), lengths),
        np.concatenate([np.zeros(0, dtype=np.int64), *cols]),
        rng.standard_normal(sum(lengths)),
        (len(lengths), n_cols),
        precision,
    )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(
        st.one_of(st.sampled_from(BIN_EDGES), st.integers(0, _BIN_CAP + 40)),
        min_size=1,
        max_size=12,
    ),
    precision=st.sampled_from([Precision.SINGLE, Precision.DOUBLE]),
    zero_shares=st.lists(ZERO_SHARES, min_size=1, max_size=4),
    edge_specials=st.lists(
        st.sampled_from([np.inf, -np.inf, np.nan, -0.0]), min_size=2, max_size=2
    ),
    specials=st.booleans(),
    stored_inf=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_binned_kernel_bitwise_equals_scipy(
    lengths, precision, zero_shares, edge_specials, specials, stored_inf, seed
):
    """The binned full pass against SciPy's float64 CSR product, bit for
    bit, on rows at every bin width up to the cap, at the cap and past it,
    in bins of one row and beside empty rows.  ``x`` may hold inf, NaN or
    -0.0 at column 0 and at the last column (the padding reads neither),
    and a block mixes dense, sparse and all-zero columns, so full-pass
    and zero-skipping columns share one product.  A stored ``inf`` sends
    every column through the full pass, the all-zero ones included."""
    n_cols = _BIN_CAP + 64
    csr = binned_csr(lengths, n_cols, precision, seed)
    if stored_inf and csr.nnz:
        values = csr.values.copy()
        values[seed % csr.nnz] = np.inf
        csr = CSRMatrix.from_arrays(values, csr.col_idx, csr.row_off, n_cols)
    dtype = precision.numpy_dtype
    rng = np.random.default_rng(seed)
    k = len(zero_shares)
    X = rng.standard_normal((n_cols, k))
    zero = rng.random((n_cols, k)) < np.array(zero_shares)
    X[zero] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zero)))
    if specials:
        X[[0, -1], rng.integers(0, k)] = edge_specials
    X = X.astype(dtype)
    want = csr.to_scipy().astype(np.float64) @ X.astype(np.float64)
    Y = csr.matmat(X)
    assert Y.dtype == dtype
    assert np.array_equal(Y, want.astype(dtype), equal_nan=True)


#: Per-column stored values: finite ones of both signs and both zeros,
#: and the non-finite ones a column scale must carry through.
FINITE_COLUMN_VALUES = [0.0, -0.0, 0.75, -1.5, 1e-30, 3e30]
SPECIAL_COLUMN_VALUES = [np.inf, -np.inf, np.nan]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=40),
    n_cols=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.0, max_value=0.7),
    empty_share=st.sampled_from([0.0, 0.3]),
    precision=st.sampled_from([Precision.SINGLE, Precision.DOUBLE]),
    zero_shares=st.lists(ZERO_SHARES, min_size=1, max_size=4),
    stored_specials=st.booleans(),
    x_specials=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_column_scaled_kernel_bitwise_equals_scipy(
    n_rows, n_cols, density, empty_share, precision, zero_shares,
    stored_specials, x_specials, seed,
):
    """A matrix storing one value per column multiplies through its
    :attr:`~CSRMatrix.col_scale`, by the full pass and by the
    zero-skipping path, bit for bit like SciPy's float64 CSR product.
    Columns may store 0.0, -0.0, inf or NaN, some columns store nothing,
    and ``x`` may hold inf, NaN or -0.0 anywhere, empty columns included."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < density
    mask[:, rng.random(n_cols) < empty_share] = False
    rows, cols = np.nonzero(mask)
    choices = FINITE_COLUMN_VALUES + (SPECIAL_COLUMN_VALUES if stored_specials else [])
    per_col = np.array(choices)[rng.integers(0, len(choices), n_cols)]
    row_off = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=row_off[1:])
    dtype = precision.numpy_dtype
    csr = CSRMatrix.from_arrays(per_col[cols].astype(dtype), cols, row_off, n_cols)
    assert csr.col_scale is not None
    k = len(zero_shares)
    X = rng.standard_normal((n_cols, k))
    zero = rng.random((n_cols, k)) < np.array(zero_shares)
    X[zero] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zero)))
    if x_specials:
        X[rng.integers(0, n_cols, 3), rng.integers(0, k, 3)] = [-0.0, np.nan, np.inf]
    X = X.astype(dtype)
    want = csr.to_scipy().astype(np.float64) @ X.astype(np.float64)
    Y = csr.matmat(X)
    assert Y.dtype == dtype
    assert np.array_equal(Y, want.astype(dtype), equal_nan=True)


def test_col_scale_compares_value_bits():
    """A column holding 0.0 beside -0.0, or two NaN payloads, has no one
    value; a column storing nothing scales by 1.0."""
    quiet = np.float64(np.nan)
    other = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]

    def of(values):
        n = len(values)
        return CSRMatrix.from_arrays(
            np.array(values), np.zeros(n, dtype=np.int32), np.arange(n + 1), 2
        ).col_scale

    assert of([0.0, -0.0]) is None
    assert of([quiet, other]) is None
    for values in ([quiet, quiet], [-0.0, -0.0], [2.5, 2.5]):
        scale = of(values)
        want = np.array([values[0], 1.0])
        assert np.array_equal(scale.view(np.uint64), want.view(np.uint64))
        assert not scale.flags.writeable
    assert binned_csr([3, 5, 2], 8, Precision.DOUBLE, seed=0).col_scale is None


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


@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_rows_of_negative_zero_products_sum_to_positive_zero(precision):
    """A row whose every product is -0.0 sums to +0.0, as SciPy's sum
    from 0.0 does: rows that fill their bin's width (no padding to add
    +0.0) and a row above the cap.  The other columns of ``x`` are dense,
    so the product takes the full pass."""
    lengths = [2, 4, 8, _BIN_CAP, _BIN_CAP + 3]
    n_cols = 2 * _BIN_CAP
    csr = CSRMatrix.from_coo(
        np.repeat(np.arange(len(lengths)), lengths),
        np.concatenate([np.arange(n) for n in lengths]),
        np.ones(sum(lengths)),
        (len(lengths), n_cols),
        precision,
    )
    x = np.ones(n_cols, dtype=precision.numpy_dtype)
    x[: _BIN_CAP + 3] = -0.0
    y = csr.matvec(x)
    assert "spmv_bins" in vars(csr)
    assert not np.signbit(y).any()
    assert np.array_equal(y, csr.to_scipy() @ x)


#: Rows at both ends of every bin below the cap's, one row (257
#: entries) in the cap's bin, rows above the cap and empty rows.
LONG_ROWS = [0, *(n for i in range(9) for n in ((1 << i) + 1, 1 << i)), 0, 513, 700]


def test_spmv_bins_built_at_the_first_full_pass():
    """A matrix multiplied only by sparse ``x`` builds no bins.  The first
    full pass builds them and later ones reuse them; every block is a
    power of two wide up to the cap and holds at least two rows; the
    arrays are read-only and hold 16 bytes per padded slot, or 8 when
    the matrix has a column scale (kept as one float64 per column instead
    of per-slot values), plus the long-row ids and one sum position per
    row.  Both layouts sum long rows included as scipy does in float64."""
    per_slot = binned_csr(LONG_ROWS, 800, Precision.SINGLE, seed=0)
    scaled = CSRMatrix.from_arrays(
        (1.0 + per_slot.col_idx % 7).astype(np.float32),
        per_slot.col_idx,
        per_slot.row_off,
        per_slot.n_cols,
    )
    lens = np.array(LONG_ROWS)
    binned = lens[(lens > 0) & (lens <= _BIN_CAP)]
    # Rows per bin width: 2 for one or two entries, else 2^ceil(log2 n).
    per_bin = {}
    for n in binned:
        width = max(2, 1 << int(n - 1).bit_length())
        per_bin[width] = per_bin.get(width, 0) + 1
    long_entries = int(lens[lens > _BIN_CAP].sum())
    slots = sum(w * max(r, 2) for w, r in per_bin.items()) + long_entries
    for csr in (per_slot, scaled):
        x = np.zeros(csr.n_cols, dtype=np.float32)
        x[3] = 1.0
        csr.matvec(x)
        assert "col_major" in vars(csr) and "spmv_bins" not in vars(csr)
        csr.matvec(np.ones(csr.n_cols, dtype=np.float32))
        bins = csr.spmv_bins
        csr.matmat(np.ones((csr.n_cols, 3), dtype=np.float32))
        assert csr.spmv_bins is bins

        assert [(w, r) for _, w, r in bins.blocks] == [
            (w, max(r, 2)) for w, r in sorted(per_bin.items())
        ]
        assert bins.cols.dtype == np.intp and bins.cols.shape[0] == slots
        if csr is scaled:
            assert bins.vals is None and bins.scale is csr.col_scale
            stored = bins.scale
            assert stored.shape == (csr.n_cols,)
            bytes_per_slot = 8
        else:
            assert bins.scale is None and csr.col_scale is None
            stored = bins.vals
            bytes_per_slot = 16
        assert stored.dtype == np.float64
        arrays = (bins.cols, stored, bins.long_rows, bins.sum_of_row)
        per_matrix = stored.nbytes if csr is scaled else 0
        assert sum(a.nbytes for a in arrays) == bytes_per_slot * slots + (
            per_matrix + 8 * (long_entries + csr.n_rows)
        )
        x = np.arange(csr.n_cols, dtype=np.float32)
        want = csr.to_scipy().astype(np.float64) @ x.astype(np.float64)
        assert np.array_equal(csr.matvec(x), want.astype(np.float32))
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


def test_copied_matrix_multiplies_bitwise():
    """A deep copy or pickle round trip carries the built bins along, long
    rows included, and still multiplies bit for bit."""
    import copy
    import pickle

    long_rows = binned_csr(LONG_ROWS, 800, Precision.SINGLE, seed=1)
    for csr in (MATRICES["powerlaw"], long_rows):
        x = np.random.default_rng(3).standard_normal(csr.n_cols).astype(np.float32)
        y = csr.matvec(x)
        assert "spmv_bins" in vars(csr)
        for clone in (copy.deepcopy(csr), pickle.loads(pickle.dumps(csr))):
            assert "spmv_bins" in vars(clone)
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
