"""CSRMatrix container: construction, stats, matvec oracle equality."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.formats.csr import CSRMatrix
from repro.gpu.device import Precision

from ..conftest import (
    assert_spmv_close,
    make_csr_with_empty_rows,
    make_powerlaw_csr,
    reference_matvec,
)


class TestConstruction:
    def test_from_coo_sorts_and_sums_duplicates(self):
        rows = np.array([1, 0, 1, 1])
        cols = np.array([0, 1, 0, 2])
        vals = np.array([2.0, 3.0, 5.0, 1.0])
        m = CSRMatrix.from_coo(rows, cols, vals, (2, 3))
        assert m.nnz == 3  # (1,0) summed
        np.testing.assert_array_equal(m.row_off, [0, 1, 3])
        np.testing.assert_array_equal(m.col_idx, [1, 0, 2])
        np.testing.assert_allclose(m.values, [3.0, 7.0, 1.0])

    def test_from_coo_without_dedup_keeps_entries(self):
        rows = np.array([0, 0])
        cols = np.array([1, 1])
        vals = np.array([1.0, 1.0])
        m = CSRMatrix.from_coo(
            rows, cols, vals, (1, 2), sum_duplicates=False
        )
        assert m.nnz == 2

    def test_from_scipy_roundtrip(self, powerlaw_csr):
        again = CSRMatrix.from_scipy(
            powerlaw_csr.to_scipy(), precision=Precision.SINGLE
        )
        np.testing.assert_array_equal(again.row_off, powerlaw_csr.row_off)
        np.testing.assert_array_equal(again.col_idx, powerlaw_csr.col_idx)
        np.testing.assert_allclose(again.values, powerlaw_csr.values)

    def test_rejects_out_of_range_columns(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo(
                np.array([0]), np.array([5]), np.array([1.0]), (1, 3)
            )

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo(
                np.array([7]), np.array([0]), np.array([1.0]), (2, 3)
            )

    def test_rejects_bad_row_off(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_arrays(
                np.array([1.0]), np.array([0]), np.array([0, 2]), 1
            )

    def test_rejects_empty_row_off(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_arrays(
                np.zeros(0), np.zeros(0, dtype=np.int32), np.zeros(0), 1
            )

    def test_rejects_decreasing_row_off(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_arrays(
                np.array([1.0, 2.0]),
                np.array([0, 0]),
                np.array([0, 2, 1, 2]),
                1,
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_arrays(
                np.array([1.0, 2.0]), np.array([0]), np.array([0, 2]), 1
            )

    def test_rejects_columns_beyond_int32(self):
        """``col_idx`` is int32: a wider matrix would wrap column ids."""
        with pytest.raises(ValueError, match="n_cols"):
            CSRMatrix.from_coo([0, 1], [2**32 + 5, 3], [1.0, 2.0], (2, 2**33))
        with pytest.raises(ValueError, match="n_cols"):
            CSRMatrix.from_arrays(
                np.zeros(0), np.zeros(0, dtype=np.int32), np.zeros(1), 2**31
            )

    def test_rejects_shape_whose_keys_overflow_int64(self):
        """``2**33`` rows of ``2**31 - 1`` columns: no row-major key fits,
        so the shape is refused before any allocation."""
        with pytest.raises(ValueError, match="shape too large"):
            CSRMatrix.from_coo([], [], [], (2**33, 2**31 - 1))

    def test_rejects_non_integer_indices(self):
        with pytest.raises(ValueError, match="rows"):
            CSRMatrix.from_coo([0.7, 1.2], [0, 1], [1.0, 2.0], (2, 2))
        with pytest.raises(ValueError, match="cols"):
            CSRMatrix.from_coo([0, 1], [0.0, 1.0], [1.0, 2.0], (2, 2))

    def test_empty_lists_accepted(self):
        m = CSRMatrix.from_coo([], [], [], (3, 2))
        assert m.nnz == 0
        np.testing.assert_array_equal(m.row_off, [0, 0, 0, 0])

    def test_astype(self, powerlaw_csr):
        d = powerlaw_csr.astype(Precision.DOUBLE)
        assert d.precision is Precision.DOUBLE
        assert d.values.dtype == np.float64


class TestStats:
    def test_basic_stats(self, powerlaw_csr):
        deg = powerlaw_csr.nnz_per_row
        assert powerlaw_csr.mu == pytest.approx(deg.mean())
        assert powerlaw_csr.sigma == pytest.approx(deg.std())
        assert powerlaw_csr.max_nnz_row == deg.max()

    def test_empty_matrix_stats(self):
        m = CSRMatrix.from_arrays(
            np.zeros(0), np.zeros(0, dtype=np.int32), np.zeros(1, dtype=np.int64), 0
        )
        assert m.mu == 0.0
        assert m.sigma == 0.0
        assert m.max_nnz_row == 0

    def test_gather_profile_sane(self, powerlaw_csr):
        p = powerlaw_csr.gather_profile
        assert p.reuse >= 1.0
        assert 0.0 <= p.clustering <= 1.0

    def test_device_bytes_positive(self, powerlaw_csr):
        assert powerlaw_csr.device_bytes() > powerlaw_csr.nnz * 8


class TestMatvec:
    def test_matches_scipy(self, powerlaw_csr, rng):
        x = rng.standard_normal(powerlaw_csr.n_cols).astype(np.float32)
        assert_spmv_close(
            powerlaw_csr.matvec(x),
            reference_matvec(powerlaw_csr, x),
            Precision.SINGLE,
        )

    def test_empty_rows_exact(self, empty_rows_csr, rng):
        x = rng.standard_normal(empty_rows_csr.n_cols).astype(np.float32)
        y = empty_rows_csr.matvec(x)
        ref = reference_matvec(empty_rows_csr, x)
        assert_spmv_close(y, ref, Precision.SINGLE)
        # empty rows are exactly zero
        assert np.all(y[::3] == 0)

    def test_all_empty_matrix(self):
        m = CSRMatrix.from_arrays(
            np.zeros(0),
            np.zeros(0, dtype=np.int32),
            np.zeros(5, dtype=np.int64),
            3,
        )
        y = m.matvec(np.ones(3))
        np.testing.assert_array_equal(y, np.zeros(4))

    def test_rejects_wrong_x_shape(self, powerlaw_csr):
        with pytest.raises(ValueError):
            powerlaw_csr.matvec(np.ones(powerlaw_csr.n_cols + 1))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, bool])
    def test_rejects_non_floating_x(self, dtype):
        """``Y`` takes ``X``'s dtype, so an integer or bool ``X`` would
        truncate ``[[0.5, 0.25]] @ [1, 1]`` to ``[0]``: refused."""
        m = CSRMatrix.from_coo(
            np.array([0, 0]), np.array([0, 1]), np.array([0.5, 0.25]), (1, 2)
        )
        name = np.dtype(dtype).name
        with pytest.raises(ValueError, match=name):
            m.matvec(np.ones(2, dtype=dtype))
        with pytest.raises(ValueError, match=name):
            m.matmat(np.ones((2, 3), dtype=dtype))
        np.testing.assert_array_equal(m.matvec(np.ones(2)), [0.75])

    def test_rectangular(self, rng):
        m = make_powerlaw_csr(n_rows=100, n_cols=300, seed=5)
        x = rng.standard_normal(300).astype(np.float32)
        assert_spmv_close(
            m.matvec(x), reference_matvec(m, x), Precision.SINGLE
        )

    @given(
        n=st.integers(min_value=1, max_value=40),
        m=st.integers(min_value=1, max_value=40),
        density=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_scipy(self, n, m, density, seed):
        rng = np.random.default_rng(seed)
        mat = sp.random(
            n, m, density=density, format="csr", random_state=seed
        )
        csr = CSRMatrix.from_scipy(mat, precision=Precision.DOUBLE)
        x = rng.standard_normal(m)
        np.testing.assert_allclose(
            csr.matvec(x), mat @ x, rtol=1e-10, atol=1e-12
        )


class TestTranspose:
    def test_transpose_matches_scipy(self, powerlaw_csr, rng):
        t = powerlaw_csr.transpose()
        x = rng.standard_normal(t.n_cols).astype(np.float32)
        assert_spmv_close(
            t.matvec(x),
            powerlaw_csr.to_scipy().T @ x,
            Precision.SINGLE,
        )

    def test_double_transpose_identity(self, empty_rows_csr):
        tt = empty_rows_csr.transpose().transpose()
        np.testing.assert_array_equal(tt.row_off, empty_rows_csr.row_off)
        np.testing.assert_array_equal(tt.col_idx, empty_rows_csr.col_idx)
        np.testing.assert_allclose(tt.values, empty_rows_csr.values)


class TestBinarized:
    def test_unit_values(self, powerlaw_csr):
        b = powerlaw_csr.binarized()
        assert np.all(b.values == 1.0)
        np.testing.assert_array_equal(b.col_idx, powerlaw_csr.col_idx)


def oracle_from_coo(rows, cols, vals, shape, sum_duplicates, dtype):
    """``from_coo`` in plain Python: a stable sort by ``(row, col)``, then
    each key's values summed one at a time from 0.0."""
    n_rows = shape[0]
    order = sorted(range(len(rows)), key=lambda i: (rows[i], cols[i]))
    keys, sums = [], []
    for i in order:
        key = (int(rows[i]), int(cols[i]))
        if sum_duplicates and keys and keys[-1] == key:
            sums[-1] += float(vals[i])
        else:
            keys.append(key)
            value = float(vals[i])
            sums.append(0.0 + value if sum_duplicates else value)
    row_off = [0] * (n_rows + 1)
    for r, _ in keys:
        row_off[r + 1] += 1
    for r in range(n_rows):
        row_off[r + 1] += row_off[r]
    return (
        np.array(row_off, dtype=np.int64),
        np.array([c for _, c in keys], dtype=np.int32),
        np.array(sums, dtype=np.float64).astype(dtype),
    )


def assert_csr_bytes(m, row_off, col_idx, values):
    np.testing.assert_array_equal(m.row_off, row_off)
    assert m.col_idx.dtype == np.int32
    assert m.col_idx.tobytes() == col_idx.tobytes()
    assert m.values.dtype == values.dtype
    assert m.values.tobytes() == values.tobytes()


_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.1, 1e16, -1e16, 3.0]),
    st.floats(min_value=-1e6, max_value=1e6),
)


@st.composite
def coo_triplets(draw):
    n_rows = draw(st.integers(min_value=0, max_value=9))
    n_cols = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=0, max_value=40)) if n_rows else 0
    rows = draw(
        st.lists(st.integers(0, max(n_rows - 1, 0)), min_size=n, max_size=n)
    )
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=n, max_size=n))
    vals = draw(st.lists(_VALUES, min_size=n, max_size=n))
    return rows, cols, vals, (n_rows, n_cols)


class TestAssemblyOracle:
    """``from_coo`` and ``transpose`` byte for byte against independent
    oracles: duplicates, ``-0.0``, empty rows, nnz 0 and 1."""

    @given(
        coo=coo_triplets(),
        sum_duplicates=st.booleans(),
        precision=st.sampled_from(list(Precision)),
        presorted=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_from_coo_matches_python_oracle(
        self, coo, sum_duplicates, precision, presorted
    ):
        rows, cols, vals, shape = coo
        if presorted:  # keys that already ascend skip the sort
            order = sorted(range(len(rows)), key=lambda i: (rows[i], cols[i]))
            rows, cols, vals = (
                [t[i] for i in order] for t in (rows, cols, vals)
            )
        m = CSRMatrix.from_coo(
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64),
            shape,
            precision=precision,
            sum_duplicates=sum_duplicates,
        )
        assert_csr_bytes(
            m,
            *oracle_from_coo(
                rows, cols, vals, shape, sum_duplicates, precision.numpy_dtype
            ),
        )

    @pytest.mark.parametrize("sum_duplicates", [True, False])
    def test_wide_keys_fall_back_to_a_stable_argsort(
        self, sum_duplicates, monkeypatch
    ):
        """``2**20 * (2**31 - 1)`` keys take 51 bits and 4,097 positions
        take 13, so key and position cannot share one int64 word."""
        calls = []
        argsort = np.argsort

        def spy(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        rng = np.random.default_rng(0)
        shape = (2**20, 2**31 - 1)
        n = 4097
        rows = rng.integers(0, shape[0], n)
        cols = rng.integers(0, shape[1], n)
        rows[:100], cols[:100] = rows[100:200], cols[100:200]  # duplicates
        vals = rng.standard_normal(n)
        m = CSRMatrix.from_coo(
            rows, cols, vals, shape, sum_duplicates=sum_duplicates
        )
        assert calls == ["stable"]
        assert_csr_bytes(
            m,
            *oracle_from_coo(
                rows.tolist(), cols.tolist(), vals.tolist(), shape,
                sum_duplicates, np.float64,
            ),
        )

    @pytest.mark.parametrize("precision", list(Precision))
    def test_transpose_matches_scipy_bytes(self, precision):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 70, 900)
        cols = rng.integers(0, 50, 900)
        vals = rng.standard_normal(900)
        vals[::9] = -0.0
        for m in (
            make_powerlaw_csr(
                n_rows=300, n_cols=200, seed=2, precision=precision
            ),
            make_csr_with_empty_rows(seed=5, precision=precision),
            CSRMatrix.from_coo(
                rows, cols, vals, (70, 50), precision, sum_duplicates=False
            ),
        ):
            want = m.to_scipy().T.tocsr()
            assert_csr_bytes(
                m.transpose(),
                want.indptr.astype(np.int64),
                want.indices.astype(np.int32),
                want.data,
            )
