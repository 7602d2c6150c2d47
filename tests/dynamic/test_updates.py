"""The synthetic update generator and the two application paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic.dyncsr import DynCSR
from repro.dynamic.updates import (
    UpdateBatch,
    apply_update,
    apply_update_to_csr,
    generate_update,
)

from repro.formats.csr import CSRMatrix
from repro.gpu.device import Precision

from ..conftest import make_csr_with_empty_rows, make_powerlaw_csr


@pytest.fixture()
def csr():
    return make_powerlaw_csr(n_rows=500, seed=61)


class TestGenerator:
    def test_ten_percent_of_rows(self, csr, rng):
        b = generate_update(csr, rng, row_fraction=0.1)
        assert b.n_rows == 50
        assert np.all(np.diff(b.rows) > 0)

    def test_lists_sorted_per_row(self, csr, rng):
        b = generate_update(csr, rng)
        for i in range(b.n_rows):
            _, dels, ins_c, _ = b.row_slices(i)
            assert np.all(np.diff(dels.astype(np.int64)) > 0) or dels.size <= 1
            assert np.all(np.diff(ins_c.astype(np.int64)) > 0) or ins_c.size <= 1

    def test_deletes_reference_existing_columns(self, csr, rng):
        b = generate_update(csr, rng)
        for i in range(min(b.n_rows, 20)):
            row, dels, _, _ = b.row_slices(i)
            assert np.isin(dels, csr.col_idx[csr.row_off[row]:csr.row_off[row + 1]]).all()

    def test_nnz_roughly_conserved(self, csr, rng):
        """Equal-probability delete/insert keeps total nnz near constant."""
        b = generate_update(csr, rng)
        after = apply_update_to_csr(csr, b)
        assert abs(after.nnz - csr.nnz) < 0.25 * csr.nnz

    def test_fraction_validated(self, csr, rng):
        with pytest.raises(ValueError):
            generate_update(csr, rng, row_fraction=0.0)

    def test_payload_smaller_than_matrix(self, csr, rng):
        b = generate_update(csr, rng)
        assert b.payload_bytes(4) < csr.device_bytes() / 2

    def test_deterministic_given_rng_state(self, csr):
        a = generate_update(csr, np.random.default_rng(5))
        b = generate_update(csr, np.random.default_rng(5))
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.del_cols, b.del_cols)
        np.testing.assert_array_equal(a.ins_cols, b.ins_cols)


class TestBatchValidation:
    def test_inconsistent_offsets_rejected(self):
        with pytest.raises(ValueError):
            UpdateBatch(
                rows=np.array([0]),
                del_off=np.array([0, 2]),
                del_cols=np.array([1], dtype=np.int32),
                ins_off=np.array([0, 0]),
                ins_cols=np.zeros(0, dtype=np.int32),
                ins_vals=np.zeros(0, dtype=np.float32),
            )

    def test_offsets_length_checked(self):
        with pytest.raises(ValueError):
            UpdateBatch(
                rows=np.array([0, 1]),
                del_off=np.array([0, 0]),
                del_cols=np.zeros(0, dtype=np.int32),
                ins_off=np.array([0, 0, 0]),
                ins_cols=np.zeros(0, dtype=np.int32),
                ins_vals=np.zeros(0, dtype=np.float32),
            )


    def test_rows_must_ascend(self):
        for rows in ([1, 0], [1, 1]):
            with pytest.raises(ValueError, match="ascending"):
                UpdateBatch(
                    rows=np.array(rows),
                    del_off=np.zeros(3, dtype=np.int64),
                    del_cols=np.zeros(0, dtype=np.int32),
                    ins_off=np.zeros(3, dtype=np.int64),
                    ins_cols=np.zeros(0, dtype=np.int32),
                    ins_vals=np.zeros(0, dtype=np.float32),
                )

    @pytest.mark.parametrize(
        "row, del_col, ins_col",
        [
            (5, 0, None),
            (-1, 0, None),
            (0, 7, None),
            (0, -1, None),
            (0, None, 7),
        ],
    )
    def test_out_of_range_batch_rejected(self, row, del_col, ins_col):
        """A 2 x 3 matrix: a batch naming a row or column outside it is
        an error, not a no-op."""
        csr = CSRMatrix.from_coo([0, 1], [1, 2], [1.0, 2.0], (2, 3))
        dels = [] if del_col is None else [del_col]
        ins = [] if ins_col is None else [ins_col]
        batch = UpdateBatch(
            rows=np.array([row]),
            del_off=np.array([0, len(dels)]),
            del_cols=np.array(dels, dtype=np.int32),
            ins_off=np.array([0, len(ins)]),
            ins_cols=np.array(ins, dtype=np.int32),
            ins_vals=np.ones(len(ins)),
        )
        with pytest.raises(ValueError, match="out of range"):
            apply_update_to_csr(csr, batch)


@st.composite
def csr_and_batch(draw):
    """A small CSR and a batch whose deletes may miss, whose inserts may
    land on stored entries, and which may delete and insert one column."""
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    stored = draw(st.lists(cells, max_size=30, unique=True))
    vals = draw(
        st.lists(
            st.sampled_from([-0.0, 0.5, -1.25, 3.0, 1e16]),
            min_size=len(stored),
            max_size=len(stored),
        )
    )
    precision = draw(st.sampled_from(list(Precision)))
    csr = CSRMatrix.from_coo(
        np.array([r for r, _ in stored], dtype=np.int64),
        np.array([c for _, c in stored], dtype=np.int64),
        np.array(vals),
        (n_rows, n_cols),
        precision=precision,
    )
    rows = sorted(draw(st.sets(st.integers(0, n_rows - 1), max_size=n_rows)))
    col_sets = st.sets(st.integers(0, n_cols - 1), max_size=n_cols).map(sorted)
    dels = [draw(col_sets) for _ in rows]
    ins = [draw(col_sets) for _ in rows]
    ins_vals = draw(
        st.lists(
            st.sampled_from([-0.0, 2.0, -7.5]),
            min_size=sum(map(len, ins)),
            max_size=sum(map(len, ins)),
        )
    )
    batch = UpdateBatch(
        rows=np.array(rows, dtype=np.int64),
        del_off=np.cumsum([0] + [len(d) for d in dels]),
        del_cols=np.array([c for d in dels for c in d], dtype=np.int32),
        ins_off=np.cumsum([0] + [len(i) for i in ins]),
        ins_cols=np.array([c for i in ins for c in i], dtype=np.int32),
        ins_vals=np.array(ins_vals, dtype=csr.values.dtype),
    )
    return csr, batch


class TestHostUpdateOracle:
    @given(case=csr_and_batch())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_oracle(self, case):
        """Delete, then insert (overwriting a stored entry), on a dict of
        ``(row, col) -> value``; the rebuild stores each value as
        ``0.0 + v`` in the matrix's precision."""
        csr, batch = case
        entries = {}
        for r in range(csr.n_rows):
            for k in range(csr.row_off[r], csr.row_off[r + 1]):
                entries[(r, int(csr.col_idx[k]))] = float(csr.values[k])
        for i in range(batch.n_rows):
            row, dels, ins_c, ins_v = batch.row_slices(i)
            for c in dels:
                entries.pop((row, int(c)), None)
            for c, v in zip(ins_c, ins_v):
                entries[(row, int(c))] = float(v)
        keys = sorted(entries)
        row_off = np.zeros(csr.n_rows + 1, dtype=np.int64)
        for r, _ in keys:
            row_off[r + 1] += 1
        got = apply_update_to_csr(csr, batch)
        np.testing.assert_array_equal(got.row_off, np.cumsum(row_off))
        assert got.col_idx.tobytes() == np.array(
            [c for _, c in keys], dtype=np.int32
        ).tobytes()
        assert got.values.tobytes() == np.array(
            [0.0 + entries[k] for k in keys], dtype=csr.values.dtype
        ).tobytes()


class TestEquivalence:
    """The device path (DynCSR) and the host path (rebuild) must agree —
    this is what guarantees ACSR's incremental update computes the same
    matrix the full-copy backends use."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_paths_agree(self, seed):
        csr = make_powerlaw_csr(n_rows=300, seed=seed)
        rngs = np.random.default_rng(seed + 100)
        batch = generate_update(csr, rngs)
        dyn = DynCSR.from_csr(csr)
        apply_update(dyn, batch)
        via_device = dyn.to_csr()
        via_host = apply_update_to_csr(csr, batch)
        np.testing.assert_array_equal(via_device.row_off, via_host.row_off)
        np.testing.assert_array_equal(via_device.col_idx, via_host.col_idx)
        np.testing.assert_allclose(
            via_device.values, via_host.values, rtol=1e-6
        )

    def test_agree_with_empty_rows(self):
        csr = make_csr_with_empty_rows(seed=9)
        batch = generate_update(csr, np.random.default_rng(7))
        dyn = DynCSR.from_csr(csr)
        apply_update(dyn, batch)
        via_host = apply_update_to_csr(csr, batch)
        got = dyn.to_csr()
        np.testing.assert_array_equal(got.col_idx, via_host.col_idx)

    def test_repeated_epochs_stay_consistent(self):
        csr = make_powerlaw_csr(n_rows=200, seed=13)
        dyn = DynCSR.from_csr(csr)
        current = csr
        rng = np.random.default_rng(77)
        for _ in range(4):
            batch = generate_update(current, rng)
            apply_update(dyn, batch)
            current = apply_update_to_csr(current, batch)
        got = dyn.to_csr()
        np.testing.assert_array_equal(got.row_off, current.row_off)
        np.testing.assert_array_equal(got.col_idx, current.col_idx)
