"""Update batches and the paper's synthetic change generator (Section VII).

"We randomly selected 10% of the rows to be updated.  Scanning the columns
of a row, we either remove a column or add another column to the row, each
with equal probability.  The total number of non-zeros in the matrix is
thus kept nearly constant.  We encode the changes into an array of rows to
be updated, a list of columns to be deleted and a list of columns to be
added, both in CSR format."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.csr import CSRMatrix
from ..gpu.device import INDEX_BYTES


@dataclass(frozen=True)
class UpdateBatch:
    """A CSR-encoded change list: per-row sorted delete/insert columns."""

    #: Rows to be updated (ascending, unique).
    rows: np.ndarray
    #: Delete lists in CSR layout over ``rows``.
    del_off: np.ndarray
    del_cols: np.ndarray
    #: Insert lists in CSR layout over ``rows``.
    ins_off: np.ndarray
    ins_cols: np.ndarray
    ins_vals: np.ndarray

    def __post_init__(self) -> None:
        n = self.rows.shape[0]
        if self.del_off.shape != (n + 1,) or self.ins_off.shape != (n + 1,):
            raise ValueError("offset arrays must have len(rows)+1 entries")
        if int(self.del_off[-1]) != self.del_cols.shape[0]:
            raise ValueError("delete offsets inconsistent with columns")
        if int(self.ins_off[-1]) != self.ins_cols.shape[0]:
            raise ValueError("insert offsets inconsistent with columns")
        if self.ins_cols.shape != self.ins_vals.shape:
            raise ValueError("insert columns/values must match")
        if np.any(self.rows[1:] <= self.rows[:-1]):
            raise ValueError("rows must be ascending and unique")

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_deletes(self) -> int:
        return int(self.del_cols.shape[0])

    @property
    def n_inserts(self) -> int:
        return int(self.ins_cols.shape[0])

    def deletes_per_row(self) -> np.ndarray:
        return np.diff(self.del_off)

    def inserts_per_row(self) -> np.ndarray:
        return np.diff(self.ins_off)

    def row_slices(self, i: int):
        """The i-th updated row's ``(row, del_cols, ins_cols, ins_vals)``."""
        d0, d1 = self.del_off[i], self.del_off[i + 1]
        s0, s1 = self.ins_off[i], self.ins_off[i + 1]
        return (
            int(self.rows[i]),
            self.del_cols[d0:d1],
            self.ins_cols[s0:s1],
            self.ins_vals[s0:s1],
        )

    def payload_bytes(self, value_bytes: int) -> int:
        """Bytes shipped to the device for this change list."""
        return (
            self.n_rows * INDEX_BYTES
            + 2 * (self.n_rows + 1) * INDEX_BYTES
            + self.n_deletes * INDEX_BYTES
            + self.n_inserts * (INDEX_BYTES + value_bytes)
        )


def generate_update(
    csr: CSRMatrix,
    rng: np.random.Generator,
    row_fraction: float = 0.1,
) -> UpdateBatch:
    """The paper's 10%-of-rows coin-flip update generator.

    For each selected row, each existing column is (independently, p=0.5)
    either deleted or replaced-in-spirit by inserting one fresh random
    column — keeping total nnz roughly constant.
    """
    if not 0.0 < row_fraction <= 1.0:
        raise ValueError("row_fraction must be in (0, 1]")
    n_sel = max(1, int(round(csr.n_rows * row_fraction)))
    rows = np.sort(
        rng.choice(csr.n_rows, size=min(n_sel, csr.n_rows), replace=False)
    ).astype(np.int64)

    lengths = csr.nnz_per_row[rows]
    total = int(lengths.sum())
    # One coin per existing element of the selected rows.
    coins = rng.random(total) < 0.5  # True -> delete, False -> insert new
    owner = np.repeat(np.arange(rows.shape[0], dtype=np.int64), lengths)
    starts = csr.row_off[rows]
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    elem_idx = np.repeat(starts, lengths) + within

    # Deletes: the flagged existing columns (sorted & unique per row by
    # construction since each row's columns are distinct and scanned in
    # order).
    del_owner = owner[coins]
    del_cols = csr.col_idx[elem_idx[coins]]
    del_counts = np.bincount(del_owner, minlength=rows.shape[0])
    del_off = np.concatenate([[0], np.cumsum(del_counts)]).astype(np.int64)

    # Inserts: one fresh random column per non-deleted scan position.
    ins_owner = owner[~coins]
    raw_cols = rng.integers(0, csr.n_cols, size=int((~coins).sum()))
    # Sort and dedupe per row (the device kernel assumes sorted lists).
    # Sort-and-compare, not np.unique: on NumPy 2 the first np.unique
    # call imports numpy.ma, a 10-15 ms cold-path cost.
    key = ins_owner.astype(np.int64) * np.int64(csr.n_cols) + raw_cols
    key.sort()
    first = np.ones(key.shape[0], dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    key = key[first]
    ins_owner = (key // csr.n_cols).astype(np.int64)
    ins_cols = (key % csr.n_cols).astype(np.int32)
    ins_vals = rng.standard_normal(ins_cols.shape[0]).astype(
        csr.values.dtype
    )
    ins_counts = np.bincount(ins_owner, minlength=rows.shape[0])
    ins_off = np.concatenate([[0], np.cumsum(ins_counts)]).astype(np.int64)

    return UpdateBatch(
        rows=rows,
        del_off=del_off,
        del_cols=del_cols.astype(np.int32),
        ins_off=ins_off,
        ins_cols=ins_cols,
        ins_vals=ins_vals,
    )


def apply_update(dyn, batch: UpdateBatch) -> None:
    """Apply a batch to a :class:`~repro.dynamic.dyncsr.DynCSR` in place."""
    for i in range(batch.n_rows):
        row, dels, ins_c, ins_v = batch.row_slices(i)
        dyn.update_row(row, dels, ins_c, ins_v)


def apply_update_to_csr(csr: CSRMatrix, batch: UpdateBatch) -> CSRMatrix:
    """Pure-functional update for formats that rebuild from scratch.

    Used for the CSR/HYB epoch path, where the host applies the change and
    re-ships (and, for HYB, re-transforms) the whole matrix.  Every stored
    ``(row, col)`` entry named by a delete or an insert is dropped, and the
    inserts are added, so an insert overwrites an existing entry, matching
    the device kernel's semantics.
    """
    if batch.n_rows and (batch.rows[0] < 0 or batch.rows[-1] >= csr.n_rows):
        raise ValueError("update rows out of range")
    for cols in (batch.del_cols, batch.ins_cols):
        if cols.size and (cols.min() < 0 or cols.max() >= csr.n_cols):
            raise ValueError("update columns out of range")
    n_cols = np.int64(csr.n_cols)
    ins_rows = np.repeat(batch.rows, batch.inserts_per_row())
    dropped = np.sort(
        np.concatenate(
            [
                np.repeat(batch.rows, batch.deletes_per_row()) * n_cols
                + batch.del_cols,
                ins_rows * n_cols + batch.ins_cols,
            ]
        )
    )
    # Only entries of updated rows can be dropped.  Each one's key is
    # looked up in the sorted dropped keys, which is np.isin's answer
    # whatever order a row keeps its columns in.
    rows = np.repeat(np.arange(csr.n_rows, dtype=np.int64), csr.nnz_per_row)
    touched = np.zeros(csr.n_rows, dtype=bool)
    touched[batch.rows] = True
    candidates = np.flatnonzero(touched[rows])
    keys = rows[candidates] * n_cols + csr.col_idx[candidates]
    keep = np.ones(csr.nnz, dtype=bool)
    if dropped.size:
        at = np.searchsorted(dropped, keys).clip(max=dropped.size - 1)
        keep[candidates[dropped[at] == keys]] = False
    return CSRMatrix.from_coo(
        np.concatenate([rows[keep], ins_rows]),
        np.concatenate([csr.col_idx[keep], batch.ins_cols]),
        np.concatenate(
            [
                csr.values[keep].astype(np.float64),
                batch.ins_vals.astype(np.float64),
            ]
        ),
        shape=csr.shape,
        precision=csr.precision,
        sum_duplicates=True,
    )
