"""The CSR (Compressed Sparse Row) container — the paper's base format.

CSR is "the most compact format for unstructured sparse matrices, and the
predominantly used representation" (Section II).  Every other format in
this package is *constructed from* a :class:`CSRMatrix`, and the
construction cost is exactly the preprocessing overhead the paper measures
in Figure 4.

The container also computes the column-gather locality profile the memory
model needs (``gather_profile``) and the standard row statistics of
Table I (``mu`` / ``sigma`` / ``max_nnz``), and it holds the package's
one numeric SpMV kernel (``matvec`` / ``matmat``): every format
multiplies through the CSR it was built from.

Not to be confused with :mod:`repro.formats.csr_format`, which wraps this
container in the executable :class:`~repro.formats.csr_format.CSRFormat`
(the "CSR" bars of Figures 5/6).  Canonical names for both are
re-exported by :mod:`repro.formats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gpu.device import INDEX_BYTES, Precision
from ..gpu.memory import GatherProfile

#: Widest matrix ``col_idx`` (int32, as on the device) can index.
_MAX_COLS = int(np.iinfo(np.int32).max)


def _index_array(a, name: str) -> np.ndarray:
    """``a`` as int64, refusing non-integer input rather than truncating
    it (an empty array of any dtype is accepted)."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer array, got {a.dtype}")
    return a.astype(np.int64, copy=False)


def _sort_keys(
    key: np.ndarray, n_keys: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(key in ascending order, permutation)`` for ``key`` in
    ``[0, n_keys)``; the permutation is stable, or ``None`` when ``key``
    already ascends.

    For row-major keys ``row * n_cols + col`` the permutation is exactly
    ``np.lexsort((cols, rows))``.  Each key is packed above its position
    into one int64 word; the words are distinct, so numpy's unstable
    (SIMD) ``np.sort`` puts equal keys in input order, as a stable sort
    would, and the high and low bits read back the sorted keys and the
    permutation.  Only when key and position do not fit in 63 bits does
    a stable ``np.argsort`` of the keys run instead.
    """
    if not np.any(key[1:] < key[:-1]):
        return key, None
    n = key.shape[0]
    pos_bits = (n - 1).bit_length()
    if (n_keys - 1).bit_length() + pos_bits > 63:
        order = np.argsort(key, kind="stable")
        return key[order], order
    packed = key << pos_bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << pos_bits) - 1)
    packed >>= pos_bits
    return packed, order


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR matrix with GPU-oriented metadata.

    ``values`` carries the storage precision (float32 or float64);
    ``col_idx`` is int32 (as on the device); ``row_off`` is int64 on the
    host.  The first multiply also builds :attr:`spmv_index`, a
    per-matrix ``intp`` index of 16 bytes per non-zero that every later
    multiply reuses; :meth:`matmat` then sums ``X`` one column at a time.
    """

    values: np.ndarray
    col_idx: np.ndarray
    row_off: np.ndarray
    n_cols: int

    def __post_init__(self) -> None:
        if self.n_cols > _MAX_COLS:
            raise ValueError(
                f"n_cols must be at most {_MAX_COLS} (col_idx is int32)"
            )
        if self.row_off.ndim != 1 or self.row_off.shape[0] < 1:
            raise ValueError("row_off must be 1-D with at least one entry")
        if self.values.shape != self.col_idx.shape:
            raise ValueError("values and col_idx must have equal length")
        if int(self.row_off[0]) != 0 or int(self.row_off[-1]) != self.values.shape[0]:
            raise ValueError("row_off must start at 0 and end at nnz")
        if np.any(np.diff(self.row_off) < 0):
            raise ValueError("row_off must be non-decreasing")
        if self.n_cols < 0:
            raise ValueError("n_cols must be non-negative")
        if self.col_idx.size and (
            int(self.col_idx.min()) < 0 or int(self.col_idx.max()) >= self.n_cols
        ):
            raise ValueError("column indices out of range")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        col_idx: np.ndarray,
        row_off: np.ndarray,
        n_cols: int,
    ) -> "CSRMatrix":
        return cls(
            values=np.ascontiguousarray(values),
            col_idx=np.ascontiguousarray(col_idx, dtype=np.int32),
            row_off=np.ascontiguousarray(row_off, dtype=np.int64),
            n_cols=int(n_cols),
        )

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        precision: Precision = Precision.DOUBLE,
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build from COO triplets.

        The entries are ordered by ``(row, col)``, and entries that share
        a key keep their input order: the permutation is exactly
        ``np.lexsort((cols, rows))``.  With ``sum_duplicates`` each key's
        values are then summed in that order, sequentially from 0.0 in
        float64 (so a lone ``-0.0`` is stored as ``0.0``), and cast to
        ``precision`` once.  ``rows`` and ``cols`` must be integer arrays.
        """
        n_rows, n_cols = int(shape[0]), int(shape[1])
        rows = _index_array(rows, "rows")
        cols = _index_array(cols, "cols")
        vals = np.asarray(vals, dtype=np.float64)
        if rows.shape != cols.shape or rows.shape != vals.shape:
            raise ValueError("COO triplet arrays must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row indices out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column indices out of range")
        if max(n_rows, 1) * n_cols > np.iinfo(np.int64).max:
            raise ValueError("shape too large for int64 (row, col) keys")
        key = rows * n_cols
        key += cols
        key, order = _sort_keys(key, n_rows * n_cols)
        if order is not None:
            vals = vals[order]
        if sum_duplicates and key.size:
            first = np.empty(key.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            # Group ids count from 1, so bin 0 stays empty.
            vals = np.bincount(np.cumsum(first), weights=vals)[1:]
            key = key[first]
        rows = key // max(n_cols, 1)
        cols = key - rows * n_cols
        row_off = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=row_off[1:])
        return cls.from_arrays(
            vals.astype(precision.numpy_dtype), cols, row_off, n_cols
        )

    @classmethod
    def from_scipy(cls, mat, precision: Precision = Precision.DOUBLE) -> "CSRMatrix":
        """Build from any ``scipy.sparse`` matrix."""
        m = mat.tocsr()
        m.sum_duplicates()
        return cls.from_arrays(
            m.data.astype(precision.numpy_dtype),
            m.indices,
            m.indptr.astype(np.int64),
            m.shape[1],
        )

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (for test oracles)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.values, self.col_idx, self.row_off), shape=self.shape
        )

    def astype(self, precision: Precision) -> "CSRMatrix":
        """Copy with values stored at the given precision."""
        return CSRMatrix.from_arrays(
            self.values.astype(precision.numpy_dtype),
            self.col_idx,
            self.row_off,
            self.n_cols,
        )

    # ------------------------------------------------------------------
    # Shape and statistics
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.row_off.shape[0] - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def precision(self) -> Precision:
        return (
            Precision.SINGLE
            if self.values.dtype == np.float32
            else Precision.DOUBLE
        )

    @cached_property
    def nnz_per_row(self) -> np.ndarray:
        """Row lengths — the quantity ACSR's binning is computed from."""
        return np.diff(self.row_off).astype(np.int64)

    @property
    def mu(self) -> float:
        """Mean non-zeros per row (Table I's μ)."""
        return float(self.nnz_per_row.mean()) if self.n_rows else 0.0

    @property
    def sigma(self) -> float:
        """Standard deviation of non-zeros per row (Table I's σ)."""
        return float(self.nnz_per_row.std()) if self.n_rows else 0.0

    @property
    def max_nnz_row(self) -> int:
        """Longest row (Table I's Max — the power-law tail)."""
        return int(self.nnz_per_row.max()) if self.n_rows else 0

    @cached_property
    def gather_profile(self) -> GatherProfile:
        """Column-access locality profile for the texture-cache model."""
        if self.nnz == 0:
            return GatherProfile(reuse=1.0, clustering=1.0)
        # Column occupancy: O(nnz + n_cols), no sort.
        distinct = int(
            np.count_nonzero(np.bincount(self.col_idx, minlength=self.n_cols))
        )
        reuse = max(1.0, self.nnz / distinct)
        if self.nnz > 1:
            deltas = np.abs(np.diff(self.col_idx.astype(np.int64)))
            clustering = float(np.mean(deltas <= 32))
        else:
            clustering = 1.0
        return GatherProfile(reuse=reuse, clustering=clustering)

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    @cached_property
    def spmv_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)``: the row id of every stored entry and
        ``col_idx``, as read-only ``intp`` views.

        Only the matrix decides them, so they are built once, at the
        first multiply, and every later multiply of an iterative app
        reuses them: 16 bytes per non-zero, freed with the matrix.
        """
        rows = np.repeat(np.arange(self.n_rows, dtype=np.intp), self.nnz_per_row)
        cols = self.col_idx.astype(np.intp)
        index = rows.view(), cols.view()
        for view in index:
            view.flags.writeable = False
        return index

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """``Y = A @ X`` for ``X`` of shape ``(n_cols, k)``: the one
        numeric SpMV kernel every format multiplies through.

        Columns are summed one at a time through :attr:`spmv_index`:
        gather ``X[:, j]`` in float64, scale by ``values`` and reduce
        with ``np.bincount`` over the row ids.  ``np.bincount`` adds its
        weights one at a time in input order, so each row sums
        sequentially from 0.0 in storage order — scipy's CSR loop — and
        ``Y`` is bitwise equal to ``scipy.sparse.csr_matrix @ X`` in
        float64.  The result is cast back to ``X``'s dtype, like a GPU
        kernel that accumulates in registers.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self.n_cols:
            raise ValueError(f"X must have shape ({self.n_cols}, k)")
        rows, cols = self.spmv_index
        # np.bincount copies a read-only input, so it reads the writeable
        # array the view was taken of (an unpickled view sits on bytes
        # instead and is passed as it is).
        if isinstance(rows.base, np.ndarray):
            rows = rows.base
        # Column-major, so each column's write (and a Fortran-ordered
        # ``X``'s gather) is contiguous.
        Y = np.empty((self.n_rows, X.shape[1]), dtype=X.dtype, order="F")
        for j in range(X.shape[1]):
            prod = X[:, j].astype(np.float64, copy=False)[cols]
            prod *= self.values
            Y[:, j] = np.bincount(rows, weights=prod, minlength=self.n_rows)
        return Y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = A @ x``: :meth:`matmat` on the one-column block ``x``.

        Defined through :meth:`matmat`, so a ``k``-wide product's columns
        are bitwise equal to the single-vector products by construction.
        """
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x must have shape ({self.n_cols},)")
        return self.matmat(x[:, None])[:, 0]

    def device_bytes(self) -> int:
        """Device footprint of CSR data plus the x and y vectors."""
        vb = self.precision.value_bytes
        return (
            self.nnz * vb
            + self.nnz * INDEX_BYTES
            + (self.n_rows + 1) * INDEX_BYTES
            + (self.n_rows + self.n_cols) * vb
        )

    def binarized(self) -> "CSRMatrix":
        """Copy with all stored values set to one (adjacency semantics).

        The Section VI/VII applications operate on unweighted adjacency
        matrices; synthetic corpus matrices carry random weights for SpMV
        numerics, so the apps binarize first.
        """
        return CSRMatrix.from_arrays(
            np.ones_like(self.values), self.col_idx, self.row_off, self.n_cols
        )

    def transpose(self) -> "CSRMatrix":
        """A^T in CSR (used by PageRank/HITS/RWR formulations)."""
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), self.nnz_per_row
        )
        return CSRMatrix.from_coo(
            self.col_idx.astype(np.int64),
            rows,
            self.values,
            shape=(self.n_cols, self.n_rows),
            precision=self.precision,
            sum_duplicates=False,
        )
