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

#: :meth:`CSRMatrix.matmat` multiplies only the stored entries whose
#: ``x[col]`` is non-zero while they are at most ``nnz // _SPARSE_SHARE``.
_SPARSE_SHARE = 4

#: Longest row (a power of two) :class:`RowBins` pads into a bin; longer
#: rows are summed by ``np.bincount``.
_BIN_CAP = 512


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
class RowBins:
    """A matrix's stored entries laid out for summing rows by length.

    Rows are binned by the paper's rule,
    :func:`~repro.core.binning.bin_index_of`: bin ``i`` holds the rows of
    ``2^(i-1) < len <= 2^i`` entries.  Each bin up to ``_BIN_CAP`` is a ``(2^i, rows)`` block
    stored position-major, so slot ``(p, r)`` holds entry ``p`` of the
    bin's ``r``-th row; a bin of one row gets a second, empty row.  Rows
    longer than ``_BIN_CAP`` follow the blocks entry by entry, in storage
    order.  A padded slot has value 0.0 and points at column ``n_cols``,
    a sentinel :meth:`row_sums` reads as +0.0, so no ``inf`` or NaN of
    ``x`` reaches a padded slot.

    A matrix with a :attr:`~CSRMatrix.col_scale` keeps it in ``scale``
    and stores no per-slot values (8 bytes per slot); any other matrix
    stores every slot's value in ``vals`` (16 bytes per slot).
    """

    #: Every slot's column (``intp``).
    cols: np.ndarray
    #: Every slot's value (float64), or ``None`` when ``scale`` is set.
    vals: np.ndarray | None
    #: The matrix's :attr:`~CSRMatrix.col_scale`, or ``None``.
    scale: np.ndarray | None
    #: ``(first slot, width, rows)`` of each bin's block, bins ascending.
    blocks: tuple[tuple[int, int, int], ...]
    #: The long row of each slot after the blocks, numbered from 0.
    long_rows: np.ndarray
    #: Where each row's sum lands in :meth:`row_sums`'s work array: bin
    #: rows in block order, then the long rows, then one 0.0 shared by
    #: the empty rows.
    sum_of_row: np.ndarray
    #: Length of that work array.
    n_sums: int

    @classmethod
    def build(cls, csr: "CSRMatrix") -> "RowBins":
        """Bin ``csr``'s rows: one sort of the row bins, then each bin's
        block gathered into one flat allocation, with no loop over rows.
        The values are gathered only when ``csr`` has no column scale."""
        # Deferred: repro.core imports this package.
        from ..core.binning import bin_index_of

        lens = csr.nnz_per_row
        n_rows = lens.shape[0]
        top = _BIN_CAP.bit_length() - 1
        # 0 for empty rows, the bin for binned rows, top + 1 for long rows.
        key = np.minimum(bin_index_of(lens), top + 1)
        counts = np.bincount(key, minlength=top + 2)
        order = np.argsort(key.astype(np.uint8), kind="stable")
        first_row = np.cumsum(counts) - counts
        # Each key's rows in the work array of sums: none for empty rows,
        # at least two per bin.
        rows = np.where(counts > 1, counts, 2 * (counts > 0))
        rows[0] = 0
        rows[-1] = counts[-1]
        first_sum = np.cumsum(rows) - rows
        n_sums = int(rows.sum()) + 1
        sum_of_row = np.empty(n_rows, dtype=np.intp)
        sum_of_row[order] = np.arange(n_rows) + np.repeat(first_sum - first_row, counts)
        sum_of_row[key == 0] = n_sums - 1

        long = order[first_row[-1] :]
        long_lens = lens[long]
        # Bin b's block holds 2^b slots per row.
        slots = rows[1:-1] << np.arange(1, top + 1)
        cols = np.empty(int(slots.sum() + long_lens.sum()), dtype=np.intp)
        scale = csr.col_scale
        vals = None if scale is not None else np.empty(cols.shape[0])
        # Entry nnz is the padding: column n_cols, value 0.0.
        col_of = np.append(csr.col_idx, np.int32(csr.n_cols))
        val_of = np.append(csr.values, csr.values.dtype.type(0))
        # One scratch array holds each block's entry indices in turn.
        scratch = np.empty(int(slots.max()), dtype=np.intp)
        blocks = []
        first = 0
        for b in np.flatnonzero(slots) + 1:
            members = order[first_row[b] : first_row[b] + counts[b]]
            width, n = 1 << int(b), int(rows[b])
            starts = np.full(n, csr.nnz)
            ends = np.zeros(n, dtype=np.int64)
            starts[: members.shape[0]] = csr.row_off[members]
            ends[: members.shape[0]] = csr.row_off[members + 1]
            # Slot (p, r) holds entry starts[r] + p, or the padding past
            # the row's end (without a branch per slot).
            src = scratch[: width * n].reshape(width, n)
            np.add(np.arange(width)[:, None], starts, out=src)
            inside = src < ends
            src -= csr.nnz
            src *= inside
            src += csr.nnz
            cols[first : first + src.size] = col_of[src.ravel()]
            if vals is not None:
                vals[first : first + src.size] = val_of[src.ravel()]
            blocks.append((first, width, n))
            first += src.size
        # The long rows' entries, one row after another.
        src = np.arange(cols.shape[0] - first) + np.repeat(
            csr.row_off[long] - (np.cumsum(long_lens) - long_lens), long_lens
        )
        cols[first:] = col_of[src]
        if vals is not None:
            vals[first:] = val_of[src]
            vals.flags.writeable = False
        long_rows = np.repeat(np.arange(long.shape[0], dtype=np.intp), long_lens)
        for a in (cols, long_rows, sum_of_row):
            a.flags.writeable = False
        return cls(cols, vals, scale, tuple(blocks), long_rows, sum_of_row, n_sums)

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        """Every row's ``sum(values * x[cols])`` in float64, summed
        sequentially from 0.0 in storage order.

        One ``np.add.reduce`` over axis 0 of each block adds the block's
        rows position by position, a strided reduction and so in order;
        a block at least two rows wide keeps NumPy from reducing a
        contiguous axis pairwise.  ``initial=0.0`` starts every row at
        +0.0, as SciPy does, also on NumPy versions that would start from
        the first term (a row of -0.0 terms would stay -0.0).  The long
        rows go through ``np.bincount``, which adds its weights one at a
        time.

        With a ``scale``, ``x`` is scaled once per column before the
        gather, and the gather yields the products themselves:
        ``x_c * v_c`` is the same IEEE product whether it is formed once
        per column or once per entry.
        """
        x64 = np.empty(x.shape[0] + 1)
        x64[:-1] = x
        x64[-1] = 0.0
        if self.scale is not None:
            x64[:-1] *= self.scale
        prod = x64[self.cols]
        if self.vals is not None:
            prod *= self.vals
        sums = np.empty(self.n_sums)
        at = 0
        for first, width, rows in self.blocks:
            block = prod[first : first + width * rows].reshape(width, rows)
            np.add.reduce(block, axis=0, initial=0.0, out=sums[at : at + rows])
            at += rows
        long_first = prod.shape[0] - self.long_rows.shape[0]
        sums[at:-1] = np.bincount(
            self.long_rows, prod[long_first:], minlength=self.n_sums - 1 - at
        )
        sums[-1] = 0.0
        return sums[self.sum_of_row]


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR matrix with GPU-oriented metadata.

    ``values`` carries the storage precision (float32 or float64);
    ``col_idx`` is int32 (as on the device); ``row_off`` is int64 on the
    host.  :meth:`matmat` sums ``X`` one column at a time.  The first
    column it multiplies in full builds :attr:`spmv_bins`, the rows
    binned by length, which every later multiply reuses: 8 bytes per
    padded slot when every column stores one value (:attr:`col_scale`),
    16 otherwise.  The first column sparse enough to skip its zeros
    adds :attr:`col_major`, 8 more bytes per non-zero in single precision
    (12 in double); a matrix only ever multiplied by dense vectors never
    builds it, and one only multiplied by sparse vectors builds no bins.
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
        # Column occupancy from the cached counts: no sort.
        distinct = int(np.count_nonzero(self.col_counts))
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
    def spmv_bins(self) -> "RowBins":
        """This matrix's rows binned by length for :meth:`matmat`'s full
        pass: :class:`RowBins`, built at the first full pass and reused
        by every later one for the matrix's lifetime."""
        return RowBins.build(self)

    @cached_property
    def col_counts(self) -> np.ndarray:
        """Stored entries per column: ``np.bincount(col_idx)``, read-only,
        built at first use."""
        counts = np.bincount(self.col_idx, minlength=self.n_cols)
        counts.flags.writeable = False
        return counts

    @cached_property
    def col_major(self) -> "CSRMatrix":
        """This matrix's entries column by column: :meth:`transpose`,
        whose rows are the columns, rows ascending within each.

        :meth:`matmat` builds it at the first column it multiplies on its
        sparse path and keeps it for the matrix's lifetime: 4 index bytes
        plus one value per non-zero, and ``n_cols + 1`` offsets.
        """
        return self.transpose()

    @cached_property
    def skips_zeros_exactly(self) -> bool:
        """Whether :meth:`matmat` may skip the entries whose ``x[col]``
        is ±0.0 without changing a bit: every stored value is finite, and
        every row stores its columns in ascending order, so walking the
        entries column by column adds each row's terms in storage order.
        Checked once per matrix."""
        if not np.isfinite(self.values).all():
            return False
        descending = self.col_idx[1:] < self.col_idx[:-1]
        starts = self.row_off[1:-1]
        descending[starts[(starts > 0) & (starts < self.nnz)] - 1] = False
        return not descending.any()

    @cached_property
    def col_scale(self) -> np.ndarray | None:
        """Each column's one stored value in float64, when every stored
        entry of each column has the same value bit for bit (a column
        storing nothing gets 1.0), else ``None``.  The values are compared
        as unsigned integers, so ``-0.0`` and ``0.0``, or two NaN
        payloads, never count as one value.  Checked once per matrix.

        The graph operators are such matrices: a 0/1 pattern scaled per
        column (RWR's column-normalised adjacency, PageRank's Google
        matrix, HITS's stacked binarized adjacency).  :meth:`matmat` then
        scales ``x`` once per column instead of once per stored entry.
        """
        bits = self.values.view(f"u{self.values.itemsize}")
        first = np.full(self.n_cols, 1, dtype=self.values.dtype).view(bits.dtype)
        # intp indices: numpy would convert int32 ones at each use.
        cols = self.col_idx.astype(np.intp)
        first[cols] = bits
        if not np.array_equal(first[cols], bits):
            return None
        scale = first.view(self.values.dtype).astype(np.float64)
        scale.flags.writeable = False
        return scale

    def _nonzero_terms(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray] | None:
        """``(rows, values, x values)`` of the stored entries whose
        ``x[col]`` is non-zero, column by column, or ``None`` when ``x``
        takes the full pass: skipping is not exact for this matrix, or
        those entries number more than ``nnz // _SPARSE_SHARE``.  With a
        :attr:`col_scale` the x values come scaled and ``values`` is
        ``None``."""
        limit = self.nnz // _SPARSE_SHARE
        nonzero = x != 0
        n_support = np.count_nonzero(nonzero)
        # Full support touches every entry, so it skips no work.
        if (
            n_support > limit
            or n_support == self.n_cols
            or not self.skips_zeros_exactly
            or np.dot(self.col_counts, nonzero) > limit
        ):
            return None
        by_col = self.col_major
        support = np.flatnonzero(nonzero)
        starts = by_col.row_off[support]
        lens = by_col.row_off[support + 1] - starts
        # The runs by_col[starts[i]:starts[i] + lens[i]], concatenated.
        runs = np.arange(int(lens.sum()), dtype=np.intp)
        runs += np.repeat(starts - (np.cumsum(lens) - lens), lens)
        xs = x[support].astype(np.float64, copy=False)
        if self.col_scale is None:
            vals = by_col.values[runs]
        else:
            vals = None
            xs *= self.col_scale[support]
        return by_col.col_idx[runs], vals, np.repeat(xs, lens)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """``Y = A @ X`` for a floating ``X`` of shape ``(n_cols, k)``:
        the one numeric SpMV kernel every format multiplies through.

        A column of ``X`` takes the full pass through :attr:`spmv_bins`
        (built at the first such column): gather ``X[:, j]`` in float64,
        scale by the binned values (with a :attr:`col_scale`, scale
        ``X[:, j]`` once per column before the gather instead), and
        reduce each padded bin with ``np.add.reduce`` and the rows above
        the cap with ``np.bincount``.  Both add each row's terms one at a
        time, so each row sums sequentially from 0.0 in storage order —
        scipy's CSR loop — and ``Y`` is bitwise equal to
        ``scipy.sparse.csr_matrix @ X`` in float64.  The result is cast
        back to ``X``'s dtype, like a GPU kernel that accumulates in
        registers.

        A column whose non-zeros reach at most ``nnz // 4`` stored
        entries multiplies only those, walking :attr:`col_major` (built at
        the first such column) and summing them with ``np.bincount``.
        Each row still adds its terms in storage order, and the skipped
        products are ±0.0, so no bit changes: a round-to-nearest sum
        started at +0.0 is never −0.0, and adding ±0.0 leaves it as it
        is.  A matrix storing ``inf`` or NaN always takes the full pass,
        because inf·0 is NaN, as does one whose rows do not store their
        columns in ascending order (:attr:`skips_zeros_exactly`).
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self.n_cols:
            raise ValueError(f"X must have shape ({self.n_cols}, k)")
        if X.dtype.kind != "f":
            raise ValueError(f"X must be a floating-point array, got {X.dtype}")
        # Column-major, so each column's write (and a Fortran-ordered
        # ``X``'s gather) is contiguous.
        Y = np.empty((self.n_rows, X.shape[1]), dtype=X.dtype, order="F")
        for j in range(X.shape[1]):
            x = X[:, j]
            terms = self._nonzero_terms(x)
            if terms is None:
                Y[:, j] = self.spmv_bins.row_sums(x)
            else:
                rows, vals, prod = terms
                if vals is not None:
                    prod *= vals
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
        """A^T in CSR (used by PageRank/HITS/RWR formulations).

        Row ``c`` of A^T lists column ``c``'s entries in storage order,
        which is row order: one stable sort of ``col_idx``.
        """
        order = _sort_keys(self.col_idx.astype(np.int64), self.n_cols)[1]
        if order is None:
            order = np.arange(self.nnz)
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int32), self.nnz_per_row
        )[order]
        row_off = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.cumsum(self.col_counts, out=row_off[1:])
        return CSRMatrix.from_arrays(
            self.values[order], rows, row_off, self.n_rows
        )
