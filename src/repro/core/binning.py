"""Row binning — the first ACSR mechanism (Section III-A).

Bin ``i`` (``i >= 1``) holds rows whose non-zero count lies in
``(2^(i-1), 2^i]``: bin 1 covers 1–2, bin 2 covers 3–4, bin 3 covers 5–8,
and so on ("Generally, bin i covers the range [2^(i-1)+1 .. 2^i]").
Within a bin, row lengths differ by at most a factor of two, so a
bin-specific kernel whose thread-gangs are sized for the bin executes with
at most one wasted iteration per row — thread divergence is structurally
bounded.

Binning is the only preprocessing ACSR needs: a single scan of the row
lengths.  ``binning_scan_work`` prices that scan as a device kernel so
Figure 4 can charge ACSR its (tiny) PT from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gpu.device import DeviceSpec, Precision, WARP_SIZE
from ..gpu.kernel import KernelWork
from ..gpu.memory import coalesced_bytes, scattered_bytes
from ..kernels.common import launch_for_threads

#: Powers of two delimiting the bins, up to bin 48.
_POWERS = 2 ** np.arange(49, dtype=np.int64)


def bin_index_of(nnz: np.ndarray | int) -> np.ndarray | int:
    """Bin index for each non-zero count: ``ceil(log2(nnz))``, min 1.

    Empty rows (``nnz == 0``) map to bin 0, which no kernel processes
    (their ``y`` entry is simply zero).  ``ceil(log2(n))`` is the bit
    length of ``n - 1``, read off as the binary exponent ``np.frexp``
    returns; ``n - 1`` is an exact float64 integer below 2^53, so there is
    no floating-point edge case at powers of two.
    """
    scalar = np.isscalar(nnz)
    n = np.asarray(nnz, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("nnz counts must be non-negative")
    idx = np.frexp(n - 1.0)[1].astype(np.int64)
    idx = np.where(n == 0, 0, np.maximum(idx, 1))
    return int(idx) if scalar else idx


def bin_range(bin_index: int) -> tuple[int, int]:
    """Inclusive ``(lo, hi)`` non-zero range covered by a bin."""
    if bin_index < 1:
        raise ValueError("bin indices start at 1")
    if bin_index == 1:
        return (1, 2)
    return (int(_POWERS[bin_index - 1]) + 1, int(_POWERS[bin_index]))


@dataclass(frozen=True)
class Binning:
    """The result of the binning scan over one matrix."""

    #: Per-row bin index (0 for empty rows).
    bin_of: np.ndarray
    #: Sorted indices of the non-empty bins.
    bin_ids: tuple[int, ...]
    #: Row-index arrays (ascending), aligned with ``bin_ids``.
    rows_by_bin: tuple[np.ndarray, ...]

    @property
    def n_bins(self) -> int:
        return len(self.bin_ids)

    @property
    def max_bin(self) -> int:
        return self.bin_ids[-1] if self.bin_ids else 0

    @cached_property
    def counts(self) -> dict[int, int]:
        """Rows per bin."""
        return {
            b: int(rows.shape[0])
            for b, rows in zip(self.bin_ids, self.rows_by_bin)
        }

    def rows_in_bins_above(self, bin_max: int) -> int:
        """How many rows live in bins with index > ``bin_max``."""
        return sum(
            int(rows.shape[0])
            for b, rows in zip(self.bin_ids, self.rows_by_bin)
            if b > bin_max
        )


def compute_binning(nnz_per_row: np.ndarray) -> Binning:
    """Scan row lengths into bins (the whole of ACSR's preprocessing)."""
    nnz = np.asarray(nnz_per_row, dtype=np.int64)
    bins = bin_index_of(nnz)
    # Bin occupancy by bincount, not np.unique: on NumPy 2 the first
    # np.unique call imports numpy.ma, a 10-15 ms cold-path cost.
    occupied = np.flatnonzero(np.bincount(bins))
    occupied = occupied[occupied > 0]
    order = np.argsort(bins, kind="stable")
    sorted_bins = bins[order]
    bounds = np.searchsorted(sorted_bins, np.concatenate([occupied, [np.iinfo(np.int64).max]]))
    rows_by_bin = tuple(
        np.sort(order[bounds[i] : bounds[i + 1]])
        for i in range(occupied.shape[0])
    )
    return Binning(
        bin_of=bins,
        bin_ids=tuple(int(b) for b in occupied),
        rows_by_bin=rows_by_bin,
    )


def binning_scan_work(n_rows: int, precision: Precision) -> KernelWork:
    """Device-side cost of the binning scan (ACSR's entire PT).

    One pass over ``row_off`` computing each row's bin, plus an atomic
    histogram and a bucketed write of row ids — "efficient scanning of
    row-lengths" (Section X).
    """
    if n_rows <= 0:
        return KernelWork.empty("acsr-binning-scan", precision)
    n_warps = -(-n_rows // WARP_SIZE)
    counts = np.full(n_warps, float(WARP_SIZE))
    rem = n_rows % WARP_SIZE
    if rem:
        counts[-1] = rem
    # ~12 instructions per row: two offset loads, subtract, clz, histogram
    # atomic, bucket write — issued as warp-instructions over 32 lanes.
    compute = counts * 12.0 / WARP_SIZE
    # Read row_off stream; write one row id per row (bucketed: scattered).
    dram = coalesced_bytes(counts * 4) + scattered_bytes(counts) * 0.25
    return KernelWork(
        name="acsr-binning-scan",
        compute_insts=np.asarray(compute, dtype=np.float64),
        dram_bytes=np.asarray(dram, dtype=np.float64),
        mem_ops=np.ones(n_warps, dtype=np.float64),
        flops=0.0,
        precision=precision,
        launch=launch_for_threads(n_rows),
    )
