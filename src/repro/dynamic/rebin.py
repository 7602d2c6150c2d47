"""Incremental bin maintenance for dynamic graphs.

Section X: "applications which process such matrices often have to deal
with sparsity structure that is dynamically changing at a slow rate.
ACSR is especially advantageous for such contexts, since such adaptations
can be easily incorporated incrementally with a very low overhead."

After a row update, only the *updated* rows can change bins — and because
bins are powers of two, most length changes don't even cross a bin
boundary.  :class:`IncrementalBinning` maintains the bin structure under
updates, touching only the migrating rows; :func:`rebin_work` prices the
corresponding device kernel (a scan over the update's rows, not over the
whole matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.binning import Binning, bin_index_of
from ..gpu.device import DeviceSpec, Precision, WARP_SIZE
from ..gpu.kernel import KernelWork
from ..gpu.memory import coalesced_bytes, scattered_bytes
from ..kernels.common import launch_for_threads


@dataclass
class RebinResult:
    """What one incremental pass changed."""

    n_updated: int
    n_migrated: int
    binning: Binning


class IncrementalBinning:
    """A mutable view over a :class:`Binning` that absorbs row updates."""

    def __init__(self, binning: Binning) -> None:
        self._bin_of = binning.bin_of.copy()
        self._rows: dict[int, np.ndarray] = {
            b: rows.copy()
            for b, rows in zip(binning.bin_ids, binning.rows_by_bin)
        }

    @classmethod
    def from_lengths(cls, nnz_per_row: np.ndarray) -> "IncrementalBinning":
        from ..core.binning import compute_binning

        return cls(compute_binning(np.asarray(nnz_per_row, dtype=np.int64)))

    # ------------------------------------------------------------------
    def snapshot(self) -> Binning:
        """An immutable :class:`Binning` of the current state."""
        bins = sorted(b for b, rows in self._rows.items() if rows.size)
        return Binning(
            bin_of=self._bin_of.copy(),
            bin_ids=tuple(bins),
            rows_by_bin=tuple(self._rows[b].copy() for b in bins),
        )

    def bin_of(self, row: int) -> int:
        return int(self._bin_of[row])

    # ------------------------------------------------------------------
    def apply(
        self, rows: np.ndarray, new_lengths: np.ndarray
    ) -> RebinResult:
        """Re-bin the updated rows given their new lengths.

        Only rows whose bin actually changes are moved; the per-bin row
        lists stay sorted (the kernels rely on ascending order for their
        streaming-traffic behaviour).
        """
        rows = np.asarray(rows, dtype=np.int64)
        new_lengths = np.asarray(new_lengths, dtype=np.int64)
        if rows.shape != new_lengths.shape:
            raise ValueError("rows and new_lengths must align")
        if rows.size == 0:
            return RebinResult(0, 0, self.snapshot())

        new_bins = bin_index_of(new_lengths)
        old_bins = self._bin_of[rows]
        moving = new_bins != old_bins
        n_migrated = int(np.count_nonzero(moving))
        if n_migrated:
            move_rows = rows[moving]
            move_old = old_bins[moving]
            move_new = new_bins[moving]
            # Remove from old bins...  Occupied bins come from bincount and
            # membership from a sorted lookup: np.unique (also inside
            # np.isin) imports numpy.ma on NumPy 2, a 10-15 ms cold cost.
            for b in np.flatnonzero(np.bincount(move_old)):
                if b == 0:
                    continue
                leaving = np.sort(move_rows[move_old == b])
                current = self._rows.get(int(b))
                if current is not None:
                    at = np.searchsorted(leaving, current).clip(
                        max=leaving.size - 1
                    )
                    self._rows[int(b)] = current[leaving[at] != current]
            # ...insert into new bins, preserving sorted order.
            for b in np.flatnonzero(np.bincount(move_new)):
                if b == 0:
                    continue
                arriving = np.sort(move_rows[move_new == b])
                current = self._rows.get(int(b))
                if current is None or current.size == 0:
                    self._rows[int(b)] = arriving
                else:
                    pos = np.searchsorted(current, arriving)
                    self._rows[int(b)] = np.insert(current, pos, arriving)
            self._bin_of[move_rows] = move_new
        return RebinResult(
            n_updated=int(rows.shape[0]),
            n_migrated=n_migrated,
            binning=self.snapshot(),
        )


def rebin_work(
    n_updated_rows: int,
    n_migrated_rows: int,
    precision: Precision,
) -> KernelWork:
    """Device cost of the incremental pass: scan the update's rows,
    recompute their bins, and patch the bin lists for the migrants.

    Contrast with ``binning_scan_work(n_rows)`` — the full rebuild this
    replaces — which touches *every* row.
    """
    if n_updated_rows < 0 or n_migrated_rows < 0:
        raise ValueError("row counts must be non-negative")
    if n_migrated_rows > n_updated_rows:
        raise ValueError("cannot migrate more rows than were updated")
    if n_updated_rows == 0:
        return KernelWork.empty("acsr-rebin", precision)
    n_warps = -(-n_updated_rows // WARP_SIZE)
    counts = np.full(n_warps, float(WARP_SIZE))
    rem = n_updated_rows % WARP_SIZE
    if rem:
        counts[-1] = rem
    # Per updated row: length load + clz + compare; per migrant: a
    # list-patch (delete + sorted insert) with scattered accesses.
    migrate_share = n_migrated_rows / n_updated_rows
    compute = counts * (8.0 + 24.0 * migrate_share) / WARP_SIZE
    dram = coalesced_bytes(counts * 8) + scattered_bytes(
        counts * migrate_share
    ) * 2.0
    return KernelWork(
        name="acsr-rebin",
        compute_insts=np.asarray(compute, dtype=np.float64),
        dram_bytes=np.asarray(dram, dtype=np.float64),
        mem_ops=np.ones(n_warps, dtype=np.float64) * 2.0,
        flops=0.0,
        precision=precision,
        launch=launch_for_threads(n_updated_rows),
    )
