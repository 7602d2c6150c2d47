"""Warp-level work decomposition helpers.

Every SpMV kernel in this repository maps rows (or element ranges) onto
warps in one of a few standard patterns.  The helpers here turn a per-row
``nnz`` array into per-warp quantities — SIMT iterations, wasted lanes,
useful lanes — fully vectorised, so a kernel's cost can be derived without
ever iterating rows in Python.

The central observation the paper builds on lives here: when a warp covers
several rows and each row is processed by a fixed-size thread group, the
warp runs for ``max`` of its rows' iteration counts while only ``sum`` of
them is useful work.  Binning makes ``max ≈ each`` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import WARP_SIZE
from .grouping import group_rows


def _ceil_div(a: np.ndarray | int, b: int) -> np.ndarray | int:
    return -(-a // b)


@dataclass(frozen=True)
class RowGangWork:
    """Per-warp work for the *thread-gang per row* pattern.

    ``vector_size`` threads cooperate on each row; ``WARP_SIZE /
    vector_size`` rows share a warp (or, for ``vector_size > WARP_SIZE``,
    one row spans several warps).

    ``weights`` turns the arrays into a *compressed* description: entry
    ``i`` stands for ``weights[i]`` identical warps.  ``None`` means one
    warp per entry (the dense form produced by
    :func:`pack_rows_into_warps`); :func:`compress_gangs` folds identical
    warp shapes together, so launches over power-law matrices scale with
    the number of *distinct* shapes instead of the warp count.
    """

    vector_size: int
    #: SIMT iterations each warp executes (max over its rows).
    warp_iters: np.ndarray
    #: Sum over the warp's rows of that row's own iteration count.
    useful_iters: np.ndarray
    #: Non-zeros covered by each warp.
    warp_nnz: np.ndarray
    #: Rows covered by each warp.
    warp_rows: np.ndarray
    #: Multiplicity of each entry (``None`` = every entry is one warp).
    weights: np.ndarray | None = None

    @property
    def n_entries(self) -> int:
        return int(self.warp_iters.shape[0])

    @property
    def n_warps(self) -> int:
        if self.weights is not None:
            return int(self.weights.sum())
        return int(self.warp_iters.shape[0])

    def _weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights.astype(np.float64)
        return np.ones(self.n_entries, dtype=np.float64)

    @property
    def divergence_waste(self) -> float:
        """Fraction of issued iteration-slots that are idle padding.

        0.0 means perfectly balanced warps; values near 1.0 mean almost
        every issued slot is waiting for one long row (the power-law
        pathology of CSR-vector).
        """
        rows_per_warp = max(1, WARP_SIZE // self.vector_size)
        w = self._weights()
        issued = float(np.sum(self.warp_iters * w) * rows_per_warp)
        if issued == 0:
            return 0.0
        useful = float(np.sum(self.useful_iters * w))
        return 1.0 - min(1.0, useful / issued)


def pack_rows_into_warps(nnz_per_row: np.ndarray, vector_size: int) -> RowGangWork:
    """Decompose the gang-per-row pattern into per-warp work.

    ``nnz_per_row`` lists the rows *in the order the kernel enumerates
    them* (consecutive rows land in the same warp).  ``vector_size`` must
    be a power of two.  For ``vector_size <= WARP_SIZE``, each warp covers
    ``WARP_SIZE // vector_size`` consecutive rows.  For larger gangs the
    row spans ``vector_size // WARP_SIZE`` warps, each doing the row's
    full iteration count over its slice.
    """
    if vector_size < 1 or vector_size & (vector_size - 1):
        raise ValueError("vector_size must be a positive power of two")
    nnz = np.asarray(nnz_per_row, dtype=np.int64)
    if nnz.ndim != 1:
        raise ValueError("nnz_per_row must be one-dimensional")
    if nnz.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return RowGangWork(vector_size, empty, empty, empty, empty)
    if np.any(nnz < 0):
        raise ValueError("nnz counts must be non-negative")

    if vector_size <= WARP_SIZE:
        rows_per_warp = WARP_SIZE // vector_size
        row_iters = _ceil_div(nnz, vector_size)
        n_rows = nnz.shape[0]
        n_warps = int(-(-n_rows // rows_per_warp))
        pad = n_warps * rows_per_warp - n_rows
        if pad:
            row_iters = np.concatenate([row_iters, np.zeros(pad, dtype=np.int64)])
            nnz_p = np.concatenate([nnz, np.zeros(pad, dtype=np.int64)])
        else:
            nnz_p = nnz
        grid_iters = row_iters.reshape(n_warps, rows_per_warp)
        grid_nnz = nnz_p.reshape(n_warps, rows_per_warp)
        warp_iters = grid_iters.max(axis=1)
        useful = grid_iters.sum(axis=1)
        warp_nnz = grid_nnz.sum(axis=1)
        warp_rows = np.full(n_warps, rows_per_warp, dtype=np.int64)
        if pad:
            warp_rows[-1] = rows_per_warp - pad
    else:
        # One row spans multiple warps; all its warps iterate together.
        warps_per_row = vector_size // WARP_SIZE
        per_warp_elems = _ceil_div(nnz, warps_per_row)
        iters = _ceil_div(per_warp_elems, WARP_SIZE)
        warp_iters = np.repeat(iters, warps_per_row)
        useful = warp_iters.copy()
        warp_nnz = np.repeat(_ceil_div(nnz, warps_per_row), warps_per_row)
        # Last warp of each row may cover fewer elements; the max-cost model
        # charges them equally, which matches lockstep grids.
        warp_rows = np.ones(warp_iters.shape[0], dtype=np.int64)
    return RowGangWork(
        vector_size=vector_size,
        warp_iters=warp_iters.astype(np.int64),
        useful_iters=useful.astype(np.int64),
        warp_nnz=warp_nnz.astype(np.int64),
        warp_rows=warp_rows,
    )


def compress_gangs(gang: RowGangWork) -> RowGangWork:
    """Fold identical warp shapes of ``gang`` into weighted entries.

    Binning makes warps identical by construction (the paper's core
    insight), so a launch over a power-law matrix has few *distinct*
    ``(iters, useful, nnz, rows)`` shapes: grouping them via
    :func:`repro.gpu.grouping.group_rows` (a lexsort, an order of
    magnitude cheaper than ``np.unique(axis=0)``'s structured-view sort
    and byte-identical to it) makes every downstream cost computation
    scale with bin diversity instead of matrix size.  The expansion of
    the result is the same multiset of warps as the input, so
    weighted-aware consumers (:func:`repro.gpu.simulator.simulate_kernel`)
    produce identical timings for both forms.
    """
    if gang.n_entries <= 1:
        return gang
    unique_cols, counts = group_rows(
        [gang.warp_iters, gang.useful_iters, gang.warp_nnz, gang.warp_rows],
        gang._weights(),
    )
    return RowGangWork(
        vector_size=gang.vector_size,
        warp_iters=unique_cols[0],
        useful_iters=unique_cols[1],
        warp_nnz=unique_cols[2],
        warp_rows=unique_cols[3],
        weights=counts.astype(np.int64),
    )


def shuffle_reduction_steps(vector_size: int) -> int:
    """Intra-warp shuffle steps to reduce a gang of ``vector_size`` lanes.

    ``log2(vector_size)`` ``shfl_down`` instructions (Algorithm 2's
    reduction loop); a gang of one needs none.
    """
    if vector_size < 1 or vector_size & (vector_size - 1):
        raise ValueError("vector_size must be a positive power of two")
    return int(vector_size.bit_length() - 1) if vector_size <= WARP_SIZE else 5
