"""Row-grouping primitives for the weighted-warp canonical form.

Both hot canonicalisation paths — :func:`repro.gpu.warp.compress_gangs`
and the simulator's ``_canonical_entries`` — need the same operation:
collapse identical rows of a small stacked table to unique rows plus a
weighted multiplicity per row.  ``np.unique(axis=0)`` does this via an
argsort over a structured void view, which dominates the bench wall
clock; a plain :func:`np.lexsort` over the columns is ~10x faster on
the array shapes we see and produces the *same* row order.

Byte-identity contract (what the tests pin):

* the unique rows come back in ``np.unique(axis=0)`` order —
  lexicographically ascending with ``columns[0]`` most significant;
* the weights are accumulated with :func:`np.bincount` over the
  *original* row order, exactly as the ``return_inverse`` formulation
  did, so the grouped weights are byte-identical for arbitrary float
  weights (``np.add.reduceat`` over the sorted order is pairwise and
  would drift at the ulp level).

:func:`group_rows_segmented` is the batched variant behind
:func:`repro.gpu.simulator.simulate_many`: it groups many independent
tables in one pass by prepending a segment id as the most-significant
sort key, so a whole launch sequence canonicalises with a single
lexsort instead of one per launch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["group_rows", "group_rows_segmented"]


def _boundary_flags(sorted_cols: list[np.ndarray]) -> np.ndarray:
    """``flags[i]`` is True where sorted row ``i`` starts a new group."""
    n = sorted_cols[0].shape[0]
    flags = np.zeros(n, dtype=bool)
    if n == 0:
        return flags
    flags[0] = True
    for c in sorted_cols:
        np.logical_or(flags[1:], c[1:] != c[:-1], out=flags[1:])
    return flags


def group_rows(
    columns: list[np.ndarray] | tuple[np.ndarray, ...],
    weights: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Group identical rows of a stacked table; accumulate ``weights``.

    ``columns`` are same-length 1-D arrays — one per table column, first
    column most significant.  Returns ``(unique_cols, counts)`` where
    ``unique_cols[c][g]`` is column ``c`` of unique row ``g`` (rows in
    ``np.unique(axis=0)`` order) and ``counts[g]`` is the float64 sum of
    the weights mapped to row ``g``, byte-identical to
    ``np.bincount(inverse, weights=weights)`` with ``inverse`` from
    ``np.unique(..., return_inverse=True)``.
    """
    n = int(columns[0].shape[0])
    if n == 0:
        return [c[:0] for c in columns], np.zeros(0, dtype=np.float64)
    # lexsort's *last* key is primary, so feed the columns reversed.
    order = np.lexsort(tuple(reversed(list(columns))))
    sorted_cols = [c[order] for c in columns]
    flags = _boundary_flags(sorted_cols)
    labels = np.cumsum(flags) - 1
    n_groups = int(labels[-1]) + 1
    # Scatter the sorted group labels back to the original row order so
    # bincount accumulates weights in that order (the byte-identity
    # contract; the sorted order would re-associate the float sums).
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = labels
    counts = np.bincount(inverse, weights=weights, minlength=n_groups)
    starts = np.flatnonzero(flags)
    return [c[starts] for c in sorted_cols], counts


def group_rows_segmented(
    columns: list[np.ndarray] | tuple[np.ndarray, ...],
    weights: np.ndarray,
    seg: np.ndarray,
    n_segments: int,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Batched :func:`group_rows`: many tables grouped in one pass.

    ``seg`` maps each row to its table (segment ids must be
    non-decreasing, i.e. tables are concatenated in order).  The segment
    id acts as the most-significant sort key, so rows never group across
    segments and each segment's groups come back contiguous and in that
    segment's own ``np.unique(axis=0)`` order.  Returns
    ``(unique_cols, counts, offsets)`` with ``offsets`` of length
    ``n_segments + 1``: segment ``s`` owns groups
    ``offsets[s]:offsets[s + 1]``.

    Per-segment results are byte-identical to calling
    :func:`group_rows` on each table alone: grouping never crosses a
    segment boundary and bincount still visits each segment's rows in
    its original order, so every group's float accumulation touches the
    same values in the same sequence.
    """
    n = int(columns[0].shape[0])
    if n == 0:
        empty = [c[:0] for c in columns]
        return (
            empty,
            np.zeros(0, dtype=np.float64),
            np.zeros(n_segments + 1, dtype=np.intp),
        )
    order = np.lexsort(tuple(reversed([seg, *columns])))
    sorted_cols = [c[order] for c in columns]
    seg_sorted = seg[order]
    flags = _boundary_flags([seg_sorted, *sorted_cols])
    labels = np.cumsum(flags) - 1
    n_groups = int(labels[-1]) + 1
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = labels
    counts = np.bincount(inverse, weights=weights, minlength=n_groups)
    starts = np.flatnonzero(flags)
    offsets = np.searchsorted(seg_sorted[starts], np.arange(n_segments + 1))
    return [c[starts] for c in sorted_cols], counts, offsets
