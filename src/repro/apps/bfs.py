"""Level-synchronous BFS as repeated SpMV (extension application).

The paper's Section I motivates SpMV as "a core kernel [for] graph
analytic domains" and cites the sparse-matrix view of graph operations
[15]; breadth-first search is the canonical example: one BFS level is one
SpMV of the frontier indicator over the transposed adjacency matrix on a
boolean semiring.  This module adds BFS to the application suite using
exactly the same pluggable SpMV backends as PageRank/HITS/RWR — each
level is charged one full SpMV, as in matrix-based BFS implementations of
the paper's era.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.base import SpMVFormat
from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec
from .power_method import cost_of_width, make_batch_bill

#: Level marker for unreachable vertices.
UNREACHED = -1


def bfs_matrix(adjacency: CSRMatrix) -> CSRMatrix:
    """The BFS iteration operator: ``A^T`` with unit weights.

    ``(A^T x)[v] > 0`` iff some in-frontier vertex links to ``v``.
    """
    return adjacency.binarized().transpose()


@dataclass(frozen=True)
class BFSResult:
    """Levels per vertex plus the modelled device time."""

    levels: np.ndarray
    iterations: int
    modeled_time_s: float

    @property
    def n_reached(self) -> int:
        return int(np.count_nonzero(self.levels != UNREACHED))

    @property
    def eccentricity(self) -> int:
        """Greatest finite level (the source's eccentricity)."""
        reached = self.levels[self.levels != UNREACHED]
        return int(reached.max()) if reached.size else 0


def bfs(
    fmt: SpMVFormat,
    device: DeviceSpec,
    source: int,
    max_levels: int | None = None,
) -> BFSResult:
    """Breadth-first levels from ``source`` using backend ``fmt``.

    ``fmt`` must be built from :func:`bfs_matrix` output.  Each level
    costs one SpMV plus a frontier-update vector kernel, billed as a
    width-1 run by :func:`~repro.apps.power_method.make_batch_bill`;
    iteration stops when the frontier empties.
    """
    n = fmt.n_rows
    if fmt.n_cols != n:
        raise ValueError("BFS needs a square operator")
    if not 0 <= source < n:
        raise ValueError("source vertex out of range")
    max_levels = n if max_levels is None else max_levels
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")

    levels = np.full(n, UNREACHED, dtype=np.int64)
    levels[source] = 0
    frontier = np.zeros(n, dtype=fmt.precision.numpy_dtype)
    frontier[source] = 1.0

    iters = 0
    while iters < max_levels:
        reached = fmt.multiply(frontier)
        new = (reached > 0) & (levels == UNREACHED)
        iters += 1
        if not new.any():
            break
        levels[new] = iters
        frontier = np.zeros(n, dtype=fmt.precision.numpy_dtype)
        frontier[new] = 1.0

    return BFSResult(
        levels=levels,
        iterations=iters,
        modeled_time_s=make_batch_bill(
            [iters], cost_of_width(fmt, device, vector_passes=3)
        ).total_s,
    )
