"""PageRank (Algorithm 5 of the paper).

``PR^{k+1} = (1-d) * PR^0 + d * (M @ PR^k)`` with the damping factor
``d = 0.85`` [20], where ``M`` is the row-normalised adjacency matrix
transposed so that rank flows along in-links.  Iteration stops when the
Euclidean distance between successive rank vectors falls below epsilon.

The SpMV backend is pluggable — the paper evaluates CSR, HYB and ACSR
(Figure 6-top) — and the returned result carries both the rank vector and
the modelled device time.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import SpMVFormat
from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec
from .power_method import (
    DEFAULT_EPSILON,
    MAX_ITERATIONS,
    PowerMethodResult,
    Trajectory,
    app_span,
    bill_trajectory,
    run_trajectory,
    validate_limits,
)

#: The paper's damping factor (Section VI-A, citing Brin & Page).
DEFAULT_DAMPING = 0.85


def google_matrix(adjacency: CSRMatrix) -> CSRMatrix:
    """The PageRank iteration matrix: transpose of the row-normalised
    adjacency ("Row normalized adjacency matrix", applied as ``A^T x``).

    Rows are normalised by their total link weight (``|values|`` sums),
    which reduces to out-degree for the usual unweighted adjacency.
    Dangling rows (no out-links) contribute nothing; their rank mass is
    re-injected by the teleport term, as in the paper's formulation.
    """
    row_ids = np.repeat(
        np.arange(adjacency.n_rows, dtype=np.int64), adjacency.nnz_per_row
    )
    weights = np.bincount(
        row_ids,
        weights=np.abs(adjacency.values.astype(np.float64)),
        minlength=adjacency.n_rows,
    )
    inv = np.divide(
        1.0, weights, out=np.zeros_like(weights), where=weights > 0
    )
    scale = np.repeat(inv, adjacency.nnz_per_row)
    normalized = CSRMatrix.from_arrays(
        (adjacency.values.astype(np.float64) * scale).astype(
            adjacency.values.dtype
        ),
        adjacency.col_idx,
        adjacency.row_off,
        adjacency.n_cols,
    )
    return normalized.transpose()


def pagerank_trajectory(
    fmt: SpMVFormat,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = DEFAULT_EPSILON,
    x0: np.ndarray | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> Trajectory:
    """PageRank's numerics on ``fmt``'s matrix (:func:`google_matrix`
    output), unbilled; :func:`pagerank` bills it for one backend."""
    validate_limits(epsilon, max_iterations)
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    n = fmt.n_rows
    if fmt.n_cols != n:
        raise ValueError("PageRank needs a square matrix")
    pr0 = np.full(n, 1.0 / n)
    start = pr0 if x0 is None else np.asarray(x0, dtype=np.float64)
    if start.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    teleport = ((1.0 - damping) * pr0)[:, None]

    def step(_X: np.ndarray, AX: np.ndarray, _cols) -> np.ndarray:
        return teleport + damping * AX.astype(np.float64)

    return run_trajectory(
        fmt,
        start[:, None],
        step,
        epsilon=epsilon,
        max_iterations=max_iterations,
    )


def pagerank(
    fmt: SpMVFormat,
    device: DeviceSpec,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = DEFAULT_EPSILON,
    x0: np.ndarray | None = None,
    max_iterations: int = MAX_ITERATIONS,
    profiler=None,
) -> PowerMethodResult:
    """Run PageRank with ``fmt`` (built from :func:`google_matrix` output).

    ``x0`` warm-starts the iteration — the dynamic-graph pipeline of
    Section VII passes the previous epoch's converged ranks, which is what
    cuts the iteration count there.

    ``profiler`` (a :class:`repro.obs.Profiler`) records one
    ``pagerank`` span with a nested span + counters per iteration.
    """
    traj = pagerank_trajectory(fmt, damping, epsilon, x0, max_iterations)
    with app_span(profiler, "pagerank", fmt, device):
        return bill_trajectory(traj, fmt, device, profiler).single()
