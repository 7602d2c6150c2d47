"""HITS (Kleinberg's hubs & authorities) via the stacked single SpMV.

The paper follows [28] and folds the two HITS updates

    a^{k+1} = A^T h^k        h^{k+1} = A a^k

into one SpMV on the stacked operator (Equation 7)::

    [a]^{k+1}   [0    A^T] [a]^k
    [h]      =  [A    0  ] [h]

Scores are L2-normalised every iteration (required for convergence of the
power method) and iteration stops when both score vectors move less than
epsilon, matching Section VI-B.
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


def stacked_matrix(adjacency: CSRMatrix) -> CSRMatrix:
    """Build the ``2n x 2n`` operator ``[[0, A^T], [A, 0]]`` of Eq. 7."""
    n, m = adjacency.shape
    if n != m:
        raise ValueError("HITS needs a square adjacency matrix")
    at = adjacency.transpose()
    # Top block rows: A^T with columns shifted by n; bottom: A as-is.
    top_rows = np.repeat(
        np.arange(n, dtype=np.int64), at.nnz_per_row
    )
    bottom_rows = n + np.repeat(
        np.arange(n, dtype=np.int64), adjacency.nnz_per_row
    )
    rows = np.concatenate([top_rows, bottom_rows])
    cols = np.concatenate(
        [at.col_idx.astype(np.int64) + n, adjacency.col_idx.astype(np.int64)]
    )
    vals = np.concatenate([at.values, adjacency.values])
    return CSRMatrix.from_coo(
        rows,
        cols,
        vals,
        shape=(2 * n, 2 * n),
        precision=adjacency.precision,
        sum_duplicates=False,
    )


def hits_trajectory(
    fmt: SpMVFormat,
    epsilon: float = DEFAULT_EPSILON,
    x0: np.ndarray | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> Trajectory:
    """HITS's numerics on ``fmt``'s :func:`stacked_matrix` operator,
    unbilled; :func:`hits` bills it for one backend."""
    validate_limits(epsilon, max_iterations)
    n2 = fmt.n_rows
    if fmt.n_cols != n2 or n2 % 2:
        raise ValueError("fmt must be the 2n x 2n stacked operator")
    n = n2 // 2
    start = (
        np.full(n2, 1.0 / n)
        if x0 is None
        else np.asarray(x0, dtype=np.float64)
    )
    if start.shape != (n2,):
        raise ValueError(f"x0 must have shape ({n2},)")

    def step(_X: np.ndarray, AX: np.ndarray, _cols) -> np.ndarray:
        # Normalise the authority and hub halves separately — the stacked
        # operator's spectrum is symmetric (+sigma/-sigma pairs), and
        # per-half normalisation is what makes the paired power iteration
        # converge, exactly as in split HITS implementations.  Column-major,
        # so each half is a contiguous 1-D norm whatever the block width.
        V = np.array(AX, dtype=np.float64, order="F")
        for j in range(V.shape[1]):
            for half in (V[:n, j], V[n:, j]):
                norm = np.linalg.norm(half)
                if norm > 0:
                    half /= norm
        return V

    return run_trajectory(
        fmt,
        start[:, None],
        step,
        epsilon=epsilon,
        max_iterations=max_iterations,
        vector_passes=6,  # extra norm pass vs PageRank
    )


def hits(
    fmt: SpMVFormat,
    device: DeviceSpec,
    epsilon: float = DEFAULT_EPSILON,
    x0: np.ndarray | None = None,
    max_iterations: int = MAX_ITERATIONS,
    profiler=None,
) -> PowerMethodResult:
    """Run HITS with ``fmt`` built from :func:`stacked_matrix` output.

    The result vector holds ``[authority; hub]`` scores, L2-normalised.
    ``profiler`` records a ``hits`` span with per-iteration counters.
    """
    traj = hits_trajectory(fmt, epsilon, x0, max_iterations)
    with app_span(profiler, "hits", fmt, device):
        return bill_trajectory(traj, fmt, device, profiler).single()


def split_scores(vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a stacked result into ``(authority, hub)`` halves."""
    if vector.shape[0] % 2:
        raise ValueError("stacked vector must have even length")
    n = vector.shape[0] // 2
    return vector[:n], vector[n:]
