"""Random Walk with Restart (Equation 8 of the paper).

``r_i^{k+1} = c * (W @ r_i^k) + (1 - c) * e_i`` where ``W`` is the
column-normalised adjacency matrix, ``c`` the restart probability
("similar to damping factor in PageRank") and ``e_i`` the indicator of the
query node.  Converges to the relevance of every node to node ``i``.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import SpMVFormat
from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec
from .power_method import (
    DEFAULT_EPSILON,
    MAX_ITERATIONS,
    BatchPowerMethodResult,
    PowerMethodResult,
    Trajectory,
    app_span,
    bill_trajectory,
    run_trajectory,
    validate_limits,
)

#: Restart probability used by the harness (Tong et al. use c ~ 0.9).
DEFAULT_RESTART = 0.9


def column_normalized(adjacency: CSRMatrix) -> CSRMatrix:
    """``W``: the adjacency matrix with each *column* summing to one.

    Columns with no entries stay zero (their mass is restored by the
    restart term).
    """
    col_sums = np.bincount(
        adjacency.col_idx,
        weights=np.abs(adjacency.values.astype(np.float64)),
        minlength=adjacency.n_cols,
    )
    inv = np.divide(
        1.0, col_sums, out=np.zeros_like(col_sums), where=col_sums > 0
    )
    return CSRMatrix.from_arrays(
        (
            adjacency.values.astype(np.float64)
            * inv[adjacency.col_idx]
        ).astype(adjacency.values.dtype),
        adjacency.col_idx,
        adjacency.row_off,
        adjacency.n_cols,
    )


def rwr_trajectory(
    fmt: SpMVFormat,
    query_nodes,
    restart: float = DEFAULT_RESTART,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = MAX_ITERATIONS,
) -> Trajectory:
    """RWR's numerics on ``fmt``'s :func:`column_normalized` operator,
    unbilled: the walk ``r <- c W r + (1 - c) e`` from every query node
    at once, column ``j`` restarting at ``query_nodes[j]``."""
    validate_limits(epsilon, max_iterations)
    queries = np.asarray(query_nodes, dtype=np.int64)
    n = fmt.n_rows
    if fmt.n_cols != n:
        raise ValueError("RWR needs a square matrix")
    if queries.ndim != 1 or queries.size < 1:
        raise ValueError("query_nodes must be a non-empty 1-D sequence")
    if queries.min() < 0 or queries.max() >= n:
        raise ValueError("query node out of range")
    if not 0.0 < restart < 1.0:
        raise ValueError("restart probability must be in (0, 1)")
    E = np.zeros((n, queries.size), dtype=np.float64)
    E[queries, np.arange(queries.size)] = 1.0
    teleport = (1.0 - restart) * E

    def step(_X: np.ndarray, AX: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return restart * AX.astype(np.float64) + teleport[:, cols]

    return run_trajectory(
        fmt, E, step, epsilon=epsilon, max_iterations=max_iterations
    )


def rwr(
    fmt: SpMVFormat,
    device: DeviceSpec,
    seed_node: int,
    restart: float = DEFAULT_RESTART,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = MAX_ITERATIONS,
    profiler=None,
) -> PowerMethodResult:
    """Relevance of all nodes to ``seed_node`` under backend ``fmt``.

    ``fmt`` must be built from :func:`column_normalized` output.
    ``profiler`` records an ``rwr`` span with per-iteration counters.
    """
    traj = rwr_trajectory(fmt, [seed_node], restart, epsilon, max_iterations)
    with app_span(profiler, "rwr", fmt, device, seed=seed_node):
        return bill_trajectory(traj, fmt, device, profiler).single()


def run_rwr_batch(
    fmt: SpMVFormat,
    device: DeviceSpec,
    query_nodes,
    restart: float = DEFAULT_RESTART,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = MAX_ITERATIONS,
    profiler=None,
) -> BatchPowerMethodResult:
    """Relevance vectors for a *batch* of query nodes in one walk.

    A recommender answering ``len(query_nodes)`` queries runs them as one
    batched power method: every iteration is a single SpMM over the
    still-unconverged columns instead of one SpMV per query, so the
    matrix is read once per iteration for the whole batch.  Column ``j``
    converges independently and is bitwise identical to
    ``rwr(fmt, device, query_nodes[j], ...)`` — that call is this walk
    at ``k = 1``.
    """
    traj = rwr_trajectory(fmt, query_nodes, restart, epsilon, max_iterations)
    with app_span(
        profiler, "rwr-batch", fmt, device, k=int(traj.vectors.shape[1])
    ):
        return bill_trajectory(traj, fmt, device, profiler)
