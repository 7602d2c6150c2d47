"""Graph-mining applications of Section VI: PageRank, HITS, RWR.

All three are power methods whose run time is dominated by the SpMV; the
modules expose both the matrix *preparation* helpers (normalisation,
stacking) and the iteration drivers that accept any
:class:`~repro.formats.base.SpMVFormat` backend.
"""

from .bfs import BFSResult, bfs, bfs_matrix
from .hits import hits, hits_trajectory, split_scores, stacked_matrix
from .pagerank import (
    DEFAULT_DAMPING,
    google_matrix,
    pagerank,
    pagerank_trajectory,
)
from .power_method import (
    DEFAULT_EPSILON,
    DEFAULT_VECTOR_PASSES,
    MAX_ITERATIONS,
    BatchBill,
    BatchPowerMethodResult,
    PowerMethodResult,
    Trajectory,
    batch_round_widths,
    bill_trajectory,
    cost_of_width,
    make_batch_bill,
    run_trajectory,
    vector_ops_work,
)
from .rwr import (
    DEFAULT_RESTART,
    column_normalized,
    rwr,
    run_rwr_batch,
    rwr_trajectory,
)

__all__ = [
    "BFSResult",
    "BatchBill",
    "BatchPowerMethodResult",
    "batch_round_widths",
    "bfs",
    "bill_trajectory",
    "bfs_matrix",
    "DEFAULT_DAMPING",
    "DEFAULT_EPSILON",
    "DEFAULT_RESTART",
    "DEFAULT_VECTOR_PASSES",
    "MAX_ITERATIONS",
    "make_batch_bill",
    "PowerMethodResult",
    "column_normalized",
    "cost_of_width",
    "google_matrix",
    "hits",
    "hits_trajectory",
    "pagerank",
    "pagerank_trajectory",
    "run_rwr_batch",
    "run_trajectory",
    "rwr",
    "rwr_trajectory",
    "split_scores",
    "stacked_matrix",
    "Trajectory",
    "vector_ops_work",
]
