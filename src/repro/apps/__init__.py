"""Graph-mining applications of Section VI: PageRank, HITS, RWR.

All three are power methods whose run time is dominated by the SpMV; the
modules expose both the matrix *preparation* helpers (normalisation,
stacking) and the iteration drivers that accept any
:class:`~repro.formats.base.SpMVFormat` backend.
"""

from .bfs import BFSResult, bfs, bfs_matrix
from .hits import hits, split_scores, stacked_matrix
from .pagerank import DEFAULT_DAMPING, google_matrix, pagerank
from .power_method import (
    DEFAULT_EPSILON,
    DEFAULT_VECTOR_PASSES,
    MAX_ITERATIONS,
    BatchBill,
    BatchPowerMethodResult,
    PowerMethodResult,
    batch_round_widths,
    euclidean_distance,
    make_batch_bill,
    run_power_method_batch,
    vector_ops_work,
)
from .rwr import DEFAULT_RESTART, column_normalized, rwr, run_rwr_batch

__all__ = [
    "BFSResult",
    "BatchBill",
    "BatchPowerMethodResult",
    "batch_round_widths",
    "bfs",
    "bfs_matrix",
    "DEFAULT_DAMPING",
    "DEFAULT_EPSILON",
    "DEFAULT_RESTART",
    "DEFAULT_VECTOR_PASSES",
    "MAX_ITERATIONS",
    "make_batch_bill",
    "PowerMethodResult",
    "column_normalized",
    "euclidean_distance",
    "google_matrix",
    "hits",
    "pagerank",
    "run_power_method_batch",
    "run_rwr_batch",
    "rwr",
    "split_scores",
    "stacked_matrix",
    "vector_ops_work",
]
