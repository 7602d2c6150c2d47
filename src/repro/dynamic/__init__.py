"""Dynamic graphs (Section VII): slack CSR, change lists, the epoch loop."""

from .dyncsr import DynCSR, RowOverflowError
from .dynamic_acsr import DynamicACSR, UpdateCost, price_update
from .rebin import IncrementalBinning, RebinResult, rebin_work
from .pipeline import (
    DynamicRunResult,
    EpochRecord,
    epoch_speedups,
    run_dynamic_pagerank,
)
from .updates import (
    UpdateBatch,
    apply_update,
    apply_update_to_csr,
    generate_update,
)

__all__ = [
    "DynCSR",
    "DynamicACSR",
    "UpdateCost",
    "price_update",
    "IncrementalBinning",
    "RebinResult",
    "rebin_work",
    "DynamicRunResult",
    "EpochRecord",
    "RowOverflowError",
    "UpdateBatch",
    "apply_update",
    "apply_update_to_csr",
    "epoch_speedups",
    "generate_update",
    "run_dynamic_pagerank",
]
