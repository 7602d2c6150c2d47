"""BCCOO kernel: blocked compressed COO SpMV (Yan et al. [27]).

BCCOO packs non-zeros into small dense blocks, replaces per-element row
indices with a bit-flag stream marking row transitions, and difference-
encodes column indices — index traffic drops to about a byte per element.
A matrix-wide segmented scan in shared memory replaces most atomics.  The
auto-tuned kernel is the *fastest single SpMV* in the paper's comparison
set; its weakness is the tuning itself (>300 configurations, each a
compile + trial), which Figure 4 shows costing ~161k SpMVs.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.memory import GatherProfile
from ..gpu.occupancy import KernelResources
from .common import elementwise_work

#: Effective index bytes per element after bit flags + delta encoding.
INDEX_BYTES_PER_ELEM = 1.0


def work(
    stored_elements: int,
    n_rows: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    real_nnz: int | None = None,
    k: int = 1,
) -> KernelWork:
    """Cost model for the tuned BCCOO launch.

    ``stored_elements`` includes block padding (blocks are dense, so a
    block overlapping empty positions stores explicit zeros) and drives
    the traffic; ``real_nnz`` is the useful-flop count for reporting.
    The matrix-wide segmented scan stages partials in shared memory (two
    values per thread) and runs register-heavy.
    """
    return elementwise_work(
        "bccoo",
        total_elements=stored_elements,
        rows_spanned=n_rows,
        device=device,
        n_cols=n_cols,
        precision=precision,
        profile=profile,
        index_bytes_per_elem=INDEX_BYTES_PER_ELEM,
        reduction=True,
        flops=None if real_nnz is None else 2.0 * real_nnz * k,
        k=k,
        resources=KernelResources(
            threads_per_block=128,
            registers_per_thread=48,
            shared_bytes_per_block=2 * 128 * precision.value_bytes,
        ),
    )
