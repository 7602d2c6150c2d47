"""COO kernel with segmented reduction (CUSP's ``spmv_coo_flat``).

One thread per non-zero; a warp-level segmented scan accumulates partial
products that belong to the same row, and carries across warp boundaries
are resolved with atomics.  Perfectly load balanced, but it pays
reduction/atomic overhead per warp — the "excessive synchronization
overhead" the paper cites for COO-family formats (Section I).
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.memory import GatherProfile
from .common import elementwise_work


def work(
    nnz: int,
    n_rows_spanned: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    name: str = "coo-segmented",
    k: int = 1,
) -> KernelWork:
    """Cost model for the segmented-reduction COO launch."""
    return elementwise_work(
        name,
        total_elements=nnz,
        rows_spanned=n_rows_spanned,
        device=device,
        n_cols=n_cols,
        precision=precision,
        profile=profile,
        index_bytes_per_elem=8.0,  # row index + column index
        reduction=True,
        k=k,
    )
