"""Vector-CSR kernel: a thread-gang per row (cuSPARSE/CUSP style).

All threads of a gang cooperatively process one row, with the gang size
set to "a perfect power of two close to μ, the average number of non-zeros
per row" (Section III-A), clamped to [2, 32].  Accesses to the row segment
are coalesced; an intra-warp shuffle reduction combines partials.

The weakness ACSR attacks is still present: rows much shorter than the
gang waste lanes, and a warp still runs as long as its *longest* row —
for power-law matrices the tail row dominates its whole warp.
"""

from __future__ import annotations

from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec
from ..gpu.kernel import KernelWork
from .common import gang_row_work


def gang_size_for(mu: float) -> int:
    """The power of two nearest the mean row length, clamped to [2, 32]."""
    if mu <= 0:
        return 2
    candidates = [2, 4, 8, 16, 32]
    return min(candidates, key=lambda v: abs(v - mu))


def work(
    csr: CSRMatrix,
    device: DeviceSpec,
    vector_size: int | None = None,
    k: int = 1,
) -> KernelWork:
    """Cost model for the vector-CSR launch (``k`` = vector-block width)."""
    v = vector_size if vector_size is not None else gang_size_for(csr.mu)
    return gang_row_work(
        f"csr-vector/{v}",
        csr.nnz_per_row,
        vector_size=v,
        device=device,
        n_cols=csr.n_cols,
        precision=csr.precision,
        profile=csr.gather_profile,
        coalesced=True,
        k=k,
    )

