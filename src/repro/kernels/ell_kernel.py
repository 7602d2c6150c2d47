"""ELLPACK kernel: one thread per row over a zero-padded dense slab.

ELL stores the matrix as a dense ``n_rows x width`` array in column-major
order, so a warp's 32 lanes always read 32 consecutive entries — perfect
coalescing, zero divergence.  The price is padding: every row is read out
to ``width`` whether it has data there or not, which is the "redundant
computation and data transfer" cost the paper charges against
padding-based formats (Section I).
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.memory import GatherProfile
from .common import ell_work


def work(
    n_rows: int,
    width: int,
    real_nnz: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    name: str = "ell",
    scattered_y: bool = False,
    k: int = 1,
) -> KernelWork:
    """Cost model for the ELL launch (``k`` = vector-block width)."""
    return ell_work(
        name,
        n_rows=n_rows,
        width=width,
        real_nnz=real_nnz,
        device=device,
        n_cols=n_cols,
        precision=precision,
        profile=profile,
        scattered_y=scattered_y,
        k=k,
    )
