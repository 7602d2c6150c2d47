"""HYB kernel: ELL slab for the regular part, COO for the overflow.

CUSP's HYB SpMV is two dependent launches — the ELL kernel writes ``y``
and the COO kernel accumulates the long-row overflow on top (Section II,
Figure 1-b).  Both component kernels live in their own modules; this one
composes them.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.memory import GatherProfile
from . import coo_segmented, ell_kernel


def works(
    n_rows: int,
    ell_width: int,
    ell_real_nnz: int,
    coo_nnz: int,
    coo_rows_spanned: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    k: int = 1,
) -> list[KernelWork]:
    """The two launches of one HYB SpMV (empty parts are skipped)."""
    out: list[KernelWork] = []
    if ell_width > 0 and n_rows > 0:
        out.append(
            ell_kernel.work(
                n_rows,
                ell_width,
                ell_real_nnz,
                device=device,
                n_cols=n_cols,
                precision=precision,
                profile=profile,
                name="hyb-ell",
                k=k,
            )
        )
    if coo_nnz > 0:
        out.append(
            coo_segmented.work(
                coo_nnz,
                coo_rows_spanned,
                device=device,
                n_cols=n_cols,
                precision=precision,
                profile=profile,
                name="hyb-coo",
                k=k,
            )
        )
    return out
