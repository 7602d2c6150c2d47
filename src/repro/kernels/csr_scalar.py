"""Scalar-CSR kernel: one thread per row.

The straightforward CSR SpMV (Section II): thread ``i`` walks row ``i``.
Two pathologies make it slow on power-law matrices, both captured by the
cost model:

* **thread divergence** — a warp runs for the *longest* of its 32 rows;
* **uncoalesced access** — each lane streams a different region of the
  values/col_idx arrays, so every load is its own 32-byte sector.

This is the "CSR" baseline of Figure 5 and Figure 6.
"""

from __future__ import annotations

from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec
from ..gpu.kernel import KernelWork
from .common import gang_row_work


def work(csr: CSRMatrix, device: DeviceSpec, k: int = 1) -> KernelWork:
    """Cost model for the scalar-CSR launch (``k`` = vector-block width)."""
    return gang_row_work(
        "csr-scalar",
        csr.nnz_per_row,
        vector_size=1,
        device=device,
        n_cols=csr.n_cols,
        precision=csr.precision,
        profile=csr.gather_profile,
        coalesced=False,
        k=k,
    )

