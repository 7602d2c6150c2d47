"""HYB format: ELL for the regular head, COO for the long-tail overflow.

The best general-purpose format in the NVIDIA libraries for power-law
matrices (Section V), and ACSR's main adversary in Figures 5–7.  The ELL
width ``k`` follows the CUSP heuristic the paper cites in Section II: the
maximum ``k`` such that at least ``R = max(4096, n_rows / 3)`` rows have
``k`` or more non-zeros.  Rows shorter than ``k`` are zero-padded (the
~33% average padding the paper measures); entries beyond ``k`` spill into
the COO part.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES
from ..gpu.kernel import KernelWork
from ..kernels import hyb_kernel
from .base import PreprocessReport, SpMVFormat, transfer_report_s
from .csr import CSRMatrix
from .ell import ell_real_nnz


def hyb_ell_width(nnz_per_row: np.ndarray, n_rows: int) -> int:
    """The CUSP ``k`` heuristic (Section II).

    Maximum ``k`` with at least ``max(4096, n_rows/3)`` rows of length
    >= ``k``.  Returns 0 for matrices too small/sparse to justify an ELL
    part (everything goes to COO).
    """
    if n_rows == 0:
        return 0
    required = max(4096, n_rows // 3)
    if n_rows < required:
        # Tiny matrices: fall back to a proportional threshold.
        required = max(1, n_rows // 3)
    hist = np.bincount(np.minimum(nnz_per_row, nnz_per_row.max()))
    # rows_with_at_least[k] = number of rows with >= k non-zeros.
    rows_with_at_least = np.cumsum(hist[::-1])[::-1]
    ks = np.nonzero(rows_with_at_least >= required)[0]
    if ks.size == 0:
        return 0
    return int(ks.max())


class HYBFormat(SpMVFormat):
    """CUSP-style hybrid ELL + COO."""

    name = "hyb"

    def __init__(
        self,
        csr: CSRMatrix,
        ell_width: int,
        ell_real_nnz: int,
        coo_nnz: int,
        coo_rows_spanned: int,
        preprocess: PreprocessReport,
    ) -> None:
        self.csr = csr
        self.ell_width = ell_width
        self.ell_real_nnz = ell_real_nnz
        #: Overflow entries beyond column ``ell_width`` (the COO part).
        self.coo_nnz = coo_nnz
        #: Rows with at least one overflow entry.
        self.coo_rows_spanned = coo_rows_spanned
        self.preprocess = preprocess

    @classmethod
    def from_csr(cls, csr: CSRMatrix, *, width: int | None = None) -> "HYBFormat":
        """Build from CSR.

        Accepted kwargs: ``width`` — ELL slab width; ``None`` (default)
        applies the CUSP heuristic.  Unknown kwargs raise ``TypeError``.
        """
        k = hyb_ell_width(csr.nnz_per_row, csr.n_rows) if width is None else width
        ell_real = ell_real_nnz(csr, k)

        # Overflow: entries beyond position k of each row go to COO.
        over = np.maximum(csr.nnz_per_row - k, 0)
        total_over = int(over.sum())

        vb = csr.precision.value_bytes
        slots = csr.n_rows * k
        device_bytes = (
            slots * (vb + INDEX_BYTES)
            + total_over * (vb + 2 * INDEX_BYTES)
            + (csr.n_rows + csr.n_cols) * vb
        )
        stored = slots + total_over
        padding = 0.0 if stored == 0 else 1.0 - csr.nnz / stored
        report = PreprocessReport(
            format_name=cls.name,
            # Histogram pass + slab scatter/zero-fill + overflow extraction.
            host_s=DEFAULT_HOST.stream_time(csr.nnz + slots + csr.nnz + total_over),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            padding_fraction=padding,
            notes=f"k={k}, coo_nnz={total_over}",
        )
        return cls(
            csr,
            int(k),
            ell_real,
            total_over,
            int(np.count_nonzero(over)),
            report,
        )

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        works = hyb_kernel.works(
            self.n_rows,
            self.ell_width,
            self.ell_real_nnz,
            self.coo_nnz,
            self.coo_rows_spanned,
            device=device,
            n_cols=self.n_cols,
            precision=self.precision,
            profile=self.csr.gather_profile,
            k=k,
        )
        return works or [KernelWork.empty("hyb", self.precision)]
