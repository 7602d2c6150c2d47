"""COO format: coordinate triplets with a segmented-reduction kernel."""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES
from ..gpu.kernel import KernelWork
from ..kernels import coo_segmented
from .base import PreprocessReport, SpMVFormat, transfer_report_s
from .csr import CSRMatrix


class COOFormat(SpMVFormat):
    """Row/col/value triplets, row-major sorted (CUSP's COO)."""

    name = "coo"

    def __init__(self, csr: CSRMatrix, preprocess: PreprocessReport) -> None:
        self.csr = csr
        self.preprocess = preprocess
        #: Distinct row indices among the triplets: the non-empty rows.
        self.rows_spanned = int(np.count_nonzero(csr.nnz_per_row))

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "COOFormat":
        """Build from CSR.  Accepts no kwargs; unknown kwargs raise
        ``TypeError``."""
        vb = csr.precision.value_bytes
        device_bytes = (
            csr.nnz * (vb + 2 * INDEX_BYTES)
            + (csr.n_rows + csr.n_cols) * vb
        )
        report = PreprocessReport(
            format_name=cls.name,
            # One expansion pass over row_off -> row indices.
            host_s=DEFAULT_HOST.stream_time(csr.nnz),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            notes="row-index expansion only",
        )
        return cls(csr, report)

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        return [
            coo_segmented.work(
                self.nnz,
                self.rows_spanned,
                device=device,
                n_cols=self.n_cols,
                precision=self.precision,
                profile=self.csr.gather_profile,
                k=k,
            )
        ]
