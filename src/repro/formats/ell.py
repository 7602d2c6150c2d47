"""ELLPACK format: a zero-padded dense slab, column-major on the device.

Every row is padded to the longest row's length (Section II).  On a
power-law matrix the padding explodes — a 1M-row matrix with one 10k-nnz
row stores 10 *billion* slots — so construction enforces a capacity guard
and raises :class:`FormatCapacityError`, the ``∅`` of the paper's tables.
Pure ELL is therefore only practical for low-variance matrices; its real
role here is as the regular half of HYB and BRC.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES
from ..gpu.kernel import KernelWork
from ..kernels import ell_kernel
from .base import (
    FormatCapacityError,
    PreprocessReport,
    SpMVFormat,
    transfer_report_s,
)
from .csr import CSRMatrix

#: Refuse to represent slabs above this many slots (padding explosion).
MAX_SLOTS = 200_000_000


def ell_real_nnz(csr: CSRMatrix, width: int) -> int:
    """Real (non-padding) entries an ELL slab of ``width`` columns holds.

    Rows longer than ``width`` contribute only their first ``width``
    entries (HYB routes the remainder to COO).  Raises
    :class:`FormatCapacityError` when the ``n_rows x width`` slab exceeds
    :data:`MAX_SLOTS`.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if csr.n_rows * width > MAX_SLOTS:
        raise FormatCapacityError(
            f"ELL slab of {csr.n_rows}x{width} exceeds the capacity guard"
        )
    return int(np.minimum(csr.nnz_per_row, width).sum())


class ELLFormat(SpMVFormat):
    """Pure ELLPACK: width = longest row."""

    name = "ell"

    def __init__(
        self,
        csr: CSRMatrix,
        width: int,
        real_nnz: int,
        preprocess: PreprocessReport,
    ) -> None:
        self.csr = csr
        self.width = width
        self.real_nnz = real_nnz
        self.preprocess = preprocess

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "ELLFormat":
        """Build from CSR.  Accepts no kwargs (width = longest row);
        unknown kwargs raise ``TypeError``."""
        width = csr.max_nnz_row
        real = ell_real_nnz(csr, width)
        vb = csr.precision.value_bytes
        slots = csr.n_rows * width
        device_bytes = slots * (vb + INDEX_BYTES) + (
            csr.n_rows + csr.n_cols
        ) * vb
        padding = 0.0 if slots == 0 else 1.0 - csr.nnz / slots
        report = PreprocessReport(
            format_name=cls.name,
            # Scatter every entry into the slab + zero-fill the padding.
            host_s=DEFAULT_HOST.stream_time(slots + csr.nnz),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            padding_fraction=padding,
            notes=f"width={width}",
        )
        return cls(csr, width, real, report)

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        return [
            ell_kernel.work(
                self.n_rows,
                self.width,
                self.real_nnz,
                device=device,
                n_cols=self.n_cols,
                precision=self.precision,
                profile=self.csr.gather_profile,
                k=k,
            )
        ]
