"""CSR as an executable SpMV format (the paper's baseline).

Zero preprocessing beyond shipping the CSR arrays to the device — which is
exactly why the paper builds on it.  Three kernel variants are available:

* ``"cusparse"`` (default) — warp-per-row, as in cuSPARSE csrmv of the
  paper's era; this is the "CSR" bar of Figures 5 and 6.  On power-law
  heads a full warp serves each 1-3-nnz row, wasting both issue slots and
  memory sectors — the load-imbalance pathology ACSR attacks;
* ``"vector"`` — CUSP-style gang-per-row with the gang sized to the mean
  (warps span multiple rows when the average is small);
* ``"scalar"`` — the naive thread-per-row kernel, kept for ablations.

Not to be confused with :mod:`repro.formats.csr`, which holds the
:class:`~repro.formats.csr.CSRMatrix` *container* every format is built
from.  This module is the executable :class:`CSRFormat` — canonical names
for both are re-exported by :mod:`repro.formats`.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
from ..gpu.kernel import KernelWork
from ..kernels import csr_scalar, csr_vector
from .base import PreprocessReport, SpMVFormat, transfer_report_s
from .csr import CSRMatrix


class CSRFormat(SpMVFormat):
    """Executable wrapper around :class:`CSRMatrix`."""

    name = "csr"

    KERNELS = ("cusparse", "vector", "scalar")

    def __init__(self, csr: CSRMatrix, kernel: str = "cusparse") -> None:
        if kernel not in self.KERNELS:
            raise ValueError(f"kernel must be one of {self.KERNELS}")
        self.csr = csr
        self.kernel = kernel
        device_bytes = csr.device_bytes()
        self.preprocess = PreprocessReport(
            format_name=self.name,
            host_s=0.0,
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            notes=f"kernel={kernel}; no transformation required",
        )

    @classmethod
    def from_csr(cls, csr: CSRMatrix, *, kernel: str = "cusparse") -> "CSRFormat":
        """Build from CSR.

        Accepted kwargs: ``kernel`` — one of ``"cusparse"`` (warp-per-row,
        default), ``"vector"`` (mean-sized gangs), ``"scalar"``
        (thread-per-row).  Unknown kwargs raise ``TypeError``.
        """
        return cls(csr, kernel=kernel)

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        if self.kernel == "scalar":
            return [csr_scalar.work(self.csr, device, k=k)]
        if self.kernel == "cusparse":
            return [csr_vector.work(self.csr, device, vector_size=32, k=k)]
        return [csr_vector.work(self.csr, device, k=k)]
