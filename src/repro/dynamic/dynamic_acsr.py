"""DynamicACSR: the paper's headline use case as one object.

Section VII's workflow — keep a CSR matrix on the device, ship change
lists, update rows in place, re-bin incrementally, keep multiplying —
composed into a single mutable structure:

* a :class:`~repro.dynamic.dyncsr.DynCSR` holds the slack-row CSR data
  (the device mirror);
* an :class:`~repro.dynamic.rebin.IncrementalBinning` keeps the ACSR bin
  structure current, touching only updated rows;
* :meth:`apply_update` returns the modelled maintenance bill (change-list
  transfer + update kernel + incremental re-bin), the quantity the
  Figure 7 pipeline charges per epoch;
* :meth:`run_spmv` multiplies the *current* structure and times it
  through the standard ACSR driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.binning import Binning
from ..core.dispatch import ACSRPlan, build_plan, time_spmv
from ..core.parameters import ACSRParams
from ..formats.base import SpMVResult
from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec, GTX_TITAN
from ..gpu.simulator import simulate_kernel
from ..gpu.transfer import DEFAULT_LINK, PCIeLink
from ..kernels import update_kernel
from .dyncsr import DynCSR
from .rebin import IncrementalBinning, rebin_work
from .updates import UpdateBatch, apply_update


@dataclass(frozen=True)
class UpdateCost:
    """Modelled maintenance bill of one change-list application."""

    transfer_s: float
    update_kernel_s: float
    rebin_s: float
    n_updated_rows: int
    n_migrated_rows: int

    @property
    def total_s(self) -> float:
        return self.transfer_s + self.update_kernel_s + self.rebin_s


class DynamicACSR:
    """A mutable ACSR matrix for evolving graphs."""

    def __init__(
        self,
        dyn: DynCSR,
        params: ACSRParams | None = None,
        link: PCIeLink | None = None,
    ) -> None:
        self.dyn = dyn
        self.params = params or ACSRParams()
        self.link = link or DEFAULT_LINK
        self._rebinner = IncrementalBinning.from_lengths(dyn.row_len)
        self._plans: dict[str, ACSRPlan] = {}
        self._snapshot: CSRMatrix | None = None

    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        params: ACSRParams | None = None,
        slack: float = 0.3,
    ) -> "DynamicACSR":
        """Lay out the matrix with row slack and bin it."""
        return cls(DynCSR.from_csr(csr, slack=slack), params=params)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.dyn.n_rows

    @property
    def n_cols(self) -> int:
        return self.dyn.n_cols

    @property
    def nnz(self) -> int:
        return self.dyn.nnz

    def binning(self) -> Binning:
        return self._rebinner.snapshot()

    def initial_copy_cost_s(self) -> float:
        """One-time host->device copy of the full slack-CSR data."""
        return self.link.transfer_time_s(
            self.dyn.device_bytes(), n_transfers=3
        )

    # ------------------------------------------------------------------
    def apply_update(
        self, batch: UpdateBatch, device: DeviceSpec = GTX_TITAN
    ) -> UpdateCost:
        """Apply a change list: mutate rows, re-bin, return the bill."""
        # The update kernel's merge scan runs over each row's length
        # before the edit.
        pre_lengths = self.dyn.row_len[batch.rows]
        apply_update(self.dyn, batch)
        rb = self._rebinner.apply(batch.rows, self.dyn.row_len[batch.rows])

        transfer_s = self.link.transfer_time_s(
            batch.payload_bytes(self.dyn.precision.value_bytes),
            n_transfers=3,
        )
        upd = update_kernel.work(
            pre_lengths,
            batch.deletes_per_row(),
            batch.inserts_per_row(),
            self.dyn.precision,
            device,
        )
        update_s = simulate_kernel(device, upd).time_s
        rebin_s = simulate_kernel(
            device,
            rebin_work(rb.n_updated, rb.n_migrated, self.dyn.precision),
        ).time_s

        # Structure changed: drop cached plans and snapshot.
        self._plans.clear()
        self._snapshot = None
        return UpdateCost(
            transfer_s=transfer_s,
            update_kernel_s=update_s,
            rebin_s=rebin_s,
            n_updated_rows=rb.n_updated,
            n_migrated_rows=rb.n_migrated,
        )

    # ------------------------------------------------------------------
    def _csr(self) -> CSRMatrix:
        if self._snapshot is None:
            self._snapshot = self.dyn.to_csr()
        return self._snapshot

    def plan_for(self, device: DeviceSpec) -> ACSRPlan:
        plan = self._plans.get(device.name)
        if plan is None:
            csr = self._csr()
            plan = build_plan(
                self.binning(), self.params, device, mu=csr.mu
            )
            self._plans[device.name] = plan
        return plan

    def spmv_time_s(self, device: DeviceSpec) -> float:
        """Modelled SpMV time over the current structure."""
        return time_spmv(self._csr(), self.plan_for(device), device).time_s

    def run_spmv(self, x: np.ndarray, device: DeviceSpec) -> SpMVResult:
        """Exact product + modelled time via the ACSR driver."""
        csr = self._csr()
        x = np.asarray(x, dtype=self.dyn.precision.numpy_dtype)
        if x.shape != (csr.n_cols,):
            raise ValueError(f"x must have shape ({csr.n_cols},)")
        timing = time_spmv(csr, self.plan_for(device), device)
        return SpMVResult(
            y=csr.matvec(x),
            time_s=timing.time_s,
            timings=(timing.pool,),
            flops=2.0 * csr.nnz,
        )
