"""DynamicACSR: the paper's headline use case as one object.

Section VII's workflow — keep a CSR matrix on the device, ship change
lists, update rows in place, re-bin incrementally, keep multiplying —
composed into a single mutable structure:

* a :class:`~repro.dynamic.dyncsr.DynCSR` holds the slack-row CSR data
  (the device mirror);
* an :class:`~repro.dynamic.rebin.IncrementalBinning` keeps the ACSR bin
  structure current, touching only updated rows;
* :meth:`apply_update` returns the modelled maintenance bill (change-list
  transfer + update kernel + incremental re-bin) from
  :func:`price_update`, the one function the Figure 7 pipeline also
  charges its ACSR epochs with;
* :meth:`run_spmv` multiplies the *current* structure and times it
  through the standard ACSR driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.binning import Binning
from ..core.dispatch import ACSRPlan, build_plan, time_spmv
from ..core.parameters import ACSRParams
from ..formats.base import SpMVResult
from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec, GTX_TITAN, Precision
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
    #: Seconds the update adds to the device timeline: the three parts
    #: back to back or, when the change-list copy overlaps earlier
    #: iterations, only the overhang past them.
    total_s: float


def price_update(
    batch: UpdateBatch,
    pre_lengths: np.ndarray,
    post_lengths: np.ndarray,
    rebinner: IncrementalBinning,
    precision: Precision,
    device: DeviceSpec,
    link: PCIeLink = DEFAULT_LINK,
    overlap_s: float | None = None,
) -> UpdateCost:
    """Re-bin the updated rows and bill one change list on the device.

    The bill has three parts: the change-list H2D copy, the update
    kernel's merge scan over each updated row's length *before* the edit
    (``pre_lengths``), and the incremental re-bin of the rows now
    ``post_lengths`` long (``rebinner`` moves them).  Back to back,
    ``total_s`` is ``transfer + update + rebin``.  With ``overlap_s``
    (the previous epoch's iteration seconds) the copy runs on its own
    DMA channel under those iterations and both kernels start once the
    later of the two is done, so ``total_s`` is only the overhang past
    them.
    """
    if overlap_s is not None and not (
        math.isfinite(overlap_s) and overlap_s >= 0
    ):
        raise ValueError(
            f"overlap must be finite and non-negative, got {overlap_s!r}"
        )
    rb = rebinner.apply(batch.rows, post_lengths)
    upd = update_kernel.work(
        pre_lengths,
        batch.deletes_per_row(),
        batch.inserts_per_row(),
        precision,
        device,
    )
    rbw = rebin_work(rb.n_updated, rb.n_migrated, precision)
    payload = batch.payload_bytes(precision.value_bytes)
    transfer_s = link.transfer_time_s(payload, n_transfers=3)
    update_s = simulate_kernel(device, upd).time_s
    rebin_s = simulate_kernel(device, rbw).time_s
    if overlap_s is None:
        total_s = transfer_s + update_s + rebin_s
    else:
        # The kernels wait for the later of the copy and the earlier
        # iterations.  That max is taken as first finish plus the other's
        # remainder (ties within 1e-15 s count as one finish), and the
        # overhang as a running sum minus ``overlap_s``: the Figure 7
        # maintenance bills are pinned bit for bit in this float order,
        # and a plain ``max`` differs from it in the last bit.
        first = min(overlap_s, transfer_s)
        rest = max(overlap_s, transfer_s) - first
        ready = first + rest if rest > 1e-15 else first
        total_s = ((ready + update_s) + rebin_s) - overlap_s
    return UpdateCost(
        transfer_s=transfer_s,
        update_kernel_s=update_s,
        rebin_s=rebin_s,
        n_updated_rows=rb.n_updated,
        n_migrated_rows=rb.n_migrated,
        total_s=total_s,
    )


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
        pre_lengths = self.dyn.row_len[batch.rows]
        apply_update(self.dyn, batch)
        # Structure changed: drop cached plans and snapshot.
        self._plans.clear()
        self._snapshot = None
        return price_update(
            batch,
            pre_lengths,
            self.dyn.row_len[batch.rows],
            self._rebinner,
            self.dyn.precision,
            device,
            self.link,
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
