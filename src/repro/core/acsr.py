"""ACSR — the paper's contribution, packaged as an :class:`SpMVFormat`.

An :class:`ACSRFormat` *is* a CSR matrix plus bin metadata: no data
movement, no padding, no reformatting.  Its preprocessing bill is the
device-side binning scan (a few SpMV-equivalents — Figure 4's ACSR bar),
and its SpMV is the Algorithm 1 driver: bin-specific grids for G2 and a
dynamic-parallelism parent for the long-tail G1 when the device supports
it.

Because the G1/G2 split depends on the device, launch plans are resolved
lazily per device and cached.
"""

from __future__ import annotations

from ..formats.base import (
    ModelledRun,
    PreprocessReport,
    SpMVFormat,
    check_width,
)
from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec, GTX_TITAN
from ..gpu.kernel import KernelWork, merge_concurrent
from ..gpu.simulator import simulate_kernel
from ..kernels import acsr_dp
from .binning import Binning, binning_scan_work, compute_binning
from .dispatch import (
    ACSRPlan,
    ACSRTiming,
    bin_works,
    build_plan,
    dp_children_works,
    pooled_kernel_work,
    time_spmv,
)
from .parameters import ACSRParams


#: One pooled cudaMalloc for the bin row-index storage (the histogram
#: pass exists precisely so a single allocation suffices) plus stream
#: setup.
POOLED_ALLOC_OVERHEAD_S = 5.0e-5


class ACSRFormat(SpMVFormat):
    """Adaptive CSR: binning + (optional) dynamic parallelism."""

    name = "acsr"

    def __init__(
        self,
        csr: CSRMatrix,
        binning: Binning,
        params: ACSRParams,
        preprocess: PreprocessReport,
    ) -> None:
        self.csr = csr
        self.binning = binning
        self.params = params
        self.preprocess = preprocess
        self._plans: dict[tuple[str, ACSRParams], ACSRPlan] = {}
        self._timings: dict[tuple[str, ACSRParams, int], ACSRTiming] = {}

    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        *,
        params: ACSRParams | None = None,
        device: DeviceSpec = GTX_TITAN,
    ) -> "ACSRFormat":
        """Bin the rows and price the scan on ``device``.

        Accepted kwargs: ``params`` — :class:`ACSRParams` overriding the
        paper's defaults (default: ``ACSRParams()``); ``device`` — the GPU
        the binning scan is priced on (default GTX TITAN).  Unknown kwargs
        raise ``TypeError``.
        """
        params = params or ACSRParams()
        binning = compute_binning(csr.nnz_per_row)
        # Two passes over the row lengths (histogram, then bucketed
        # scatter of row ids into one pooled allocation) plus the trivial
        # host-side G1/G2 grouping.
        scan = binning_scan_work(csr.n_rows, csr.precision)
        device_s = (
            2.0 * simulate_kernel(device, scan).time_s
            + POOLED_ALLOC_OVERHEAD_S
        )
        report = PreprocessReport(
            format_name=cls.name,
            host_s=1e-6 * binning.n_bins,  # G1/G2 grouping on the host
            transfer_s=0.0,  # CSR data is already resident; bins are built on device
            device_s=device_s,
            device_bytes=csr.device_bytes() + csr.n_rows * 4,
            notes=f"bins={binning.n_bins}, scan on {device.name}",
        )
        return cls(csr, binning, params, report)

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def plan_for(self, device: DeviceSpec) -> ACSRPlan:
        """The device-resolved G1/G2 launch plan (cached)."""
        key = (device.name, self.params)
        plan = self._plans.get(key)
        if plan is None:
            plan = build_plan(
                self.binning, self.params, device, mu=self.csr.mu
            )
            self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # SpMVFormat interface
    # ------------------------------------------------------------------
    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        """All launches of one SpMV (children merged as one concurrent pool).

        Used by generic tooling; note a back-to-back sequence of these
        launches is not ACSR's time — :meth:`modelled_run` (and so every
        entry point and view) goes through the DP-aware pooled model.
        ``k > 1`` widens the data grids to the batched (SpMM) variant; the
        DP parent is control-only and stays ``k=1``.
        """
        plan = self.plan_for(device)
        works = list(bin_works(self.csr, plan, device, k=k))
        if plan.g1_rows.size:
            works.append(
                acsr_dp.parent_work(int(plan.g1_rows.shape[0]), self.precision)
            )
            works.append(
                merge_concurrent(
                    dp_children_works(self.csr, plan, device, k=k),
                    name="acsr-dp-children",
                )
            )
        if not works:
            works = [KernelWork.empty("acsr", self.precision)]
        return works

    def timing(self, device: DeviceSpec, k: int = 1) -> ACSRTiming:
        """Full ACSR timing breakdown on ``device`` (cached per device/k)."""
        key = (device.name, self.params, k)
        timing = self._timings.get(key)
        if timing is None:
            timing = time_spmv(self.csr, self.plan_for(device), device, k=k)
            self._timings[key] = timing
        return timing

    def modelled_run(self, device: DeviceSpec, k: int = 1) -> ModelledRun:
        """One SpMV/SpMM through the DP-aware model: the pooled work and
        its pool timing behind the host launch bill, beside the child
        enqueue window (:class:`~repro.core.dispatch.ACSRTiming`).

        ``k=1`` reuses the cached single-vector timing, so
        ``spmm_time_s(device, 1)`` is byte-identical to
        :meth:`spmv_time_s`.
        """
        k = check_width(k)
        timing = self.timing(device, k=k)
        plan = self.plan_for(device)
        pooled = pooled_kernel_work(self.csr, plan, device, k=k)
        return ModelledRun(
            launches=((pooled, timing.pool),),
            time_s=timing.time_s,
            launch_s=timing.launch_s,
            host_launches=timing.n_bin_grids + int(timing.n_row_grids > 0),
            enqueue_s=timing.enqueue_s,
            dp_children=timing.n_row_grids,
            dp_overflow=timing.dp_overflow,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def grid_counts(self, device: DeviceSpec) -> tuple[int, int]:
        """Table V's ``(BS, RS)``: bin-specific and row-specific grids."""
        plan = self.plan_for(device)
        return (plan.n_bin_grids, plan.n_row_grids)
