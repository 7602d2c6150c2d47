"""Multi-GPU ACSR (Section VIII): per-bin halving across devices.

"The partitioning algorithm for ACSR is a simple division of each bin
among GPUs.  For two GPUs, we simply map half of the rows in each bin to
each device."  Because every bin is split evenly, each device receives an
equal share of *every* work class — short rows and tail rows alike — so
load balance holds for any device count.

The Tesla K10 (CC 3.0) cannot use dynamic parallelism, so the multi-GPU
path is binning-only; the long-tail bins are simply more bins ("by
extending the number of bins in the long tail, we can simulate the
behavior of ACSR with static/hard-coded parallelism").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.kernel import KernelWork
from ..gpu.multi import MultiGPUContext, MultiGPUTiming
from ..kernels import acsr_bin
from .acsr import ACSRFormat


def partition_bin_rows(rows: np.ndarray, n_devices: int) -> list[np.ndarray]:
    """Split one bin's rows evenly across devices (contiguous shares)."""
    if n_devices < 1:
        raise ValueError("need at least one device")
    rows = np.asarray(rows)
    return [np.array_split(rows, n_devices)[d] for d in range(n_devices)]


@dataclass(frozen=True)
class MultiGPUResult:
    """Numeric result and timing of a partitioned ACSR SpMV."""

    y: np.ndarray
    timing: MultiGPUTiming

    @property
    def time_s(self) -> float:
        return self.timing.time_s


def works_per_device(
    acsr: ACSRFormat, ctx: MultiGPUContext
) -> list[list[KernelWork]]:
    """Bin-specific kernel works for each device's share of each bin.

    Each device's bin grids launch on concurrent streams, so they are
    merged into a single pool per device (mirroring the single-GPU
    driver).
    """
    csr = acsr.csr
    per_device_bins: list[list[tuple[int, np.ndarray]]] = [
        [] for _ in range(ctx.n_devices)
    ]
    for b, rows in zip(acsr.binning.bin_ids, acsr.binning.rows_by_bin):
        shares = partition_bin_rows(rows, ctx.n_devices)
        for d, share in enumerate(shares):
            if share.size:
                per_device_bins[d].append((b, share))
    out: list[list[KernelWork]] = []
    for d in range(ctx.n_devices):
        if per_device_bins[d]:
            out.append(
                [
                    acsr_bin.pooled_work(
                        csr,
                        per_device_bins[d],
                        ctx.devices[d],
                        name=f"acsr-dev{d}",
                    )
                ]
            )
        else:
            out.append([KernelWork.empty(f"acsr-dev{d}", csr.precision)])
    return out


def spmv(
    acsr: ACSRFormat, x: np.ndarray, ctx: MultiGPUContext
) -> MultiGPUResult:
    """Partitioned ACSR SpMV: exact numerics + concurrent device timing.

    Every device's bin shares together cover each non-empty row once, so
    the combined result is the plain product :meth:`ACSRFormat.multiply`.
    """
    x = np.asarray(x, dtype=acsr.precision.numpy_dtype)
    if x.shape != (acsr.n_cols,):
        raise ValueError(f"x must have shape ({acsr.n_cols},)")
    timing = ctx.run(works_per_device(acsr, ctx))
    return MultiGPUResult(y=acsr.multiply(x), timing=timing)


def spmv_time_s(acsr: ACSRFormat, ctx: MultiGPUContext) -> float:
    """Modelled time only (no numeric execution)."""
    return ctx.run(works_per_device(acsr, ctx)).time_s
