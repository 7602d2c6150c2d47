"""The ACSR driver (Algorithm 1): plan, launch, time.

The driver partitions the occupied bins into

* **G2** — bins up to ``BinMax``: one bin-specific grid each
  (Algorithm 2), launched from the host;
* **G1** — every row of the bins above ``BinMax``: a single parent grid
  whose threads launch one row-specific child grid each (Algorithms 3/4),
  bounded by ``RowMax``.

``build_plan`` is the "first iteration" branch of Algorithm 1 (binning is
already done; this is the grouping); ``time_spmv`` models the launch loop.
The plan only shapes what the launches cost: every row still gets the
same dot product, which :meth:`repro.formats.csr.CSRMatrix.matvec`
computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec
from ..gpu.dynamic_parallelism import (
    DynamicParallelismUnsupported,
    child_launch_overhead_s,
    pending_launch_overflow,
)
from ..gpu.kernel import KernelWork, merge_concurrent
from ..gpu.simulator import KernelTiming, simulate_kernel
from ..kernels import acsr_bin, acsr_dp
from .binning import Binning
from .parameters import ACSRParams, ResolvedParams, resolve


@dataclass(frozen=True)
class ACSRPlan:
    """A device-resolved launch plan."""

    resolved: ResolvedParams
    #: ``(bin_index, rows)`` for every non-empty G2 bin.
    g2: tuple[tuple[int, np.ndarray], ...]
    #: Rows processed via dynamic parallelism (may be empty).
    g1_rows: np.ndarray

    @property
    def n_bin_grids(self) -> int:
        """Table V's *BS* column: bin-specific grids launched."""
        return len(self.g2)

    @property
    def n_row_grids(self) -> int:
        """Table V's *RS* column: row-specific (child) grids launched."""
        return int(self.g1_rows.shape[0])


def build_plan(
    binning: Binning,
    params: ACSRParams,
    device: DeviceSpec,
    mu: float = 0.0,
) -> ACSRPlan:
    """Partition bins into G1/G2 for one device (Algorithm 1's grouping)."""
    resolved = resolve(params, binning, device, mu=mu)
    g2 = []
    g1_parts = []
    for b, rows in zip(binning.bin_ids, binning.rows_by_bin):
        if b <= resolved.bin_max:
            g2.append((b, rows))
        else:
            g1_parts.append(rows)
    g1_rows = (
        np.sort(np.concatenate(g1_parts))
        if g1_parts
        else np.zeros(0, dtype=np.int64)
    )
    if g1_rows.shape[0] > resolved.row_max:
        raise AssertionError(
            "plan violates RowMax — parameter resolution is inconsistent"
        )
    return ACSRPlan(resolved=resolved, g2=tuple(g2), g1_rows=g1_rows)


@dataclass(frozen=True)
class ACSRTiming:
    """Modelled time of one ACSR SpMV.

    All of ACSR's grids are mutually independent: the G2 bin grids go out
    on concurrent streams and the DP parent launches alongside them, its
    children filling SMs as they are enqueued.  Everything therefore
    executes as ONE pool sharing the device.  Serial costs on top of the
    pool are the host launch bill (first launch full price, the rest
    pipelined) and — only if it exceeds the pool's runtime — the
    device-side child-enqueue stream.
    """

    #: The pooled execution (G2 bins + DP parent + DP children).
    pool: KernelTiming
    n_bin_grids: int
    n_row_grids: int
    #: Host-side launch overhead (bin grids + parent grid).
    launch_s: float
    #: Device-side child enqueue time (overlapped with the pool).
    enqueue_s: float
    #: Child launches beyond the device's pending-launch limit — each
    #: paid the overflow penalty (the profiler's DP-stall counter).
    dp_overflow: int = 0

    @property
    def time_s(self) -> float:
        return self.launch_s + max(self.pool.time_s, self.enqueue_s)


def bin_works(
    csr: CSRMatrix, plan: ACSRPlan, device: DeviceSpec, k: int = 1
) -> list[KernelWork]:
    """The G2 bin-specific kernel works, one per launch.

    Cached on the (frozen) plan per ``(matrix, device, k)``: a plan is
    device-resolved and immutable, and :class:`KernelWork` is frozen, so
    repeated evaluations (:meth:`ACSRFormat.kernel_works
    <repro.core.acsr.ACSRFormat.kernel_works>`, app iterations) reuse
    the launch list instead of re-deriving every bin's gang packing.
    ``k`` is the vector-block width of the batched (SpMM) path.
    """
    cache = getattr(plan, "_bin_works_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(plan, "_bin_works_cache", cache)
    key = (id(csr), device.name, k)
    works = cache.get(key)
    if works is None:
        works = [
            acsr_bin.work(csr, rows, b, device, k=k) for b, rows in plan.g2
        ]
        cache[key] = works
    return works


def dp_children_works(
    csr: CSRMatrix, plan: ACSRPlan, device: DeviceSpec, k: int = 1
) -> list[KernelWork]:
    """The G1 child works, cached on the plan like bin works.

    Returned as a single batched multi-entry work
    (:func:`repro.kernels.acsr_dp.children_batch_work`) wrapped in a
    list: every consumer merges the children into a pool, and the batch
    concatenates to byte-identical merged arrays while skipping the
    per-row Python loop.  Callers that need one work per row use
    :func:`repro.kernels.acsr_dp.children_works` directly.
    """
    cache = getattr(plan, "_dp_works_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(plan, "_dp_works_cache", cache)
    key = (id(csr), device.name, k)
    works = cache.get(key)
    if works is None:
        works = [
            acsr_dp.children_batch_work(
                csr, plan.g1_rows, plan.resolved.thread_load, device, k=k
            )
        ]
        cache[key] = works
    return works


def pooled_kernel_work(
    csr: CSRMatrix, plan: ACSRPlan, device: DeviceSpec, k: int = 1
) -> KernelWork:
    """The single pooled work of the serial ACSR model.

    G2 bin grids, the DP parent and the DP children all share the device
    as one warp pool (see :class:`ACSRTiming`); this is the exact work
    :func:`time_spmv` simulates, factored out so
    :meth:`ACSRFormat.modelled_run <repro.core.acsr.ACSRFormat.modelled_run>`
    can pair it with the pool timing for every view.

    Cached on the plan per ``(matrix, device, k)`` like the launch
    lists: the merged pool (and, via the simulator's canonical-form
    cache, its grouped entries) is reused by every replay — timelines,
    attribution, counters — instead of being re-merged per evaluation.
    """
    cache = getattr(plan, "_pooled_work_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(plan, "_pooled_work_cache", cache)
    key = (id(csr), device.name, k)
    pooled = cache.get(key)
    if pooled is not None:
        return pooled
    works: list[KernelWork] = []
    n_children = int(plan.g1_rows.shape[0])
    if plan.g2:
        works.append(acsr_bin.pooled_work(csr, list(plan.g2), device, k=k))
    if n_children:
        works.append(acsr_dp.parent_work(n_children, csr.precision))
        works.extend(dp_children_works(csr, plan, device, k=k))
    if works:
        pooled = works[0] if len(works) == 1 else merge_concurrent(
            works, name="acsr"
        )
    else:
        pooled = KernelWork.empty("acsr", csr.precision)
    cache[key] = pooled
    return pooled


def time_spmv(
    csr: CSRMatrix,
    plan: ACSRPlan,
    device: DeviceSpec,
    *,
    k: int = 1,
) -> ACSRTiming:
    """Model one ACSR SpMV: G2 grids, DP parent and children as one pool.

    ``k > 1`` models the batched (SpMM) launch: every data grid widens to
    ``k`` vectors while the DP *parent* stays a control-only ``k=1`` grid
    (it launches children, it touches no vector data).
    """
    n_children = int(plan.g1_rows.shape[0])
    if n_children and not device.supports_dynamic_parallelism:
        raise DynamicParallelismUnsupported(
            f"plan has a DP group but {device.name} lacks dynamic "
            "parallelism; build the plan for this device"
        )
    pooled = pooled_kernel_work(csr, plan, device, k=k)
    pool = simulate_kernel(device, pooled, include_launch_overhead=False)

    n_host_launches = len(plan.g2) + (1 if n_children else 0)
    launch_s = (
        device.kernel_launch_overhead_s
        + max(0, n_host_launches - 1) * device.pipelined_launch_overhead_s
    )
    enqueue_s = child_launch_overhead_s(device, n_children)
    return ACSRTiming(
        pool=pool,
        n_bin_grids=len(plan.g2),
        n_row_grids=n_children,
        launch_s=launch_s,
        enqueue_s=enqueue_s,
        dp_overflow=pending_launch_overflow(device, n_children),
    )
