"""Hardware-style counters derived from the simulator's own quantities.

On real GPUs, CUPTI/nvprof counters (achieved occupancy, gld efficiency,
tex hit rate, DRAM throughput) are the evidence behind every performance
claim; the paper's argument for ACSR — warp-level load balance, coalesced
streams, texture reuse — is made in exactly those terms.  This module
gives the simulator the same vocabulary.

**Coherence by construction.**  A :class:`CounterSet` is built by
:func:`launch_counters` from the *exact* ``(work, timing)`` pair one
:func:`~repro.gpu.simulator.simulate_kernel` call produced: every byte,
flop, and second in a counter is one the timing model already used, so
counters and timings can never disagree.  Derived ratios (``% of peak``)
only divide those quantities by the device's published peaks.

Counter definitions (see ``docs/simulator.md`` for the worked example):

* ``achieved_occupancy`` — resident warps per SM over the architectural
  maximum, exactly :attr:`KernelTiming.occupancy`.
* ``warp_execution_efficiency`` — mean per-warp instruction count over
  the busiest warp's count: 1.0 when every warp does identical work,
  small when one straggler (a power-law hub row) dominates.  This is the
  load-balance number ACSR's binning exists to raise.
* ``gld_coalescing_ratio`` — ideal payload bytes over modelled DRAM
  bytes: the fraction of moved traffic that was actually asked for.
  Sector waste, texture misses, and ELL padding all lower it.
* ``tex_hit_rate`` — the texture-cache hit rate the gather model used
  (``None`` when the launch declared no gather stream).
* ``dram_bw_fraction`` / ``flop_fraction`` — achieved over peak, the two
  roofline axes.
* ``dp_children`` / ``dp_overflow`` — dynamic-parallelism child grids
  enqueued, and how many exceeded the device's pending-launch budget
  (each overflow paid the 8x penalty of Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ..gpu.device import DeviceSpec, INDEX_BYTES
from ..gpu.kernel import KernelWork
from ..gpu.simulator import KernelTiming

#: Slack for float round-off when validating [0, 1] ratios.
_TOL = 1e-9


def _ratio(num: float, den: float, default: float = 0.0) -> float:
    return num / den if den > 0 else default


@dataclass(frozen=True)
class CounterSet:
    """One launch's (or one aggregate's) hardware-counter snapshot."""

    name: str
    device: str
    #: Host launches this set covers (1 for a single launch).
    n_launches: int
    #: Vector-block width (max across an aggregate).
    k: int
    # -- the timing model's own quantities, verbatim -------------------
    time_s: float
    launch_overhead_s: float
    compute_s: float
    memory_s: float
    critical_path_s: float
    dram_bytes: float
    flops: float
    n_warps: int
    # -- efficiency counters (all in [0, 1]) ---------------------------
    achieved_occupancy: float
    warp_execution_efficiency: float
    gld_coalescing_ratio: float
    tex_hit_rate: float | None
    # -- dynamic parallelism -------------------------------------------
    dp_children: int = 0
    dp_overflow: int = 0
    # -- device peaks (denominators for the % columns) -----------------
    peak_dram_gbps: float = 0.0
    peak_gflops: float = 0.0

    def __post_init__(self) -> None:
        for field_name in (
            "achieved_occupancy",
            "warp_execution_efficiency",
            "gld_coalescing_ratio",
        ):
            v = getattr(self, field_name)
            if not -_TOL <= v <= 1.0 + _TOL:
                raise ValueError(f"{field_name}={v} outside [0, 1]")
        if self.tex_hit_rate is not None and not (
            -_TOL <= self.tex_hit_rate <= 1.0 + _TOL
        ):
            raise ValueError("tex_hit_rate outside [0, 1]")
        if self.time_s < 0 or self.dram_bytes < 0 or self.flops < 0:
            raise ValueError("counter totals must be non-negative")
        if self.dp_overflow > self.dp_children:
            raise ValueError("dp_overflow cannot exceed dp_children")

    # -- derived ratios -------------------------------------------------
    @property
    def bound(self) -> str:
        """Roofline verdict — the same rule as ``KernelTiming.bound``."""
        body = self.time_s - self.launch_overhead_s
        if body <= 0:
            return "launch"
        terms = {
            "compute": self.compute_s,
            "memory": self.memory_s,
            "latency": self.critical_path_s,
        }
        return max(terms, key=terms.get)  # type: ignore[arg-type]

    @property
    def launch_overhead_share(self) -> float:
        """Fraction of total time spent in host launch overhead."""
        return min(1.0, _ratio(self.launch_overhead_s, self.time_s))

    @property
    def achieved_dram_gbps(self) -> float:
        return _ratio(self.dram_bytes, self.time_s) / 1e9

    @property
    def dram_bw_fraction(self) -> float:
        """Achieved DRAM bandwidth as a fraction of the device peak."""
        return _ratio(self.achieved_dram_gbps, self.peak_dram_gbps)

    @property
    def gflops(self) -> float:
        return _ratio(self.flops, self.time_s) / 1e9

    @property
    def flop_fraction(self) -> float:
        """Achieved flop rate as a fraction of the device peak."""
        return _ratio(self.gflops, self.peak_gflops)


def _warp_execution_efficiency(work: KernelWork) -> float:
    """Mean per-warp instructions over the busiest warp's instructions."""
    if work.n_entries == 0:
        return 1.0
    insts = np.asarray(work.compute_insts, dtype=np.float64)
    peak = float(insts.max())
    if peak <= 0:
        return 1.0
    weights = work._weights()
    mean = float(np.sum(insts * weights) / np.sum(weights))
    return min(1.0, mean / peak)


def _useful_bytes_estimate(work: KernelWork) -> float:
    """Fallback ideal payload when a kernel declared no hints.

    ``flops / (2k)`` recovers the element count of an SpMV-shaped launch;
    each element's value + index moving once is the floor any kernel must
    pay.  Kernels with richer knowledge attach
    :class:`~repro.gpu.kernel.CounterHints` instead.
    """
    elements = work.flops / (2.0 * max(1, work.k))
    return elements * (work.precision.value_bytes + INDEX_BYTES)


def _coalescing_ratio(work: KernelWork, dram_bytes: float) -> float:
    if dram_bytes <= 0:
        return 1.0
    if work.hints is not None and work.hints.useful_bytes is not None:
        useful = work.hints.useful_bytes
    else:
        useful = _useful_bytes_estimate(work)
        if useful <= 0:
            # A launch that moves bytes but declares no flops and no
            # hints (pure control/copy work): nothing to waste against.
            return 1.0
    return max(0.0, min(1.0, useful / dram_bytes))


def launch_counters(
    device: DeviceSpec,
    work: KernelWork,
    timing: KernelTiming,
    *,
    dp_children: int = 0,
    dp_overflow: int = 0,
) -> CounterSet:
    """The :class:`CounterSet` of one simulated launch.

    ``work`` and ``timing`` must be the pair one ``simulate_kernel`` call
    consumed and produced — every counter is read straight off them.
    """
    return CounterSet(
        name=timing.name,
        device=device.name,
        n_launches=1,
        k=timing.k,
        time_s=timing.time_s,
        launch_overhead_s=timing.launch_overhead_s,
        compute_s=timing.compute_s,
        memory_s=timing.memory_s,
        critical_path_s=timing.critical_path_s,
        dram_bytes=timing.dram_bytes,
        flops=work.flops,
        n_warps=timing.n_warps,
        achieved_occupancy=min(1.0, timing.occupancy),
        warp_execution_efficiency=_warp_execution_efficiency(work),
        gld_coalescing_ratio=_coalescing_ratio(work, timing.dram_bytes),
        tex_hit_rate=(
            work.hints.tex_hit_rate if work.hints is not None else None
        ),
        dp_children=dp_children,
        dp_overflow=dp_overflow,
        peak_dram_gbps=device.dram_bandwidth_gbps,
        peak_gflops=device.flop_rate(work.precision) / 1e9,
    )


def _weighted_mean(
    pairs: Sequence[tuple[float, float]], default: float
) -> float:
    """Mean of ``(value, weight)`` pairs; simple mean when weights vanish."""
    total = sum(w for _, w in pairs)
    if total > 0:
        return sum(v * w for v, w in pairs) / total
    if pairs:
        return sum(v for v, _ in pairs) / len(pairs)
    return default


def aggregate(sets: Iterable[CounterSet], name: str = "total") -> CounterSet:
    """Roll launches up into one :class:`CounterSet`.

    Totals (time, bytes, flops, warps, launches, DP counts) sum;
    occupancy and warp-execution efficiency are time-weighted means (a
    long launch's utilisation matters more than a blip's); coalescing and
    texture hit rate are DRAM-traffic-weighted (they describe bytes, not
    seconds).  Works across a sequence, the per-device halves of a
    multi-GPU run, or a k-wide SpMM batch alike.
    """
    items = list(sets)
    if not items:
        raise ValueError("cannot aggregate an empty counter list")
    devices = []
    for cs in items:
        if cs.device not in devices:
            devices.append(cs.device)
    rated = [cs for cs in items if cs.tex_hit_rate is not None]
    return CounterSet(
        name=name,
        device="+".join(devices),
        n_launches=sum(cs.n_launches for cs in items),
        k=max(cs.k for cs in items),
        time_s=sum(cs.time_s for cs in items),
        launch_overhead_s=sum(cs.launch_overhead_s for cs in items),
        compute_s=sum(cs.compute_s for cs in items),
        memory_s=sum(cs.memory_s for cs in items),
        critical_path_s=sum(cs.critical_path_s for cs in items),
        dram_bytes=sum(cs.dram_bytes for cs in items),
        flops=sum(cs.flops for cs in items),
        n_warps=sum(cs.n_warps for cs in items),
        achieved_occupancy=min(
            1.0,
            _weighted_mean(
                [(cs.achieved_occupancy, cs.time_s) for cs in items], 0.0
            ),
        ),
        warp_execution_efficiency=min(
            1.0,
            _weighted_mean(
                [(cs.warp_execution_efficiency, cs.time_s) for cs in items],
                1.0,
            ),
        ),
        gld_coalescing_ratio=min(
            1.0,
            _weighted_mean(
                [(cs.gld_coalescing_ratio, cs.dram_bytes) for cs in items],
                1.0,
            ),
        ),
        tex_hit_rate=(
            min(
                1.0,
                _weighted_mean(
                    [(cs.tex_hit_rate, cs.dram_bytes) for cs in rated], 0.0
                ),
            )
            if rated
            else None
        ),
        dp_children=sum(cs.dp_children for cs in items),
        dp_overflow=sum(cs.dp_overflow for cs in items),
        peak_dram_gbps=_weighted_mean(
            [(cs.peak_dram_gbps, cs.time_s) for cs in items],
            items[0].peak_dram_gbps,
        ),
        peak_gflops=_weighted_mean(
            [(cs.peak_gflops, cs.time_s) for cs in items],
            items[0].peak_gflops,
        ),
    )


def with_totals(
    cs: CounterSet,
    *,
    time_s: float | None = None,
    launch_overhead_s: float | None = None,
    n_launches: int | None = None,
    name: str | None = None,
) -> CounterSet:
    """A copy of ``cs`` with selected totals overridden.

    Used by timing models whose total is *not* a plain sum of launches
    (ACSR's pool + overlapped enqueue) so the aggregate's ``time_s``
    matches the model's verdict.
    """
    changes: dict = {}
    if time_s is not None:
        changes["time_s"] = time_s
    if launch_overhead_s is not None:
        changes["launch_overhead_s"] = launch_overhead_s
    if n_launches is not None:
        changes["n_launches"] = n_launches
    if name is not None:
        changes["name"] = name
    return replace(cs, **changes) if changes else cs
