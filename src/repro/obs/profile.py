"""``nvprof``-style per-format profiling built on the counter layer.

:func:`profile_format` runs one (modelled) SpMV/SpMM of a format and
returns a :class:`FormatProfile`: per-launch counter sets, the aggregate,
and a :class:`RooflineVerdict` naming the limiting resource and the
headroom left on it.  The profile's totals are the *same floats* the
format's ``spmv_time_s`` / ``spmm_time_s`` return — profiling observes
the model, it never re-models.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.device import DeviceSpec
from .counters import CounterSet, aggregate, launch_counters, with_totals


@dataclass(frozen=True)
class RooflineVerdict:
    """Which roofline resource limits a launch set, and by how much."""

    #: ``compute`` | ``memory`` | ``latency`` | ``launch``.
    bound: str
    #: Human description of the limiting resource (with numbers).
    limiter: str
    #: Achieved fraction of the limiting resource's capacity.
    utilization: float
    #: ``1 - utilization`` (floored at 0): room left on the limiter.
    headroom: float

    def render(self) -> str:
        return (
            f"{self.bound}-bound — limited by {self.limiter} "
            f"({self.utilization:.1%} utilised, "
            f"{self.headroom:.1%} headroom)"
        )


def verdict_for(cs: CounterSet) -> RooflineVerdict:
    """Classify a counter set against the roofline.

    The bound is :attr:`CounterSet.bound` — the same max-of-terms rule
    ``KernelTiming.bound`` and every ``bound_summary()`` use, so the
    verdict can never contradict them.
    """
    bound = cs.bound
    if bound == "memory":
        limiter = (
            f"DRAM bandwidth: {cs.achieved_dram_gbps:.1f} of "
            f"{cs.peak_dram_gbps:.1f} GB/s peak"
        )
        utilization = cs.dram_bw_fraction
    elif bound == "compute":
        limiter = (
            f"SM issue throughput: {cs.gflops:.1f} of "
            f"{cs.peak_gflops:.0f} GFLOP/s peak (useful flops)"
        )
        utilization = cs.flop_fraction
    elif bound == "latency":
        limiter = (
            "DRAM latency on the critical warp "
            f"(achieved occupancy {cs.achieved_occupancy:.0%}, "
            f"warp efficiency {cs.warp_execution_efficiency:.0%})"
        )
        utilization = cs.achieved_occupancy
    else:  # launch
        limiter = (
            f"kernel-launch overhead across {cs.n_launches} launches"
        )
        utilization = cs.launch_overhead_share
    utilization = max(0.0, min(1.0, utilization))
    return RooflineVerdict(
        bound=bound,
        limiter=limiter,
        utilization=utilization,
        headroom=max(0.0, 1.0 - utilization),
    )


@dataclass(frozen=True)
class FormatProfile:
    """Counters + verdict for one format's SpMV/SpMM on one device."""

    format_name: str
    device: str
    k: int
    launches: tuple[CounterSet, ...]
    total: CounterSet
    verdict: RooflineVerdict
    #: The format's own modelled time — equal to ``total.time_s``.
    model_time_s: float
    matrix: str = ""
    notes: str = ""

    def render(self) -> str:
        """The nvprof-style table plus the roofline verdict."""
        title = self.format_name
        if self.matrix:
            title = f"{self.matrix} · {title}"
        title += f" · {self.device}"
        if self.k > 1:
            title += f" · k={self.k}"
        header = (
            f"{'Launch':<28} {'Time(us)':>9} {'Occ':>5} {'WEff':>5} "
            f"{'Coal':>5} {'Tex':>5} {'DRAM(KB)':>9} {'BW%':>6} "
            f"{'GFLOP/s':>8} {'FP%':>6} {'DP':>6}  Bound"
        )
        lines = [f"== profile: {title} ==", header, "-" * len(header)]
        for cs in (*self.launches, self.total):
            is_total = cs is self.total
            if is_total:
                lines.append("-" * len(header))
            tex = "-" if cs.tex_hit_rate is None else f"{cs.tex_hit_rate:.2f}"
            dp = (
                f"{cs.dp_children}"
                + (f"!{cs.dp_overflow}" if cs.dp_overflow else "")
                if cs.dp_children
                else "-"
            )
            lines.append(
                f"{cs.name[:28]:<28} {cs.time_s * 1e6:>9.2f} "
                f"{cs.achieved_occupancy:>5.2f} "
                f"{cs.warp_execution_efficiency:>5.2f} "
                f"{cs.gld_coalescing_ratio:>5.2f} {tex:>5} "
                f"{cs.dram_bytes / 1024.0:>9.1f} "
                f"{100 * cs.dram_bw_fraction:>6.1f} "
                f"{cs.gflops:>8.2f} {100 * cs.flop_fraction:>6.1f} "
                f"{dp:>6}  {cs.bound}"
            )
        lines.append("verdict: " + self.verdict.render())
        if self.notes:
            lines.append(f"({self.notes})")
        return "\n".join(lines)


def profile_format(
    fmt, device: DeviceSpec, *, k: int = 1, matrix: str = ""
) -> FormatProfile:
    """Profile one SpMV (``k=1``) or ``k``-wide SpMM of ``fmt``.

    Reads the format's :meth:`~repro.formats.base.SpMVFormat.modelled_run`:
    one counter set per ``(work, timing)`` pair.  A sequence totals its
    launches; a pooled run (ACSR) totals its one pool with the host
    launch bill and the overlapped enqueue.  Either way
    ``profile.total.time_s == fmt.spmm_time_s(device, k)`` exactly.
    """
    run = fmt.modelled_run(device, k=k)
    launches = tuple(
        launch_counters(
            device,
            w,
            t,
            dp_children=run.dp_children,
            dp_overflow=run.dp_overflow,
        )
        for w, t in run.launches
    )
    if run.pooled:
        total = with_totals(
            launches[0],
            time_s=run.time_s,
            launch_overhead_s=run.launch_s,
            n_launches=max(1, run.host_launches),
            name="total",
        )
        n_grids = run.host_launches - (1 if run.dp_children else 0)
        notes = (
            f"{n_grids} bin grids + {run.dp_children} DP child grids; "
            f"enqueue {run.enqueue_s * 1e6:.2f} us overlapped with the pool"
        )
    else:
        total = aggregate(launches, name="total")
        notes = f"{len(launches)} launches"
    return FormatProfile(
        format_name=fmt.name,
        device=device.name,
        k=k,
        launches=launches,
        total=total,
        verdict=verdict_for(total),
        model_time_s=run.time_s,
        matrix=matrix,
        notes=notes,
    )
