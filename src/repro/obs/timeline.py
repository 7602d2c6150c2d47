"""Timeline reconstruction: per-SM / per-lane Gantt views of a format.

The timing model already *knows* where every nanosecond goes — the
simulator computes per-SM loads and per-warp chains and then keeps only
their maxima.  This module rebuilds the full picture of one SpMV/SpMM
from the format's :meth:`~repro.formats.base.SpMVFormat.modelled_run`,
read-only:

* a :class:`Timeline` of :class:`Lane`\\s (a sequence's one stream, or
  ACSR's host launch bill, pool and DP enqueue window), each a list of
  placed :class:`LaneEvent`\\s;
* per-launch :class:`LaunchDetail` — the per-SM busy/idle split under
  round-robin placement, the tail-warp set and its skew statistics, and
  the DP child fan-out against the pending-launch cap.

**Exactness invariant.**  ``Timeline.time_s`` is the run's own
``time_s``, so the reconstructed critical path *is* the modelled time,
not an estimate.  Re-simulation only reads frozen works, so building a
timeline never changes a modelled time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.dynamic_parallelism import child_launch_split
from ..gpu.kernel import KernelWork
from ..gpu.simulator import (
    KernelTiming,
    sm_inst_loads,
    warp_chain_detail,
)
from .imbalance import tail_warp_count, tail_warp_share, warp_work_gini


@dataclass(frozen=True)
class LaneEvent:
    """One placed span on a timeline lane."""

    name: str
    start_s: float
    duration_s: float
    #: ``kernel`` | ``overhead`` | ``copy`` | ``sync``.
    category: str = "kernel"

    @property
    def end_s(self) -> float:
        """Where the span finishes on the timeline."""
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class Lane:
    """A horizontal row of the Gantt (a stream, a device, a window)."""

    label: str
    events: tuple[LaneEvent, ...]

    @property
    def end_s(self) -> float:
        """When the lane's last event finishes (0.0 when empty)."""
        return max((e.end_s for e in self.events), default=0.0)


@dataclass(frozen=True)
class LaunchDetail:
    """Per-launch lane detail the simulator computed but discarded.

    ``sm_busy_s`` is the compute time each SM spends on its dealt warps
    (round-robin placement, exactly the vector behind the busiest-SM
    bound); ``idle_s`` is each SM's gap to the busiest one — the white
    space of the per-SM Gantt.  Tail-warp statistics describe the skew
    that fills the ``tail_warp`` attribution term, and the DP fan-out
    splits child grids against the device's pending-launch cap.
    """

    name: str
    start_s: float
    duration_s: float
    sm_busy_s: tuple[float, ...]
    busiest_sm: int
    idle_s: tuple[float, ...]
    n_warps: int
    tail_warps: int
    tail_share: float
    gini: float
    #: Straggler warp's dependent chain (the latency bound), seconds.
    chain_max_s: float
    #: Mean warp's dependent chain, seconds.
    chain_mean_s: float
    dp_within: int = 0
    dp_overflow: int = 0

    def render(self, width: int = 40) -> str:
        """Per-SM busy bars for one launch (busiest SM marked ``*``)."""
        lines = [
            f"{self.name}: {self.n_warps} warps, "
            f"tail {self.tail_warps} warps / {self.tail_share:.1%} of work, "
            f"gini {self.gini:.3f}"
        ]
        if self.dp_within or self.dp_overflow:
            lines.append(
                f"  dp fan-out: {self.dp_within} within cap, "
                f"{self.dp_overflow} overflow"
            )
        peak = max(self.sm_busy_s, default=0.0)
        for s, busy in enumerate(self.sm_busy_s):
            frac = busy / peak if peak > 0 else 0.0
            bar = "#" * max(1 if busy > 0 else 0, int(round(width * frac)))
            mark = "*" if s == self.busiest_sm else " "
            lines.append(
                f"  SM{s:>3}{mark} {busy * 1e6:>9.3f} us |{bar:<{width}}|"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Timeline:
    """A reconstructed execution timeline of one timing model."""

    name: str
    device_name: str
    #: ``sequence`` | ``acsr`` (formats), ``serve-batch`` or ``trace``.
    source: str
    #: The reconstructed critical path — bit-identical to the modelled
    #: run's ``time_s``.
    time_s: float
    lanes: tuple[Lane, ...]
    details: tuple[LaunchDetail, ...] = ()
    #: Index into ``lanes`` of the lane the total time waits on.
    critical_lane: int = 0
    notes: str = field(default="", compare=False)

    def gantt(self, width: int = 64) -> str:
        """A one-screen text Gantt of the lanes."""
        span = max(self.time_s, max((ln.end_s for ln in self.lanes), default=0.0))
        lines = [
            f"timeline: {self.name} on {self.device_name} "
            f"({self.source}) — {self.time_s * 1e6:.3f} us"
        ]
        glyph = {"kernel": "#", "overhead": "o", "copy": "=", "sync": "~"}
        for i, lane in enumerate(self.lanes):
            row = [" "] * width
            for ev in lane.events:
                if span <= 0:
                    continue
                a = int(ev.start_s / span * (width - 1))
                b = max(a + 1, int(round(ev.end_s / span * (width - 1))) + 1)
                ch = glyph.get(ev.category, "#")
                for p in range(a, min(b, width)):
                    row[p] = ch
            mark = "*" if i == self.critical_lane else " "
            lines.append(f"  {lane.label:<14}{mark}|{''.join(row)}|")
        legend = "  (#=kernel o=launch ==copy ~=sync/enqueue, *=critical lane)"
        lines.append(legend)
        if self.notes:
            lines.append(f"  {self.notes}")
        return "\n".join(lines)


def launch_detail(
    device: DeviceSpec,
    work: KernelWork,
    timing: KernelTiming,
    *,
    start_s: float = 0.0,
    dp_children: int = 0,
) -> LaunchDetail:
    """Reconstruct the per-SM / tail-warp detail of one launch."""
    chain_cycles, counts, insts = warp_chain_detail(device, work)
    clock_hz = device.clock_ghz * 1e9
    if insts.size == 0:
        busy: tuple[float, ...] = ()
        idle: tuple[float, ...] = ()
        busiest = 0
        chain_max = 0.0
        chain_mean = 0.0
    else:
        loads = sm_inst_loads(insts, counts, device.num_sms)
        busy_arr = loads / device.warp_issue_rate / clock_hz
        busiest = int(np.argmax(busy_arr))
        idle_arr = busy_arr[busiest] - busy_arr
        busy = tuple(float(v) for v in busy_arr)
        idle = tuple(float(v) for v in idle_arr)
        chain_max = float(chain_cycles.max()) / clock_hz
        total_w = float(counts.sum())
        chain_mean = (
            float(np.sum(chain_cycles * counts)) / total_w / clock_hz
            if total_w > 0
            else 0.0
        )
    within, overflow = (
        child_launch_split(device, dp_children) if dp_children else (0, 0)
    )
    return LaunchDetail(
        name=timing.name,
        start_s=start_s,
        duration_s=timing.time_s,
        sm_busy_s=busy,
        busiest_sm=busiest,
        idle_s=idle,
        n_warps=work.n_warps,
        tail_warps=tail_warp_count(work),
        tail_share=tail_warp_share(work),
        gini=warp_work_gini(work),
        chain_max_s=chain_max,
        chain_mean_s=chain_mean,
        dp_within=within,
        dp_overflow=overflow,
    )


def _back_to_back(
    device: DeviceSpec, pairs, *, start_s: float = 0.0, dp_children: int = 0
):
    """Place ``(work, timing)`` pairs back to back from ``start_s``.

    Returns the lane's events, the launches' details and the body time:
    the left-to-right float sum of the timings, the same sum
    ``SequenceTiming.time_s`` performs.
    """
    events: list[LaneEvent] = []
    details: list[LaunchDetail] = []
    body = 0.0
    for w, t in pairs:
        start = start_s + body
        events.append(
            LaneEvent(name=t.name, start_s=start, duration_s=t.time_s)
        )
        details.append(
            launch_detail(device, w, t, start_s=start, dp_children=dp_children)
        )
        body += t.time_s
    return tuple(events), tuple(details), body


def timeline_from_format(fmt, device: DeviceSpec, *, k: int = 1) -> Timeline:
    """Rebuild one SpMV/SpMM of any registered format from its
    :meth:`~repro.formats.base.SpMVFormat.modelled_run`.

    A sequence's launches lie back to back on one stream.  A pooled run
    (ACSR) draws its host launch bill, then its pool, beside the DP
    child-enqueue window when it has children; the critical lane is the
    longer of pool and enqueue.  ``Timeline.time_s`` is the run's own
    ``time_s``, i.e. ``fmt.spmm_time_s(device, k)`` bit-for-bit.
    """
    run = fmt.modelled_run(device, k=k)
    events, details, body = _back_to_back(
        device, run.launches, start_s=run.launch_s, dp_children=run.dp_children
    )
    if run.pooled:
        bill = LaneEvent(
            name="launch-bill",
            start_s=0.0,
            duration_s=run.launch_s,
            category="overhead",
        )
        lanes = [
            Lane(label="host", events=(bill,)),
            Lane(label="pool", events=events),
        ]
        critical = 1
        if run.dp_children:
            enqueue = LaneEvent(
                name="child-enqueue",
                start_s=run.launch_s,
                duration_s=run.enqueue_s,
                category="sync",
            )
            lanes.append(Lane(label="dp-enqueue", events=(enqueue,)))
            if run.enqueue_s > body:
                critical = 2
        n_grids = run.host_launches - (1 if run.dp_children else 0)
        notes = f"{n_grids} bin grids + {run.dp_children} DP children"
        if run.dp_overflow:
            notes += f", {run.dp_overflow} past the launch cap"
    else:
        lanes = [Lane(label="stream 0", events=events)]
        critical = 0
        notes = ""
    return Timeline(
        name=fmt.name + (f"[k={k}]" if k > 1 else ""),
        device_name=device.name,
        source="acsr" if run.pooled else "sequence",
        time_s=run.time_s,
        lanes=tuple(lanes),
        details=details,
        critical_lane=critical,
        notes=notes,
    )
