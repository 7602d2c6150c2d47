"""Event-driven stream execution engine: concurrency for the simulator.

The roofline scheduler (:mod:`repro.gpu.simulator`) times one launch at a
time; :func:`simulate_sequence` sums launches back to back.  Real CUDA
programs rarely run that way: kernels on different streams co-reside on
the device, H2D copies overlap compute on their own DMA engine, and
events order work across streams.  This module models exactly those
semantics, deterministically:

* :class:`Stream` — an in-order queue of operations (kernel launches,
  PCIe copies, fixed-duration spans, event records/waits) bound to one
  device of the engine.  Like a ``cudaStream_t``, operations on one
  stream serialise; operations on different streams overlap unless
  ordered by an :class:`Event`.
* :class:`Event` — a cross-stream dependency: ``record()`` on the
  producing stream, ``wait()`` on every consumer.
* :class:`StreamEngine` — a discrete-event scheduler that advances
  modelled time across all streams and devices and records every
  operation's *true* placement; :meth:`EngineResult.chrome_trace` draws
  those records for ``chrome://tracing`` / Perfetto.

Concurrency model
-----------------

**Kernels.**  Each launch is first timed standalone by the roofline
simulator; from that timing the engine derives a *device utilisation*
``u`` in (0, 1] — the largest of its DRAM-bandwidth share (achieved
fraction of peak via :func:`~repro.gpu.memory.bandwidth_efficiency`),
its SM issue-slot share, and its warp-slot residency (occupancy).  While
a set of kernels is co-resident on a device, if their utilisations sum
to ``U > 1`` every resident grid progresses at rate ``1/U``
(processor sharing); at ``U <= 1`` they overlap for free.  This is the
first-order behaviour of concurrent grids on hardware: small grids that
under-occupy the device hide each other's latency, saturating grids
serialise.

**Copies.**  Each device has two independent DMA channels (H2D, D2H).
Copies in the same direction serialise FIFO; opposite directions and
kernels overlap fully — the classic copy/compute overlap that makes
change-list shipping (Section VII) nearly free.

**Dynamic parallelism.**  A launch may declare ``dp_children``; its
device-side enqueue time runs concurrent with its body
(``duration = max(body, enqueue)``).  The engine tracks the pending
child launches of co-resident grids against the device's
``pending_launch_limit``: children enqueued beyond the remaining budget
pay the 8x overflow penalty, so two DP grids that individually fit can
still trip the cliff together.

Everything is deterministic: ties are broken by stream creation order,
and no wall clock or RNG is consulted anywhere.

Three programs run on the engine: the multi-GPU board
(:meth:`repro.gpu.multi.MultiGPUContext.run`), the dynamic pipeline's
change-list copy under the previous epoch's iterations
(:func:`repro.dynamic.dynamic_acsr.price_update`), and the serve run's
worker replay behind ``repro serve-sim --trace``
(:func:`repro.serve.scheduler.replay_engine`).  A single-device ACSR
SpMV is not one of them: it is one pooled launch
(:func:`repro.core.dispatch.time_spmv`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .device import DeviceSpec
from .dynamic_parallelism import CONCURRENT_LAUNCH_WAYS, OVERFLOW_PENALTY
from .kernel import KernelWork
from .memory import bandwidth_efficiency
from .simulator import KernelTiming, simulate_kernel
from .transfer import DEFAULT_LINK, PCIeLink

#: Completion slack for float accumulation in the event loop, seconds.
_EPS_S = 1e-15


def label_with_k(name: str, k: int) -> str:
    """Suffix a launch name with its vector-block width when batched.

    ``csr_vector`` at ``k=8`` renders as ``csr_vector[k=8]`` so batched
    (SpMM) and scalar launches are distinguishable at a glance in
    ``chrome://tracing``.  ``k == 1`` launches keep their plain name.
    """
    if k > 1 and f"[k={k}]" not in name:
        return f"{name}[k={k}]"
    return name


class CopyDirection(enum.Enum):
    """PCIe transfer direction; each direction is an independent channel."""

    H2D = "h2d"
    D2H = "d2h"


class Event:
    """A recordable cross-stream dependency (``cudaEvent_t``)."""

    __slots__ = ("label", "index", "engine")

    def __init__(self, label: str, index: int, engine: "StreamEngine") -> None:
        self.label = label
        self.index = index
        self.engine = engine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.label!r})"


@dataclass
class _Op:
    """One queued operation (internal)."""

    kind: str  # "launch" | "span" | "copy" | "record" | "wait"
    name: str
    work: KernelWork | None = None
    include_launch_overhead: bool = True
    launch_overhead_s: float | None = None
    dp_children: int = 0
    duration_s: float = 0.0  # spans and copies
    utilization: float = 1.0  # spans
    n_bytes: float = 0.0
    n_transfers: int = 1
    direction: CopyDirection = CopyDirection.H2D
    event: Event | None = None


class Stream:
    """An in-order operation queue on one device of a :class:`StreamEngine`.

    All enqueue methods return ``self`` so programs chain naturally::

        s.copy("x-h2d", nbytes).launch(work)
    """

    def __init__(
        self, engine: "StreamEngine", index: int, device_index: int, name: str
    ) -> None:
        self.engine = engine
        self.index = index
        self.device_index = device_index
        self.name = name
        self.ops: list[_Op] = []

    # -- enqueue --------------------------------------------------------
    def launch(
        self,
        work: KernelWork,
        *,
        include_launch_overhead: bool = True,
        launch_overhead_s: float | None = None,
        dp_children: int = 0,
        label: str | None = None,
    ) -> "Stream":
        """Enqueue one kernel launch."""
        if dp_children < 0:
            raise ValueError("child count must be non-negative")
        self.ops.append(
            _Op(
                kind="launch",
                name=label or work.name,
                work=work,
                include_launch_overhead=include_launch_overhead,
                launch_overhead_s=launch_overhead_s,
                dp_children=dp_children,
            )
        )
        return self

    def span(
        self, name: str, duration_s: float, *, utilization: float = 1.0
    ) -> "Stream":
        """Enqueue fixed-duration device work (an already-timed phase).

        ``utilization`` is the device share the span holds while running
        (1.0 = saturating; 0.0 = host-side, contends with nothing).
        """
        if duration_s < 0:
            raise ValueError("span duration must be non-negative")
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        self.ops.append(
            _Op(
                kind="span",
                name=name,
                duration_s=duration_s,
                utilization=utilization,
            )
        )
        return self

    def copy(
        self,
        name: str,
        n_bytes: int | float,
        *,
        direction: CopyDirection = CopyDirection.H2D,
        n_transfers: int = 1,
    ) -> "Stream":
        """Enqueue a PCIe copy on this stream's device."""
        self.ops.append(
            _Op(
                kind="copy",
                name=name,
                n_bytes=float(n_bytes),
                n_transfers=n_transfers,
                direction=direction,
            )
        )
        return self

    def record(self, label: str | None = None) -> Event:
        """Record an event that completes when all prior ops here finish."""
        ev = self.engine._new_event(label or f"{self.name}-ev")
        self.ops.append(_Op(kind="record", name=ev.label, event=ev))
        return ev

    def wait(self, event: Event) -> "Stream":
        """Block this stream until ``event`` has been recorded."""
        if event.engine is not self.engine:
            raise ValueError(
                f"event {event.label!r} belongs to a different engine"
            )
        self.ops.append(_Op(kind="wait", name=event.label, event=event))
        return self


@dataclass(frozen=True)
class OpRecord:
    """One scheduled operation with its true placement on the timeline."""

    name: str
    kind: str  # "kernel" | "copy" | "span"
    stream: int
    device: int
    start_s: float
    end_s: float
    #: Standalone roofline timing (kernels only); its ``time_s`` is the
    #: exclusive-device duration, which co-residency may stretch.
    timing: KernelTiming | None = None
    #: Start order of the op within its engine run; breaks finish-time
    #: ties in :meth:`EngineResult.chrome_trace`.
    op_id: int = -1

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def stretched(self) -> bool:
        """Whether resource sharing slowed this op below its solo rate."""
        if self.timing is None:
            return False
        return self.duration_s > self.timing.time_s * (1.0 + 1e-9)


@dataclass(frozen=True)
class EngineResult:
    """The outcome of one :meth:`StreamEngine.run`."""

    records: tuple[OpRecord, ...]
    duration_s: float
    #: The engine's device registry (names the trace's ``pid`` lanes).
    devices: tuple[DeviceSpec, ...]

    def kernel_records(self, device: int | None = None) -> tuple[OpRecord, ...]:
        return tuple(
            r
            for r in self.records
            if r.kind == "kernel" and (device is None or r.device == device)
        )

    def chrome_trace(self) -> dict:
        """The run as a Chrome/Perfetto ``traceEvents`` document.

        One complete (``"ph": "X"``) event per record, in finish order
        (``end_s``, ties by start order), placed at the record's true
        start: ``ts``/``dur`` in microseconds, ``pid`` the device (its
        name, suffixed ``#index`` on a multi-device engine), ``tid`` the
        stream.  Kernel events carry their roofline verdict and
        ``"shared": True`` when co-residency stretched them.
        """
        pids = [
            d.name if len(self.devices) == 1 else f"{d.name}#{i}"
            for i, d in enumerate(self.devices)
        ]
        events = []
        for r in sorted(self.records, key=lambda r: (r.end_s, r.op_id)):
            name, args = r.name, {}
            if r.timing is not None:
                name = label_with_k(r.name, r.timing.k)
                args = {
                    "bound": r.timing.bound,
                    "warps": r.timing.n_warps,
                    "dram_bytes": r.timing.dram_bytes,
                    "occupancy": round(r.timing.occupancy, 3),
                    "k": r.timing.k,
                }
                if r.stretched:
                    args["shared"] = True
            events.append(
                {
                    "name": name,
                    "cat": r.kind,
                    "ph": "X",
                    "ts": r.start_s * 1e6,
                    "dur": r.duration_s * 1e6,
                    "pid": pids[r.device],
                    "tid": f"stream {r.stream}",
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ns"}


@dataclass(eq=False)
class _Running:
    """An in-flight op (internal engine state; identity equality so the
    scheduler's bookkeeping never compares payload arrays)."""

    op: _Op
    stream: int
    device: int
    start_s: float
    remaining_s: float
    utilization: float
    timing: KernelTiming | None = None
    channel: tuple[int, CopyDirection] | None = None
    category: str = "kernel"
    op_id: int = -1


class StreamEngine:
    """Deterministic scheduler for streams across one or more devices."""

    def __init__(
        self,
        devices: DeviceSpec | tuple[DeviceSpec, ...] | list[DeviceSpec],
        link: PCIeLink = DEFAULT_LINK,
    ) -> None:
        if isinstance(devices, DeviceSpec):
            devices = (devices,)
        if not devices:
            raise ValueError("need at least one device")
        self.devices: tuple[DeviceSpec, ...] = tuple(devices)
        self.link = link
        self.streams: list[Stream] = []
        self._n_events = 0

    # -- construction ---------------------------------------------------
    def stream(self, device: int = 0, name: str | None = None) -> Stream:
        """Create a new stream bound to device ``device``."""
        if not 0 <= device < len(self.devices):
            raise ValueError(
                f"device index {device} out of range "
                f"(engine has {len(self.devices)})"
            )
        s = Stream(
            self,
            index=len(self.streams),
            device_index=device,
            name=name or f"s{len(self.streams)}",
        )
        self.streams.append(s)
        return s

    def _new_event(self, label: str) -> Event:
        ev = Event(label, self._n_events, self)
        self._n_events += 1
        return ev

    # -- the model ------------------------------------------------------
    def _launch_profile(
        self, device: DeviceSpec, op: _Op
    ) -> tuple[KernelTiming, float]:
        """Standalone timing and device utilisation of one launch."""
        timing = simulate_kernel(
            device,
            op.work,
            include_launch_overhead=op.include_launch_overhead,
            launch_overhead_s=op.launch_overhead_s,
        )
        body = timing.time_s - timing.launch_overhead_s
        if body <= 0:
            return timing, 0.0
        resident = timing.occupancy * device.max_warps_per_sm
        eff = bandwidth_efficiency(resident, device)
        bw_share = timing.memory_s * eff / body
        issue_share = timing.compute_s / body
        warp_share = timing.occupancy
        u = min(1.0, max(bw_share, issue_share, warp_share))
        return timing, u

    @staticmethod
    def _enqueue_cost_s(
        device: DeviceSpec, n_children: int, already_pending: int
    ) -> float:
        """Device-side child-launch cost against the remaining budget:
        children past it pay the overflow penalty."""
        available = max(0, device.pending_launch_limit - already_pending)
        within = min(n_children, available)
        overflow = n_children - within
        return (
            within * device.dp_launch_overhead_s / CONCURRENT_LAUNCH_WAYS
            + overflow * device.dp_launch_overhead_s * OVERFLOW_PENALTY
        )

    # -- execution ------------------------------------------------------
    def run(self) -> EngineResult:
        """Schedule every enqueued op; returns their placements.

        Re-runnable: the engine's program (streams and their ops) is
        immutable state, all scheduling state is local to this call.
        """
        n = len(self.streams)
        pc = [0] * n
        busy: list[_Running | None] = [None] * n
        running: list[_Running] = []
        event_time: dict[int, float] = {}
        channel_busy: dict[tuple[int, CopyDirection], bool] = {}
        pending_children = [0] * len(self.devices)
        records: list[OpRecord] = []
        op_seq = [0]
        t = 0.0

        def try_start() -> None:
            progressed = True
            while progressed:
                progressed = False
                for i, s in enumerate(self.streams):
                    if busy[i] is not None:
                        continue
                    while pc[i] < len(s.ops):
                        op = s.ops[pc[i]]
                        if op.kind == "record":
                            event_time[op.event.index] = t
                            pc[i] += 1
                            progressed = True
                            continue
                        if op.kind == "wait":
                            if op.event.index in event_time:
                                pc[i] += 1
                                progressed = True
                                continue
                            break  # blocked on an unrecorded event
                        started = self._start(
                            op,
                            i,
                            s.device_index,
                            t,
                            busy,
                            running,
                            channel_busy,
                            pending_children,
                            op_seq,
                        )
                        if started:
                            pc[i] += 1
                            progressed = True
                        break  # stream is now busy or blocked

        while True:
            try_start()
            if not running:
                if all(pc[i] >= len(s.ops) for i, s in enumerate(self.streams)):
                    break
                blocked = [
                    f"{s.name}@{s.ops[pc[i]].name}"
                    for i, s in enumerate(self.streams)
                    if pc[i] < len(s.ops)
                ]
                raise RuntimeError(
                    "stream deadlock: no runnable op; blocked at "
                    + ", ".join(blocked)
                )

            # Piecewise-constant rates until the next completion.
            rates = self._rates(running)
            dt = min(
                r.remaining_s / rate
                for r, rate in zip(running, rates)
                if rate > 0
            )
            t += dt
            finished: list[_Running] = []
            for r, rate in zip(running, rates):
                r.remaining_s -= dt * rate
                if r.remaining_s <= _EPS_S:
                    finished.append(r)
            for r in finished:
                running.remove(r)
                busy[r.stream] = None
                if r.channel is not None:
                    channel_busy[r.channel] = False
                if r.op.dp_children:
                    pending_children[r.device] -= r.op.dp_children
                records.append(
                    OpRecord(
                        name=r.op.name,
                        kind=r.category,
                        stream=r.stream,
                        device=r.device,
                        start_s=r.start_s,
                        end_s=t,
                        timing=r.timing,
                        op_id=r.op_id,
                    )
                )

        records.sort(key=lambda r: (r.start_s, r.stream))
        return EngineResult(
            records=tuple(records),
            duration_s=t,
            devices=self.devices,
        )

    def _start(
        self,
        op: _Op,
        stream: int,
        device_index: int,
        t: float,
        busy: list[_Running | None],
        running: list[_Running],
        channel_busy: dict[tuple[int, CopyDirection], bool],
        pending_children: list[int],
        op_seq: list[int],
    ) -> bool:
        """Try to start ``op``; returns False if a resource is busy."""
        device = self.devices[device_index]
        if op.kind == "copy":
            channel = (device_index, op.direction)
            if channel_busy.get(channel, False):
                return False
            channel_busy[channel] = True
            duration = self.link.transfer_time_s(
                op.n_bytes, n_transfers=op.n_transfers
            )
            r = _Running(
                op=op,
                stream=stream,
                device=device_index,
                start_s=t,
                remaining_s=duration,
                utilization=0.0,
                channel=channel,
                category="copy",
            )
        elif op.kind == "span":
            r = _Running(
                op=op,
                stream=stream,
                device=device_index,
                start_s=t,
                remaining_s=op.duration_s,
                utilization=op.utilization,
                category="span",
            )
        elif op.kind == "launch":
            timing, u = self._launch_profile(device, op)
            duration = timing.time_s
            if op.dp_children:
                already = pending_children[device_index]
                enqueue = self._enqueue_cost_s(device, op.dp_children, already)
                duration = max(duration, enqueue)
                pending_children[device_index] += op.dp_children
            r = _Running(
                op=op,
                stream=stream,
                device=device_index,
                start_s=t,
                remaining_s=duration,
                utilization=u,
                timing=timing,
                category="kernel",
            )
        else:  # pragma: no cover - record/wait handled by the caller
            raise AssertionError(f"unschedulable op kind {op.kind!r}")
        r.op_id = op_seq[0]
        op_seq[0] += 1
        busy[stream] = r
        running.append(r)
        return True

    def _rates(self, running: list[_Running]) -> list[float]:
        """Progress rate of every running op under processor sharing."""
        demand = [0.0] * len(self.devices)
        for r in running:
            if r.category in ("kernel", "span"):
                demand[r.device] += r.utilization
        rates = []
        for r in running:
            if r.category == "copy":
                rates.append(1.0)
            else:
                u = demand[r.device]
                rates.append(1.0 if u <= 1.0 else 1.0 / u)
        return rates
