"""Multi-GPU execution model (Section VIII).

The paper runs ACSR on the dual-GPU Tesla K10 by splitting every bin's row
list in half, one half per GPU ("For two GPUs, we simply map half of the
rows in each bin to each device").  Each GPU computes its share of ``y``;
the devices then synchronise and the halves are concatenated.

The model generalises to ``n`` GPUs and is a thin wrapper over the
stream engine (:mod:`repro.gpu.streams`): each device gets one stream,
its kernel sequence is enqueued in order, every stream records an end
event, and a sync stream waits on all of them before paying the
cross-device synchronisation cost.  Imperfect scaling emerges naturally:
small matrices leave each GPU under-occupied, so per-device times do not
halve (the ENR/FLI/INT/YOT observation), while launch overheads are paid
per device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import DeviceSpec
from .kernel import KernelWork
from .simulator import SequenceTiming
from .streams import EngineResult, StreamEngine

#: Cross-device synchronisation (event record + stream sync), seconds.
SYNC_OVERHEAD_S = 20.0e-6


@dataclass(frozen=True)
class MultiGPUTiming:
    """Timing of one multi-device SpMV."""

    per_device: tuple[SequenceTiming, ...]
    sync_overhead_s: float
    #: The engine run behind the timing; its
    #: :meth:`~repro.gpu.streams.EngineResult.chrome_trace` draws the board.
    result: EngineResult = field(compare=False)

    @property
    def time_s(self) -> float:
        if not self.per_device:
            return 0.0
        return max(t.time_s for t in self.per_device) + self.sync_overhead_s

    @property
    def n_devices(self) -> int:
        return len(self.per_device)


@dataclass(frozen=True)
class MultiGPUContext:
    """A set of identical GPUs executing partitioned work."""

    devices: tuple[DeviceSpec, ...]

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("need at least one device")

    @classmethod
    def of(cls, device: DeviceSpec, n: int) -> "MultiGPUContext":
        """``n`` GPUs of one spec (e.g. the two GK104s of a Tesla K10)."""
        if n < 1:
            raise ValueError("device count must be >= 1")
        return cls(devices=tuple([device] * n))

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def run(self, per_device_works: list[list[KernelWork]]) -> MultiGPUTiming:
        """Execute one work sequence per device through the stream engine."""
        if len(per_device_works) != self.n_devices:
            raise ValueError(
                f"expected {self.n_devices} work lists, got {len(per_device_works)}"
            )
        engine = StreamEngine(self.devices)
        end_events = []
        for d, works in enumerate(per_device_works):
            s = engine.stream(device=d, name=f"dev{d}")
            for w in works:
                s.launch(w)
            end_events.append(s.record(label=f"dev{d}-done"))
        sync = SYNC_OVERHEAD_S if self.n_devices > 1 else 0.0
        if self.n_devices > 1:
            barrier = engine.stream(device=0, name="sync")
            for ev in end_events:
                barrier.wait(ev)
            # Host-side event sync: holds no device resources.
            barrier.span("device-sync", sync, utilization=0.0)
        result = engine.run()
        timings = tuple(
            SequenceTiming(
                timings=tuple(
                    r.timing for r in result.records
                    if r.stream == d and r.timing is not None
                )
            )
            for d in range(self.n_devices)
        )
        return MultiGPUTiming(
            per_device=timings,
            sync_overhead_s=sync,
            result=result,
        )
