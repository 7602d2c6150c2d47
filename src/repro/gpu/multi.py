"""Multi-GPU execution model (Section VIII).

The paper runs ACSR on the dual-GPU Tesla K10 by splitting every bin's row
list in half, one half per GPU ("For two GPUs, we simply map half of the
rows in each bin to each device").  Each GPU computes its share of ``y``;
the devices then synchronise and the halves are concatenated.

The model generalises to ``n`` GPUs and is a closed form: each device
runs its kernel sequence back to back (:func:`simulate_sequence`), the
devices run concurrently, and the board finishes when the slowest device
does, plus one cross-device synchronisation when there are two or more.
Imperfect scaling emerges naturally: small matrices leave each GPU
under-occupied, so per-device times do not halve (the ENR/FLI/INT/YOT
observation), while launch overheads are paid per device.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec
from .kernel import KernelWork
from .simulator import SequenceTiming, simulate_sequence

#: Cross-device synchronisation (event record + stream sync), seconds.
SYNC_OVERHEAD_S = 20.0e-6


@dataclass(frozen=True)
class MultiGPUTiming:
    """Timing of one multi-device SpMV."""

    per_device: tuple[SequenceTiming, ...]
    sync_overhead_s: float

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
        """Time one work sequence per device, all devices concurrent."""
        if len(per_device_works) != self.n_devices:
            raise ValueError(
                f"expected {self.n_devices} work lists, got {len(per_device_works)}"
            )
        return MultiGPUTiming(
            per_device=tuple(
                simulate_sequence(d, works)
                for d, works in zip(self.devices, per_device_works)
            ),
            sync_overhead_s=SYNC_OVERHEAD_S if self.n_devices > 1 else 0.0,
        )
