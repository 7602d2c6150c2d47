"""GPU performance-simulator substrate.

This package stands in for the CUDA runtime and the three NVIDIA GPUs of
the paper's testbed (Table II).  It provides:

* :mod:`~repro.gpu.device` — device specs (GTX 580 / Tesla K10 / GTX Titan)
  and the host model;
* :mod:`~repro.gpu.memory` — coalescing, texture-cache and bandwidth models;
* :mod:`~repro.gpu.warp` — warp-level work decomposition helpers;
* :mod:`~repro.gpu.kernel` / :mod:`~repro.gpu.simulator` — the
  :class:`KernelWork` accounting unit and the roofline scheduler producing
  modelled seconds;
* :mod:`~repro.gpu.dynamic_parallelism` — child-launch economics with the
  2048 pending-launch limit;
* :mod:`~repro.gpu.transfer` — the PCIe copy model;
* :mod:`~repro.gpu.multi` — concurrent multi-device execution (the
  slowest device's sequence plus one cross-device sync).
"""

from .device import (
    DEFAULT_HOST,
    DEVICES,
    GTX_580,
    GTX_TITAN,
    INDEX_BYTES,
    TESLA_K10,
    WARP_SIZE,
    DeviceSpec,
    HostSpec,
    Precision,
    get_device,
)
from .dynamic_parallelism import (
    DynamicParallelismUnsupported,
    child_launch_overhead_s,
)
from .kernel import KernelWork, LaunchConfig, merge_concurrent
from .memory import (
    GatherProfile,
    bandwidth_efficiency,
    coalesced_bytes,
    gather_dram_bytes,
    scattered_bytes,
    texture_hit_rate,
)
from .multi import MultiGPUContext, MultiGPUTiming
from .occupancy import (
    KernelResources,
    OccupancyResult,
    compute_occupancy,
    residency_cap,
)
from .simulator import (
    KernelTiming,
    SequenceTiming,
    canonicalize_works,
    gflops,
    simulate_kernel,
    simulate_many,
    simulate_sequence,
)
from .transfer import DEFAULT_LINK, PCIeLink, csr_device_bytes
from .warp import (
    RowGangWork,
    pack_rows_into_warps,
    shuffle_reduction_steps,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_LINK",
    "DEVICES",
    "DeviceSpec",
    "DynamicParallelismUnsupported",
    "GTX_580",
    "GTX_TITAN",
    "GatherProfile",
    "HostSpec",
    "INDEX_BYTES",
    "KernelResources",
    "KernelTiming",
    "KernelWork",
    "OccupancyResult",
    "LaunchConfig",
    "MultiGPUContext",
    "MultiGPUTiming",
    "PCIeLink",
    "Precision",
    "RowGangWork",
    "SequenceTiming",
    "TESLA_K10",
    "WARP_SIZE",
    "bandwidth_efficiency",
    "canonicalize_works",
    "child_launch_overhead_s",
    "compute_occupancy",
    "coalesced_bytes",
    "csr_device_bytes",
    "gather_dram_bytes",
    "get_device",
    "gflops",
    "merge_concurrent",
    "pack_rows_into_warps",
    "residency_cap",
    "scattered_bytes",
    "shuffle_reduction_steps",
    "simulate_kernel",
    "simulate_many",
    "simulate_sequence",
    "texture_hit_rate",
]
