"""ACSR core: binning, parameters, the format, the driver, multi-GPU."""

from .acsr import ACSRFormat
from .binning import (
    Binning,
    bin_index_of,
    bin_range,
    binning_scan_work,
    compute_binning,
)
from .dispatch import ACSRPlan, ACSRTiming, build_plan, time_spmv
from .multi_gpu import (
    MultiGPUResult,
    partition_bin_rows,
    spmv as multi_gpu_spmv,
    spmv_time_s as multi_gpu_spmv_time_s,
)
from .parameters import (
    ACSRParams,
    DEFAULT_THREAD_LOAD,
    ResolvedParams,
    resolve,
)

__all__ = [
    "ACSRFormat",
    "ACSRParams",
    "ACSRPlan",
    "ACSRTiming",
    "Binning",
    "DEFAULT_THREAD_LOAD",
    "MultiGPUResult",
    "ResolvedParams",
    "bin_index_of",
    "bin_range",
    "binning_scan_work",
    "build_plan",
    "compute_binning",
    "multi_gpu_spmv",
    "multi_gpu_spmv_time_s",
    "partition_bin_rows",
    "resolve",
    "time_spmv",
]
