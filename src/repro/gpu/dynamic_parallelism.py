"""Dynamic-parallelism launch economics (Section III-B of the paper).

On compute capability >= 3.5, a kernel may launch child grids from the
device.  The paper exploits this to give every long-tail row its own
right-sized grid (Algorithms 3 and 4).  Two hardware realities shape the
cost model here:

* each device-side launch costs ``dp_launch_overhead_s`` — cheaper than a
  host launch but not free, which is why tiny rows (group G2) are *not*
  worth a child grid;
* ``cudaLimitDevRuntimePendingLaunchCount`` caps concurrent pending child
  launches at 2048.  Exceeding it forces the runtime to allocate tracking
  memory on the fly, degrading performance — the paper sets ``RowMax`` to
  this limit to stay under it, and the simulator charges a growing penalty
  past it so that misconfigured callers see the same cliff.
"""

from __future__ import annotations

from .device import DeviceSpec


class DynamicParallelismUnsupported(RuntimeError):
    """Raised when DP execution is requested on a pre-3.5 device."""


#: Multiplier applied to the overflow portion of child launches beyond the
#: pending-launch limit (runtime buffer reallocation).
OVERFLOW_PENALTY = 8.0

#: Device-side launches issue from many parent warps concurrently; the DP
#: runtime sustains roughly this many in-flight enqueues, so per-child
#: overhead amortises across ways (overflow launches serialise fully).
CONCURRENT_LAUNCH_WAYS = 32.0


def pending_launch_overflow(device: DeviceSpec, n_children: int) -> int:
    """Children beyond ``pending_launch_limit`` (each pays the penalty).

    This is the profiler's ``dp_overflow`` counter: non-zero means the
    run tripped the Section III-B cliff the paper sets ``RowMax`` to
    avoid.
    """
    if n_children < 0:
        raise ValueError("child count must be non-negative")
    return max(0, n_children - device.pending_launch_limit)


def child_launch_split(device: DeviceSpec, n_children: int) -> tuple[int, int]:
    """``(within, overflow)`` fan-out of a DP group under the launch cap.

    ``within`` children amortise their enqueue across
    ``CONCURRENT_LAUNCH_WAYS`` in-flight ways; ``overflow`` children
    exceed ``pending_launch_limit`` and serialise at the
    ``OVERFLOW_PENALTY`` rate.  This is the per-launch fan-out detail the
    timeline layer draws on the DP child lane.
    """
    overflow = pending_launch_overflow(device, n_children)
    return n_children - overflow, overflow


def child_launch_overhead_s(device: DeviceSpec, n_children: int) -> float:
    """Total device-side launch overhead for ``n_children`` child grids."""
    overflow = pending_launch_overflow(device, n_children)
    within = n_children - overflow
    base = within * device.dp_launch_overhead_s / CONCURRENT_LAUNCH_WAYS
    return base + overflow * device.dp_launch_overhead_s * OVERFLOW_PENALTY
