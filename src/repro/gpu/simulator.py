"""The SM scheduler: turns :class:`KernelWork` into modelled seconds.

The timing model is a roofline with three bounds, evaluated per launch:

* **compute bound** — warps are placed round-robin on SMs; the busiest SM's
  warp-instruction count divided by its issue rate.  Double precision
  inflates the floating-point fraction of instructions by the device's
  DP/SP throughput ratio.
* **bandwidth bound** — total post-coalescing DRAM traffic at an achieved
  bandwidth that degrades when too few warps are resident to hide latency
  (``memory.bandwidth_efficiency``).
* **latency (critical-path) bound** — the longest single warp cannot finish
  faster than its dependent memory operations allow; with deep occupancy
  this is hidden, with one straggler warp (a power-law tail row under
  CSR-vector) it dominates.  This bound is what makes binning and dynamic
  parallelism *matter* in the model, exactly as on hardware.

The modelled time of a launch is ``max`` of the three bounds plus launch
overhead.  Everything is deterministic.

**Weighted evaluation.**  Every launch is first *canonicalised*: entries
with identical ``(compute_insts, dram_bytes, mem_ops)`` are folded into
one weighted entry (multiplicities from ``warp_weights``, or 1 per entry
for dense works), and warps are placed on SMs round-robin in descending
instruction order.  All three bounds are then evaluated on the weighted
entries, so a compressed work and its dense expansion produce *identical*
:class:`KernelTiming`\\s — the invariant that lets kernels describe
billions of warps in a handful of entries (see
:func:`repro.gpu.warp.compress_gangs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec, Precision
from .grouping import group_rows, group_rows_segmented
from .kernel import KernelWork
from .memory import bandwidth_efficiency

#: Outstanding memory operations one warp keeps in flight (loop unrolling +
#: independent load addresses give SpMV inner loops substantial MLP).
MLP_PER_WARP = 8.0

@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one launch's modelled time."""

    name: str
    time_s: float
    compute_s: float
    memory_s: float
    critical_path_s: float
    launch_overhead_s: float
    dram_bytes: float
    n_warps: int
    occupancy: float
    #: Vector-block width of the launch (``> 1`` for batched SpMM).
    k: int = 1

    @property
    def bound(self) -> str:
        """Which roofline term dominated this launch."""
        body = self.time_s - self.launch_overhead_s
        if body <= 0:
            return "launch"
        terms = {
            "compute": self.compute_s,
            "memory": self.memory_s,
            "latency": self.critical_path_s,
        }
        return max(terms, key=terms.get)  # type: ignore[arg-type]

    def bound_summary(self) -> str:
        """One-line roofline verdict for this launch."""
        return (
            f"{self.name}: {self.bound}-bound, {self.time_s * 1e6:.2f} us "
            f"(compute {self.compute_s * 1e6:.2f}, "
            f"memory {self.memory_s * 1e6:.2f}, "
            f"latency {self.critical_path_s * 1e6:.2f}, "
            f"launch {self.launch_overhead_s * 1e6:.2f})"
        )


def _dp_inflation(device: DeviceSpec, work: KernelWork) -> float:
    """Instruction-count inflation factor for double precision."""
    if work.precision is Precision.SINGLE:
        return 1.0
    slowdown = 1.0 / device.dp_throughput_ratio
    return 1.0 + work.fp_fraction * (slowdown - 1.0)


def _canonical_entries(
    work: KernelWork,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fold identical entries into the canonical weighted form.

    Returns ``(insts, dram, mem_ops, counts)`` with one row per distinct
    ``(insts, dram, mem_ops)`` triple, sorted descending, and ``counts``
    the warp multiplicity of each.  A dense work and any weighted
    compression of the same warp multiset canonicalise to the *same*
    arrays, which is what makes the two forms time identically.

    The grouping runs once per :class:`KernelWork`: the canonical form
    is cached on the (frozen) work, so timeline replay, attribution,
    counter collection, and serve-plan pricing — which all re-simulate
    the same works — never pay for a second canonicalisation.  The
    grouping itself is a lexsort (:func:`repro.gpu.grouping.group_rows`),
    byte-identical to the historical ``np.unique(axis=0)`` formulation
    but an order of magnitude faster.
    """
    cached = getattr(work, "_canonical_entries_cache", None)
    if cached is not None:
        return cached
    cols = [
        work.compute_insts.astype(np.float64),
        work.dram_bytes.astype(np.float64),
        work.mem_ops.astype(np.float64),
    ]
    if cols[0].shape[0] > 1:
        unique_cols, counts = group_rows(cols, work._weights())
        entries = (
            unique_cols[0][::-1],  # descending insts
            unique_cols[1][::-1],
            unique_cols[2][::-1],
            counts[::-1],
        )
    else:
        entries = (cols[0], cols[1], cols[2], work._weights())
    object.__setattr__(work, "_canonical_entries_cache", entries)
    return entries


def canonicalize_works(works) -> None:
    """Batch-canonicalise every work in ``works`` with one lexsort.

    The batched form of :func:`_canonical_entries`: all uncached
    multi-entry works are concatenated (a segment id per work) and
    grouped in a single :func:`repro.gpu.grouping.group_rows_segmented`
    pass, then each work's slice of the result is cached on it.  The
    per-work arrays are byte-identical to the solo path — the segment id
    is the most-significant sort key, so grouping never crosses works
    and each segment keeps its own ``np.unique(axis=0)`` order and
    bincount accumulation order.
    """
    pending = []
    seen = set()
    for work in works:
        if id(work) in seen:
            continue
        seen.add(id(work))
        if getattr(work, "_canonical_entries_cache", None) is not None:
            continue
        if work.compute_insts.shape[0] > 1:
            pending.append(work)
    if not pending:
        return
    if len(pending) == 1:
        _canonical_entries(pending[0])
        return
    cols = [
        np.concatenate([w.compute_insts.astype(np.float64) for w in pending]),
        np.concatenate([w.dram_bytes.astype(np.float64) for w in pending]),
        np.concatenate([w.mem_ops.astype(np.float64) for w in pending]),
    ]
    weights = np.concatenate([w._weights() for w in pending])
    lens = np.array([w.compute_insts.shape[0] for w in pending])
    seg = np.repeat(np.arange(len(pending)), lens)
    unique_cols, counts, offsets = group_rows_segmented(
        cols, weights, seg, len(pending)
    )
    for j, work in enumerate(pending):
        a, b = int(offsets[j]), int(offsets[j + 1])
        entries = (
            unique_cols[0][a:b][::-1],
            unique_cols[1][a:b][::-1],
            unique_cols[2][a:b][::-1],
            counts[a:b][::-1],
        )
        object.__setattr__(work, "_canonical_entries_cache", entries)


def _sm_load_vector(
    insts: np.ndarray, counts: np.ndarray, n_sms: int
) -> np.ndarray:
    """Per-SM instruction loads under round-robin warp placement.

    ``insts`` lists distinct per-warp instruction counts in descending
    order, ``counts`` their multiplicities; warps are laid out run by run
    and dealt to SMs round-robin.  Each run hands every SM
    ``count // n_sms`` copies plus one extra to the ``count % n_sms`` SMs
    following the run's start offset — computed with a wrap-aware
    difference array, so the cost is O(entries + SMs), never O(warps).

    The single implementation behind both :func:`_busiest_sm_insts` and
    :func:`sm_inst_loads` (historically two copies of this body).
    """
    c = np.rint(counts).astype(np.int64)
    base = float(np.sum(insts * (c // n_sms).astype(np.float64)))
    rem = c % n_sms
    mask = rem > 0
    if not np.any(mask):
        return np.full(n_sms, base, dtype=np.float64)
    starts = (np.cumsum(c) - c)[mask] % n_sms
    v = insts[mask]
    r = rem[mask]
    first = np.minimum(r, n_sms - starts)
    wrapped = r - first
    diff = np.zeros(n_sms + 1, dtype=np.float64)
    np.add.at(diff, starts, v)
    np.add.at(diff, starts + first, -v)
    wmask = wrapped > 0
    if np.any(wmask):
        diff[0] += float(v[wmask].sum())
        np.add.at(diff, wrapped[wmask], -v[wmask])
    return base + np.cumsum(diff[:n_sms])


def _busiest_sm_insts(
    insts: np.ndarray, counts: np.ndarray, n_sms: int
) -> float:
    """Exact busiest-SM instruction count under round-robin placement.

    ``max`` over :func:`_sm_load_vector`; because IEEE addition is
    monotone, taking the max after the shared ``base`` offset is applied
    gives the same float as the historical scalar-only formulation.
    """
    return float(_sm_load_vector(insts, counts, n_sms).max())


def sm_inst_loads(
    insts: np.ndarray, counts: np.ndarray, n_sms: int
) -> np.ndarray:
    """Per-SM instruction loads under the same round-robin placement.

    The full vector behind :func:`_busiest_sm_insts`: element ``s`` is the
    warp-instruction count dealt to SM ``s``.  Because ``base + x`` rounds
    monotonically, ``sm_inst_loads(...).max()`` equals the busiest-SM
    scalar bit-for-bit — the timeline layer leans on that to reconstruct
    the compute critical path exactly without touching the timing code.
    """
    return _sm_load_vector(insts, counts, n_sms)


def warp_chain_detail(
    device: DeviceSpec, work: KernelWork
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-entry dependent-chain cycles behind the latency bound.

    Returns ``(chain_cycles, counts, insts)`` over the launch's canonical
    weighted entries: ``chain_cycles[i]`` is the dependent-chain length of
    the warps entry ``i`` stands for (``counts[i]`` of them), computed
    with exactly the expression ``simulate_kernel`` uses, and ``insts``
    their DP-inflated instruction counts.  ``chain_cycles.max()`` divided
    by the clock is therefore bit-identical to
    :attr:`KernelTiming.critical_path_s`.  Empty works return empty
    arrays.
    """
    if work.n_warps == 0 or work.total_insts == 0:
        z = np.zeros(0, dtype=np.float64)
        return z, z.copy(), z.copy()
    inflation = _dp_inflation(device, work)
    u_insts, _, u_mem, counts = _canonical_entries(work)
    exposed_latency_cycles = device.dram_latency_cycles / MLP_PER_WARP
    insts = u_insts * inflation
    chain_cycles = (
        insts / device.warp_issue_rate + u_mem * exposed_latency_cycles
    )
    return chain_cycles, counts, insts


def simulate_kernel(
    device: DeviceSpec,
    work: KernelWork,
    *,
    include_launch_overhead: bool = True,
    launch_overhead_s: float | None = None,
) -> KernelTiming:
    """Model the execution time of one kernel launch on ``device``."""
    overhead = (
        launch_overhead_s
        if launch_overhead_s is not None
        else (device.kernel_launch_overhead_s if include_launch_overhead else 0.0)
    )
    n_warps = work.n_warps
    if n_warps == 0 or work.total_insts == 0:
        return KernelTiming(
            name=work.name,
            time_s=overhead,
            compute_s=0.0,
            memory_s=0.0,
            critical_path_s=0.0,
            launch_overhead_s=overhead,
            dram_bytes=0.0,
            n_warps=n_warps,
            occupancy=0.0,
            k=work.k,
        )

    clock_hz = device.clock_ghz * 1e9
    inflation = _dp_inflation(device, work)
    u_insts, u_dram, u_mem, counts = _canonical_entries(work)
    exposed_latency_cycles = device.dram_latency_cycles / MLP_PER_WARP
    insts = u_insts * inflation
    chain_cycles = (
        insts / device.warp_issue_rate + u_mem * exposed_latency_cycles
    )

    # --- compute bound: busiest SM under round-robin warp placement,
    # evaluated exactly on the weighted entries.
    busiest = _busiest_sm_insts(insts, counts, device.num_sms)
    compute_s = busiest / device.warp_issue_rate / clock_hz

    # --- bandwidth bound with occupancy-degraded efficiency.  Residency
    # is capped by the kernel's per-block resources when declared.
    from .occupancy import residency_cap  # local import (no cycle at load)

    resident = min(
        device.max_warps_per_sm,
        residency_cap(device, work.resources),
        max(1.0, n_warps / device.num_sms),
    )
    occupancy = resident / device.max_warps_per_sm
    eff = bandwidth_efficiency(resident, device)
    total_dram = float(np.sum(u_dram * counts))
    memory_s = total_dram / (device.dram_bandwidth_gbps * 1e9 * eff)

    # --- latency bound: the slowest warp's dependent chain.  A straggler
    # warp (e.g. a power-law hub row) finishes alone at the kernel tail
    # with nothing left to hide its stalls, but the hardware still keeps
    # several loads in flight per warp (memory-level parallelism), so each
    # "dependent" operation exposes latency/MLP cycles (the chain_cycles
    # array computed above, alongside the DP inflation).
    critical_s = float(chain_cycles.max()) / clock_hz

    body = max(compute_s, memory_s, critical_s)
    return KernelTiming(
        name=work.name,
        time_s=body + overhead,
        compute_s=compute_s,
        memory_s=memory_s,
        critical_path_s=critical_s,
        launch_overhead_s=overhead,
        dram_bytes=total_dram,
        n_warps=n_warps,
        occupancy=float(occupancy),
        k=work.k,
    )


@dataclass(frozen=True)
class SequenceTiming:
    """Total modelled time of a sequence of dependent launches."""

    timings: tuple[KernelTiming, ...]

    @property
    def time_s(self) -> float:
        return sum(t.time_s for t in self.timings)

    @property
    def launch_overhead_s(self) -> float:
        return sum(t.launch_overhead_s for t in self.timings)

    @property
    def dram_bytes(self) -> float:
        return sum(t.dram_bytes for t in self.timings)


def simulate_many(
    device: DeviceSpec,
    works: list[KernelWork],
    *,
    include_launch_overhead: bool = True,
) -> list[KernelTiming]:
    """Model a whole launch sequence as one stacked array program.

    All launches' entries are canonicalised together in a single
    lexsort pass (:func:`canonicalize_works`); each launch is then
    priced off its cached canonical slice.  The result is
    field-for-field identical to calling :func:`simulate_kernel` per
    work.

    The per-launch totals (DRAM bytes, busiest-SM base) deliberately
    stay as pairwise ``np.sum`` over each launch's own slice: a fused
    ``np.add.reduceat`` over the concatenation uses a different
    reduction tree and drifts at the ulp level, which would break the
    byte-identity contract this engine is built around.
    """
    works = list(works)
    canonicalize_works(works)
    return [
        simulate_kernel(
            device, w, include_launch_overhead=include_launch_overhead
        )
        for w in works
    ]


def simulate_sequence(
    device: DeviceSpec,
    works: list[KernelWork],
    *,
    include_launch_overhead: bool = True,
) -> SequenceTiming:
    """Model back-to-back launches (each pays its own launch overhead)."""
    timings = tuple(
        simulate_many(
            device, works, include_launch_overhead=include_launch_overhead
        )
    )
    return SequenceTiming(timings=timings)


def gflops(flops: float, time_s: float) -> float:
    """Computation rate in GFLOP/s (the paper's Figure 5 metric)."""
    if time_s <= 0:
        raise ValueError("time must be positive")
    return flops / time_s / 1e9
