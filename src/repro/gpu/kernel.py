"""Kernel work descriptions consumed by the simulator.

A :class:`KernelWork` is the simulator's unit of accounting: the per-warp
compute and memory demands of one kernel launch.  Kernels (in
``repro.kernels``) build these analytically from matrix metadata — they
never simulate individual threads, which keeps the model fast enough to
sweep 17 matrices × 3 devices × 2 precisions in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .device import Precision


@dataclass(frozen=True)
class LaunchConfig:
    """CUDA-style launch geometry (kept for reporting and validation)."""

    grid_blocks: int
    threads_per_block: int

    def __post_init__(self) -> None:
        if self.grid_blocks < 0:
            raise ValueError("grid size must be non-negative")
        if not 0 < self.threads_per_block <= 1024:
            raise ValueError("block size must be in (0, 1024]")

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.threads_per_block

    @property
    def total_warps(self) -> int:
        warps_per_block = -(-self.threads_per_block // 32)
        return self.grid_blocks * warps_per_block


@dataclass(frozen=True)
class CounterHints:
    """Memory-system facts a kernel knows about its own launch.

    The timing model only needs post-coalescing DRAM bytes, but the
    observability layer (:mod:`repro.obs`) wants to *explain* them.
    Kernels that compute a texture hit rate or know their ideal payload
    attach the numbers here; the hints never enter the timing formula, so
    attaching them cannot change a modelled time.
    """

    #: Texture-cache hit rate used for the ``x[col]`` gather stream.
    tex_hit_rate: float | None = None
    #: Bytes an ideal memory system would move for this launch: each
    #: matrix element once, each distinct ``x`` entry once, each output
    #: once.  ``useful_bytes / dram_bytes`` is the global-load coalescing
    #: ratio (1.0 = every byte moved was asked for).
    useful_bytes: float | None = None
    #: DRAM traffic caused by texture-cache misses on the ``x[col]``
    #: gather stream (the ``gather_dram_bytes`` term of the traffic
    #: model).  Lets attribution split coalescing waste from texture-miss
    #: re-fetches; like every hint it never enters the timing formula.
    tex_miss_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.tex_hit_rate is not None and not 0.0 <= self.tex_hit_rate <= 1.0:
            raise ValueError("tex_hit_rate must be in [0, 1]")
        if self.useful_bytes is not None and self.useful_bytes < 0:
            raise ValueError("useful_bytes must be non-negative")
        if self.tex_miss_bytes is not None and self.tex_miss_bytes < 0:
            raise ValueError("tex_miss_bytes must be non-negative")


@dataclass(frozen=True)
class KernelWork:
    """Per-warp resource demands of one kernel launch.

    All arrays have one entry per warp.  ``compute_insts`` counts
    warp-instructions issued (divergent iterations already inflated to the
    warp's max), ``dram_bytes`` is post-coalescing DRAM traffic, and
    ``mem_ops`` counts *dependent* memory operations on the warp's critical
    path (used for the latency bound when occupancy is too low to hide
    DRAM latency).
    """

    name: str
    compute_insts: np.ndarray
    dram_bytes: np.ndarray
    mem_ops: np.ndarray
    #: Useful floating-point operations (for GFLOPs reporting only).
    flops: float
    precision: Precision = Precision.SINGLE
    launch: LaunchConfig | None = None
    #: Fraction of instructions that are floating-point (scaled for DP).
    fp_fraction: float = 0.35
    #: Per-block resource usage; caps SM residency when set (see
    #: ``repro.gpu.occupancy``).  ``None`` = not resource-limited.
    resources: object | None = None
    #: Optional per-entry multiplicities: entry ``i`` stands for
    #: ``warp_weights[i]`` *identical* warps.  Lets perfectly uniform
    #: kernels (COO-family, ELL) be described in O(1) entries instead of
    #: one entry per warp.  ``None`` = every entry is one warp.
    warp_weights: np.ndarray | None = None
    #: Vector-block width: the number of right-hand-side vectors this
    #: launch multiplies (SpMM).  The per-warp arrays already include the
    #: widened ``x``/``y`` traffic and per-vector instructions; ``k`` is
    #: carried for reporting and so mergers can preserve it.  ``k == 1``
    #: is classic SpMV.
    k: int = 1
    #: Optional observability hints (never consulted by the timing model).
    hints: CounterHints | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("vector-block width k must be >= 1")
        n = self.compute_insts.shape[0]
        if self.dram_bytes.shape[0] != n or self.mem_ops.shape[0] != n:
            raise ValueError("per-warp arrays must share a length")
        if self.warp_weights is not None:
            if self.warp_weights.shape[0] != n:
                raise ValueError("warp_weights must match entry count")
            if n and self.warp_weights.min() < 1:
                raise ValueError("warp weights must be >= 1")
        if self.flops < 0:
            raise ValueError("flops must be non-negative")

    @property
    def n_entries(self) -> int:
        return int(self.compute_insts.shape[0])

    @property
    def n_warps(self) -> int:
        if self.warp_weights is not None:
            return int(self.warp_weights.sum())
        return int(self.compute_insts.shape[0])

    def _weights(self) -> np.ndarray:
        if self.warp_weights is not None:
            return self.warp_weights.astype(np.float64)
        return np.ones(self.n_entries, dtype=np.float64)

    @property
    def total_dram_bytes(self) -> float:
        return float(np.sum(self.dram_bytes * self._weights()))

    @property
    def total_insts(self) -> float:
        return float(np.sum(self.compute_insts * self._weights()))

    @staticmethod
    def empty(name: str, precision: Precision = Precision.SINGLE) -> "KernelWork":
        """A launch that does nothing (e.g. an empty bin)."""
        z = np.zeros(0, dtype=np.float64)
        return KernelWork(
            name=name,
            compute_insts=z,
            dram_bytes=z.copy(),
            mem_ops=z.copy(),
            flops=0.0,
            precision=precision,
        )


def merge_hints(works: list[KernelWork]) -> CounterHints | None:
    """Combine observability hints across concurrently merged works.

    ``useful_bytes`` sums, but only when *every* traffic-carrying input
    declares it (a partial sum would understate the ideal payload and
    overstate waste).  ``tex_miss_bytes`` sums over the works that
    declare it (a partial sum is a safe lower bound on known miss
    traffic).  ``tex_hit_rate`` is DRAM-traffic-weighted across the works
    that declare one.  Returns ``None`` when nothing survives.
    """
    active = [w for w in works if w.total_dram_bytes > 0]
    if not active:
        return None
    useful = None
    if all(
        w.hints is not None and w.hints.useful_bytes is not None
        for w in active
    ):
        useful = float(sum(w.hints.useful_bytes for w in active))
    missed = [
        w.hints.tex_miss_bytes
        for w in active
        if w.hints is not None and w.hints.tex_miss_bytes is not None
    ]
    tex_miss = float(sum(missed)) if missed else None
    rated = [
        w
        for w in active
        if w.hints is not None and w.hints.tex_hit_rate is not None
    ]
    rate = None
    if rated:
        weight = sum(w.total_dram_bytes for w in rated)
        rate = float(
            sum(w.hints.tex_hit_rate * w.total_dram_bytes for w in rated)
            / weight
        )
    if useful is None and rate is None and tex_miss is None:
        return None
    return CounterHints(
        tex_hit_rate=rate, useful_bytes=useful, tex_miss_bytes=tex_miss
    )


def merge_concurrent(works: list[KernelWork], name: str | None = None) -> KernelWork:
    """Merge kernels that run concurrently (e.g. DP child grids).

    The merged work is scheduled as one pool of warps, which matches how
    the hardware fills SMs from whatever grids are resident.  The merged
    ``k`` is the widest of the inputs — control-only grids (e.g. the DP
    parent) stay at ``k=1`` even when their children are batched.
    """
    if not works:
        raise ValueError("need at least one work to merge")
    precision = works[0].precision
    for w in works:
        if w.precision is not precision:
            raise ValueError("cannot merge works of different precisions")
    resources = next((w.resources for w in works if w.resources), None)
    if any(w.warp_weights is not None for w in works):
        weights = np.concatenate([w._weights() for w in works])
    else:
        weights = None
    return KernelWork(
        name=name or "+".join(w.name for w in works[:3]),
        compute_insts=np.concatenate([w.compute_insts for w in works]),
        dram_bytes=np.concatenate([w.dram_bytes for w in works]),
        mem_ops=np.concatenate([w.mem_ops for w in works]),
        flops=sum(w.flops for w in works),
        precision=precision,
        fp_fraction=works[0].fp_fraction,
        resources=resources,
        warp_weights=weights,
        k=max(w.k for w in works),
        hints=merge_hints(works),
    )
