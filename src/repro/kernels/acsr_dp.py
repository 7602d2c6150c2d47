"""ACSR dynamic-parallelism kernels (Algorithms 3 and 4).

For the long-tail bins (group G1), a *parent* kernel runs one control
thread per long row; each control thread launches a row-specific *child*
grid of ``nnz / ThreadLoad`` threads over its own stream.  Children stream
the row with coalesced accesses, reduce intra-warp with shuffles, and
combine across warps with one atomic per warp.

Parent threads "are only used for control purposes and do not perform any
actual computations" (Section III-B), so the parent work is pure
instruction overhead.
"""

from __future__ import annotations

import numpy as np

from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec, Precision, WARP_SIZE
from ..gpu.kernel import CounterHints, KernelWork
from ..gpu.memory import (
    SECTOR_BYTES,
    block_gather_dram_bytes,
    coalesced_bytes,
    scattered_bytes,
)
from .common import (
    ATOMIC_INSTS,
    INST_PER_EXTRA_VEC,
    INST_PER_ITER,
    ROW_SETUP_INSTS,
    SHUFFLE_INST,
    _spmv_useful_bytes,
    launch_for_threads,
    x_hit_rate,
)

#: Instructions a parent control thread spends preparing + launching one
#: child grid (argument marshalling, stream setup, launch call).
PARENT_CONTROL_INSTS = 40.0


def parent_work(n_children: int, precision: Precision) -> KernelWork:
    """Cost of the parent (control-only) grid for ``n_children`` rows."""
    if n_children < 0:
        raise ValueError("child count must be non-negative")
    if n_children == 0:
        return KernelWork.empty("acsr-dp-parent", precision)
    n_warps = -(-n_children // WARP_SIZE)
    rem = n_children % WARP_SIZE
    # All full warps are identical: two weighted entries (full + partial
    # trailing warp) describe the whole control grid.
    if rem and n_warps > 1:
        counts = np.array([float(WARP_SIZE), float(rem)])
        weights = np.array([float(n_warps - 1), 1.0])
    elif rem:
        counts = np.array([float(rem)])
        weights = np.array([1.0])
    else:
        counts = np.array([float(WARP_SIZE)])
        weights = np.array([float(n_warps)])
    # Launch calls serialise within a warp (each lane launches its own
    # grid), so charge per-thread control instructions.
    compute = counts * PARENT_CONTROL_INSTS
    # G1_Row list read + row_off pair per child.
    dram = coalesced_bytes(counts * 4) + scattered_bytes(counts)
    return KernelWork(
        name="acsr-dp-parent",
        compute_insts=compute,
        dram_bytes=np.asarray(dram, dtype=np.float64),
        mem_ops=np.ones(counts.shape[0], dtype=np.float64),
        flops=0.0,
        precision=precision,
        launch=launch_for_threads(n_children),
        warp_weights=weights,
        # Control metadata only: one row id + one row_off pair per child.
        hints=CounterHints(useful_bytes=float(n_children) * 12.0),
    )


def child_work(
    csr: CSRMatrix,
    row: int,
    thread_load: int,
    device: DeviceSpec,
    k: int = 1,
) -> KernelWork:
    """Cost of one row-specific child grid (Algorithm 4).

    The grid has ``ceil(nnz / thread_load)`` threads; every thread handles
    ``thread_load`` elements with a grid-stride loop, so each warp performs
    ``thread_load`` coalesced iterations, then an intra-warp shuffle
    reduction and one atomic for the inter-warp combine.

    ``k > 1`` widens the child over a block of ``k`` vectors: the row's
    values/col_idx stream once, but each iteration gains per-vector
    gather/FMA instructions, the shuffle reduction and atomic combine
    repeat per vector, and gathers/atomics fetch block-row sectors.
    ``k == 1`` is byte-identical to the single-vector model.
    """
    if thread_load < 1:
        raise ValueError("thread_load must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    nnz = int(csr.nnz_per_row[row])
    precision = csr.precision
    if nnz == 0:
        return KernelWork.empty(f"acsr-dp-child-r{row}", precision)
    vb = precision.value_bytes
    n_threads = max(1, -(-nnz // thread_load))
    n_warps = -(-n_threads // WARP_SIZE)
    # Elements per warp: the row split evenly across warps, so every warp
    # of the child grid is identical — one weighted entry covers them all.
    elems = np.full(1, nnz / n_warps, dtype=np.float64)
    iters = np.ceil(elems / WARP_SIZE)
    compute = (
        iters * INST_PER_ITER
        + ROW_SETUP_INSTS
        + 5 * SHUFFLE_INST
        + ATOMIC_INSTS
    )
    if k > 1:
        compute = compute + (k - 1) * (
            iters * INST_PER_EXTRA_VEC + 5 * SHUFFLE_INST + ATOMIC_INSTS
        )
    hit = x_hit_rate(device, csr.n_cols, precision, csr.gather_profile, k=k)
    matrix = coalesced_bytes(elems * vb) + coalesced_bytes(elems * 4)
    gather = block_gather_dram_bytes(elems, vb, hit, k=k)
    atomic = scattered_bytes(np.ones(1))
    if k > 1:
        atomic = atomic * float(np.ceil(k * vb / SECTOR_BYTES))
    dram = matrix + gather + atomic
    return KernelWork(
        name=f"acsr-dp-child-r{row}",
        compute_insts=np.asarray(compute, dtype=np.float64),
        dram_bytes=np.asarray(dram, dtype=np.float64),
        mem_ops=iters * 2.0,  # col load -> dependent x gather per iteration
        flops=2.0 * nnz * k,
        precision=precision,
        launch=launch_for_threads(n_threads),
        warp_weights=np.full(1, float(n_warps)),
        k=k,
        hints=CounterHints(
            tex_hit_rate=hit,
            useful_bytes=_spmv_useful_bytes(
                float(nnz),
                1.0,
                value_bytes=vb,
                index_bytes_per_elem=4.0,
                profile=csr.gather_profile,
                k=k,
            ),
        ),
    )


def children_works(
    csr: CSRMatrix,
    rows: np.ndarray,
    thread_load: int,
    device: DeviceSpec,
    k: int = 1,
) -> list[KernelWork]:
    """One child grid per G1 row."""
    return [
        child_work(csr, int(r), thread_load, device, k=k)
        for r in np.asarray(rows)
    ]


def children_batch_work(
    csr: CSRMatrix,
    rows: np.ndarray,
    thread_load: int,
    device: DeviceSpec,
    k: int = 1,
) -> KernelWork:
    """Every G1 child grid as one multi-entry work (one entry per row).

    The array-program form of :func:`children_works`: each per-warp
    column is exactly the concatenation of the per-row works' single
    entries (empty rows contribute nothing, matching
    :data:`KernelWork.empty`'s zero-length arrays), each expression uses
    the same operation order as :func:`child_work`, and the total flops
    are an integer-valued sum — so ``merge_concurrent([parent, batch])``
    is entry-for-entry byte-identical to merging the per-row list while
    skipping ~1000 Python-level work constructions per evaluation.
    """
    if thread_load < 1:
        raise ValueError("thread_load must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    precision = csr.precision
    nnz_int = csr.nnz_per_row[np.asarray(rows)].astype(np.int64)
    nnz_int = nnz_int[nnz_int > 0]
    if nnz_int.shape[0] == 0:
        return KernelWork.empty("acsr-dp-children", precision)
    vb = precision.value_bytes
    n_threads = np.maximum(1, -(-nnz_int // thread_load))
    n_warps = -(-n_threads // WARP_SIZE)
    # Same float64 division as the scalar path (both operands are exact).
    elems = nnz_int.astype(np.float64) / n_warps.astype(np.float64)
    iters = np.ceil(elems / WARP_SIZE)
    compute = (
        iters * INST_PER_ITER
        + ROW_SETUP_INSTS
        + 5 * SHUFFLE_INST
        + ATOMIC_INSTS
    )
    if k > 1:
        compute = compute + (k - 1) * (
            iters * INST_PER_EXTRA_VEC + 5 * SHUFFLE_INST + ATOMIC_INSTS
        )
    hit = x_hit_rate(device, csr.n_cols, precision, csr.gather_profile, k=k)
    matrix = coalesced_bytes(elems * vb) + coalesced_bytes(elems * 4)
    gather = block_gather_dram_bytes(elems, vb, hit, k=k)
    atomic = scattered_bytes(np.ones(nnz_int.shape[0]))
    if k > 1:
        atomic = atomic * float(np.ceil(k * vb / SECTOR_BYTES))
    dram = matrix + gather + atomic
    nnz = nnz_int.astype(np.float64)
    return KernelWork(
        name="acsr-dp-children",
        compute_insts=np.asarray(compute, dtype=np.float64),
        dram_bytes=np.asarray(dram, dtype=np.float64),
        mem_ops=iters * 2.0,
        # Integer-valued per-row flops: the sum is exact in any order.
        flops=float(np.sum(2.0 * nnz * k)),
        precision=precision,
        warp_weights=n_warps.astype(np.float64),
        k=k,
        hints=CounterHints(
            tex_hit_rate=hit,
            useful_bytes=float(
                np.sum(
                    _spmv_useful_bytes(
                        nnz,
                        1.0,
                        value_bytes=vb,
                        index_bytes_per_elem=4.0,
                        profile=csr.gather_profile,
                        k=k,
                    )
                )
            ),
        ),
    )
