"""ACSR bin-specific SpMV kernel (Algorithm 2).

One kernel launch per non-empty bin in group G2.  Bin ``i`` holds rows
with ``nnz in (2^(i-1), 2^i]`` (bin 1 holds 1–2), and its kernel assigns a
thread-gang of ``2^(i-1)`` lanes (capped at a warp) to each row, so every
row finishes in at most two SIMT iterations — binning turns the power-law
head into perfectly balanced warps.

Rows reach the kernel through the ``BIN#N_Rows`` indirection array built
during the (cheap) preprocessing scan, so row-offset loads and ``y``
writes are scattered; the cost model charges for that.
"""

from __future__ import annotations

import numpy as np

from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec, WARP_SIZE
from ..gpu.kernel import KernelWork
from .common import gang_row_work


def gang_size_for_bin(bin_index: int) -> int:
    """Thread-gang size for a bin: ``2^(i-1)`` lanes, capped at a warp.

    Bin 1 (rows of 1–2 nnz) gets a single thread; the bin covering
    [33..64] gets the full warp (Section III-A).
    """
    if bin_index < 1:
        raise ValueError("bin indices start at 1")
    return min(1 << (bin_index - 1), WARP_SIZE)


def pooled_work(
    csr: CSRMatrix,
    bins: list[tuple[int, np.ndarray]],
    device: DeviceSpec,
    name: str = "acsr-g2",
    k: int = 1,
) -> KernelWork:
    """Cost model for a *pool* of bin kernels on concurrent streams.

    Issue behaviour (iterations, lanes, reductions) is per-bin, but DRAM
    traffic is charged on the pool's **union** of rows: concurrent bin
    grids share the L2, so a sector fetched for one bin's row serves the
    neighbouring rows processed by other bins.  The union streams the
    touched row spans exactly once, plus one boundary charge per
    contiguous run of rows, plus the indirection arrays and row metadata.

    ``k > 1`` widens each gang over a block of ``k`` right-hand-side
    vectors (SpMM): matrix and indirection traffic is charged once, while
    gathers, ``y`` writes, per-iteration instructions, and flops scale
    with the block.  ``k == 1`` is byte-identical to the SpMV model.
    """
    from .common import x_hit_rate  # local alias for clarity

    if k < 1:
        raise ValueError("k must be >= 1")
    precision = csr.precision
    vb = precision.value_bytes
    nonempty = [(b, np.asarray(r, dtype=np.int64)) for b, r in bins if len(r)]
    if not nonempty:
        return KernelWork.empty(name, precision)

    # Per-warp issue structure, bin by bin.  Binning makes the warps of a
    # bin (near-)identical, so each bin's gang compresses to a handful of
    # weighted entries — the pool stays O(distinct shapes) however many
    # warps the matrix needs.
    from ..gpu.warp import (
        compress_gangs,
        pack_rows_into_warps,
        shuffle_reduction_steps,
    )
    from .common import (
        INST_PER_EXTRA_VEC,
        INST_PER_ITER,
        ROW_SETUP_INSTS,
        SHUFFLE_INST,
    )

    compute_parts = []
    memops_parts = []
    nnz_parts = []
    weight_parts = []
    for b, rows in nonempty:
        gang = compress_gangs(
            pack_rows_into_warps(csr.nnz_per_row[rows], gang_size_for_bin(b))
        )
        steps = shuffle_reduction_steps(min(gang_size_for_bin(b), WARP_SIZE))
        part = (
            gang.warp_iters.astype(np.float64) * INST_PER_ITER
            + gang.warp_rows.astype(np.float64) * ROW_SETUP_INSTS
            + steps * SHUFFLE_INST * np.minimum(gang.warp_rows, 1)
        )
        if k > 1:
            part = part + (k - 1) * (
                gang.warp_iters.astype(np.float64) * INST_PER_EXTRA_VEC
                + gang.warp_rows.astype(np.float64) * 1.0
                + steps * SHUFFLE_INST * np.minimum(gang.warp_rows, 1)
            )
        compute_parts.append(part)
        memops_parts.append(gang.warp_iters.astype(np.float64) * 2.0)
        nnz_parts.append(gang.warp_nnz.astype(np.float64))
        weight_parts.append(gang._weights())
    compute = np.concatenate(compute_parts)
    mem_ops = np.concatenate(memops_parts)
    warp_nnz = np.concatenate(nnz_parts)
    weights = np.concatenate(weight_parts)

    # Union traffic.
    all_rows = np.sort(np.concatenate([r for _, r in nonempty]))
    total_nnz = float(csr.nnz_per_row[all_rows].sum())
    runs = (
        1 + int(np.count_nonzero(np.diff(all_rows) != 1))
        if all_rows.shape[0] > 1
        else 1
    )
    hit = x_hit_rate(device, csr.n_cols, precision, csr.gather_profile, k=k)
    meta_bytes = (
        all_rows.shape[0] * (4 + 2 * 4 + vb * k)  # BIN_Rows + row_off + y
        + runs * 2 * 32.0  # boundary sectors of each contiguous run
    )
    matrix_bytes = total_nnz * (vb + 4)
    miss_sectors = float(np.ceil(k * vb / 32.0)) if k > 1 else 1.0
    gather_bytes = total_nnz * (1.0 - hit) * miss_sectors * 32.0
    total_bytes = matrix_bytes + gather_bytes + meta_bytes
    pool_nnz = float(np.sum(warp_nnz * weights))
    n_pool_warps = float(weights.sum())
    share = (
        warp_nnz / pool_nnz
        if pool_nnz > 0
        else np.full(warp_nnz.shape[0], 1.0 / n_pool_warps)
    )
    dram = share * total_bytes

    from ..gpu.kernel import CounterHints
    from .common import _spmv_useful_bytes

    return KernelWork(
        name=name,
        compute_insts=compute,
        dram_bytes=dram,
        mem_ops=mem_ops,
        flops=2.0 * total_nnz * k,
        precision=precision,
        warp_weights=weights,
        k=k,
        hints=CounterHints(
            tex_hit_rate=hit,
            useful_bytes=_spmv_useful_bytes(
                total_nnz,
                float(all_rows.shape[0]),
                value_bytes=vb,
                index_bytes_per_elem=4.0,
                profile=csr.gather_profile,
                k=k,
            ),
        ),
    )


def work(
    csr: CSRMatrix,
    rows: np.ndarray,
    bin_index: int,
    device: DeviceSpec,
    k: int = 1,
) -> KernelWork:
    """Cost model for one bin-specific launch, standalone (no stream pool)."""
    rows = np.asarray(rows, dtype=np.int64)
    gang = gang_size_for_bin(bin_index)
    # Boundary-sector waste depends on how clustered the bin's rows are in
    # storage: real graphs exhibit strong degree locality (same-site web
    # pages, same-community users), so measure the adjacency directly —
    # the fraction of bin rows whose successor row is also in the bin.
    global_density = rows.shape[0] / max(1, csr.n_rows)
    if rows.shape[0] > 1:
        adjacency = float(np.mean(np.diff(rows) == 1))
    else:
        adjacency = 0.0
    density = float(np.clip(max(global_density, adjacency), 1e-6, 1.0))
    return gang_row_work(
        f"acsr-bin{bin_index}",
        csr.nnz_per_row[rows],
        vector_size=gang,
        device=device,
        n_cols=csr.n_cols,
        precision=csr.precision,
        profile=csr.gather_profile,
        # Bin rows are ascending, so even the one-thread bin-1 kernel
        # streams row spans in storage order — the coalesced model with a
        # density-dependent boundary charge applies to every bin.
        coalesced=True,
        row_density=density,
        indirect_rows=True,
        k=k,
    )
