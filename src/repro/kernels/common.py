"""Shared kernel cost-model machinery.

Every SpMV kernel in ``repro.kernels`` reduces to a handful of warp-level
patterns; this module holds the instruction-count constants and the
traffic builders they share.  The constants are per *warp-instruction
slot* and were chosen once, globally — no per-experiment tuning — so the
relative performance of kernels is an emergent property of their access
patterns, not of fitted constants.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..gpu.device import Precision, WARP_SIZE, DeviceSpec
from ..gpu.kernel import CounterHints, KernelWork, LaunchConfig
from ..gpu.memory import (
    SECTOR_BYTES,
    GatherProfile,
    block_gather_dram_bytes,
    coalesced_bytes,
    gather_dram_bytes,
    scattered_bytes,
    texture_hit_rate,
)
from ..gpu.occupancy import KernelResources
from ..gpu.warp import (
    compress_gangs,
    pack_rows_into_warps,
    shuffle_reduction_steps,
)

#: Warp-instructions per SIMT inner-loop iteration of an SpMV kernel
#: (value load, column load, texture fetch, FMA, index update, branch).
INST_PER_ITER = 6.0

#: One-time per-row instructions (row_off loads, bounds checks, y write).
ROW_SETUP_INSTS = 8.0

#: Instructions per shuffle reduction step.
SHUFFLE_INST = 1.0

#: Extra serialised instructions charged per atomic update.
ATOMIC_INSTS = 12.0

#: Extra warp-instructions per inner-loop iteration *per additional
#: right-hand-side vector* in the batched SpMM path: the column index and
#: matrix value are already in registers, so each extra vector costs only
#: its gather and its FMA.
INST_PER_EXTRA_VEC = 2.0

#: Default CUDA block size used by every kernel's launch geometry.
BLOCK_THREADS = 128


def _spmv_useful_bytes(
    nnz: float,
    n_rows: float,
    *,
    value_bytes: int,
    index_bytes_per_elem: float,
    profile: GatherProfile,
    k: int,
) -> float:
    """Ideal DRAM payload of one SpMV/SpMM launch (for coalescing ratios).

    Each matrix element moves once (value + index), each *distinct* ``x``
    entry (``nnz / reuse``) moves once per vector of the block, each
    output row writes ``k`` values, and the row-offset array streams once.
    Anything a kernel moves beyond this — wasted sector fractions, texture
    misses re-fetching hot entries, ELL padding — is coalescing loss.
    """
    distinct_x = nnz / profile.reuse
    return (
        nnz * (value_bytes + index_bytes_per_elem)
        + distinct_x * value_bytes * k
        + n_rows * value_bytes * k
        + (n_rows + 1.0) * 4.0
    )


def x_hit_rate(
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    k: int = 1,
) -> float:
    """Texture hit rate for gathering the input vector(s) on ``device``.

    For a batched block of ``k`` vectors the working set grows to
    ``n_cols * k`` values, but the column-locality :class:`GatherProfile`
    is *reused* across the block — the access pattern over rows of ``X``
    is exactly the column-index stream of the matrix, whatever ``k`` is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return texture_hit_rate(
        device, float(n_cols) * precision.value_bytes * k, profile
    )


def launch_for_threads(total_threads: int) -> LaunchConfig:
    """Standard 128-thread-block launch covering ``total_threads``."""
    blocks = max(1, -(-total_threads // BLOCK_THREADS))
    return LaunchConfig(grid_blocks=blocks, threads_per_block=BLOCK_THREADS)


def gang_row_work(
    name: str,
    nnz_per_row: np.ndarray,
    vector_size: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    coalesced: bool = True,
    indirect_rows: bool = False,
    row_density: float = 1.0,
    sector_sharing: float = 1.0,
    flops: float | None = None,
    compress: bool = True,
    k: int = 1,
) -> KernelWork:
    """Cost of the *thread-gang per row* pattern.

    Covers CSR-scalar (``vector_size=1``, ``coalesced=False``), CSR-vector,
    and the ACSR bin-specific kernels (``coalesced=True``).

    **Matrix traffic (coalesced path).**  Gangs read contiguous row
    segments, so a kernel that visits rows in storage order *streams* the
    values/col_idx arrays: traffic is the exact byte span of the rows it
    touches, plus boundary sectors where a touched row abuts an untouched
    one.  ``row_density`` is the fraction of all rows this kernel covers
    (1.0 for CSR kernels; ``bin_rows / n_rows`` for an ACSR bin): the
    denser the coverage, the fewer boundary sectors are wasted.

    **Matrix traffic (uncoalesced path).**  CSR-scalar's lanes walk 32
    distant rows in lockstep, thrashing sectors: every element costs a
    sector from each of the two arrays, attenuated by ``sector_sharing``.

    ``indirect_rows`` models kernels that fetch their row ids through an
    indirection array (ACSR's ``BIN#N_Rows``): the row-offset loads and the
    ``y`` writes become scattered, and the indirection array itself is
    streamed.

    With ``compress=True`` (the default) identical warp shapes are folded
    into weighted entries (:func:`repro.gpu.warp.compress_gangs`), so the
    returned work has one entry per *distinct* shape instead of one per
    warp — timing-identical to the dense form, but the simulator's cost
    scales with bin diversity rather than matrix size.

    ``k > 1`` widens the per-row gang to a block of ``k`` right-hand-side
    vectors (SpMM): matrix traffic (values/col_idx/row_off) is charged
    once, but each iteration gains ``INST_PER_EXTRA_VEC`` instructions
    per extra vector, each gather fetches the sectors covering
    ``X[col, 0:k]``, and the ``y`` write widens to ``k`` values per row.
    ``k == 1`` is byte-identical to the single-vector model.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < sector_sharing <= 1.0:
        raise ValueError("sector_sharing must be in (0, 1]")
    if not 0.0 < row_density <= 1.0:
        raise ValueError("row_density must be in (0, 1]")
    nnz_per_row = np.asarray(nnz_per_row, dtype=np.int64)
    gang = pack_rows_into_warps(nnz_per_row, vector_size)
    if compress:
        gang = compress_gangs(gang)
    vb = precision.value_bytes
    n_warps = gang.n_warps
    if n_warps == 0:
        return KernelWork.empty(name, precision)

    # Row setup executes once per row-gang; when several rows share a warp
    # the setups serialise (different lanes, same issue slots), so charge
    # one setup per row covered by the warp.  The shuffle reduction runs
    # once per warp (all gangs reduce in lockstep).
    steps = shuffle_reduction_steps(min(vector_size, WARP_SIZE))
    compute = (
        gang.warp_iters.astype(np.float64) * INST_PER_ITER
        + gang.warp_rows.astype(np.float64) * ROW_SETUP_INSTS
        + steps * SHUFFLE_INST * np.minimum(gang.warp_rows, 1)
    )
    if k > 1:
        # Each extra vector adds a gather + FMA per iteration, one extra
        # accumulator init/store per row, and one more shuffle-reduction
        # pass per warp (one reduction per vector of the block).
        compute = compute + (k - 1) * (
            gang.warp_iters.astype(np.float64) * INST_PER_EXTRA_VEC
            + gang.warp_rows.astype(np.float64) * 1.0
            + steps * SHUFFLE_INST * np.minimum(gang.warp_rows, 1)
        )

    hit = x_hit_rate(device, n_cols, precision, profile, k=k)
    gather = block_gather_dram_bytes(gang.warp_nnz, vb, hit, k=k)
    if coalesced:
        # Two traffic floors apply simultaneously:
        # (1) byte span — the rows' data must move at least once;
        # (2) transaction granularity — a gang-iteration's load costs at
        #     least one 32-byte sector *unless* neighbouring gangs' row
        #     segments merge into the same sector.  Merging happens when
        #     gangs are small (several per warp instruction) AND the rows
        #     they cover are adjacent in storage (``row_density``).  A
        #     warp-per-row kernel (cuSPARSE csrmv) walking 3-nnz rows
        #     pays a full sector per array per row; ACSR's bin-1 kernel
        #     over a dense run of such rows streams them.
        # Plus a boundary charge where a touched row abuts an untouched one.
        nnzf = gang.warp_nnz.astype(np.float64)
        itersf = gang.useful_iters.astype(np.float64)
        gang_frac = min(vector_size, WARP_SIZE) / WARP_SIZE
        floor = SECTOR_BYTES * (
            gang_frac + (1.0 - gang_frac) * (1.0 - row_density)
        )
        boundary = (1.0 - row_density) * 2 * SECTOR_BYTES
        matrix = (
            np.maximum(nnzf * vb, itersf * floor)
            + np.maximum(nnzf * 4, itersf * floor)
            + gang.warp_rows.astype(np.float64) * boundary
        )
    else:
        # Scalar pathology: every element load costs a sector, twice
        # (values array and col_idx array), attenuated by sector sharing.
        matrix = scattered_bytes(gang.warp_nnz) * 2.0 * sector_sharing
    if indirect_rows:
        # BIN_Rows stream (coalesced) + row_off pairs + y writes through the
        # indirection: per-access sector cost shrinks as the bin's rows
        # densify (8 int32 entries share a sector).
        per_access = SECTOR_BYTES / max(1.0, row_density * 8.0)
        if k == 1:
            row_meta = (
                coalesced_bytes(gang.warp_rows * 4)
                + gang.warp_rows.astype(np.float64) * 2.0 * per_access
            )
        else:
            # Row-off pair is one access; the y write covers k consecutive
            # values of the output block, so it spans ceil(k*vb/32) sectors.
            y_accesses = float(np.ceil(k * vb / SECTOR_BYTES))
            row_meta = (
                coalesced_bytes(gang.warp_rows * 4)
                + gang.warp_rows.astype(np.float64)
                * (1.0 + y_accesses)
                * per_access
            )
    else:
        if k == 1:
            row_meta = coalesced_bytes(
                (gang.warp_rows + 1) * 4
            ) + coalesced_bytes(gang.warp_rows * vb)
        else:
            row_meta = coalesced_bytes(
                (gang.warp_rows + 1) * 4
            ) + coalesced_bytes(gang.warp_rows * (vb * k))
    dram = matrix + gather + row_meta

    total_nnz = float(nnz_per_row.sum())
    return KernelWork(
        name=name,
        compute_insts=compute,
        dram_bytes=np.asarray(dram, dtype=np.float64),
        # Each iteration's critical chain is two dependent loads: col_idx,
        # then x[col] — the gather cannot issue before its index arrives.
        mem_ops=gang.warp_iters.astype(np.float64) * 2.0,
        flops=2.0 * total_nnz * k if flops is None else flops,
        precision=precision,
        launch=launch_for_threads(
            int(nnz_per_row.shape[0]) * min(vector_size, WARP_SIZE)
            if vector_size <= WARP_SIZE
            else n_warps * WARP_SIZE
        ),
        warp_weights=(
            gang.weights.astype(np.float64)
            if gang.weights is not None
            else None
        ),
        k=k,
        hints=CounterHints(
            tex_hit_rate=hit,
            useful_bytes=_spmv_useful_bytes(
                total_nnz,
                float(nnz_per_row.shape[0]),
                value_bytes=vb,
                index_bytes_per_elem=4.0,
                profile=profile,
                k=k,
            ),
            tex_miss_bytes=float(
                np.sum(
                    np.asarray(gather, dtype=np.float64)
                    * (
                        gang.weights.astype(np.float64)
                        if gang.weights is not None
                        else 1.0
                    )
                )
            ),
        ),
    )


def boundaries_per_warp(total_elements: int, rows_spanned: int) -> float:
    """Expected row boundaries inside one warp of a thread-per-element
    launch: ``rows_spanned`` boundaries spread over the launch's warps,
    plus the warp's own carry, capped at one per lane.

    The only way :func:`elementwise_work`'s timing depends on
    ``rows_spanned``, so a caller that varies only ``rows_spanned`` can
    key its trials on this value.
    """
    n_warps = -(-total_elements // WARP_SIZE)
    return min(float(WARP_SIZE), rows_spanned / max(1, n_warps) + 1.0)


def elementwise_work(
    name: str,
    total_elements: int,
    rows_spanned: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    index_bytes_per_elem: float = 8.0,
    reduction: bool = True,
    hit_rate_override: float | None = None,
    flops: float | None = None,
    k: int = 1,
    resources: KernelResources | None = None,
) -> KernelWork:
    """Cost of the *thread per element* pattern (COO-family kernels).

    ``index_bytes_per_elem`` is the contiguous index traffic per element
    (plain COO reads row + col = 8 bytes; compressed layouts such as BCCOO
    read far less).  Segmented reduction adds shuffle steps per warp plus
    one atomic per row *boundary* crossed.

    ``k > 1`` batches the launch over a block of ``k`` vectors: index
    traffic is charged once, but each element gains per-vector gather/FMA
    instructions, the segmented reduction repeats per vector, and each
    gather/atomic touches the sectors covering a ``k``-wide block row.
    ``k == 1`` is byte-identical to the single-vector model.
    ``resources`` is the launch's per-block usage
    (:attr:`KernelWork.resources`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if total_elements < 0:
        raise ValueError("element count must be non-negative")
    if total_elements == 0:
        return replace(KernelWork.empty(name, precision), resources=resources)
    vb = precision.value_bytes
    n_warps = -(-total_elements // WARP_SIZE)
    rem = total_elements % WARP_SIZE
    # All full warps are identical: two weighted entries describe the
    # whole launch, whatever its size.
    if rem and n_warps > 1:
        counts = np.array([float(WARP_SIZE), float(rem)])
        weights = np.array([float(n_warps - 1), 1.0])
    elif rem:
        counts = np.array([float(rem)])
        weights = np.array([1.0])
    else:
        counts = np.array([float(WARP_SIZE)])
        weights = np.array([float(n_warps)])

    # One SIMT iteration per warp over its 32 elements, plus the segmented
    # scan (5 shuffle steps) and the expected atomics: a warp emits one
    # carry atomic, plus extra atomics when many row boundaries fall inside
    # it.
    boundaries = boundaries_per_warp(total_elements, rows_spanned)
    compute = (
        counts / WARP_SIZE * INST_PER_ITER
        + (5 * SHUFFLE_INST if reduction else 0.0)
        + (ATOMIC_INSTS * boundaries if reduction else 0.0)
    )
    if k > 1:
        compute = compute + (k - 1) * (
            counts / WARP_SIZE * INST_PER_EXTRA_VEC
            + (5 * SHUFFLE_INST if reduction else 0.0)
            + (ATOMIC_INSTS * boundaries if reduction else 0.0)
        )

    hit = (
        hit_rate_override
        if hit_rate_override is not None
        else x_hit_rate(device, n_cols, precision, profile, k=k)
    )
    matrix = coalesced_bytes(counts * vb) + coalesced_bytes(
        counts * index_bytes_per_elem
    )
    gather = block_gather_dram_bytes(counts, vb, hit, k=k)
    atomic_traffic = (
        scattered_bytes(np.full(counts.shape[0], boundaries))
        if reduction
        else 0.0
    )
    if reduction and k > 1:
        # Each carry atomic updates k consecutive outputs of the block.
        atomic_traffic = atomic_traffic * float(
            np.ceil(k * vb / SECTOR_BYTES)
        )
    dram = matrix + gather + atomic_traffic

    return KernelWork(
        name=name,
        compute_insts=np.asarray(compute, dtype=np.float64),
        dram_bytes=np.asarray(dram, dtype=np.float64),
        mem_ops=np.ceil(counts / WARP_SIZE) * 2.0,
        flops=2.0 * float(total_elements) * k if flops is None else flops,
        precision=precision,
        launch=launch_for_threads(total_elements),
        resources=resources,
        warp_weights=weights,
        k=k,
        hints=CounterHints(
            tex_hit_rate=hit,
            useful_bytes=_spmv_useful_bytes(
                float(total_elements),
                float(rows_spanned),
                value_bytes=vb,
                index_bytes_per_elem=index_bytes_per_elem,
                profile=profile,
                k=k,
            ),
            tex_miss_bytes=float(
                np.sum(np.asarray(gather, dtype=np.float64) * weights)
            ),
        ),
    )


def ell_slabs(
    n_rows: np.ndarray,
    width: np.ndarray,
    real_nnz: np.ndarray,
    *,
    value_bytes: int,
    hit: float,
    scattered_y: bool,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-slab warp demands of column-major ELL launches.

    Entry ``i`` describes a slab of ``n_rows[i]`` rows (> 0) padded to
    ``width[i]`` (> 0) columns holding ``real_nnz[i]`` non-zeros.  Every
    warp of a slab is identical (full ``width`` iterations, padding
    included), so ONE weighted entry describes it, whatever its size.
    Returns ``(compute, dram, mem_ops, weights, gather)``, one entry per
    slab; ``gather`` is the per-warp texture-miss share of ``dram``.
    """
    width_f = width.astype(np.float64)
    weights = (-(-n_rows // WARP_SIZE)).astype(np.float64)
    compute = width_f * INST_PER_ITER + ROW_SETUP_INSTS
    if k > 1:
        compute = compute + (k - 1) * (width_f * INST_PER_EXTRA_VEC + 1.0)
    per_iter_bytes = coalesced_bytes(WARP_SIZE * value_bytes) + coalesced_bytes(
        WARP_SIZE * 4
    )
    matrix = width_f * per_iter_bytes
    gather = block_gather_dram_bytes(real_nnz / weights, value_bytes, hit, k=k)
    if scattered_y:
        # Permuted output (BRC): writes are scattered, but rows grouped
        # into a block were adjacent in sorted order, so roughly half of
        # each sector is co-written by blockmates.
        y_bytes = scattered_bytes(float(WARP_SIZE)) * 0.5
        if k > 1:
            y_bytes = y_bytes * float(np.ceil(k * value_bytes / SECTOR_BYTES))
    else:
        y_bytes = coalesced_bytes(float(WARP_SIZE * value_bytes * k))
    dram = matrix + gather + y_bytes
    return compute, dram, width_f * 2.0, weights, gather


def ell_work(
    name: str,
    n_rows: int,
    width: int,
    real_nnz: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    scattered_y: bool = False,
    k: int = 1,
) -> KernelWork:
    """Cost of a column-major ELL kernel of ``width`` columns.

    Fully coalesced (the point of ELL) but reads *all* padding: the
    per-warp traffic is ``width`` full iterations whether the rows need
    them or not (see :func:`ell_slabs`).  ``scattered_y`` models
    permuted-output variants (BRC).

    ``k > 1`` batches the launch over a block of ``k`` vectors: the
    padded matrix stream is charged once, gathers widen to the block row,
    and the ``y`` write grows ``k``-fold.  ``k == 1`` is byte-identical
    to the single-vector model.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_rows < 0 or width < 0 or real_nnz < 0:
        raise ValueError("sizes must be non-negative")
    if n_rows == 0 or width == 0:
        return KernelWork.empty(name, precision)
    vb = precision.value_bytes
    hit = x_hit_rate(device, n_cols, precision, profile, k=k)
    compute, dram, mem_ops, weights, gather = ell_slabs(
        np.array([n_rows]),
        np.array([width]),
        np.array([real_nnz]),
        value_bytes=vb,
        hit=hit,
        scattered_y=scattered_y,
        k=k,
    )
    return KernelWork(
        name=name,
        compute_insts=compute,
        dram_bytes=dram,
        mem_ops=mem_ops,
        flops=2.0 * float(real_nnz) * k,
        precision=precision,
        launch=launch_for_threads(n_rows),
        warp_weights=weights,
        k=k,
        # Useful payload excludes the zero padding ELL streams, so the
        # coalescing ratio directly exposes the padding waste.
        hints=CounterHints(
            tex_hit_rate=hit,
            useful_bytes=_spmv_useful_bytes(
                float(real_nnz),
                float(n_rows),
                value_bytes=vb,
                index_bytes_per_elem=4.0,
                profile=profile,
                k=k,
            ),
            tex_miss_bytes=float(gather[0] * weights[0]),
        ),
    )
