"""BRC kernel: blocked row-column SpMV (Ashari et al. [1]).

BRC reorders rows by decreasing length and packs them into blocks whose
rows have similar lengths, each block stored ELL-style with its own width.
Padding is tiny (~1% space overhead, Section V) and warps are balanced,
but the output permutation makes ``y`` writes scattered, and the heavy
preprocessing (a full sort plus data reshuffle) is what Figure 4 charges
it for.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import CounterHints, KernelWork
from ..gpu.memory import GatherProfile
from .common import _spmv_useful_bytes, ell_slabs, x_hit_rate


def fused_work(
    blocks: np.ndarray,
    *,
    name: str,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    k: int = 1,
) -> KernelWork:
    """Cost of one BRC-style SpMV: every block in one fused launch.

    ``blocks`` is the ``(n_rows, width, real_nnz)`` table, one row per
    block; blocks with no rows or no width are skipped.  Each block is a
    balanced ELL slab with a permuted (scattered) ``y``
    (:func:`~repro.kernels.common.ell_slabs`), and the hardware runs the
    slabs as one pool of warps.  The result equals pricing each block
    with :func:`~repro.kernels.common.ell_work` and merging the works
    with :func:`~repro.gpu.kernel.merge_concurrent`, float for float:
    the scalars that merge sums with Python ``sum`` are summed the same
    way, in block order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = np.asarray(blocks, dtype=np.int64).reshape(-1, 3)
    if table.size and table.min() < 0:
        raise ValueError("sizes must be non-negative")
    table = table[(table[:, 0] > 0) & (table[:, 1] > 0)]
    if table.shape[0] == 0:
        return KernelWork.empty(name, precision)
    n_rows, width, real_nnz = table.T
    vb = precision.value_bytes
    hit = x_hit_rate(device, n_cols, precision, profile, k=k)
    compute, dram, mem_ops, weights, gather = ell_slabs(
        n_rows, width, real_nnz, value_bytes=vb, hit=hit, scattered_y=True, k=k
    )
    real_nnz_f = real_nnz.astype(np.float64)
    useful = _spmv_useful_bytes(
        real_nnz_f,
        n_rows.astype(np.float64),
        value_bytes=vb,
        index_bytes_per_elem=4.0,
        profile=profile,
        k=k,
    )
    # Every slab streams its padded matrix, so each one carries traffic
    # and enters the DRAM-weighted hit rate.
    block_dram = dram * weights
    return KernelWork(
        name=name,
        compute_insts=compute,
        dram_bytes=dram,
        mem_ops=mem_ops,
        flops=sum((2.0 * real_nnz_f * k).tolist()),
        precision=precision,
        warp_weights=weights,
        k=k,
        hints=CounterHints(
            tex_hit_rate=float(
                sum((hit * block_dram).tolist()) / sum(block_dram.tolist())
            ),
            useful_bytes=float(sum(useful.tolist())),
            tex_miss_bytes=float(sum((gather * weights).tolist())),
        ),
    )
