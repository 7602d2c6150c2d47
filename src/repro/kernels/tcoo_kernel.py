"""TCOO kernel: tile-COO SpMV (Yang et al. [28]).

TCOO partitions the matrix into column tiles sized so each tile's slice of
``x`` fits the texture cache, giving near-perfect gather hit rates at the
cost of per-element row+col indices and a cross-tile accumulation pass.
The best tile count is found by exhaustive search (Section V), which is
where its ~3k-SpMV preprocessing bill comes from.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.memory import GatherProfile
from .common import boundaries_per_warp, elementwise_work

#: Gather hit rate inside a tile whose x-slice fits the texture cache.
TILE_HIT_RATE = 0.97


def work(
    nnz: int,
    n_rows: int,
    n_tiles: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    k: int = 1,
) -> KernelWork:
    """Cost model for one tiled-COO SpMV (all tiles, one launch).

    Tiling (``n_tiles > 1``) swaps in the tiled texture hit rate.  Each
    tile spans the rows again, so the launch sees ``n_rows * n_tiles``
    spanned rows; the only per-tile term is the per-warp row-boundary
    count :func:`~repro.kernels.common.boundaries_per_warp` derives from
    them, which saturates at 32 (one per lane).  Past that point every
    tile count is the same launch (see :func:`launch_key`).
    """
    if n_tiles < 1:
        raise ValueError("need at least one tile")
    return elementwise_work(
        f"tcoo/{n_tiles}t",
        total_elements=nnz,
        rows_spanned=n_rows * n_tiles,
        device=device,
        n_cols=n_cols,
        precision=precision,
        profile=profile,
        index_bytes_per_elem=8.0,
        reduction=True,
        hit_rate_override=TILE_HIT_RATE if n_tiles > 1 else None,
        k=k,
    )


def launch_key(nnz: int, n_rows: int, n_tiles: int) -> tuple[float, bool]:
    """What :func:`work`'s modelled time reads of ``n_tiles``.

    The tile count enters the launch only as the per-warp boundary count
    of ``n_rows * n_tiles`` spanned rows and as the tiled hit-rate
    override; the work's name and useful-byte hint also carry it, but the
    simulator reads neither.  Tile counts with equal keys therefore give
    bit-equal trial times.
    """
    return (boundaries_per_warp(nnz, n_rows * n_tiles), n_tiles > 1)
