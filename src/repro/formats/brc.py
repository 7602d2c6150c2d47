"""BRC format: Blocked Row-Column (Ashari et al. [1], ICS'14).

BRC splits long rows into segments of bounded width, sorts the resulting
(virtual) rows by decreasing length, and packs consecutive sorted rows
into warp-sized blocks, each stored ELL-style at its own width.  Because a
block's rows have near-identical lengths after sorting, padding is ~1%
(Section V), every warp is balanced, and no block is longer than
``MAX_BLOCK_WIDTH`` — row splitting is what removes the power-law
straggler.  The costs are the sort, the data reshuffle into blocked
layout, permuted (scattered) ``y`` writes, and atomic combines for split
rows — Figure 4 prices BRC's preprocessing at ~87 SpMVs.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES
from ..gpu.kernel import KernelWork
from ..kernels import brc_kernel
from .base import PreprocessReport, SpMVFormat, transfer_report_s
from .csr import CSRMatrix

#: Rows per block — one warp processes one block row-parallel.
BLOCK_ROWS = 32

#: Rows longer than this are split into segments (BRC's load-balancing
#: trick); segments of one row are combined with atomics.
MAX_BLOCK_WIDTH = 256


def split_row_lengths(lengths: np.ndarray, max_width: int = MAX_BLOCK_WIDTH):
    """Split long rows into bounded-width virtual rows.

    Returns ``(virtual_lengths, virtual_owner)`` where ``virtual_owner``
    maps each virtual row back to its source row.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    pieces = np.maximum(1, -(-lengths // max_width))
    owner = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), pieces)
    total = int(pieces.sum())
    # Each piece gets max_width except the last piece of a row.
    piece_index = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(pieces) - pieces, pieces
    )
    last = piece_index == np.repeat(pieces - 1, pieces)
    vlen = np.where(
        last,
        np.repeat(lengths, pieces) - piece_index * max_width,
        max_width,
    )
    return vlen, owner


class BRCFormat(SpMVFormat):
    """Row-sorted, block-padded layout with a permuted output."""

    name = "brc"

    def __init__(
        self,
        csr: CSRMatrix,
        perm: np.ndarray,
        blocks: np.ndarray,
        stored_slots: int,
        preprocess: PreprocessReport,
    ) -> None:
        self.csr = csr
        #: ``perm[i]`` is the original index of the i-th sorted row.
        self.perm = perm
        #: ``(n_blocks, 3)`` table: ``(n_rows, width, real_nnz)`` per block.
        self.blocks = blocks
        self.stored_slots = stored_slots
        self.preprocess = preprocess

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "BRCFormat":
        """Build from CSR.  Accepts no kwargs; unknown kwargs raise
        ``TypeError``."""
        lengths = csr.nnz_per_row
        vlen, _owner = split_row_lengths(lengths)
        # Stable descending sort keeps ties in row order, as the reference
        # implementation does.
        perm = np.argsort(-vlen, kind="stable")
        sorted_lengths = vlen[perm]

        n_rows = csr.n_rows
        n_virtual = int(vlen.shape[0])
        starts = np.arange(0, n_virtual, BLOCK_ROWS, dtype=np.int64)
        ends = np.minimum(starts + BLOCK_ROWS, n_virtual)
        # Descending sort means each block's first row is its widest, and
        # the first zero-width block marks the start of the empty tail.
        widths = sorted_lengths[starts] if starts.size else starts
        empty = np.flatnonzero(widths == 0)
        cut = int(empty[0]) if empty.size else starts.size
        starts, ends, widths = starts[:cut], ends[:cut], widths[:cut]
        csum = np.concatenate(([0], np.cumsum(sorted_lengths)))
        sums = csum[ends] - csum[starts]
        blocks = np.column_stack((ends - starts, widths, sums))
        stored = int(np.sum((ends - starts) * widths))

        vb = csr.precision.value_bytes
        device_bytes = (
            stored * (vb + INDEX_BYTES)
            + n_rows * INDEX_BYTES  # permutation
            + (n_rows + csr.n_cols) * vb
        )
        report = PreprocessReport(
            format_name=cls.name,
            host_s=(
                DEFAULT_HOST.sort_time(n_virtual)  # (split) row-length sort
                + DEFAULT_HOST.stream_time(2 * csr.nnz + stored)  # reshuffle
            ),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            padding_fraction=0.0 if stored == 0 else 1.0 - csr.nnz / stored,
            notes=f"blocks={len(blocks)}",
        )
        return cls(csr, perm, blocks, stored, report)

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        # The blocks are processed by one fused kernel launch.
        return [
            brc_kernel.fused_work(
                self.blocks,
                name="brc",
                device=device,
                n_cols=self.n_cols,
                precision=self.precision,
                profile=self.csr.gather_profile,
                k=k,
            )
        ]
