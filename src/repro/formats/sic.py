"""SIC format: CSR with Segmented Interleave Combination (Feng et al. [13]).

The one comparison the paper could NOT run: "Since their implementation
was not available, it was not feasible to perform an experimental
performance comparison with ACSR" (Section IX).  This module supplies the
missing comparator from the paper's own description: SIC "put[s] rows
into 3 segments and combine[s] data in each segment by interleaving rows
into blocks", and — like BCCOO/BRC/TCOO — "requires expensive
preprocessing operations such as sorting and re-formatting".

Implementation per that description:

* rows are classified into three segments by length (short / medium /
  long, thresholds at 8 and 64 non-zeros);
* within each segment, consecutive rows are interleaved into 32-row
  blocks stored column-major at the block's max width (an ELL slab per
  block), so a warp reads 32 different rows' k-th elements in one
  coalesced transaction;
* the long segment bounds its block width by splitting rows, BRC-style.

Preprocessing pays the classification scan, the full data re-format, and
a stable per-segment ordering — landing its Figure 4 bill between HYB's
and BRC's, as its design suggests.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES
from ..gpu.kernel import KernelWork
from ..kernels import brc_kernel
from .base import PreprocessReport, SpMVFormat, transfer_report_s
from .brc import split_row_lengths
from .csr import CSRMatrix

#: Segment boundaries on row length (inclusive upper bounds; the last
#: segment is unbounded but width-limited by row splitting).
SEGMENT_BOUNDS = (8, 64)

#: Rows interleaved per block (one warp's worth).
BLOCK_ROWS = 32

#: Width cap for the long segment's blocks.
MAX_LONG_WIDTH = 256


def classify_segments(lengths: np.ndarray) -> np.ndarray:
    """Segment index (0/1/2) per row; empty rows stay in segment 0."""
    lengths = np.asarray(lengths, dtype=np.int64)
    seg = np.zeros(lengths.shape[0], dtype=np.int64)
    seg[lengths > SEGMENT_BOUNDS[0]] = 1
    seg[lengths > SEGMENT_BOUNDS[1]] = 2
    return seg


class SICFormat(SpMVFormat):
    """Three length segments, each interleaved into ELL-style blocks."""

    name = "sic"

    def __init__(
        self,
        csr: CSRMatrix,
        blocks: np.ndarray,
        stored_slots: int,
        segment_rows: tuple[int, int, int],
        preprocess: PreprocessReport,
    ) -> None:
        self.csr = csr
        #: ``(n_blocks, 3)`` table: ``(n_rows, width, real_nnz)`` per
        #: interleave block.
        self.blocks = blocks
        self.stored_slots = stored_slots
        #: Row counts of the short/medium/long segments.
        self.segment_rows = segment_rows
        self.preprocess = preprocess

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "SICFormat":
        """Build from CSR.  Accepts no kwargs; unknown kwargs raise
        ``TypeError``."""
        lengths = csr.nnz_per_row
        seg = classify_segments(lengths)

        tables = [np.zeros((0, 3), dtype=np.int64)]
        stored = 0
        seg_counts = []
        for s in (0, 1, 2):
            members = np.nonzero(seg == s)[0]
            seg_counts.append(int(members.shape[0]))
            seg_lengths = lengths[members]
            if s == 2:
                # Long rows are split so no block exceeds the width cap.
                seg_lengths, _owner = split_row_lengths(
                    seg_lengths, MAX_LONG_WIDTH
                )
            n = int(seg_lengths.shape[0])
            if n == 0:
                continue
            starts = np.arange(0, n, BLOCK_ROWS, dtype=np.int64)
            ends = np.minimum(starts + BLOCK_ROWS, n)
            csum = np.concatenate(([0], np.cumsum(seg_lengths)))
            sums = csum[ends] - csum[starts]
            if s == 0:
                # The *Combination* of SIC: several short rows share one
                # interleave lane, so the block packs to its mean
                # occupancy rather than padding to its max.
                widths = np.maximum(1, -(-sums // BLOCK_ROWS))
                slots = np.full(starts.shape[0], BLOCK_ROWS) * widths
            else:
                widths = np.maximum.reduceat(seg_lengths, starts)
                slots = (ends - starts) * widths
            keep = sums > 0
            tables.append(np.column_stack((ends - starts, widths, sums))[keep])
            stored += int(np.sum(slots[keep]))
        blocks = np.concatenate(tables)

        vb = csr.precision.value_bytes
        device_bytes = (
            stored * (vb + INDEX_BYTES)
            + csr.n_rows * INDEX_BYTES
            + (csr.n_rows + csr.n_cols) * vb
        )
        report = PreprocessReport(
            format_name=cls.name,
            # Classification scan + full interleaved re-format (a
            # gather/scatter per stored slot) + per-segment ordering.
            host_s=(
                DEFAULT_HOST.stream_time(csr.n_rows + 2 * csr.nnz + stored)
                + DEFAULT_HOST.sort_time(seg_counts[2] or 1)
            ),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            padding_fraction=(
                0.0 if stored == 0 else 1.0 - csr.nnz / stored
            ),
            notes=(
                f"segments short/med/long = "
                f"{seg_counts[0]}/{seg_counts[1]}/{seg_counts[2]}, "
                f"blocks={len(blocks)}"
            ),
        )
        return cls(csr, blocks, stored, tuple(seg_counts), report)

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        # Three segment kernels fused into one launch-per-segment pool;
        # modelled as a single pooled execution like the BRC fusion.
        return [
            brc_kernel.fused_work(
                self.blocks,
                name="sic",
                device=device,
                n_cols=self.n_cols,
                precision=self.precision,
                profile=self.csr.gather_profile,
                k=k,
            )
        ]
