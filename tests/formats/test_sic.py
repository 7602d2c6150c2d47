"""SIC: segment classification and interleave blocks."""

import numpy as np
import pytest

from repro.formats.sic import (
    BLOCK_ROWS,
    MAX_LONG_WIDTH,
    SEGMENT_BOUNDS,
    SICFormat,
    classify_segments,
)
from repro.gpu.device import GTX_TITAN

from ..conftest import make_powerlaw_csr


@pytest.fixture(scope="module")
def sic():
    return SICFormat.from_csr(
        make_powerlaw_csr(n_rows=3000, seed=201, max_degree=900)
    )


class TestClassify:
    def test_boundaries(self):
        lengths = np.array([0, 1, 8, 9, 64, 65, 1000])
        seg = classify_segments(lengths)
        np.testing.assert_array_equal(seg, [0, 0, 0, 1, 1, 2, 2])


class TestStructure:
    def test_three_segments_reported(self, sic):
        assert len(sic.segment_rows) == 3
        assert sum(sic.segment_rows) == sic.n_rows

    def test_block_widths_respect_segments(self, sic):
        for n_rows, width, _ in sic.blocks:
            assert n_rows <= BLOCK_ROWS
            assert width <= MAX_LONG_WIDTH

    def test_stored_covers_nnz(self, sic):
        assert sic.stored_slots >= sic.nnz
        total_block_nnz = sum(real for _, _, real in sic.blocks)
        assert total_block_nnz == sic.nnz

    def test_moderate_padding(self, sic):
        """Interleaving without full sorting pads more than BRC but far
        less than plain ELL."""
        assert sic.preprocess.padding_fraction < 0.6

    def test_preprocessing_between_hyb_and_brc(self):
        """The paper groups SIC with the expensive-preprocessing formats."""
        from repro.formats.brc import BRCFormat
        from repro.formats.hyb import HYBFormat

        m = make_powerlaw_csr(n_rows=20_000, seed=207, max_degree=1500)
        sic = SICFormat.from_csr(m)
        hyb = HYBFormat.from_csr(m)
        assert sic.preprocess.total_s > hyb.preprocess.total_s

    def test_single_fused_launch(self, sic):
        works = sic.kernel_works(GTX_TITAN)
        assert len(works) == 1
        assert works[0].flops == pytest.approx(2.0 * sic.nnz)

