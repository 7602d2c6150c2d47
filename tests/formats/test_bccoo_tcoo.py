"""BCCOO's auto-tuner and TCOO's tile search."""

import numpy as np
import pytest

from repro.formats.bccoo import (
    BCCOOConfig,
    BCCOOFormat,
    all_configs,
    stored_elements,
)
from repro.formats.csr import CSRMatrix
from repro.formats.tcoo import TCOOFormat
from repro.gpu.device import GTX_TITAN, Precision

from ..conftest import make_powerlaw_csr

FAST_CONFIGS = [
    BCCOOConfig(1, 1, 128, 2, True),
    BCCOOConfig(2, 2, 128, 2, True),
    BCCOOConfig(4, 4, 64, 1, False),
]


@pytest.fixture(scope="module")
def csr():
    return make_powerlaw_csr(n_rows=800, seed=81, max_degree=200)


class TestBccooSearchSpace:
    def test_paper_size(self):
        """'this configuration space has more than 300 different settings'"""
        assert len(all_configs()) > 300

    def test_stored_elements_cover_nnz(self, csr):
        for bh, bw in [(1, 1), (2, 2), (4, 8)]:
            stored = stored_elements(csr, bh, bw)
            assert stored >= csr.nnz
            # blocks are dense bh*bw slabs
            assert stored % (bh * bw) == 0

    def test_one_by_one_blocks_store_exactly_nnz(self, csr):
        assert stored_elements(csr, 1, 1) == csr.nnz

    def test_empty_matrix(self):
        m = CSRMatrix.from_arrays(
            np.zeros(0),
            np.zeros(0, dtype=np.int32),
            np.zeros(3, dtype=np.int64),
            2,
        )
        assert stored_elements(m, 2, 2) == 0


class TestBccooTuner:
    def test_tuning_bill_reported(self, csr):
        f = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS)
        assert f.n_trials == 3
        assert f.preprocess.tuning_fixed_s > 0  # compiles
        assert f.preprocess.tuning_s > 0  # transforms + trials
        assert f.preprocess.total_s > f.preprocess.tuning_fixed_s

    def test_chosen_config_comes_from_space(self, csr):
        f = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS)
        assert f.config in FAST_CONFIGS

    def test_more_configs_cost_more_tuning(self, csr):
        small = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS[:1])
        big = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS)
        assert (
            big.preprocess.tuning_fixed_s
            > small.preprocess.tuning_fixed_s
        )

    def test_empty_space_rejected(self, csr):
        with pytest.raises(ValueError):
            BCCOOFormat.from_csr(csr, configs=[])

    def test_compact_index_traffic(self, csr):
        """BCCOO's point: far less index traffic than plain COO."""
        from repro.formats.coo import COOFormat

        f = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS)
        coo = COOFormat.from_csr(csr)
        if f.stored <= 1.1 * csr.nnz:  # comparable element counts
            assert (
                f.kernel_works(GTX_TITAN)[0].total_dram_bytes
                < coo.kernel_works(GTX_TITAN)[0].total_dram_bytes
            )


class TestTcoo:
    def test_tile_search_picks_candidate(self, csr):
        f = TCOOFormat.from_csr(csr, candidates=(1, 2, 8))
        assert f.n_tiles in (1, 2, 8)

    def test_tuning_scales_with_candidates(self, csr):
        one = TCOOFormat.from_csr(csr, candidates=(1,))
        many = TCOOFormat.from_csr(csr, candidates=tuple(range(1, 9)))
        assert many.preprocess.tuning_s > 3 * one.preprocess.tuning_s

    def test_empty_candidates_rejected(self, csr):
        with pytest.raises(ValueError):
            TCOOFormat.from_csr(csr, candidates=())

    def test_permutation_preserves_product(self, csr, rng):
        f = TCOOFormat.from_csr(csr, candidates=(8,))
        x = rng.standard_normal(csr.n_cols).astype(np.float32)
        np.testing.assert_allclose(
            f.multiply(x), csr.matvec(x), rtol=1e-4, atol=1e-4
        )
