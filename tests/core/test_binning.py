"""Row binning: the exact bin boundaries of Section III-A."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.binning import (
    bin_index_of,
    bin_range,
    binning_scan_work,
    compute_binning,
)
from repro.gpu.device import Precision


class TestBinIndex:
    @pytest.mark.parametrize(
        "nnz,expected",
        [
            (0, 0),
            (1, 1),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (33, 6),
            (64, 6),
            (65, 7),
            (1 << 20, 20),
            ((1 << 20) + 1, 21),
        ],
    )
    def test_paper_boundaries(self, nnz, expected):
        """Bin 1 holds 1-2, bin 2 holds 3-4, bin 3 holds 5-8, ..."""
        assert bin_index_of(nnz) == expected

    def test_vectorised_matches_scalar(self):
        nnz = np.arange(0, 5000)
        vec = bin_index_of(nnz)
        assert all(vec[i] == bin_index_of(int(i)) for i in range(0, 5000, 37))

    def test_exact_around_every_power_of_two(self):
        """``ceil(log2(n))`` is the bit length of ``n - 1``, at and next to
        every power of two that float64 still holds exactly."""
        nnz = sorted({max(0, (1 << k) + d) for k in range(53) for d in (-1, 0, 1)})
        want = [0 if n == 0 else max(1, (n - 1).bit_length()) for n in nnz]
        np.testing.assert_array_equal(bin_index_of(np.array(nnz)), want)
        assert [bin_index_of(n) for n in nnz] == want

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bin_index_of(np.array([-1]))

    @given(st.integers(min_value=1, max_value=2**40))
    @settings(max_examples=100)
    def test_range_consistency(self, nnz):
        """nnz always falls inside its own bin's range."""
        b = bin_index_of(nnz)
        lo, hi = bin_range(b)
        assert lo <= nnz <= hi

    def test_bin_ranges_are_contiguous(self):
        prev_hi = 0
        for b in range(1, 20):
            lo, hi = bin_range(b)
            assert lo == prev_hi + 1
            assert hi == (1 << b)
            prev_hi = hi

    def test_bin_range_rejects_zero(self):
        with pytest.raises(ValueError):
            bin_range(0)


class TestComputeBinning:
    def test_partition_is_complete_and_disjoint(self):
        rng = np.random.default_rng(0)
        nnz = rng.integers(0, 500, 3000)
        binning = compute_binning(nnz)
        all_rows = np.concatenate(binning.rows_by_bin) if binning.n_bins else np.array([])
        # every non-empty row appears exactly once
        nonempty = np.nonzero(nnz > 0)[0]
        np.testing.assert_array_equal(np.sort(all_rows), nonempty)

    def test_rows_within_bin_sorted(self):
        rng = np.random.default_rng(1)
        nnz = rng.integers(1, 100, 500)
        binning = compute_binning(nnz)
        for rows in binning.rows_by_bin:
            assert np.all(np.diff(rows) > 0)

    def test_bin_membership_respects_ranges(self):
        rng = np.random.default_rng(2)
        nnz = rng.integers(1, 2000, 1000)
        binning = compute_binning(nnz)
        for b, rows in zip(binning.bin_ids, binning.rows_by_bin):
            lo, hi = bin_range(b)
            assert np.all((nnz[rows] >= lo) & (nnz[rows] <= hi))

    def test_counts(self):
        nnz = np.array([1, 2, 3, 4, 5, 8, 9])
        binning = compute_binning(nnz)
        assert binning.counts == {1: 2, 2: 2, 3: 2, 4: 1}

    def test_rows_in_bins_above(self):
        nnz = np.array([1, 3, 5, 9, 100])
        binning = compute_binning(nnz)
        assert binning.rows_in_bins_above(2) == 3
        assert binning.rows_in_bins_above(100) == 0

    def test_empty_matrix(self):
        binning = compute_binning(np.zeros(10, dtype=np.int64))
        assert binning.n_bins == 0
        assert binning.max_bin == 0

    def test_single_bin(self):
        binning = compute_binning(np.full(64, 7))
        assert binning.bin_ids == (3,)


class TestScanWork:
    def test_scales_with_rows(self):
        small = binning_scan_work(1000, Precision.SINGLE)
        big = binning_scan_work(100_000, Precision.SINGLE)
        assert big.total_dram_bytes > 50 * small.total_dram_bytes

    def test_empty(self):
        w = binning_scan_work(0, Precision.SINGLE)
        assert w.n_warps == 0

    def test_no_flops(self):
        assert binning_scan_work(100, Precision.SINGLE).flops == 0.0
