"""Warp packing: the heart of the divergence accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.warp import (
    pack_rows_into_warps,
    shuffle_reduction_steps,
)


class TestPackRows:
    def test_empty(self):
        gang = pack_rows_into_warps(np.zeros(0, dtype=np.int64), 4)
        assert gang.n_warps == 0
        assert gang.divergence_waste == 0.0

    def test_uniform_rows_have_no_divergence(self):
        nnz = np.full(64, 8, dtype=np.int64)
        gang = pack_rows_into_warps(nnz, 8)
        assert gang.n_warps == 16  # 4 rows per warp
        np.testing.assert_array_equal(gang.warp_iters, 1)
        assert gang.divergence_waste == 0.0

    def test_one_hub_row_dominates_its_warp(self):
        nnz = np.full(32, 2, dtype=np.int64)
        nnz[0] = 320  # hub: 40 iterations at vector size 8
        gang = pack_rows_into_warps(nnz, 8)
        assert gang.warp_iters[0] == 40
        # The other warps stay at one iteration.
        assert gang.warp_iters[1:].max() == 1
        assert gang.divergence_waste > 0.5

    def test_rows_per_warp_by_vector_size(self):
        nnz = np.ones(32, dtype=np.int64)
        for v, expected_warps in [(1, 1), (2, 2), (8, 8), (32, 32)]:
            gang = pack_rows_into_warps(nnz, v)
            assert gang.n_warps == expected_warps, v

    def test_trailing_partial_warp(self):
        nnz = np.ones(5, dtype=np.int64)  # 5 rows, 8 rows/warp at v=4
        gang = pack_rows_into_warps(nnz, 4)
        assert gang.n_warps == 1
        assert gang.warp_rows[-1] == 5

    def test_vector_above_warp_size_splits_row(self):
        nnz = np.array([1024], dtype=np.int64)
        gang = pack_rows_into_warps(nnz, 128)  # 4 warps on one row
        assert gang.n_warps == 4
        np.testing.assert_array_equal(gang.warp_iters, 8)  # 256/32

    def test_zero_rows_cost_nothing_extra(self):
        nnz = np.array([0, 0, 0, 0], dtype=np.int64)
        gang = pack_rows_into_warps(nnz, 8)
        assert gang.warp_iters.max() == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            pack_rows_into_warps(np.ones(4, dtype=np.int64), 3)

    def test_rejects_negative_nnz(self):
        with pytest.raises(ValueError):
            pack_rows_into_warps(np.array([-1]), 2)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            pack_rows_into_warps(np.ones((2, 2), dtype=np.int64), 2)

    @given(
        nnz=st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=1,
            max_size=200,
        ),
        v_log=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_properties(self, nnz, v_log):
        """Invariants: nnz conserved; iters bound own rows' needs."""
        v = 1 << v_log
        arr = np.array(nnz, dtype=np.int64)
        gang = pack_rows_into_warps(arr, v)
        assert int(gang.warp_nnz.sum()) == int(arr.sum())
        # useful iterations = sum of per-row ceil(nnz/v)
        expected_useful = int(np.sum(-(-arr // v)))
        assert int(gang.useful_iters.sum()) == expected_useful
        # warp max >= any row's own need; total rows preserved
        assert int(gang.warp_rows.sum()) == arr.shape[0]
        assert 0.0 <= gang.divergence_waste <= 1.0
        # max iters over warps equals global max row need
        if arr.size:
            assert gang.warp_iters.max() == -(-arr.max() // v)


class TestShuffle:
    @pytest.mark.parametrize(
        "v,steps", [(1, 0), (2, 1), (4, 2), (8, 3), (16, 4), (32, 5)]
    )
    def test_log2_steps(self, v, steps):
        assert shuffle_reduction_steps(v) == steps

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            shuffle_reduction_steps(6)
