"""Equations 2-4 and the summary statistics."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.harness.metrics import (
    BreakEven,
    arithmetic_mean,
    break_even,
    geometric_mean,
    speedup,
    spmv_gflops,
)


class TestGflops:
    def test_two_flops_per_nnz(self):
        assert spmv_gflops(1_000_000, 1e-3) == pytest.approx(2.0)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            spmv_gflops(10, 0.0)


class TestSpeedup:
    def test_direction(self):
        assert speedup(2.0, 1.0) == 2.0
        assert speedup(1.0, 2.0) == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)


class TestBreakEven:
    def test_equation_four(self):
        """PT_A=100, ST_A=1; PT_ACSR=2, ST_ACSR=3 -> n = 98/2 = 49."""
        be = break_even(100.0, 1.0, 2.0, 3.0)
        assert be.iterations == pytest.approx(49.0)
        assert not be.never

    def test_slower_format_never_catches_up(self):
        be = break_even(100.0, 5.0, 2.0, 3.0)
        assert be.never
        assert be.render() == "∞"

    def test_equal_st_cheaper_pt_wins_immediately(self):
        be = break_even(1.0, 3.0, 2.0, 3.0)
        assert be.iterations == 0.0

    def test_faster_and_cheaper_wins_from_start(self):
        be = break_even(1.0, 1.0, 2.0, 3.0)
        assert be.iterations == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            break_even(float("nan"), 1.0, 1.0, 1.0)

    def test_render_large(self):
        assert "e" in BreakEven(iterations=5e7).render()

    @given(
        pt_a=st.floats(min_value=0, max_value=1e3),
        st_a=st.floats(min_value=1e-6, max_value=10),
        pt_b=st.floats(min_value=0, max_value=1e3),
        st_b=st.floats(min_value=1e-6, max_value=10),
    )
    # One-ulp ST gap: break-even at n ~ 7.1e21, where both totals are
    # ~7.1e15 and one ulp of them is 1.0.
    @example(pt_a=1.5, st_a=1e-6, pt_b=0.0, st_b=1.0000000000000002e-06)
    def test_break_even_point_is_consistent(self, pt_a, st_a, pt_b, st_b):
        """At n just past break-even, format A's total really is lower.

        Past break-even A leads by ``st_b - st_a`` per iteration, which
        can be far below the totals' rounding, so the slack is a few ulp
        of the totals (n's quotient, two products and two sums)."""
        be = break_even(pt_a, st_a, pt_b, st_b)
        if be.never:
            return
        n = be.iterations + 1.0
        total_a = pt_a + n * st_a
        total_acsr = pt_b + n * st_b
        assert total_a <= total_acsr + 4 * math.ulp(max(total_a, total_acsr))


class TestMeans:
    def test_arithmetic(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0

    def test_geometric(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_log_identity(self):
        vals = [0.5, 2.0, 8.0]
        expected = math.exp(sum(math.log(v) for v in vals) / 3)
        assert geometric_mean(vals) == pytest.approx(expected)
