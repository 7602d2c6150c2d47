"""Dynamic-parallelism launch economics."""

import pytest

from repro.gpu.device import GTX_TITAN
from repro.gpu.dynamic_parallelism import (
    CONCURRENT_LAUNCH_WAYS,
    OVERFLOW_PENALTY,
    child_launch_overhead_s,
)


class TestOverhead:
    def test_zero_children(self):
        assert child_launch_overhead_s(GTX_TITAN, 0) == 0.0

    def test_amortised_within_limit(self):
        n = 100
        expected = n * GTX_TITAN.dp_launch_overhead_s / CONCURRENT_LAUNCH_WAYS
        assert child_launch_overhead_s(GTX_TITAN, n) == pytest.approx(
            expected
        )

    def test_overflow_cliff(self):
        limit = GTX_TITAN.pending_launch_limit
        at = child_launch_overhead_s(GTX_TITAN, limit)
        over = child_launch_overhead_s(GTX_TITAN, limit + 100)
        # the 100 overflow launches cost more than 100 in-limit ones
        marginal_over = over - at
        marginal_in = at / limit * 100
        assert marginal_over > marginal_in * OVERFLOW_PENALTY / 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            child_launch_overhead_s(GTX_TITAN, -1)

    def test_monotone(self):
        vals = [
            child_launch_overhead_s(GTX_TITAN, n)
            for n in (0, 10, 100, 2048, 4096)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))
