"""The pieces both serve-run observers share (:mod:`repro.obs.observer`).

The p99-tail rule is checked against an independent oracle: a plain
list of the earlier samples in the same bucket-aligned window, their
:func:`exact_quantile`, and the arm threshold.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.observer import P99TailRule, check_window
from repro.obs.registry import exact_quantile


def oracle(stream, window_s, n_buckets, min_samples):
    """``(is_tail, window_p99)`` per sample, from a plain sample list."""
    bucket_s = window_s / n_buckets
    earlier: list[tuple[int, float]] = []  # (slice, latency)
    out = []
    for t, latency in stream:
        cur = math.floor(t / bucket_s)
        window = [v for s, v in earlier if cur - n_buckets < s <= cur]
        p99 = (
            exact_quantile(window, 0.99)
            if len(window) >= min_samples
            else None
        )
        out.append((p99 is not None and latency > p99, p99))
        earlier.append((cur, latency))
    return out


class TestP99TailRule:
    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.05),
                st.floats(min_value=1e-6, max_value=1e-2),
            ),
            max_size=120,
        ),
        window_s=st.sampled_from((1e-3, 5e-3, 0.02)),
        n_buckets=st.integers(min_value=1, max_value=20),
        min_samples=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_list_oracle(
        self, samples, window_s, n_buckets, min_samples
    ):
        # (completion_s, rid) order: time first, ties by position.
        stream = sorted(samples, key=lambda s: s[0])
        rule = P99TailRule(window_s, n_buckets, min_samples)
        got = [rule.observe(t, latency) for t, latency in stream]
        assert got == oracle(stream, window_s, n_buckets, min_samples)

    def test_unarmed_rule_never_flags(self):
        rule = P99TailRule(1.0, 10, 3)
        assert rule.observe(0.0, 1.0) == (False, None)
        assert rule.observe(0.1, 5.0) == (False, None)
        assert rule.observe(0.2, 9.0) == (False, None)
        is_tail, p99 = rule.observe(0.3, 10.0)
        assert is_tail and p99 == exact_quantile([1.0, 5.0, 9.0], 0.99)

    def test_exemplars_ride_on_the_histogram(self):
        rule = P99TailRule(1.0, 10, 1)
        rule.observe(0.0, 1.0, exemplar="a")
        rule.observe(0.1, 2.0, exemplar="b")
        assert rule.log.exemplar_near(0.99, 0.1) == "b"


class TestCheckWindow:
    @pytest.mark.parametrize(
        "window_s", [0.0, -1.0, math.nan, math.inf, -math.inf]
    )
    def test_window_must_be_finite_and_positive(self, window_s):
        with pytest.raises(ValueError, match="finite and positive"):
            check_window(window_s, 20, 16)

    def test_counts_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            check_window(1.0, 0, 16)
        with pytest.raises(ValueError):
            check_window(1.0, 20, 0)
        check_window(1.0, 1, 1)
