"""The plain-Python metric primitives (quantiles, histogram entries,
window logs) and the ``metrics`` record derived from recorded launches."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    CounterSet,
    WindowLog,
    exact_quantile,
    histogram_entry,
    launch_metrics,
)


class TestExactQuantile:
    def test_order_statistics(self):
        data = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert exact_quantile(data, 0.0) == 1.0
        assert exact_quantile(data, 0.5) == 3.0
        assert exact_quantile(data, 1.0) == 5.0

    def test_linear_interpolation_between_ranks(self):
        # Two samples: the q-quantile sits at fraction q between them.
        assert exact_quantile([0.0, 10.0], 0.95) == 9.5
        assert exact_quantile([0.0, 10.0], 0.25) == 2.5

    def test_matches_numpy_percentile(self):
        import numpy as np

        rng = np.random.default_rng(3)
        data = rng.random(101).tolist()
        for q in (0.05, 0.5, 0.95, 0.99):
            assert math.isclose(
                exact_quantile(data, q),
                float(np.percentile(data, 100 * q)),
                rel_tol=1e-12,
            )

    def test_single_sample_is_every_quantile(self):
        assert exact_quantile([7.0], 0.99) == 7.0

    def test_empty_sample_is_nan(self):
        assert math.isnan(exact_quantile([], 0.5))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            exact_quantile([1.0], 1.5)

    def test_extremes_are_min_and_max(self):
        data = [9.0, 2.0, 7.0, 4.0]
        assert exact_quantile(data, 0.0) == 2.0
        assert exact_quantile(data, 1.0) == 9.0

    def test_nan_sample_rejected(self):
        with pytest.raises(ValueError):
            exact_quantile([1.0, math.nan, 2.0], 0.5)

    def test_accepts_any_iterable(self):
        assert exact_quantile((v for v in (3.0, 1.0)), 1.0) == 3.0


def launch(time_s, occupancy=0.5, **fields):
    """One recorded launch; the metrics record reads only a few fields."""
    values = dict(
        name="k", device="d", n_launches=1, k=1, time_s=time_s,
        launch_overhead_s=0.0, compute_s=0.0, memory_s=time_s,
        critical_path_s=time_s, dram_bytes=0.0, flops=0.0, n_warps=1,
        achieved_occupancy=occupancy, warp_execution_efficiency=1.0,
        gld_coalescing_ratio=1.0, tex_hit_rate=None,
    )
    return CounterSet(**{**values, **fields})


class TestCounter:
    """A ``metrics`` record's counters total a field over the launches."""

    def test_inc(self):
        metrics = launch_metrics([
            launch(1e-4, dram_bytes=3.0),
            launch(2e-4, dram_bytes=4.0, n_launches=2),
        ])
        assert metrics["launches_total"] == {"type": "counter", "value": 3.0}
        assert metrics["dram_bytes_total"]["value"] == 7.0
        # Float sums from 0.0, in launch order.
        assert metrics["device_time_seconds_total"]["value"] == (
            (0.0 + 1e-4) + 2e-4
        )


class TestGauge:
    """A ``metrics`` record's gauges read the last launch."""

    def test_set(self):
        metrics = launch_metrics([launch(1e-4, 0.25), launch(1e-4, 0.75)])
        gauge = metrics["achieved_occupancy"]
        assert gauge == {"type": "gauge", "value": 0.75}
        assert metrics["warp_execution_efficiency"]["value"] == 1.0


class TestRegistry:
    """A whole ``metrics`` record, derived from the launches."""

    def test_snapshot_is_json_ready(self):
        metrics = launch_metrics([launch(1e-5), launch(2.0)])
        assert json.loads(json.dumps(metrics, allow_nan=False)) == metrics
        assert list(metrics) == [
            "launches_total",
            "dram_bytes_total",
            "flops_total",
            "device_time_seconds_total",
            "dp_children_total",
            "dp_overflow_total",
            "launch_duration_seconds",
            "achieved_occupancy",
            "warp_execution_efficiency",
            "gld_coalescing_ratio",
        ]
        assert metrics["launch_duration_seconds"]["counts"] == [
            0, 1, 0, 0, 0, 0, 0, 1
        ]
        assert launch_metrics([]) == {}


class TestHistogram:
    def test_observe_and_stats(self):
        h = histogram_entry((0.5, 5.0, 50.0, 500.0), bounds=(1.0, 10.0, 100.0))
        assert h["count"] == 4
        assert h["sum"] == ((0.0 + 0.5) + 5.0 + 50.0) + 500.0
        assert h["min"] == 0.5 and h["max"] == 500.0
        assert h["mean"] == h["sum"] / 4

    def test_buckets(self):
        # <=1.0 holds two (1.0 itself included), (1.0, 10.0] holds one,
        # overflow holds one.
        h = histogram_entry((0.5, 1.0, 5.0, 50.0), bounds=(1.0, 10.0))
        assert h["counts"] == [2, 1, 1]
        assert h["bounds"] == [1.0, 10.0]

    def test_empty_sample(self):
        h = histogram_entry((), bounds=(1.0,))
        assert h["count"] == 0 and h["sum"] == 0.0
        assert h["min"] is None and h["max"] is None and h["mean"] is None
        assert h["counts"] == [0, 0]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            histogram_entry((1.0,), bounds=(10.0, 1.0))

    def test_default_bounds_sorted(self):
        bounds = histogram_entry(())["bounds"]
        assert bounds == sorted(bounds)


def array_read(log, t_s):
    """``(lo, hi, span_s)`` at ``t_s`` of a sealed log, via the array
    pass; nothing is appended after the read, so the slice ends at the
    log's length."""
    (lo,), (span,) = log.windows([t_s])
    return int(lo), len(log), float(span)


def array_rate(log, t_s):
    lo, hi, span = array_read(log, t_s)
    return (hi - lo) / span


def array_values(log, t_s):
    """The window's values, as the log stores them."""
    lo, hi, _ = array_read(log, t_s)
    return tuple(log._values[lo:hi])


class TestWindowedCounter:
    """The window log read as an event counter (count and rate)."""

    def test_total_and_rate_in_window(self):
        c = WindowLog(window_s=1.0, n_buckets=10)
        c.append(0.05)
        c.append(0.45)
        c.append(0.45)
        c.append(0.95)
        assert c.count(0.95) == 4
        assert array_rate(c, 0.95) == pytest.approx(4.0)
        assert len(c) == 4

    def test_old_buckets_age_out(self):
        c = WindowLog(window_s=1.0, n_buckets=10)
        c.append(0.05)
        # 0.05 s is more than one window behind 1.55 s.
        assert c.count(1.55) == 0
        assert len(c) == 1

    def test_sub_window_read(self):
        c = WindowLog(window_s=1.0, n_buckets=10)
        c.append(0.05)
        c.append(0.95)
        assert c.count(0.95, window_s=0.2) == 1

    def test_rate_denominator_clipped_early(self):
        # At t=0.05 only one bucket (0.1 s) has elapsed: a single event
        # reads as 10/s, not 1/s diluted over the unseen window.
        c = WindowLog(window_s=1.0, n_buckets=10)
        c.append(0.05)
        assert array_rate(c, 0.05) == pytest.approx(10.0)

    def test_negative_time_rejected(self):
        c = WindowLog(window_s=1.0)
        with pytest.raises(ValueError):
            c.append(-0.1)
        with pytest.raises(ValueError):
            c.count(math.nan)

    def test_oversized_read_window_rejected(self):
        c = WindowLog(window_s=1.0)
        with pytest.raises(ValueError):
            c.count(0.5, window_s=2.0)

    def test_out_of_order_write_raises(self):
        c = WindowLog(window_s=1.0, n_buckets=10)
        c.append(0.35)
        c.append(0.35)  # equal times are in order
        with pytest.raises(ValueError, match="before the last write"):
            c.append(0.3)  # same bucket, earlier time
        with pytest.raises(ValueError, match="before the last write"):
            c.append(0.05)
        assert c.count(0.4) == 2  # the rejected writes left no trace

    @pytest.mark.parametrize(
        "window_s", [0.0, -1.0, math.nan, math.inf]
    )
    def test_window_must_be_finite_and_positive(self, window_s):
        with pytest.raises(ValueError, match="finite and positive"):
            WindowLog(window_s)


class TestWindowedHistogram:
    """The window log read as a distribution (exact quantiles)."""

    def test_window_quantile_is_exact(self):
        h = WindowLog(window_s=1.0, n_buckets=10)
        for i, v in enumerate((5.0, 1.0, 3.0, 2.0, 4.0)):
            h.append(0.1 * i, v)
        assert h.quantile(0.5, 0.5) == 3.0
        assert h.quantiles((0.0, 0.5, 0.95), 0.5) == (
            1.0, 3.0, exact_quantile((5.0, 1.0, 3.0, 2.0, 4.0), 0.95)
        )
        assert array_values(h, 0.5) == (5.0, 1.0, 3.0, 2.0, 4.0)
        assert h.count(0.5) == 5
        # A read of an earlier window sees only that window's entries.
        assert h.quantile(0.5, 0.05) == 5.0

    def test_samples_age_out(self):
        h = WindowLog(window_s=1.0, n_buckets=10)
        h.append(0.05, 100.0)
        h.append(1.25, 1.0)
        assert array_values(h, 1.25) == (1.0,)
        assert math.isnan(h.quantile(0.5, 3.0))
        assert len(h) == 2

    def test_values_in_slice_then_insertion_order(self):
        h = WindowLog(window_s=1.0, n_buckets=10)
        h.append(0.05, 1.0)
        h.append(0.35, 3.0)
        h.append(0.35, 2.0)
        # Bucket order (0.0s slice before 0.3s slice), then insertion.
        assert array_values(h, 0.4) == (1.0, 3.0, 2.0)

    def test_nan_value_rejected(self):
        h = WindowLog(window_s=1.0)
        with pytest.raises(ValueError, match="NaN"):
            h.append(0.1, math.nan)


class TestArrayWindows:
    """:meth:`WindowLog.windows` against scalar reads of a cut-back log."""

    @given(
        n_buckets=st.integers(min_value=1, max_value=6),
        steps=st.lists(
            st.integers(min_value=0, max_value=40), min_size=0, max_size=30
        ),
        values=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=30, max_size=30
        ),
        tick_steps=st.lists(
            st.integers(min_value=1, max_value=40), min_size=1, max_size=12
        ),
        on_entries=st.lists(st.integers(min_value=0, max_value=29),
                            max_size=4),
        window_frac=st.sampled_from([None, 0.5, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reads_of_the_truncated_log(
        self, n_buckets, steps, values, tick_steps, on_entries, window_frac
    ):
        # Times are multiples of 1/8 of a bucket, so ticks land exactly
        # on bucket edges and on entry times as well as between them.
        window_s = 1.0
        bucket_s = window_s / n_buckets
        grain = bucket_s / 8
        times, t = [], 0
        for step in steps:
            t += step
            times.append(t * grain)
        ticks, t = [], 0
        for step in tick_steps:
            t += step
            ticks.append(t * grain)
        ticks += [times[i] for i in on_entries if i < len(times)]
        ticks = sorted(set(ticks))
        end = max(times + ticks) + grain  # a final tick after every entry
        read_w = None if window_frac is None else window_s * window_frac

        log = WindowLog(window_s, n_buckets)
        for ts, v in zip(times, values):
            log.append(ts, v)
        # A tick sees what was logged before it; the final one sees all.
        lengths = [sum(1 for ts in times if ts < tick) for tick in ticks]
        lengths.append(len(times))
        reads = ticks + [end]
        lo, span = log.windows(reads, read_w)

        m = n_buckets if read_w is None else max(
            1, round(read_w / bucket_s)
        )
        for i, (tick, length) in enumerate(zip(reads, lengths)):
            cut = WindowLog(window_s, n_buckets)
            for ts, v in zip(times[:length], values):
                cut.append(ts, v)
            assert length - lo[i] == cut.count(tick, read_w)
            cur = math.floor(tick / bucket_s)
            assert span[i] == min(m, cur + 1) * bucket_s
            qs = (0.0, 0.5, 0.95, 0.99, 1.0)
            got = log.slice_quantiles(qs, int(lo[i]), length)
            want = cut.quantiles(qs, tick, read_w)
            assert [g if g == g else None for g in got] == [
                w if w == w else None for w in want
            ]

    def test_empty_log_and_bad_ticks(self):
        log = WindowLog(window_s=1.0, n_buckets=4)
        lo, span = log.windows([0.1, 2.0])
        assert lo.tolist() == [0, 0]
        assert span.tolist() == [0.25, 1.0]
        with pytest.raises(ValueError, match="t_s >= 0"):
            log.windows([math.nan])
        with pytest.raises(ValueError, match="outside retained window"):
            log.windows([0.1], window_s=2.0)
