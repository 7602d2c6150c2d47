"""Plain-Python metric primitives on the caller's virtual clock.

:func:`exact_quantile` gives deterministic order statistics;
:func:`histogram_entry` summarises one sample the way a ``metrics``
record carries it (the serve report's and the profile export's
``metrics`` lines are derived from their run's records with it, when
they are written).  Rolling windows on a virtual clock (the serve
monitor, SLO burn rates, the p99 tail rule) are read from a
time-ordered :class:`WindowLog`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np


def exact_quantile(values, q: float) -> float:
    """Deterministic linear-interpolation quantile of a finite sample.

    Matches ``numpy.percentile``'s default ("linear") method without the
    dependency: for ``n`` sorted values the ``q``-quantile sits at rank
    ``q * (n - 1)`` and interpolates between the two neighbouring order
    statistics.  ``nan`` for an empty sample.  The serving layer's SLO
    report (p50/p95/p99 modelled latency) is computed with this, so the
    gated numbers are exact order statistics, not histogram estimates.
    """
    data = sorted(float(v) for v in values)
    if any(math.isnan(v) for v in data):
        raise ValueError("exact_quantile got a NaN sample")
    return sorted_quantile(data, q)


def sorted_quantile(data, q: float) -> float:
    """:func:`exact_quantile` of an already sorted NaN-free sample."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if not data:
        return math.nan
    if len(data) == 1:
        return data[0]
    if q == 0.0:
        return data[0]
    if q == 1.0:
        return data[-1]
    pos = q * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


#: Bucket bounds (seconds) of a latency histogram.
_LATENCY_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def histogram_entry(values, bounds=_LATENCY_BOUNDS) -> dict:
    """One sample's histogram entry in a ``metrics`` record.

    ``counts[i]`` tallies the values in ``(bounds[i-1], bounds[i]]``
    (the first bucket takes everything ``<= bounds[0]``); ``counts[-1]``
    is the overflow bucket past the last bound.  ``sum`` adds the values
    left to right from ``0.0``, so its bits follow the sample's order;
    ``min``/``max``/``mean`` are ``None`` for an empty sample.
    """
    bounds = tuple(bounds)
    if bounds != tuple(sorted(bounds)):
        raise ValueError("histogram bounds must be sorted")
    values = [float(v) for v in values]
    counts = [0] * (len(bounds) + 1)
    total = 0.0
    for v in values:
        total += v
        counts[next((i for i, b in enumerate(bounds) if v <= b), -1)] += 1
    n = len(values)
    return {
        "type": "histogram",
        "count": n,
        "sum": total,
        "min": min(values) if n else None,
        "max": max(values) if n else None,
        "mean": total / n if n else None,
        "bounds": list(bounds),
        "counts": counts,
    }


def check_finite_positive(name: str, value: float) -> None:
    """Reject a NaN, infinite, zero or negative time knob."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive")


class WindowLog:
    """An append-only, time-ordered log read through rolling windows.

    Time is cut into buckets of ``window_s / n_buckets`` seconds; an
    entry written at ``t_s`` lands in bucket ``floor(t_s / bucket_s)``.
    A read at ``t_s`` over ``w <= window_s`` seconds sees the entries in
    the bucket-aligned window ``[cur - m + 1, cur]`` (``cur`` the read
    time's bucket, ``m = max(1, round(w / bucket_s))``), in append
    order.  Entries must arrive in non-decreasing time, so the window is
    one slice of the log, found by bisecting the bucket column: no
    read changes what a later read sees, and a write that goes back in
    time raises ``ValueError``.  Everything is plain
    arithmetic on the caller's clock — deterministic by construction.

    Each entry carries a value (a latency, say) and an optional
    exemplar; :meth:`count` reads the log as a windowed event counter,
    :meth:`quantiles`/:meth:`exemplar_near` as a windowed distribution
    with *exact* order statistics (:func:`exact_quantile`).  A sealed
    log is read at many times at once by :meth:`windows`.
    """

    def __init__(self, window_s: float, n_buckets: int = 20) -> None:
        check_finite_positive("window_s", window_s)
        if n_buckets < 1:
            raise ValueError("need at least one bucket")
        self.window_s = float(window_s)
        self.n_buckets = int(n_buckets)
        self.bucket_s = self.window_s / self.n_buckets
        self._last_t = 0.0
        self._buckets: list[int] = []
        self._values: list[float] = []
        self._exemplars: list[object] = []
        self._sorted: tuple[int, int, list[float]] = (0, 0, [])

    def __len__(self) -> int:
        return len(self._buckets)

    def _bucket_of(self, t_s: float) -> int:
        if not t_s >= 0:
            raise ValueError("window logs need t_s >= 0")
        return int(math.floor(t_s / self.bucket_s))

    def append(
        self, t_s: float, value: float = 0.0, exemplar: object = None
    ) -> None:
        """Log one entry at ``t_s`` (no earlier than the last one)."""
        bucket = self._bucket_of(t_s)
        if t_s < self._last_t:
            raise ValueError(
                f"window log write at t_s={t_s} is before the last "
                f"write at {self._last_t}"
            )
        value = float(value)
        if math.isnan(value):
            raise ValueError("window logs take no NaN values")
        self._last_t = t_s
        self._buckets.append(bucket)
        self._values.append(value)
        self._exemplars.append(exemplar)

    def _span_buckets(self, window_s: float | None) -> int:
        """``m``: the buckets a read over ``window_s`` spans."""
        w = self.window_s if window_s is None else float(window_s)
        if not 0 < w <= self.window_s * (1 + 1e-12):
            raise ValueError(
                f"read window {w} outside retained window {self.window_s}"
            )
        return max(1, int(round(w / self.bucket_s)))

    def _window(
        self, t_s: float, window_s: float | None = None
    ) -> tuple[int, int, float]:
        """``(lo, hi, span_s)``: the log slice of the window ending at
        ``t_s``, and the bucket-aligned span it covers (clipped to the
        buckets since time 0, so early reads are not diluted)."""
        m = self._span_buckets(window_s)
        cur = self._bucket_of(t_s)
        lo = bisect_left(self._buckets, cur - m + 1)
        hi = bisect_right(self._buckets, cur, lo)
        return lo, hi, min(m, cur + 1) * self.bucket_s

    def windows(
        self, ticks, window_s: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every tick's trailing window in one array pass.

        Returns ``(lo, span_s)`` arrays: the first log entry of
        ``ticks[i]``'s window and the span it covers, as :meth:`_window`
        gives them.  The slice ends at the log's length when the tick
        was read, which the caller notes: entries appended later are at
        or after the tick, so a bisect of its bucket would take them.
        """
        m = self._span_buckets(window_s)
        t = np.asarray(ticks, dtype=np.float64)
        if not np.all(t >= 0):
            raise ValueError("window logs need t_s >= 0")
        cur = np.floor(t / self.bucket_s).astype(np.int64)
        buckets = np.asarray(self._buckets, dtype=np.int64)
        lo = np.searchsorted(buckets, cur - m + 1, side="left")
        return lo, np.minimum(m, cur + 1) * self.bucket_s

    def count(self, t_s: float, window_s: float | None = None) -> int:
        """Entries in the trailing window."""
        lo, hi, _ = self._window(t_s, window_s)
        return hi - lo

    def _sorted_values(self, lo: int, hi: int) -> list[float]:
        # The log only grows, so a slice never changes: consecutive
        # reads of the same window (sample ticks with no new entries)
        # share one sort.
        if self._sorted[:2] != (lo, hi):
            self._sorted = (lo, hi, sorted(self._values[lo:hi]))
        return self._sorted[2]

    def slice_quantiles(self, qs, lo: int, hi: int) -> tuple[float, ...]:
        """Exact ``q``-quantile of log slice ``[lo, hi)`` for each ``q``
        (nan when it is empty), from one sort of the slice."""
        data = self._sorted_values(lo, hi)
        return tuple(sorted_quantile(data, q) for q in qs)

    def quantiles(
        self, qs, t_s: float, window_s: float | None = None
    ) -> tuple[float, ...]:
        """Exact ``q``-quantile of the trailing window for each ``q``
        (nan when it is empty), from one sort of the window."""
        lo, hi, _ = self._window(t_s, window_s)
        return self.slice_quantiles(qs, lo, hi)

    def quantile(
        self, q: float, t_s: float, window_s: float | None = None
    ) -> float:
        """Exact ``q``-quantile of the trailing window (nan if empty)."""
        return self.quantiles((q,), t_s, window_s)[0]

    def exemplar_near(
        self, q: float, t_s: float, window_s: float | None = None
    ) -> object:
        """The exemplar attached to the smallest value >= the exact
        ``q``-quantile of the trailing window (ties broken by append
        order; ``None`` when the window is empty or no qualifying entry
        carries an exemplar)."""
        lo, hi, _ = self._window(t_s, window_s)
        cut = sorted_quantile(self._sorted_values(lo, hi), q)
        best: tuple[float, object] | None = None
        for value, ex in zip(self._values[lo:hi], self._exemplars[lo:hi]):
            if ex is None or value < cut:
                continue
            if best is None or value < best[0]:
                best = (value, ex)
        return None if best is None else best[1]
