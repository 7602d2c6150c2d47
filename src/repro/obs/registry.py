"""A plain-Python metrics registry: counters, gauges, histograms.

The :class:`~repro.obs.profiler.Profiler` feeds launch telemetry into a
:class:`MetricsRegistry`; experiments and the harness may register their
own series alongside.  The design follows the Prometheus client model —
named instruments with optional label sets, get-or-create semantics — but
stores everything in plain Python so a snapshot is always JSON-ready.
Rolling windows on a virtual clock (the serve monitor, SLO burn rates,
the p99 tail rule) are read from a time-ordered :class:`WindowLog`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np


def _key(name: str, labels: dict | None) -> tuple:
    if labels:
        return (name, tuple(sorted(labels.items())))
    return (name, ())


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


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    help: str = ""
    labels: dict = field(default_factory=dict)
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (last write wins)."""

    name: str
    help: str = ""
    labels: dict = field(default_factory=dict)
    value: float = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Streaming distribution summary (count/sum/min/max + buckets).

    ``counts[i]`` tallies observations falling in ``(bounds[i-1],
    bounds[i]]`` (the first bucket covers everything ``<= bounds[0]``);
    ``counts[-1]`` is the overflow bucket past the last bound.
    """

    name: str
    help: str = ""
    labels: dict = field(default_factory=dict)
    bounds: tuple[float, ...] = (
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
    )
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if tuple(self.bounds) != tuple(sorted(self.bounds)):
            raise ValueError("histogram bounds must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Streaming quantile estimate from the bucket counts.

        Walks the cumulative bucket histogram to the bucket containing
        rank ``q * count`` and interpolates linearly inside it (the
        Prometheus ``histogram_quantile`` rule), clamping to the observed
        ``min``/``max``.  An *estimate* — use :func:`exact_quantile` on
        the raw sample when the exact order statistic matters (the
        serving SLO gates do).  ``nan`` when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        seen = 0
        lower = self.min
        for i, upper in enumerate(self.bounds):
            in_bucket = self.counts[i]
            if seen + in_bucket >= rank and in_bucket > 0:
                frac = (rank - seen) / in_bucket
                lo = max(lower, self.min)
                hi = min(upper, self.max)
                if hi < lo:
                    return min(max(self.min, lo), self.max)
                return lo + frac * (hi - lo)
            seen += in_bucket
            lower = upper
        # Overflow bucket: interpolate between the last bound and max.
        in_bucket = self.counts[-1]
        if in_bucket == 0:
            return self.max
        frac = (rank - seen) / in_bucket
        lo = max(lower, self.min)
        return min(lo + frac * (self.max - lo), self.max)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram, in place.

        Both histograms must share the same bucket bounds — merging
        across incompatible bucketings would silently misplace counts.
        Returns ``self`` so merges chain.
        """
        if not isinstance(other, Histogram):
            raise TypeError("can only merge another Histogram")
        if tuple(self.bounds) != tuple(other.bounds):
            raise ValueError(
                "cannot merge histograms with different bounds: "
                f"{tuple(self.bounds)} vs {tuple(other.bounds)}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        return self


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


class MetricsRegistry:
    """Named instruments with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(
                name=name, help=help, labels=dict(labels or {}), **kwargs
            )
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: dict | None = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: dict | None = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        bounds: tuple[float, ...] | None = None,
    ) -> Histogram:
        kwargs = {"bounds": bounds} if bounds is not None else {}
        return self._get_or_create(Histogram, name, help, labels, **kwargs)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument's current state."""
        out: dict = {}
        for metric in self._metrics.values():
            label_suffix = (
                "{"
                + ",".join(f"{k}={v}" for k, v in sorted(metric.labels.items()))
                + "}"
                if metric.labels
                else ""
            )
            key = metric.name + label_suffix
            if isinstance(metric, Histogram):
                out[key] = {
                    "type": "histogram",
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": None if metric.count == 0 else metric.min,
                    "max": None if metric.count == 0 else metric.max,
                    "mean": None if metric.count == 0 else metric.mean,
                    "bounds": list(metric.bounds),
                    "counts": list(metric.counts),
                }
            else:
                kind = "counter" if isinstance(metric, Counter) else "gauge"
                value = metric.value
                out[key] = {
                    "type": kind,
                    "value": None if isinstance(value, float)
                    and math.isnan(value) else value,
                }
        return out
