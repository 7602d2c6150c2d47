"""Declarative SLOs with multi-window burn-rate alerting.

The serving monitor evaluates objectives continuously on the serve
engine's *virtual* clock.  An objective is either a latency target
(``p99 <= 5ms`` of admitted-query latency over a rolling window) or an
availability target (``availability >= 0.99``: the admitted fraction of
arrivals).  Alerting follows the SRE multi-window burn-rate recipe,
scaled from wall-clock hours down to simulated milliseconds: each
objective carries an *error budget* (for ``p99 <= X`` the budget is the
1% of requests allowed above ``X``; for ``availability >= Y`` it is
``1 - Y``), and an alert fires when the budget is being consumed faster
than a threshold multiple on **both** a fast leg (a short window, for
responsiveness) and the slow leg (the objective's own window, for
noise immunity).  Every transition is appended to an immutable event
log — nothing here mutates the serve engine's state.

Grammar accepted by :func:`parse_slo` (also the ``--slo`` CLI flag)::

    p99<=0.005@10s          # seconds, explicit window
    p95 <= 2.5ms @ 40ms     # spaces + ms/us units allowed
    availability>=0.99@5ms  # admitted fraction of arrivals

Objectives and windows are in virtual seconds throughout.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .registry import WindowLog, check_finite_positive

__all__ = [
    "SLO",
    "BurnRatePolicy",
    "AlertEvent",
    "SLOEngine",
    "check_slos",
    "parse_slo",
]

_UNIT_S = {"s": 1.0, "ms": 1e-3, "us": 1e-6}

_SLO_RE = re.compile(
    r"""^\s*
    (?P<metric>p50|p90|p95|p99|availability)
    \s*(?P<op><=|>=)\s*
    (?P<value>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)
    \s*(?P<unit>s|ms|us)?
    \s*@\s*
    (?P<window>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)
    \s*(?P<wunit>s|ms|us)?
    \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class SLO:
    """One declarative objective over a rolling window of virtual time.

    ``metric`` is ``"p50"``/``"p90"``/``"p95"``/``"p99"`` (latency, op
    ``<=``, threshold in seconds) or ``"availability"`` (op ``>=``,
    threshold a fraction in (0, 1]).  ``budget`` is the tolerable bad
    fraction: ``1 - q`` for a latency quantile, ``1 - target`` for
    availability.
    """

    metric: str
    op: str
    threshold: float
    window_s: float
    spec: str  # the raw string the objective was parsed from

    def __post_init__(self) -> None:
        check_finite_positive("SLO window", self.window_s)
        if self.metric == "availability":
            if self.op != ">=":
                raise ValueError("availability objectives use >=")
            if not 0.0 < self.threshold <= 1.0:
                raise ValueError("availability target must be in (0, 1]")
            if self.threshold == 1.0:
                raise ValueError(
                    "availability == 1.0 leaves a zero error budget; "
                    "burn rate would be undefined"
                )
        elif self.metric in ("p50", "p90", "p95", "p99"):
            if self.op != "<=":
                raise ValueError("latency objectives use <=")
            if self.threshold <= 0:
                raise ValueError("latency threshold must be positive")
        else:
            raise ValueError(f"unknown SLO metric {self.metric!r}")

    @property
    def quantile(self) -> float:
        if self.metric == "availability":
            raise ValueError("availability SLOs have no quantile")
        return float(self.metric[1:]) / 100.0

    @property
    def budget(self) -> float:
        """Tolerable bad-event fraction (the error budget)."""
        if self.metric == "availability":
            return 1.0 - self.threshold
        return 1.0 - self.quantile

    def is_bad(self, *, latency_s: float | None, shed: bool) -> bool:
        """Classify one terminal request event against this objective."""
        if self.metric == "availability":
            return shed
        if shed:  # latency objectives only score admitted queries
            return False
        assert latency_s is not None
        return latency_s > self.threshold


def parse_slo(spec: str) -> SLO:
    """Parse ``"p99<=0.005@10s"``-style objective strings."""
    m = _SLO_RE.match(spec)
    if m is None:
        raise ValueError(
            f"bad SLO spec {spec!r}; expected e.g. 'p99<=0.005@10s' "
            "or 'availability>=0.99@5ms'"
        )
    metric = m.group("metric")
    value = float(m.group("value")) * _UNIT_S[m.group("unit") or "s"]
    window = float(m.group("window")) * _UNIT_S[m.group("wunit") or "s"]
    if metric == "availability" and m.group("unit"):
        raise ValueError("availability targets are unitless fractions")
    return SLO(
        metric=metric,
        op=m.group("op"),
        threshold=value,
        window_s=window,
        spec=spec.strip(),
    )


@dataclass(frozen=True)
class BurnRatePolicy:
    """Fast + slow leg thresholds for burn-rate alerting.

    The fast leg reads a window of ``fast_fraction * slo.window_s``
    (the classic 1h-vs-5m pairing is a 1/12 fraction) and must exceed
    ``fast_threshold`` times the budget rate; the slow leg reads the
    full objective window against ``slow_threshold``.  ``min_events``
    suppresses alerts until the fast window has seen enough terminal
    events for the bad fraction to be meaningful.
    """

    fast_fraction: float = 1.0 / 12.0
    fast_threshold: float = 6.0
    slow_threshold: float = 1.0
    min_events: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.fast_fraction <= 1:
            raise ValueError("fast_fraction must be in (0, 1]")
        if self.fast_threshold <= 0 or self.slow_threshold <= 0:
            raise ValueError("burn thresholds must be positive")
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")


@dataclass(frozen=True)
class AlertEvent:
    """One transition in the append-only alert log."""

    t_s: float
    slo: str  # the objective's raw spec string
    key: str  # "*" for the global series, else the tenant name
    state: str  # "firing" | "resolved"
    burn_fast: float
    burn_slow: float
    window_events: int


def check_slos(slos, policy: BurnRatePolicy, n_buckets: int) -> tuple:
    """Parse ``slos`` and reject a set no :class:`SLOEngine` can run.

    Spec strings are parsed; duplicate specs and a fast leg narrower
    than one of the ``n_buckets`` window buckets raise ``ValueError``.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    parsed = tuple(parse_slo(s) if isinstance(s, str) else s for s in slos)
    seen = set()
    for slo in parsed:
        if slo.spec in seen:
            raise ValueError(f"duplicate SLO {slo.spec!r}")
        seen.add(slo.spec)
    # Keep the fast leg at least one bucket wide.
    if parsed and policy.fast_fraction < 1.0 / n_buckets:
        raise ValueError(
            f"fast_fraction {policy.fast_fraction} is narrower than one of "
            f"{n_buckets} window buckets; raise fast_fraction or the "
            "bucket count"
        )
    return parsed


class _BurnSeries:
    """Good/bad event logs plus alert state for one (slo, key) pair."""

    __slots__ = ("good", "bad", "firing")

    def __init__(self, slo: SLO, n_buckets: int) -> None:
        self.good = WindowLog(slo.window_s, n_buckets)
        self.bad = WindowLog(slo.window_s, n_buckets)
        self.firing = False


class SLOEngine:
    """Evaluates objectives over the request stream, logging alerts.

    Feed every terminal request event through :meth:`observe` in
    non-decreasing virtual time, as the time-ordered
    :class:`~repro.obs.registry.WindowLog` behind each burn series
    requires; read :attr:`alerts` (append-only) and :meth:`burn_rates`
    at will.  One burn series is kept per objective
    for the global stream (key ``"*"``) and one per tenant, so a single
    noisy tenant pins the alert on itself.
    """

    def __init__(
        self,
        slos,
        policy: BurnRatePolicy | None = None,
        n_buckets: int = 48,
    ) -> None:
        self.policy = policy or BurnRatePolicy()
        self.n_buckets = int(n_buckets)
        self.slos = check_slos(slos, self.policy, self.n_buckets)
        self._series: dict[tuple[str, str], _BurnSeries] = {}
        self.alerts: list[AlertEvent] = []

    def _series_for(self, slo: SLO, key: str) -> _BurnSeries:
        k = (slo.spec, key)
        series = self._series.get(k)
        if series is None:
            series = _BurnSeries(slo, self.n_buckets)
            self._series[k] = series
        return series

    def observe(
        self,
        t_s: float,
        tenant: str,
        *,
        latency_s: float | None = None,
        shed: bool = False,
    ) -> list[AlertEvent]:
        """Score one terminal request event; returns any transitions."""
        if shed == (latency_s is not None):
            raise ValueError("pass exactly one of latency_s / shed=True")
        transitions: list[AlertEvent] = []
        for slo in self.slos:
            bad = slo.is_bad(latency_s=latency_s, shed=shed)
            if slo.metric != "availability" and shed:
                continue  # latency SLOs never see shed requests
            for key in ("*", tenant):
                series = self._series_for(slo, key)
                (series.bad if bad else series.good).append(t_s)
                event = self._evaluate(slo, key, series, t_s)
                if event is not None:
                    transitions.append(event)
        return transitions

    def _burn(self, slo: SLO, series: _BurnSeries, t_s, window_s):
        bad = series.bad.count(t_s, window_s)
        events = series.good.count(t_s, window_s) + bad
        if events == 0:
            return 0.0, 0
        return (bad / events) / slo.budget, events

    def _evaluate(self, slo, key, series, t_s) -> AlertEvent | None:
        pol = self.policy
        fast_w = slo.window_s * pol.fast_fraction
        burn_fast, n_fast = self._burn(slo, series, t_s, fast_w)
        burn_slow, _ = self._burn(slo, series, t_s, None)
        hot = (
            n_fast >= pol.min_events
            and burn_fast >= pol.fast_threshold
            and burn_slow >= pol.slow_threshold
        )
        if hot == series.firing:
            return None
        series.firing = hot
        event = AlertEvent(
            t_s=t_s,
            slo=slo.spec,
            key=key,
            state="firing" if hot else "resolved",
            burn_fast=burn_fast,
            burn_slow=burn_slow,
            window_events=n_fast,
        )
        self.alerts.append(event)
        return event

    def burn_rates(self, t_s: float) -> dict:
        """Current (fast, slow) burn per (slo spec, key) — for display."""
        out = {}
        for (spec, key), series in sorted(self._series.items()):
            slo = next(s for s in self.slos if s.spec == spec)
            fast_w = slo.window_s * self.policy.fast_fraction
            burn_fast, _ = self._burn(slo, series, t_s, fast_w)
            burn_slow, _ = self._burn(slo, series, t_s, None)
            out[(spec, key)] = (burn_fast, burn_slow)
        return out

    @property
    def firing(self) -> list[tuple[str, str]]:
        """Currently-firing (slo spec, key) pairs, sorted."""
        return sorted(
            k for k, series in self._series.items() if series.firing
        )

    @property
    def alert_count(self) -> int:
        """Number of *firing* transitions logged so far."""
        return sum(1 for a in self.alerts if a.state == "firing")


def _fmt_burn(x: float) -> str:
    return "inf" if math.isinf(x) else f"{x:.2f}"


def render_alert(event: AlertEvent) -> str:
    """One human line per alert transition (CLI streaming output)."""
    verb = "FIRING " if event.state == "firing" else "resolved"
    return (
        f"[{event.t_s * 1e3:10.4f} ms] {verb} {event.slo} key={event.key} "
        f"burn fast={_fmt_burn(event.burn_fast)} "
        f"slow={_fmt_burn(event.burn_slow)} n={event.window_events}"
    )
