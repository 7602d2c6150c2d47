"""Live serving telemetry: rolling windows, burn-rate alerts, flight recorder.

:class:`ServeMonitor` watches one :meth:`ServeEngine.run_trace
<repro.serve.server.ServeEngine.run_trace>` on the engine's *virtual*
clock.  It is derived from the result's event log: once the run's
:class:`~repro.serve.server.ServeResult` is sealed, :meth:`_finalize`
replays its batch and shed events in virtual-time order and produces:

* **Rolling series** — per-graph and per-tenant qps, shed rate, queue
  depth and exact windowed p50/p95/p99 latency, sampled on a fixed
  virtual-time grid.  Each series reads window logs
  (:class:`~repro.obs.registry.WindowLog`), written in replay order,
  which is non-decreasing virtual time.  A tick only notes each log's
  length; after the replay one array read per log
  (:meth:`~repro.obs.registry.WindowLog.windows`) gives every tick's
  bucket-aligned slice, and each distinct slice is sorted once for all
  three quantiles.  A series is a step function on the grid, so it is
  written as ``metric`` JSONL records only at its change points: its
  first tick, every tick where a field's encoded value differs from
  its previous tick, and the end of the run.  :meth:`ServeMonitor.meta`
  states the grid (``sample_every_s``, ``n_ticks``, ``end_t_s``) and
  :func:`expand_series` restores one record per tick and series.
* **Alerts** — every objective from :class:`MonitorConfig.slos` is
  evaluated through :class:`~repro.obs.slo.SLOEngine`'s multi-window
  burn-rate rules; transitions become ``alert`` JSONL records and an
  append-only :attr:`alerts` log.
* **Flight records** — when a completed query lands above the current
  windowed p99 (the shared :class:`~repro.obs.observer.P99TailRule`),
  or its observation trips an alert, the recorder captures
  the whole batch: a :class:`~repro.obs.timeline.Timeline` whose
  ``time_s`` equals the batch's billed compute **bit-for-bit**, a merged
  :class:`~repro.obs.attribution.Attribution` forced exact against the
  same total, and the queue/coalescer state at batch close — bounded by
  a ring buffer.

The monitor is read-only by construction: the engine hands it the
sealed result and nothing else, so a run with a monitor attached is
byte-identical to one without, and the same seed always yields
byte-identical JSONL/HTML.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from ..obs.attribution import Attribution
from ..obs.export import tick_grid
from ..obs.observer import (
    P99TailRule,
    RunObserver,
    WidthAttributions,
    batch_timeline,
    check_finite_positive,
    check_window,
)
from ..obs.registry import WindowLog
from ..obs.slo import AlertEvent, BurnRatePolicy, SLOEngine, check_slos
from ..obs.timeline import Timeline
from .queries import BatchEvent, BatchRecord, CompletedQuery, ShedEvent

__all__ = [
    "MonitorConfig",
    "FlightRecord",
    "ServeMonitor",
    "batch_timeline",
    "expand_series",
]

#: The latency quantiles of every metric record.
_QUANTILES = (0.5, 0.95, 0.99)


@dataclass(frozen=True)
class MonitorConfig:
    """Telemetry knobs of one :class:`ServeMonitor` (virtual seconds)."""

    #: Rolling window of the metric series.
    window_s: float = 0.005
    #: Buckets per window (also the sampling grid's resolution).
    n_buckets: int = 20
    #: Metric-record cadence; ``None`` means one window bucket.
    sample_every_s: float | None = None
    #: Declarative objectives (spec strings or parsed ``SLO`` objects).
    slos: tuple = ()
    #: Burn-rate thresholds shared by every objective.
    policy: BurnRatePolicy = BurnRatePolicy()
    #: Buckets per window of each objective's good/bad event logs.
    slo_buckets: int = 48
    #: Flight-recorder ring capacity (oldest captures evicted).
    flightrec_capacity: int = 64
    #: Windowed samples needed before the p99 tail trigger arms.
    p99_min_samples: int = 16

    def __post_init__(self) -> None:
        check_window(self.window_s, self.n_buckets, self.p99_min_samples)
        if self.sample_every_s is not None:
            check_finite_positive("sample_every_s", self.sample_every_s)
            # A tick finer than a bucket only repeats the last sample
            # (windows are bucket-aligned) and can ask for billions.
            if self.sample_every_s < self.bucket_s * (1 - 1e-12):
                raise ValueError(
                    f"sample_every_s {self.sample_every_s} is finer than "
                    f"one window bucket ({self.bucket_s})"
                )
        if self.slo_buckets < 1:
            raise ValueError("slo_buckets must be >= 1")
        if self.flightrec_capacity < 1:
            raise ValueError("flightrec_capacity must be >= 1")
        check_slos(self.slos, self.policy, self.slo_buckets)

    @property
    def bucket_s(self) -> float:
        return self.window_s / self.n_buckets

    @property
    def cadence_s(self) -> float:
        return (
            self.bucket_s
            if self.sample_every_s is None
            else self.sample_every_s
        )


@dataclass(frozen=True)
class FlightRecord:
    """One tail-sampled batch capture (ring-buffered)."""

    #: ``"p99_tail"`` (latency above the rolling p99) or ``"alert"``.
    trigger: str
    #: Virtual time of the triggering completion.
    t_s: float
    #: The triggering request and its tenant.
    rid: int
    tenant: str
    latency_s: float
    #: Rolling global p99 at the trigger (None before the window arms).
    window_p99_s: float | None
    #: Objective specs whose alerts fired at this observation.
    alerts: tuple[str, ...]
    batch: BatchRecord
    #: Batch membership (parallel tuples, batch order).
    rids: tuple[int, ...]
    tenants: tuple[str, ...]
    iterations: tuple[int, ...]
    #: Admission queue depth when the batch closed.
    queue_depth: int
    #: Queries still waiting in the graph's coalescer after the close.
    coalescer_pending: int
    #: Compute timeline; ``timeline.time_s == batch.compute_s`` exactly.
    timeline: Timeline
    #: Per-term decomposition forced exact against the same total.
    attribution: Attribution


def _noneify(x: float) -> float | None:
    return None if x != x else x  # nan -> null for JSON


class ServeMonitor(RunObserver):
    """Watches one serve run; see the module docstring for the contract.

    Attach by passing the monitor to ``run_trace(requests,
    monitor=...)``.  A monitor watches exactly one run — reuse raises.
    After the run: :attr:`records` (time-ordered metric/alert/flightrec
    dicts, metrics at their change points), :attr:`alerts`,
    :attr:`flight_records`, :attr:`summary`, :meth:`meta`,
    :meth:`jsonl_lines` and :meth:`chrome_counters`.
    """

    def __init__(self, config: MonitorConfig | None = None) -> None:
        super().__init__()
        self.config = config or MonitorConfig()
        self.records: list[dict] = []
        self.alerts: list[AlertEvent] = []
        self.flight_records: deque[FlightRecord] = deque(
            maxlen=self.config.flightrec_capacity
        )
        self.summary: dict = {}
        self._captured: set[int] = set()

    # ------------------- derivation over the event log -------------------

    def _finalize(self, result) -> None:
        super()._finalize(result)
        cfg = self.config
        self._attributions = WidthAttributions(result)
        tenants = sorted({r.request.tenant for r in result.requests})
        graphs = sorted({r.request.graph for r in result.requests})
        self._keys = [("global", "*")]
        self._keys += [("tenant", t) for t in tenants]
        self._keys += [("graph", g) for g in graphs]
        self._tail = P99TailRule(
            cfg.window_s, cfg.n_buckets, cfg.p99_min_samples
        )
        # One latency log per series (its entries are the admitted
        # completions) and one shed log; the global latency log is the
        # tail rule's own.
        self._lat = {
            k: WindowLog(cfg.window_s, cfg.n_buckets)
            for k in self._keys[1:]
        }
        self._lat[("global", "*")] = self._tail.log
        self._shedlog = {
            k: WindowLog(cfg.window_s, cfg.n_buckets) for k in self._keys
        }
        self._slo_engine = (
            SLOEngine(cfg.slos, cfg.policy, cfg.slo_buckets)
            if cfg.slos
            else None
        )
        self._depth = 0

        # Replay order: (virtual time, kind rank, id).  Batch closes rank
        # before sheds and completions at the same instant so the queue
        # depth a sample sees is the latest one; completions replay in
        # (completion_s, rid) order, as the tail rule requires.
        events: list[tuple] = []
        for batch in result.batch_events:
            events.append((batch.record.close_s, 0, batch.record.batch_id,
                           "batch", batch))
            for done in batch.completions:
                events.append(
                    (done.completion_s, 2, done.request.rid, "done",
                     (done, batch))
                )
        for shed in result.shed_events:
            events.append(
                (shed.outcome.request.arrival_s, 1, shed.outcome.request.rid,
                 "shed", shed)
            )
        events.sort(key=lambda e: e[:3])

        # A tick notes what its samples need; they are computed after
        # the replay.  Entries at or after a tick are not logged yet, so
        # each log's length bounds the tick's window.
        logs = [self._lat[k] for k in self._keys]
        logs += [self._shedlog[k] for k in self._keys]
        ticks: list[tuple] = []

        def tick(t: float) -> None:
            ticks.append(
                (t, self._depth, len(self.records), [len(g) for g in logs])
            )

        cadence = cfg.cadence_s
        next_tick = cadence
        for t, _rank, _eid, kind, payload in events:
            while t >= next_tick:
                tick(next_tick)
                next_tick += cadence
            if kind == "batch":
                self._depth = payload.queue_depth
            elif kind == "shed":
                self._replay_shed(t, payload)
            else:
                self._replay_completion(t, *payload)
        end_t = max(
            result.makespan_s, events[-1][0] if events else 0.0
        )
        tick(end_t)
        self._splice_samples(ticks)
        self._n_ticks = len(ticks)
        if self._slo_engine is not None:
            self.alerts = list(self._slo_engine.alerts)
        self._build_summary(end_t, len(ticks) * len(self._keys))

    def _replay_shed(self, t: float, shed: ShedEvent) -> None:
        self._depth = shed.queue_depth
        request = shed.outcome.request
        for key in (
            ("global", "*"), ("tenant", request.tenant), ("graph", request.graph)
        ):
            self._shedlog[key].append(t)
        if self._slo_engine is not None:
            for event in self._slo_engine.observe(t, request.tenant, shed=True):
                self._append_alert(event)

    def _replay_completion(
        self, t: float, done: CompletedQuery, batch: BatchEvent
    ) -> None:
        tenant = done.request.tenant
        latency = done.latency_s
        is_tail, window_p99 = self._tail.observe(t, latency)
        self._lat[("tenant", tenant)].append(t, latency)
        self._lat[("graph", done.request.graph)].append(t, latency)
        fired: list[AlertEvent] = []
        if self._slo_engine is not None:
            for event in self._slo_engine.observe(
                t, tenant, latency_s=latency
            ):
                self._append_alert(event)
                if event.state == "firing":
                    fired.append(event)
        if fired:
            self._capture(
                "alert", t, done, batch, window_p99,
                tuple(e.slo for e in fired),
            )
        elif is_tail:
            self._capture("p99_tail", t, done, batch, window_p99, ())

    def _append_alert(self, event: AlertEvent) -> None:
        self.records.append(
            {
                "record": "alert",
                "t_s": event.t_s,
                "slo": event.slo,
                "key": event.key,
                "state": event.state,
                "burn_fast": event.burn_fast,
                "burn_slow": event.burn_slow,
                "window_events": event.window_events,
            }
        )

    def _splice_samples(self, ticks: list[tuple]) -> None:
        """Compute every series' change points and splice their metric
        records in where the replay stood at their ticks, among alerts
        and flightrecs.

        A series keeps a tick's record only at its first tick, where any
        field's encoded value differs from its previous tick (float bit
        patterns, so ``-0.0`` and ``0.0`` never merge), and at the end
        of the run; :func:`expand_series` restores the per-tick view.
        """
        times, depths, cuts, lengths = zip(*ticks)
        lengths = np.array(lengths, dtype=np.int64)
        n_keys = len(self._keys)
        window_s = self.config.window_s
        # keep[i, j]: series j writes its record at tick i.  The queue
        # depth is the global series' (the first key) alone.
        keep = np.zeros((len(times), n_keys), dtype=bool)
        keep[1:, 0] = np.diff(depths) != 0
        columns = []
        for j, (scope, key) in enumerate(self._keys):
            lat = self._lat[(scope, key)]
            lo, span = lat.windows(times)
            s_lo, _ = self._shedlog[(scope, key)].windows(times)
            hi = lengths[:, j]
            done, shed = hi - lo, lengths[:, n_keys + j] - s_lo
            seen = done + shed
            qps = done / span
            keep[1:, j] |= (
                (np.diff(qps.view(np.int64)) != 0)
                | (np.diff(shed) != 0)
                | (np.diff(seen) != 0)
            )
            # Quantiles move only where the window slice does.  Each
            # distinct slice is sorted once, and it is a step where its
            # encoded quantiles differ from the previous slice's.
            moved = np.flatnonzero(
                np.r_[True, (np.diff(lo) != 0) | (np.diff(hi) != 0)]
            ).tolist()
            lo, hi = lo.tolist(), hi.tolist()
            stats = [
                tuple(
                    map(_noneify, lat.slice_quantiles(_QUANTILES, lo[i], hi[i]))
                )
                for i in moved
            ]
            enc = list(map(repr, stats))
            steps = [i for i, a, b in zip(moved[1:], enc, enc[1:]) if a != b]
            keep[steps, j] = True
            columns.append(
                (qps.tolist(), shed.tolist(), seen.tolist(), moved, stats)
            )
        keep[[0, -1]] = True
        replayed = self.records
        self.records = []
        last = 0
        for i, j in np.argwhere(keep).tolist():
            self.records.extend(replayed[last:cuts[i]])
            last = cuts[i]
            scope, key = self._keys[j]
            qps, shed, seen, moved, stats = columns[j]
            n = seen[i]
            p50, p95, p99 = stats[bisect_right(moved, i) - 1]
            self.records.append(
                {
                    "record": "metric",
                    "t_s": times[i],
                    "scope": scope,
                    "key": key,
                    "window_s": window_s,
                    "qps": qps[i],
                    "shed_rate": shed[i] / n if n > 0 else 0.0,
                    "n": n,
                    "p50_s": p50,
                    "p95_s": p95,
                    "p99_s": p99,
                    "queue_depth": depths[i] if scope == "global" else None,
                }
            )
        self.records.extend(replayed[last:])

    # --------------------- flight recorder capture ----------------------

    def _capture(
        self, trigger, t, done, batch: BatchEvent, window_p99, alert_specs
    ) -> None:
        b = batch.record
        if b.batch_id in self._captured:
            return  # one capture per batch — the first trigger wins
        self._captured.add(b.batch_id)
        record = FlightRecord(
            trigger=trigger,
            t_s=t,
            rid=done.request.rid,
            tenant=done.request.tenant,
            latency_s=done.latency_s,
            window_p99_s=window_p99,
            alerts=alert_specs,
            batch=b,
            rids=tuple(c.request.rid for c in batch.completions),
            tenants=tuple(c.request.tenant for c in batch.completions),
            iterations=batch.iterations,
            queue_depth=batch.queue_depth,
            coalescer_pending=batch.coalescer_pending,
            timeline=batch_timeline(b, batch.bill, self._result.device.name),
            attribution=self._attributions.merged(
                b.graph,
                batch.bill.widths,
                name=f"serve/{b.graph}/batch-{b.batch_id}",
                time_s=batch.bill.total_s,
            ),
        )
        self.flight_records.append(record)
        self.records.append(
            {
                "record": "flightrec",
                "t_s": t,
                "trigger": trigger,
                "rid": record.rid,
                "tenant": record.tenant,
                "latency_s": record.latency_s,
                "window_p99_s": window_p99,
                "alerts": list(alert_specs),
                **asdict(b),
                "queue_depth": record.queue_depth,
                "coalescer_pending": record.coalescer_pending,
                "rids": list(record.rids),
                "iterations": list(record.iterations),
                "timeline_time_s": record.timeline.time_s,
                "attribution": record.attribution.as_dict(),
            }
        )

    # --------------------------- read-outs ------------------------------

    @property
    def alert_count(self) -> int:
        """Firing transitions over the run (0 without objectives)."""
        return sum(1 for a in self.alerts if a.state == "firing")

    def windowed_quantile(self, q: float) -> float:
        """Global rolling latency quantile at end of run (nan if empty)."""
        self._require_finalized()
        return self._lat[("global", "*")].quantile(q, self.summary["end_t_s"])

    def _build_summary(self, end_t: float, samples: int) -> None:
        glob = self._lat[("global", "*")]
        p50, p95, p99 = glob.quantiles(_QUANTILES, end_t)
        self.summary = {
            "end_t_s": end_t,
            "windowed_p50_s": _noneify(p50),
            "windowed_p95_s": _noneify(p95),
            "windowed_p99_s": _noneify(p99),
            "window_count": glob.count(end_t),
            "alert_count": self.alert_count,
            "alerts_logged": len(self.alerts),
            "flight_records": len(self.flight_records),
            "samples": samples,
        }

    def meta(self) -> dict:
        """Monitor configuration and tick grid, for the JSONL ``meta``
        record (the grid is what :func:`expand_series` reads)."""
        self._require_finalized()
        return {
            "window_s": self.config.window_s,
            "n_buckets": self.config.n_buckets,
            "sample_every_s": self.config.cadence_s,
            "n_ticks": self._n_ticks,
            "end_t_s": self.summary["end_t_s"],
            "slos": [
                s if isinstance(s, str) else s.spec for s in self.config.slos
            ],
            "flightrec_capacity": self.config.flightrec_capacity,
            "p99_min_samples": self.config.p99_min_samples,
        }

    def jsonl_lines(self) -> list[str]:
        """The monitor's records as JSON lines (time-ordered)."""
        self._require_finalized()
        return [json.dumps(r) for r in self.records]

    def chrome_counters(self) -> dict:
        """Chrome ``"ph": "C"`` counter tracks of the rolling series.

        One pid per ``scope:key`` series; qps, shed-rate, windowed p99
        (ms) and — on the global pid — queue depth, at the series'
        change points (counter tracks draw steps).  Passes
        :func:`~repro.obs.export.validate_chrome_trace`.
        """
        self._require_finalized()
        events = []
        for rec in self.records:
            if rec["record"] != "metric":
                continue
            pid = f"{rec['scope']}:{rec['key']}"
            ts = rec["t_s"] * 1e6
            tracks = [
                ("qps", rec["qps"]),
                ("shed_rate", rec["shed_rate"]),
                (
                    "p99_ms",
                    None if rec["p99_s"] is None else rec["p99_s"] * 1e3,
                ),
                ("queue_depth", rec["queue_depth"]),
            ]
            for name, value in tracks:
                if value is None:
                    continue
                events.append(
                    {
                        "name": name,
                        "cat": "serve-monitor",
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "args": {"value": value},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def expand_series(records, meta: dict) -> list[dict]:
    """The per-tick ``metric`` records behind a monitor's change points.

    ``records`` is a monitor's record stream (:attr:`ServeMonitor.records`
    or a serve report's parsed lines; other kinds are skipped) and
    ``meta`` its :meth:`ServeMonitor.meta` (a report's
    ``meta["monitor"]``).  A series' last record is its end-of-run tick;
    on the running-sum grid before it, the value at tick ``t`` is the
    series' latest record at or before ``t``.  Returns one record per
    tick and series, tick-major, series in order of first appearance.
    """
    grid = tick_grid(meta["sample_every_s"], meta["n_ticks"], meta["end_t_s"])
    series: dict = {}
    for rec in records:
        if rec["record"] == "metric":
            series.setdefault((rec["scope"], rec["key"]), []).append(rec)
    columns = []
    for (scope, key), (*steps, end) in series.items():
        if len(grid) > 1 and (not steps or steps[0]["t_s"] != grid[0]):
            raise ValueError(f"series {scope}:{key} has no first-tick record")
        column, j = [], 0
        for t in grid[:-1]:
            while j < len(steps) and steps[j]["t_s"] <= t:
                j += 1
            cur = steps[j - 1]
            column.append(cur if cur["t_s"] == t else {**cur, "t_s": t})
        column.append(end)
        columns.append(column)
    return [rec for row in zip(*columns) for rec in row]
