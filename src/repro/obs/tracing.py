"""End-to-end causal query tracing for the serving stack.

:class:`QueryTracer` watches one :meth:`ServeEngine.run_trace
<repro.serve.server.ServeEngine.run_trace>` exactly like
:class:`~repro.serve.monitor.ServeMonitor` does — it is derived from
the sealed ``ServeResult``'s event log — and produces one *span tree*
per request:

* The **root span**'s duration is the request's modelled
  ``latency_s`` bit-for-bit, and its children (admission → queue wait →
  batch formation → compute) float-sum left-to-right to the root
  exactly, because they are the very floats the engine summed:
  ``latency = queue_wait + formation + compute``.
* Every served batch gets a companion trace whose **compute span**
  carries flow links fanning in the member requests and drills down
  into per-round kernel spans backed by the PR-5
  :func:`~repro.obs.observer.batch_timeline` reconstruction
  (``timeline.time_s == compute_s`` bit-for-bit).
* The **explain table** splits a request's latency into
  ``queue_wait`` / ``formation`` plus the append-only
  :data:`~repro.obs.attribution.TERM_ORDER` attribution terms of its
  compute, forced exact so the flat sum reproduces ``latency_s``
  bit-for-bit (:data:`EXPLAIN_ORDER`).

Trace identity is deterministic: ``trace_id`` is a SHA-1 prefix of
``"{seed}:request:{rid}"``, so the same seed always yields byte-identical
trace output.  Sampling is two-stage: **head** sampling keeps a
deterministic hash bucket of traces (``head_rate``), and **tail**
sampling force-keeps every shed request, every completion above the
rolling windowed p99 (the monitor's flight-recorder rule,
:class:`~repro.obs.observer.P99TailRule`), and every request
overlapping a burn-rate
:class:`~repro.obs.slo.AlertEvent` window.  The latency log the tail
sampler replays (a time-ordered
:class:`~repro.obs.registry.WindowLog`) carries trace-id *exemplars*
(:meth:`~repro.obs.registry.WindowLog.exemplar_near`), so "show me a
p99 trace" is answerable from the summary alone.

Like the monitor, the tracer is read-only by construction: the engine
hands it the sealed result and nothing else, so a run with a tracer
attached is byte-identical to one without.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .attribution import TERM_ORDER, force_exact_sum
from .observer import (
    P99TailRule,
    RunObserver,
    WidthAttributions,
    batch_timeline,
    check_window,
)
from .timeline import Lane, LaneEvent, Timeline

__all__ = [
    "EXPLAIN_ORDER",
    "ExplainTable",
    "QueryTracer",
    "Span",
    "TraceContext",
    "TracingConfig",
    "format_slowest",
    "group_traces",
    "spans_from_records",
    "trace_report_lines",
    "trace_waterfall",
    "write_trace_jsonl",
]

#: Flat summation order of the explain table — queue/formation first,
#: then the compute decomposition.  Append-only, like ``TERM_ORDER``.
EXPLAIN_ORDER = ("queue_wait", "formation") + TERM_ORDER

#: Gantt/SVG category per span kind (the PR-5 timeline vocabulary).
_KIND_CATEGORY = {
    "request": "sync",
    "admission": "overhead",
    "queue_wait": "sync",
    "formation": "overhead",
    "compute": "kernel",
    "batch": "sync",
    "batch_compute": "kernel",
    "rounds": "kernel",
}

#: Tail-sampling reasons, in reporting order.
_TAIL_REASONS = ("shed", "p99_tail", "alert")


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """Deterministic identity of one trace (request- or batch-scoped).

    ``trace_id`` is a pure function of the run seed and the entity
    index, so the same seed always yields the same ids — and therefore
    byte-identical trace artifacts.
    """

    trace_id: str
    seed: int
    scope: str  # "request" | "batch"
    index: int

    @classmethod
    def for_request(cls, seed: int, rid: int) -> "TraceContext":
        return cls(
            trace_id=_digest(f"{seed}:request:{rid}"),
            seed=seed,
            scope="request",
            index=rid,
        )

    @classmethod
    def for_batch(cls, seed: int, batch_id: int) -> "TraceContext":
        return cls(
            trace_id=_digest(f"{seed}:batch:{batch_id}"),
            seed=seed,
            scope="batch",
            index=batch_id,
        )

    def span_id(self, n: int) -> str:
        """The ``n``-th span id of this trace (0 is the root)."""
        return f"{self.trace_id}:{n}"

    def span(
        self, n, parent, name, kind, start_s, duration_s, **fields
    ) -> "Span":
        """Span ``n`` of this trace under span ``parent`` (None: root)."""
        return Span(
            trace_id=self.trace_id,
            span_id=self.span_id(n),
            parent_id=None if parent is None else self.span_id(parent),
            name=name,
            kind=kind,
            start_s=start_s,
            duration_s=duration_s,
            **fields,
        )

    def head_keep(self, head_rate: float) -> bool:
        """Deterministic hash-bucket head-sampling decision.

        The first 52 bits of the trace id map to [0, 1); the trace is
        head-kept when that bucket falls below ``head_rate``.
        """
        if head_rate >= 1.0:
            return True
        if head_rate <= 0.0:
            return False
        bucket = int(self.trace_id[:13], 16) / float(16**13)
        return bucket < head_rate


@dataclass(frozen=True)
class Span:
    """One node of a causal span tree."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    kind: str
    start_s: float
    duration_s: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)
    #: Span ids this span causally links to (cross-trace flow edges).
    links: tuple[str, ...] = ()

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_record(self) -> dict:
        """The JSONL ``span`` record of this span."""
        return {
            "record": "span",
            "name": self.name,
            "path": f"trace/{self.trace_id}/{self.span_id}",
            "time_s": self.duration_s,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "start_s": self.start_s,
            "status": self.status,
            "attrs": self.attrs,
            "links": list(self.links),
        }

    @classmethod
    def from_record(cls, obj: dict) -> "Span":
        """Rebuild a span from its JSONL record (round-trip inverse)."""
        return cls(
            trace_id=obj["trace_id"],
            span_id=obj["span_id"],
            parent_id=obj.get("parent_id"),
            name=obj["name"],
            kind=obj["kind"],
            start_s=obj["start_s"],
            duration_s=obj["time_s"],
            status=obj.get("status", "ok"),
            attrs=obj.get("attrs", {}),
            links=tuple(obj.get("links", ())),
        )


@dataclass(frozen=True)
class TracingConfig:
    """Sampling knobs of one :class:`QueryTracer` (virtual seconds)."""

    #: The run seed trace ids derive from (same seed ⇒ same ids).
    seed: int = 0
    #: Head-sampling keep fraction (deterministic hash bucket).
    head_rate: float = 1.0
    #: Rolling window of the tail sampler's latency histogram.
    window_s: float = 0.005
    #: Ring buckets per window.
    n_buckets: int = 20
    #: Windowed samples needed before the p99 tail trigger arms.
    p99_min_samples: int = 16

    def __post_init__(self) -> None:
        if not 0.0 <= self.head_rate <= 1.0:
            raise ValueError("head_rate must be in [0, 1]")
        check_window(self.window_s, self.n_buckets, self.p99_min_samples)


@dataclass(frozen=True)
class ExplainTable:
    """Exact latency decomposition of one traced request.

    ``terms`` carries every :data:`EXPLAIN_ORDER` name exactly once, in
    order; summing the values left to right reproduces ``latency_s``
    bit-for-bit — the tracing extension of the attribution invariant.
    """

    trace_id: str
    rid: int
    tenant: str
    graph: str
    device: str
    latency_s: float
    terms: tuple[tuple[str, float], ...]

    def term(self, name: str) -> float:
        for key, value in self.terms:
            if key == name:
                return value
        raise KeyError(name)

    def as_dict(self) -> dict[str, float]:
        return dict(self.terms)

    def nonzero(self) -> tuple[tuple[str, float], ...]:
        """Only the terms that carry time (ideal always included)."""
        return tuple(
            (k, v) for k, v in self.terms if v != 0.0 or k == "ideal"
        )

    def check_exact(self) -> bool:
        s = 0.0
        for _, v in self.terms:
            s += v
        return s == self.latency_s

    @classmethod
    def from_root_span(cls, root: Span) -> "ExplainTable | None":
        """Rebuild the table from a request root span's ``explain`` attr
        (``None`` for shed roots and spans without one)."""
        terms = root.attrs.get("explain")
        if not isinstance(terms, dict):
            return None
        return cls(
            trace_id=root.trace_id,
            rid=int(root.attrs.get("rid", -1)),
            tenant=str(root.attrs.get("tenant", "?")),
            graph=str(root.attrs.get("graph", "?")),
            device=str(root.attrs.get("device", "?")),
            latency_s=root.duration_s,
            terms=tuple(terms.items()),
        )

    def render(self) -> str:
        """A one-screen waterfall table (microseconds and shares)."""
        lines = [
            f"explain: trace {self.trace_id} rid={self.rid} "
            f"tenant={self.tenant} {self.graph} @ {self.device} — "
            f"{self.latency_s * 1e6:.3f} us"
        ]
        for key, value in self.nonzero():
            share = value / self.latency_s if self.latency_s > 0 else 0.0
            bar = "#" * max(0, int(round(32 * max(0.0, share))))
            lines.append(
                f"  {key:<16} {value * 1e6:>10.3f} us {share:>7.1%} {bar}"
            )
        mark = "exact" if self.check_exact() else "INEXACT"
        lines.append(f"  ({mark}: terms sum to latency bit-for-bit)")
        return "\n".join(lines)


class QueryTracer(RunObserver):
    """Watches one serve run and derives causal span trees.

    Attach by passing the tracer to ``run_trace(requests, tracer=...)``
    (optionally next to a :class:`~repro.serve.monitor.ServeMonitor`;
    pass the same monitor as ``monitor=`` here to enable alert-overlap
    tail sampling — ``run_trace`` then requires that monitor to be
    attached too).  A tracer watches exactly one run — reuse raises.
    All span/sampling/explain derivation over the result's event log
    is lazy: nothing is computed until the first read-out, so tracing
    adds nothing to the run itself.
    """

    def __init__(
        self, config: TracingConfig | None = None, monitor=None
    ) -> None:
        super().__init__()
        self.config = config or TracingConfig()
        self.monitor = monitor
        self._built = False
        self._explain_cache: dict[tuple, dict] = {}

    # --------------------- lazy derivation (build) ----------------------

    def _ensure_built(self) -> None:
        if self._built:
            return
        self._require_finalized()
        self._built = True
        self._sample()
        self._build_spans()
        self._build_summary()

    # ------------------------- sampling pass ----------------------------

    def _sample(self) -> None:
        cfg = self.config
        self._attributions = WidthAttributions(self._result)
        self._contexts: dict[int, TraceContext] = {}
        self._reasons: dict[int, list[str]] = {}
        self._by_rid: dict[int, tuple] = {}  # rid -> (done, batch event)
        for batch in self._result.batch_events:
            for done in batch.completions:
                self._by_rid[done.request.rid] = (done, batch)
        for outcome in self._result.requests:
            rid = outcome.request.rid
            ctx = self._contexts[rid] = TraceContext.for_request(cfg.seed, rid)
            self._reasons[rid] = ["head"] if ctx.head_keep(cfg.head_rate) else []
        for shed in self._result.shed_events:
            self._reasons[shed.outcome.request.rid].append("shed")

        # The monitor's flight-recorder rule, in completion order.
        tail = P99TailRule(cfg.window_s, cfg.n_buckets, cfg.p99_min_samples)
        done_events = sorted(
            (done.completion_s, done.request.rid, done)
            for done, _batch in self._by_rid.values()
        )
        self._end_t = self._result.makespan_s
        for t, rid, done in done_events:
            self._end_t = max(self._end_t, t)
            is_tail, _ = tail.observe(
                t, done.latency_s, exemplar=self._contexts[rid].trace_id
            )
            if is_tail:
                self._reasons[rid].append("p99_tail")
        self._latencies = tail.log

        # Alert-overlap replay: a request whose [arrival, completion]
        # interval intersects a firing→resolved alert window is kept.
        intervals = self._alert_intervals()
        for done, _batch in self._by_rid.values():
            lo, hi = done.request.arrival_s, done.completion_s
            if any(a_lo <= hi and lo <= a_hi for a_lo, a_hi in intervals):
                self._reasons[done.request.rid].append("alert")

        # Reasons were appended in reporting order: head, then tails.
        self._kept = {
            rid: tuple(reasons)
            for rid, reasons in self._reasons.items()
            if reasons
        }
        self._kept_batches = {
            batch.record.batch_id
            for batch in self._result.batch_events
            if any(
                done.request.rid in self._kept
                for done in batch.completions
            )
        }

    def _alert_intervals(self) -> list[tuple[float, float]]:
        if self.monitor is None:
            return []
        open_at: dict[tuple, float] = {}
        intervals: list[tuple[float, float]] = []
        for event in self.monitor.alerts:
            key = (event.slo, event.key)
            if event.state == "firing":
                open_at.setdefault(key, event.t_s)
            elif event.state == "resolved" and key in open_at:
                intervals.append((open_at.pop(key), event.t_s))
        for start in open_at.values():
            intervals.append((start, float("inf")))
        intervals.sort()
        return intervals

    # -------------------------- span building ---------------------------

    def _compute_terms(self, done, batch) -> dict:
        """The request's compute split into ``TERM_ORDER`` terms.

        The request is billed through its own last round only
        (``bill.widths[:iterations]``); the merged attribution is forced
        exact against ``compute_s``, so the split is cacheable per
        ``(graph, round-width prefix)``.
        """
        graph = batch.record.graph
        prefix = batch.bill.widths[: done.iterations]
        key = (graph, prefix)
        cached = self._explain_cache.get(key)
        if cached is None:
            cached = self._attributions.merged(
                graph,
                prefix,
                name=f"trace/{graph}[{len(prefix)} rounds]",
                time_s=done.compute_s,
            ).as_dict()
            self._explain_cache[key] = cached
        return dict(cached)

    def _explain_terms(self, done, batch) -> dict:
        """Flat ``EXPLAIN_ORDER`` dict, forced exact to ``latency_s``."""
        terms = {
            "queue_wait": done.queue_wait_s,
            "formation": done.formation_s,
        }
        terms.update(self._compute_terms(done, batch))
        return force_exact_sum(
            terms, done.latency_s, adjust="ideal", order=EXPLAIN_ORDER
        )

    def _build_spans(self) -> None:
        spans: list[Span] = []
        device = self._result.device.name
        batch_ctx = {
            batch_id: TraceContext.for_batch(self.config.seed, batch_id)
            for batch_id in self._kept_batches
        }

        for outcome in self._result.requests:
            req = outcome.request
            reasons = self._kept.get(req.rid)
            if reasons is None:
                continue
            ctx = self._contexts[req.rid]
            name = f"request rid={req.rid}"
            attrs = {
                "rid": req.rid,
                "tenant": req.tenant,
                "graph": req.graph,
                "node": req.node,
                "device": device,
            }
            if req.rid not in self._by_rid:
                attrs.update(
                    reason=outcome.reason,
                    retry_after_s=outcome.retry_after_s,
                    sampled_by=list(reasons),
                )
                spans.append(
                    ctx.span(0, None, name, "request", req.arrival_s, 0.0,
                             status="shed", attrs=attrs)
                )
                spans.append(
                    ctx.span(1, 0, "admission", "admission", req.arrival_s,
                             0.0, status="shed",
                             attrs={"reason": outcome.reason})
                )
                continue
            done, batch = self._by_rid[req.rid]
            attrs.update(
                batch_id=done.batch_id,
                worker=done.worker,
                k=done.k,
                iterations=done.iterations,
                converged=done.converged,
                sampled_by=list(reasons),
                explain=self._explain_terms(done, batch),
            )
            spans.append(
                ctx.span(0, None, name, "request", req.arrival_s,
                         done.latency_s, attrs=attrs)
            )
            # Child durations are the engine's own latency addends, in
            # its own order — 0.0 (admission) + queue_wait + formation +
            # compute sums to the root bit-for-bit.
            cursor = req.arrival_s
            children = (
                ("admission", 0.0, {}, ()),
                (
                    "queue_wait",
                    done.queue_wait_s,
                    {"batch_close_s": batch.record.close_s},
                    (),
                ),
                ("formation", done.formation_s, {}, ()),
                (
                    "compute",
                    done.compute_s,
                    {"iterations": done.iterations},
                    (batch_ctx[done.batch_id].span_id(2),),
                ),
            )
            for n, (kind, dur, child_attrs, links) in enumerate(
                children, start=1
            ):
                spans.append(
                    ctx.span(n, 0, kind, kind, cursor, dur,
                             attrs=child_attrs, links=links)
                )
                cursor = cursor + dur

        for batch in self._result.batch_events:
            b = batch.record
            ctx = batch_ctx.get(b.batch_id)
            if ctx is None:
                continue
            timeline = batch_timeline(b, batch.bill, device)
            spans.append(
                ctx.span(
                    0, None, f"batch-{b.batch_id} {b.graph} k={b.k}",
                    "batch", b.start_s, b.duration_s,
                    attrs={
                        "batch_id": b.batch_id,
                        "graph": b.graph,
                        "worker": b.worker,
                        "k": b.k,
                        "close_s": b.close_s,
                        "device": device,
                        "queue_depth": batch.queue_depth,
                        "coalescer_pending": batch.coalescer_pending,
                    },
                )
            )
            spans.append(
                ctx.span(1, 0, "formation", "formation", b.start_s,
                         b.formation_s)
            )
            compute_start = b.start_s + b.formation_s
            member_links = tuple(
                self._contexts[done.request.rid].span_id(4)
                for done in batch.completions
                if done.request.rid in self._kept
            )
            spans.append(
                ctx.span(2, 0, "compute", "batch_compute", compute_start,
                         b.compute_s,
                         attrs={"timeline_time_s": timeline.time_s},
                         links=member_links)
            )
            for n, ev in enumerate(timeline.lanes[0].events, start=3):
                spans.append(
                    ctx.span(n, 2, ev.name, "rounds",
                             compute_start + ev.start_s, ev.duration_s,
                             attrs={"category": ev.category})
                )

        self._spans: tuple[Span, ...] = tuple(spans)
        self._traces: dict[str, tuple[Span, ...]] = group_traces(
            self._spans
        )

    def _build_summary(self) -> None:
        admitted = len(self._by_rid)
        seen = len(self._result.requests)
        tail_counts = {
            r: sum(1 for kept in self._kept.values() if r in kept)
            for r in _TAIL_REASONS
        }
        self._summary = {
            "requests_seen": seen,
            "admitted": admitted,
            "shed": seen - admitted,
            "kept": len(self._kept),
            "dropped": seen - len(self._kept),
            "head_kept": sum(
                1 for kept in self._kept.values() if "head" in kept
            ),
            "tail_kept": tail_counts,
            "batches": len(self._result.batch_events),
            "batches_kept": len(self._kept_batches),
            "p99_exemplar": self._latencies.exemplar_near(
                0.99, self._end_t
            ),
        }

    # --------------------------- read-outs ------------------------------

    @property
    def summary(self) -> dict:
        """Sampling counts (kept/dropped, head vs tail, batches)."""
        self._ensure_built()
        return self._summary

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every kept span (request traces first, then batch traces)."""
        self._ensure_built()
        return self._spans

    @property
    def traces(self) -> dict[str, tuple[Span, ...]]:
        """Kept spans grouped by trace id (root first, file order)."""
        self._ensure_built()
        return self._traces

    @property
    def request_roots(self) -> tuple[Span, ...]:
        """Kept request root spans, slowest first (ties by rid)."""
        roots = [
            s
            for s in self.spans
            if s.parent_id is None and s.kind == "request"
        ]
        roots.sort(
            key=lambda s: (-s.duration_s, s.attrs.get("rid", 0))
        )
        return tuple(roots)

    def _trace(self, trace_id: str) -> tuple[Span, ...]:
        spans = self.traces.get(trace_id)
        if not spans:
            raise KeyError(f"trace {trace_id!r} not kept by this tracer")
        return spans

    def explain(self, trace_id: str) -> ExplainTable:
        """The exact latency decomposition of one kept request trace."""
        table = ExplainTable.from_root_span(self._trace(trace_id)[0])
        if table is None:
            raise ValueError(
                f"trace {trace_id!r} has no explain table (shed request?)"
            )
        return table

    def waterfall(self, trace_id: str) -> Timeline:
        """One kept trace's span tree as a PR-5 timeline."""
        return trace_waterfall(self._trace(trace_id))

    def meta(self) -> dict:
        """Tracer configuration + sampling summary, for ``meta`` lines."""
        return {
            "seed": self.config.seed,
            "head_rate": self.config.head_rate,
            "window_s": self.config.window_s,
            "n_buckets": self.config.n_buckets,
            "p99_min_samples": self.config.p99_min_samples,
            **self.summary,
        }

    def jsonl_lines(self) -> list[str]:
        """The kept spans as JSON lines (request traces, then batches)."""
        return [json.dumps(s.to_record()) for s in self.spans]

    def chrome_trace(self) -> dict:
        """Chrome trace-event export: span lanes plus fan-in flows.

        Request traces render on a ``trace:requests`` pid (one tid per
        rid), batch traces on ``trace:batches`` (one tid per batch);
        every kept member's compute span emits a flow-start (``"s"``)
        that finishes (``"f"``) at its batch's compute span.  Passes
        :func:`~repro.obs.export.validate_chrome_trace`.
        """
        events: list[dict] = []
        flows: list[tuple] = []
        compute_lane: dict[str, tuple[Span, int]] = {}
        for span in self.spans:
            root = self.traces[span.trace_id][0]
            if root.kind == "request":
                pid, tid = "trace:requests", root.attrs["rid"]
            else:
                pid, tid = "trace:batches", root.attrs["batch_id"]
            events.append(
                {
                    "name": f"{span.kind}: {span.name}",
                    "cat": "trace",
                    "ph": "X",
                    "ts": span.start_s * 1e6,
                    "dur": span.duration_s * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                    },
                }
            )
            if span.kind == "compute":
                compute_lane[span.span_id] = (span, tid)
            elif span.kind == "batch_compute":
                for link in span.links:
                    flows.append((span, tid, *compute_lane[link]))
        # Flow starts land at each member's compute span, flow finishes
        # at the batch compute span's end — emitted starts-first so the
        # validator sees every "s" before its "f".
        for bspan, btid, member, member_tid in flows:
            flow_id = int(
                _digest(f"{bspan.span_id}->{member.span_id}")[:8], 16
            )
            events.append(
                {
                    "name": "batch-fanin",
                    "cat": "flow",
                    "ph": "s",
                    "id": flow_id,
                    "ts": member.start_s * 1e6,
                    "pid": "trace:requests",
                    "tid": member_tid,
                }
            )
            events.append(
                {
                    "name": "batch-fanin",
                    "cat": "flow",
                    "ph": "f",
                    "id": flow_id,
                    "ts": bspan.end_s * 1e6,
                    "pid": "trace:batches",
                    "tid": btid,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ns"}


# ----------------------- file-side reconstruction -----------------------


def spans_from_records(objs) -> tuple[Span, ...]:
    """The trace spans among parsed JSONL records, file order.

    Only ``span`` records carrying a ``trace_id`` are trace spans; the
    serve report's plain batch spans are passed over.
    """
    return tuple(
        Span.from_record(obj)
        for obj in objs
        if isinstance(obj, dict)
        and obj.get("record") == "span"
        and "trace_id" in obj
    )


def group_traces(spans) -> dict[str, tuple[Span, ...]]:
    """Spans grouped by trace id (insertion order preserved)."""
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    return {tid: tuple(ss) for tid, ss in grouped.items()}


def trace_waterfall(spans) -> Timeline:
    """One trace's spans as a PR-5 timeline (one lane per span).

    Lanes keep file order (parents precede children) and indent by tree
    depth; the timeline's ``time_s`` is the root span's duration — for
    request traces, the request's exact ``latency_s``.
    """
    spans = tuple(spans)
    if not spans:
        raise ValueError("cannot build a waterfall from zero spans")
    root = spans[0]
    by_id = {s.span_id: s for s in spans}
    lanes = []
    origin = root.start_s
    for span in spans:
        d = 0
        parent = span.parent_id
        while parent is not None and parent in by_id:
            d += 1
            parent = by_id[parent].parent_id
        lanes.append(
            Lane(
                label=("  " * d) + span.kind,
                events=(
                    LaneEvent(
                        name=span.name,
                        start_s=max(0.0, span.start_s - origin),
                        duration_s=span.duration_s,
                        category=_KIND_CATEGORY.get(span.kind, "kernel"),
                    ),
                ),
            )
        )
    return Timeline(
        name=f"trace/{root.trace_id}",
        device_name=str(root.attrs.get("device", "?")),
        source="trace",
        time_s=root.duration_s,
        lanes=tuple(lanes),
        critical_lane=0,
    )


def format_slowest(roots, limit: int = 5) -> str:
    """A one-screen slowest-requests table over request root spans."""
    lines = [
        f"{'trace_id':<18} {'rid':>5} {'tenant':<10} {'graph':<6} "
        f"{'status':<6} {'k':>3} {'iters':>5} {'latency_us':>12}"
    ]
    for root in tuple(roots)[:limit]:
        a = root.attrs
        lines.append(
            f"{root.trace_id:<18} {a.get('rid', '?'):>5} "
            f"{str(a.get('tenant', '?')):<10} "
            f"{str(a.get('graph', '?')):<6} {root.status:<6} "
            f"{a.get('k', '-'):>3} {a.get('iterations', '-'):>5} "
            f"{root.duration_s * 1e6:>12.3f}"
        )
    return "\n".join(lines)


def trace_report_lines(tracer: QueryTracer, **meta) -> list[str]:
    """The trace artifact as JSON lines: one ``meta``, then the spans."""
    head = {"record": "meta", "kind": "trace", **meta}
    head["tracing"] = tracer.meta()
    return [json.dumps(head)] + tracer.jsonl_lines()


def write_trace_jsonl(tracer: QueryTracer, path, **meta) -> Path:
    """Dump one tracer's kept spans as a validated JSONL artifact."""
    path = Path(path)
    with path.open("w") as f:
        for line in trace_report_lines(tracer, **meta):
            f.write(line + "\n")
    return path
