"""The multi-tenant serving engine: a deterministic discrete-event loop.

:class:`ServeEngine` answers per-user RWR queries against registered
graphs on a *virtual* clock.  Arrivals pass admission control
(:mod:`~repro.serve.admission`), queue in the per-graph coalescer
(:mod:`~repro.serve.coalescer`) until a batch seals, and batches go to
the earliest-free GPU worker (:mod:`~repro.serve.scheduler`).  Every
admitted query gets a *modelled* latency:

``latency = queue_wait + formation + compute``

where queue wait is real virtual-clock time (coalescing + scheduler
backlog), formation comes from the plan's batch-formation table, and
compute is the query's *per-column* share of the batch's
:class:`~repro.apps.power_method.BatchBill` — so a solo (``k = 1``)
query's compute equals :func:`repro.apps.rwr.rwr`'s ``modeled_time_s``
bit for bit, and a full batch's longest column equals
:func:`repro.apps.rwr.run_rwr_batch`'s.

The numeric side (per-query iteration counts) runs the RWR trajectory
(:func:`repro.apps.rwr.rwr_trajectory`, numerics only) once per distinct
``(graph, seed)`` and is cached; billing
reconstructs the batch schedule from iteration counts alone, so the
event loop never re-runs numerics for popular seeds.

Everything is deterministic: events order by ``(time, push sequence)``,
no wall clock or RNG anywhere.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..apps.power_method import MAX_ITERATIONS, make_batch_bill
from ..apps.rwr import DEFAULT_RESTART, rwr_trajectory
from ..gpu.device import DeviceSpec, Precision
from .admission import AdmissionController, AdmissionPolicy
from .coalescer import CoalescePolicy, Coalescer
from .plans import ServePlan, operator_format, plan_for
from .queries import (
    BatchEvent,
    BatchRecord,
    CompletedQuery,
    QueryRequest,
    ShedEvent,
    ShedQuery,
)
from .scheduler import WorkerPool

#: Convergence threshold serving uses by default — looser than the
#: paper's 1e-6 offline figure because interactive queries trade the
#: last digits of the ranking for latency.
DEFAULT_SERVE_EPSILON = 1e-3

@dataclass(frozen=True)
class ServeConfig:
    """Serving-policy knobs of one engine."""

    #: Widest coalesced batch (must fit every plan's ``k_max``).
    max_batch: int = 8
    #: Longest a query waits for batch company.
    max_wait_s: float = 250e-6
    #: Global admitted-but-unstarted bound.
    queue_limit: int = 64
    #: Per-tenant queued bound.
    tenant_limit: int = 16
    #: Worker GPUs (one stream each).
    gpus: int = 1
    #: RWR convergence threshold.
    epsilon: float = DEFAULT_SERVE_EPSILON
    #: RWR restart probability.
    restart: float = DEFAULT_RESTART
    #: Iteration cap per query.
    max_iterations: int = MAX_ITERATIONS

    def __post_init__(self) -> None:
        if self.gpus < 1:
            raise ValueError("need at least one GPU")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.restart < 1.0:
            raise ValueError("restart probability must be in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class GraphContext:
    """One registered graph: its plan, backend format, and query cache."""

    key: str
    plan: ServePlan
    fmt: object
    #: ``node -> (iterations, converged)`` from the real RWR numerics.
    query_cache: dict[int, tuple[int, bool]] = field(default_factory=dict)


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one :meth:`ServeEngine.run_trace` (rid order).

    Besides the outcomes, the result carries the run's event log
    (:attr:`batch_events`, :attr:`shed_events`) and what observers need
    to derive telemetry from it (:attr:`device`, :attr:`formats`).
    """

    requests: tuple[CompletedQuery | ShedQuery, ...]
    #: When the last batch's worker freed (0.0 with no batches).
    makespan_s: float
    config: ServeConfig
    #: The device the run was modelled on.
    device: DeviceSpec | None = None
    #: Each registered graph's backend format (which knows its row
    #: count), by graph key: what batch attribution needs.
    formats: Mapping[str, object] = field(default_factory=dict)
    #: One event per batch, in ``batch_id`` order.
    batch_events: tuple[BatchEvent, ...] = ()
    #: One event per shed query, in shed order.
    shed_events: tuple[ShedEvent, ...] = ()

    @property
    def batches(self) -> tuple[BatchRecord, ...]:
        """Each batch's record, in ``batch_id`` order."""
        return tuple(e.record for e in self.batch_events)

    @property
    def admitted(self) -> tuple[CompletedQuery, ...]:
        """The served queries, in rid order."""
        return tuple(
            r for r in self.requests if isinstance(r, CompletedQuery)
        )

    @property
    def shed(self) -> tuple[ShedQuery, ...]:
        """The load-shed queries, in rid order."""
        return tuple(r for r in self.requests if isinstance(r, ShedQuery))

    @property
    def latencies_s(self) -> tuple[float, ...]:
        """Modelled end-to-end latencies of the served queries."""
        return tuple(r.latency_s for r in self.admitted)

    @property
    def queries_per_s(self) -> float:
        """Served throughput over the run's makespan."""
        n = len(self.admitted)
        return n / self.makespan_s if self.makespan_s > 0 else 0.0


class ServeEngine:
    """Multi-tenant RWR query serving over registered graphs."""

    def __init__(
        self, device: DeviceSpec, config: ServeConfig | None = None
    ) -> None:
        self.device = device
        self.config = config or ServeConfig()
        self._graphs: dict[str, GraphContext] = {}

    def register(
        self,
        matrix_key: str,
        scale: float | None = None,
        precision: Precision = Precision.SINGLE,
        format_name: str = "auto",
        k_max: int | None = None,
    ) -> ServePlan:
        """Register one corpus graph for serving; returns its plan.

        The plan (format choice + cost tables) is memoized through
        :func:`repro.serve.plans.plan_for`; the numeric backend is the
        session-cached format over the graph's column-normalised RWR
        operator (:func:`repro.serve.plans.operator_format`).  The
        graph is keyed by its Table I abbreviation.
        """
        plan = plan_for(
            matrix_key,
            self.device,
            precision=precision,
            scale=scale,
            format_name=format_name,
            k_max=self.config.max_batch if k_max is None else k_max,
        )
        if plan.k_max < self.config.max_batch:
            raise ValueError(
                f"plan for {plan.abbrev} prices widths up to {plan.k_max}, "
                f"below max_batch={self.config.max_batch}"
            )
        fmt = operator_format(
            matrix_key, plan.format_name, precision, plan.scale
        )
        self._graphs[plan.abbrev] = GraphContext(
            key=plan.abbrev, plan=plan, fmt=fmt
        )
        return plan

    def registered_graphs(self) -> tuple[tuple[str, int], ...]:
        """``(graph_key, n_nodes)`` pairs in registration order."""
        return tuple(
            (ctx.key, ctx.plan.n_rows) for ctx in self._graphs.values()
        )

    def _context(self, graph: str) -> GraphContext:
        ctx = self._graphs.get(graph)
        if ctx is None:
            raise ValueError(
                f"graph {graph!r} not registered "
                f"(registered: {sorted(self._graphs)})"
            )
        return ctx

    def _iterations(self, ctx: GraphContext, node: int) -> tuple[int, bool]:
        """Iteration count of one query (real numerics, cached)."""
        cached = ctx.query_cache.get(node)
        if cached is None:
            traj = rwr_trajectory(
                ctx.fmt,
                [node],
                restart=self.config.restart,
                epsilon=self.config.epsilon,
                max_iterations=self.config.max_iterations,
            )
            cached = (int(traj.iterations[0]), bool(traj.converged[0]))
            ctx.query_cache[node] = cached
        return cached

    def run_trace(self, requests, monitor=None, tracer=None) -> ServeResult:
        """Serve one query trace to completion on the virtual clock.

        The run records its event log on the :class:`ServeResult`: one
        frozen :class:`~repro.serve.queries.BatchEvent` per batch and
        one :class:`~repro.serve.queries.ShedEvent` per shed query.
        ``monitor`` (a :class:`~repro.serve.monitor.ServeMonitor`) and
        ``tracer`` (a :class:`~repro.obs.tracing.QueryTracer`) derive
        everything from the sealed result: the engine hands it to them
        once, after it is built, so attaching either can never change an
        outcome, a modelled time, or the event order.  The monitor goes
        first, so a tracer may read its alert log for tail sampling;
        that is why a tracer's monitor must be the one attached here.
        """
        reqs = tuple(requests)
        if len({r.rid for r in reqs}) != len(reqs):
            raise ValueError("request rids must be unique")
        for r in reqs:
            self._context(r.graph)  # fail fast on unknown graphs
        observers = tuple(o for o in (monitor, tracer) if o is not None)
        for watcher in observers:
            if watcher.finalized:
                raise RuntimeError(
                    f"a {type(watcher).__name__} watches exactly one run; "
                    "create a fresh one"
                )
        if tracer is not None and tracer.monitor is not None:
            if tracer.monitor is not monitor:
                raise ValueError(
                    "the tracer's monitor is not attached to this run; "
                    "pass it to run_trace as monitor="
                )

        admission = AdmissionController(
            AdmissionPolicy(
                queue_limit=self.config.queue_limit,
                tenant_limit=self.config.tenant_limit,
            )
        )
        coalescer = Coalescer(
            CoalescePolicy(
                max_batch=self.config.max_batch,
                max_wait_s=self.config.max_wait_s,
            )
        )
        pool = WorkerPool(self.config.gpus)
        outcomes: dict[int, CompletedQuery | ShedQuery] = {}
        batch_events: list[BatchEvent] = []
        shed_events: list[ShedEvent] = []
        events: list[tuple] = []
        seq = 0

        def push(time_s: float, kind: str, payload) -> None:
            nonlocal seq
            heapq.heappush(events, (time_s, seq, kind, payload))
            seq += 1

        def close_batch(graph: str, now: float) -> None:
            batch = coalescer.close(graph, now)
            if not batch:
                return
            if coalescer.pending(graph):
                push(coalescer.deadline(graph), "flush", graph)
            ctx = self._graphs[graph]
            numeric = [self._iterations(ctx, r.node) for r in batch]
            its = [n[0] for n in numeric]
            bill = make_batch_bill(its, ctx.plan.cost_of_width)
            col_times = bill.column_times_s(its)
            k = len(batch)
            worker, start = pool.place(now)
            formation = ctx.plan.formation_s(k)
            compute = bill.total_s
            end = (start + formation) + compute
            pool.commit(worker, end)
            push(start, "release", batch)
            batch_id = len(batch_events)
            record = BatchRecord(
                batch_id=batch_id,
                graph=graph,
                worker=worker,
                k=k,
                close_s=now,
                start_s=start,
                formation_s=formation,
                compute_s=compute,
                end_s=end,
            )
            for j, r in enumerate(batch):
                queue_wait = start - r.arrival_s
                compute_j = float(col_times[j])
                latency = queue_wait + formation + compute_j
                outcomes[r.rid] = CompletedQuery(
                    request=r,
                    batch_id=batch_id,
                    worker=worker,
                    k=k,
                    iterations=its[j],
                    converged=numeric[j][1],
                    queue_wait_s=queue_wait,
                    formation_s=formation,
                    compute_s=compute_j,
                    latency_s=latency,
                )
            batch_events.append(
                BatchEvent(
                    record=record,
                    iterations=tuple(its),
                    bill=bill,
                    queue_depth=admission.depth,
                    coalescer_pending=coalescer.pending(graph),
                    completions=tuple(outcomes[r.rid] for r in batch),
                )
            )

        for r in reqs:
            push(r.arrival_s, "arrive", r)

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == "arrive":
                req: QueryRequest = payload
                reason = admission.try_admit(req.tenant)
                if reason is not None:
                    retry = max(
                        self.config.max_wait_s,
                        (pool.min_free_at() - now) + self.config.max_wait_s,
                    )
                    shed = ShedQuery(
                        request=req, reason=reason, retry_after_s=retry
                    )
                    outcomes[req.rid] = shed
                    shed_events.append(ShedEvent(shed, admission.depth))
                    continue
                deadline = coalescer.add(req, now)
                if deadline is not None:
                    push(deadline, "flush", req.graph)
                if coalescer.full(req.graph):
                    close_batch(req.graph, now)
            elif kind == "flush":
                if coalescer.due(payload, now):
                    close_batch(payload, now)
            elif kind == "release":
                for r in payload:
                    admission.release(r.tenant)

        makespan = max((e.record.end_s for e in batch_events), default=0.0)
        result = ServeResult(
            requests=tuple(outcomes[rid] for rid in sorted(outcomes)),
            makespan_s=makespan,
            config=self.config,
            device=self.device,
            formats={key: ctx.fmt for key, ctx in self._graphs.items()},
            batch_events=tuple(batch_events),
            shed_events=tuple(shed_events),
        )
        for watcher in observers:
            watcher._finalize(result)
        return result
