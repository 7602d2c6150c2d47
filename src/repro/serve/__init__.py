"""``repro.serve`` — multi-tenant RWR/PageRank query serving.

The north-star workload behind the paper's graph applications is a
*service*: millions of users each asking "what's relevant to me?"
against shared graphs.  This package models that serving tier end to
end on the simulator's virtual clock, deterministically:

* :mod:`~repro.serve.queries` — request/outcome types with an explicit
  modelled-latency decomposition (queue wait + formation + compute),
  and the batch/shed entries of a run's event log.
* :mod:`~repro.serve.plans` — per-(matrix, device) serving plans:
  advisor format choice plus frozen per-width cost tables, memoized in
  session and (via ``REPRO_CELL_CACHE``) on disk.
* :mod:`~repro.serve.admission` — bounded-queue admission control with
  per-tenant caps and retry-after load shedding.
* :mod:`~repro.serve.coalescer` — size-or-timeout batching of
  same-graph queries into one SpMM batch, tenant-fair under overload.
* :mod:`~repro.serve.scheduler` — earliest-free placement onto the
  multi-GPU worker pool, plus the workers' Chrome trace.
* :mod:`~repro.serve.loadgen` — seeded Zipfian/bursty load generator.
* :mod:`~repro.serve.server` — the discrete-event engine itself.
* :mod:`~repro.serve.report` — JSONL reports with exact-percentile SLO
  summaries, schema-validated by ``repro profile-check``.
* :mod:`~repro.serve.monitor` — live (virtual-clock) telemetry: rolling
  windowed series per graph/tenant, burn-rate SLO alerts
  (:mod:`repro.obs.slo`), and a tail-sampling flight recorder whose
  captured timelines equal the billed compute bit-for-bit.  Derived
  from the sealed result's event log, so results are byte-identical
  with or without a monitor.
* :mod:`~repro.serve.dashboard` — the self-contained HTML ops dashboard
  (``serve-sim --html-dash``).

``repro serve-sim`` (see :mod:`repro.__main__`) drives the whole stack
from the command line.
"""

from .admission import (
    REASON_QUEUE_FULL,
    REASON_TENANT_LIMIT,
    AdmissionController,
    AdmissionPolicy,
)
from .coalescer import CoalescePolicy, Coalescer
from .loadgen import (
    TraceConfig,
    auto_interarrival_s,
    expected_iterations,
    generate_trace,
    zipf_cdf,
)
from .plans import (
    DEFAULT_K_MAX,
    SERVE_PLAN_VERSION,
    ServePlan,
    clear_plan_cache,
    operator_format,
    plan_for,
)
from .dashboard import serve_dash_html, write_serve_dash
from .monitor import (
    FlightRecord,
    MonitorConfig,
    ServeMonitor,
    batch_timeline,
    expand_series,
)
from .queries import (
    BatchEvent,
    BatchRecord,
    CompletedQuery,
    QueryRequest,
    ShedEvent,
    ShedQuery,
)
from .report import (
    serve_report_lines,
    shed_by_tenant,
    slo_summary,
    write_serve_jsonl,
)
from .scheduler import WorkerPool, worker_chrome_trace
from .server import (
    DEFAULT_SERVE_EPSILON,
    GraphContext,
    ServeConfig,
    ServeEngine,
    ServeResult,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BatchEvent",
    "BatchRecord",
    "CoalescePolicy",
    "Coalescer",
    "CompletedQuery",
    "DEFAULT_K_MAX",
    "DEFAULT_SERVE_EPSILON",
    "FlightRecord",
    "GraphContext",
    "MonitorConfig",
    "QueryRequest",
    "REASON_QUEUE_FULL",
    "REASON_TENANT_LIMIT",
    "SERVE_PLAN_VERSION",
    "ServeConfig",
    "ServeEngine",
    "ServeMonitor",
    "ServePlan",
    "ServeResult",
    "ShedEvent",
    "ShedQuery",
    "TraceConfig",
    "WorkerPool",
    "auto_interarrival_s",
    "batch_timeline",
    "clear_plan_cache",
    "expand_series",
    "expected_iterations",
    "generate_trace",
    "operator_format",
    "plan_for",
    "serve_dash_html",
    "serve_report_lines",
    "shed_by_tenant",
    "slo_summary",
    "worker_chrome_trace",
    "write_serve_dash",
    "write_serve_jsonl",
    "zipf_cdf",
]
