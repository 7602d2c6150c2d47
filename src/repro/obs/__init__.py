"""``repro.obs`` — the observability layer: counters, spans, exporters.

The simulator computes occupancy, load balance, coalesced traffic and
launch overheads internally; this package makes those quantities
first-class telemetry, in the vocabulary of CUPTI/nvprof:

* :mod:`~repro.obs.counters` — per-launch :class:`CounterSet` derived
  from the exact ``(work, timing)`` pairs the timing model produced,
  plus aggregation across sequences / devices / SpMM batches.
* :mod:`~repro.obs.profiler` — the zero-dependency :class:`Profiler`:
  nested spans of explicitly recorded counter sets.  Nothing taps the
  simulator; every record comes from a ``(work, timing)`` pair a timing
  model returned, so a profile totals the modelled seconds.
* :mod:`~repro.obs.profile` — ``nvprof``-style :func:`profile_format`
  with a :class:`RooflineVerdict` (limiting resource + headroom).
* :mod:`~repro.obs.imbalance` — warp-skew statistics (Gini, tail-warp
  share) behind the paper's Figures 2/3 argument.
* :mod:`~repro.obs.attribution` — critical-path attribution: named
  contributions that float-sum exactly to every modelled time.
* :mod:`~repro.obs.timeline` — read-only timeline reconstruction of a
  format's modelled run (per-SM detail, launch/pool/enqueue lanes)
  whose critical path equals its ``time_s`` bit-for-bit.
* :mod:`~repro.obs.diff` — differential profiling (``repro diff``):
  ranked "why B beats A" tables whose deltas sum exactly to the gap.
* :mod:`~repro.obs.slo` — declarative serving objectives
  (``p99<=0.005@10s``) with multi-window burn-rate alerting, read from
  :class:`~repro.obs.registry.WindowLog`: an append-only log whose
  writes arrive in non-decreasing virtual time, so every bucket-aligned
  rolling window is one slice of it.  The serve monitor's series and
  the p99 tail rule read the same log.
* :mod:`~repro.obs.export` — JSONL / CSV / Chrome-counter-track
  exporters plus the JSONL and Chrome-trace schema validators CI gates
  on; a JSONL ``metrics`` line is derived from the records it
  summarises when the file is written (:func:`launch_metrics`, with
  :func:`histogram_entry` from :mod:`~repro.obs.registry`).
  :mod:`~repro.obs.report_html` renders the self-contained HTML diff
  artifact.
"""

from .attribution import (
    TERM_ORDER,
    Attribution,
    attribute_format,
    attribute_launch,
    attribute_sequence,
    force_exact_sum,
    merge_attributions,
)
from .counters import CounterSet, aggregate, launch_counters, with_totals
from .diff import DiffReport, DiffSide, build_side, diff_formats, diff_sides
from .export import (
    chrome_counter_trace,
    counter_set_dict,
    launch_metrics,
    validate_chrome_trace,
    validate_profile_jsonl,
    write_csv,
    write_diff_jsonl,
    write_jsonl,
)
from .imbalance import (
    TAIL_THRESHOLD,
    tail_warp_count,
    tail_warp_mask,
    tail_warp_share,
    warp_work_gini,
)
from .profile import (
    FormatProfile,
    RooflineVerdict,
    profile_format,
    verdict_for,
)
from .profiler import Profiler, Span
from .registry import WindowLog, exact_quantile, histogram_entry
from .report_html import (
    diff_report_html,
    svg_gantt,
    svg_sparkline,
    svg_waterfall,
    write_html_report,
)
from .slo import (
    SLO,
    AlertEvent,
    BurnRatePolicy,
    SLOEngine,
    parse_slo,
    render_alert,
)
from .timeline import (
    Lane,
    LaneEvent,
    LaunchDetail,
    Timeline,
    launch_detail,
    timeline_from_format,
)
from .tracing import (
    EXPLAIN_ORDER,
    ExplainTable,
    QueryTracer,
    TraceContext,
    TracingConfig,
    format_slowest,
    group_traces,
    spans_from_records,
    trace_report_lines,
    trace_waterfall,
    write_trace_jsonl,
)
from .tracing import Span as TraceSpan

__all__ = [
    "CounterSet",
    "aggregate",
    "launch_counters",
    "with_totals",
    "Profiler",
    "Span",
    "WindowLog",
    "exact_quantile",
    "histogram_entry",
    "SLO",
    "AlertEvent",
    "BurnRatePolicy",
    "SLOEngine",
    "parse_slo",
    "render_alert",
    "FormatProfile",
    "RooflineVerdict",
    "profile_format",
    "verdict_for",
    "counter_set_dict",
    "launch_metrics",
    "write_jsonl",
    "write_csv",
    "write_diff_jsonl",
    "chrome_counter_trace",
    "validate_profile_jsonl",
    "validate_chrome_trace",
    "TERM_ORDER",
    "Attribution",
    "attribute_launch",
    "attribute_sequence",
    "attribute_format",
    "merge_attributions",
    "TAIL_THRESHOLD",
    "warp_work_gini",
    "tail_warp_share",
    "tail_warp_mask",
    "tail_warp_count",
    "Timeline",
    "Lane",
    "LaneEvent",
    "LaunchDetail",
    "launch_detail",
    "timeline_from_format",
    "DiffReport",
    "DiffSide",
    "build_side",
    "diff_sides",
    "diff_formats",
    "diff_report_html",
    "svg_gantt",
    "svg_sparkline",
    "svg_waterfall",
    "write_html_report",
    "EXPLAIN_ORDER",
    "ExplainTable",
    "QueryTracer",
    "TraceContext",
    "TraceSpan",
    "TracingConfig",
    "force_exact_sum",
    "format_slowest",
    "group_traces",
    "spans_from_records",
    "trace_report_lines",
    "trace_waterfall",
    "write_trace_jsonl",
]
