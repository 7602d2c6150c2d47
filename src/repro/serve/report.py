"""Serve-report JSONL: the machine-readable artifact ``serve-sim`` emits.

Layout (one JSON object per line, validated by
:func:`repro.obs.validate_profile_jsonl`):

* one ``meta`` line (``kind: "serve"`` plus the run's configuration),
* one ``request`` line per query in rid order — admitted queries carry
  the full latency decomposition (``latency_s`` is the plain float sum
  of its three terms, reproducible from the record alone), shed queries
  their reason and retry-after,
* one ``span`` line per coalesced batch (path
  ``serve/<graph>/batch-<id>``),
* one ``slo`` line — queries/s and exact p50/p95/p99 latency
  percentiles (:func:`repro.obs.exact_quantile`, not histogram
  estimates),
* one ``metrics`` line (:func:`serve_metrics`): request, batch and
  latency counters and histograms, derived from the run's event log
  when the line is written.

Everything serialised is derived from the deterministic virtual-clock
run, so the same seed yields the byte-identical file — and so does a
second run on the same engine.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..obs.registry import exact_quantile, histogram_entry
from .queries import CompletedQuery
from .server import ServeResult


#: Bucket bounds of the batch-width histogram.
_WIDTH_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def shed_by_tenant(result: ServeResult) -> dict[str, int]:
    """Shed-query counts per tenant (sorted keys, zero counts omitted)."""
    counts: dict[str, int] = {}
    for outcome in result.shed:
        tenant = outcome.request.tenant
        counts[tenant] = counts.get(tenant, 0) + 1
    return dict(sorted(counts.items()))


def slo_summary(result: ServeResult) -> dict:
    """The ``slo`` record: throughput, exact percentiles, run counts.

    When every request was shed the record says so explicitly
    (``no_admitted_queries: true``) instead of leaving only bare null
    percentiles for the reader to interpret.
    """
    latencies = result.latencies_s
    admitted = len(latencies)

    def pct(q: float) -> float | None:
        return exact_quantile(latencies, q) if admitted else None

    widths = [b.k for b in result.batches]
    return {
        "record": "slo",
        "queries_per_s": result.queries_per_s,
        "p50_s": pct(0.50),
        "p95_s": pct(0.95),
        "p99_s": pct(0.99),
        "admitted": admitted,
        "shed": len(result.shed),
        "no_admitted_queries": admitted == 0 and len(result.requests) > 0,
        "shed_by_tenant": shed_by_tenant(result),
        "batches": len(result.batches),
        "mean_batch_width": (
            sum(widths) / len(widths) if widths else None
        ),
        "makespan_s": result.makespan_s,
    }


def serve_metrics(result: ServeResult) -> dict:
    """The ``metrics`` record, derived from the run's event log.

    Counts of batches, served and shed requests, the batch-width and
    latency histograms (in batch, then column order), and the served
    throughput gauge.  Counts and histograms with no events behind them
    are left out.
    """
    batches, sheds = result.batch_events, result.shed_events
    done = [c for e in batches for c in e.completions]
    out: dict = {}
    if batches:
        out["serve_batches_total"] = _counter(len(batches))
        out["serve_batch_width"] = histogram_entry(
            (e.record.k for e in batches), _WIDTH_BOUNDS
        )
        out["serve_requests_total{status=ok}"] = _counter(len(done))
        out["serve_latency_s"] = histogram_entry(c.latency_s for c in done)
    if sheds:
        out["serve_requests_total{status=shed}"] = _counter(len(sheds))
    qps = float(result.queries_per_s)
    out["serve_queries_per_s"] = {"type": "gauge", "value": qps}
    return out


def _counter(n: int) -> dict:
    return {"type": "counter", "value": float(n)}


def _request_record(outcome) -> dict:
    base = {
        "record": "request",
        "rid": outcome.request.rid,
        "tenant": outcome.request.tenant,
        "graph": outcome.request.graph,
        "node": outcome.request.node,
        "arrival_s": outcome.request.arrival_s,
    }
    if isinstance(outcome, CompletedQuery):
        base.update(
            status="ok",
            batch=outcome.batch_id,
            worker=outcome.worker,
            k=outcome.k,
            iterations=outcome.iterations,
            converged=outcome.converged,
            queue_wait_s=outcome.queue_wait_s,
            formation_s=outcome.formation_s,
            compute_s=outcome.compute_s,
            latency_s=outcome.latency_s,
            completion_s=outcome.completion_s,
        )
    else:
        base.update(
            status="shed",
            reason=outcome.reason,
            retry_after_s=outcome.retry_after_s,
        )
    return base


def serve_report_lines(result: ServeResult, monitor=None, **meta) -> list[str]:
    """All JSONL lines of one serve report (meta kwargs land in line 1).

    With a finalized :class:`~repro.serve.monitor.ServeMonitor` the
    report additionally carries the monitor's configuration in the meta
    line and its time-ordered ``metric`` / ``alert`` / ``flightrec``
    stream between the batch spans and the final summary records.
    """
    if monitor is not None:
        meta = {**meta, "monitor": monitor.meta()}
    lines = [json.dumps({"record": "meta", "kind": "serve", **meta})]
    for outcome in result.requests:
        lines.append(json.dumps(_request_record(outcome)))
    for b in result.batches:
        lines.append(
            json.dumps(
                {
                    "record": "span",
                    "name": f"batch-{b.batch_id}",
                    "path": f"serve/{b.graph}/batch-{b.batch_id}",
                    "attrs": {
                        "worker": b.worker,
                        "k": b.k,
                        "close_s": b.close_s,
                        "start_s": b.start_s,
                    },
                    "time_s": b.duration_s,
                }
            )
        )
    if monitor is not None:
        lines.extend(monitor.jsonl_lines())
    lines.append(json.dumps(slo_summary(result)))
    metrics = serve_metrics(result)
    lines.append(json.dumps({"record": "metrics", "metrics": metrics}))
    return lines


def write_serve_jsonl(result: ServeResult, path, monitor=None, **meta) -> Path:
    """Write one serve report; returns the path written."""
    path = Path(path)
    with path.open("w") as f:
        for line in serve_report_lines(result, monitor=monitor, **meta):
            f.write(line + "\n")
    return path
