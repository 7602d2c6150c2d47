"""Self-contained HTML ops dashboard for one monitored serve run.

One ``repro serve-sim --html-dash`` artifact = one file: run summary,
per-tenant / per-graph sparklines of the rolling qps, windowed p99 and
shed-rate series, the burn-rate alert log, the flight recorder's
captured batch timelines (SVG Gantt) with their exact attributions, and
— when a :class:`~repro.obs.tracing.QueryTracer` is attached — the
slowest traced queries' span waterfalls with their exact explain
tables.  No external scripts, stylesheets, fonts or network fetches —
same portability contract as the diff report
(:mod:`repro.obs.report_html`, whose CSS and SVG helpers this reuses).
Everything is derived from the monitor's and tracer's deterministic
record streams, so the same seed renders the byte-identical file.
"""

from __future__ import annotations

import html
from pathlib import Path

from ..obs.report_html import (
    _CATEGORY_FILL,
    _CSS,
    svg_gantt,
    svg_sparkline,
    svg_waterfall,
)
from ..obs.tracing import ExplainTable, trace_waterfall
from .monitor import ServeMonitor, expand_series
from .report import slo_summary
from .server import ServeResult

__all__ = ["serve_dash_html", "write_serve_dash"]


def _fmt_us(v) -> str:
    return "-" if v is None else f"{v * 1e6:.1f}"


def _series(monitor: ServeMonitor) -> dict:
    """Per-tick metric records regrouped per (scope, key), in time order."""
    out: dict = {}
    for rec in expand_series(monitor.records, monitor.meta()):
        s = out.setdefault(
            (rec["scope"], rec["key"]),
            {"t": [], "qps": [], "p99": [], "shed": [], "depth": []},
        )
        s["t"].append(rec["t_s"])
        s["qps"].append(rec["qps"])
        s["p99"].append(rec["p99_s"])
        s["shed"].append(rec["shed_rate"])
        s["depth"].append(rec["queue_depth"])
    return out


def _summary_table(result: ServeResult, monitor: ServeMonitor) -> str:
    slo = slo_summary(result)
    mon = monitor.summary
    rows = [
        ("admitted / shed", f"{slo['admitted']} / {slo['shed']}"),
        ("queries/s", f"{slo['queries_per_s']:.1f}"),
        ("makespan", f"{slo['makespan_s'] * 1e3:.3f} ms"),
        (
            "exact p50 / p95 / p99 (us)",
            f"{_fmt_us(slo['p50_s'])} / {_fmt_us(slo['p95_s'])} / "
            f"{_fmt_us(slo['p99_s'])}",
        ),
        (
            "windowed p50 / p95 / p99 (us)",
            f"{_fmt_us(mon['windowed_p50_s'])} / "
            f"{_fmt_us(mon['windowed_p95_s'])} / "
            f"{_fmt_us(mon['windowed_p99_s'])}",
        ),
        ("window", f"{monitor.config.window_s * 1e3:.3f} ms"),
        ("alerts fired", str(mon["alert_count"])),
        ("flight records", str(mon["flight_records"])),
    ]
    if slo["no_admitted_queries"]:
        rows.insert(0, ("NO ADMITTED QUERIES", "every request was shed"))
    cells = "".join(
        f"<tr><td>{html.escape(k)}</td><td>{html.escape(v)}</td></tr>"
        for k, v in rows
    )
    return f"<table>{cells}</table>"


def _sparkline_grid(monitor: ServeMonitor) -> str:
    series = _series(monitor)
    rows = [
        "<tr><th>series</th><th>qps</th><th>windowed p99</th>"
        "<th>shed rate</th></tr>"
    ]
    for (scope, key), s in series.items():
        label = "global" if scope == "global" else f"{scope} {key}"
        rows.append(
            "<tr>"
            f"<td>{html.escape(label)}</td>"
            f"<td>{svg_sparkline(s['qps'], label=f'{label} qps')}</td>"
            f"<td>{svg_sparkline(s['p99'], stroke='#f58518', label=f'{label} p99')}</td>"
            f"<td>{svg_sparkline(s['shed'], stroke='#b42318', label=f'{label} shed rate')}</td>"
            "</tr>"
        )
    depth = series.get(("global", "*"), {}).get("depth", [])
    if any(d is not None for d in depth):
        rows.append(
            "<tr><td>queue depth</td>"
            f"<td colspan=\"3\">{svg_sparkline(depth, stroke='#54a24b', label='queue depth')}</td></tr>"
        )
    return '<table class="grid">' + "".join(rows) + "</table>"


def _alert_log(monitor: ServeMonitor) -> str:
    if not monitor.config.slos:
        return "<p>No objectives configured.</p>"
    specs = ", ".join(
        html.escape(s if isinstance(s, str) else s.spec)
        for s in monitor.config.slos
    )
    head = f'<p>Objectives: <span class="mono">{specs}</span></p>'
    if not monitor.alerts:
        return head + "<p>No burn-rate transitions — budget intact.</p>"
    rows = [
        "<tr><th>t (ms)</th><th>slo</th><th>key</th><th>state</th>"
        "<th>burn fast</th><th>burn slow</th><th>events</th></tr>"
    ]
    for a in monitor.alerts:
        rows.append(
            "<tr>"
            f"<td>{a.t_s * 1e3:.4f}</td>"
            f'<td class="mono">{html.escape(a.slo)}</td>'
            f"<td>{html.escape(a.key)}</td>"
            f'<td class="{a.state}">{a.state}</td>'
            f"<td>{a.burn_fast:.2f}</td><td>{a.burn_slow:.2f}</td>"
            f"<td>{a.window_events}</td></tr>"
        )
    return head + "<table>" + "".join(rows) + "</table>"


def _flight_section(monitor: ServeMonitor) -> str:
    if not monitor.flight_records:
        return "<p>Flight recorder empty — no tail or alert triggers.</p>"
    parts = []
    for fr in monitor.flight_records:
        b = fr.batch
        why = (
            f"latency {fr.latency_s * 1e6:.1f} us above rolling p99 "
            f"{_fmt_us(fr.window_p99_s)} us"
            if fr.trigger == "p99_tail"
            else "alert: " + ", ".join(fr.alerts)
        )
        parts.append(
            f"<h3>batch {b.batch_id} — {html.escape(fr.trigger)} "
            f"(rid {fr.rid}, tenant {html.escape(fr.tenant)})</h3>"
            f"<p>{html.escape(why)}; k={b.k}, worker {b.worker}, "
            f"queue depth {fr.queue_depth}, "
            f"coalescer pending {fr.coalescer_pending}</p>"
        )
        parts.append(svg_gantt(fr.timeline))
        terms = "".join(
            f"<tr><td>{html.escape(k)}</td><td>{v * 1e6:.3f}</td></tr>"
            for k, v in fr.attribution.nonzero()
        )
        parts.append(
            "<table><tr><th>term</th><th>us</th></tr>" + terms + "</table>"
        )
    return "".join(parts)


def _trace_section(tracer, slowest: int) -> str:
    """Slow-query section: span waterfalls + exact explain waterfalls."""
    roots = [r for r in tracer.request_roots if r.status == "ok"]
    if not roots:
        return "<p>No admitted request traces kept.</p>"
    parts = [
        f"<p>{tracer.summary['kept']} traces kept "
        f"({tracer.summary['dropped']} dropped); showing the "
        f"{min(slowest, len(roots))} slowest.</p>"
    ]
    for root in roots[:slowest]:
        a = root.attrs
        parts.append(
            f'<h3>trace <span class="mono">{html.escape(root.trace_id)}'
            f"</span> — rid {a.get('rid')}, tenant "
            f"{html.escape(str(a.get('tenant')))}, "
            f"{root.duration_s * 1e6:.1f} us "
            f"(sampled by {html.escape(', '.join(a.get('sampled_by', ())))})"
            "</h3>"
        )
        parts.append(svg_gantt(trace_waterfall(tracer.traces[root.trace_id])))
        table = ExplainTable.from_root_span(root)
        if table is not None:
            parts.append(svg_waterfall(table.nonzero()))
    return "".join(parts)


def serve_dash_html(
    result: ServeResult,
    monitor: ServeMonitor,
    title: str = "serve monitor",
    tracer=None,
    slowest: int = 3,
) -> str:
    """The full self-contained dashboard document for one run.

    ``tracer`` (an optional finalized
    :class:`~repro.obs.tracing.QueryTracer`) adds a "Slow queries
    (traced)" section with the ``slowest`` kept requests' span
    waterfalls and exact explain waterfalls.
    """
    legend = "".join(
        f'<span><span class="swatch" style="background:{color}"></span>'
        f"{html.escape(cat)}</span>"
        for cat, color in _CATEGORY_FILL.items()
    )
    trace_part = (
        ""
        if tracer is None
        else "<h2>Slow queries (traced)</h2>"
        + _trace_section(tracer, slowest)
    )
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head>
<body>
<h1>{html.escape(title)}</h1>
{_summary_table(result, monitor)}
<h2>Rolling series</h2>
{_sparkline_grid(monitor)}
<h2>SLO burn-rate alerts</h2>
{_alert_log(monitor)}
<h2>Flight recorder</h2>
{_flight_section(monitor)}
{trace_part}
<p class="legend">{legend}</p>
</body></html>
"""


def write_serve_dash(
    result: ServeResult,
    monitor: ServeMonitor,
    path,
    title: str = "serve monitor",
    tracer=None,
    slowest: int = 3,
) -> Path:
    """Write the dashboard artifact; returns the path written."""
    path = Path(path)
    path.write_text(
        serve_dash_html(
            result, monitor, title=title, tracer=tracer, slowest=slowest
        )
    )
    return path
