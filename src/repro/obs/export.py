"""Exporters + schema validation for profiler output.

Three formats, all dependency-free:

* **JSONL** — one JSON object per line, each tagged with a ``record``
  kind (``meta`` / ``launch`` / ``span`` / ``aggregate`` / ``metrics``,
  ``attribution`` / ``delta`` for differential profiles, ``request`` /
  ``slo`` for serving reports, ``metric`` / ``alert`` / ``flightrec``
  for the live serve monitor's rolling series).  This is
  the machine-readable artifact CI uploads and gates on;
  :func:`validate_profile_jsonl` is the gate and
  :func:`write_diff_jsonl` the diff-report writer.
* **CSV** — one row per launch, for spreadsheets.
* **Chrome counter tracks** — ``"ph": "C"`` events that render as stacked
  counter charts alongside the kernel timeline in ``chrome://tracing`` /
  Perfetto; :func:`validate_chrome_trace` schema-checks any exported
  trace dict (kernel timelines included).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .counters import CounterSet

#: Fields every launch/aggregate JSONL record must carry.
_REQUIRED_COUNTER_FIELDS = (
    "name",
    "device",
    "n_launches",
    "k",
    "time_s",
    "launch_overhead_s",
    "dram_bytes",
    "flops",
    "n_warps",
    "achieved_occupancy",
    "warp_execution_efficiency",
    "gld_coalescing_ratio",
    "dp_children",
    "dp_overflow",
    "bound",
)

#: Counter fields constrained to [0, 1].
_UNIT_INTERVAL_FIELDS = (
    "achieved_occupancy",
    "warp_execution_efficiency",
    "gld_coalescing_ratio",
    "launch_overhead_share",
)

_RECORD_KINDS = (
    "meta",
    "launch",
    "span",
    "aggregate",
    "metrics",
    "attribution",
    "delta",
    "request",
    "slo",
    "metric",
    "alert",
    "flightrec",
)

#: Scopes a serve-monitor ``metric`` record may carry.
_METRIC_SCOPES = ("global", "tenant", "graph")

#: Rolling-percentile fields of a ``metric`` record (numeric or null).
_METRIC_PERCENTILE_FIELDS = ("p50_s", "p95_s", "p99_s")

#: Flight-recorder triggers.
_FLIGHTREC_TRIGGERS = ("p99_tail", "alert")

#: Modelled-latency fields every admitted ``request`` record must carry
#: (``latency_s`` is their plain float sum, in this order).
_REQUEST_LATENCY_FIELDS = (
    "queue_wait_s",
    "formation_s",
    "compute_s",
    "latency_s",
)

#: Percentile fields of the serve report's ``slo`` summary record.
_SLO_PERCENTILE_FIELDS = ("p50_s", "p95_s", "p99_s")

#: CSV column order (stable; append-only for compatibility).
CSV_COLUMNS = (
    "name",
    "device",
    "n_launches",
    "k",
    "time_s",
    "launch_overhead_s",
    "compute_s",
    "memory_s",
    "critical_path_s",
    "dram_bytes",
    "flops",
    "n_warps",
    "achieved_occupancy",
    "warp_execution_efficiency",
    "gld_coalescing_ratio",
    "tex_hit_rate",
    "dp_children",
    "dp_overflow",
    "bound",
    "dram_bw_fraction",
    "flop_fraction",
    "launch_overhead_share",
    "gflops",
)


def counter_set_dict(cs: CounterSet) -> dict:
    """JSON-ready dict of a counter set, derived ratios included."""
    return {
        "name": cs.name,
        "device": cs.device,
        "n_launches": cs.n_launches,
        "k": cs.k,
        "time_s": cs.time_s,
        "launch_overhead_s": cs.launch_overhead_s,
        "compute_s": cs.compute_s,
        "memory_s": cs.memory_s,
        "critical_path_s": cs.critical_path_s,
        "dram_bytes": cs.dram_bytes,
        "flops": cs.flops,
        "n_warps": cs.n_warps,
        "achieved_occupancy": cs.achieved_occupancy,
        "warp_execution_efficiency": cs.warp_execution_efficiency,
        "gld_coalescing_ratio": cs.gld_coalescing_ratio,
        "tex_hit_rate": cs.tex_hit_rate,
        "dp_children": cs.dp_children,
        "dp_overflow": cs.dp_overflow,
        "bound": cs.bound,
        "dram_bw_fraction": cs.dram_bw_fraction,
        "flop_fraction": cs.flop_fraction,
        "launch_overhead_share": cs.launch_overhead_share,
        "gflops": cs.gflops,
        "peak_dram_gbps": cs.peak_dram_gbps,
        "peak_gflops": cs.peak_gflops,
    }


def write_jsonl(profiler, path, **meta) -> Path:
    """Dump a profiler's span tree + metrics as JSON lines.

    Layout: one ``meta`` line, one ``span`` line per span (with its
    aggregate when non-empty), one ``launch`` line per recorded counter
    set (tagged with its span path), one ``aggregate`` line for the
    grand total, one ``metrics`` line with the registry snapshot.
    """
    path = Path(path)
    lines = [
        json.dumps(
            {"record": "meta", "profile": profiler.name, **meta}
        )
    ]
    for span_path, span in profiler.root.walk():
        entry: dict = {
            "record": "span",
            "name": span.name,
            "path": "/".join(span_path),
            "attrs": span.attrs,
            "time_s": span.total_time_s,
        }
        total = span.total()
        if total is not None:
            entry["counters"] = counter_set_dict(total)
        lines.append(json.dumps(entry))
        for cs in span.records:
            lines.append(
                json.dumps(
                    {
                        "record": "launch",
                        "span": "/".join(span_path),
                        **counter_set_dict(cs),
                    }
                )
            )
    grand = profiler.total()
    if grand is not None:
        lines.append(
            json.dumps({"record": "aggregate", **counter_set_dict(grand)})
        )
    lines.append(
        json.dumps(
            {"record": "metrics", "metrics": profiler.registry.snapshot()}
        )
    )
    path.write_text("\n".join(lines) + "\n")
    return path


def write_csv(records, path) -> Path:
    """One CSV row per counter set (launch-level export)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for cs in records:
            row = counter_set_dict(cs)
            writer.writerow({col: row.get(col) for col in CSV_COLUMNS})
    return path


def chrome_counter_trace(records, name: str = "profile") -> dict:
    """Chrome ``"ph": "C"`` counter-track events for a launch stream.

    Launches are laid end to end (the sequence model); each contributes
    points on four counter tracks — occupancy, warp efficiency, DRAM
    %-of-peak, and coalescing — so the tracks render as stepped charts
    above the kernel timeline.
    """
    events = []
    t_us = 0.0
    for cs in records:
        args_by_track = {
            "occupancy": {"value": round(cs.achieved_occupancy, 4)},
            "warp_efficiency": {
                "value": round(cs.warp_execution_efficiency, 4)
            },
            "dram_pct_of_peak": {
                "value": round(100.0 * cs.dram_bw_fraction, 2)
            },
            "gld_coalescing": {"value": round(cs.gld_coalescing_ratio, 4)},
        }
        for track, args in args_by_track.items():
            events.append(
                {
                    "name": track,
                    "cat": "counters",
                    "ph": "C",
                    "ts": t_us,
                    "pid": cs.device or name,
                    "args": args,
                }
            )
        t_us += cs.time_s * 1e6
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_diff_jsonl(report, path, **meta) -> Path:
    """Dump one :class:`~repro.obs.diff.DiffReport` as JSON lines.

    Layout: one ``meta`` line, one ``aggregate`` line per side (full
    counter dict — so the file also passes
    :func:`validate_profile_jsonl`), one ``attribution`` line per side,
    and one ``delta`` line whose per-term values float-sum exactly to
    ``timeA − timeB``.
    """
    path = Path(path)
    lines = [
        json.dumps(
            {
                "record": "meta",
                "kind": "diff",
                "matrix": report.matrix,
                "a": report.a.label,
                "b": report.b.label,
                **meta,
            }
        )
    ]
    for side_key in ("a", "b"):
        side = getattr(report, side_key)
        lines.append(
            json.dumps(
                {
                    "record": "aggregate",
                    "side": side_key,
                    **counter_set_dict(side.profile.total),
                }
            )
        )
        lines.append(
            json.dumps(
                {
                    "record": "attribution",
                    "side": side_key,
                    "name": side.attribution.name,
                    "device": side.attribution.device,
                    "time_s": side.attribution.time_s,
                    "terms": side.attribution.as_dict(),
                }
            )
        )
    lines.append(
        json.dumps(
            {
                "record": "delta",
                "time_a_s": report.a.time_s,
                "time_b_s": report.b.time_s,
                "delta_s": report.delta_s,
                "speedup": report.speedup,
                "winner": report.winner,
                "top_term": report.top_term(),
                "terms": dict(report.deltas),
            }
        )
    )
    path.write_text("\n".join(lines) + "\n")
    return path


def validate_chrome_trace(trace: dict) -> list[str]:
    """Schema-check a Chrome trace-event dict; returns error messages.

    Checked: ``traceEvents`` is a list of objects; every event carries
    ``name``/``cat``/``ph``/``ts``/``pid``; ``ph`` is a complete event
    (``X``, which additionally needs ``dur`` and ``tid``), a counter
    sample (``C``, which needs numeric ``args`` values), or a flow
    start/finish (``s``/``f``, which need ``id`` and ``tid``, and every
    ``f`` must follow a matching ``s``); and within each ``(pid, tid)``
    lane — or ``(pid, name)`` counter track — timestamps never run
    backwards.
    """
    errors: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts: dict[tuple, float] = {}
    flow_start: dict[object, float] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("name", "cat", "ph", "ts", "pid"):
            if key not in ev:
                errors.append(f"{where}: missing key {key!r}")
        ph = ev.get("ph")
        if ph not in ("X", "C", "s", "f"):
            errors.append(f"{where}: unsupported ph {ph!r}")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts={ts!r} not a non-negative number")
            continue
        if ph in ("s", "f"):
            if "tid" not in ev:
                errors.append(f"{where}: flow event missing 'tid'")
            fid = ev.get("id")
            if not isinstance(fid, (int, str)):
                errors.append(f"{where}: flow event needs an 'id'")
                continue
            if ph == "s":
                if fid not in flow_start:
                    flow_start[fid] = ts
            elif fid not in flow_start:
                errors.append(
                    f"{where}: flow finish id={fid!r} without a start"
                )
            elif ts < flow_start[fid]:
                errors.append(
                    f"{where}: flow finish id={fid!r} before its start "
                    f"({ts} < {flow_start[fid]})"
                )
            continue
        if ph == "X":
            if "tid" not in ev:
                errors.append(f"{where}: complete event missing 'tid'")
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"{where}: dur={dur!r} not a non-negative number"
                )
            lane = ("X", ev.get("pid"), ev.get("tid"))
        else:
            args = ev.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                errors.append(f"{where}: counter args must be numeric")
            lane = ("C", ev.get("pid"), ev.get("name"))
        prev = last_ts.get(lane)
        if prev is not None and ts < prev:
            errors.append(
                f"{where}: ts runs backwards on {lane} "
                f"({ts} < {prev})"
            )
        last_ts[lane] = max(prev, ts) if prev is not None else ts
    return errors


def _validate_counter_fields(obj: dict, where: str) -> list[str]:
    errors = []
    for field in _REQUIRED_COUNTER_FIELDS:
        if field not in obj:
            errors.append(f"{where}: missing field {field!r}")
    for field in _UNIT_INTERVAL_FIELDS:
        v = obj.get(field)
        if isinstance(v, (int, float)) and not -1e-9 <= v <= 1.0 + 1e-9:
            errors.append(f"{where}: {field}={v} outside [0, 1]")
    for field in ("time_s", "dram_bytes", "flops"):
        v = obj.get(field)
        if isinstance(v, (int, float)) and v < 0:
            errors.append(f"{where}: {field}={v} negative")
    bound = obj.get("bound")
    if bound is not None and bound not in (
        "compute",
        "memory",
        "latency",
        "launch",
    ):
        errors.append(f"{where}: unknown bound {bound!r}")
    return errors


def _validate_request_fields(obj: dict, where: str) -> list[str]:
    """Field checks for one serve-report ``request`` record."""
    errors = []
    for field in ("tenant", "graph", "node", "arrival_s", "status"):
        if field not in obj:
            errors.append(f"{where}: request missing field {field!r}")
    status = obj.get("status")
    if status not in ("ok", "shed"):
        errors.append(f"{where}: unknown request status {status!r}")
    arrival = obj.get("arrival_s")
    if isinstance(arrival, (int, float)) and arrival < 0:
        errors.append(f"{where}: arrival_s={arrival} negative")
    if status == "ok":
        for field in _REQUEST_LATENCY_FIELDS:
            v = obj.get(field)
            if not isinstance(v, (int, float)):
                errors.append(f"{where}: request missing numeric {field!r}")
            elif v < 0:
                errors.append(f"{where}: {field}={v} negative")
        k = obj.get("k")
        if not isinstance(k, int) or k < 1:
            errors.append(f"{where}: admitted request needs batch width k >= 1")
    elif status == "shed":
        v = obj.get("retry_after_s")
        if not isinstance(v, (int, float)) or v < 0:
            errors.append(
                f"{where}: shed request needs non-negative retry_after_s"
            )
    return errors


def _validate_slo_fields(obj: dict, where: str) -> list[str]:
    """Field checks for the serve-report ``slo`` summary record."""
    errors = []
    qps = obj.get("queries_per_s")
    if not isinstance(qps, (int, float)) or qps < 0:
        errors.append(f"{where}: slo needs non-negative queries_per_s")
    for field in _SLO_PERCENTILE_FIELDS:
        v = obj.get(field)
        # null is allowed (no admitted requests -> no percentiles).
        if v is not None and not isinstance(v, (int, float)):
            errors.append(f"{where}: {field}={v!r} not numeric or null")
    return errors


def _validate_metric_fields(obj: dict, where: str) -> list[str]:
    """Field checks for one serve-monitor rolling ``metric`` record."""
    errors = []
    t = obj.get("t_s")
    if not isinstance(t, (int, float)) or t < 0:
        errors.append(f"{where}: metric needs non-negative t_s")
    if obj.get("scope") not in _METRIC_SCOPES:
        errors.append(f"{where}: unknown metric scope {obj.get('scope')!r}")
    if not isinstance(obj.get("key"), str):
        errors.append(f"{where}: metric needs a string 'key'")
    w = obj.get("window_s")
    if not isinstance(w, (int, float)) or w <= 0:
        errors.append(f"{where}: metric needs positive window_s")
    for field in ("qps", "shed_rate"):
        v = obj.get(field)
        if not isinstance(v, (int, float)) or v < 0:
            errors.append(f"{where}: metric needs non-negative {field!r}")
    shed_rate = obj.get("shed_rate")
    if isinstance(shed_rate, (int, float)) and shed_rate > 1.0 + 1e-9:
        errors.append(f"{where}: shed_rate={shed_rate} above 1")
    n = obj.get("n")
    if not isinstance(n, int) or n < 0:
        errors.append(f"{where}: metric needs integer window count 'n'")
    for field in _METRIC_PERCENTILE_FIELDS:
        v = obj.get(field)
        if v is not None and not isinstance(v, (int, float)):
            errors.append(f"{where}: {field}={v!r} not numeric or null")
    depth = obj.get("queue_depth")
    if depth is not None and (not isinstance(depth, int) or depth < 0):
        errors.append(
            f"{where}: queue_depth={depth!r} not a non-negative int or null"
        )
    return errors


def tick_grid(sample_every_s: float, n_ticks: int, end_t_s: float) -> list:
    """A serve monitor's sample ticks, as its replay places them.

    ``n_ticks - 1`` running sums of the cadence (``t1 = cadence``,
    ``t(i+1) = t(i) + cadence`` in float arithmetic), then the
    end-of-run tick, which may equal the last of them.
    """
    grid = []
    t = sample_every_s
    for _ in range(n_ticks - 1):
        grid.append(t)
        t += sample_every_s
    grid.append(end_t_s)
    return grid


def _validate_metric_grid(path, meta, series: dict) -> list[str]:
    """Cross-line checks over a serve report's ``metric`` series.

    The monitor writes a series only where it changes, so a reader
    needs the tick grid from the meta line's ``monitor`` object, and
    every series must hold a record at the first tick and end with one
    at the end tick; the records before that sit on the running-sum
    grid in strictly increasing ``t_s``.
    """
    monitor = meta.get("monitor") if isinstance(meta, dict) else None
    if not isinstance(monitor, dict):
        monitor = {}
    cadence = monitor.get("sample_every_s")
    n_ticks = monitor.get("n_ticks")
    end_t = monitor.get("end_t_s")
    if not (
        isinstance(cadence, (int, float)) and cadence > 0
        and isinstance(n_ticks, int) and n_ticks >= 1
        and isinstance(end_t, (int, float)) and end_t >= 0
    ):
        return [
            f"{path}: metric records need the monitor's tick grid "
            "(sample_every_s > 0, n_ticks >= 1, end_t_s >= 0) in the "
            "meta line"
        ]
    if n_ticks - 1 > end_t / cadence + 1:
        return [
            f"{path}: a grid of {n_ticks} ticks every {cadence!r} s runs "
            f"past end_t_s={end_t!r}"
        ]
    grid = tick_grid(cadence, n_ticks, end_t)
    on_grid = set(grid[:-1])
    errors = []
    for (scope, key), points in series.items():
        name = f"series {scope}:{key}"
        *steps, (end_where, last_t) = points
        if n_ticks > 1 and (not steps or steps[0][1] != grid[0]):
            errors.append(
                f"{path}: {name} has no record at the first tick {grid[0]!r}"
            )
        prev = None
        for where, t in steps:
            if t not in on_grid:
                errors.append(
                    f"{where}: {name} t_s={t!r} is off the monitor's "
                    "tick grid"
                )
            if prev is not None and t <= prev:
                errors.append(
                    f"{where}: {name} t_s={t!r} does not increase"
                )
            prev = t
        if last_t != end_t:
            errors.append(
                f"{end_where}: {name} ends at t_s={last_t!r}, not at the "
                f"end tick {end_t!r}"
            )
        elif prev is not None and last_t < prev:
            errors.append(
                f"{end_where}: {name} end tick precedes its previous record"
            )
    return errors


def _validate_alert_fields(obj: dict, where: str) -> list[str]:
    """Field checks for one burn-rate ``alert`` transition record."""
    errors = []
    t = obj.get("t_s")
    if not isinstance(t, (int, float)) or t < 0:
        errors.append(f"{where}: alert needs non-negative t_s")
    for field in ("slo", "key"):
        if not isinstance(obj.get(field), str):
            errors.append(f"{where}: alert needs a string {field!r}")
    if obj.get("state") not in ("firing", "resolved"):
        errors.append(f"{where}: unknown alert state {obj.get('state')!r}")
    for field in ("burn_fast", "burn_slow"):
        v = obj.get(field)
        if not isinstance(v, (int, float)) or v < 0:
            errors.append(f"{where}: alert needs non-negative {field!r}")
    n = obj.get("window_events")
    if not isinstance(n, int) or n < 0:
        errors.append(f"{where}: alert needs integer window_events")
    return errors


def _validate_flightrec_fields(obj: dict, where: str) -> list[str]:
    """Field checks for one flight-recorder capture record.

    Beyond presence/type checks this enforces the recorder's exactness
    contract: ``timeline_time_s`` equals the batch's billed
    ``compute_s`` bit-for-bit, and the attribution terms float-sum (in
    listed order) to the same total — JSON round-trips IEEE doubles
    exactly, so both survive serialisation.
    """
    errors = []
    if obj.get("trigger") not in _FLIGHTREC_TRIGGERS:
        errors.append(
            f"{where}: unknown flightrec trigger {obj.get('trigger')!r}"
        )
    for field in ("t_s", "latency_s", "close_s", "start_s",
                  "formation_s", "compute_s", "end_s"):
        v = obj.get(field)
        if not isinstance(v, (int, float)) or v < 0:
            errors.append(f"{where}: flightrec needs non-negative {field!r}")
    for field in ("batch_id", "worker", "rid", "queue_depth",
                  "coalescer_pending"):
        v = obj.get(field)
        if not isinstance(v, int) or v < 0:
            errors.append(f"{where}: flightrec needs integer {field!r}")
    k = obj.get("k")
    if not isinstance(k, int) or k < 1:
        errors.append(f"{where}: flightrec needs batch width k >= 1")
    for field in ("tenant", "graph"):
        if not isinstance(obj.get(field), str):
            errors.append(f"{where}: flightrec needs a string {field!r}")
    for field in ("rids", "iterations", "alerts"):
        if not isinstance(obj.get(field), list):
            errors.append(f"{where}: flightrec needs a list {field!r}")
    tl = obj.get("timeline_time_s")
    compute = obj.get("compute_s")
    if not isinstance(tl, (int, float)):
        errors.append(f"{where}: flightrec needs numeric timeline_time_s")
    elif isinstance(compute, (int, float)) and tl != compute:
        errors.append(
            f"{where}: timeline_time_s={tl!r} != compute_s={compute!r} "
            "(the capture must reproduce the billed compute bit-for-bit)"
        )
    terms = obj.get("attribution")
    if not isinstance(terms, dict) or not all(
        isinstance(v, (int, float)) for v in terms.values()
    ):
        errors.append(f"{where}: flightrec needs numeric 'attribution'")
    elif isinstance(tl, (int, float)):
        s = 0.0
        for v in terms.values():
            s += v
        if s != tl:
            errors.append(
                f"{where}: attribution terms sum to {s!r}, not "
                f"timeline_time_s={tl!r}"
            )
    return errors


def _validate_trace_span_fields(obj: dict, where: str) -> list[str]:
    """Field checks for one causal-trace ``span`` record.

    Trace spans (spans carrying a ``trace_id``) additionally promise:
    non-negative start/duration, a valid status, string links, and —
    for batch compute spans — ``timeline_time_s`` equal to the span's
    duration bit-for-bit (the PR-5 timeline reconstruction contract).
    """
    errors = []
    for field in ("trace_id", "span_id", "kind"):
        if not isinstance(obj.get(field), str):
            errors.append(f"{where}: trace span needs a string {field!r}")
    if obj.get("status") not in ("ok", "shed"):
        errors.append(
            f"{where}: unknown trace span status {obj.get('status')!r}"
        )
    parent = obj.get("parent_id")
    if parent is not None and not isinstance(parent, str):
        errors.append(f"{where}: parent_id must be a string or null")
    for field in ("start_s", "time_s"):
        v = obj.get(field)
        if not isinstance(v, (int, float)) or v < 0:
            errors.append(
                f"{where}: trace span needs non-negative {field!r}"
            )
    attrs = obj.get("attrs", {})
    if not isinstance(attrs, dict):
        errors.append(f"{where}: trace span attrs must be an object")
        attrs = {}
    links = obj.get("links", [])
    if not isinstance(links, list) or not all(
        isinstance(x, str) for x in links
    ):
        errors.append(f"{where}: trace span links must be a string list")
    if obj.get("kind") == "batch_compute":
        tl = attrs.get("timeline_time_s")
        dur = obj.get("time_s")
        if not isinstance(tl, (int, float)):
            errors.append(
                f"{where}: batch_compute span needs numeric "
                "attrs.timeline_time_s"
            )
        elif isinstance(dur, (int, float)) and tl != dur:
            errors.append(
                f"{where}: timeline_time_s={tl!r} != time_s={dur!r} "
                "(the timeline must reproduce the billed compute "
                "bit-for-bit)"
            )
    return errors


def _validate_trace_linkage(trace_spans: list[tuple[str, dict]]) -> list[str]:
    """Cross-line checks over all trace spans of one JSONL file.

    Each trace must have exactly one root; every ``parent_id`` resolves
    within its trace and every ``links`` entry resolves file-wide.  On
    ``request`` roots the exact-sum identities are re-checked *after*
    the JSON round-trip: the children's file-order float sum equals the
    root duration, and the ``explain`` terms (summed in listed order)
    equal it too.
    """
    errors: list[str] = []
    all_ids = {obj.get("span_id") for _, obj in trace_spans}
    by_trace: dict[str, list[tuple[str, dict]]] = {}
    for where, obj in trace_spans:
        by_trace.setdefault(obj.get("trace_id"), []).append((where, obj))
    for tid, spans in by_trace.items():
        local_ids = {obj.get("span_id") for _, obj in spans}
        for where, obj in spans:
            parent = obj.get("parent_id")
            if parent is not None and parent not in local_ids:
                errors.append(
                    f"{where}: parent_id {parent!r} not in trace {tid}"
                )
            for link in obj.get("links", ()):
                if isinstance(link, str) and link not in all_ids:
                    errors.append(
                        f"{where}: link {link!r} resolves to no span in "
                        "this file"
                    )
        roots = [
            (where, obj)
            for where, obj in spans
            if obj.get("parent_id") is None
        ]
        if len(roots) != 1:
            errors.append(
                f"trace {tid}: expected exactly one root span, "
                f"got {len(roots)}"
            )
            continue
        root_where, root = roots[0]
        if root.get("kind") != "request":
            continue
        root_time = root.get("time_s")
        children = [
            obj
            for _, obj in spans
            if obj.get("parent_id") == root.get("span_id")
        ]
        if children and isinstance(root_time, (int, float)):
            s = 0.0
            for child in children:
                v = child.get("time_s")
                if isinstance(v, (int, float)):
                    s += v
            if s != root_time:
                errors.append(
                    f"{root_where}: child spans sum to {s!r}, not the "
                    f"root's time_s={root_time!r} (exact-sum identity)"
                )
        attrs = root.get("attrs")
        explain = attrs.get("explain") if isinstance(attrs, dict) else None
        if explain is not None:
            if not isinstance(explain, dict) or not all(
                isinstance(v, (int, float)) for v in explain.values()
            ):
                errors.append(
                    f"{root_where}: explain terms must be numeric"
                )
            elif isinstance(root_time, (int, float)):
                s = 0.0
                for v in explain.values():
                    s += v
                if s != root_time:
                    errors.append(
                        f"{root_where}: explain terms sum to {s!r}, not "
                        f"the root's time_s={root_time!r}"
                    )
    return errors


def validate_profile_jsonl(path) -> list[str]:
    """Schema-check one profile JSONL file; returns error messages.

    An empty list means the file is valid.  Checked: every line parses as
    a JSON object with a known ``record`` kind; exactly one ``meta`` line
    comes first; launch/aggregate records carry the full counter field
    set with ratios in range; serve ``request`` records carry tenant /
    graph / latency-term fields (and ``slo`` summaries valid
    percentiles); causal-trace ``span`` records (those with a
    ``trace_id``) pass per-span field checks plus the cross-line
    linkage/exact-sum checks of :func:`_validate_trace_linkage`; serve
    ``metric`` series sit on the meta line's monitor tick grid
    (:func:`_validate_metric_grid`); at least one launch, aggregate,
    request, metric, or trace span exists.
    """
    path = Path(path)
    errors: list[str] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    if not lines:
        return [f"{path}: empty file"]
    n_counter_records = 0
    n_request_records = 0
    meta = None
    series: dict = {}
    trace_spans: list[tuple[str, dict]] = []
    for i, line in enumerate(lines, start=1):
        where = f"{path}:{i}"
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: invalid JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            errors.append(f"{where}: line is not a JSON object")
            continue
        kind = obj.get("record")
        if kind not in _RECORD_KINDS:
            errors.append(f"{where}: unknown record kind {kind!r}")
            continue
        if i == 1:
            if kind == "meta":
                meta = obj
            else:
                errors.append(f"{where}: first record must be 'meta'")
        if kind in ("launch", "aggregate"):
            n_counter_records += 1
            errors.extend(_validate_counter_fields(obj, where))
        elif kind == "span":
            for field in ("name", "path", "time_s"):
                if field not in obj:
                    errors.append(f"{where}: span missing {field!r}")
            if "trace_id" in obj:
                trace_spans.append((where, obj))
                errors.extend(_validate_trace_span_fields(obj, where))
        elif kind == "metrics":
            if not isinstance(obj.get("metrics"), dict):
                errors.append(f"{where}: metrics record missing 'metrics'")
        elif kind in ("attribution", "delta"):
            terms = obj.get("terms")
            if not isinstance(terms, dict) or not all(
                isinstance(v, (int, float)) for v in terms.values()
            ):
                errors.append(f"{where}: {kind} record needs numeric 'terms'")
        elif kind == "request":
            n_request_records += 1
            errors.extend(_validate_request_fields(obj, where))
        elif kind == "slo":
            errors.extend(_validate_slo_fields(obj, where))
        elif kind == "metric":
            metric_errors = _validate_metric_fields(obj, where)
            errors.extend(metric_errors)
            if not metric_errors:
                series.setdefault((obj["scope"], obj["key"]), []).append(
                    (where, obj["t_s"])
                )
        elif kind == "alert":
            errors.extend(_validate_alert_fields(obj, where))
        elif kind == "flightrec":
            errors.extend(_validate_flightrec_fields(obj, where))
    errors.extend(_validate_trace_linkage(trace_spans))
    if series:
        errors.extend(_validate_metric_grid(path, meta, series))
    if n_counter_records == 0 and n_request_records == 0 \
            and not series and not trace_spans:
        errors.append(
            f"{path}: no launch/aggregate/request/metric/trace records"
        )
    return errors
