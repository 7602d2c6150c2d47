"""Exporters + schema validation for profiler output.

Three formats, all dependency-free:

* **JSONL** — one JSON object per line, each tagged with a ``record``
  kind (``meta`` / ``launch`` / ``span`` / ``aggregate`` / ``metrics``,
  ``attribution`` / ``delta`` for differential profiles, ``request`` /
  ``slo`` for serving reports, ``metric`` / ``alert`` / ``flightrec``
  for the live serve monitor's rolling series).  This is the
  machine-readable artifact CI uploads and gates on;
  :func:`write_diff_jsonl` is the diff-report writer.  The gate,
  :func:`validate_profile_jsonl`, enforces one record schema, the table
  :data:`_FIELDS`: per record kind, each field's named rules (present,
  a string, a non-negative number, an enum, ...), read by
  :func:`_check_fields`.  The only checks outside the table relate
  fields to each other: the bit-exact compute timelines, trace linkage
  and exact sums, and the serve monitor's tick grid.
* **CSV** — one row per launch, for spreadsheets.
* **Chrome counter tracks** — ``"ph": "C"`` events that render as stacked
  counter charts alongside the kernel timeline in ``chrome://tracing`` /
  Perfetto; :func:`validate_chrome_trace` schema-checks any exported
  trace dict (kernel timelines included).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .counters import CounterSet
from .registry import histogram_entry

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
    """JSON-ready dict of a counter set, derived ratios included: the CSV
    columns, then the device peaks."""
    return {
        col: getattr(cs, col)
        for col in (*CSV_COLUMNS, "peak_dram_gbps", "peak_gflops")
    }


#: The ``metrics`` record's counters: each totals one counter-set field.
_LAUNCH_TOTALS = (
    ("launches_total", "n_launches"),
    ("dram_bytes_total", "dram_bytes"),
    ("flops_total", "flops"),
    ("device_time_seconds_total", "time_s"),
    ("dp_children_total", "dp_children"),
    ("dp_overflow_total", "dp_overflow"),
)

#: The ``metrics`` record's gauges: the last launch's value of each field.
_LAUNCH_GAUGES = (
    "achieved_occupancy", "warp_execution_efficiency", "gld_coalescing_ratio"
)


def launch_metrics(records) -> dict:
    """A profile's ``metrics`` record, derived from its launches.

    ``records`` come in file order (``Profiler.all_records()``): each
    counter float-sums its field left to right from ``0.0``,
    ``launch_duration_seconds`` is the histogram of ``time_s``, and each
    gauge is the last launch's value.  No launches, no entries.
    """
    records = list(records)
    if not records:
        return {}
    out = {
        name: {
            "type": "counter",
            "value": _float_sum(getattr(cs, field) for cs in records),
        }
        for name, field in _LAUNCH_TOTALS
    }
    out["launch_duration_seconds"] = histogram_entry(
        cs.time_s for cs in records
    )
    for field in _LAUNCH_GAUGES:
        value = float(getattr(records[-1], field))
        out[field] = {"type": "gauge", "value": value}
    return out


def write_jsonl(profiler, path, **meta) -> Path:
    """Dump a profiler's span tree + metrics as JSON lines.

    Layout: one ``meta`` line, one ``span`` line per span (with its
    aggregate when non-empty), one ``launch`` line per recorded counter
    set (tagged with its span path), one ``aggregate`` line for the
    grand total, one ``metrics`` line (:func:`launch_metrics`).
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
    metrics = launch_metrics(profiler.all_records())
    lines.append(json.dumps({"record": "metrics", "metrics": metrics}))
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
        try:
            prev = last_ts.get(lane)
        except TypeError:  # a JSON list or object names the lane
            keys = "pid/tid" if ph == "X" else "pid/name"
            errors.append(
                f"{where}: {keys} {lane[1:]!r} must be strings or numbers"
            )
            continue
        if prev is not None and ts < prev:
            errors.append(
                f"{where}: ts runs backwards on {lane} "
                f"({ts} < {prev})"
            )
        last_ts[lane] = max(prev, ts) if prev is not None else ts
    return errors


def _num(v) -> bool:
    return isinstance(v, (int, float))


def _is(type_):
    return lambda v: isinstance(v, type_)


#: Stands in for a field the record does not carry.
_ABSENT = object()

#: Field rules by name, as ``(test, message)``.  A rule whose message is
#: ``None`` is a guard: when its test holds, the field passes without its
#: later rules.  The comparisons follow ``num``/``int`` or the ``if num``
#: guard, so they only ever see numbers.
_RULES = {
    "opt": (lambda v: v is _ABSENT, None),
    "null": (lambda v: v is None or v is _ABSENT, None),
    "if num": (lambda v: not _num(v), None),
    "present": (lambda v: v is not _ABSENT, "{kind} missing field {field!r}"),
    "str": (_is(str), "{kind} needs a string {field!r}"),
    "list": (_is(list), "{kind} needs a list {field!r}"),
    "object": (_is(dict), "{kind} needs an object {field!r}"),
    "str list": (
        lambda v: isinstance(v, list) and all(map(_is(str), v)),
        "{kind} needs a string list {field!r}",
    ),
    "terms": (
        lambda v: isinstance(v, dict) and all(map(_num, v.values())),
        "{kind} needs numeric {field!r} terms",
    ),
    "num": (_num, "{kind} needs numeric {field!r}"),
    "int": (_is(int), "{kind} needs integer {field!r}"),
    ">=0": (lambda v: not v < 0, "{kind} {field}={value!r} negative"),
    ">0": (lambda v: not v <= 0, "{kind} {field}={value!r} not positive"),
    ">=1": (lambda v: not v < 1, "{kind} needs {field} >= 1, not {value!r}"),
    "<=1": (lambda v: not v > 1.0 + 1e-9, "{kind} {field}={value!r} above 1"),
    "[0,1]": (
        lambda v: -1e-9 <= v <= 1.0 + 1e-9,
        "{kind} {field}={value!r} outside [0, 1]",
    ),
}

#: A non-negative number; a non-negative integer.
_NUM = ("num", ">=0")
_INT = ("int", ">=0")

_COUNTER_FIELDS = {
    **dict.fromkeys(
        ("name", "device", "n_launches", "k", "launch_overhead_s", "n_warps",
         "dp_children", "dp_overflow"),
        ("present",),
    ),
    **dict.fromkeys(
        ("time_s", "dram_bytes", "flops"), ("present", "if num", ">=0")
    ),
    **dict.fromkeys(
        ("achieved_occupancy", "warp_execution_efficiency",
         "gld_coalescing_ratio"),
        ("present", "if num", "[0,1]"),
    ),
    "launch_overhead_share": ("if num", "[0,1]"),
    "bound": ("present", "null", ("compute", "memory", "latency", "launch")),
}

#: Latency percentiles; null when there is nothing to rank.
_PERCENTILES = dict.fromkeys(("p50_s", "p95_s", "p99_s"), ("null", "num"))

#: The JSONL record schema: record kind -> field -> rules (names from
#: :data:`_RULES`; a tuple is an enum the value must be one of).  A key
#: ``(kind, field)`` adds rules for the records of ``kind`` that carry
#: ``field``, a key ``(kind, field, value)`` for those whose ``field``
#: holds ``value``.
_FIELDS = {
    "meta": {},
    "launch": _COUNTER_FIELDS,
    "aggregate": _COUNTER_FIELDS,
    "span": dict.fromkeys(("name", "path", "time_s"), ("present",)),
    # Causal-trace spans (repro.obs.tracing).
    ("span", "trace_id"): {
        **dict.fromkeys(("trace_id", "span_id", "kind"), ("str",)),
        "status": (("ok", "shed"),),
        "parent_id": ("null", "str"),
        "start_s": _NUM,
        "time_s": _NUM,
        "attrs": ("opt", "object"),
        "links": ("opt", "str list"),
    },
    "metrics": {"metrics": ("object",)},
    "attribution": {"terms": ("terms",)},
    "delta": {"terms": ("terms",)},
    "request": {
        **dict.fromkeys(("tenant", "graph", "node"), ("present",)),
        "arrival_s": ("present", "if num", ">=0"),
        "status": (("ok", "shed"),),
    },
    # latency_s is the plain float sum of the three terms before it.
    ("request", "status", "ok"): {
        **dict.fromkeys(
            ("queue_wait_s", "formation_s", "compute_s", "latency_s"), _NUM
        ),
        "k": ("int", ">=1"),
    },
    ("request", "status", "shed"): {"retry_after_s": _NUM},
    "slo": {"queries_per_s": _NUM, **_PERCENTILES},
    "metric": {
        "t_s": _NUM,
        "scope": (("global", "tenant", "graph"),),
        "key": ("str",),
        "window_s": ("num", ">0"),
        "qps": _NUM,
        "shed_rate": ("num", ">=0", "<=1"),
        "n": _INT,
        **_PERCENTILES,
        "queue_depth": ("null", *_INT),
    },
    "alert": {
        "t_s": _NUM,
        "slo": ("str",),
        "key": ("str",),
        "state": (("firing", "resolved"),),
        "burn_fast": _NUM,
        "burn_slow": _NUM,
        "window_events": _INT,
    },
    "flightrec": {
        "trigger": (("p99_tail", "alert"),),
        **dict.fromkeys(
            ("t_s", "latency_s", "close_s", "start_s", "formation_s",
             "compute_s", "end_s"),
            _NUM,
        ),
        **dict.fromkeys(
            ("batch_id", "worker", "rid", "queue_depth", "coalescer_pending"),
            _INT,
        ),
        "k": ("int", ">=1"),
        "tenant": ("str",),
        "graph": ("str",),
        **dict.fromkeys(("rids", "iterations", "alerts"), ("list",)),
        "timeline_time_s": ("num",),
        "attribution": ("terms",),
    },
}


def _check_fields(obj: dict, kind: str, where: str) -> list[str]:
    """``obj``'s errors against the :data:`_FIELDS` rules of ``kind``
    and of each variant key of ``kind`` that ``obj`` selects; a failing
    field reports its first failing rule only."""
    errors = []
    for key, fields in _FIELDS.items():
        if key == kind:
            name = kind
        elif not isinstance(key, tuple) or key[0] != kind:
            continue
        elif len(key) == 2 and key[1] in obj:
            name = f"{kind} with {key[1]}"
        elif len(key) == 3 and obj.get(key[1]) == key[2]:
            name = f"{kind} with {key[1]}={key[2]!r}"
        else:
            continue
        for field, rules in fields.items():
            value = obj.get(field, _ABSENT)
            for rule in rules:
                test, message = _RULES[rule] if isinstance(rule, str) else (
                    rule.__contains__, "unknown {kind} {field} {value!r}"
                )
                ok = test(value)
                if message is None:
                    if ok:
                        break
                elif not ok:
                    errors.append(f"{where}: " + message.format(
                        kind=name, field=field, value=obj.get(field)
                    ))
                    break
    return errors


def _float_sum(values) -> float:
    """Left-to-right float sum, the order the writers add in; NaN when
    an integer term is too large for a float."""
    s = 0.0
    try:
        for v in values:
            s += v
    except OverflowError:
        return math.nan
    return s


def _check_timeline(obj: dict, where: str) -> list[str]:
    """The bit-exact identities of a captured compute timeline.

    A ``flightrec`` capture's ``timeline_time_s`` equals the batch's
    billed ``compute_s`` and its ``attribution`` terms float-sum (in
    listed order) to the same total; a ``batch_compute`` trace span's
    ``attrs.timeline_time_s`` equals its ``time_s``.  JSON round-trips
    IEEE doubles exactly, so both survive serialisation.
    """
    if obj["record"] == "flightrec":
        label, tl = "timeline_time_s", obj["timeline_time_s"]
        billed, terms = "compute_s", obj["attribution"]
    elif obj["kind"] == "batch_compute":
        label = "attrs.timeline_time_s"
        tl = obj.get("attrs", {}).get("timeline_time_s")
        billed, terms = "time_s", None
        if not _num(tl):
            return [f"{where}: batch_compute span needs numeric {label}"]
    else:
        return []
    errors = []
    if tl != obj[billed]:
        errors.append(
            f"{where}: {label}={tl!r} != {billed}={obj[billed]!r} "
            "(the timeline must reproduce the billed compute bit-for-bit)"
        )
    if terms is not None and (s := _float_sum(terms.values())) != tl:
        errors.append(
            f"{where}: attribution terms sum to {s!r}, not "
            f"timeline_time_s={tl!r}"
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


#: Running sums the tick-grid walk holds at once.
_TICK_CHUNK = 2**16


def _grid_ticks_among(cadence: float, n_ticks: int, wanted: set) -> set:
    """The members of ``wanted`` among the grid's first ``n_ticks - 1``
    running sums ``cadence``, ``cadence + cadence``, ...

    ``np.add.accumulate`` adds in sequence, so its chunks walk the
    monitor's sums bit for bit, up to the largest wanted time.  Tick
    ``k`` lies below ``3 * k * cadence`` (an addition rounds up by at
    most a relative ``2**-53``), so a time past ``4 * n_ticks`` cadences
    is off the grid without a walk to it.
    """

    def near(t) -> bool:
        try:
            return t / cadence <= 4 * n_ticks
        except OverflowError:  # an integer past the float range
            return False

    wanted = set(filter(near, wanted))
    targets = np.array(sorted(wanted), dtype=np.float64)
    found, last, left = set(), 0.0, n_ticks - 1
    while left > 0 and targets.size and last < targets[-1]:
        ticks = np.full(min(left, _TICK_CHUNK) + 1, cadence)
        ticks[0] = last
        ticks = np.add.accumulate(ticks)[1:]
        at = np.searchsorted(ticks, targets)
        hits = ticks[at[at < ticks.size]].tolist()
        found.update(t for t in hits if t in wanted)
        last, left = float(ticks[-1]), left - ticks.size
    return found


def _validate_metric_grid(path, meta, series: dict) -> list[str]:
    """Cross-line checks over a serve report's ``metric`` series.

    The monitor writes a series only where it changes, so a reader
    needs the tick grid from the meta line's ``monitor`` object, and
    every series must hold a record at the first tick and end with one
    at the end tick; the records before that sit on the running-sum
    grid in strictly increasing ``t_s``.  The running sums are walked
    in bounded chunks only up to the latest such record within reach of
    the grid (:func:`_grid_ticks_among`), so a meta line promising a
    huge grid costs only the walk to its records.
    """
    monitor = (meta or {}).get("monitor")
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
    try:
        span_ticks = end_t / cadence
    except OverflowError:  # an integer past the float range
        return [f"{path}: monitor end_t_s / sample_every_s overflows a float"]
    if n_ticks - 1 > span_ticks + 1:
        return [
            f"{path}: a grid of {n_ticks} ticks every {cadence!r} s runs "
            f"past end_t_s={end_t!r}"
        ]
    wanted = {t for points in series.values() for _, t in points[:-1]}
    on_grid = _grid_ticks_among(cadence, n_ticks, wanted)
    errors = []
    for (scope, key), points in series.items():
        name = f"series {scope}:{key}"
        *steps, (end_where, last_t) = points
        if n_ticks > 1 and (not steps or steps[0][1] != cadence):
            errors.append(
                f"{path}: {name} has no record at the first tick {cadence!r}"
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


def _validate_trace_linkage(trace_spans: list[tuple[str, dict]]) -> list[str]:
    """Cross-line checks over the trace spans of one JSONL file.

    Only spans that passed their field rules are given, so every id is a
    string and every ``links`` entry one.  Each trace must have exactly
    one root; every ``parent_id`` resolves within its trace and every
    ``links`` entry resolves file-wide.  On ``request`` roots the
    exact-sum identities are re-checked *after* the JSON round-trip: the
    children's file-order float sum equals the root duration, and the
    ``explain`` terms (summed in listed order) equal it too.
    """
    errors: list[str] = []
    all_ids = {obj["span_id"] for _, obj in trace_spans}
    by_trace: dict[str, list[tuple[str, dict]]] = {}
    for where, obj in trace_spans:
        by_trace.setdefault(obj["trace_id"], []).append((where, obj))
    for tid, spans in by_trace.items():
        local_ids = {obj["span_id"] for _, obj in spans}
        for where, obj in spans:
            parent = obj.get("parent_id")
            if parent is not None and parent not in local_ids:
                errors.append(
                    f"{where}: parent_id {parent!r} not in trace {tid}"
                )
            for link in obj.get("links", ()):
                if link not in all_ids:
                    errors.append(
                        f"{where}: links entry {link!r} resolves to no "
                        "span in this file"
                    )
        roots = [(w, obj) for w, obj in spans if obj.get("parent_id") is None]
        if len(roots) != 1:
            errors.append(
                f"trace {tid}: expected exactly one root span "
                f"(parent_id null), got {len(roots)}"
            )
            continue
        root_where, root = roots[0]
        if root["kind"] != "request":
            continue
        root_time = root["time_s"]
        children = [
            obj["time_s"]
            for _, obj in spans
            if obj.get("parent_id") == root["span_id"]
        ]
        if children and (s := _float_sum(children)) != root_time:
            errors.append(
                f"{root_where}: child spans sum to {s!r}, not the "
                f"root's time_s={root_time!r} (exact-sum identity)"
            )
        explain = root.get("attrs", {}).get("explain")
        if explain is None:
            continue
        if not _RULES["terms"][0](explain):
            errors.append(f"{root_where}: explain terms must be numeric")
        elif (s := _float_sum(explain.values())) != root_time:
            errors.append(
                f"{root_where}: explain terms sum to {s!r}, not "
                f"the root's time_s={root_time!r}"
            )
    return errors


def validate_profile_jsonl(path) -> list[str]:
    """Schema-check one profile JSONL file; returns error messages.

    An empty list means the file is valid.  :data:`_FIELDS` is the record
    schema: every non-blank line is a JSON object whose ``record`` kind
    is a key of it, and passes that kind's field rules.  The first non-blank
    line is the only ``meta`` line, and at least one launch, aggregate,
    request, metric, or trace span exists.  The exceptions to the table
    relate fields to each other, on records that passed their rules:
    the bit-exact timelines (:func:`_check_timeline`), trace linkage and
    exact sums (:func:`_validate_trace_linkage`), and the monitor's tick
    grid (:func:`_validate_metric_grid`).  A file that cannot be read or
    decoded yields one ``unreadable`` error.
    """
    path = Path(path)
    errors: list[str] = []
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    if not lines:
        return [f"{path}: empty file"]
    first = None
    meta = None
    has_content = False
    series: dict = {}
    trace_spans: list[tuple[str, dict]] = []
    for i, line in enumerate(lines, start=1):
        where = f"{path}:{i}"
        if not line.strip():
            continue
        first = first or i
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            errors.append(f"{where}: invalid JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            errors.append(f"{where}: line is not a JSON object")
            continue
        kind = obj.get("record")
        if not isinstance(kind, str) or kind not in _FIELDS:
            errors.append(f"{where}: unknown record kind {kind!r}")
            continue
        is_trace = kind == "span" and "trace_id" in obj
        if kind == "meta":
            if i == first:
                meta = obj
            else:
                errors.append(f"{where}: only the first record may be 'meta'")
        elif i == first:
            errors.append(f"{where}: first record must be 'meta'")
        has_content |= is_trace or kind in (
            "launch", "aggregate", "request", "metric"
        )
        record_errors = _check_fields(obj, kind, where)
        if record_errors:
            errors.extend(record_errors)
        elif kind == "metric":
            series.setdefault((obj["scope"], obj["key"]), []).append(
                (where, obj["t_s"])
            )
        elif kind == "flightrec" or is_trace:
            errors.extend(_check_timeline(obj, where))
            if is_trace:
                trace_spans.append((where, obj))
    errors.extend(_validate_trace_linkage(trace_spans))
    if series:
        errors.extend(_validate_metric_grid(path, meta, series))
    if not has_content:
        errors.append(
            f"{path}: no launch/aggregate/request/metric/trace records"
        )
    return errors
