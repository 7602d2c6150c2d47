"""Cost-model evaluation speed benchmark (``python -m repro bench``).

Times how long one *uncached* ACSR cost-model evaluation takes — launch
planning, gang packing + weighted-warp compression, and the roofline
simulation — on the largest Table I matrices at several synthesis scales.
Matrix synthesis and binning are excluded: the benchmark isolates the
per-evaluation cost that the weighted-warp compression and the kernel-work
caches are meant to shrink.

Each case records the entry statistics of the launch list alongside the
wall-clock, so the compression ratio (``total_warps / total_entries``) is
auditable from the JSON.  ``wall_s`` is the **median** of ``--repeats``
timing runs (robust to one noisy run; ``wall_s_min`` keeps the best
case), and each row carries the imbalance observatory's ``tail_warp_share``
and ``warp_work_gini`` for the pooled kernel work.  Results go to
``BENCH_speed.json``.

The suite also times the ``repro.serve`` engine end to end
(:data:`SERVE_CASES`): a seeded Zipfian trace replayed through the
coalescing scheduler, recording steady-state wall-clock plus the
modelled ``serve_qps`` / ``serve_p99_s`` SLO cells.  Each serving cell
also replays the trace with the causal query tracer attached:
``serve_trace_overhead`` is the median per-repeat traced/untraced wall
ratio, and ``serve_trace_identical`` asserts tracing never changes a
byte of the serve report.

``--check BASELINE`` gates every cell against one committed baseline
(``benchmarks/bench_baseline.json``) with :func:`check_regressions`:
the median wall-clock may grow at most ``REGRESSION_FACTOR`` x, SpMV
cells keep ``model_time_s`` byte-identical and hold their counter
columns, and serving cells hold their SLO, monitor and tracing columns.
A baseline cell that lacks a gated column of its kind fails the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

from ..core.acsr import ACSRFormat
from ..data.corpus import corpus_matrix, get_spec
from ..gpu.device import DeviceSpec, get_device

#: Default output file (repo root by convention).
DEFAULT_OUTPUT = "BENCH_speed.json"

#: A case fails the ``--check`` gate when its wall-clock exceeds the
#: baseline's by more than this factor.  The committed baseline's
#: scale >= 0.5 rows hold the pre-batch-engine wall-clock divided by 10,
#: so on those cells this factor enforces a 5x speed-up over that
#: snapshot.
REGRESSION_FACTOR = 2.0

#: Efficiency counters are deterministic model outputs (no machine noise),
#: so the gate allows only a small absolute drop before failing.
EFFICIENCY_TOLERANCE = 0.02

#: Modelled DRAM traffic may grow at most this factor vs the baseline.
DRAM_GROWTH_FACTOR = 1.05

#: Counter columns recorded per case and gated by ``--check`` (ratios in
#: [0, 1]; a drop beyond ``EFFICIENCY_TOLERANCE`` fails the gate).
EFFICIENCY_COLUMNS = (
    "achieved_occupancy",
    "warp_execution_efficiency",
    "gld_coalescing_ratio",
)

#: Baseline columns ``--check`` compares an SpMV cell against.
SPMV_GATED_COLUMNS = (
    "wall_s",
    "model_time_s",
    *EFFICIENCY_COLUMNS,
    "dram_bytes",
    "dp_overflow",
)

#: Baseline columns ``--check`` compares a serving cell against.
SERVE_GATED_COLUMNS = (
    "wall_s",
    "serve_qps",
    "serve_p99_s",
    "serve_alert_count",
)

#: CI-friendly cases: every analog stays at or below the ~4M-nnz default
#: scale, so the whole quick set runs in seconds.  The third element is
#: the vector-block width ``k`` — ``k > 1`` times the batched (SpMM)
#: evaluation path.
QUICK_CASES: tuple[tuple[str, float, int], ...] = (
    ("WIK", 0.05, 1),
    ("WIK", 0.05, 8),
    ("WIK", 0.2, 1),
    ("LIV", 0.01, 1),
    ("LIV", 0.05, 1),
    ("HOL", 0.01, 1),
    ("HOL", 0.035, 1),
)

#: Serving cells: (matrix, scale, gpus).  Each replays the same seeded
#: trace through ``repro.serve`` and records modelled queries/s and p99
#: latency alongside the steady-state wall-clock.  Part of the quick
#: set — the CI gate watches the serving tier, not just raw SpMV.
SERVE_CASES: tuple[tuple[str, float, int], ...] = (
    ("WIK", 0.05, 1),
    ("WIK", 0.05, 2),
)

#: Requests per serving cell (one trace, replayed each repeat).
SERVE_REQUESTS = 96

#: Modelled queries/s may drop at most this factor vs the baseline.
SERVE_QPS_DROP_FACTOR = 1.25

#: Modelled p99 latency may grow at most this factor vs the baseline.
SERVE_P99_GROWTH_FACTOR = 1.25

#: Monitor window for the serving cells — wider than any cell's
#: makespan, so the end-of-run windowed p99 merges every sample and the
#: drift column audits the estimator itself, not sampling noise.
SERVE_MONITOR_WINDOW_S = 1.0

#: Fixed objective attached to the benchmark monitor; its burn-rate
#: alert count is a deterministic column pinned to the baseline.
SERVE_BENCH_SLO = "p99<=500us@1s"

#: The windowed p99 may disagree with the exact percentile by at most
#: this relative fraction.
SERVE_P99_DRIFT_LIMIT = 0.10

#: Query tracing must stay near-free on the hot path: the median of the
#: per-repeat traced/untraced wall-clock ratios may be at most this
#: factor (the tracer derives from the sealed result, lazily).
SERVE_TRACE_OVERHEAD_LIMIT = 1.10

#: Added by the full benchmark: the largest corpus matrices scaled all the
#: way to their paper size (scale 1.0 — up to 113M non-zeros for HOL).
FULL_EXTRA_CASES: tuple[tuple[str, float, int], ...] = (
    ("WIK", 1.0, 1),
    ("LIV", 0.5, 1),
    ("LIV", 1.0, 1),
    ("HOL", 0.5, 1),
    ("HOL", 1.0, 1),
)


def bench_cases(quick: bool) -> tuple[tuple[str, float, int], ...]:
    """The benchmark's (matrix, scale, k) cells; quick skips scale 1.0."""
    return QUICK_CASES if quick else QUICK_CASES + FULL_EXTRA_CASES


def run_case(
    matrix: str,
    scale: float,
    device: DeviceSpec,
    repeats: int = 3,
    k: int = 1,
) -> dict:
    """Benchmark one (matrix, scale, k) cell; returns a JSON-ready record."""
    spec = get_spec(matrix)
    csr = corpus_matrix(matrix, scale=scale)
    built = ACSRFormat.from_csr(csr, device=device)
    times = []
    fmt = built
    for _ in range(max(1, repeats)):
        # A fresh instance (sharing the matrix and binning) starts with
        # empty plan/work/timing caches, so each repeat times a full
        # cost-model evaluation rather than a cache hit.
        fmt = ACSRFormat(csr, built.binning, built.params, built.preprocess)
        t0 = time.perf_counter()
        fmt.spmm_time_s(device, k=k)
        times.append(time.perf_counter() - t0)
    works = fmt.kernel_works(device, k=k)
    entries = [w.n_entries for w in works]
    warps = [w.n_warps for w in works]
    # Hardware-counter columns: deterministic model outputs, so the CI
    # gate can hold efficiency (not just wall-clock) to the baseline.
    from ..obs.imbalance import tail_warp_share, warp_work_gini
    from ..obs.profile import profile_format

    total = profile_format(fmt, device, k=k).total
    ((pooled, _),) = fmt.modelled_run(device, k=k).launches
    return {
        "name": spec.abbrev,
        "scale": scale,
        "k": k,
        # Median of the repeats: robust to one noisy run, and the value
        # the --check regression gate compares.  The min rides along for
        # best-case auditing.
        "wall_s": statistics.median(times),
        "wall_s_min": min(times),
        "model_time_s": fmt.spmm_time_s(device, k=k),
        "peak_entries": max(entries),
        "total_entries": int(sum(entries)),
        "total_warps": int(sum(warps)),
        "n_launches": len(works),
        "nnz": csr.nnz,
        "achieved_occupancy": total.achieved_occupancy,
        "warp_execution_efficiency": total.warp_execution_efficiency,
        "gld_coalescing_ratio": total.gld_coalescing_ratio,
        "dram_bytes": total.dram_bytes,
        "dram_bw_fraction": total.dram_bw_fraction,
        "dp_children": total.dp_children,
        "dp_overflow": total.dp_overflow,
        "bound": total.bound,
        "tail_warp_share": tail_warp_share(pooled),
        "warp_work_gini": warp_work_gini(pooled),
    }


def run_serve_case(
    matrix: str,
    scale: float,
    device: DeviceSpec,
    gpus: int = 1,
    repeats: int = 3,
    requests: int = SERVE_REQUESTS,
    seed: int = 0,
) -> dict:
    """Benchmark one serving cell; returns a JSON-ready record.

    Plan building and the first (cache-warming) replay are excluded:
    ``wall_s`` is the median steady-state cost of pushing the whole
    trace through the coalescer/scheduler/billing path.  The
    ``serve_qps`` / ``serve_p99_s`` columns come from the virtual
    clock, so they are identical across repeats and exactly
    reproducible from the seed.

    The last repeat runs with a :class:`~repro.serve.monitor.ServeMonitor`
    attached (window wider than any makespan, so the end-of-run windowed
    p99 merges every sample): ``serve_windowed_p99_s`` and the
    ``serve_p99_drift`` column audit the rolling-window estimator
    against the exact percentile, and ``serve_alert_count`` pins the
    burn-rate alert count to the baseline.  The monitor is read-only,
    so attaching it cannot change the SLO cells.

    A second timed leg replays the same trace with a
    :class:`~repro.obs.tracing.QueryTracer` attached (a fresh instance
    per repeat — tracers are one-run-per-instance):
    ``serve_trace_overhead`` is the median of the per-repeat
    traced/untraced wall ratios, gated at
    :data:`SERVE_TRACE_OVERHEAD_LIMIT`, and
    ``serve_trace_identical`` asserts the serve report is byte-identical
    with and without the tracer (the read-only contract, checked
    outside the timed region).
    """
    from ..obs.tracing import QueryTracer, TracingConfig
    from ..serve import (
        MonitorConfig,
        ServeConfig,
        ServeEngine,
        ServeMonitor,
        TraceConfig,
        auto_interarrival_s,
        generate_trace,
        slo_summary,
    )
    from ..serve.report import serve_report_lines

    engine = ServeEngine(device, ServeConfig(gpus=gpus))
    plan = engine.register(matrix, scale=scale)
    mean_s = auto_interarrival_s(
        [plan], gpus, engine.config.epsilon, engine.config.restart
    )
    trace_config = TraceConfig(n_requests=requests, seed=seed)
    trace = generate_trace(trace_config, engine.registered_graphs(), mean_s)
    result = engine.run_trace(trace)  # warm: fills the iteration cache
    # The untraced and traced legs alternate inside one loop so both
    # see the same machine state, and the serve cells take extra repeats
    # (they cost milliseconds): the gated overhead ratio is paired per
    # repeat — a min-over-min or median-over-median ratio is dominated
    # by machine drift at these cell sizes.
    times = []
    traced_times = []
    tracer = None
    # The dropped per-repeat results and tracers would otherwise
    # trigger collection cycles mid-measurement, which is the dominant
    # noise source at millisecond cell sizes.
    import gc

    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(max(1, repeats, 15)):
            t0 = time.perf_counter()
            result = engine.run_trace(trace)
            times.append(time.perf_counter() - t0)
            tracer = QueryTracer(TracingConfig(seed=seed))
            t0 = time.perf_counter()
            traced_result = engine.run_trace(trace, tracer=tracer)
            traced_times.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    trace_identical = serve_report_lines(result) == serve_report_lines(
        traced_result
    )
    monitor = ServeMonitor(
        MonitorConfig(window_s=SERVE_MONITOR_WINDOW_S, slos=(SERVE_BENCH_SLO,))
    )
    engine.run_trace(trace, monitor=monitor)
    slo = slo_summary(result)
    windowed_p99 = monitor.windowed_quantile(0.99)
    exact_p99 = slo["p99_s"]
    drift = (
        abs(windowed_p99 - exact_p99) / exact_p99
        if windowed_p99 is not None and exact_p99
        else None
    )
    return {
        "name": f"{matrix}-serve" + (f"-g{gpus}" if gpus > 1 else ""),
        "scale": scale,
        "k": 1,
        "gpus": gpus,
        "wall_s": statistics.median(times),
        "wall_s_min": min(times),
        "requests": requests,
        "seed": seed,
        "format": plan.format_name,
        "mean_interarrival_s": mean_s,
        "serve_qps": slo["queries_per_s"],
        "serve_p50_s": slo["p50_s"],
        "serve_p99_s": slo["p99_s"],
        "admitted": slo["admitted"],
        "shed": slo["shed"],
        "batches": slo["batches"],
        "mean_batch_width": slo["mean_batch_width"],
        "makespan_s": slo["makespan_s"],
        "serve_alert_count": monitor.alert_count,
        "serve_windowed_p99_s": windowed_p99,
        "serve_p99_drift": drift,
        # Paired estimator: each repeat's traced/untraced runs are
        # adjacent, so per-pair ratios cancel machine drift that a
        # ratio of aggregates would not.
        "serve_trace_overhead": statistics.median(
            t / u for t, u in zip(traced_times, times)
        ),
        "serve_trace_identical": trace_identical,
        "serve_trace_spans": len(tracer.spans),
    }


def run_bench(
    cases,
    device: DeviceSpec,
    repeats: int = 3,
    progress=None,
    serve_cases=None,
) -> dict:
    """Run every case (SpMV cells, then serving cells); returns the
    BENCH_speed.json payload.

    ``serve_cases`` defaults to :data:`SERVE_CASES` (read at call time so
    tests can patch it); pass ``()`` to skip the serving cells.
    """
    if serve_cases is None:
        serve_cases = SERVE_CASES
    records = []
    for matrix, scale, k in cases:
        record = run_case(matrix, scale, device, repeats=repeats, k=k)
        records.append(record)
        if progress is not None:
            progress(record)
    for matrix, scale, gpus in serve_cases:
        record = run_serve_case(
            matrix, scale, device, gpus=gpus, repeats=repeats
        )
        records.append(record)
        if progress is not None:
            progress(record)
    return {
        "benchmark": "cost-model evaluation speed",
        "device": device.name,
        "repeats": repeats,
        "cases": records,
    }


def _case_key(record: dict) -> tuple[str, float, int]:
    return (record["name"], round(float(record["scale"]), 9), int(record["k"]))


def gated_columns(record: dict) -> tuple[str, ...]:
    """The baseline columns gating ``record``'s kind: serving cells carry
    ``serve_qps``, SpMV cells ``model_time_s``."""
    return SERVE_GATED_COLUMNS if "serve_qps" in record else SPMV_GATED_COLUMNS


def check_regressions(
    current: dict, baseline: dict, factor: float = REGRESSION_FACTOR
) -> list[str]:
    """Compare against a baseline payload; returns failure messages.

    Every cell is gated on wall-clock (noisy; wide ``factor``) and on
    the deterministic columns of its kind (tight tolerances).  A
    baseline cell missing one of :func:`gated_columns` fails; a current
    cell with no baseline cell is new and has nothing to regress
    against.
    """
    base = {_case_key(r): r for r in baseline["cases"]}
    failures = []
    for record in current["cases"]:
        ref = base.get(_case_key(record))
        if ref is None:
            continue
        label = f"{record['name']}@{record['scale']:g}"
        if int(record["k"]) != 1:
            label += f" k={record['k']}"
        missing = [c for c in gated_columns(record) if c not in ref]
        if missing:
            failures.append(
                f"{label}: baseline cell lacks gated column(s) "
                f"{', '.join(missing)}"
            )
            continue
        limit = factor * float(ref["wall_s"])
        if float(record["wall_s"]) > limit:
            failures.append(
                f"{label}: "
                f"{record['wall_s']:.4f}s > {factor:g}x baseline "
                f"({ref['wall_s']:.4f}s)"
            )
        check = _serve_failures if "serve_qps" in record else _spmv_failures
        failures.extend(f"{label}: {f}" for f in check(record, ref))
    return failures


def _spmv_failures(record: dict, ref: dict) -> list[str]:
    failures = []
    # Modelled seconds are outputs: a speed change must not move a
    # single float, at any scale.
    if record["model_time_s"] != ref["model_time_s"]:
        failures.append(
            f"model_time_s {record['model_time_s']!r} != baseline "
            f"{ref['model_time_s']!r} (must be byte-identical)"
        )
    for column in EFFICIENCY_COLUMNS:
        floor = float(ref[column]) - EFFICIENCY_TOLERANCE
        if float(record[column]) < floor:
            failures.append(
                f"{column} {float(record[column]):.3f} "
                f"< baseline {float(ref[column]):.3f} - "
                f"{EFFICIENCY_TOLERANCE:g}"
            )
    ceiling = DRAM_GROWTH_FACTOR * float(ref["dram_bytes"])
    if float(record["dram_bytes"]) > ceiling:
        failures.append(
            f"dram_bytes {float(record['dram_bytes']):.0f} "
            f"> {DRAM_GROWTH_FACTOR:g}x baseline "
            f"({float(ref['dram_bytes']):.0f})"
        )
    if int(record["dp_overflow"]) > int(ref["dp_overflow"]):
        failures.append(
            f"dp_overflow {record['dp_overflow']} > "
            f"baseline {ref['dp_overflow']} "
            "(pending-launch-limit stalls introduced)"
        )
    return failures


def _serve_failures(record: dict, ref: dict) -> list[str]:
    # The SLO and monitor columns are modelled virtual-clock outputs,
    # so their gates are tight.
    failures = []
    floor = float(ref["serve_qps"]) / SERVE_QPS_DROP_FACTOR
    if float(record["serve_qps"]) < floor:
        failures.append(
            f"serve_qps {float(record['serve_qps']):.1f} "
            f"< baseline {float(ref['serve_qps']):.1f} / "
            f"{SERVE_QPS_DROP_FACTOR:g}"
        )
    if record["serve_p99_s"] is not None and ref["serve_p99_s"] is not None:
        ceiling = SERVE_P99_GROWTH_FACTOR * float(ref["serve_p99_s"])
        if float(record["serve_p99_s"]) > ceiling:
            failures.append(
                f"serve_p99_s "
                f"{float(record['serve_p99_s']) * 1e6:.1f}us > "
                f"{SERVE_P99_GROWTH_FACTOR:g}x baseline "
                f"({float(ref['serve_p99_s']) * 1e6:.1f}us)"
            )
    # The windowed estimator must track the exact percentile, and the
    # alert count is fully deterministic.
    drift = record["serve_p99_drift"]
    if drift is not None and drift > SERVE_P99_DRIFT_LIMIT:
        failures.append(
            f"serve_p99_drift {drift:.3f} > "
            f"{SERVE_P99_DRIFT_LIMIT:g} (windowed p99 "
            f"{float(record['serve_windowed_p99_s']) * 1e6:.1f}us vs "
            f"exact {float(record['serve_p99_s']) * 1e6:.1f}us)"
        )
    if int(record["serve_alert_count"]) != int(ref["serve_alert_count"]):
        failures.append(
            f"serve_alert_count "
            f"{record['serve_alert_count']} != baseline "
            f"{ref['serve_alert_count']} (burn-rate behaviour changed)"
        )
    # Tracing must stay near-free, and a tracer that changes the serve
    # report broke the read-only contract.
    overhead = record["serve_trace_overhead"]
    if overhead > SERVE_TRACE_OVERHEAD_LIMIT:
        failures.append(
            f"serve_trace_overhead {overhead:.3f}x > "
            f"{SERVE_TRACE_OVERHEAD_LIMIT:g}x (tracing is no "
            "longer near-free on the hot path)"
        )
    if not record["serve_trace_identical"]:
        failures.append(
            "serve report not byte-identical with the "
            "query tracer attached (read-only contract violated)"
        )
    return failures


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``python -m repro bench`` flags."""
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-analog cases only (CI; skips the scale-1.0 matrices)",
    )
    parser.add_argument("--device", default="GTXTitan")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help=(
            "timing repeats per case; the recorded (and gated) wall_s "
            "is their median, wall_s_min the fastest"
        ),
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help=(
            "gate every cell against a baseline BENCH_speed.json and "
            "exit non-zero if any is more than "
            f"{REGRESSION_FACTOR:g}x slower, changes model_time_s or "
            "regresses a gated column"
        ),
    )


def run_cli(args: argparse.Namespace) -> int:
    """Run the benchmark from parsed CLI args; returns the exit code."""
    device = get_device(args.device)
    cases = bench_cases(args.quick)

    def progress(r: dict) -> None:
        if "serve_qps" in r:
            p99 = r["serve_p99_s"]
            p99_txt = f"{p99 * 1e6:.1f} us" if p99 is not None else "n/a"
            drift = r["serve_p99_drift"]
            drift_txt = f"{drift:.3f}" if drift is not None else "n/a"
            print(
                f"{r['name']}@{r['scale']:g}: "
                f"wall {r['wall_s'] * 1e3:8.2f} ms  "
                f"{r['serve_qps']:,.0f} q/s, p99 {p99_txt}, "
                f"{r['batches']} batches "
                f"(mean width {r['mean_batch_width']:.2f}), "
                f"shed {r['shed']}, p99 drift {drift_txt}, "
                f"{r['serve_alert_count']} alert(s), "
                f"trace x{r['serve_trace_overhead']:.2f}"
                f"{'' if r['serve_trace_identical'] else ' NOT IDENTICAL'}"
            )
            return
        ratio = r["total_warps"] / max(1, r["total_entries"])
        print(
            f"{r['name']}@{r['scale']:g}"
            f"{' k=%d' % r['k'] if r['k'] != 1 else ''}: "
            f"wall {r['wall_s'] * 1e3:8.2f} ms  "
            f"entries {r['total_entries']:>6} (peak {r['peak_entries']}) "
            f"for {r['total_warps']} warps ({ratio:,.0f}x compressed), "
            f"nnz {r['nnz']:,}"
        )

    results = run_bench(cases, device, repeats=args.repeats, progress=progress)
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out} ({len(results['cases'])} cases)")

    if not args.check:
        return 0
    baseline = json.loads(Path(args.check).read_text())
    failures = check_regressions(results, baseline)
    for f in failures:
        print(f"REGRESSION: {f}")
    if failures:
        return 1
    print(f"no regressions vs {args.check}")
    return 0

