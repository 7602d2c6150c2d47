"""Command-line entry point: regenerate any paper artifact from a shell.

Usage::

    python -m repro list                     # available experiments
    python -m repro run fig5 --device GTXTitan --precision double
    python -m repro run table4 --matrices ENR WIK
    python -m repro run all                  # everything (slow)
    python -m repro corpus HOL               # inspect a synthetic analog
    python -m repro devices                  # Table II
    python -m repro devices --json           # ... as machine-readable JSON
    python -m repro bench --quick            # cost-model speed benchmark
    python -m repro serve-sim WIK GTXTitan   # multi-tenant RWR serving sim
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .gpu.device import Precision, get_device
from .harness import experiments as ex


def _fig5(args):
    return ex.fig5_gflops.run(
        matrices=args.matrices,
        device=get_device(args.device),
        precision=Precision(args.precision),
    )


def _fig6(args):
    return ex.fig6_apps.run(
        args.app, matrices=args.matrices, device=get_device(args.device)
    )


def _fig7(args):
    return ex.fig7_dynamic.run_average(matrices=args.matrices)


def _fig8(args):
    return ex.fig8_multigpu.run(
        matrices=args.matrices, precision=Precision(args.precision)
    )


EXPERIMENTS: dict[str, Callable] = {
    "table1": lambda a: ex.table1_corpus.run(matrices=a.matrices),
    "table2": lambda a: ex.table2_devices.run(),
    "table3": lambda a: ex.table3_single_spmv.run(matrices=a.matrices),
    "table4": lambda a: ex.table4_breakeven.run(matrices=a.matrices),
    "table5": lambda a: ex.table5_grids.run(matrices=a.matrices),
    "fig3": lambda a: ex.fig3_histogram.run(matrices=a.matrices),
    "fig4": lambda a: ex.fig4_preprocessing.run(matrices=a.matrices),
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7-top": lambda a: ex.fig7_dynamic.run_detail(),
    "fig7": _fig7,
    "fig8": _fig8,
    "ablation-dp": lambda a: ex.ablations.run_dp_ablation(
        matrices=a.matrices
    ),
    "ablation-threadload": lambda a: ex.ablations.run_thread_load_sweep(),
    "ablation-sic": lambda a: ex.ablations.run_sic_comparison(
        matrices=a.matrices
    ),
    "ablation-binmax": lambda a: ex.ablations.run_bin_max_sweep(),
    "expx-batch": lambda a: ex.expx_batch.run(
        matrices=a.matrices,
        device=get_device(a.device),
        precision=Precision(a.precision),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the ACSR paper (SC 2014).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    devices = sub.add_parser(
        "devices", help="print the Table II device registry"
    )
    devices.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (stable key order per device)",
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument(
        "--matrices",
        nargs="+",
        default=None,
        help="Table I abbreviations (default: the full power-law set)",
    )
    run.add_argument("--device", default="GTXTitan")
    run.add_argument(
        "--precision", choices=["single", "double"], default="single"
    )
    run.add_argument("--app", choices=["pagerank", "hits", "rwr"], default="pagerank")
    run.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write <DIR>/<experiment>.json for each experiment run",
    )

    corpus = sub.add_parser("corpus", help="inspect one synthetic analog")
    corpus.add_argument("matrix")

    from .formats.convert import available_formats

    prof = sub.add_parser(
        "profile",
        help="nvprof-style counter profile of one format's SpMV/SpMM",
    )
    prof.add_argument("matrix", help="Table I abbreviation (e.g. WIK)")
    prof.add_argument("format", choices=available_formats())
    prof.add_argument("device", help="device name (see 'repro devices')")
    prof.add_argument(
        "--k", type=int, default=1, help="vector-block width (SpMM when > 1)"
    )
    prof.add_argument(
        "--scale", type=float, default=None, help="synthesis scale override"
    )
    prof.add_argument(
        "--precision", choices=["single", "double"], default="single"
    )
    prof.add_argument(
        "--jsonl", metavar="FILE", default=None, help="write profile JSONL"
    )
    prof.add_argument(
        "--csv", metavar="FILE", default=None, help="write per-launch CSV"
    )
    prof.add_argument(
        "--chrome",
        metavar="FILE",
        default=None,
        help="write a Chrome counter-track trace (chrome://tracing)",
    )

    check = sub.add_parser(
        "profile-check",
        help="validate profile JSONL files against the record schema",
        description=(
            "Validate profile/diff JSONL files against the record "
            "schema. Exit codes: 0 = all valid, 1 = at least one file "
            "failed schema validation, 2 = at least one file is missing "
            "or unreadable (2 wins when both occur)."
        ),
    )
    check.add_argument("files", nargs="+", help="JSONL files to validate")

    diff = sub.add_parser(
        "diff",
        help="differential profile: why format B beats format A",
        description=(
            "Compare two (format, device, k) cells on one corpus matrix "
            "and decompose the time gap into ranked attribution terms "
            "that float-sum exactly to timeA - timeB. Exit codes: 0 = "
            "ok, 2 = unknown matrix/format/device, 3 = a --assert-* "
            "check failed."
        ),
    )
    diff.add_argument("matrix", help="Table I abbreviation (e.g. WIK)")
    diff.add_argument("format_a", choices=available_formats())
    diff.add_argument("format_b", choices=available_formats())
    diff.add_argument("device", help="A-side device (see 'repro devices')")
    diff.add_argument(
        "--device-b",
        default=None,
        help="B-side device (default: same as the A side)",
    )
    diff.add_argument(
        "--k", type=int, default=1, help="A-side vector-block width"
    )
    diff.add_argument(
        "--k-b",
        type=int,
        default=None,
        help="B-side vector-block width (default: --k)",
    )
    diff.add_argument(
        "--scale", type=float, default=None, help="synthesis scale override"
    )
    diff.add_argument(
        "--precision", choices=["single", "double"], default="single"
    )
    diff.add_argument(
        "--jsonl", metavar="FILE", default=None, help="write diff JSONL"
    )
    diff.add_argument(
        "--html",
        metavar="FILE",
        default=None,
        help="write the self-contained HTML report (SVG Gantt + waterfall)",
    )
    diff.add_argument(
        "--gantt",
        action="store_true",
        help="also print both sides' ASCII timelines",
    )
    diff.add_argument(
        "--assert-winner",
        choices=["a", "b"],
        default=None,
        help="exit 3 unless this side wins on modelled time",
    )
    diff.add_argument(
        "--assert-top",
        metavar="TERM",
        default=None,
        help="exit 3 unless this attribution term moves the most time",
    )

    bench = sub.add_parser(
        "bench",
        help="time cost-model evaluation on the largest corpus matrices",
    )
    from .harness.bench_speed import add_bench_arguments

    add_bench_arguments(bench)

    serve = sub.add_parser(
        "serve-sim",
        help="closed-loop multi-tenant RWR serving simulation",
        description=(
            "Simulate a multi-tenant RWR query service over one or more "
            "corpus graphs: Zipfian/bursty load, batch coalescing, "
            "admission control, and modelled latency SLOs — fully "
            "deterministic for a given --seed. Exit codes: 0 = ok, 2 = "
            "unknown matrix/device, 3 = an --assert-* check failed."
        ),
    )
    serve.add_argument(
        "matrices",
        help="comma-separated Table I abbreviations (e.g. WIK,ENR)",
    )
    serve.add_argument("device", help="device name (see 'repro devices')")
    serve.add_argument(
        "--scale", type=float, default=None, help="synthesis scale override"
    )
    serve.add_argument(
        "--requests", type=int, default=256, help="queries to generate"
    )
    serve.add_argument("--tenants", type=int, default=4)
    serve.add_argument(
        "--seed", type=int, default=0, help="load-generator RNG seed"
    )
    serve.add_argument(
        "--max-batch", type=int, default=8, help="widest coalesced batch"
    )
    serve.add_argument(
        "--max-wait-us",
        type=float,
        default=250.0,
        help="coalescer timeout (microseconds of virtual time)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, help="admission queue bound"
    )
    serve.add_argument(
        "--tenant-limit", type=int, default=16, help="per-tenant queue bound"
    )
    serve.add_argument("--gpus", type=int, default=1, help="worker GPUs")
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="US",
        help=(
            "mean inter-arrival gap in microseconds "
            "(default: auto-paced to ~80%% pool utilisation)"
        ),
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=4.0,
        help="burst-phase gap divisor (1 = no bursts)",
    )
    serve.add_argument(
        "--zipf-graph", type=float, default=1.1, help="graph-popularity skew"
    )
    serve.add_argument(
        "--zipf-node", type=float, default=1.05, help="seed-node skew"
    )
    serve.add_argument(
        "--format",
        default="auto",
        choices=["auto", *available_formats()],
        help="SpMV backend (default: the Section IX advisor chooses)",
    )
    serve.add_argument(
        "--epsilon", type=float, default=None, help="RWR convergence eps"
    )
    serve.add_argument(
        "--restart", type=float, default=None, help="RWR restart probability"
    )
    serve.add_argument(
        "--precision", choices=["single", "double"], default="single"
    )
    serve.add_argument(
        "--jsonl", metavar="FILE", default=None, help="write the serve report"
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace of the worker timeline",
    )
    serve.add_argument(
        "--assert-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit 3 unless the p99 modelled latency is <= this SLO",
    )
    serve.add_argument(
        "--monitor",
        action="store_true",
        help=(
            "attach the live telemetry monitor: rolling windowed "
            "series, burn-rate alerts, tail-sampling flight recorder "
            "(implied by the other monitor flags)"
        ),
    )
    serve.add_argument(
        "--slo",
        action="append",
        metavar="SPEC",
        default=None,
        help=(
            "declarative objective, e.g. 'p99<=0.005@10s' or "
            "'availability>=0.99@5ms' (repeatable; implies --monitor)"
        ),
    )
    serve.add_argument(
        "--window-us",
        type=float,
        default=5000.0,
        metavar="US",
        help="rolling metric window (microseconds of virtual time)",
    )
    serve.add_argument(
        "--sample-every-us",
        type=float,
        default=None,
        metavar="US",
        help="metric sampling cadence (default: one ring bucket)",
    )
    serve.add_argument(
        "--flightrec",
        type=int,
        default=64,
        metavar="N",
        help="flight-recorder ring capacity",
    )
    serve.add_argument(
        "--html-dash",
        metavar="FILE",
        default=None,
        help="write the self-contained HTML ops dashboard",
    )
    serve.add_argument(
        "--monitor-chrome",
        metavar="FILE",
        default=None,
        help="write the rolling series as Chrome counter tracks",
    )
    serve.add_argument(
        "--assert-alerts",
        type=int,
        default=None,
        metavar="N",
        help="exit 3 unless at least N burn-rate alerts fired",
    )
    serve.add_argument(
        "--trace-queries",
        metavar="FILE",
        default=None,
        help=(
            "attach the causal query tracer and write its span-tree "
            "JSONL artifact (read-only; readable with 'repro trace')"
        ),
    )
    serve.add_argument(
        "--trace-head-rate",
        type=float,
        default=1.0,
        metavar="R",
        help=(
            "head-sampling keep fraction in [0, 1] (tail sampling "
            "keeps shed/p99/alert-overlap traces regardless)"
        ),
    )

    trace = sub.add_parser(
        "trace",
        help="inspect a causal trace JSONL: slowest queries + explain",
        description=(
            "Read the span records of a 'serve-sim --trace-queries' "
            "artifact and print the slowest traced requests; --explain "
            "adds one request's span waterfall and its exact latency "
            "decomposition (terms float-sum to latency_s bit-for-bit). "
            "Exit codes: 0 = ok, 2 = unreadable file, no trace spans, "
            "or unknown trace id."
        ),
    )
    trace.add_argument(
        "jsonl", help="trace JSONL file (from serve-sim --trace-queries)"
    )
    trace.add_argument(
        "--slowest",
        type=int,
        default=5,
        metavar="N",
        help="list the N slowest traced requests (default 5)",
    )
    trace.add_argument(
        "--explain",
        metavar="TRACE_ID",
        default=None,
        help=(
            "print the span waterfall + explain table of one trace "
            "('worst', or a unique trace-id prefix)"
        ),
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "devices":
        result = ex.table2_devices.run()
        if args.json:
            import json

            print(json.dumps(result.rows, indent=2))
        else:
            print(result.render())
        return 0
    if args.command == "corpus":
        from .data.corpus import corpus_matrix, get_spec

        spec = get_spec(args.matrix)
        m = corpus_matrix(args.matrix)
        print(
            f"{spec.name} ({spec.abbrev}) @ scale {spec.default_scale:.4g}\n"
            f"  analog: {m.n_rows} x {m.n_cols}, nnz {m.nnz}\n"
            f"  mu {m.mu:.2f} (target {spec.mu:.2f}), "
            f"sigma {m.sigma:.1f} (target {spec.sigma}), "
            f"max {m.max_nnz_row} (target {spec.max_nnz})"
        )
        return 0
    if args.command == "bench":
        from .harness.bench_speed import run_cli

        return run_cli(args)
    if args.command == "profile":
        return _profile_cli(args)
    if args.command == "profile-check":
        return _profile_check_cli(args)
    if args.command == "diff":
        return _diff_cli(args)
    if args.command == "serve-sim":
        return _serve_sim_cli(args)
    if args.command == "trace":
        return _trace_cli(args)
    # run
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        result = EXPERIMENTS[name](args)
        print(result.render())
        print()
        if args.json:
            from pathlib import Path

            from .harness.export import save_json

            out_dir = Path(args.json)
            out_dir.mkdir(parents=True, exist_ok=True)
            save_json(result, out_dir / f"{name}.json")
    return 0


def _profile_cli(args) -> int:
    """``repro profile``: print the counter table + roofline verdict."""
    from .harness.runner import cell_counters

    device = get_device(args.device)
    profile = cell_counters(
        args.matrix,
        args.format,
        device,
        precision=Precision(args.precision),
        scale=args.scale,
        k=args.k,
    )
    print(profile.render())
    if args.jsonl or args.csv or args.chrome:
        from .obs import Profiler

        prof = Profiler(f"{profile.matrix}-{args.format}-{device.name}")
        with prof.span(
            args.format,
            matrix=profile.matrix,
            device=device.name,
            k=args.k,
        ):
            for cs in profile.launches:
                prof.record(cs)
        if args.jsonl:
            prof.to_jsonl(
                args.jsonl,
                matrix=profile.matrix,
                format=args.format,
                device=device.name,
                k=args.k,
                precision=args.precision,
                verdict=profile.verdict.bound,
            )
            print(f"wrote {args.jsonl}")
        if args.csv:
            prof.to_csv(args.csv)
            print(f"wrote {args.csv}")
        if args.chrome:
            import json
            from pathlib import Path

            Path(args.chrome).write_text(
                json.dumps(prof.to_chrome_counters()) + "\n"
            )
            print(f"wrote {args.chrome}")
    return 0


def _profile_check_cli(args) -> int:
    """``repro profile-check``: schema-validate profile JSONL files.

    Exit codes: 0 = every file valid, 1 = at least one file failed
    schema validation, 2 = at least one file missing or unreadable
    (2 wins when both occur).  Every failing field prints its own
    ``file:line: message`` line.
    """
    from pathlib import Path

    from .obs import validate_profile_jsonl

    worst = 0
    for file in args.files:
        if not Path(file).is_file():
            print(f"{file}: MISSING (no such file)")
            worst = max(worst, 2)
            continue
        errors = validate_profile_jsonl(file)
        if errors:
            unreadable = any(": unreadable" in e for e in errors)
            print(f"{file}: {'UNREADABLE' if unreadable else 'INVALID'}")
            for error in errors:
                print(f"  {error}")
            worst = max(worst, 2 if unreadable else 1)
        else:
            print(f"{file}: ok")
    return worst


def _diff_cli(args) -> int:
    """``repro diff``: print (and export) a differential profile.

    Exit codes: 0 = ok, 2 = unknown matrix/format/device, 3 = a
    ``--assert-winner`` / ``--assert-top`` check failed.
    """
    from .obs.diff import diff_formats

    try:
        device_a = get_device(args.device)
        device_b = get_device(args.device_b) if args.device_b else None
        report = diff_formats(
            args.matrix,
            args.format_a,
            args.format_b,
            device_a,
            device_b=device_b,
            k_a=args.k,
            k_b=args.k_b,
            precision=Precision(args.precision),
            scale=args.scale,
        )
    except KeyError as exc:
        print(f"error: unknown key {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.gantt:
        print()
        print(report.a.timeline.gantt())
        print()
        print(report.b.timeline.gantt())
    if args.jsonl:
        from .obs import write_diff_jsonl

        write_diff_jsonl(report, args.jsonl, precision=args.precision)
        print(f"wrote {args.jsonl}")
    if args.html:
        from .obs import write_html_report

        write_html_report(report, args.html)
        print(f"wrote {args.html}")
    failed = []
    if args.assert_winner and report.winner != args.assert_winner:
        failed.append(
            f"--assert-winner {args.assert_winner}: winner is "
            f"{report.winner} (A {report.a.time_s * 1e6:.3f} us, "
            f"B {report.b.time_s * 1e6:.3f} us)"
        )
    if args.assert_top and report.top_term() != args.assert_top:
        failed.append(
            f"--assert-top {args.assert_top}: top term is "
            f"{report.top_term()}"
        )
    for message in failed:
        print(f"ASSERTION FAILED: {message}", file=sys.stderr)
    return 3 if failed else 0


def _serve_sim_cli(args) -> int:
    """``repro serve-sim``: closed-loop multi-tenant serving simulation.

    Exit codes: 0 = ok, 2 = unknown matrix/device or bad --slo spec,
    3 = the ``--assert-p99`` or ``--assert-alerts`` check failed.
    """
    from .serve import (
        MonitorConfig,
        ServeConfig,
        ServeEngine,
        ServeMonitor,
        TraceConfig,
        auto_interarrival_s,
        generate_trace,
        slo_summary,
        worker_chrome_trace,
        write_serve_dash,
        write_serve_jsonl,
    )
    from .serve.server import DEFAULT_SERVE_EPSILON

    keys = [k.strip() for k in args.matrices.split(",") if k.strip()]
    if not keys:
        print("error: no matrices given", file=sys.stderr)
        return 2
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_us * 1e-6,
        queue_limit=args.queue_limit,
        tenant_limit=args.tenant_limit,
        gpus=args.gpus,
        epsilon=(
            DEFAULT_SERVE_EPSILON if args.epsilon is None else args.epsilon
        ),
        restart=(0.9 if args.restart is None else args.restart),
    )
    try:
        device = get_device(args.device)
        engine = ServeEngine(device, config)
        plans = [
            engine.register(
                key,
                scale=args.scale,
                precision=Precision(args.precision),
                format_name=args.format,
            )
            for key in keys
        ]
    except KeyError as exc:
        print(f"error: unknown key {exc}", file=sys.stderr)
        return 2
    mean_s = (
        args.rate * 1e-6
        if args.rate is not None
        else auto_interarrival_s(
            plans, config.gpus, config.epsilon, config.restart
        )
    )
    trace_config = TraceConfig(
        n_requests=args.requests,
        n_tenants=args.tenants,
        seed=args.seed,
        burst_factor=args.burst,
        graph_zipf_s=args.zipf_graph,
        node_zipf_s=args.zipf_node,
    )
    requests = generate_trace(
        trace_config, engine.registered_graphs(), mean_s
    )
    slos = tuple(args.slo or ())
    want_monitor = bool(
        args.monitor
        or slos
        or args.html_dash
        or args.monitor_chrome
        or args.assert_alerts is not None
    )
    monitor = None
    if want_monitor:
        try:
            monitor = ServeMonitor(
                MonitorConfig(
                    window_s=args.window_us * 1e-6,
                    sample_every_s=(
                        None
                        if args.sample_every_us is None
                        else args.sample_every_us * 1e-6
                    ),
                    slos=slos,
                    flightrec_capacity=args.flightrec,
                )
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    tracer = None
    if args.trace_queries:
        from .obs.tracing import QueryTracer, TracingConfig

        try:
            tracer = QueryTracer(
                TracingConfig(
                    seed=args.seed,
                    head_rate=args.trace_head_rate,
                    window_s=args.window_us * 1e-6,
                ),
                monitor=monitor,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    result = engine.run_trace(requests, monitor=monitor, tracer=tracer)
    summary = slo_summary(result)

    def us(v):
        return "-" if v is None else f"{v * 1e6:.2f} us"

    print(
        f"serve-sim: {len(keys)} graph(s) on {config.gpus}x {device.name}, "
        f"{args.requests} queries (seed {args.seed}, "
        f"mean gap {mean_s * 1e6:.2f} us)"
    )
    for plan in plans:
        print(
            f"  {plan.abbrev}: {plan.format_name} "
            f"({plan.n_rows} nodes @ scale {plan.scale:.4g}) — "
            f"{plan.rationale}"
        )
    print(
        f"  admitted {summary['admitted']}, shed {summary['shed']}, "
        f"{summary['batches']} batches "
        f"(mean width {summary['mean_batch_width'] or 0:.2f})"
    )
    print(
        f"  {summary['queries_per_s']:.1f} queries/s | "
        f"p50 {us(summary['p50_s'])}, p95 {us(summary['p95_s'])}, "
        f"p99 {us(summary['p99_s'])} | "
        f"makespan {summary['makespan_s'] * 1e3:.3f} ms"
    )
    if monitor is not None:
        from .obs.slo import render_alert

        mon = monitor.summary
        print(
            f"  monitor: window {monitor.config.window_s * 1e3:.3f} ms | "
            f"rolling p50 {us(mon['windowed_p50_s'])}, "
            f"p95 {us(mon['windowed_p95_s'])}, "
            f"p99 {us(mon['windowed_p99_s'])} | "
            f"{mon['samples']} samples, "
            f"{mon['alert_count']} alert(s), "
            f"{mon['flight_records']} flight record(s)"
        )
        for event in monitor.alerts:
            print(f"  {render_alert(event)}")
    if tracer is not None:
        ts = tracer.summary
        tail = ", ".join(
            f"{reason} {n}" for reason, n in ts["tail_kept"].items() if n
        )
        print(
            f"  tracer: kept {ts['kept']}/{ts['requests_seen']} traces "
            f"(head {ts['head_kept']}; tail {tail or 'none'}), "
            f"{ts['batches_kept']}/{ts['batches']} batch trace(s)"
        )
    if args.jsonl:
        write_serve_jsonl(
            result,
            args.jsonl,
            monitor=monitor,
            matrices=keys,
            device=device.name,
            precision=args.precision,
            seed=args.seed,
            scale=args.scale,
            format=args.format,
            gpus=config.gpus,
            max_batch=config.max_batch,
            max_wait_s=config.max_wait_s,
            requests=args.requests,
            tenants=args.tenants,
            mean_interarrival_s=mean_s,
            epsilon=config.epsilon,
            restart=config.restart,
            burst=trace_config.burst_factor,
            zipf_graph=trace_config.graph_zipf_s,
            zipf_node=trace_config.node_zipf_s,
            queue_limit=config.queue_limit,
            tenant_limit=config.tenant_limit,
            max_iterations=config.max_iterations,
            rate_us=args.rate,
            window_us=args.window_us,
            monitored=monitor is not None,
            slos=list(slos),
        )
        print(f"wrote {args.jsonl}")
    if args.trace_queries:
        from .obs.tracing import write_trace_jsonl

        write_trace_jsonl(
            tracer,
            args.trace_queries,
            matrices=keys,
            device=device.name,
            seed=args.seed,
            requests=args.requests,
        )
        print(f"wrote {args.trace_queries}")
    if args.trace:
        import json
        from pathlib import Path

        trace = worker_chrome_trace(device, config.gpus, result.batches)
        path = Path(args.trace)
        path.write_text(json.dumps(trace, indent=1))
        print(f"wrote {path}")
    if args.html_dash:
        write_serve_dash(
            result,
            monitor,
            args.html_dash,
            title=f"serve monitor — {','.join(keys)} on {device.name}",
            tracer=tracer,
        )
        print(f"wrote {args.html_dash}")
    if args.monitor_chrome:
        import json

        with open(args.monitor_chrome, "w") as fh:
            json.dump(monitor.chrome_counters(), fh, indent=1)
        print(f"wrote {args.monitor_chrome}")
    if args.assert_alerts is not None:
        fired = monitor.alert_count
        if fired < args.assert_alerts:
            print(
                f"ASSERTION FAILED: --assert-alerts {args.assert_alerts}: "
                f"only {fired} alert(s) fired",
                file=sys.stderr,
            )
            return 3
    if args.assert_p99 is not None:
        p99 = summary["p99_s"]
        if p99 is None or p99 > args.assert_p99:
            print(
                f"ASSERTION FAILED: --assert-p99 {args.assert_p99}: "
                f"p99 is {p99}",
                file=sys.stderr,
            )
            return 3
    return 0


def _trace_cli(args) -> int:
    """``repro trace``: slowest-query table + exact slow-query explain.

    Exit codes: 0 = ok, 2 = unreadable file, no trace spans, or an
    unknown / ambiguous ``--explain`` trace id.
    """
    import json

    from .obs.tracing import (
        ExplainTable,
        format_slowest,
        group_traces,
        spans_from_records,
        trace_waterfall,
    )

    try:
        with open(args.jsonl) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    objs = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            print(f"error: line {i + 1}: {exc}", file=sys.stderr)
            return 2
    spans = spans_from_records(objs)
    if not spans:
        print(f"error: no trace spans in {args.jsonl}", file=sys.stderr)
        return 2
    traces = group_traces(spans)
    roots = sorted(
        (
            ss[0]
            for ss in traces.values()
            if ss[0].parent_id is None and ss[0].kind == "request"
        ),
        key=lambda s: (-s.duration_s, s.attrs.get("rid", 0)),
    )
    print(
        f"trace: {len(spans)} span(s) in {len(traces)} trace(s) "
        f"from {args.jsonl}"
    )
    print(format_slowest(roots, args.slowest))
    if args.explain is None:
        return 0
    if args.explain == "worst":
        candidates = roots[:1]
    else:
        candidates = [
            r for r in roots if r.trace_id.startswith(args.explain)
        ]
    if not candidates:
        print(
            f"error: no request trace matches {args.explain!r}",
            file=sys.stderr,
        )
        return 2
    if len(candidates) > 1:
        ids = ", ".join(r.trace_id for r in candidates)
        print(
            f"error: ambiguous trace id prefix {args.explain!r}: {ids}",
            file=sys.stderr,
        )
        return 2
    root = candidates[0]
    print()
    print(trace_waterfall(traces[root.trace_id]).gantt())
    if root.status != "ok":
        print(
            f"request {root.attrs.get('rid')} was shed "
            f"({root.attrs.get('reason', 'overload')}) — "
            "no latency to explain"
        )
        return 0
    table = ExplainTable.from_root_span(root)
    if table is not None:
        print()
        print(table.render())
    batch_id = root.attrs.get("batch_id")
    batch_spans = next(
        (
            ss
            for ss in traces.values()
            if ss[0].kind == "batch"
            and ss[0].attrs.get("batch_id") == batch_id
        ),
        None,
    )
    if batch_spans is not None:
        print()
        print(
            f"batch {batch_id} drill-down "
            f"(trace {batch_spans[0].trace_id}):"
        )
        print(trace_waterfall(batch_spans).gantt())
    return 0


if __name__ == "__main__":
    sys.exit(main())
