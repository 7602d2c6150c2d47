"""One benchmark run in a fresh process: import, set up, run, check.

``run.py`` starts this script once per run, so module-level corpus, plan
and operator caches start cold, as they do for every CLI call.  Timing
marks are ``time.monotonic()`` readings: on Linux that is the system-wide
``CLOCK_MONOTONIC``, so they compare with the parent's spawn time.

Usage (normally only through run.py)::

    python benchmarks/e2e/child.py --workload NAME --seed S --trace 0|1 \
        --out DIR --run-id ID --t-spawn T
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]


def _import_program() -> None:
    """Load every package any workload or the tracer touches, so traced
    and untraced runs pay the same import bill inside ``setup_s``."""
    import repro  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    import repro.obs.tracing  # noqa: F401
    import repro.serve  # noqa: F401


def measure(
    name: str,
    seed: int,
    trace: bool,
    out_dir,
    t_spawn: float,
    params: dict | None = None,
    run_id: str = "run",
    reference: dict | None = None,
) -> dict:
    """Run one workload once and return its record.

    ``params`` overrides the workload's sizes; ``reference`` replaces
    ``reference.json``.  Outputs are checked after the clock stops.
    """
    import spans
    from workloads import WORKLOADS, load_reference, pinned_env, reference_for

    workload = WORKLOADS[name]
    p = {**workload.params, **(params or {})}
    out_dir = Path(out_dir)
    work_dir = out_dir / f"{run_id}.work"
    work_dir.mkdir(parents=True, exist_ok=True)

    with pinned_env(workload.env(p)):
        _import_program()
        installed = recorder = None
        if trace:
            recorder = spans.SpanRecorder(run_id)
            installed = spans.install(recorder)
            root = recorder.open(spans.ROOT_SPAN, workload=name, seed=seed)
        try:
            state = workload.setup(seed, p, work_dir)
            t_ready = time.monotonic()
            output = workload.main(state)
            t_end = time.monotonic()
            if trace:
                recorder.close(root)
        finally:
            if installed is not None:
                installed.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if reference is None:
            reference = load_reference()
        attempted, failed, notes = workload.check(
            state, output, reference_for(reference, name, p, seed)
        )
    t_checked = time.monotonic()
    shutil.rmtree(work_dir, ignore_errors=True)
    ops = workload.ops(p)
    record = {
        "workload": name,
        "seed": seed,
        "run_id": run_id,
        "traced": trace,
        "params": p,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "wall_s": t_end - t_spawn,
        "setup_s": t_ready - t_spawn,
        "ops_per_s": ops / (t_end - t_ready),
        "peak_rss_mb": peak_rss_mb,
        "check_s": t_checked - t_end,
    }
    if trace:
        from repro.obs.export import validate_chrome_trace

        record["layers"] = spans.layer_metrics(recorder.spans)
        chrome = spans.chrome_trace(recorder.spans)
        record["chrome_errors"] = validate_chrome_trace(chrome)[:5]
        spans.write_spans_jsonl(recorder.spans, out_dir / f"{run_id}.spans.jsonl")
        (out_dir / f"{run_id}.chrome.json").write_text(json.dumps(chrome))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"error: repro imported from {origin}, not {ROOT / 'src'}", file=sys.stderr)
        return 3
    record = measure(
        args.workload,
        args.seed,
        bool(args.trace),
        args.out,
        args.t_spawn,
        run_id=args.run_id,
    )
    Path(args.out, f"{args.run_id}.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
