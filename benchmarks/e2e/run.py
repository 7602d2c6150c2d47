"""End-to-end wall-clock benchmark: four workloads, each run in fresh processes.

Two ways to run it, from the repository root:

* one workload for a fixed time, ending with one JSON result line::

      python benchmarks/e2e/run.py --workload dynamic --seed 1 --seconds 20 --trace 0

  Runs start one after another until the next one would end past
  ``--seconds`` (at least three; with ``--trace 1`` untraced and traced
  runs alternate, at least two of each).  ``--trace 0`` reports the
  end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
  metrics.

* every workload, interleaved round-robin, ``--runs`` times each, plus
  one traced run per workload with ``--trace``::

      python benchmarks/e2e/run.py --seed 0 --runs 3 --trace

Every run is a new ``child.py`` process with a scrubbed environment and
single-threaded BLAS.  Each metric is the median over runs, printed with
its IQR and run count.  Results, logs and span files go to ``--out``
(default: a new directory under ``.bench_out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]

#: Inherited settings that would change what a run does.
SCRUBBED_ENV = ("REPRO_CELL_CACHE", "REPRO_JIT", "REPRO_SCALE", "REPRO_QUICK", "REPRO_FULL")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fewest runs per result in --seconds mode (per kind when tracing).
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
#: A run that takes longer than this is killed and counted as a crash
#: (runs take about 3 s; the deadlines keep --seconds mode under 180 s).
CHILD_TIMEOUT_S = 60.0
#: --seconds mode starts no run after this much time has passed.
LAUNCH_DEADLINE_S = 100.0


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(name: str, seed: int, traced: bool, out_dir: Path, run_id: str) -> dict:
    """Run one child to completion; a crash or timeout fails every op."""
    log = out_dir / f"{run_id}.log"
    t_spawn = time.monotonic()
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload", name,
        "--seed", str(seed),
        "--trace", str(int(traced)),
        "--out", str(out_dir),
        "--run-id", run_id,
        "--t-spawn", repr(t_spawn),
    ]
    with log.open("w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env())
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = out_dir / f"{run_id}.json"
    if proc.returncode == 0 and result.is_file():
        return json.loads(result.read_text())
    ops = WORKLOADS[name].ops(WORKLOADS[name].params)
    tail = log.read_text(errors="replace").strip().splitlines()[-5:]
    return {
        "workload": name,
        "seed": seed,
        "run_id": run_id,
        "traced": traced,
        "crashed": True,
        "ops": ops,
        "attempted": ops,
        "failed": ops,
        "notes": [f"exit code {proc.returncode}", *tail],
    }


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, IQR)``; the IQR of fewer than two values is 0."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1


def summarize(records: list[dict], bench: dict) -> dict:
    """Median/IQR/n of every metric over one workload's runs."""
    ok = [r for r in records if not r.get("crashed")]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics: dict[str, dict] = {}

    def put(name, unit, values):
        if values:
            med, iqr = spread(values)
            metrics[name] = {"value": med, "unit": unit, "iqr": iqr, "n": len(values), "runs": values}

    for m in bench["end_to_end"]:
        put(m["name"], m["unit"], [r[m["name"]] for r in plain])
    for m in bench["per_layer"]:
        if m["name"] == "trace_overhead":
            if plain and traced:
                ratio = statistics.median(r["wall_s"] for r in traced) / statistics.median(
                    r["wall_s"] for r in plain
                )
                put(m["name"], m["unit"], [ratio])
        else:
            put(m["name"], m["unit"], [r["layers"][m["name"]] for r in traced])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "crashes": len(records) - len(ok),
        "notes": sorted({n for r in records for n in r["notes"]}),
        "chrome_errors": sorted({e for r in traced for e in r.get("chrome_errors", [])}),
    }


def print_summary(name: str, summary: dict) -> None:
    print(f"== {name}: failed_frac {summary['failed_frac']:.4g} "
          f"({summary['failed']}/{summary['attempted']} ops, {summary['crashes']} crashed runs)")
    for metric, m in summary["metrics"].items():
        print(f"  {metric:<26} {m['value']:>14.6g} {m['unit']:<6} IQR {m['iqr']:<10.4g} n={m['n']}")
    for note in summary["notes"][:10]:
        print(f"  ! {note}")
    for err in summary["chrome_errors"]:
        print(f"  ! chrome trace: {err}")


def print_self_times(name: str, records: list[dict]) -> None:
    for r in records:
        if r.get("traced") and not r.get("crashed"):
            print(spans.self_time_table(r["layers"], f"-- {name} self time ({r['run_id']})"))


def timed_runs(name: str, seed: int, trace: bool, seconds: float, out_dir: Path) -> list[dict]:
    """Runs of one workload until the next would end past ``seconds``."""
    records: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(spawn(name, seed, traced, out_dir, f"{name}-s{seed}-r{len(records)}"))
        elapsed = time.monotonic() - start
        plain = sum(not r["traced"] for r in records)
        enough = plain >= (MIN_TRACED_RUNS if trace else MIN_RUNS) and (
            not trace or len(records) - plain >= MIN_TRACED_RUNS
        )
        if all(r.get("crashed") for r in records) and len(records) >= 2:
            break
        if elapsed > LAUNCH_DEADLINE_S or (
            enough and elapsed + elapsed / len(records) > seconds
        ):
            break
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="run one workload for --seconds (default: all, --runs times)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.runs < 1 or (args.seconds is not None and args.seconds <= 0):
        print("error: --runs and --seconds must be positive", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must not be negative", file=sys.stderr)
        return 2
    if args.seconds is not None and args.workload is None:
        print("error: --seconds needs --workload", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.out is None:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload or 'all'}-", dir=ROOT / ".bench_out"))
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    records: dict[str, list[dict]] = {n: [] for n in names}
    if args.workload and args.seconds is not None:
        records[args.workload] = timed_runs(args.workload, args.seed, bool(args.trace), args.seconds, out_dir)
    else:
        for i in range(args.runs):
            for name in names:
                records[name].append(spawn(name, args.seed, False, out_dir, f"{name}-s{args.seed}-r{i}"))
        if args.trace:
            for name in names:
                records[name].append(spawn(name, args.seed, True, out_dir, f"{name}-s{args.seed}-traced"))

    summaries = {name: summarize(recs, bench) for name, recs in records.items()}
    (out_dir / "results.json").write_text(
        json.dumps({"seed": args.seed, "workloads": summaries, "runs": records}, indent=1)
    )
    for name in names:
        print_summary(name, summaries[name])
        print_self_times(name, records[name])
    print(f"wrote {out_dir / 'results.json'}")

    if all(r.get("crashed") for recs in records.values() for r in recs):
        print("error: every run crashed", file=sys.stderr)
        return 1
    if args.workload is None:
        return 0
    summary = summaries[args.workload]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in summary["metrics"]]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": summary["failed"] == 0 and summary["crashes"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m["name"]: {"value": summary["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
