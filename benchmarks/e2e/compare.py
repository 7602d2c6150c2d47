"""Compare two benchmark results against the bounds in ``BENCHMARK.json``.

Usage::

    python benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are ``results.json`` files
written by ``run.py``, or directories whose ``results.json`` files are
pooled (one per run of ``run.py``).  For every workload x end-to-end
metric the verdict is:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread (IQR / median, the wider side) exceeds the
  bound, unless every run of one side beats every run of the other;
* ``better`` — B's median beats A's by more than that spread, or every
  run of B beats every run of A (at least three runs each);
* ``same`` — otherwise.

``failed_frac`` is worse whenever B fails a larger share of ops.  The
exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Fewest runs per side before "every run beats every run" counts.
MIN_DOMINANCE_RUNS = 3


def load_side(path: Path) -> dict[str, dict]:
    """``{workload: {"runs": {metric: [values]}, "attempted", "failed"}}``."""
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no results.json under {path}")
    side: dict[str, dict] = {}
    for f in files:
        for name, summary in json.loads(f.read_text())["workloads"].items():
            w = side.setdefault(name, {"runs": {}, "attempted": 0, "failed": 0})
            w["attempted"] += summary["attempted"]
            w["failed"] += summary["failed"]
            for metric, m in summary["metrics"].items():
                w["runs"].setdefault(metric, []).extend(m["runs"])
    return side


def _share_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, change, spread)``; ``change`` > 0 means B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / abs(ma)
    spread = max(_share_spread(a), _share_spread(b))
    enough = min(len(a), len(b)) >= MIN_DOMINANCE_RUNS
    b_dominates = enough and all(sign * (y - x) < 0 for x in a for y in b)
    a_dominates = enough and all(sign * (x - y) < 0 for x in a for y in b)
    if b_dominates:
        return "better", change, spread
    if a_dominates:
        return ("worse" if change > bound else "same"), change, spread
    if spread > bound:
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if -change > spread:
        return "better", change, spread
    return "same", change, spread


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="parent results (file or directory)")
    ap.add_argument("b", type=Path, help="change results (file or directory)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load_side(args.a), load_side(args.b)

    print(f"{'workload':<15} {'metric':<12} {'A':>12} {'B':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    worse = False
    for name in sorted(set(side_a) & set(side_b)):
        wa, wb = side_a[name], side_b[name]
        for m in bench["end_to_end"]:
            a, b = wa["runs"].get(m["name"]), wb["runs"].get(m["name"])
            if not a or not b:
                continue
            v, change, spread = verdict(a, b, m["better"], m["bound"])
            worse |= v == "worse"
            print(f"{name:<15} {m['name']:<12} {statistics.median(a):>12.5g} "
                  f"{statistics.median(b):>12.5g} {change:>+8.1%} {spread:>7.1%} "
                  f"{m['bound']:>6.0%}  {v}")
        fa = wa["failed"] / wa["attempted"] if wa["attempted"] else 1.0
        fb = wb["failed"] / wb["attempted"] if wb["attempted"] else 1.0
        v = "worse" if fb > fa else "better" if fb < fa else "same"
        worse |= v == "worse"
        print(f"{name:<15} {'failed_frac':<12} {fa:>12.4g} {fb:>12.4g} {'':>8} {'':>7} {'':>6}  {v}")
    missing = sorted(set(side_a) ^ set(side_b))
    if missing:
        print(f"not on both sides: {', '.join(missing)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
