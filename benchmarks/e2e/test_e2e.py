"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

Each workload runs in-process at tiny sizes passed as ``params``; the
real runs happen in fresh processes through ``run.py``.
"""

from __future__ import annotations

import copy
import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import spans  # noqa: E402
from child import measure  # noqa: E402
from make_reference import reference_entry  # noqa: E402
from run import summarize  # noqa: E402
from workloads import WORKLOADS, params_key  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

TINY = {
    "serve-numeric": {"matrices": ["ENR"], "scale": 0.05, "requests": 6},
    "serve-observed": {"matrices": ["INT"], "scale": 0.2, "requests": 24},
    "table3": {"matrices": ["ENR", "INT"], "scale": 0.05},
    "dynamic": {"matrix": "ENR", "scale": 0.05, "epochs": 2},
}


def tiny_params(name):
    return {**WORKLOADS[name].params, **TINY[name]}


def tiny_reference(name):
    p = tiny_params(name)
    return {name: {params_key(p): reference_entry(name, p, [SEED])}}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_run(request, tmp_path_factory):
    """One plain and one traced tiny run of a workload, checked against a
    reference recorded for the same tiny sizes."""
    name = request.param
    reference = tiny_reference(name)
    out = tmp_path_factory.mktemp(name)
    runs = [
        measure(name, SEED, traced, out, time.monotonic(), TINY[name], f"r{traced:d}", reference)
        for traced in (False, True)
    ]
    return name, reference, runs, out


def test_bench_json_matches_the_emitted_metrics():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert "setup_s" in bounds and bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_metric_is_emitted_with_its_unit(tiny_run):
    name, _, runs, _ = tiny_run
    metrics = summarize(runs, BENCH)["metrics"]
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["value"] > 0, m["name"]


def test_outputs_pass_their_checks(tiny_run):
    name, _, runs, _ = tiny_run
    for r in runs:
        assert r["attempted"] == r["ops"] == WORKLOADS[name].ops(tiny_params(name))
        assert r["failed"] == 0, r["notes"]


def test_self_times_are_non_negative_and_fit_the_traced_wall(tiny_run):
    _, _, runs, out = tiny_run
    layers = runs[1]["layers"]
    selfs = [layers[f"{layer}.self_s"] for layer in spans.LAYERS]
    assert min(selfs) >= -1e-9
    assert sum(layers[f"{layer}.share"] for layer in spans.LAYERS) <= 1.0 + 1e-9
    assert runs[1]["chrome_errors"] == []
    assert (out / "r1.spans.jsonl").read_text().count("\n") >= 1


def test_corrupted_reference_fails_ops(tiny_run, tmp_path):
    name, reference, _, _ = tiny_run
    bad = copy.deepcopy(reference)
    entry = next(iter(bad[name].values()))
    values = entry[str(SEED)] if str(SEED) in entry else entry["*"]
    key = sorted(values)[-1]
    values[key] = [*values[key][:-1], "0.0"]
    run = measure(name, SEED, False, tmp_path, time.monotonic(), TINY[name], "bad", bad)
    assert run["failed"] > 0
    assert summarize([run], BENCH)["failed_frac"] > 0


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    root = rec.open(spans.ROOT_SPAN)  # 0 .. 10
    a = rec.open("numeric", nnz=5, k=1)  # 1 .. 2
    rec.close(a)
    b = rec.open("serve")  # 3 .. 7
    c = rec.open("numeric", nnz=5, k=2)  # 4 .. 6
    rec.close(c)
    rec.close(b)
    rec.close(root)
    assert spans.self_times(rec.spans) == [5.0, 1.0, 2.0, 2.0]
    m = spans.layer_metrics(rec.spans)
    assert (m["numeric.calls"], m["numeric.self_s"], m["numeric.share"]) == (2, 3.0, 0.3)
    assert (m["serve.calls"], m["serve.self_s"], m["other.self_s"]) == (1, 2.0, 5.0)
    assert m["numeric.gflops"] == pytest.approx((2 * 5 + 2 * 5 * 2) / 3.0 / 1e9)


def test_uninstall_restores_every_original():
    import repro
    import repro.obs.tracing  # noqa: F401  (install imports these; load
    import repro.serve  # noqa: F401  them first so both snapshots agree)
    from repro.formats.base import SpMVFormat
    from repro.formats.convert import FORMAT_BUILDERS

    def snapshot():
        owners = [m for n, m in sys.modules.items() if n.startswith("repro")]
        owners += [SpMVFormat, *spans._subclasses(SpMVFormat), repro.formats.csr.CSRMatrix]
        state = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}
        state.update({("builders", k): v for k, v in FORMAT_BUILDERS.items()})
        return state

    before = snapshot()
    installed = spans.install(spans.SpanRecorder())
    assert installed.patches
    assert repro.formats.csr.CSRMatrix.__dict__["from_coo"] is not before[
        (id(repro.formats.csr.CSRMatrix), "from_coo")
    ]
    installed.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, [x * 1.3 for x in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, [x * 0.7 for x in base], "lower", 0.1)[0] == "better"
    assert compare.verdict(base, [x * 1.02 for x in base], "lower", 0.1)[0] == "same"
    assert compare.verdict(base, [x * 1.3 for x in base], "higher", 0.1)[0] == "better"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1)[0] == "unresolved"
