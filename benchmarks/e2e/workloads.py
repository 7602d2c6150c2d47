"""The four end-to-end workloads and their correctness checks.

Each workload calls the public API its CLI command uses, split into a
set-up phase (inputs ready) and a main phase, so the child process can
time both from outside.  Sizes live in ``Workload.params`` and can be
overridden per call (the tests pass tiny inputs that way).

Every check compares against an oracle that does not share the code
under test: scipy float64 power iterations for iteration counts, exact
float identities, the schema validators, and ``reference.json`` — the
modelled floats recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

DEVICE = "GTXTitan"
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Iteration counts may differ by this much from the float64 oracle: the
#: program iterates in float32 storage precision.
ITERATION_TOLERANCE = 1
#: Distinct seed nodes per serve run whose RWR is re-solved by scipy.
ORACLE_NODES = 8
#: Largest entry-wise gap between the program's RWR vector and scipy's
#: after the same number of rounds; float32 rounding measures ~4e-9.
VECTOR_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    setup: Callable  # (seed, params, out_dir) -> state
    main: Callable  # (state) -> output
    check: Callable  # (state, output, reference) -> (attempted, failed, notes)
    ops: Callable  # (params) -> ops one run attempts
    values: Callable  # (state, output) -> {key: [repr, ...]} modelled floats
    #: ``(value key) -> bool``: values that do not depend on the seed,
    #: stored once in the reference.  ``None``: no value depends on it.
    seed_free: Callable | None = None
    #: Environment the workload runs under: ``(params) -> {var: value}``.
    env: Callable = field(default=lambda p: {})


@contextmanager
def pinned_env(values: dict):
    """Set environment variables for the block, then restore them."""
    saved = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def params_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return {}


def reference_for(reference: dict, name: str, params: dict, seed: int) -> dict:
    """The recorded values for one run; seed-free ones apply to any seed."""
    entry = reference.get(name, {}).get(params_key(params), {})
    return {**entry.get("*", {}), **entry.get(str(seed), {})}


def compare_values(current: dict, expected: dict) -> list[str]:
    """Keys whose recorded ``repr`` differs (keys not recorded are skipped)."""
    return sorted(k for k, v in expected.items() if current.get(k) != v)


# ---------------------------------------------------------------------------
# scipy oracles
# ---------------------------------------------------------------------------


def _scipy(csr):
    import scipy.sparse as sp

    return sp.csr_matrix(
        (csr.values.astype(np.float64), csr.col_idx, csr.row_off),
        shape=(csr.n_rows, csr.n_cols),
    )


def _power_iterations(step, x0, epsilon, max_iterations):
    x, its = x0, 0
    while its < max_iterations:
        nxt = step(x)
        its += 1
        if np.linalg.norm(nxt - x) <= epsilon:
            return its, nxt
        x = nxt
    return its, x


def column_normalized(adjacency):
    """scipy float64 ``W``: ``|A|`` with every non-empty column summing to 1."""
    import scipy.sparse as sp

    A = abs(_scipy(adjacency))
    col = np.asarray(A.sum(axis=0)).ravel()
    return (A @ sp.diags(np.divide(1.0, col, out=np.zeros_like(col), where=col > 0))).tocsr()


def oracle_rwr(W, node, restart, epsilon, max_iterations):
    """``(rounds, r)`` of ``r = c W r + (1-c) e`` from ``r = e`` until
    successive iterates are ``epsilon`` apart (``epsilon=0`` runs exactly
    ``max_iterations`` rounds)."""
    e = np.zeros(W.shape[0])
    e[node] = 1.0
    return _power_iterations(
        lambda r: restart * (W @ r) + (1.0 - restart) * e, e, epsilon, max_iterations
    )


def oracle_pagerank_chain(snapshots, damping, epsilon, max_iterations) -> list[int]:
    """Iterations of warm-started PageRank over consecutive snapshots."""
    import scipy.sparse as sp

    counts, x = [], None
    for snap in snapshots:
        A = _scipy(snap)
        row = np.asarray(abs(A).sum(axis=1)).ravel()
        M = (sp.diags(np.divide(1.0, row, out=np.zeros_like(row), where=row > 0)) @ A).T.tocsr()
        n = snap.n_rows
        teleport = np.full(n, (1.0 - damping) / n)
        x = np.full(n, 1.0 / n) if x is None else x
        its, x = _power_iterations(
            lambda v: teleport + damping * (M @ v), x, epsilon, max_iterations
        )
        counts.append(its)
    return counts


# ---------------------------------------------------------------------------
# serve-numeric / serve-observed: `repro serve-sim`
# ---------------------------------------------------------------------------


def _serve_setup(seed, p, out_dir):
    from repro.gpu.device import Precision, get_device
    from repro.serve import (
        ServeConfig,
        ServeEngine,
        TraceConfig,
        auto_interarrival_s,
        generate_trace,
    )

    device = get_device(DEVICE)
    config = ServeConfig()
    engine = ServeEngine(device, config)
    plans = [
        engine.register(key, scale=p["scale"], precision=Precision.SINGLE)
        for key in p["matrices"]
    ]
    mean_s = auto_interarrival_s(plans, config.gpus, config.epsilon, config.restart)
    trace_config = TraceConfig(
        n_requests=p["requests"],
        n_tenants=p["tenants"],
        seed=seed,
        node_zipf_s=p["zipf_node"],
    )
    requests = generate_trace(trace_config, engine.registered_graphs(), mean_s)
    # Stretch the arrivals so their mean gap is exactly the auto-paced one.
    # The seed still shapes bursts, tenants and seed nodes, but no longer
    # how long the trace lasts, which sets the observers' work (its IQR
    # across seeds is 20% of the median without this).
    stretch = len(requests) * mean_s / requests[-1].arrival_s
    requests = tuple(replace(r, arrival_s=r.arrival_s * stretch) for r in requests)
    return {
        "seed": seed,
        "params": p,
        "device": device,
        "engine": engine,
        "plans": plans,
        "requests": requests,
        "out_dir": Path(out_dir),
    }


def _serve_main(state):
    from repro.serve import slo_summary

    p, engine = state["params"], state["engine"]
    monitor = tracer = None
    if p["observed"]:
        from repro.obs.tracing import QueryTracer, TracingConfig
        from repro.serve import MonitorConfig, ServeMonitor

        monitor = ServeMonitor(MonitorConfig(slos=(p["slo"],)))
        tracer = QueryTracer(TracingConfig(seed=state["seed"]), monitor=monitor)
    result = engine.run_trace(state["requests"], monitor=monitor, tracer=tracer)
    out = {"result": result, "summary": slo_summary(result), "files": []}
    if p["observed"]:
        from repro.obs.tracing import write_trace_jsonl
        from repro.serve import write_serve_jsonl

        out_dir = state["out_dir"]
        meta = {
            "matrices": list(p["matrices"]),
            "device": state["device"].name,
            "seed": state["seed"],
            "requests": p["requests"],
        }
        out["files"] = [
            write_serve_jsonl(
                result, out_dir / "serve.jsonl", monitor=monitor, slos=[p["slo"]], **meta
            ),
            write_trace_jsonl(tracer, out_dir / "trace.jsonl", **meta),
        ]
    return out


def _serve_values(state, out):
    return {
        f"plan:{plan.abbrev}": [plan.format_name, *map(repr, plan.spmm_time_s)]
        for plan in state["plans"]
    }


def _serve_check(state, out, reference):
    from repro.apps.rwr import rwr
    from repro.data.corpus import corpus_matrix
    from repro.gpu.device import Precision
    from repro.obs import validate_profile_jsonl
    from repro.serve import operator_format

    requests, result = state["requests"], out["result"]
    config = result.config
    expected = [r.rid for r in requests]
    seen = Counter(o.request.rid for o in result.requests)
    bad = {rid for rid in expected if seen[rid] != 1}
    notes = [f"rid {rid}: {seen[rid]} outcomes" for rid in sorted(bad)]
    for o in result.admitted:
        if o.latency_s != (o.queue_wait_s + o.formation_s) + o.compute_s:
            bad.add(o.request.rid)
            notes.append(f"rid {o.request.rid}: latency is not the sum of its terms")

    # The engine keeps iteration counts only, so the sampled nodes' RWR
    # vectors come from the same public rwr() over the engine's operator.
    by_node: dict[tuple, list] = {}
    for o in result.admitted:
        by_node.setdefault((o.request.graph, o.request.node), []).append(o)
    nodes = sorted(by_node)
    rng = np.random.default_rng(state["seed"])
    picks = rng.choice(len(nodes), size=min(ORACLE_NODES, len(nodes)), replace=False)
    plans = {plan.abbrev: plan for plan in state["plans"]}
    limits = (config.restart, config.epsilon, config.max_iterations)
    operators: dict[str, object] = {}
    for i in sorted(picks):
        graph, node = nodes[i]
        plan = plans[graph]
        if graph not in operators:
            operators[graph] = column_normalized(
                corpus_matrix(graph, scale=plan.scale, precision=Precision.SINGLE).binarized()
            )
        W = operators[graph]
        want, _ = oracle_rwr(W, node, *limits)
        fmt = operator_format(graph, plan.format_name, Precision.SINGLE, plan.scale)
        got = rwr(fmt, state["device"], node, *limits[:2], max_iterations=limits[2])
        _, ref = oracle_rwr(W, node, config.restart, 0.0, got.iterations)
        gap = float(np.max(np.abs(got.vector - ref)))
        for o in by_node[(graph, node)]:
            if abs(o.iterations - want) > ITERATION_TOLERANCE or gap > VECTOR_TOLERANCE:
                bad.add(o.request.rid)
                notes.append(
                    f"{graph}/{node}: {o.iterations} iterations (oracle {want}), "
                    f"vector off by {gap:.3g}"
                )

    # A wrong plan, a report that fails its schema, or outcomes for
    # requests never sent fail every op of the run.
    run_errors = [f"{k} differs from reference" for k in compare_values(
        _serve_values(state, out), reference
    )]
    if set(seen) - set(expected):
        run_errors.append("outcomes for unknown rids")
    for path in out["files"]:
        run_errors += [f"{Path(path).name}: {e}" for e in validate_profile_jsonl(path)]
        Path(path).unlink()
    failed = len(expected) if run_errors else len(bad)
    return len(expected), failed, run_errors[:10] + notes[:10]


SERVE_NUMERIC = Workload(
    name="serve-numeric",
    params={
        "matrices": ["WIK"],
        "scale": 0.01,
        "requests": 128,
        "tenants": 4,
        "zipf_node": 0.0,
        "observed": False,
    },
    setup=_serve_setup,
    main=_serve_main,
    check=_serve_check,
    ops=lambda p: p["requests"],
    values=_serve_values,
)

SERVE_OBSERVED = Workload(
    name="serve-observed",
    params={
        "matrices": ["INT"],
        "scale": 0.3,
        "requests": 160,
        "tenants": 8,
        "zipf_node": 1.5,
        "observed": True,
        "slo": "p99<=0.0005@50ms",
    },
    setup=_serve_setup,
    main=_serve_main,
    check=_serve_check,
    ops=lambda p: p["requests"],
    values=_serve_values,
)


# ---------------------------------------------------------------------------
# table3: `repro run table3`
# ---------------------------------------------------------------------------


def _table3_setup(seed, p, out_dir):
    from repro.data.corpus import corpus_matrix

    # Table III has no random input: the corpus analogs are fixed, so the
    # seed changes nothing here.
    for key in p["matrices"]:
        corpus_matrix(key)  # the cache entry run_cell looks up
    return {"keys": list(p["matrices"])}


def _table3_main(state):
    from repro.harness.experiments import table3_single_spmv

    return table3_single_spmv.run(matrices=state["keys"])


def _table3_formats():
    from repro.harness.experiments.table3_single_spmv import OTHER_FORMATS

    return ("acsr", *OTHER_FORMATS)


def _table3_values(state, out):
    from repro.gpu.device import Precision, get_device
    from repro.harness.runner import run_cell

    values = {}
    for key in state["keys"]:
        for fmt in _table3_formats():
            cell = run_cell(key, fmt, get_device(DEVICE), Precision.SINGLE)
            values[f"{key}/{fmt}"] = [repr(cell.st_s), repr(cell.pt_scalable_s)]
    return values


def _table3_check(state, out, reference):
    values = _table3_values(state, out)
    notes = []
    if [row["matrix"] for row in out.rows] != state["keys"]:
        notes.append("table rows do not follow the requested matrices")
        return len(values), len(values), notes
    bad = compare_values(values, reference)
    notes += [f"cell {k} differs from reference" for k in bad]
    return len(values), len(bad), notes


TABLE3 = Workload(
    name="table3",
    params={"matrices": ["WIK", "LIV", "HOL", "DBL", "ENR", "YOT"], "scale": 0.1},
    setup=_table3_setup,
    main=_table3_main,
    check=_table3_check,
    ops=lambda p: len(p["matrices"]) * 5,
    values=_table3_values,
    # `repro run` has no scale flag; REPRO_SCALE is how a user shrinks it.
    env=lambda p: {"REPRO_SCALE": repr(p["scale"])},
)


# ---------------------------------------------------------------------------
# dynamic: Section VII PageRank over an evolving graph
# ---------------------------------------------------------------------------


def _dynamic_setup(seed, p, out_dir):
    from repro.data.corpus import corpus_matrix

    return {
        "seed": seed,
        "params": p,
        "adjacency": corpus_matrix(p["matrix"], scale=p["scale"]).binarized(),
    }


def _dynamic_main(state):
    from repro.dynamic.pipeline import run_dynamic_pagerank
    from repro.gpu.device import get_device

    return run_dynamic_pagerank(
        state["adjacency"],
        get_device(DEVICE),
        n_epochs=state["params"]["epochs"],
        seed=state["seed"],
    )


def _dynamic_values(state, out):
    return {
        f"{backend}/{rec.epoch}": [repr(rec.maintenance_s)]
        for backend, run in out.items()
        for rec in run.epochs
    }


def _dynamic_check(state, out, reference):
    from repro.apps.pagerank import DEFAULT_DAMPING
    from repro.apps.power_method import MAX_ITERATIONS
    from repro.dynamic.updates import apply_update_to_csr, generate_update

    # The pipeline's update stream, replayed: rng draws happen in epoch order.
    rng = np.random.default_rng(state["seed"])
    snapshots = [state["adjacency"]]
    for _ in range(1, state["params"]["epochs"]):
        snapshots.append(apply_update_to_csr(snapshots[-1], generate_update(snapshots[-1], rng)))
    # 1e-6: run_dynamic_pagerank's default epsilon.
    want = oracle_pagerank_chain(snapshots, DEFAULT_DAMPING, 1e-6, MAX_ITERATIONS)
    bad = set(compare_values(_dynamic_values(state, out), reference))
    notes = [f"{k} maintenance_s differs from reference" for k in sorted(bad)]
    for backend, run in out.items():
        for rec in run.epochs:
            if abs(rec.iterations - want[rec.epoch]) > ITERATION_TOLERANCE:
                bad.add(f"{backend}/{rec.epoch}")
                notes.append(
                    f"{backend}/{rec.epoch}: {rec.iterations} iterations, oracle {want[rec.epoch]}"
                )
    attempted = sum(len(run.epochs) for run in out.values())
    return attempted, len(bad), notes


DYNAMIC = Workload(
    name="dynamic",
    params={"matrix": "DBL", "scale": 0.12, "epochs": 5},
    setup=_dynamic_setup,
    main=_dynamic_main,
    check=_dynamic_check,
    ops=lambda p: 3 * p["epochs"],
    values=_dynamic_values,
    seed_free=lambda key: key.endswith("/0"),
)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SERVE_NUMERIC, SERVE_OBSERVED, TABLE3, DYNAMIC)
}
