"""The docs/tutorial.md code paths, executed.

Keeps the tutorial honest: every API it shows must work as written
(smaller matrices substituted for speed).
"""

import numpy as np

from repro import (
    ACSRFormat,
    ACSRParams,
    CSRMatrix,
    GTX_580,
    GTX_TITAN,
    MultiGPUContext,
    Precision,
    TESLA_K10,
    build_format,
)
from repro.apps import google_matrix, pagerank
from repro.core import multi_gpu_spmv
from repro.data import corpus_matrix
from repro.dynamic import (
    DynCSR,
    apply_update,
    epoch_speedups,
    generate_update,
    run_dynamic_pagerank,
)
from repro.formats import Workload, recommend
from repro.obs import timeline_from_format
from repro.harness.experiments import fig5_gflops


def test_section_1_matrices():
    rows = np.array([0, 0, 1, 3])
    cols = np.array([1, 2, 0, 3])
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    m = CSRMatrix.from_coo(
        rows, cols, vals, shape=(4, 4), precision=Precision.SINGLE
    )
    assert (m.mu, m.max_nnz_row) == (1.0, 2)
    wik = corpus_matrix("INT")
    assert wik.nnz > 0


def test_section_2_devices():
    assert GTX_TITAN.supports_dynamic_parallelism
    assert GTX_580.memory_gib == 1.5


def test_sections_3_and_4_formats_and_acsr():
    wik = corpus_matrix("INT")
    hyb = build_format("hyb", wik)
    assert hyb.preprocess.total_s > 0
    res = hyb.run_spmv(np.ones(wik.n_cols, dtype=np.float32), GTX_TITAN)
    assert res.gflops > 0

    acsr = ACSRFormat.from_csr(wik)
    plan = acsr.plan_for(GTX_TITAN)
    assert plan.n_bin_grids >= 1
    assert acsr.timing(GTX_TITAN).pool.bound in (
        "compute",
        "memory",
        "latency",
        "launch",
    )
    timing = acsr.timing(GTX_TITAN)
    timeline = timeline_from_format(acsr, GTX_TITAN)
    assert "GTXTitan" in timeline.gantt()
    events = [e for lane in timeline.lanes for e in lane.events]
    assert any(e.name == "launch-bill" for e in events)
    assert any(
        e.category == "kernel" and e.duration_s == timing.pool.time_s
        for e in events
    )
    ACSRParams(thread_load=8, enable_dp=False)  # the documented knobs


def test_sections_5_and_6_apps_and_dynamic():
    adj = corpus_matrix("INT").binarized()
    g = google_matrix(adj)
    ranks = pagerank(build_format("acsr", g), GTX_TITAN)
    assert ranks.iterations > 1

    dyn = DynCSR.from_csr(adj)
    batch = generate_update(adj, np.random.default_rng(0))
    apply_update(dyn, batch)
    assert dyn.nnz > 0

    results = run_dynamic_pagerank(adj, GTX_TITAN, n_epochs=2)
    assert epoch_speedups(results, "hyb").shape == (2,)


def test_sections_7_to_9_multigpu_harness_advisor():
    wik = corpus_matrix("INT")
    ctx = MultiGPUContext.of(TESLA_K10, 2)
    out = multi_gpu_spmv(
        ACSRFormat.from_csr(wik, device=TESLA_K10),
        np.ones(wik.n_cols, dtype=np.float32),
        ctx,
    )
    assert out.time_s > 0

    res = fig5_gflops.run(matrices=("INT",))
    assert "Figure 5" in res.render()

    rec = recommend(wik, Workload(spmv_per_structure=50, dynamic=True))
    assert rec.format_name == "acsr"
