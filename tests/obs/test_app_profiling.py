"""Profiler hooks in the app drivers, pipeline, and multi-GPU layers."""

import numpy as np
import pytest

from repro.apps.hits import hits, stacked_matrix
from repro.apps.pagerank import google_matrix, pagerank
from repro.apps.rwr import column_normalized, run_rwr_batch, rwr
from repro.core.acsr import ACSRFormat
from repro.formats.csr_format import CSRFormat
from repro.gpu.device import GTX_TITAN
from repro.obs import Profiler
from tests.conftest import make_powerlaw_csr


@pytest.fixture(scope="module")
def adjacency():
    return make_powerlaw_csr(n_rows=800, seed=9)


def _span_names(prof):
    return [s.name for _, s in prof.root.walk()]


class TestPageRankProfiling:
    def test_spans_and_exact_time_coherence(self, adjacency):
        fmt = CSRFormat.from_csr(google_matrix(adjacency))
        prof = Profiler("pr")
        res = pagerank(fmt, GTX_TITAN, profiler=prof)
        names = _span_names(prof)
        assert "pagerank" in names
        assert names.count("iteration") == res.iterations
        # Every iteration records one SpMV + one vector kernel.
        assert len(prof.all_records()) == 2 * res.iterations
        total = prof.total()
        assert total.time_s == pytest.approx(
            res.modeled_time_s, rel=1e-12, abs=0.0
        )

    def test_profiling_changes_nothing(self, adjacency):
        fmt = CSRFormat.from_csr(google_matrix(adjacency))
        bare = pagerank(fmt, GTX_TITAN)
        profiled = pagerank(fmt, GTX_TITAN, profiler=Profiler("pr"))
        assert np.array_equal(bare.vector, profiled.vector)
        assert bare.iterations == profiled.iterations
        assert bare.modeled_time_s == profiled.modeled_time_s

    def test_acsr_backend_reports_dp(self, adjacency):
        fmt = ACSRFormat.from_csr(google_matrix(adjacency), device=GTX_TITAN)
        prof = Profiler("pr")
        res = pagerank(fmt, GTX_TITAN, profiler=prof)
        total = prof.total()
        assert total.time_s == pytest.approx(res.modeled_time_s, rel=1e-12)
        spmv = [cs for cs in prof.all_records() if cs.name == "spmv"]
        assert spmv and all(cs.dp_children == spmv[0].dp_children for cs in spmv)


class TestHitsRwrProfiling:
    def test_hits_span(self, adjacency):
        fmt = CSRFormat.from_csr(stacked_matrix(adjacency))
        prof = Profiler("h")
        res = hits(fmt, GTX_TITAN, profiler=prof, max_iterations=5)
        assert "hits" in _span_names(prof)
        assert prof.total().time_s == pytest.approx(
            res.modeled_time_s, rel=1e-12
        )

    def test_rwr_span(self, adjacency):
        fmt = CSRFormat.from_csr(column_normalized(adjacency))
        prof = Profiler("r")
        res = rwr(fmt, GTX_TITAN, seed_node=3, profiler=prof)
        assert "rwr" in _span_names(prof)
        assert prof.total().time_s == pytest.approx(
            res.modeled_time_s, rel=1e-12
        )

    def test_batch_spans_carry_k_active(self, adjacency):
        fmt = CSRFormat.from_csr(column_normalized(adjacency))
        prof = Profiler("batch")
        res = run_rwr_batch(fmt, GTX_TITAN, [0, 1, 2, 5], profiler=prof)
        iters = [s for _, s in prof.root.walk() if s.name == "iteration"]
        assert len(iters) == res.max_iterations_run
        assert iters[0].attrs["k_active"] == 4
        assert iters[-1].attrs["k_active"] >= 1
        # Wide rounds record SpMM-labelled counters.
        labels = {cs.name for cs in prof.all_records()}
        assert "spmm[k=4]" in labels
        assert prof.total().time_s == pytest.approx(
            res.modeled_time_s, rel=1e-12
        )


class TestPipelineProfiling:
    def test_epoch_spans_match_records(self, adjacency):
        from repro.dynamic.pipeline import run_dynamic_pagerank

        prof = Profiler("dyn")
        res = run_dynamic_pagerank(
            adjacency,
            GTX_TITAN,
            n_epochs=3,
            backends=("acsr", "csr"),
            profiler=prof,
        )
        epochs = [s for _, s in prof.root.walk() if s.name == "epoch"]
        assert len(epochs) == 6  # 2 backends x 3 epochs
        for span in epochs:
            record = res[span.attrs["backend"]].epochs[span.attrs["epoch"]]
            assert span.total_time_s == pytest.approx(
                record.total_s, rel=1e-12
            )
            assert span.attrs["iterations"] == record.iterations
