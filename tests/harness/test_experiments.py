"""Every experiment module runs end-to-end on a small subset and keeps
its structural invariants.  Shape targets against the paper's numbers
live in benchmarks/; here we check the machinery."""

import numpy as np
import pytest

from repro.formats.base import SpMVFormat
from repro.gpu.device import GTX_580, GTX_TITAN, Precision
from repro.harness.experiments import (
    ablations,
    fig3_histogram,
    fig4_preprocessing,
    fig5_gflops,
    fig6_apps,
    fig7_dynamic,
    fig8_multigpu,
    table1_corpus,
    table2_devices,
    table3_single_spmv,
    table4_breakeven,
    table5_grids,
)

#: Small fast subset (INT/ENR are full-scale, tiny real sizes).
SUBSET = ("INT", "ENR")


class TestStaticTables:
    def test_table1(self):
        res = table1_corpus.run(matrices=SUBSET)
        assert len(res.rows) == 2
        assert all(r["analog_nnz"] > 0 for r in res.rows)
        assert "Table I" in res.render()

    def test_table2(self):
        res = table2_devices.run()
        assert {r["device"] for r in res.rows} == {
            "GTX580",
            "TeslaK10",
            "GTXTitan",
        }
        assert "Table II" in res.render()

    def test_fig3(self):
        res = fig3_histogram.run(matrices=SUBSET)
        for r in res.rows:
            assert r["head_fraction_le8"] > 0.5  # heavy head
            assert r["tail_over_mean"] > 10  # long tail
        assert "Figure 3" in res.render()


class TestPreprocessingFamily:
    def test_fig4_ordering(self):
        res = fig4_preprocessing.run(matrices=SUBSET)
        s = res.summary
        # the paper's log-scale ordering
        assert s["bccoo"] > s["tcoo"] > s["brc"] > s["hyb"] > s["acsr"]
        assert "Figure 4" in res.render()

    def test_table3_speedups_large(self):
        res = table3_single_spmv.run(matrices=SUBSET)
        for r in res.rows:
            for fmt in ("bccoo", "brc", "tcoo", "hyb"):
                if r[fmt] is not None:
                    assert r[fmt] > 1.0  # ACSR wins a single SpMV
        assert "Table III" in res.render()

    def test_table4_states(self):
        res = table4_breakeven.run(matrices=SUBSET)
        for r in res.rows:
            assert r["acsr_st_ms"] > 0
            n = r["bccoo_n"]
            assert n is None or n == float("inf") or n >= 0
        assert "Table IV" in res.render()


class TestPerformanceFamily:
    def test_fig5_panel(self):
        res = fig5_gflops.run(matrices=SUBSET, device=GTX_TITAN)
        assert res.summary["avg_acsr_over_csr"] > 1.0
        for r in res.rows:
            assert r["acsr"] is None or r["acsr"] > 0
        assert "Figure 5" in res.render()

    def test_fig5_binning_only_device(self):
        res = fig5_gflops.run(matrices=SUBSET, device=GTX_580)
        assert res.summary["avg_acsr_over_csr"] > 0.8

    def test_fig5_double_precision_slower(self):
        sp = fig5_gflops.run(matrices=SUBSET, precision=Precision.SINGLE)
        dp = fig5_gflops.run(matrices=SUBSET, precision=Precision.DOUBLE)
        for r_sp, r_dp in zip(sp.rows, dp.rows):
            assert r_dp["acsr"] < r_sp["acsr"]

    def test_table5_counts(self):
        res = table5_grids.run(matrices=SUBSET)
        for r in res.rows:
            assert 1 <= r["BS"] <= 30
            assert 0 <= r["RS"] <= 2048


class TestAppFamily:
    # App comparisons need matrices big enough that per-iteration kernel
    # time dominates launch overheads; ENR/DBL are the smallest such.
    APP_SUBSET = ("ENR", "DBL")

    def test_fig6_pagerank(self):
        res = fig6_apps.run("pagerank", matrices=self.APP_SUBSET)
        assert res.summary["avg_vs_csr"] > 1.0
        for r in res.rows:
            assert r["iterations"] > 1
        assert "pagerank" in res.render()

    @pytest.mark.parametrize("app", fig6_apps.APPS)
    def test_fig6_runs_one_trajectory_per_matrix(self, app, monkeypatch):
        """CSR, HYB and ACSR bill one shared run: each round multiplies
        once, whatever the backend count."""
        calls = []
        inner = SpMVFormat.multiply_many

        def counted(self, X):
            calls.append(X.shape[1])
            return inner(self, X)

        monkeypatch.setattr(SpMVFormat, "multiply_many", counted)
        res = fig6_apps.run(app, matrices=SUBSET)
        assert len(calls) == sum(r["iterations"] for r in res.rows)

    def test_fig6_rejects_unknown_app(self):
        with pytest.raises(ValueError):
            fig6_apps.run("betweenness", matrices=SUBSET)

    def test_fig7_detail_and_average(self):
        detail = fig7_dynamic.run_detail(matrix="INT", n_epochs=3)
        assert len(detail.rows) == 3
        avg = fig7_dynamic.run_average(matrices=("INT",), n_epochs=3)
        assert avg.rows[0]["vs_hyb"] > 0
        assert "Figure 7" in detail.render()

    def test_fig8(self):
        res = fig8_multigpu.run(matrices=SUBSET)
        for r in res.rows:
            assert r["scaling"] > 0.3
        # tiny matrices should not scale well — the paper's observation
        assert res.summary["avg_scaling"] < 1.7


class TestAblations:
    def test_dp_ablation(self):
        res = ablations.run_dp_ablation(matrices=("ENR",))
        row = res.rows[0]
        assert row["dp_us"] > 0 and row["binning_only_us"] > 0
        assert "dynamic parallelism" in res.render()

    def test_thread_load_sweep(self):
        res = ablations.run_thread_load_sweep(matrix="ENR", loads=(8, 32))
        assert len(res.rows) == 2

    def test_bin_max_sweep(self):
        res = ablations.run_bin_max_sweep(matrix="ENR")
        assert len(res.rows) >= 3
