"""The Figure 7 epoch loop."""

import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import repro
from repro.apps.pagerank import google_matrix
from repro.dynamic import pipeline
from repro.dynamic.pipeline import epoch_speedups, run_dynamic_pagerank
from repro.formats.base import SpMVFormat
from repro.gpu.device import GTX_TITAN
from repro.gpu.transfer import DEFAULT_LINK

from ..conftest import make_powerlaw_csr


@pytest.fixture(scope="module")
def large_adjacency():
    # Large enough that per-iteration kernel time dominates the fixed
    # launch overheads (the regime the paper's Figure 7 operates in).
    return make_powerlaw_csr(n_rows=30_000, seed=71, max_degree=1200).binarized()


@pytest.fixture(scope="module")
def results(large_adjacency):
    return run_dynamic_pagerank(large_adjacency, GTX_TITAN, n_epochs=4, seed=5)


class TestStructure:
    def test_all_backends_present(self, results):
        assert set(results) == {"acsr", "csr", "hyb"}

    def test_epoch_counts_align(self, results):
        lengths = {len(r.epochs) for r in results.values()}
        assert lengths == {4}

    def test_iteration_counts_identical_across_backends(self, results):
        """Same graph states + same warm starts => same iteration counts."""
        per_epoch = [
            {b: results[b].epochs[e].iterations for b in results}
            for e in range(4)
        ]
        for counts in per_epoch:
            assert len(set(counts.values())) == 1, counts

    def test_warm_restart_reduces_iterations(self, results):
        """Warm starts shrink the iteration count as the rank vector
        stabilises across epochs (a single 10% update can perturb enough
        that the very next epoch is no cheaper, so compare the ends)."""
        acsr = results["acsr"].epochs
        assert acsr[-1].iterations < acsr[0].iterations

    def test_totals(self, results):
        for res in results.values():
            assert res.total_s == pytest.approx(
                sum(e.total_s for e in res.epochs)
            )
            assert res.cumulative_s()[-1] == pytest.approx(res.total_s)


class TestCosts:
    def test_acsr_first_epoch_pays_full_copy(self, results):
        acsr = results["acsr"].epochs
        assert acsr[0].maintenance_s > acsr[1].maintenance_s

    def test_csr_pays_copy_every_epoch(self, results):
        csr = results["csr"].epochs
        for rec in csr:
            assert rec.maintenance_s > 0

    def test_hyb_pays_most_maintenance(self, results):
        """HYB re-transforms AND re-copies each epoch."""
        for e in range(1, 4):
            assert (
                results["hyb"].epochs[e].maintenance_s
                > results["csr"].epochs[e].maintenance_s
            )
            assert (
                results["hyb"].epochs[e].maintenance_s
                > results["acsr"].epochs[e].maintenance_s
            )


class TestSpeedups:
    def test_acsr_wins_after_first_epoch(self, results):
        vs_csr = epoch_speedups(results, "csr")
        vs_hyb = epoch_speedups(results, "hyb")
        assert np.all(vs_csr[1:] > 1.0)
        assert np.all(vs_hyb[1:] > 1.0)

    def test_later_epochs_speed_up_more_than_first(self, results):
        """Figure 7's trend: the full-copy amortisation shows up after
        epoch 0."""
        vs_csr = epoch_speedups(results, "csr")
        assert vs_csr[1:].mean() > vs_csr[0]

    def test_unknown_backend_rejected(self, results):
        with pytest.raises(KeyError):
            epoch_speedups(results, "ellpack")

    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            run_dynamic_pagerank(
                make_powerlaw_csr(n_rows=100, seed=1).binarized(),
                GTX_TITAN,
                n_epochs=0,
            )


class TestOverlap:
    """Stream-engine overlap of the change-list copy (Section VII)."""

    def test_first_epoch_unchanged(self, large_adjacency, results):
        """Epoch 0's full copy has no previous iteration to hide under."""
        matrix = google_matrix(large_adjacency)
        assert results["acsr"].epochs[0].maintenance_s == (
            DEFAULT_LINK.transfer_time_s(matrix.device_bytes(), n_transfers=3)
        )

    def test_maintenance_never_negative(self, results):
        for rec in results["acsr"].epochs:
            assert rec.maintenance_s > 0


class TestEpochMajor:
    """Epochs run in order, every backend stepping on one shared matrix."""

    @pytest.fixture(scope="class")
    def adjacency(self):
        return make_powerlaw_csr(n_rows=3_000, seed=13, max_degree=300).binarized()

    @pytest.mark.parametrize("reverse", [True, False])
    def test_backend_records_independent_of_company(self, adjacency, reverse):
        """A backend's records do not depend on which backends run beside
        it, nor on which one goes first (and so computes the shared
        trajectory)."""
        order = pipeline.BACKENDS[::-1] if reverse else pipeline.BACKENDS
        kw = dict(n_epochs=3, seed=9)
        together = run_dynamic_pagerank(
            adjacency, GTX_TITAN, backends=order, **kw
        )
        assert list(together) == list(order)
        for backend in together:
            alone = run_dynamic_pagerank(
                adjacency, GTX_TITAN, backends=(backend,), **kw
            )
            assert alone[backend].epochs == together[backend].epochs

    def test_only_the_current_matrix_is_alive(self, adjacency, monkeypatch):
        """Each epoch's iteration matrix is unreachable once the next one
        is built; after the run, at most the last one remains."""
        refs = []

        def tracked(snapshot):
            gc.collect()
            assert all(ref() is None for ref in refs), [
                ref() is None for ref in refs
            ]
            matrix = google_matrix(snapshot)
            refs.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(pipeline, "google_matrix", tracked)
        run_dynamic_pagerank(adjacency, GTX_TITAN, n_epochs=4, seed=9)
        gc.collect()
        assert len(refs) == 4
        assert all(ref() is None for ref in refs[:-1])

    def test_one_trajectory_per_epoch(self, adjacency, monkeypatch):
        """The backends' iterates are identical, so each epoch multiplies
        once per round, not once per round per backend."""
        calls = []
        inner = SpMVFormat.multiply_many

        def counted(self, X):
            calls.append(type(self).__name__)
            return inner(self, X)

        monkeypatch.setattr(SpMVFormat, "multiply_many", counted)
        results = run_dynamic_pagerank(adjacency, GTX_TITAN, n_epochs=3, seed=9)
        rounds = [rec.iterations for rec in results["acsr"].epochs]
        for run in results.values():
            assert [rec.iterations for rec in run.epochs] == rounds
        assert len(calls) == sum(rounds)

    def test_unknown_backend_rejected_before_any_work(self, adjacency, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("iterated before validating backends")

        monkeypatch.setattr(pipeline, "pagerank_trajectory", never)
        with pytest.raises(ValueError, match="bogus"):
            run_dynamic_pagerank(
                adjacency, GTX_TITAN, n_epochs=2, backends=("acsr", "bogus")
            )


def test_epoch_loop_leaves_numpy_ma_unloaded():
    """Update generation and re-binning dedupe by sort-and-compare, so a
    run never loads ``numpy.ma`` (which ``np.unique`` imports on NumPy 2,
    also from inside ``np.isin``)."""
    code = (
        "import sys\n"
        "import numpy\n"
        "print('numpy.ma' in sys.modules)\n"
        "from repro.data import corpus_matrix\n"
        "from repro.dynamic.pipeline import run_dynamic_pagerank\n"
        "from repro.gpu import GTX_TITAN\n"
        "adjacency = corpus_matrix('WIK', scale=0.01).binarized()\n"
        "run_dynamic_pagerank(adjacency, GTX_TITAN, n_epochs=3, seed=1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    at_import, after_run = proc.stdout.split()
    if at_import == "True":
        pytest.skip("this NumPy loads numpy.ma at import")
    assert after_run == "False"
