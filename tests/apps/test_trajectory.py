"""One trajectory, many bills: the numerics/billing split of the power method."""

import json

import numpy as np
import pytest

from repro.apps import (
    batch_round_widths,
    bill_trajectory,
    column_normalized,
    cost_of_width,
    google_matrix,
    hits,
    hits_trajectory,
    pagerank,
    pagerank_trajectory,
    run_rwr_batch,
    run_trajectory,
    rwr,
    rwr_trajectory,
    stacked_matrix,
    vector_ops_work,
)
from repro.formats.base import SpMVFormat
from repro.formats.convert import FORMAT_BUILDERS, build_format
from repro.gpu.device import GTX_TITAN
from repro.gpu.simulator import simulate_kernel
from repro.obs.profiler import Profiler

from ..conftest import make_powerlaw_csr

BACKENDS = ("csr", "hyb", "acsr")


@pytest.fixture(scope="module")
def adjacency():
    return make_powerlaw_csr(n_rows=600, seed=29, max_degree=90).binarized()


def profile_lines(profiler, tmp_path, name):
    path = profiler.to_jsonl(tmp_path / f"{name}.jsonl")
    return path.read_text().splitlines()


class TestDelegationGuard:
    """Sharing a trajectory across backends is sound only while every
    format multiplies through its source CSR."""

    @pytest.mark.parametrize("name", sorted(FORMAT_BUILDERS))
    def test_format_multiplies_through_its_csr(self, name):
        csr = make_powerlaw_csr(n_rows=300, seed=41, max_degree=60)
        fmt = build_format(name, csr)
        for method in ("multiply", "multiply_many"):
            assert getattr(type(fmt), method) is getattr(SpMVFormat, method)
        rng = np.random.default_rng(3)
        for k in (1, 3):
            X = rng.standard_normal((csr.n_cols, k)).astype(np.float32)
            assert (
                fmt.multiply_many(X).tobytes() == fmt.csr.matmat(X).tobytes()
            )


class TestSharedTrajectory:
    @pytest.mark.parametrize(
        "app, prepare, trajectory, attrs",
        [
            ("pagerank", google_matrix, pagerank_trajectory, {}),
            ("hits", stacked_matrix, hits_trajectory, {}),
            (
                "rwr",
                column_normalized,
                lambda f: rwr_trajectory(f, [5]),
                {"seed": 5},
            ),
        ],
    )
    def test_one_trajectory_bills_every_backend_as_its_own_run(
        self, adjacency, tmp_path, app, prepare, trajectory, attrs
    ):
        own_runs = {
            "pagerank": lambda f, p: pagerank(f, GTX_TITAN, profiler=p),
            "hits": lambda f, p: hits(f, GTX_TITAN, profiler=p),
            "rwr": lambda f, p: rwr(f, GTX_TITAN, 5, profiler=p),
        }
        matrix = prepare(adjacency)
        # Run on CSR, billed for every backend (ACSR and HYB included).
        traj = trajectory(build_format("csr", matrix))
        for backend in BACKENDS:
            own_prof, shared_prof = Profiler(app), Profiler(app)
            own = own_runs[app](build_format(backend, matrix), own_prof)
            fmt = build_format(backend, matrix)
            with shared_prof.span(
                app, format=fmt.name, device=GTX_TITAN.name, **attrs
            ):
                shared = bill_trajectory(
                    traj, fmt, GTX_TITAN, shared_prof
                ).single()
            assert shared.iterations == own.iterations
            assert shared.converged == own.converged
            assert shared.vector.tobytes() == own.vector.tobytes()
            assert repr(shared.modeled_time_s) == repr(own.modeled_time_s)
            vec = vector_ops_work(
                fmt.n_rows, traj.vector_passes, fmt.precision
            )
            assert repr(shared.modeled_time_s) == repr(
                shared.iterations
                * (
                    fmt.spmv_time_s(GTX_TITAN)
                    + simulate_kernel(GTX_TITAN, vec).time_s
                )
            )
            assert profile_lines(shared_prof, tmp_path, "s") == profile_lines(
                own_prof, tmp_path, "o"
            )

    def test_batch_driver_is_trajectory_then_bill(self, adjacency):
        fmt = build_format("hyb", column_normalized(adjacency))
        batch = run_rwr_batch(fmt, GTX_TITAN, [0, 7, 300], epsilon=1e-9)
        traj = rwr_trajectory(fmt, [0, 7, 300], epsilon=1e-9)
        billed = bill_trajectory(traj, fmt, GTX_TITAN)
        widths = batch_round_widths(traj.iterations)
        assert widths[0] == 3 and widths[-1] == 1
        assert billed.vectors.tobytes() == batch.vectors.tobytes()
        assert billed.iterations.tolist() == batch.iterations.tolist()
        assert billed.modeled_time_s == batch.modeled_time_s
        assert billed.column_times_s.tolist() == batch.column_times_s.tolist()

    def test_bill_prices_each_width_once_with_the_shared_cost(
        self, adjacency, monkeypatch
    ):
        fmt = build_format("acsr", column_normalized(adjacency))
        traj = rwr_trajectory(fmt, [1, 2, 3, 4], epsilon=1e-9)
        cost = cost_of_width(fmt, GTX_TITAN, traj.vector_passes)
        all_widths = batch_round_widths(traj.iterations)
        widths = list(dict.fromkeys(all_widths))
        priced = []
        inner = type(fmt).spmm_time_s

        def spy(self, device, k=1):
            priced.append(k)
            return inner(self, device, k=k)

        monkeypatch.setattr(type(fmt), "spmm_time_s", spy)
        billed = bill_trajectory(traj, fmt, GTX_TITAN)
        assert priced == widths
        total = sum(all_widths.count(w) * cost(w) for w in widths)
        assert billed.modeled_time_s == total

    def test_cost_of_width_is_spmm_plus_vector_kernel(self, adjacency):
        fmt = build_format("csr", google_matrix(adjacency))
        cost = cost_of_width(fmt, GTX_TITAN, 6)
        for w in (1, 4):
            vec = vector_ops_work(fmt.n_rows * w, 6, fmt.precision)
            assert cost(w) == (
                fmt.spmm_time_s(GTX_TITAN, k=w)
                + simulate_kernel(GTX_TITAN, vec).time_s
            )

    def test_trajectory_runs_no_cost_model(self, adjacency, monkeypatch):
        fmt = build_format("acsr", google_matrix(adjacency))

        def never(*args, **kwargs):
            raise AssertionError("a trajectory priced a round")

        monkeypatch.setattr(type(fmt), "spmm_time_s", never)
        traj = pagerank_trajectory(fmt)
        assert traj.iterations[0] > 1
        assert traj.vector_passes == 5


class TestFortranBlocks:
    """The driver hands ``multiply_many`` column-major blocks at k > 1,
    so ``matmat`` gathers each column contiguously."""

    def test_every_wide_block_is_f_contiguous(self, adjacency, monkeypatch):
        fmt = build_format("csr", column_normalized(adjacency))
        seen = []
        inner = SpMVFormat.multiply_many

        def spy(self, X):
            seen.append((X.shape[1], X.flags.f_contiguous))
            return inner(self, X)

        monkeypatch.setattr(SpMVFormat, "multiply_many", spy)
        run_rwr_batch(fmt, GTX_TITAN, [0, 3, 9, 27, 81], epsilon=1e-9)
        # A step that answers C-ordered: the driver lays it out again.
        run_trajectory(
            fmt,
            np.ones((fmt.n_rows, 4)),
            lambda X, AX, cols: np.ascontiguousarray(
                0.5 * AX.astype(np.float64) + cols / 10.0
            ),
            epsilon=1e-7,
        )
        wide = [f for k, f in seen if k > 1]
        assert len({k for k, _ in seen if k > 1}) > 1  # the set shrank
        assert wide and all(wide)

    def test_matmat_returns_fortran_order_with_unchanged_values(self):
        csr = make_powerlaw_csr(n_rows=400, seed=5)
        X = np.random.default_rng(1).standard_normal((400, 6))
        Y = csr.matmat(X)
        assert Y.flags.f_contiguous
        for j in range(6):
            assert Y[:, j].tobytes() == csr.matvec(X[:, j].copy()).tobytes()
        assert csr.matmat(np.asfortranarray(X)).tobytes() == Y.tobytes()


def test_k1_profiles_match_the_batch_driver(adjacency, tmp_path):
    """``pagerank`` is the trajectory + bill at k = 1, spans included."""
    fmt = build_format("acsr", google_matrix(adjacency))
    n = fmt.n_rows
    a, b = Profiler("pr"), Profiler("pr")
    pagerank(fmt, GTX_TITAN, profiler=a)
    teleport = np.full((n, 1), 0.15 / n)
    with b.span("pagerank", format=fmt.name, device=GTX_TITAN.name):
        traj = run_trajectory(
            fmt,
            np.full((n, 1), 1.0 / n),
            lambda X, AX, cols: teleport + 0.85 * AX.astype(np.float64),
        )
        bill_trajectory(traj, fmt, GTX_TITAN, profiler=b)
    la, lb = profile_lines(a, tmp_path, "a"), profile_lines(b, tmp_path, "b")
    assert la == lb
    records = [json.loads(line) for line in la]
    assert sum(r.get("name") == "iteration" for r in records) > 1
