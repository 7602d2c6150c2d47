"""Batched power-method drivers: per-column identity and amortisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    DEFAULT_EPSILON,
    DEFAULT_VECTOR_PASSES,
    bill_trajectory,
    column_normalized,
    run_rwr_batch,
    run_trajectory,
    rwr,
    vector_ops_work,
)
from repro.apps.power_method import batch_round_widths, make_batch_bill
from repro.formats import CSRFormat
from repro.gpu.device import GTX_TITAN
from repro.gpu.simulator import simulate_kernel

from ..conftest import make_powerlaw_csr


@pytest.fixture(scope="module")
def walk_fmt():
    adj = make_powerlaw_csr(n_rows=500, seed=19, max_degree=60)
    return CSRFormat.from_csr(column_normalized(adj.binarized()))


class TestRwrBatch:
    def test_columns_match_single_queries(self, walk_fmt):
        queries = [0, 40, 123, 499]
        batch = run_rwr_batch(walk_fmt, GTX_TITAN, queries)
        assert batch.k == len(queries)
        for j, q in enumerate(queries):
            single = rwr(walk_fmt, GTX_TITAN, q)
            assert np.array_equal(batch.vectors[:, j], single.vector)
            assert batch.iterations[j] == single.iterations
            assert bool(batch.converged[j]) == single.converged

    def test_k1_time_identical_to_single(self, walk_fmt):
        single = rwr(walk_fmt, GTX_TITAN, 7)
        batch = run_rwr_batch(walk_fmt, GTX_TITAN, [7])
        assert batch.modeled_time_s == single.modeled_time_s
        assert batch.max_iterations_run == single.iterations

    def test_batch_cheaper_than_sequential(self, walk_fmt):
        queries = list(range(0, 80, 10))
        batch = run_rwr_batch(walk_fmt, GTX_TITAN, queries)
        sequential = sum(
            rwr(walk_fmt, GTX_TITAN, q).modeled_time_s for q in queries
        )
        assert batch.modeled_time_s < sequential

    def test_validation(self, walk_fmt):
        with pytest.raises(ValueError):
            run_rwr_batch(walk_fmt, GTX_TITAN, [])
        with pytest.raises(ValueError):
            run_rwr_batch(walk_fmt, GTX_TITAN, [walk_fmt.n_rows])
        with pytest.raises(ValueError):
            run_rwr_batch(walk_fmt, GTX_TITAN, [0], restart=1.5)


class TestPowerMethodBatch:
    def test_k1_equals_plain_loop(self, walk_fmt):
        # The loop at k = 1 is the textbook single-vector power method:
        # one SpMV, the step, a 1-D norm — billed ``iterations`` times
        # one SpMV plus one vector kernel.
        n = walk_fmt.n_rows
        dtype = walk_fmt.precision.numpy_dtype
        x0 = np.full(n, 1.0 / n)

        def stepk(X, AX, _cols):
            return 0.9 * AX.astype(np.float64) + 0.1 / n

        x, its = x0.astype(dtype), 0
        while its < 1000:
            nxt = (0.9 * walk_fmt.multiply(x).astype(np.float64) + 0.1 / n)
            nxt = nxt.astype(dtype)
            its += 1
            dist = np.linalg.norm(
                nxt.astype(np.float64) - x.astype(np.float64)
            )
            x = nxt
            if dist <= DEFAULT_EPSILON:
                break
        vec_s = simulate_kernel(
            GTX_TITAN,
            vector_ops_work(n, DEFAULT_VECTOR_PASSES, walk_fmt.precision),
        ).time_s
        batch = bill_trajectory(
            run_trajectory(walk_fmt, x0[:, None], stepk), walk_fmt, GTX_TITAN
        )
        assert np.array_equal(batch.vectors[:, 0], x)
        assert batch.iterations[0] == its
        assert batch.converged[0]
        assert batch.modeled_time_s == its * (
            walk_fmt.spmv_time_s(GTX_TITAN) + vec_s
        )

    def test_shrinking_active_set(self, walk_fmt):
        # A fast-converging column next to slow ones: the fast one must
        # freeze early (fewer iterations) without disturbing the rest.
        queries = [3, 17, 291]
        batch = run_rwr_batch(walk_fmt, GTX_TITAN, queries, epsilon=1e-10)
        assert batch.converged.all()
        assert batch.iterations.min() >= 1
        assert batch.max_iterations_run == batch.iterations.max()

    def test_x0_shape_validated(self, walk_fmt):
        with pytest.raises(ValueError):
            run_trajectory(
                walk_fmt, np.ones(walk_fmt.n_cols), lambda X, AX, c: AX
            )


class TestBatchBill:
    def test_round_widths_reconstruct_the_shrinking_schedule(self):
        # Columns running 3, 1, 2 rounds: round 1 sees all three,
        # round 2 the two survivors, round 3 the last one.
        assert batch_round_widths([3, 1, 2]) == (3, 2, 1)
        assert batch_round_widths([2, 2]) == (2, 2)
        assert batch_round_widths([1]) == (1,)

    def test_round_widths_validation(self):
        with pytest.raises(ValueError):
            batch_round_widths([])
        with pytest.raises(ValueError):
            batch_round_widths([2, 0])

    def test_k1_total_is_count_times_cost_bitwise(self):
        cost = 3.7e-5  # no clean binary representation, on purpose
        bill = make_batch_bill([13], lambda w: cost)
        assert bill.total_s == 13 * cost

    def test_column_times_match_time_through_round(self):
        its = [4, 1, 3, 4]
        bill = make_batch_bill(its, lambda w: w * 1.1e-5)
        times = bill.column_times_s(its)
        for j, r in enumerate(its):
            assert times[j] == bill.time_through_round(r)
        # The slowest column's completion IS the batch total, exactly.
        assert times.max() == bill.total_s
        assert bill.time_through_round(0) == 0.0

    def test_round_range_checked(self):
        bill = make_batch_bill([2], lambda w: 1e-6)
        with pytest.raises(ValueError):
            bill.time_through_round(3)

    def test_cost_consulted_once_per_distinct_width(self):
        seen = []

        def cost(w):
            seen.append(w)
            return float(w)

        # [3, 3, 1] -> widths (3, 2, 2): each distinct width priced once,
        # in order of first appearance.
        make_batch_bill([3, 3, 1], cost)
        assert seen == [3, 2]

    def test_driver_column_times_end_at_its_total(self, walk_fmt):
        batch = run_rwr_batch(walk_fmt, GTX_TITAN, [0, 40, 123, 499])
        assert batch.column_times_s is not None
        assert float(batch.column_times_s.max()) == batch.modeled_time_s
        widths = batch_round_widths(batch.iterations)
        assert len(widths) == batch.max_iterations_run
        assert widths[0] == batch.k
