"""DynamicACSR: the evolving-graph facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import compute_binning
from repro.dynamic import pipeline
from repro.dynamic.dynamic_acsr import DynamicACSR, price_update
from repro.dynamic.rebin import IncrementalBinning
from repro.dynamic.updates import apply_update_to_csr, generate_update
from repro.gpu.device import GTX_580, GTX_TITAN
from repro.gpu.simulator import simulate_kernel
from repro.kernels import update_kernel

from ..conftest import (
    assert_spmv_close,
    make_powerlaw_csr,
    reference_matvec,
)
from repro.gpu.device import Precision


@pytest.fixture()
def dacsr():
    return DynamicACSR.from_csr(
        make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
    )


class TestLifecycle:
    def test_initial_spmv_matches_reference(self, dacsr, rng):
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        x = rng.standard_normal(src.n_cols).astype(np.float32)
        res = dacsr.run_spmv(x, GTX_TITAN)
        assert_spmv_close(res.y, reference_matvec(src, x), Precision.SINGLE)

    def test_update_then_spmv_tracks_evolution(self, dacsr, rng):
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        gen = np.random.default_rng(9)
        evolved = src
        for _ in range(3):
            batch = generate_update(evolved, gen)
            evolved = apply_update_to_csr(evolved, batch)
            cost = dacsr.apply_update(batch, GTX_TITAN)
            assert cost.total_s > 0
        x = rng.standard_normal(src.n_cols).astype(np.float32)
        res = dacsr.run_spmv(x, GTX_TITAN)
        assert_spmv_close(
            res.y, reference_matvec(evolved, x), Precision.SINGLE
        )

    def test_binning_stays_consistent(self, dacsr):
        gen = np.random.default_rng(5)
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        batch = generate_update(src, gen)
        dacsr.apply_update(batch, GTX_TITAN)
        snap = dacsr.binning()
        rebuilt = compute_binning(dacsr.dyn.row_len)
        np.testing.assert_array_equal(snap.bin_of, rebuilt.bin_of)
        assert snap.bin_ids == rebuilt.bin_ids

    def test_plan_cache_invalidated_by_update(self, dacsr):
        before = dacsr.plan_for(GTX_TITAN)
        gen = np.random.default_rng(6)
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        dacsr.apply_update(generate_update(src, gen), GTX_TITAN)
        after = dacsr.plan_for(GTX_TITAN)
        assert before is not after


class TestCosts:
    def test_update_bill_breakdown(self, dacsr):
        gen = np.random.default_rng(7)
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        cost = dacsr.apply_update(generate_update(src, gen), GTX_TITAN)
        assert cost.transfer_s > 0
        assert cost.update_kernel_s > 0
        assert cost.rebin_s > 0
        assert cost.n_updated_rows == 250
        assert 0 <= cost.n_migrated_rows <= cost.n_updated_rows
        assert cost.total_s == pytest.approx(
            cost.transfer_s + cost.update_kernel_s + cost.rebin_s
        )

    def test_update_kernel_priced_on_pre_update_lengths(self, dacsr):
        # The kernel's merge scan runs over each row as it was before the
        # change list is applied.
        gen = np.random.default_rng(7)
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        batch = generate_update(src, gen)
        pre_lengths = dacsr.dyn.row_len[batch.rows].copy()
        cost = dacsr.apply_update(batch, GTX_TITAN)
        assert not np.array_equal(pre_lengths, dacsr.dyn.row_len[batch.rows])
        work = update_kernel.work(
            pre_lengths,
            batch.deletes_per_row(),
            batch.inserts_per_row(),
            dacsr.dyn.precision,
            GTX_TITAN,
        )
        assert cost.update_kernel_s == simulate_kernel(GTX_TITAN, work).time_s

    def test_update_cheaper_than_full_copy(self, dacsr):
        gen = np.random.default_rng(8)
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        cost = dacsr.apply_update(generate_update(src, gen), GTX_TITAN)
        assert cost.total_s < dacsr.initial_copy_cost_s()

    def test_update_far_cheaper_at_scale(self):
        """The Section VII argument in one assertion: at realistic sizes
        (where PCIe latency floors stop dominating), shipping a change
        list costs a small fraction of re-copying the matrix."""
        src = make_powerlaw_csr(n_rows=60_000, seed=307, max_degree=2000)
        dacsr = DynamicACSR.from_csr(src)
        gen = np.random.default_rng(11)
        cost = dacsr.apply_update(generate_update(src, gen), GTX_TITAN)
        assert cost.total_s < 0.25 * dacsr.initial_copy_cost_s()

    def test_works_on_binning_only_devices(self, dacsr, rng):
        x = rng.standard_normal(dacsr.n_cols).astype(np.float32)
        res = dacsr.run_spmv(x, GTX_580)
        assert res.time_s > 0
        assert dacsr.plan_for(GTX_580).n_row_grids == 0

    def test_x_validated(self, dacsr):
        with pytest.raises(ValueError):
            dacsr.run_spmv(np.ones(3, dtype=np.float32), GTX_TITAN)


class TestOneUpdateBill:
    """The Figure 7 pipeline and the facade price a change list through
    the one :func:`price_update`."""

    def test_pipeline_and_facade_bill_the_same_batch_equally(self):
        """The pipeline's epoch-1 maintenance is ``price_update``'s bill
        with the copy under epoch 0's iterations; the facade bills the
        same batch's parts back to back."""
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        batch = generate_update(src, np.random.default_rng(12))
        post = apply_update_to_csr(src, batch)
        dacsr = DynamicACSR.from_csr(src)
        state = pipeline._BackendState("acsr")
        fmt, maintenance = pipeline._maintain(state, 0, src, None, GTX_TITAN)
        previous = pipeline.EpochRecord(
            epoch=0,
            iterations=20,
            maintenance_s=maintenance,
            iterate_s=20 * fmt.spmv_time_s(GTX_TITAN),
        )
        state.records.append(previous)
        _, maintenance = pipeline._maintain(state, 1, post, batch, GTX_TITAN)
        overlapped = price_update(
            batch,
            src.nnz_per_row[batch.rows],
            post.nnz_per_row[batch.rows],
            IncrementalBinning.from_lengths(src.nnz_per_row),
            src.precision,
            GTX_TITAN,
            overlap_s=previous.iterate_s,
        )
        assert maintenance == overlapped.total_s
        cost = dacsr.apply_update(batch, GTX_TITAN)
        for part in (
            "transfer_s",
            "update_kernel_s",
            "rebin_s",
            "n_updated_rows",
            "n_migrated_rows",
        ):
            assert getattr(cost, part) == getattr(overlapped, part), part
        assert cost.total_s == (
            cost.transfer_s + cost.update_kernel_s + cost.rebin_s
        )
        assert overlapped.total_s < cost.total_s

    def test_overlap_launches_the_same_kernels_under_the_copy(self):
        src = make_powerlaw_csr(n_rows=2500, seed=301, max_degree=700)
        batch = generate_update(src, np.random.default_rng(13))
        post = apply_update_to_csr(src, batch).nnz_per_row[batch.rows]
        pre = src.nnz_per_row[batch.rows]

        def bill(overlap_s):
            return price_update(
                batch,
                pre,
                post,
                IncrementalBinning.from_lengths(src.nnz_per_row),
                src.precision,
                GTX_TITAN,
                overlap_s=overlap_s,
            )

        serial, hidden = bill(None), bill(1e-3)
        assert hidden.update_kernel_s == serial.update_kernel_s
        assert hidden.rebin_s == serial.rebin_s
        assert hidden.transfer_s == serial.transfer_s
        assert hidden.n_migrated_rows == serial.n_migrated_rows
        # A 1 ms iteration tail hides the copy: only the kernels remain.
        assert hidden.total_s == pytest.approx(
            serial.update_kernel_s + serial.rebin_s
        )
        assert hidden.total_s < serial.total_s


_SRC = make_powerlaw_csr(n_rows=1500, seed=307, max_degree=400)


def _bill(seed, overlap_s):
    """One change list of ``_SRC`` (drawn from ``seed``), fresh re-binner."""
    batch = generate_update(_SRC, np.random.default_rng(seed))
    post = apply_update_to_csr(_SRC, batch).nnz_per_row[batch.rows]
    return price_update(
        batch,
        _SRC.nnz_per_row[batch.rows],
        post,
        IncrementalBinning.from_lengths(_SRC.nnz_per_row),
        _SRC.precision,
        GTX_TITAN,
        overlap_s=overlap_s,
    )


class TestOverlapProperty:
    """The overlapped bill is the serial bill with the copy hidden under
    ``overlap_s``: same parts, never a larger total."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16))
    def test_zero_overlap_is_the_serial_bill(self, seed):
        assert _bill(seed, 0.0) == _bill(seed, None)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.one_of(
            st.floats(0.0, 1e-1, allow_subnormal=True),
            # At and around the copy time, where the two finishes tie.
            st.integers(-20, 20).map(lambda k: k * 1e-16),
        ),
    )
    def test_parts_match_and_total_never_grows(self, seed, overlap):
        serial = _bill(seed, None)
        if abs(overlap) <= 2e-15:
            overlap = max(0.0, serial.transfer_s + overlap)
        hidden = _bill(seed, overlap)
        for part in (
            "transfer_s",
            "update_kernel_s",
            "rebin_s",
            "n_updated_rows",
            "n_migrated_rows",
        ):
            assert getattr(hidden, part) == getattr(serial, part), part
        assert hidden.total_s <= serial.total_s

    @pytest.mark.parametrize(
        "overlap", [-1e-9, -5e-324, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_overlap_rejected(self, overlap):
        with pytest.raises(ValueError, match="overlap"):
            _bill(0, overlap)
