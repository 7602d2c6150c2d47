"""Attribution: named terms that float-sum exactly to every modelled time."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acsr import ACSRFormat
from repro.core.dispatch import time_spmv
from repro.formats.base import FormatCapacityError
from repro.formats.convert import available_formats, build_format
from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10, Precision
from repro.gpu.kernel import KernelWork
from repro.gpu.memory import GatherProfile
from repro.gpu.simulator import simulate_kernel
from repro.kernels.common import gang_row_work
from repro.obs import (
    TERM_ORDER,
    attribute_format,
    attribute_launch,
    attribute_sequence,
    merge_attributions,
)
from repro.obs.attribution import _force_exact, _zero_terms
from tests.conftest import make_powerlaw_csr

DEVICES3 = (GTX_580, TESLA_K10, GTX_TITAN)


def _work_from_lengths(lengths, device, k=1):
    return gang_row_work(
        "t",
        np.asarray(lengths, dtype=np.int64),
        vector_size=32,
        device=device,
        n_cols=4096,
        precision=Precision.SINGLE,
        profile=GatherProfile(reuse=2.0, clustering=0.5),
        k=k,
    )


@pytest.fixture(scope="module")
def csr():
    return make_powerlaw_csr(n_rows=1500, seed=5)


class TestForceExact:
    def test_noop_when_already_exact(self):
        terms = _zero_terms()
        terms["ideal"] = 1.0
        out = _force_exact(dict(terms), 1.0)
        assert out == terms

    def test_fixes_one_ulp_gap_with_zero_adjust_term(self):
        """The diff corner: the adjusted term is 0.0 but the sum is large."""
        terms = _zero_terms()
        terms["coalescing"] = 1.4118432499999997e-3
        terms["tail_warp"] = 1.1857512659397033e-3
        target = np.nextafter(
            terms["coalescing"] + terms["tail_warp"], 0.0
        )
        out = _force_exact(terms, float(target))
        s = 0.0
        for name in TERM_ORDER:
            s += out[name]
        assert s == target

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e-2),
            min_size=3,
            max_size=len(TERM_ORDER),
        ),
        ulps=st.integers(min_value=-8, max_value=8),
    )
    def test_lands_exactly_on_nearby_targets(self, values, ulps):
        terms = _zero_terms()
        for name, v in zip(TERM_ORDER, values):
            terms[name] = v
        s = 0.0
        for name in TERM_ORDER:
            s += terms[name]
        target = s
        for _ in range(abs(ulps)):
            target = float(
                np.nextafter(target, np.inf if ulps > 0 else -np.inf)
            )
        out = _force_exact(terms, target)
        check = 0.0
        for name in TERM_ORDER:
            check += out[name]
        assert check == target


class TestLaunchAttribution:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(min_value=0, max_value=800), min_size=1, max_size=50
        )
    )
    def test_terms_sum_to_time_on_every_device(self, lengths):
        """The headline exactness invariant, per launch."""
        for device in DEVICES3:
            work = _work_from_lengths(lengths, device)
            timing = simulate_kernel(device, work)
            att = attribute_launch(device, work, timing)
            assert att.check_exact()
            assert att.time_s == timing.time_s
            assert set(att.as_dict()) == set(TERM_ORDER)

    def test_terms_essentially_nonnegative(self, csr):
        """Breakpoint differences are >= 0; only the exactness nudge may
        push a term below zero, and then only by ulps."""
        for device in DEVICES3:
            work = _work_from_lengths(csr.nnz_per_row[:800], device)
            att = attribute_launch(
                device, work, simulate_kernel(device, work)
            )
            for name, value in att.terms:
                assert value >= -1e-12 * max(1.0, att.time_s * 1e6), name

    def test_skew_shows_up_as_tail_warp(self):
        balanced = _work_from_lengths([64] * 320, GTX_TITAN)
        skewed = _work_from_lengths([1] * 319 + [20_000], GTX_TITAN)
        tail = lambda w: attribute_launch(  # noqa: E731
            GTX_TITAN, w, simulate_kernel(GTX_TITAN, w)
        ).term("tail_warp")
        assert tail(skewed) > tail(balanced)
        assert tail(skewed) > 0.0

    def test_empty_launch_is_pure_overhead(self):
        work = KernelWork.empty("nop")
        timing = simulate_kernel(GTX_TITAN, work)
        att = attribute_launch(GTX_TITAN, work, timing)
        assert att.check_exact()
        assert att.term("launch_overhead") == timing.launch_overhead_s

    def test_launch_overhead_term_matches_timing(self, csr):
        work = _work_from_lengths(csr.nnz_per_row[:100], GTX_TITAN)
        timing = simulate_kernel(GTX_TITAN, work)
        att = attribute_launch(GTX_TITAN, work, timing)
        assert att.term("launch_overhead") == timing.launch_overhead_s


class TestFormatAttribution:
    @pytest.mark.parametrize("name", available_formats())
    def test_time_is_the_models_float(self, name, csr):
        """attribute_format totals == spmm_time_s bit-for-bit, every
        format, 3 devices, SpMV and an 8-wide SpMM."""
        for device in DEVICES3:
            kwargs = {"device": device} if name == "acsr" else {}
            try:
                fmt = build_format(name, csr, **kwargs)
            except (FormatCapacityError, ValueError) as exc:
                pytest.skip(f"{name}: {exc}")
            att = attribute_format(fmt, device)
            assert att.check_exact()
            assert att.time_s == fmt.spmv_time_s(device)
            for k in (1, 8):
                att = attribute_format(fmt, device, k=k)
                want = fmt.spmm_time_s(device, k)
                assert att.check_exact()
                assert att.time_s == want
                X = np.ones((fmt.n_cols, k))
                assert fmt.run_spmm(X, device).time_s == want

    @pytest.mark.parametrize("k", (1, 8))
    def test_spmm_attribution_tracks_spmm_time(self, csr, k):
        fmt = build_format("csr", csr)
        att = attribute_format(fmt, GTX_TITAN, k=k)
        assert att.check_exact()
        assert att.time_s == fmt.spmm_time_s(GTX_TITAN, k=k)

    def test_acsr_dp_serialization_term(self, csr):
        """DP enqueue beyond the pool shows up as dp_serialization."""
        fmt = ACSRFormat.from_csr(csr, device=GTX_TITAN)
        att = attribute_format(fmt, GTX_TITAN)
        acsr = time_spmv(fmt.csr, fmt.plan_for(GTX_TITAN), GTX_TITAN)
        assert att.time_s == acsr.time_s
        expected = max(acsr.pool.time_s, acsr.enqueue_s) - acsr.pool.time_s
        assert att.term("dp_serialization") == pytest.approx(expected)

    def test_attribution_never_perturbs_the_model(self, csr):
        """Enabling attribution leaves modelled times bit-identical."""
        fmt = build_format("hyb", csr)
        before_t = fmt.spmv_time_s(GTX_TITAN)
        attribute_format(fmt, GTX_TITAN)
        assert fmt.spmv_time_s(GTX_TITAN) == before_t


class TestSequenceAndMerge:
    def test_sequence_target_is_running_sum(self, csr):
        works = [
            _work_from_lengths(csr.nnz_per_row[i : i + 200], TESLA_K10)
            for i in range(0, 600, 200)
        ]
        att = attribute_sequence(TESLA_K10, works)
        total = 0.0
        for w in works:
            total += simulate_kernel(TESLA_K10, w).time_s
        assert att.check_exact()
        assert att.time_s == total

    def test_merge_forces_external_total(self):
        parts = []
        for n in (10, 100):
            w = _work_from_lengths([n] * 50, GTX_TITAN)
            parts.append(
                attribute_launch(GTX_TITAN, w, simulate_kernel(GTX_TITAN, w))
            )
        target = parts[0].time_s + parts[1].time_s + 5e-6
        merged = merge_attributions(
            parts,
            name="m",
            device="GTXTitan",
            time_s=target,
            extra={"sync": 5e-6},
        )
        assert merged.check_exact()
        assert merged.time_s == target
        assert merged.term("sync") == pytest.approx(5e-6)
