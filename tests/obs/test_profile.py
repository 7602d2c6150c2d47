"""``profile_format``: the profile observes the model, never re-models."""

import numpy as np
import pytest

from repro.formats.base import FormatCapacityError
from repro.formats.convert import available_formats, build_format
from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10
from repro.obs import profile_format, verdict_for
from tests.conftest import make_powerlaw_csr

DEVICES3 = (GTX_580, TESLA_K10, GTX_TITAN)


def _build(name, csr, device):
    kwargs = {"device": device} if name == "acsr" else {}
    try:
        return build_format(name, csr, **kwargs)
    except (FormatCapacityError, ValueError) as exc:
        pytest.skip(f"{name}: {exc}")


@pytest.fixture(scope="module")
def csr():
    return make_powerlaw_csr(n_rows=1500, seed=5)


class TestEveryRegistryFormat:
    @pytest.mark.parametrize("name", available_formats())
    def test_total_time_equals_model_time(self, name, csr):
        """The headline identity, for every format on every device, for
        SpMV and an 8-wide SpMM."""
        for device in DEVICES3:
            fmt = _build(name, csr, device)
            p = profile_format(fmt, device)
            assert p.total.time_s == fmt.spmv_time_s(device)
            assert p.model_time_s == fmt.spmv_time_s(device)
            for k in (1, 8):
                p = profile_format(fmt, device, k=k)
                want = fmt.spmm_time_s(device, k)
                assert p.total.time_s == want
                assert p.model_time_s == want
                X = np.ones((fmt.n_cols, k))
                assert fmt.run_spmm(X, device).time_s == want

    @pytest.mark.parametrize("name", available_formats())
    def test_verdict_agrees_with_bound(self, name, csr):
        """Roofline verdict == the launch set's own bound, every format."""
        fmt = _build(name, csr, GTX_TITAN)
        p = profile_format(fmt, GTX_TITAN)
        assert p.verdict.bound == p.total.bound
        assert verdict_for(p.total).bound == p.total.bound
        assert 0.0 <= p.verdict.utilization <= 1.0
        assert p.verdict.headroom == pytest.approx(
            1.0 - p.verdict.utilization
        )
        # Per-launch bounds agree with the simulator's own verdicts.
        for cs in p.launches:
            assert cs.bound in ("compute", "memory", "latency", "launch")

    @pytest.mark.parametrize("name", ("csr", "coo", "hyb", "ell", "acsr"))
    def test_k1_spmm_profile_equals_spmv_profile(self, name, csr):
        """The k=1 batched profile is the scalar profile, field for field."""
        fmt = _build(name, csr, GTX_TITAN)
        spmv = profile_format(fmt, GTX_TITAN)
        spmm1 = profile_format(fmt, GTX_TITAN, k=1)
        assert spmm1.total == spmv.total
        assert spmm1.launches == spmv.launches
        assert spmm1.model_time_s == spmv.model_time_s

    @pytest.mark.parametrize("name", ("csr", "acsr", "hyb"))
    def test_k8_profile_tracks_spmm_time(self, name, csr):
        fmt = _build(name, csr, GTX_TITAN)
        p = profile_format(fmt, GTX_TITAN, k=8)
        assert p.k == 8
        assert p.total.time_s == fmt.spmm_time_s(GTX_TITAN, k=8)
        assert p.total.k == 8


class TestACSRProfile:
    def test_dp_counters_and_totals(self, csr):
        from repro.core.acsr import ACSRFormat
        from repro.core.dispatch import time_spmv

        fmt = ACSRFormat.from_csr(csr, device=GTX_TITAN)
        p = profile_format(fmt, GTX_TITAN)
        acsr = time_spmv(fmt.csr, fmt.plan_for(GTX_TITAN), GTX_TITAN)
        assert p.total.time_s == acsr.time_s
        assert p.total.launch_overhead_s == acsr.launch_s
        assert p.total.dp_children == acsr.n_row_grids
        assert p.total.dp_overflow == acsr.dp_overflow
        assert "bin grids" in p.notes

    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("device", DEVICES3, ids=lambda d: d.name)
    def test_pool_launch_is_the_models_pooled_pair(self, csr, device, k):
        """The one launch is the DP-aware model's pooled work + timing."""
        from repro.core.acsr import ACSRFormat
        from repro.core.dispatch import pooled_kernel_work, time_spmv
        from repro.obs import launch_counters

        fmt = ACSRFormat.from_csr(csr, device=device)
        p = profile_format(fmt, device, k=k)
        plan = fmt.plan_for(device)
        acsr = time_spmv(fmt.csr, plan, device, k=k)
        expected = launch_counters(
            device,
            pooled_kernel_work(fmt.csr, plan, device, k=k),
            acsr.pool,
            dp_children=acsr.n_row_grids,
            dp_overflow=acsr.dp_overflow,
        )
        assert p.launches == (expected,)
        assert p.total.time_s == fmt.spmm_time_s(device, k=k)

    def test_no_dp_device_has_zero_children(self, csr):
        from repro.core.acsr import ACSRFormat

        fmt = ACSRFormat.from_csr(csr, device=GTX_580)
        p = profile_format(fmt, GTX_580)
        assert p.total.dp_children == 0
        assert p.total.time_s == fmt.spmv_time_s(GTX_580)


class TestRender:
    def test_table_mentions_launches_and_verdict(self, csr):
        fmt = _build("hyb", csr, GTX_TITAN)
        out = profile_format(fmt, GTX_TITAN, matrix="SYN").render()
        assert "SYN" in out and "GTXTitan" in out
        assert "verdict:" in out
        assert "Occ" in out and "WEff" in out and "DRAM(KB)" in out

    def test_profiling_is_reentrant_and_pure(self, csr):
        """Profiling twice gives identical results."""
        fmt = _build("csr", csr, GTX_TITAN)
        a = profile_format(fmt, GTX_TITAN)
        b = profile_format(fmt, GTX_TITAN)
        assert a.total == b.total
