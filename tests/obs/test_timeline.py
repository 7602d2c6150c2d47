"""Timeline reconstruction: the critical path IS the modelled time."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acsr import ACSRFormat
from repro.core.dispatch import time_spmv
from repro.formats.base import FormatCapacityError
from repro.formats.convert import available_formats, build_format
from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10, Precision
from repro.gpu.memory import GatherProfile
from repro.gpu.simulator import simulate_kernel, simulate_sequence
from repro.kernels.common import gang_row_work
from repro.obs import launch_detail, timeline_from_format
from repro.obs.timeline import _back_to_back
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


def _build(name, csr, device):
    kwargs = {"device": device} if name == "acsr" else {}
    try:
        return build_format(name, csr, **kwargs)
    except (FormatCapacityError, ValueError) as exc:
        pytest.skip(f"{name}: {exc}")


@pytest.fixture(scope="module")
def csr():
    return make_powerlaw_csr(n_rows=1500, seed=5)


def _sequence_lane(device, works):
    """A back-to-back sequence's lane, as a sequence format draws it."""
    return _back_to_back(device, [(w, simulate_kernel(device, w)) for w in works])


class TestSequenceReconstruction:
    @settings(max_examples=25, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=500),
                min_size=1,
                max_size=30,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_cursor_replays_sequence_sum_bit_for_bit(self, chunks):
        """Reconstructed total == simulate_sequence total, every device."""
        for device in DEVICES3:
            works = [_work_from_lengths(c, device) for c in chunks]
            events, _, body = _sequence_lane(device, works)
            assert body == simulate_sequence(device, works).time_s
            assert len(events) == len(works)
            # Events tile the lane without gaps: each starts where the
            # previous ended (the running cursor).
            cursor = 0.0
            for ev in events:
                assert ev.start_s == cursor
                cursor += ev.duration_s

    def test_details_align_with_events(self, csr):
        works = [
            _work_from_lengths(csr.nnz_per_row[i : i + 300], GTX_TITAN)
            for i in range(0, 900, 300)
        ]
        events, details, _ = _sequence_lane(GTX_TITAN, works)
        assert len(details) == len(works)
        for ev, d in zip(events, details):
            assert d.start_s == ev.start_s
            assert d.duration_s == ev.duration_s


class TestFormatReconstruction:
    @pytest.mark.parametrize("name", available_formats())
    def test_timeline_total_is_the_models_float(self, name, csr):
        """The tentpole invariant on every registry format x 3 devices,
        for SpMV and an 8-wide SpMM."""
        for device in DEVICES3:
            fmt = _build(name, csr, device)
            tl = timeline_from_format(fmt, device)
            assert tl.time_s == fmt.spmv_time_s(device)
            for k in (1, 8):
                tl = timeline_from_format(fmt, device, k=k)
                want = fmt.spmm_time_s(device, k)
                assert tl.time_s == want
                X = np.ones((fmt.n_cols, k))
                assert fmt.run_spmm(X, device).time_s == want

    @pytest.mark.parametrize("k", (1, 8))
    def test_spmm_timeline_tracks_spmm_time(self, csr, k):
        fmt = _build("csr", csr, GTX_TITAN)
        tl = timeline_from_format(fmt, GTX_TITAN, k=k)
        assert tl.time_s == fmt.spmm_time_s(GTX_TITAN, k=k)

    def test_acsr_lanes_show_overlap(self, csr):
        """Pool and DP enqueue share the window after the launch bill."""
        fmt = ACSRFormat.from_csr(csr, device=GTX_TITAN)
        tl = timeline_from_format(fmt, GTX_TITAN)
        acsr = time_spmv(fmt.csr, fmt.plan_for(GTX_TITAN), GTX_TITAN)
        assert tl.time_s == acsr.time_s
        labels = [ln.label for ln in tl.lanes]
        assert labels[:2] == ["host", "pool"]
        if acsr.n_row_grids:
            assert "dp-enqueue" in labels
            pool_lane = tl.lanes[1]
            dp_lane = tl.lanes[labels.index("dp-enqueue")]
            # Both start when the host launch bill ends.
            assert pool_lane.events[0].start_s == acsr.launch_s
            assert dp_lane.events[0].start_s == acsr.launch_s
        # The critical lane is whichever of pool/enqueue runs longer.
        crit = tl.lanes[tl.critical_lane]
        assert crit.end_s == max(ln.end_s for ln in tl.lanes)

    def test_no_dp_device_has_no_enqueue_lane(self, csr):
        fmt = ACSRFormat.from_csr(csr, device=GTX_580)
        tl = timeline_from_format(fmt, GTX_580)
        assert [ln.label for ln in tl.lanes] == ["host", "pool"]
        assert tl.time_s == fmt.spmv_time_s(GTX_580)

    def test_reconstruction_never_perturbs_the_model(self, csr):
        """Building timelines leaves modelled times bit-identical."""
        fmt = _build("hyb", csr, GTX_TITAN)
        before = fmt.spmv_time_s(GTX_TITAN)
        timeline_from_format(fmt, GTX_TITAN)
        assert fmt.spmv_time_s(GTX_TITAN) == before


class TestLaunchDetail:
    def test_busiest_sm_matches_argmax_and_duration(self, csr):
        work = _work_from_lengths(csr.nnz_per_row, GTX_TITAN)
        timing = simulate_kernel(GTX_TITAN, work)
        d = launch_detail(GTX_TITAN, work, timing, start_s=1e-6)
        assert d.start_s == 1e-6
        assert d.duration_s == timing.time_s
        assert len(d.sm_busy_s) == GTX_TITAN.num_sms
        assert d.busiest_sm == int(np.argmax(d.sm_busy_s))
        # Idle gaps measure distance to the busiest SM.
        assert d.idle_s[d.busiest_sm] == 0.0
        assert all(g >= 0.0 for g in d.idle_s)
        assert d.chain_max_s >= d.chain_mean_s >= 0.0

    def test_dp_fanout_respects_pending_cap(self):
        from repro.gpu.dynamic_parallelism import child_launch_split

        work = _work_from_lengths([64] * 32, GTX_TITAN)
        timing = simulate_kernel(GTX_TITAN, work)
        d = launch_detail(
            GTX_TITAN, work, timing, dp_children=3000
        )
        assert (d.dp_within, d.dp_overflow) == child_launch_split(
            GTX_TITAN, 3000
        )
        assert d.dp_within <= GTX_TITAN.pending_launch_limit

    def test_render_shows_sm_bars(self, csr):
        work = _work_from_lengths(csr.nnz_per_row[:500], GTX_TITAN)
        d = launch_detail(
            GTX_TITAN, work, simulate_kernel(GTX_TITAN, work)
        )
        out = d.render()
        assert "warps" in out and "gini" in out
        assert "SM  0" in out and "*" in out


class TestRender:
    def test_gantt_marks_critical_lane(self, csr):
        fmt = ACSRFormat.from_csr(csr, device=GTX_TITAN)
        out = timeline_from_format(fmt, GTX_TITAN).gantt()
        assert "timeline:" in out and "us" in out
        assert "*" in out and "critical lane" in out
