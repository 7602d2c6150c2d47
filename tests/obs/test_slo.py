"""Declarative SLO parsing and multi-window burn-rate alerting.

The engine's alert transitions are checked against an independent
oracle: plain lists of each series' scored events, read through the
fast and slow bucket-aligned windows.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    SLO,
    AlertEvent,
    BurnRatePolicy,
    SLOEngine,
    parse_slo,
    render_alert,
)
from repro.obs.slo import check_slos


class TestParseSlo:
    def test_latency_seconds(self):
        slo = parse_slo("p99<=0.005@10s")
        assert slo.metric == "p99"
        assert slo.op == "<="
        assert slo.threshold == 0.005
        assert slo.window_s == 10.0
        assert slo.spec == "p99<=0.005@10s"

    def test_units_and_spaces(self):
        slo = parse_slo("p95 <= 2.5ms @ 40ms")
        assert slo.threshold == pytest.approx(2.5e-3)
        assert slo.window_s == pytest.approx(40e-3)

    def test_us_unit(self):
        slo = parse_slo("p50<=350us@5ms")
        assert slo.threshold == pytest.approx(350e-6)
        assert slo.window_s == pytest.approx(5e-3)

    def test_default_unit_is_seconds(self):
        assert parse_slo("p99<=1@2").window_s == 2.0

    def test_availability(self):
        slo = parse_slo("availability>=0.99@5ms")
        assert slo.metric == "availability"
        assert slo.budget == pytest.approx(0.01)

    def test_quantile_and_budget(self):
        slo = parse_slo("p99<=0.005@10s")
        assert slo.quantile == 0.99
        assert slo.budget == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "spec",
        [
            "p99<=oops@5ms",  # non-numeric threshold
            "p99>=0.005@10s",  # latency must use <=
            "availability<=0.99@10s",  # availability must use >=
            "availability>=0.99ms@10s",  # fractions are unitless
            "availability>=1.0@10s",  # zero error budget
            "p99<=0.005",  # missing window
            "p42<=0.005@10s",  # unknown quantile
            "p99<=0@10s",  # zero threshold
            "p99<=0.005@0s",  # zero window
            "p99<=350us@1e999s",  # infinite window
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_slo(spec)

    @pytest.mark.parametrize("window_s", [math.inf, math.nan, -1.0])
    def test_window_must_be_finite_and_positive(self, window_s):
        with pytest.raises(ValueError, match="finite and positive"):
            SLO("p99", "<=", 1e-3, window_s, "p99<=1ms")

    def test_is_bad_latency_ignores_shed(self):
        slo = parse_slo("p99<=1ms@10s")
        assert slo.is_bad(latency_s=2e-3, shed=False)
        assert not slo.is_bad(latency_s=0.5e-3, shed=False)
        assert not slo.is_bad(latency_s=None, shed=True)

    def test_is_bad_availability_scores_shed(self):
        slo = parse_slo("availability>=0.9@10s")
        assert slo.is_bad(latency_s=None, shed=True)
        assert not slo.is_bad(latency_s=5.0, shed=False)


class TestBurnRatePolicy:
    def test_defaults(self):
        pol = BurnRatePolicy()
        assert pol.fast_fraction == pytest.approx(1 / 12)
        assert pol.fast_threshold == 6.0
        assert pol.slow_threshold == 1.0
        assert pol.min_events == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            BurnRatePolicy(fast_fraction=0.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(fast_threshold=-1.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(min_events=0)


def _engine(**policy_kwargs):
    policy = BurnRatePolicy(
        fast_fraction=policy_kwargs.pop("fast_fraction", 0.25),
        min_events=policy_kwargs.pop("min_events", 4),
        **policy_kwargs,
    )
    return SLOEngine(["p99<=1ms@1s"], policy=policy, n_buckets=8)


class TestSLOEngine:
    def test_accepts_parsed_objects(self):
        slo = parse_slo("p99<=1ms@1s")
        eng = SLOEngine([slo])
        assert eng.slos == (slo,)

    def test_duplicate_slos_rejected(self):
        with pytest.raises(ValueError):
            SLOEngine(["p99<=1ms@1s", "p99<=1ms@1s"])

    def test_check_slos_parses_and_validates_the_set(self):
        policy = BurnRatePolicy(fast_fraction=0.25)
        slo = parse_slo("availability>=0.9@1s")
        assert check_slos(["p99<=1ms@1s", slo], policy, 8) == (
            parse_slo("p99<=1ms@1s"), slo,
        )
        with pytest.raises(ValueError, match="duplicate SLO"):
            check_slos(["p99<=1ms@1s", " p99<=1ms@1s"], policy, 8)
        with pytest.raises(ValueError, match="fast_fraction"):
            check_slos(["p99<=1ms@1s"], policy, 3)

    def test_fast_leg_narrower_than_bucket_rejected(self):
        with pytest.raises(ValueError):
            SLOEngine(
                ["p99<=1ms@1s"],
                policy=BurnRatePolicy(fast_fraction=1 / 100),
                n_buckets=8,
            )

    def test_observe_wants_exactly_one_kind(self):
        eng = _engine()
        with pytest.raises(ValueError):
            eng.observe(0.0, "t0")  # neither latency nor shed
        with pytest.raises(ValueError):
            eng.observe(0.0, "t0", latency_s=1e-3, shed=True)

    def test_all_bad_fires_global_and_tenant(self):
        eng = _engine()
        for i in range(4):
            eng.observe(0.01 * i, "t0", latency_s=5e-3)  # all above 1ms
        assert ("p99<=1ms@1s", "*") in eng.firing
        assert ("p99<=1ms@1s", "t0") in eng.firing
        assert eng.alert_count == 2  # one firing transition per key

    def test_all_good_never_fires(self):
        eng = _engine()
        for i in range(32):
            eng.observe(0.01 * i, "t0", latency_s=0.1e-3)
        assert eng.firing == []
        assert eng.alerts == []

    def test_min_events_suppresses_early_alerts(self):
        eng = _engine(min_events=10)
        for i in range(9):
            eng.observe(0.001 * i, "t0", latency_s=5e-3)
        assert eng.firing == []

    def test_alert_resolves_when_burn_cools(self):
        eng = _engine()
        for i in range(4):
            eng.observe(0.01 * i, "t0", latency_s=5e-3)
        assert eng.firing  # hot
        # A flood of good events within the window dilutes both legs.
        t = 0.05
        while eng.firing:
            eng.observe(t, "t0", latency_s=0.1e-3)
            t += 0.01
        states = [a.state for a in eng.alerts]
        assert states.count("firing") == 2
        assert states.count("resolved") == 2
        assert eng.alert_count == 2  # resolved transitions don't count

    def test_noisy_tenant_pins_alert_on_itself(self):
        eng = _engine()
        t = 0.0
        for _ in range(8):
            eng.observe(t, "noisy", latency_s=5e-3)
            t += 0.001
        for _ in range(64):
            eng.observe(t, "quiet", latency_s=0.1e-3)
            t += 0.001
        keys = {key for _, key in eng.firing}
        assert "noisy" in keys
        assert "quiet" not in keys

    def test_availability_scores_shed_arrivals(self):
        eng = SLOEngine(
            ["availability>=0.9@1s"],
            policy=BurnRatePolicy(fast_fraction=0.25, min_events=4),
            n_buckets=8,
        )
        for i in range(4):
            eng.observe(0.01 * i, "t0", shed=True)
        assert ("availability>=0.9@1s", "*") in eng.firing

    def test_burn_rates_readout(self):
        eng = _engine()
        for i in range(4):
            eng.observe(0.01 * i, "t0", latency_s=5e-3)
        rates = eng.burn_rates(0.03)
        fast, slow = rates[("p99<=1ms@1s", "*")]
        # 100% bad against a 1% budget on both legs.
        assert fast == pytest.approx(100.0)
        assert slow == pytest.approx(100.0)

    def test_render_alert_lines(self):
        eng = _engine()
        for i in range(4):
            eng.observe(0.01 * i, "t0", latency_s=5e-3)
        line = render_alert(eng.alerts[0])
        assert "FIRING" in line
        assert "p99<=1ms@1s" in line

    def test_unknown_metric_rejected_directly(self):
        with pytest.raises(ValueError):
            SLO(
                metric="p33",
                op="<=",
                threshold=1e-3,
                window_s=1.0,
                spec="p33<=1ms@1s",
            )


def alert_oracle(stream, slos, policy, n_buckets):
    """Every alert transition, from plain lists of ``(bucket, bad)``."""
    scored: dict[tuple[str, str], list[tuple[int, bool]]] = {}
    firing: dict[tuple[str, str], bool] = {}
    out = []
    for t, tenant, latency, shed in stream:
        for slo in slos:
            if slo.metric != "availability" and shed:
                continue
            bad = shed if slo.metric == "availability" else (
                latency > slo.threshold
            )
            bucket_s = slo.window_s / n_buckets
            cur = math.floor(t / bucket_s)
            for key in ("*", tenant):
                events = scored.setdefault((slo.spec, key), [])
                events.append((cur, bad))

                def burn(window_s):
                    m = max(1, int(round(window_s / bucket_s)))
                    window = [b for s, b in events if s >= cur - m + 1]
                    if not window:
                        return 0.0, 0
                    share = sum(window) / len(window)
                    return share / slo.budget, len(window)

                burn_fast, n_fast = burn(slo.window_s * policy.fast_fraction)
                burn_slow, _ = burn(slo.window_s)
                hot = (
                    n_fast >= policy.min_events
                    and burn_fast >= policy.fast_threshold
                    and burn_slow >= policy.slow_threshold
                )
                if hot != firing.get((slo.spec, key), False):
                    firing[(slo.spec, key)] = hot
                    out.append(AlertEvent(
                        t_s=t,
                        slo=slo.spec,
                        key=key,
                        state="firing" if hot else "resolved",
                        burn_fast=burn_fast,
                        burn_slow=burn_slow,
                        window_events=n_fast,
                    ))
    return out


class TestAlertOracle:
    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.05),
                st.sampled_from(("t0", "t1", "t2")),
                st.floats(min_value=1e-6, max_value=2e-3),
                st.booleans(),
            ),
            max_size=150,
        ),
        window_s=st.sampled_from((1e-3, 5e-3, 0.02)),
        n_buckets=st.integers(min_value=12, max_value=48),
        fast_fraction=st.sampled_from((1 / 12, 0.25, 0.5, 1.0)),
        fast_threshold=st.sampled_from((1.0, 6.0, 14.4)),
        slow_threshold=st.sampled_from((0.5, 1.0, 3.0)),
        min_events=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_transitions_match_the_list_oracle(
        self, events, window_s, n_buckets, fast_fraction, fast_threshold,
        slow_threshold, min_events,
    ):
        slos = (
            SLO("p99", "<=", 5e-4, window_s, "p99<=0.5ms"),
            SLO("p50", "<=", 2e-4, window_s / 2, "p50<=0.2ms"),
            SLO("availability", ">=", 0.9, window_s, "availability>=0.9"),
        )
        policy = BurnRatePolicy(
            fast_fraction=fast_fraction,
            fast_threshold=fast_threshold,
            slow_threshold=slow_threshold,
            min_events=min_events,
        )
        # Terminal events arrive in non-decreasing virtual time.
        stream = sorted(events, key=lambda e: e[0])
        engine = SLOEngine(slos, policy, n_buckets)
        got = []
        for t, tenant, latency, shed in stream:
            kind = {"shed": True} if shed else {"latency_s": latency}
            got.extend(engine.observe(t, tenant, **kind))
        want = alert_oracle(stream, slos, policy, n_buckets)
        assert got == want
        assert engine.alerts == want
