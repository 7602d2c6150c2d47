"""Serving plans: cost-table fidelity and two-tier memoization."""

from __future__ import annotations

import pytest

from repro.apps.power_method import DEFAULT_VECTOR_PASSES, cost_of_width
from repro.formats.advisor import Workload, recommend
from repro.gpu.device import GTX_TITAN, Precision
from repro.harness.runner import DISK_CACHE_ENV_VAR
from repro.data.corpus import corpus_matrix
from repro.serve import clear_plan_cache, operator_format, plan_for, plans
from repro.serve.plans import SERVE_SPMV_PER_STRUCTURE, ServePlan

MATRIX = "WIK"
SCALE = 0.002
DEV = GTX_TITAN


@pytest.fixture(autouse=True)
def fresh_session(monkeypatch):
    """Each test starts cold in-session with the disk tier off."""
    monkeypatch.delenv(DISK_CACHE_ENV_VAR, raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def cold_builds(monkeypatch):
    """Spy on the cold path: one entry per plan the simulator builds."""
    calls = []
    build = plans._build_plan

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(plans, "_build_plan", spy)
    return calls


class TestPlanTables:
    def test_tables_price_the_shared_operator_format(self):
        plan = plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        fmt = operator_format(MATRIX, "csr", Precision.SINGLE, SCALE)
        assert plan.n_rows == fmt.n_rows
        for w in range(1, plan.k_max + 1):
            assert plan.spmm_time_s[w - 1] == fmt.spmm_time_s(DEV, k=w)
            assert plan.cost_of_width(w) == (
                plan.spmm_time_s[w - 1] + plan.vec_time_s[w - 1]
            )
            assert plan.formation_s(w) == plan.form_time_s[w - 1]

    @pytest.mark.parametrize("format_name", ["csr", "acsr"])
    def test_cost_of_width_is_the_apps_cost_function(self, format_name):
        """One cost function: the plan's table sums are the apps' bill."""
        plan = plan_for(MATRIX, DEV, scale=SCALE, format_name=format_name)
        fmt = operator_format(MATRIX, format_name, Precision.SINGLE, SCALE)
        shared = cost_of_width(fmt, DEV, DEFAULT_VECTOR_PASSES)
        for w in range(1, plan.k_max + 1):
            assert repr(plan.cost_of_width(w)) == repr(shared(w))

    def test_width_range_checked(self):
        plan = plan_for(MATRIX, DEV, scale=SCALE, format_name="csr", k_max=2)
        with pytest.raises(ValueError):
            plan.cost_of_width(0)
        with pytest.raises(ValueError):
            plan.cost_of_width(3)
        with pytest.raises(ValueError):
            plan_for(MATRIX, DEV, scale=SCALE, k_max=0)

    def test_table_lengths_validated(self):
        with pytest.raises(ValueError):
            ServePlan(
                matrix="m",
                abbrev="M",
                device="d",
                precision="single",
                scale=1.0,
                format_name="csr",
                rationale="",
                n_rows=10,
                k_max=2,
                spmm_time_s=(1.0,),  # too short for k_max=2
                vec_time_s=(1.0, 2.0),
                form_time_s=(1.0, 2.0),
            )

    def test_auto_routes_through_the_advisor(self):
        plan = plan_for(MATRIX, DEV, scale=SCALE)
        csr = corpus_matrix(MATRIX, scale=SCALE)
        rec = recommend(
            csr, Workload(spmv_per_structure=SERVE_SPMV_PER_STRUCTURE)
        )
        assert plan.format_name == rec.format_name
        assert plan.rationale == rec.rationale

    def test_pinned_format_skips_the_advisor(self):
        plan = plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        assert plan.format_name == "csr"
        assert "pinned" in plan.rationale


class TestMemoization:
    def test_session_cache_returns_the_same_object(self):
        cold = plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        assert plan_for(MATRIX, DEV, scale=SCALE, format_name="csr") is cold

    def test_warm_session_call_simulates_nothing(self, cold_builds):
        plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        assert len(cold_builds) == 1
        plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        assert len(cold_builds) == 1

    def test_operator_format_is_shared(self):
        fmt = operator_format(MATRIX, "csr", Precision.SINGLE, SCALE)
        assert operator_format(MATRIX, "csr", Precision.SINGLE, SCALE) is fmt


class TestDiskCache:
    def test_cold_run_writes_warm_run_loads_without_simulating(
        self, tmp_path, monkeypatch, cold_builds
    ):
        monkeypatch.setenv(DISK_CACHE_ENV_VAR, str(tmp_path))
        cold = plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        assert len(cold_builds) == 1  # the cold path simulates the tables
        stored = list(tmp_path.glob("serve-plan-*.json"))
        assert len(stored) == 1
        # A fresh session (caches dropped) must reload the plan from
        # disk without building it again.
        clear_plan_cache()
        warm = plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        assert len(cold_builds) == 1
        assert warm == cold  # identical tables after the JSON round-trip

    def test_corrupt_disk_entry_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DISK_CACHE_ENV_VAR, str(tmp_path))
        cold = plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        path = next(tmp_path.glob("serve-plan-*.json"))
        path.write_text("{ not json")
        clear_plan_cache()
        again = plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        assert again == cold

    def test_disk_off_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DISK_CACHE_ENV_VAR, "0")
        plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        assert not list(tmp_path.glob("serve-plan-*.json"))

    def test_distinct_keys_get_distinct_entries(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DISK_CACHE_ENV_VAR, str(tmp_path))
        plan_for(MATRIX, DEV, scale=SCALE, format_name="csr")
        plan_for(MATRIX, DEV, scale=SCALE, format_name="csr", k_max=2)
        assert len(list(tmp_path.glob("serve-plan-*.json"))) == 2
