"""Per-(matrix, device) serving plans: format choice + frozen cost tables.

A :class:`ServePlan` is everything the serving engine needs to *bill* a
coalesced RWR batch without touching the simulator at query time: the
advisor's format choice and, for every batch width ``w`` up to
``k_max``, the modelled cost of one width-``w`` power-method round
(SpMM + vector kernel) and of forming a width-``w`` batch (seed-id
upload + seed-block assembly).  The tables are computed once per
(matrix, device, precision, scale, format, k_max) tuple and memoized —
in the session and, when ``REPRO_CELL_CACHE`` is set, on disk next to
the harness's cell cache — so a warm process prices queries without a
single ``simulate_kernel`` call.

The round-cost table is built from the *same* calls
:func:`repro.apps.power_method.cost_of_width` makes
(``fmt.spmm_time_s`` / ``vector_ops_work`` with
:data:`~repro.apps.power_method.DEFAULT_VECTOR_PASSES` passes), and JSON
round-trips floats exactly, so a plan-priced batch is bit-identical to
:func:`repro.apps.rwr.run_rwr_batch`'s ``modeled_time_s`` — and for a
solo query to :func:`repro.apps.rwr.rwr`'s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..apps.power_method import DEFAULT_VECTOR_PASSES, vector_ops_work
from ..apps.rwr import column_normalized
from ..data.corpus import corpus_matrix, get_spec
from ..formats.advisor import Workload, recommend
from ..formats.convert import build_format
from ..gpu.device import DeviceSpec, Precision
from ..gpu.simulator import simulate_many
from ..gpu.transfer import DEFAULT_LINK
from ..harness import runner

#: Bump to invalidate every persisted serving plan (cost-model or plan
#: layout changes); composed with :data:`repro.harness.runner.DISK_CACHE_VERSION`.
SERVE_PLAN_VERSION = 1

#: Widest batch a plan prices by default.
DEFAULT_K_MAX = 8

#: Host->device payload per coalesced query: one int64 seed-node id.
SEED_ID_BYTES = 8

#: Serving workloads answer many queries per graph snapshot; this is the
#: ``spmv_per_structure`` hint handed to the advisor for ``"auto"`` plans.
SERVE_SPMV_PER_STRUCTURE = 10_000


@dataclass(frozen=True)
class ServePlan:
    """Frozen pricing plan for one (matrix, device) serving context."""

    #: Full Table I matrix name.
    matrix: str
    #: Table I abbreviation (the engine's graph key).
    abbrev: str
    device: str
    #: Precision value string (``"single"`` / ``"double"``).
    precision: str
    scale: float
    #: Resolved format backing the graph (advisor output for ``auto``).
    format_name: str
    #: Why this format (advisor rationale, or "pinned").
    rationale: str
    n_rows: int
    #: Widest batch the tables price.
    k_max: int
    #: ``spmm_time_s[w-1]``: one width-``w`` SpMM, seconds.
    spmm_time_s: tuple[float, ...]
    #: ``vec_time_s[w-1]``: one width-``w`` vector-update kernel.
    vec_time_s: tuple[float, ...]
    #: ``form_time_s[w-1]``: forming a width-``w`` batch.
    form_time_s: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        for name in ("spmm_time_s", "vec_time_s", "form_time_s"):
            if len(getattr(self, name)) != self.k_max:
                raise ValueError(f"{name} must have k_max entries")

    def _check_width(self, w: int) -> None:
        if not 1 <= w <= self.k_max:
            raise ValueError(
                f"width {w} outside this plan's range [1, {self.k_max}]"
            )

    def cost_of_width(self, w: int) -> float:
        """Modelled cost of one width-``w`` power-method round, seconds.

        The table form of :func:`repro.apps.power_method.cost_of_width`
        at :data:`~repro.apps.power_method.DEFAULT_VECTOR_PASSES`: the
        same ``spmm + vec`` floats, so a
        :class:`~repro.apps.power_method.BatchBill` built from this
        function reproduces :func:`~repro.apps.power_method.
        bill_trajectory`'s total bit for bit.
        """
        self._check_width(w)
        return self.spmm_time_s[w - 1] + self.vec_time_s[w - 1]

    def formation_s(self, w: int) -> float:
        """Modelled cost of forming a width-``w`` batch, seconds."""
        self._check_width(w)
        return self.form_time_s[w - 1]


#: Session cache: plan key -> ServePlan.
_PLANS: dict[tuple, ServePlan] = {}

#: Session cache: operator key -> built SpMV format over the RWR operator.
_OPERATORS: dict[tuple, object] = {}


def clear_plan_cache() -> None:
    """Drop the in-session plan and operator caches (tests; disk
    entries survive)."""
    _PLANS.clear()
    _OPERATORS.clear()


def operator_format(
    matrix_key: str,
    format_name: str,
    precision: Precision = Precision.SINGLE,
    scale: float | None = None,
):
    """Build (or fetch) a format over one graph's RWR operator.

    The operator is the *column-normalised binarised adjacency* — the
    substochastic ``W`` of Equation 8 — not the raw corpus matrix, so
    the power iteration converges.  Cached per (matrix, format,
    precision, scale) for the session: the plan builder and every
    serving engine share one build.
    """
    spec = get_spec(matrix_key)
    s = spec.default_scale if scale is None else scale
    key = (spec.name, format_name, precision.value, round(s, 9))
    fmt = _OPERATORS.get(key)
    if fmt is None:
        adjacency = corpus_matrix(
            matrix_key, scale=s, precision=precision
        ).binarized()
        fmt = build_format(format_name, column_normalized(adjacency))
        _OPERATORS[key] = fmt
    return fmt


def _plan_key(
    name: str,
    device: DeviceSpec,
    precision: Precision,
    scale: float,
    format_name: str,
    k_max: int,
) -> tuple:
    return (
        name,
        device.name,
        precision.value,
        round(scale, 9),
        format_name,
        int(k_max),
    )


def _decode_plan(payload: dict) -> ServePlan:
    for name in ("spmm_time_s", "vec_time_s", "form_time_s"):
        payload[name] = tuple(payload[name])
    return ServePlan(**payload)


def _build_plan(
    matrix_key: str,
    device: DeviceSpec,
    precision: Precision,
    scale: float,
    format_name: str,
    k_max: int,
) -> ServePlan:
    """Cold path: advisor + simulator fill the cost tables."""
    spec = get_spec(matrix_key)
    if format_name == "auto":
        csr = corpus_matrix(matrix_key, scale=scale, precision=precision)
        rec = recommend(
            csr, Workload(spmv_per_structure=SERVE_SPMV_PER_STRUCTURE)
        )
        resolved, rationale = rec.format_name, rec.rationale
    else:
        resolved = format_name
        rationale = "format pinned by configuration"
    fmt = operator_format(matrix_key, resolved, precision, scale)
    n = fmt.n_rows
    spmm = [fmt.spmm_time_s(device, k=w) for w in range(1, k_max + 1)]
    # The 2*k_max vector-ops launches are independent, so evaluate them
    # as one batched array program (bit-identical to sequential calls).
    vec_works = [
        vector_ops_work(n * w, DEFAULT_VECTOR_PASSES, precision)
        for w in range(1, k_max + 1)
    ]
    form_works = [
        vector_ops_work(n * w, 1, precision) for w in range(1, k_max + 1)
    ]
    timings = simulate_many(device, vec_works + form_works)
    vec = [t.time_s for t in timings[:k_max]]
    form = [
        DEFAULT_LINK.transfer_time_s(w * SEED_ID_BYTES)
        + timings[k_max + w - 1].time_s
        for w in range(1, k_max + 1)
    ]
    return ServePlan(
        matrix=spec.name,
        abbrev=spec.abbrev,
        device=device.name,
        precision=precision.value,
        scale=scale,
        format_name=resolved,
        rationale=rationale,
        n_rows=n,
        k_max=int(k_max),
        spmm_time_s=tuple(spmm),
        vec_time_s=tuple(vec),
        form_time_s=tuple(form),
    )


def plan_for(
    matrix_key: str,
    device: DeviceSpec,
    precision: Precision = Precision.SINGLE,
    scale: float | None = None,
    format_name: str = "auto",
    k_max: int = DEFAULT_K_MAX,
) -> ServePlan:
    """The memoized serving plan for one (matrix, device) context.

    ``format_name="auto"`` routes through the Section IX advisor with a
    serving workload (many SpMVs per graph snapshot); any other value
    pins the format.  Cold calls build the format and run the simulator
    once per width; warm calls return the session- or disk-cached plan
    without simulating anything (the disk tier needs
    ``REPRO_CELL_CACHE``, same knob as the harness cell cache).
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    spec = get_spec(matrix_key)
    s = spec.default_scale if scale is None else scale
    key = _plan_key(spec.name, device, precision, s, format_name, k_max)
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    hashed = (SERVE_PLAN_VERSION, runner.DISK_CACHE_VERSION, key)
    plan = runner.load_disk_entry("serve-plan", hashed, _decode_plan)
    if plan is None:
        plan = _build_plan(matrix_key, device, precision, s, format_name, k_max)
        runner.store_disk_entry("serve-plan", hashed, asdict(plan))
    _PLANS[key] = plan
    return plan
