"""The power method behind the Section VI graph applications.

PageRank, HITS and RWR are all power methods: each iteration is one SpMV
plus a handful of length-n vector operations, repeated until the Euclidean
distance between successive iterates drops below ``epsilon`` ("Euclidean
distance was used as the convergence measure, with eps = 1e-6").

A run has two halves.  :func:`run_trajectory` is the numerics: it runs
``k`` starts at once as one ``k``-wide SpMM per round and returns a
:class:`Trajectory` (vectors, iterations and convergence flags).
:func:`bill_trajectory` is the modelled cost: :func:`make_batch_bill`
rebuilds the round widths from the iteration counts and prices each
width with :func:`cost_of_width`, the format's SpMM time plus a common
vector-update kernel (identical for every format, as on hardware where
axpy/norm kernels don't depend on the matrix layout).  The same
:func:`make_batch_bill` bills BFS and the serving tier, so every
iterative app is priced by one rule.  Every format multiplies through
its source CSR, so one trajectory serves every backend built over the
same matrix: Figure 6 and the dynamic pipeline run it once and bill it
per backend.

A single application run (:func:`~repro.apps.pagerank.pagerank`,
:func:`~repro.apps.hits.hits`, :func:`~repro.apps.rwr.rwr`) is the same
pair at ``k = 1``.  Each column's distance is the 1-D
``np.linalg.norm`` of that column's own contiguous float64 difference,
so a column's arithmetic never depends on the block around it: column
``j`` of a batch equals its ``k = 1`` run by construction, not by a
parallel implementation kept in step.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..formats.base import SpMVFormat
from ..gpu.device import DeviceSpec, WARP_SIZE
from ..gpu.kernel import CounterHints, KernelWork
from ..gpu.memory import coalesced_bytes
from ..gpu.simulator import simulate_kernel
from ..kernels.common import launch_for_threads

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..obs.counters import CounterSet
    from ..obs.profiler import Profiler

#: Paper's convergence threshold (Section VI-C).
DEFAULT_EPSILON = 1e-6

#: Safety cap on iterations for non-convergent inputs.
MAX_ITERATIONS = 10_000

#: Length-n array passes billed per iteration by the common vector-update
#: kernel (axpy + distance reduction).  The serving layer's cost tables
#: (:mod:`repro.serve.plans`) must price vector work with the same pass
#: count to stay byte-identical with the drivers here.
DEFAULT_VECTOR_PASSES = 5


def vector_ops_work(n: int, passes: int, precision) -> KernelWork:
    """One iteration's vector-update kernel (axpy + distance reduction).

    ``passes`` counts length-n array reads/writes; the work is identical
    for every SpMV format, so it never changes *relative* results.  All
    full warps are identical, so two weighted entries (full warps + the
    partial trailing warp) describe the launch in O(1) instead of O(n/32).
    """
    if n <= 0:
        return KernelWork.empty("vector-ops", precision)
    vb = precision.value_bytes
    n_warps = -(-n // WARP_SIZE)
    rem = n % WARP_SIZE
    if rem and n_warps > 1:
        counts = np.array([float(WARP_SIZE), float(rem)])
        weights = np.array([float(n_warps - 1), 1.0])
    elif rem:
        counts = np.array([float(rem)])
        weights = np.array([1.0])
    else:
        counts = np.array([float(WARP_SIZE)])
        weights = np.array([float(n_warps)])
    compute = counts / WARP_SIZE * 4.0 * passes
    dram = coalesced_bytes(counts * vb) * float(passes)
    return KernelWork(
        name="vector-ops",
        compute_insts=np.asarray(compute, dtype=np.float64),
        dram_bytes=np.asarray(dram, dtype=np.float64),
        mem_ops=np.ones(counts.shape[0], dtype=np.float64),
        flops=2.0 * n * passes,
        precision=precision,
        launch=launch_for_threads(n),
        warp_weights=weights,
        # Pure streaming kernel: every requested byte is payload.
        hints=CounterHints(useful_bytes=float(n) * vb * passes),
    )


def _iteration_counters(
    fmt: SpMVFormat,
    device: DeviceSpec,
    n_elements: int,
    vector_passes: int,
    k: int,
) -> tuple["CounterSet", ...]:
    """Counter sets billed once per iteration (SpMV/SpMM + vector kernel).

    The totals are the *same floats* the iteration bill uses
    (``spmm_time_s`` and the vector kernel's ``time_s``), so a profiled
    run's recorded device time equals ``modeled_time_s`` exactly.
    """
    from ..obs.counters import launch_counters, with_totals
    from ..obs.profile import profile_format

    spmv = profile_format(fmt, device, k=k).total
    vec = vector_ops_work(n_elements, vector_passes, fmt.precision)
    vec_cs = launch_counters(device, vec, simulate_kernel(device, vec))
    label = f"spmm[k={k}]" if k > 1 else "spmv"
    return (with_totals(spmv, name=label), vec_cs)


def batch_round_widths(iteration_counts) -> tuple[int, ...]:
    """Per-round SpMM widths of a batch with the given iteration counts.

    Column ``j`` participates in rounds ``1..iteration_counts[j]``, so the
    vector-block width of round ``r`` is ``#{j : iterations[j] >= r}``.
    This is exactly the shrinking-active-set schedule
    :func:`run_trajectory` runs, reconstructed from the per-column
    iteration counts alone — which is what lets every bill
    (:func:`make_batch_bill`) price a batch without re-running numerics.
    """
    its = np.asarray(iteration_counts, dtype=np.int64)
    if its.ndim != 1 or its.size < 1:
        raise ValueError("iteration_counts must be a non-empty 1-D sequence")
    if its.min() < 1:
        raise ValueError("every column runs at least one round")
    # width of round r = k - #{j : iterations[j] <= r - 1}, via the
    # cumulative histogram of iteration counts.
    cum = np.cumsum(np.bincount(its))
    widths = np.empty(int(its.max()), dtype=np.int64)
    widths[0] = its.size
    if widths.size > 1:
        widths[1:] = its.size - cum[1 : int(its.max())]
    return tuple(int(w) for w in widths)


@dataclass(frozen=True)
class BatchBill:
    """Width-grouped cost ledger of one batched power-method run.

    ``widths[r-1]`` is the SpMM width of round ``r``; ``round_cost_s[w]``
    the modelled cost of one width-``w`` round (SpMM + vector kernel),
    keyed in order of first appearance.  All totals are computed as
    ``count x per-round cost`` grouped by width — never as a running
    float sum over rounds — so :meth:`total_s` for ``k = 1`` equals
    ``iterations * round_cost`` bit-for-bit and
    :meth:`time_through_round` at the last round equals :meth:`total_s`
    exactly (identical terms, identical order).
    """

    widths: tuple[int, ...]
    round_cost_s: dict[int, float]

    def _grouped_sum(self, counts: dict[int, int]) -> float:
        return sum(
            counts[w] * cost
            for w, cost in self.round_cost_s.items()
            if w in counts
        )

    def _counts_through(self, round_no: int) -> dict[int, int]:
        counts: dict[int, int] = {}
        for w in self.widths[:round_no]:
            counts[w] = counts.get(w, 0) + 1
        return counts

    @property
    def total_s(self) -> float:
        """Modelled device seconds for the whole batch."""
        return self._grouped_sum(self._counts_through(len(self.widths)))

    def time_through_round(self, round_no: int) -> float:
        """Modelled seconds until the end of round ``round_no``.

        A column with ``iterations[j] == r`` completes at
        ``time_through_round(r)``; the longest column's value is exactly
        :attr:`total_s`.
        """
        if not 0 <= round_no <= len(self.widths):
            raise ValueError(f"round {round_no} outside the batch's schedule")
        return self._grouped_sum(self._counts_through(round_no))

    def column_times_s(self, iteration_counts) -> np.ndarray:
        """Per-column modelled completion times (float64 array).

        ``column_times_s(its)[j] == time_through_round(its[j])`` — the
        serving layer attributes each request's compute latency to the
        round in which its column converged.
        """
        its = np.asarray(iteration_counts, dtype=np.int64)
        memo: dict[int, float] = {}
        out = np.empty(its.shape[0], dtype=np.float64)
        for j, r in enumerate(its):
            r = int(r)
            if r not in memo:
                memo[r] = self.time_through_round(r)
            out[j] = memo[r]
        return out


def make_batch_bill(iteration_counts, cost_of_width) -> BatchBill:
    """Bill a batch schedule from iteration counts + a per-width cost fn.

    ``cost_of_width(w)`` must return the modelled cost of one width-``w``
    round; it is consulted once per distinct width, in order of first
    appearance.  This is the one bill constructor: :func:`bill_trajectory`
    (PageRank, HITS, RWR), :func:`~repro.apps.bfs.bfs` and the serving
    engine all total their runs here.
    """
    widths = batch_round_widths(iteration_counts)
    cost: dict[int, float] = {}
    for w in widths:
        if w not in cost:
            cost[w] = float(cost_of_width(w))
    return BatchBill(widths=widths, round_cost_s=cost)


@dataclass(frozen=True)
class PowerMethodResult:
    """Outcome of one application run with one SpMV backend."""

    vector: np.ndarray
    iterations: int
    converged: bool
    #: Modelled device seconds (SpMV + vector kernels), excluding data
    #: copies and format transformation, per the Figure 6 methodology.
    modeled_time_s: float

    @property
    def time_per_iteration_s(self) -> float:
        return self.modeled_time_s / max(1, self.iterations)


@dataclass(frozen=True)
class BatchPowerMethodResult:
    """Outcome of one *batched* application run (``k`` starts at once).

    Column ``j`` of ``vectors`` is bitwise identical to the ``k = 1`` run
    from ``X0[:, j]`` — the batch changes the modelled time (one SpMM
    amortises the matrix traffic over the active columns), never the
    numerics.
    """

    #: ``(n, k)`` — one solution per start vector.
    vectors: np.ndarray
    #: Per-column iteration counts.
    iterations: np.ndarray
    #: Per-column convergence flags (``False`` = diverged or hit the cap).
    converged: np.ndarray
    #: Modelled device seconds for the whole batch (SpMM + vector kernels
    #: over the shrinking active set).
    modeled_time_s: float
    #: Initial vector-block width of the batch.
    k: int
    #: Per-column modelled completion times: column ``j`` finishes at the
    #: end of its last round, ``column_times_s[j] <= modeled_time_s``,
    #: with equality for the longest-running column (bit-for-bit — both
    #: come from the same :class:`BatchBill`).  The serving layer uses
    #: these to attribute batch latency to individual requests.
    column_times_s: np.ndarray

    @property
    def max_iterations_run(self) -> int:
        """The longest column's iteration count (the batch's depth)."""
        return int(self.iterations.max()) if self.iterations.size else 0

    def single(self) -> PowerMethodResult:
        """A ``k = 1`` batch as the single run it is (its column 0)."""
        if self.k != 1:
            raise ValueError("only a k = 1 batch is a single run")
        return PowerMethodResult(
            vector=self.vectors[:, 0],
            iterations=int(self.iterations[0]),
            converged=bool(self.converged[0]),
            modeled_time_s=self.modeled_time_s,
        )


def validate_limits(epsilon: float, max_iterations: int) -> None:
    """Reject a stopping rule that cannot run: ``epsilon <= 0`` or fewer
    than one iteration."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")


def app_span(profiler: "Profiler | None", name: str, fmt, device, **attrs):
    """The app's profiler span (a no-op context without a profiler)."""
    if profiler is None:
        return nullcontext()
    return profiler.span(name, format=fmt.name, device=device.name, **attrs)


@dataclass(frozen=True)
class Trajectory:
    """The numerics of one batched power-method run, before any billing.

    A trajectory depends only on the operator and the start block: every
    format multiplies through its source CSR, so backends built over one
    matrix run the same iterates.  Run it once, then let each backend
    price it with :func:`bill_trajectory`.
    """

    #: ``(n, k)`` -- one solution per start vector.
    vectors: np.ndarray
    #: Per-column iteration counts.
    iterations: np.ndarray
    #: Per-column convergence flags (``False`` = diverged or hit the cap).
    converged: np.ndarray
    #: Length-n array passes of each round's vector update (the step's
    #: axpy + distance work), billed per round.
    vector_passes: int


def run_trajectory(
    fmt: SpMVFormat,
    X0: np.ndarray,
    step: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = MAX_ITERATIONS,
    vector_passes: int = DEFAULT_VECTOR_PASSES,
) -> Trajectory:
    """Iterate ``k`` power methods at once over a shrinking active set.

    ``X0`` has shape ``(n, k)``; ``step(X, AX, cols)`` receives the active
    columns of the iterate, their products, and the *original* column
    indices (so per-column terms like RWR's teleport can be selected), and
    must apply the single-column update column by column.  Each round is
    ONE ``k_active``-wide :meth:`~repro.formats.base.SpMVFormat.
    multiply_many`; columns leave the block as they converge, diverge or
    reach ``max_iterations``.  The block stays Fortran-ordered, so the
    product reads each column contiguously.

    Column ``j``'s distance is the 1-D ``np.linalg.norm`` of its own
    contiguous float64 difference, so it does not depend on which other
    columns share the block: column ``j`` of any batch equals the
    ``k = 1`` run from ``X0[:, j]`` in vector, iteration count and
    convergence flag by construction.
    """
    validate_limits(epsilon, max_iterations)
    X0 = np.asarray(X0)
    if X0.ndim != 2 or X0.shape[1] < 1:
        raise ValueError("X0 must be 2-D of shape (n, k) with k >= 1")
    k = X0.shape[1]
    vectors = np.array(X0, dtype=fmt.precision.numpy_dtype, order="F")
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    # The active columns live in one compact block, ``cols`` holding
    # their original indices; a column is copied out (and its counters
    # set) only in the round it leaves.
    cols = np.arange(k, dtype=np.int64)
    X = vectors
    X64 = np.asarray(X, dtype=np.float64)
    round_no = 0
    while cols.size:
        ka = int(cols.size)
        X_next = step(X, fmt.multiply_many(X), cols)
        X_next = np.asarray(X_next, dtype=X.dtype, order="F")
        round_no += 1
        next64 = np.asarray(X_next, dtype=np.float64)
        diff = np.subtract(next64, X64, order="F")
        dist = [float(np.linalg.norm(diff[:, j])) for j in range(ka)]
        X, X64 = X_next, next64
        # A non-finite distance means the column diverged (e.g. a
        # non-substochastic operator): it leaves rather than spinning to
        # the cap.  NaN compares false, so it leaves too.
        stay = [epsilon < d < math.inf for d in dist]
        if round_no < max_iterations and all(stay):
            continue
        stay = np.array(stay) & (round_no < max_iterations)
        left = cols[~stay]
        vectors[:, left] = X[:, ~stay]
        iterations[left] = round_no
        converged[left] = np.array(dist)[~stay] <= epsilon
        cols = cols[stay]
        X = np.asarray(X[:, stay], order="F")
        X64 = np.asarray(X, dtype=np.float64)
    return Trajectory(
        vectors=vectors,
        iterations=iterations,
        converged=converged,
        vector_passes=vector_passes,
    )


def cost_of_width(
    fmt: SpMVFormat,
    device: DeviceSpec,
    vector_passes: int = DEFAULT_VECTOR_PASSES,
) -> Callable[[int], float]:
    """``w -> `` modelled seconds of one width-``w`` round under ``fmt``.

    One round is ``fmt.spmm_time_s(device, k=w)`` plus the vector-update
    kernel over ``n * w`` elements, added in that order.  Every round
    bill prices through this function or holds its floats:
    :func:`bill_trajectory` (the apps, the dynamic pipeline and Figure 6)
    and :func:`~repro.apps.bfs.bfs` call it, and
    :meth:`repro.serve.plans.ServePlan.cost_of_width` returns the same
    sums from its tables.
    """
    n = fmt.n_rows

    def cost(w: int) -> float:
        spmm = fmt.spmm_time_s(device, k=w)
        vec = vector_ops_work(n * w, vector_passes, fmt.precision)
        return spmm + simulate_kernel(device, vec).time_s

    return cost


def bill_trajectory(
    traj: Trajectory,
    fmt: SpMVFormat,
    device: DeviceSpec,
    profiler: "Profiler | None" = None,
) -> BatchPowerMethodResult:
    """Price ``traj`` as run with ``fmt`` on ``device``.

    The bill is :func:`make_batch_bill` over the trajectory's iteration
    counts and :func:`cost_of_width`, so for ``k = 1`` the total is
    ``iterations * (spmv_s + vec_s)`` bit for bit.  ``profiler`` gets one
    ``iteration`` span per round with that round's SpMM and
    vector-kernel counters, derived once per width and replayed from the
    bill's widths.
    """
    bill = make_batch_bill(
        traj.iterations, cost_of_width(fmt, device, traj.vector_passes)
    )
    if profiler is not None:
        counters = {
            w: _iteration_counters(
                fmt, device, fmt.n_rows * w, traj.vector_passes, w
            )
            for w in bill.round_cost_s
        }
        for round_no, w in enumerate(bill.widths, start=1):
            with profiler.span("iteration", i=round_no, k_active=w):
                for cs in counters[w]:
                    profiler.record(cs)
    return BatchPowerMethodResult(
        vectors=traj.vectors,
        iterations=traj.iterations,
        converged=traj.converged,
        modeled_time_s=bill.total_s,
        k=traj.vectors.shape[1],
        column_times_s=bill.column_times_s(traj.iterations),
    )
