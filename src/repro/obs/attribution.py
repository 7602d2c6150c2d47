"""Critical-path attribution: decompose modelled time into named causes.

Every launch the roofline simulator times is ``max(compute, memory,
latency) + overhead`` — a verdict, not an explanation.  This module turns
the verdict into a waterfall of *named contributions* that sum **exactly**
(bit-for-bit, in IEEE double) to the modelled time:

``ideal``
    What the launch would cost with perfectly balanced warps, perfectly
    coalesced traffic, and saturated bandwidth — the roofline floor.
``coalescing``
    Extra time from DRAM bytes moved but never asked for (sector waste,
    ELL padding), excluding texture misses.
``tex_miss``
    Extra time from texture-cache miss re-fetches on the ``x[col]``
    gather stream (kernels that declare ``tex_miss_bytes``).
``bw_occupancy``
    Extra time because too few resident warps kept DRAM from saturating
    (the ``bandwidth_efficiency`` degradation).
``tail_warp``
    Extra time because warp work is skewed: the busiest SM over the
    balanced-SM ideal, plus the straggler warp's dependent chain over the
    *mean* warp's chain.  This is the cost ACSR's binning removes.
``latency``
    Dependent-chain cost every warp pays even at perfect balance (the
    mean warp's exposed-latency chain when it exceeds the throughput
    bounds).
``launch_overhead`` / ``dp_serialization`` / ``pcie`` / ``sync``
    Host launch bill, device-side child-enqueue time beyond the pool,
    PCIe transfer time, and cross-stream/device synchronisation.

The decomposition is a telescoping walk over roofline breakpoints, so
every term is non-negative by construction; a final fix-point nudge on
the ``ideal`` term forces the left-to-right float sum to equal the
model's ``time_s`` exactly — the invariant the tests enforce on every
device.  Attribution only *reads* frozen timings, so enabling it can
never change a modelled time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..gpu.device import INDEX_BYTES, DeviceSpec
from ..gpu.kernel import KernelWork
from ..gpu.simulator import KernelTiming, simulate_kernel, warp_chain_detail

#: Canonical term order — also the summation order of the exactness
#: invariant ``fl(Σ terms) == time_s``.  Append-only for compatibility.
TERM_ORDER = (
    "ideal",
    "coalescing",
    "tex_miss",
    "bw_occupancy",
    "tail_warp",
    "latency",
    "launch_overhead",
    "dp_serialization",
    "pcie",
    "sync",
)


def _zero_terms() -> dict[str, float]:
    """A fresh all-zero term dict in canonical order."""
    return {name: 0.0 for name in TERM_ORDER}


def _force_exact(
    terms: dict[str, float],
    target: float,
    adjust: str = "ideal",
    order: tuple[str, ...] | None = None,
) -> dict[str, float]:
    """Nudge ``terms[adjust]`` until the ``order``-order float sum equals
    ``target`` bit-for-bit (``order`` defaults to :data:`TERM_ORDER`).

    The additive fix-point converges in one or two steps in practice; a
    bisection fallback handles the corners where the fix-point
    oscillates (the correction is smaller than the adjusted term's ulp,
    or the sum jumps two ulps per step of the term).
    """
    names = TERM_ORDER if order is None else tuple(order)

    def total() -> float:
        s = 0.0
        for name in names:
            s += terms[name]
        return s

    def nudge(name: str) -> bool:
        for _ in range(100):
            s = total()
            if s == target:
                return True
            terms[name] += target - s
        # The fix-point oscillates; the sum is monotone non-decreasing
        # in any single term, so bisect the term value onto the target.
        orig = terms[name]

        def sum_at(x: float) -> float:
            terms[name] = x
            return total()

        s0 = sum_at(orig)
        if s0 == target:
            return True
        up = s0 < target
        step = max(abs(target - s0), math.ulp(orig), math.ulp(target))
        lo = hi = orig
        for _ in range(200):  # widen until the target is straddled
            if up:
                hi = orig + step
                if sum_at(hi) >= target:
                    break
            else:
                lo = orig - step
                if sum_at(lo) <= target:
                    break
            step *= 2.0
        else:
            terms[name] = orig
            return False
        while True:
            mid = lo + (hi - lo) / 2.0
            if mid == lo or mid == hi:
                break
            if sum_at(mid) < target:
                lo = mid
            else:
                hi = mid
        for x in (lo, hi):
            if sum_at(x) == target:
                return True
        # The crossing skipped the target at this summation position.
        terms[name] = orig
        return False

    if nudge(adjust):
        return terms
    # The sum can straddle ``target`` without landing on it for one
    # particular adjusted position (a 2-ulp rounding jump); a term at a
    # different position in the sum rounds differently, so retry.
    for name in sorted(names, key=lambda n: -abs(terms[n])):
        if name != adjust and nudge(name):
            return terms
    return terms


def force_exact_sum(
    terms: dict[str, float],
    target: float,
    *,
    adjust: str = "ideal",
    order: tuple[str, ...] | None = None,
) -> dict[str, float]:
    """Public wrapper around the exactness fix-point used by attribution.

    Returns ``terms`` (mutated in place) nudged on ``terms[adjust]`` so
    that summing the values in ``order`` left to right equals ``target``
    bit-for-bit.  ``order`` defaults to :data:`TERM_ORDER`; callers with
    extra leading terms (the trace explain table prepends ``queue_wait``
    and ``formation``) pass their own order.
    """
    return _force_exact(terms, target, adjust=adjust, order=order)


@dataclass(frozen=True)
class Attribution:
    """A named decomposition of one modelled time.

    ``terms`` carries every :data:`TERM_ORDER` name exactly once, in
    order; summing the values left to right reproduces ``time_s``
    bit-for-bit (the exactness invariant).
    """

    name: str
    device: str
    time_s: float
    terms: tuple[tuple[str, float], ...]

    def term(self, name: str) -> float:
        """The seconds attributed to ``name`` (0.0 for absent causes)."""
        for key, value in self.terms:
            if key == name:
                return value
        raise KeyError(name)

    def as_dict(self) -> dict[str, float]:
        """The terms as an ordered dict (canonical order preserved)."""
        return dict(self.terms)

    def nonzero(self) -> tuple[tuple[str, float], ...]:
        """Only the terms that carry time (ideal always included)."""
        return tuple(
            (k, v) for k, v in self.terms if v != 0.0 or k == "ideal"
        )

    def check_exact(self) -> bool:
        """Whether the canonical-order float sum equals ``time_s``."""
        s = 0.0
        for _, v in self.terms:
            s += v
        return s == self.time_s

    def render(self) -> str:
        """A one-screen waterfall table (microseconds and shares)."""
        lines = [
            f"attribution: {self.name} @ {self.device} — "
            f"{self.time_s * 1e6:.3f} us"
        ]
        for key, value in self.nonzero():
            share = value / self.time_s if self.time_s > 0 else 0.0
            bar = "#" * max(0, int(round(32 * max(0.0, share))))
            lines.append(
                f"  {key:<16} {value * 1e6:>10.3f} us {share:>7.1%} {bar}"
            )
        return "\n".join(lines)


def _from_terms(
    name: str, device_name: str, terms: dict[str, float], target: float
) -> Attribution:
    """Freeze a term dict into an exactness-forced :class:`Attribution`."""
    forced = _force_exact(terms, target)
    return Attribution(
        name=name,
        device=device_name,
        time_s=target,
        terms=tuple((k, forced[k]) for k in TERM_ORDER),
    )


def _useful_bytes(work: KernelWork, dram_bytes: float) -> float:
    """Ideal payload bytes, mirroring the counter layer's convention.

    Hints win; otherwise the SpMV-shaped ``flops/(2k)`` estimate; a launch
    with traffic but no derivable payload counts as all-useful (nothing
    to attribute waste against), exactly like
    ``CounterSet.gld_coalescing_ratio``.
    """
    if work.hints is not None and work.hints.useful_bytes is not None:
        return min(work.hints.useful_bytes, dram_bytes)
    elements = work.flops / (2.0 * max(1, work.k))
    useful = elements * (work.precision.value_bytes + INDEX_BYTES)
    if useful <= 0:
        return dram_bytes
    return min(useful, dram_bytes)


def attribute_launch(
    device: DeviceSpec, work: KernelWork, timing: KernelTiming
) -> Attribution:
    """Decompose one launch's modelled time into named contributions.

    ``work`` and ``timing`` must be the pair one ``simulate_kernel`` call
    consumed and produced (same contract as
    :func:`~repro.obs.counters.launch_counters`).  The walk visits
    roofline breakpoints from the ideal floor to the full model — each
    difference of maxima is non-negative — and the terms float-sum to
    ``timing.time_s`` exactly.
    """
    terms = _zero_terms()
    terms["launch_overhead"] = timing.launch_overhead_s
    if timing.n_warps == 0 or work.total_insts == 0:
        return _from_terms(timing.name, device.name, terms, timing.time_s)

    clock_hz = device.clock_ghz * 1e9
    c1 = timing.compute_s
    m3 = timing.memory_s
    l_max = timing.critical_path_s

    chain_cycles, counts, insts = warp_chain_detail(device, work)
    total_w = float(counts.sum())
    # Balanced compute: every SM dealt an equal share of the (DP-inflated)
    # instruction stream.
    c0 = (
        float(np.sum(insts * counts))
        / device.num_sms
        / device.warp_issue_rate
        / clock_hz
    )
    c0 = min(c0, c1)
    # Mean warp's dependent chain — the latency floor a perfectly
    # balanced launch still pays.
    l_mean = (
        float(np.sum(chain_cycles * counts)) / total_w / clock_hz
        if total_w > 0
        else 0.0
    )
    l_mean = min(l_mean, l_max)

    dram = timing.dram_bytes
    peak_raw = device.dram_bandwidth_gbps * 1e9
    useful = _useful_bytes(work, dram)
    waste = max(0.0, dram - useful)
    tex_declared = (
        work.hints.tex_miss_bytes
        if work.hints is not None and work.hints.tex_miss_bytes is not None
        else 0.0
    )
    tex_excess = min(waste, tex_declared)
    coal_waste = waste - tex_excess
    m0 = useful / peak_raw
    m1 = (useful + coal_waste) / peak_raw
    m2 = dram / peak_raw
    # Monotone chain m0 <= m1 <= m2 <= m3; m3 stays the model's own float.
    m2 = min(m2, m3)
    m1 = min(m1, m2)
    m0 = min(m0, m1)

    t0 = max(c0, m0)
    t1 = max(c0, m1)
    t2 = max(c0, m2)
    t3 = max(c0, m3)
    t4 = max(c1, m3)
    t5a = max(c1, m3, l_mean)
    t5b = max(c1, m3, l_max)

    terms["ideal"] = t0
    terms["coalescing"] = t1 - t0
    terms["tex_miss"] = t2 - t1
    terms["bw_occupancy"] = t3 - t2
    # Skew shows up twice: the busiest SM outruns the balanced-SM ideal,
    # and the straggler warp's chain outruns the mean warp's chain.
    terms["tail_warp"] = (t4 - t3) + (t5b - t5a)
    terms["latency"] = t5a - t4
    return _from_terms(timing.name, device.name, terms, timing.time_s)


def merge_attributions(
    parts: list[Attribution],
    *,
    name: str,
    device: str,
    time_s: float,
    extra: dict[str, float] | None = None,
) -> Attribution:
    """Term-wise sum of ``parts`` (plus ``extra`` contributions), forced
    exact against an externally supplied total ``time_s``.

    Used wherever a model's total is not the plain float-sum of its
    launches (ACSR's overlapped enqueue window and host launch bill).
    """
    terms = _zero_terms()
    for key in TERM_ORDER:
        s = 0.0
        for part in parts:
            s += part.term(key)
        terms[key] = s
    if extra:
        for key, value in extra.items():
            terms[key] += value
    return _from_terms(name, device, terms, time_s)


def attribute_sequence(
    device: DeviceSpec,
    works: list[KernelWork],
    *,
    name: str = "sequence",
) -> Attribution:
    """Attribute a back-to-back launch sequence.

    The target total is the same left-to-right float sum
    ``SequenceTiming.time_s`` computes, so the result agrees with
    ``fmt.spmv_time_s`` / ``spmm_time_s`` bit-for-bit.
    """
    pairs = [(w, simulate_kernel(device, w)) for w in works]
    parts = [attribute_launch(device, w, t) for w, t in pairs]
    target = sum(t.time_s for _, t in pairs)
    return merge_attributions(
        parts, name=name, device=device.name, time_s=target
    )


def attribute_format(
    fmt, device: DeviceSpec, *, k: int = 1
) -> Attribution:
    """Attribute one SpMV (``k=1``) or ``k``-wide SpMM of a format.

    Walks the format's :meth:`~repro.formats.base.SpMVFormat.modelled_run`
    launch by launch, then adds the host launch bill and the DP enqueue
    window's excess over the launches (both 0.0 for a sequence, whose
    timings carry their own launch overhead).  The attribution's
    ``time_s`` is the format's own modelled time, bit-for-bit.
    """
    run = fmt.modelled_run(device, k=k)
    parts = [attribute_launch(device, w, t) for w, t in run.launches]
    body = sum(t.time_s for _, t in run.launches)
    return merge_attributions(
        parts,
        name=f"{fmt.name}" + (f"[k={k}]" if k > 1 else ""),
        device=device.name,
        time_s=run.time_s,
        extra={
            "launch_overhead": run.launch_s,
            "dp_serialization": max(body, run.enqueue_s) - body,
        },
    )
