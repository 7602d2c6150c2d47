"""Batched simulation ≡ sequential: every field, every device, byte for byte."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu.device import DEVICES, Precision
from repro.gpu.kernel import KernelWork
from repro.gpu.simulator import KernelTiming, simulate_kernel, simulate_many

TIMING_FIELDS = tuple(f.name for f in dataclasses.fields(KernelTiming))


def build_works(seed: int, n_works: int, weighted: bool) -> list[KernelWork]:
    """Random launch sequence; small value pools force duplicate entries."""
    rng = np.random.default_rng(seed)
    works = []
    for i in range(n_works):
        n = int(rng.integers(1, 60))
        pool = rng.uniform(1.0, 1e4, (max(1, n // 3), 3))
        pick = rng.integers(0, pool.shape[0], n)
        weights = (
            rng.integers(1, 500, n).astype(np.float64) if weighted else None
        )
        works.append(
            KernelWork(
                name=f"w{i}",
                compute_insts=pool[pick, 0].copy(),
                dram_bytes=pool[pick, 1].copy(),
                mem_ops=pool[pick, 2].copy(),
                flops=float(rng.uniform(1.0, 1e9)),
                precision=Precision.DOUBLE if i % 2 else Precision.SINGLE,
                warp_weights=weights,
                k=1 + int(rng.integers(0, 8)),
            )
        )
    return works


@given(
    seed=st.integers(0, 10_000),
    n_works=st.integers(1, 12),
    weighted=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_simulate_many_equals_sequential(seed, n_works, weighted):
    """Property (all three devices): batched ≡ per-launch, all fields."""
    for device in DEVICES.values():
        # Two structurally identical sequences so the batched run cannot
        # reuse canonical forms cached by the sequential run (or vice
        # versa) — each path canonicalises from scratch.
        solo = build_works(seed, n_works, weighted)
        batch = build_works(seed, n_works, weighted)
        expected = [simulate_kernel(device, w) for w in solo]
        got = simulate_many(device, batch)
        assert len(got) == len(expected)
        for t_got, t_exp in zip(got, expected):
            for field in TIMING_FIELDS:
                assert getattr(t_got, field) == getattr(t_exp, field), field


def test_include_launch_overhead_forwarded():
    device = next(iter(DEVICES.values()))
    works = build_works(7, 3, False)
    bare = simulate_many(device, works, include_launch_overhead=False)
    assert all(t.launch_overhead_s == 0.0 for t in bare)


def test_empty_sequence():
    device = next(iter(DEVICES.values()))
    assert simulate_many(device, []) == []
