"""Multi-GPU execution model."""

import numpy as np
import pytest

from repro.gpu.device import TESLA_K10
from repro.gpu.kernel import KernelWork
from repro.gpu.multi import MultiGPUContext, SYNC_OVERHEAD_S
from repro.gpu.simulator import simulate_sequence


def work(n=100, dram=1024.0):
    return KernelWork(
        name="w",
        compute_insts=np.full(n, 10.0),
        dram_bytes=np.full(n, dram),
        mem_ops=np.full(n, 2.0),
        flops=100.0,
    )


class TestContext:
    def test_of_builds_identical_devices(self):
        ctx = MultiGPUContext.of(TESLA_K10, 2)
        assert ctx.n_devices == 2
        assert ctx.devices[0] is ctx.devices[1]

    def test_rejects_zero_devices(self):
        with pytest.raises(ValueError):
            MultiGPUContext.of(TESLA_K10, 0)
        with pytest.raises(ValueError):
            MultiGPUContext(devices=())


class TestRun:
    def test_single_gpu_no_sync(self):
        ctx = MultiGPUContext.of(TESLA_K10, 1)
        t = ctx.run([[work()]])
        assert t.sync_overhead_s == 0.0

    def test_dual_gpu_pays_sync(self):
        ctx = MultiGPUContext.of(TESLA_K10, 2)
        t = ctx.run([[work()], [work()]])
        assert t.sync_overhead_s == SYNC_OVERHEAD_S

    def test_time_is_max_plus_sync(self):
        ctx = MultiGPUContext.of(TESLA_K10, 2)
        t = ctx.run([[work(10)], [work(10_000, dram=4096.0)]])
        slow = t.per_device[1].time_s
        assert t.time_s == pytest.approx(slow + SYNC_OVERHEAD_S)

    def test_wrong_worklist_count_rejected(self):
        ctx = MultiGPUContext.of(TESLA_K10, 2)
        with pytest.raises(ValueError, match="expected 2"):
            ctx.run([[work()]])

    def test_balanced_split_scales(self):
        """Halving a big workload across 2 GPUs beats one GPU."""
        big = work(20_000, dram=4096.0)
        half = work(10_000, dram=4096.0)
        one = MultiGPUContext.of(TESLA_K10, 1).run([[big]])
        two = MultiGPUContext.of(TESLA_K10, 2).run([[half], [half]])
        assert one.time_s / two.time_s > 1.5


class TestEngineReproduction:
    """run() is the closed form: the slowest device's sequence plus one
    sync on a board of two or more."""

    def test_matches_sequence_model_exactly(self):
        works = [
            [work(10), work(50), work(3000, dram=2048.0)],
            [work(10_000, dram=4096.0)],
        ]
        t = MultiGPUContext.of(TESLA_K10, 2).run(works)
        expected = (
            max(
                simulate_sequence(TESLA_K10, ws).time_s for ws in works
            )
            + SYNC_OVERHEAD_S
        )
        assert t.time_s == expected

    def test_per_device_timings_match_standalone(self):
        ws = [work(10), work(500)]
        t = MultiGPUContext.of(TESLA_K10, 2).run([ws, [work(20)]])
        assert t.per_device[0] == simulate_sequence(TESLA_K10, ws)
