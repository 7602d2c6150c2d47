"""Worker placement and stream-engine replay of a serve run.

Placement is deliberately simple and deterministic: every worker is one
GPU of a homogeneous pool, a sealed batch goes to the earliest-free
worker (ties to the lowest index), and starts at ``max(seal time,
worker free)``.  That is exactly the discipline a single-queue
multi-server system runs, so the modelled queueing behaviour is the
textbook one.

:func:`replay_engine` rebuilds a finished run on the
:class:`~repro.gpu.streams.StreamEngine` — one stream per worker, idle
gaps as zero-utilisation spans, formation and compute as fixed-duration
device spans — so ``repro serve-sim --trace`` emits a Chrome/Perfetto
timeline of the whole serving window, and the engine's makespan
cross-checks the event loop's.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
from ..gpu.streams import EngineResult, StreamEngine
from .queries import BatchRecord


class WorkerPool:
    """Earliest-free placement across identical GPU workers."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.free_at = [0.0] * n_workers

    @property
    def n_workers(self) -> int:
        """Number of workers in the pool."""
        return len(self.free_at)

    def min_free_at(self) -> float:
        """When the soonest worker frees (0.0 when one is idle)."""
        return min(self.free_at)

    def place(self, ready_s: float) -> tuple[int, float]:
        """Pick a worker for work ready at ``ready_s``.

        Returns ``(worker, start_s)``: the earliest-free worker (ties to
        the lowest index) and ``max(ready_s, its free time)``.  The
        caller must :meth:`commit` the placement to occupy the worker.
        """
        worker = min(range(len(self.free_at)), key=lambda i: self.free_at[i])
        return worker, max(ready_s, self.free_at[worker])

    def commit(self, worker: int, end_s: float) -> None:
        """Occupy ``worker`` until ``end_s``."""
        if not 0 <= worker < len(self.free_at):
            raise ValueError(f"worker {worker} outside the pool")
        if end_s < self.free_at[worker]:
            raise ValueError("workers run their batches in order")
        self.free_at[worker] = end_s


def replay_engine(
    device: DeviceSpec,
    n_workers: int,
    batches: tuple[BatchRecord, ...] | list[BatchRecord],
) -> EngineResult:
    """Replay placed batches onto a :class:`StreamEngine` timeline.

    One stream per worker on its own device instance; each batch becomes
    a formation span followed by a compute span at its placed start
    (idle gaps are zero-utilisation spans, so they contend with
    nothing).  The result's ``chrome_trace()`` renders in Perfetto and its
    ``duration_s`` reproduces the serve run's makespan.
    """
    engine = StreamEngine(tuple(device for _ in range(n_workers)))
    streams = [
        engine.stream(device=i, name=f"gpu{i}") for i in range(n_workers)
    ]
    cursor = [0.0] * n_workers
    for b in sorted(batches, key=lambda b: (b.start_s, b.batch_id)):
        s = streams[b.worker]
        gap = b.start_s - cursor[b.worker]
        if gap > 0:
            s.span("idle", gap, utilization=0.0)
        s.span(f"form/{b.graph}/b{b.batch_id}", b.formation_s)
        s.span(f"rwr-batch/{b.graph}/b{b.batch_id}[k={b.k}]", b.compute_s)
        cursor[b.worker] = b.end_s
    return engine.run()
