"""Worker placement and the Chrome trace of a serve run.

Placement is deliberately simple and deterministic: every worker is one
GPU of a homogeneous pool, a sealed batch goes to the earliest-free
worker (ties to the lowest index), and starts at ``max(seal time,
worker free)``.  That is exactly the discipline a single-queue
multi-server system runs, so the modelled queueing behaviour is the
textbook one.

:func:`worker_chrome_trace` draws a finished run's placed batches as a
Chrome/Perfetto timeline — one lane per worker, with its idle gaps, batch
formations and batch computes — so ``repro serve-sim --trace`` shows the
whole serving window at the serve loop's own times.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
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


def worker_chrome_trace(
    device: DeviceSpec,
    n_workers: int,
    batches: tuple[BatchRecord, ...] | list[BatchRecord],
) -> dict:
    """Placed batches as a Chrome/Perfetto ``traceEvents`` document.

    Each worker is one lane (``pid`` the device, suffixed ``#worker`` on
    a multi-worker pool; ``tid`` ``stream <worker>``).  Each batch draws
    a ``form/...`` span from its start, then an ``rwr-batch/...[k=...]``
    span to its end, after an ``idle`` span over any gap since the
    worker's previous batch.  Events are complete (``"ph": "X"``) spans
    with ``ts``/``dur`` in microseconds, in finish order (ties by start,
    then worker).
    """
    pids = [
        device.name if n_workers == 1 else f"{device.name}#{i}"
        for i in range(n_workers)
    ]
    free_at = [0.0] * n_workers
    spans = []  # (end_s, start_s, worker, name)
    for b in sorted(batches, key=lambda b: (b.start_s, b.batch_id)):
        w = b.worker
        if b.start_s > free_at[w]:
            spans.append((b.start_s, free_at[w], w, "idle"))
        formed = b.start_s + b.formation_s
        spans.append((formed, b.start_s, w, f"form/{b.graph}/b{b.batch_id}"))
        spans.append(
            (b.end_s, formed, w, f"rwr-batch/{b.graph}/b{b.batch_id}[k={b.k}]")
        )
        free_at[w] = b.end_s
    # Stable on the first three fields: one worker's zero-length spans
    # keep their emission order.
    spans.sort(key=lambda s: s[:3])
    events = [
        {
            "name": name,
            "cat": "span",
            "ph": "X",
            "ts": start * 1e6,
            "dur": (end - start) * 1e6,
            "pid": pids[w],
            "tid": f"stream {w}",
            "args": {},
        }
        for end, start, w, name in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ns"}
