"""What the serve-run observers share.

:class:`~repro.serve.monitor.ServeMonitor` and
:class:`~repro.obs.tracing.QueryTracer` are both pure derivations over
one sealed :class:`~repro.serve.server.ServeResult` and its event log.
This module holds the pieces they have in common, once:

* :class:`RunObserver` — the one-run lifecycle (the engine hands the
  sealed result over exactly once);
* :func:`check_window` — validation of the window knobs;
* :class:`P99TailRule` — the rolling-p99 tail-sampling rule;
* :class:`WidthAttributions` — the per-``(graph, width)`` SpMM +
  vector-ops attribution cache;
* :func:`batch_timeline` — one batch's compute as a timeline.
"""

from __future__ import annotations

from ..apps.power_method import DEFAULT_VECTOR_PASSES, vector_ops_work
from .attribution import (
    Attribution,
    attribute_format,
    attribute_sequence,
    merge_attributions,
)
from .registry import WindowLog, check_finite_positive
from .timeline import Lane, LaneEvent, Timeline

__all__ = [
    "P99TailRule",
    "RunObserver",
    "WidthAttributions",
    "batch_timeline",
    "check_finite_positive",
    "check_window",
]


def check_window(window_s: float, n_buckets: int, p99_min_samples: int) -> None:
    """Reject window knobs no rolling window can be built from."""
    check_finite_positive("window_s", window_s)
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    if p99_min_samples < 1:
        raise ValueError("p99_min_samples must be >= 1")


class RunObserver:
    """Base of the observers: derived from one sealed ``ServeResult``.

    ``run_trace`` calls :meth:`_finalize` once, after the result exists;
    that is the only call an observer gets from the engine.
    """

    def __init__(self) -> None:
        self._result = None

    @property
    def finalized(self) -> bool:
        """Whether a run has handed this observer its result."""
        return self._result is not None

    def _finalize(self, result) -> None:
        self._result = result

    def _require_finalized(self) -> None:
        if not self.finalized:
            raise RuntimeError(
                f"{type(self).__name__} not finalized; "
                "attach it to run_trace first"
            )


class P99TailRule:
    """The tail-sampling rule: a completion above the rolling p99.

    Feed completions in ``(completion_s, rid)`` order.  Each one is
    checked against the windowed p99 of the completions before it, and
    only once ``min_samples`` of them sit in the window (the rule is
    then *armed*); after the check it joins :attr:`log`, the latency
    log of every completion fed so far.
    """

    def __init__(
        self, window_s: float, n_buckets: int, min_samples: int
    ) -> None:
        self.log = WindowLog(window_s, n_buckets)
        self.min_samples = min_samples

    def observe(
        self, t_s: float, latency_s: float, exemplar: object = None
    ) -> tuple[bool, float | None]:
        """``(is_tail, window_p99)``; the p99 is ``None`` until armed."""
        p99 = None
        if self.log.count(t_s) >= self.min_samples:
            p99 = self.log.quantile(0.99, t_s)
        self.log.append(t_s, latency_s, exemplar=exemplar)
        return p99 is not None and latency_s > p99, p99


class WidthAttributions:
    """Per-``(graph, width)`` attributions of one run, computed once.

    A served round of width ``w`` costs one ``w``-wide SpMM of the
    graph's format plus the batched vector ops; batches and requests
    are sums of such rounds.
    """

    def __init__(self, result) -> None:
        self._device = result.device
        self._formats = result.formats
        self._cache: dict[tuple[str, int], tuple] = {}

    def _rounds(self, graph: str, w: int) -> tuple:
        key = (graph, w)
        cached = self._cache.get(key)
        if cached is None:
            fmt = self._formats[graph]
            spmm = attribute_format(fmt, self._device, k=w)
            vec_work = vector_ops_work(
                fmt.n_rows * w, DEFAULT_VECTOR_PASSES, fmt.precision
            )
            vec = attribute_sequence(
                self._device, [vec_work], name=f"vector-ops[k={w}]"
            )
            cached = (spmm, vec)
            self._cache[key] = cached
        return cached

    def merged(
        self, graph: str, widths, *, name: str, time_s: float
    ) -> Attribution:
        """One round per width, merged and forced exact to ``time_s``."""
        parts: list[Attribution] = []
        for w in widths:
            parts.extend(self._rounds(graph, w))
        return merge_attributions(
            parts, name=name, device=self._device.name, time_s=time_s
        )


def batch_timeline(record, bill, device_name: str) -> Timeline:
    """Reconstruct one served batch's compute as a PR-5 timeline.

    One lane on the batch's worker, one event per run of equal-width
    rounds; event boundaries are the bill's own
    :meth:`~repro.apps.power_method.BatchBill.time_through_round`
    values, so the last boundary — and the timeline's ``time_s`` — is
    :attr:`~repro.apps.power_method.BatchBill.total_s` ==
    ``record.compute_s`` bit-for-bit.  Formation and queueing are
    billed *before* this span; the note carries them.
    """
    groups: list[list[int]] = []  # [width, first_round, last_round]
    for r, w in enumerate(bill.widths, start=1):
        if groups and groups[-1][0] == w:
            groups[-1][2] = r
        else:
            groups.append([w, r, r])
    events = []
    for w, r0, r1 in groups:
        start = bill.time_through_round(r0 - 1)
        end = bill.time_through_round(r1)
        events.append(
            LaneEvent(
                name=f"k={w} x{r1 - r0 + 1} rounds",
                start_s=start,
                duration_s=end - start,
                category="kernel",
            )
        )
    notes = (
        f"graph={record.graph} k={record.k}; closed {record.close_s * 1e3:.4f} ms,"
        f" started {record.start_s * 1e3:.4f} ms; formation"
        f" {record.formation_s * 1e6:.3f} us billed before this span"
    )
    return Timeline(
        name=f"serve/{record.graph}/batch-{record.batch_id}",
        device_name=device_name,
        source="serve-batch",
        time_s=bill.total_s,
        lanes=(Lane(label=f"worker{record.worker}", events=tuple(events)),),
        critical_lane=0,
        notes=notes,
    )
