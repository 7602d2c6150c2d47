"""Request/outcome types of the serving layer.

A *query* is one tenant's Random-Walk-with-Restart request ("rank every
node around seed ``node`` on graph ``graph``").  The serving engine
turns admitted queries into :class:`CompletedQuery` outcomes carrying an
explicit modelled-latency decomposition — queue wait, batch formation,
and per-column SpMM compute — whose plain float sum *is* the reported
latency.  Load-shed queries become :class:`ShedQuery` outcomes with a
retry-after hint.  :class:`BatchRecord` describes one coalesced SpMM
batch as placed on a worker GPU.  :class:`BatchEvent` and
:class:`ShedEvent` are the entries of a run's event log: what the
engine knew at each batch close and each shed, frozen as it happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..apps.power_method import BatchBill


@dataclass(frozen=True)
class QueryRequest:
    """One tenant's RWR query against a registered graph."""

    #: Request id: position in the submitted trace (report order).
    rid: int
    tenant: str
    #: Registered graph key (Table I abbreviation, e.g. ``"WIK"``).
    graph: str
    #: Seed node of the walk.
    node: int
    #: Virtual-clock arrival time, seconds.
    arrival_s: float

    def __post_init__(self) -> None:
        if self.rid < 0:
            raise ValueError("rid must be non-negative")
        if self.node < 0:
            raise ValueError("seed node must be non-negative")
        if self.arrival_s < 0:
            raise ValueError("arrival time must be non-negative")


@dataclass(frozen=True)
class CompletedQuery:
    """An admitted query with its placement and modelled latency.

    ``latency_s`` is computed as ``queue_wait_s + formation_s +
    compute_s`` — a plain left-to-right float sum, so consumers can
    re-derive it exactly from the terms (the JSONL schema and the tests
    both do).
    """

    request: QueryRequest
    #: The coalesced batch this query rode in.
    batch_id: int
    #: Worker (GPU) index the batch ran on.
    worker: int
    #: Width of the batch at launch.
    k: int
    #: Power-method rounds until this query's column converged.
    iterations: int
    converged: bool
    #: Seconds from arrival until the batch hit its worker.
    queue_wait_s: float
    #: Modelled batch-formation cost (seed upload + block assembly).
    formation_s: float
    #: Modelled SpMM time until this query's column converged.
    compute_s: float
    #: ``queue_wait_s + formation_s + compute_s``, summed in that order.
    latency_s: float

    @property
    def completion_s(self) -> float:
        """Virtual-clock completion time (``arrival + latency``)."""
        return self.request.arrival_s + self.latency_s


@dataclass(frozen=True)
class ShedQuery:
    """A load-shed query with the admission controller's verdict."""

    request: QueryRequest
    #: Why admission refused: ``"queue-full"`` or ``"tenant-limit"``.
    reason: str
    #: Back-off hint for the client, seconds.
    retry_after_s: float


@dataclass(frozen=True)
class BatchRecord:
    """One coalesced SpMM batch as placed on a worker GPU."""

    batch_id: int
    graph: str
    worker: int
    #: Batch width (number of coalesced queries).
    k: int
    #: When the coalescer sealed the batch.
    close_s: float
    #: When the batch started on its worker (``>= close_s``).
    start_s: float
    #: Modelled formation cost charged before the first SpMM round.
    formation_s: float
    #: Modelled SpMM + vector time of the whole batch (the longest
    #: column's completion — :attr:`BatchBill.total_s`).
    compute_s: float
    #: When the worker freed: ``(start_s + formation_s) + compute_s``.
    end_s: float

    @property
    def duration_s(self) -> float:
        """Worker-occupancy span of the batch (``end - start``)."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class BatchEvent:
    """Event-log entry: one batch as the engine closed and billed it."""

    record: BatchRecord
    #: Power-method rounds per member (batch order).
    iterations: tuple[int, ...]
    #: The batch's bill: round widths and cumulative round times.
    bill: BatchBill
    #: Admission queue depth when the batch closed.
    queue_depth: int
    #: Queries still waiting in the graph's coalescer after the close.
    coalescer_pending: int
    #: The members' outcomes (batch order).
    completions: tuple[CompletedQuery, ...]


@dataclass(frozen=True)
class ShedEvent:
    """Event-log entry: one shed query and the queue depth it met."""

    outcome: ShedQuery
    queue_depth: int
