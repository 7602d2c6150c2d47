"""Span-structured profiler over recorded launches.

A :class:`Profiler` holds a tree of named spans.  Callers record each
launch explicitly — :meth:`Profiler.record` for a ready
:class:`~repro.obs.counters.CounterSet`, :meth:`Profiler.record_launch`
for the ``(work, timing)`` pair a timing model returned — into the
*current span*; nested ``with profiler.span("pagerank-iter", iter=3):``
blocks give the launch stream the shape of the computation — per app
iteration, per dynamic-pipeline epoch, per bin grid.  Nothing else
fills a profiler, so a profile totals exactly the modelled seconds its
caller billed.

The whole tree exports to JSONL / CSV / Chrome counter tracks via
:mod:`repro.obs.export`; the JSONL ``metrics`` line (launch totals, DRAM
bytes, flops, a launch-duration histogram) is derived from the recorded
launches when it is written (:func:`repro.obs.export.launch_metrics`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..gpu.device import DeviceSpec
from ..gpu.kernel import KernelWork
from ..gpu.simulator import KernelTiming
from .counters import CounterSet, aggregate, launch_counters


@dataclass
class Span:
    """One named region of the profiled computation."""

    name: str
    attrs: dict = field(default_factory=dict)
    #: Counter sets recorded directly inside this span (not in children).
    records: list[CounterSet] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)
    #: Optional explicit wall-time of the region; when ``None`` the span's
    #: duration is the summed ``time_s`` of everything recorded under it.
    duration_s: float | None = None

    def all_records(self) -> list[CounterSet]:
        """Every counter set under this span, depth-first."""
        out = list(self.records)
        for child in self.children:
            out.extend(child.all_records())
        return out

    def total(self) -> CounterSet | None:
        """Aggregate of everything under the span (``None`` if empty)."""
        records = self.all_records()
        if not records:
            return None
        return aggregate(records, name=self.name)

    @property
    def total_time_s(self) -> float:
        if self.duration_s is not None:
            return self.duration_s
        return sum((cs.time_s for cs in self.all_records()), 0.0)

    def walk(self, path: tuple[str, ...] = ()):
        """Yield ``(path, span)`` pairs depth-first, root included."""
        here = path + (self.name,)
        yield here, self
        for child in self.children:
            yield from child.walk(here)


class Profiler:
    """Collects spans + explicitly recorded counters::

        prof = Profiler("spmv")
        with prof.span("iter", i=0):
            prof.record_launch(device, work, simulate_kernel(device, work))
        print(prof.root.total())
    """

    def __init__(self, name: str = "profile") -> None:
        self.name = name
        self.root = Span(name=name)
        self._stack: list[Span] = [self.root]

    # -- span structure -------------------------------------------------
    @property
    def current(self) -> Span:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a nested named span; records inside land under it."""
        child = Span(name=name, attrs=dict(attrs))
        self.current.children.append(child)
        self._stack.append(child)
        try:
            yield child
        finally:
            popped = self._stack.pop()
            assert popped is child, "span stack corrupted"

    # -- recording ------------------------------------------------------
    def record(self, cs: CounterSet) -> CounterSet:
        """Attach a counter set to the current span."""
        self.current.records.append(cs)
        return cs

    def record_launch(
        self,
        device: DeviceSpec,
        work: KernelWork,
        timing: KernelTiming,
        **kwargs,
    ) -> CounterSet:
        """Derive counters from a (work, timing) pair and record them."""
        return self.record(launch_counters(device, work, timing, **kwargs))

    # -- results --------------------------------------------------------
    def all_records(self) -> list[CounterSet]:
        return self.root.all_records()

    def total(self) -> CounterSet | None:
        return self.root.total()

    # -- export (delegates; see repro.obs.export) -----------------------
    def to_jsonl(self, path, **meta):
        from .export import write_jsonl

        return write_jsonl(self, path, **meta)

    def to_csv(self, path):
        from .export import write_csv

        return write_csv(self.all_records(), path)

    def to_chrome_counters(self) -> dict:
        from .export import chrome_counter_trace

        return chrome_counter_trace(self.all_records(), name=self.name)
