"""The dynamic-graph PageRank pipeline (Section VII / Figure 7).

The experiment: run PageRank to convergence, mutate 10% of the rows, run
PageRank again *warm-started* from the previous ranks, repeat for ``T``
epochs.  Per epoch, each backend pays:

* **ACSR** — ship only the change list, run the device-side update kernel,
  incrementally re-bin just the updated rows, iterate.  The full matrix
  is copied once, in epoch 0.
* **CSR** — apply the change on the host, re-copy the whole matrix,
  iterate.
* **HYB** — apply the change on the host, re-run the HYB transformation,
  re-copy the whole HYB data, iterate.

Warm restarts shrink iteration counts epoch over epoch, which makes the
fixed per-epoch overheads (copy, transform) proportionally heavier — the
reason Figure 7's speedups grow over time.

The ACSR change-list H2D copy runs on its own DMA channel, overlapping
the tail of the *previous* epoch's iteration kernels
(:func:`~repro.dynamic.dynamic_acsr.price_update` with ``overlap_s``) —
the copy is tiny, so it hides completely and only the
device-side update/re-bin kernels remain on the critical path.  CSR and
HYB re-copy the *whole* matrix the previous iterations are still
reading, so their epochs stay fully serialised and Figure 7's speedup
gap widens, as it does on hardware.

The run is epoch-major: each epoch generates its update, builds its
iteration matrix once, runs one warm-started PageRank trajectory on it,
and lets every backend bill that trajectory, each backend carrying its
own row lengths, re-binner and records.  Every format multiplies through
the iteration matrix, so the backends' iterates are identical and
computing them once per epoch changes no vector, iteration count or
modelled second.  Only the current adjacency snapshot and the current
iteration matrix (with the SpMV index its first multiply builds) are
alive; the previous epoch's are released before the next is built.  The
rng draws, and so every backend's records, are those of running each
backend alone.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..apps.pagerank import (
    DEFAULT_DAMPING,
    google_matrix,
    pagerank_trajectory,
)
from ..apps.power_method import app_span, bill_trajectory
from ..core.acsr import ACSRFormat
from ..formats.csr import CSRMatrix
from ..formats.csr_format import CSRFormat
from ..formats.hyb import HYBFormat
from ..gpu.device import DeviceSpec
from ..gpu.transfer import DEFAULT_LINK
from .dynamic_acsr import price_update
from .rebin import IncrementalBinning
from .updates import UpdateBatch, apply_update_to_csr, generate_update


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's cost breakdown for one backend."""

    epoch: int
    iterations: int
    #: Matrix maintenance: host transform + copies + update kernels.
    maintenance_s: float
    #: PageRank iteration time (modelled device seconds).
    iterate_s: float

    @property
    def total_s(self) -> float:
        return self.maintenance_s + self.iterate_s


@dataclass(frozen=True)
class DynamicRunResult:
    """Full pipeline trace for one backend."""

    backend: str
    epochs: tuple[EpochRecord, ...]

    @property
    def total_s(self) -> float:
        return sum(e.total_s for e in self.epochs)

    def cumulative_s(self) -> np.ndarray:
        return np.cumsum([e.total_s for e in self.epochs])


#: The backends :func:`run_dynamic_pagerank` can maintain.
BACKENDS = ("acsr", "csr", "hyb")


@dataclass
class _BackendState:
    """What one backend carries from one epoch to the next."""

    backend: str
    #: Row lengths of the iteration matrix the device holds (ACSR only).
    row_len: np.ndarray | None = None
    rebinner: IncrementalBinning | None = None
    records: list[EpochRecord] = field(default_factory=list)


def _maintain(
    state: _BackendState,
    epoch: int,
    matrix: CSRMatrix,
    batch: UpdateBatch | None,
    device: DeviceSpec,
):
    """Bring ``state``'s backend up to ``matrix``: its format for this
    epoch and the modelled maintenance seconds that cost."""
    link = DEFAULT_LINK
    maintenance = 0.0
    if state.backend == "acsr":
        if epoch == 0:
            # One-time full copy + binning scan.
            maintenance += link.transfer_time_s(
                matrix.device_bytes(), n_transfers=3
            )
            state.rebinner = IncrementalBinning.from_lengths(
                matrix.nnz_per_row
            )
        else:
            # The iteration matrix is derived from the adjacency; ship a
            # change list of the same magnitude and update the device
            # copy in place (numeric fidelity of that path is tested via
            # DynCSR directly).  The copy hides under the previous
            # epoch's iterations.
            rows = batch.rows
            maintenance += price_update(
                batch,
                state.row_len[rows],
                matrix.nnz_per_row[rows],
                state.rebinner,
                matrix.precision,
                device,
                link,
                overlap_s=state.records[-1].iterate_s,
            ).total_s
        state.row_len = matrix.nnz_per_row
        fmt = ACSRFormat.from_csr(matrix, device=device)
    elif state.backend == "csr":
        # Full matrix re-copy every epoch.
        maintenance += link.transfer_time_s(
            matrix.device_bytes(), n_transfers=3
        )
        fmt = CSRFormat.from_csr(matrix)
    else:
        fmt = HYBFormat.from_csr(matrix)
        # Host transform + full copy of the HYB data, every epoch.
        maintenance += fmt.preprocess.host_s
        maintenance += link.transfer_time_s(
            fmt.preprocess.device_bytes, n_transfers=4
        )
    return fmt, maintenance


def run_dynamic_pagerank(
    adjacency: CSRMatrix,
    device: DeviceSpec,
    n_epochs: int = 10,
    row_fraction: float = 0.1,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-6,
    seed: int = 7,
    backends: tuple[str, ...] = BACKENDS,
    profiler=None,
) -> dict[str, DynamicRunResult]:
    """Run the Figure 7 experiment and return per-backend traces.

    Every backend sees the *same* sequence of graph states (updates are
    generated once per epoch from the evolving adjacency matrix), so the
    iteration counts line up and only maintenance costs differ.  Epochs
    run in order.  Each epoch runs ONE PageRank trajectory on its shared
    iteration matrix, warm-started from the previous epoch's ranks, and
    every backend bills that trajectory with its own format beside its
    own maintenance bill, so a backend's records do not depend on which
    other backends run beside it.

    ``profiler`` (a :class:`repro.obs.Profiler`) records one ``epoch``
    span per backend epoch (attrs carry the backend name; the explicit
    ``duration_s`` includes maintenance, which has no kernel counters)
    with the per-iteration PageRank spans nested inside.
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    for backend in backends:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
    rng = np.random.default_rng(seed)
    states = [_BackendState(backend) for backend in backends]
    current = adjacency
    batch: UpdateBatch | None = None
    x0: np.ndarray | None = None
    for epoch in range(n_epochs):
        if epoch:
            batch = generate_update(current, rng, row_fraction=row_fraction)
            current = apply_update_to_csr(current, batch)
        # One iteration matrix and one trajectory per epoch, shared by
        # every backend and released before the next epoch's are built.
        matrix = google_matrix(current)
        traj = None
        for state in states:
            fmt, maintenance = _maintain(state, epoch, matrix, batch, device)
            if traj is None:
                # Every format multiplies through ``matrix``, so the
                # first backend's format computes everyone's iterates.
                traj = pagerank_trajectory(
                    fmt, damping=damping, epsilon=epsilon, x0=x0
                )
            scope = (
                profiler.span("epoch", backend=state.backend, epoch=epoch)
                if profiler is not None
                else nullcontext()
            )
            with scope as sp:
                with app_span(profiler, "pagerank", fmt, device):
                    res = bill_trajectory(traj, fmt, device, profiler).single()
                if sp is not None:
                    # Explicit duration: maintenance (copies, host
                    # transform, update kernels) has no per-launch
                    # counters of its own.
                    sp.duration_s = maintenance + res.modeled_time_s
                    sp.attrs["maintenance_s"] = maintenance
                    sp.attrs["iterations"] = res.iterations
            state.records.append(
                EpochRecord(
                    epoch=epoch,
                    iterations=res.iterations,
                    maintenance_s=maintenance,
                    iterate_s=res.modeled_time_s,
                )
            )
            del fmt
        x0 = traj.vectors[:, 0]
        del matrix
    return {
        state.backend: DynamicRunResult(
            backend=state.backend, epochs=tuple(state.records)
        )
        for state in states
    }


def epoch_speedups(
    results: dict[str, DynamicRunResult], baseline: str, target: str = "acsr"
) -> np.ndarray:
    """Per-epoch speedup of ``target`` over ``baseline`` (Figure 7 bars)."""
    base = results[baseline].epochs
    tgt = results[target].epochs
    if len(base) != len(tgt):
        raise ValueError("backends ran different epoch counts")
    return np.array(
        [b.total_s / t.total_s for b, t in zip(base, tgt)]
    )
