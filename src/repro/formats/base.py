"""Format base classes: preprocessing accounting + the SpMV entry point.

Every sparse format in this package answers three questions the paper's
evaluation asks:

1. *what does it cost to build you from CSR?* — :class:`PreprocessReport`
   (host transform + tuning + transfer), the quantity of Figure 4 and the
   ``PT`` term of Equations 2–4;
2. *what is your SpMV result?* — ``multiply``, the same for every
   format: each keeps a reference to its source CSR and multiplies
   through its one kernel (:meth:`~repro.formats.csr.CSRMatrix.matmat`,
   sequential float64 per row, tested against a ``math.fsum`` oracle).
   Layouts differ in what a launch costs, never in the product;
3. *what does one SpMV cost on a device?* — ``kernel_works`` feeding the
   simulator, the ``ST`` term.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.simulator import KernelTiming, simulate_many
from ..gpu.transfer import DEFAULT_LINK, PCIeLink
from .csr import CSRMatrix


class FormatCapacityError(RuntimeError):
    """The format cannot represent this matrix within sane memory bounds.

    Corresponds to the ``∅`` cells of Tables III/IV ("the format is not
    able to handle the matrix due to memory limitation").
    """


@dataclass(frozen=True)
class PreprocessReport:
    """Everything a format spent before its first SpMV could run.

    Accounting follows Figure 4: all formats start from CSR data already
    resident on the device, so ``total_s`` (the paper's ``PT``) counts the
    *transformation* — host transform + tuning + device-side scans — and
    NOT the baseline copy.  ``transfer_s`` records the cost of shipping
    this format's own arrays, which the dynamic-graph pipeline
    (Section VII) charges every epoch for formats that must re-copy.
    """

    format_name: str
    #: Host-side transformation time (scans, sorts, packing), seconds.
    host_s: float
    #: Host->device copy of the format's data, seconds.
    transfer_s: float
    #: Auto-tuning time that scales with the matrix (transforms, trial
    #: runs), seconds.
    tuning_s: float = 0.0
    #: Auto-tuning time that does NOT scale with the matrix (per-config
    #: kernel compiles), seconds.  Kept separate so the harness can
    #: extrapolate analog-scale measurements to paper scale.
    tuning_fixed_s: float = 0.0
    #: Device-side preprocessing kernels (ACSR's binning scan), seconds.
    device_s: float = 0.0
    #: Device memory footprint of the format's data, bytes.
    device_bytes: int = 0
    #: Fraction of stored entries that are padding (HYB averages ~33%).
    padding_fraction: float = 0.0
    notes: str = ""

    def __post_init__(self) -> None:
        for name in (
            "host_s",
            "transfer_s",
            "tuning_s",
            "tuning_fixed_s",
            "device_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.padding_fraction <= 1.0:
            raise ValueError("padding_fraction must be in [0, 1]")

    @property
    def total_s(self) -> float:
        """The paper's ``PT``: transformation + tuning (transfer excluded)."""
        return self.host_s + self.tuning_s + self.tuning_fixed_s + self.device_s

    def scalable_s(self) -> float:
        """The portion of ``PT`` that grows with matrix size."""
        return self.host_s + self.tuning_s + self.device_s


def check_width(k) -> int:
    """``k`` as a vector-block width: an integer (NumPy integers too), >= 1."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(
            f"vector-block width k must be an integer >= 1, got {k!r}"
        )
    return int(k)


@dataclass(frozen=True)
class ModelledRun:
    """One modelled SpMV (``k=1``) or ``k``-wide SpMM of a format.

    The one source of a format's launches and time: the entry points
    (``spmv_time_s``, ``spmm_time_s``, ``run_spmv``, ``run_spmm``) and
    the profile, attribution and timeline views all read it.

    A back-to-back sequence lists one ``(work, timing)`` pair per launch,
    each timing carrying its own launch overhead, and ``time_s`` is their
    left-to-right sum.  A model whose launches overlap (ACSR's G2 bin
    grids, DP parent and DP children) lists its one pooled pair, priced
    without launch overhead, behind a separate host launch bill and
    beside the device-side child-enqueue window:
    ``time_s = launch_s + max(pool, enqueue_s)``.
    """

    #: ``(work, timing)`` of each launch, in launch order.
    launches: tuple[tuple[KernelWork, KernelTiming], ...]
    #: The modelled time, seconds (the paper's ``ST``).
    time_s: float
    #: Host launch bill paid before the launches run, seconds; 0.0 for a
    #: sequence, whose timings carry their own launch overhead.
    launch_s: float = 0.0
    #: Host launches that bill covers.
    host_launches: int = 0
    #: Device-side DP child-enqueue window, overlapped with the launches.
    enqueue_s: float = 0.0
    #: DP child grids the run enqueues.
    dp_children: int = 0
    #: Of those, the ones past the device's pending-launch cap.
    dp_overflow: int = 0

    @property
    def pooled(self) -> bool:
        """Whether the launches overlap behind a separate host launch bill."""
        return self.launch_s > 0.0

    @property
    def timings(self) -> tuple[KernelTiming, ...]:
        return tuple(t for _, t in self.launches)

    @property
    def flops(self) -> float:
        return sum(w.flops for w, _ in self.launches)


@dataclass(frozen=True)
class SpMVResult:
    """One SpMV's numeric output plus its modelled execution time."""

    y: np.ndarray
    time_s: float
    timings: tuple[KernelTiming, ...]
    flops: float

    @property
    def gflops(self) -> float:
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0


@dataclass(frozen=True)
class SpMMResult:
    """One batched SpMM's numeric output plus its modelled execution time.

    ``Y`` has shape ``(n_rows, k)``: column ``j`` is ``A @ X[:, j]``.  The
    modelled time covers ONE batched launch sequence over all ``k``
    vectors, not ``k`` sequential SpMVs — comparing ``time_s`` against
    ``k * spmv_time_s`` gives the amortisation win.
    """

    Y: np.ndarray
    time_s: float
    timings: tuple[KernelTiming, ...]
    flops: float
    #: Vector-block width of the batch.
    k: int

    @property
    def gflops(self) -> float:
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0


class SpMVFormat(abc.ABC):
    """A sparse-matrix layout: its launch geometry, cost and build bill.

    Subclasses are built with :meth:`from_csr` and are immutable
    afterwards.  Construction must set ``self.csr`` (the source matrix,
    which every numeric product goes through) and ``self.preprocess``.
    """

    #: Registry name, e.g. ``"hyb"``.
    name: str = "abstract"

    csr: CSRMatrix
    preprocess: PreprocessReport

    # -- construction ---------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def from_csr(cls, csr, **kwargs) -> "SpMVFormat":
        """Build the format (and its preprocessing bill) from CSR."""

    # -- shape ----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def precision(self) -> Precision:
        return self.csr.precision

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    # -- compute --------------------------------------------------------
    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Exact ``y = A @ x``: :meth:`multiply_many` of the one-column
        block ``x``, so ``x`` is cast to the format's precision first."""
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x must have shape ({self.n_cols},)")
        return self.multiply_many(x[:, None])[:, 0]

    def multiply_many(self, X: np.ndarray) -> np.ndarray:
        """Exact ``Y = A @ X`` for a block of vectors.

        ``X`` has shape ``(n_cols, k)``; the result has ``(n_rows, k)``.
        Every column of the result is *bitwise identical* to the
        corresponding single-vector :meth:`multiply`.  Real ``X`` is
        cast to the format's precision; complex, string, bytes and
        object ``X`` raise ``ValueError`` instead of losing data.
        """
        X = np.asarray(X)
        if X.dtype.kind in "cSUO":
            raise ValueError(f"X must be a real numeric array, got {X.dtype}")
        X = X.astype(self.precision.numpy_dtype, copy=False)
        if X.ndim != 2 or X.shape[0] != self.n_cols:
            raise ValueError(f"X must have shape ({self.n_cols}, k)")
        if X.shape[1] < 1:
            raise ValueError("X must have at least one column")
        return self.csr.matmat(X)

    @abc.abstractmethod
    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        """The launches of one SpMV (``k=1``) or one ``k``-wide SpMM.

        ``k`` is the vector-block width: the batched launch multiplies the
        matrix by ``k`` right-hand-side vectors at once, charging matrix
        traffic once but ``x``/``y`` traffic and flops per vector.  Every
        implementation must return byte-identical works for ``k=1`` and
        the historical single-vector path.
        """

    def cached_kernel_works(
        self, device: DeviceSpec, k: int = 1
    ) -> list[KernelWork]:
        """:meth:`kernel_works`, memoised per ``(format, device, k)``.

        Formats are immutable after construction and :class:`KernelWork`
        is frozen, so the launch list of one SpMV never changes — yet
        ``spmv_time_s`` / ``trace`` / ``run_spmv`` historically rebuilt it
        on every call.  The cache keys on the device name and the
        vector-block width (a format instance has a fixed matrix and
        precision) and is dropped with the instance itself.
        """
        cache = getattr(self, "_kernel_works_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_kernel_works_cache", cache)
        works = cache.get((device.name, k))
        if works is None:
            works = self.kernel_works(device, k=k)
            cache[(device.name, k)] = works
        return works

    def device_bytes(self) -> int:
        """Device footprint (format data + x + y)."""
        return self.preprocess.device_bytes

    # -- shared entry points ---------------------------------------------
    def modelled_run(self, device: DeviceSpec, k: int = 1) -> ModelledRun:
        """One SpMV (``k=1``) or ``k``-wide SpMM as modelled on ``device``.

        The base model runs :meth:`cached_kernel_works` back to back.  A
        format whose launches overlap overrides this (ACSR's pool).
        ``k`` must be an integer >= 1; anything else raises
        ``ValueError``.
        """
        k = check_width(k)
        works = self.cached_kernel_works(device, k=k)
        timings = simulate_many(device, works)
        return ModelledRun(
            launches=tuple(zip(works, timings)),
            time_s=sum(t.time_s for t in timings),
        )

    def spmv_time_s(self, device: DeviceSpec) -> float:
        """Modelled time of one SpMV on ``device`` (the paper's ``ST``)."""
        return self.modelled_run(device).time_s

    def run_spmv(self, x: np.ndarray, device: DeviceSpec) -> SpMVResult:
        """Execute numerically and model the time in one call."""
        y = self.multiply(x)
        run = self.modelled_run(device)
        return SpMVResult(
            y=y, time_s=run.time_s, timings=run.timings, flops=run.flops
        )

    # -- batched (SpMM) entry points --------------------------------------
    def spmm_time_s(self, device: DeviceSpec, k: int = 1) -> float:
        """Modelled time of one ``k``-wide batched SpMM on ``device``.

        ``spmm_time_s(device, 1) == spmv_time_s(device)`` exactly — the
        ``k=1`` batch runs the very same launch sequence.
        """
        return self.modelled_run(device, k=k).time_s

    def run_spmm(self, X: np.ndarray, device: DeviceSpec) -> SpMMResult:
        """Execute ``Y = A @ X`` numerically and model one batched launch.

        The numeric result is :meth:`multiply_many`'s; the modelled time
        is ONE SpMM over all ``X.shape[1]`` columns, which is what a
        batched server would launch instead of ``k`` SpMVs.
        """
        Y = self.multiply_many(X)
        k = Y.shape[1]
        run = self.modelled_run(device, k=k)
        return SpMMResult(
            Y=Y, time_s=run.time_s, timings=run.timings, flops=run.flops, k=k
        )


def transfer_report_s(
    device_bytes: int, link: PCIeLink | None = None, n_transfers: int = 3
) -> float:
    """Helper: copy time for a format's device arrays."""
    link = link or DEFAULT_LINK
    return link.transfer_time_s(device_bytes, n_transfers=n_transfers)
