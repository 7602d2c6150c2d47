"""BCCOO format: blocked compressed COO with auto-tuning (Yan et al. [27]).

Non-zeros are grouped into small dense blocks; per-element row indices
collapse into a bit-flag stream and column indices are delta-encoded, so
index traffic drops to about a byte per element and the kernel runs a
matrix-wide segmented scan.  The tuned kernel is the fastest single SpMV
in the paper's comparison set — but finding the right configuration means
searching a >300-point space where every point costs a kernel compile, a
data transform and a trial run.  That search is the ~161k-SpMV
preprocessing bill of Figure 4, and it is reproduced here as an *actual
search loop* over the same space, each trial priced by the cost models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, GTX_TITAN, Precision
from ..gpu.kernel import KernelWork
from ..gpu.simulator import simulate_many
from ..kernels import bccoo_kernel
from .base import PreprocessReport, SpMVFormat, transfer_report_s
from .csr import CSRMatrix

#: Block geometry candidates (height x width).
BLOCK_HEIGHTS = (1, 2, 4, 8)
BLOCK_WIDTHS = (1, 2, 4, 8)
#: Kernel-shape candidates explored per geometry (workgroup size,
#: elements-per-thread, texture on/off) — 4*4*24 = 384 points, matching
#: the paper's "more than 300 different settings".
WORKGROUPS = (64, 128, 256)
ELEMS_PER_THREAD = (1, 2, 4, 8)
TEXTURE = (False, True)


@dataclass(frozen=True)
class BCCOOConfig:
    """One point of the auto-tuner's search space."""

    block_h: int
    block_w: int
    workgroup: int
    elems_per_thread: int
    use_texture: bool

    def __post_init__(self) -> None:
        for name in ("block_h", "block_w", "workgroup", "elems_per_thread"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def key(self) -> tuple[int, int]:
        return (self.block_h, self.block_w)


#: The full search space, built once.
_DEFAULT_SPACE = tuple(
    BCCOOConfig(bh, bw, wg, ept, tex)
    for bh in BLOCK_HEIGHTS
    for bw in BLOCK_WIDTHS
    for wg in WORKGROUPS
    for ept in ELEMS_PER_THREAD
    for tex in TEXTURE
)


def all_configs() -> list[BCCOOConfig]:
    """The full search space (384 configurations)."""
    return list(_DEFAULT_SPACE)


def stored_elements_by_geometry(
    csr: CSRMatrix, geometries: list[tuple[int, int]]
) -> dict[tuple[int, int], int]:
    """Dense-block slot count (padding included) of every
    ``(block_h, block_w)`` geometry in ``geometries``.

    A geometry stores ``block_h * block_w`` slots per distinct
    ``(row // block_h, col // block_w)`` pair.  Each distinct height
    sorts one key, ``block_row * span + col``, where ``span`` is
    ``n_cols`` padded to a multiple of every width of that height.  For
    each such width ``key // block_w`` is then ``block_row * (span //
    block_w) + col // block_w``: it changes along the sorted keys exactly
    where a new block opens, so a width costs one division and a count
    of changes.  Columns need not be sorted or distinct within a row.
    The sort is skipped when the keys already ascend (a row-sorted CSR at
    height 1).  Keys are ``uint32`` whenever every key fits (numpy sorts
    them about twice as fast as 64-bit ones), else ``uint64``.
    """
    geometries = list(dict.fromkeys(geometries))
    if any(bh < 1 or bw < 1 for bh, bw in geometries):
        raise ValueError("block geometry must be at least 1x1")
    nnz = csr.nnz
    if nnz == 0:
        return {geom: 0 for geom in geometries}
    counts: dict[tuple[int, int], int] = {}
    for bh, span, widths in _key_spans(csr.n_rows, csr.n_cols, geometries):
        starts = csr.row_off[::bh]
        n_block_rows = starts.shape[0]
        key_dtype = np.uint32 if n_block_rows * span < 2**32 else np.uint64
        key = np.repeat(
            np.arange(n_block_rows, dtype=key_dtype) * key_dtype(span),
            np.diff(starts, append=nnz),
        )
        np.add(key, csr.col_idx, out=key, dtype=key_dtype, casting="unsafe")
        if not np.all(key[1:] >= key[:-1]):
            key.sort()
        block = np.empty_like(key)
        for bw in widths:
            np.floor_divide(key, key_dtype(bw), out=block)
            changes = np.count_nonzero(block[1:] != block[:-1])
            counts[(bh, bw)] = (1 + int(changes)) * bh * bw
    return {geom: counts[geom] for geom in geometries}


def _key_spans(n_rows: int, n_cols: int, geometries: list[tuple[int, int]]):
    """``(height, span, widths)`` of each census sort.  A height's widths
    share one key unless their common multiple would push it past
    ``uint64`` (never the tuner's 1, 2, 4, 8); then each width sorts its
    own."""
    for bh in dict.fromkeys(bh for bh, _ in geometries):
        widths = [w for h, w in geometries if h == bh]
        step = math.lcm(*widths)
        groups = [widths]
        if (n_rows // bh + 1) * -(-n_cols // step) * step >= 2**64:
            groups = [[bw] for bw in widths]
        for group in groups:
            step = math.lcm(*group)
            yield bh, -(-n_cols // step) * step, group


#: Kernel-efficiency penalty for non-optimal kernel-shape knobs; the tuned
#: optimum has factor 1.0 and detuned points run up to ~40% slower.
def _shape_penalty(cfg: BCCOOConfig) -> float:
    penalty = 1.0
    if cfg.workgroup != 128:
        penalty *= 1.08
    if cfg.elems_per_thread not in (2, 4):
        penalty *= 1.12
    if not cfg.use_texture:
        penalty *= 1.15
    return penalty


class BCCOOFormat(SpMVFormat):
    """Auto-tuned blocked compressed COO."""

    name = "bccoo"

    def __init__(
        self,
        csr: CSRMatrix,
        config: BCCOOConfig,
        stored: int,
        preprocess: PreprocessReport,
        n_trials: int,
    ) -> None:
        self.csr = csr
        self.config = config
        #: Dense-block slots of the chosen geometry (padding included).
        self.stored = stored
        self.preprocess = preprocess
        #: Number of tuning trials actually executed.
        self.n_trials = n_trials

    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        *,
        tuning_device: DeviceSpec = GTX_TITAN,
        configs: list[BCCOOConfig] | None = None,
    ) -> "BCCOOFormat":
        """Build BCCOO by running the auto-tuner over the config space.

        Accepted kwargs: ``tuning_device`` — the GPU the search is priced
        against (default GTX TITAN); ``configs`` — explicit list of
        :class:`BCCOOConfig` points to search (default: the full 384-point
        space).  Unknown kwargs raise ``TypeError``.

        Tuning is performed against ``tuning_device`` — on hardware the
        search runs on the target GPU, and its bill lands in
        ``preprocess.tuning_s``.
        """
        if csr.precision is not Precision.SINGLE:
            # "BCCOO and TCOO are only available for single precision"
            # (Section V).
            raise ValueError("BCCOO supports single precision only")
        space = configs if configs is not None else _DEFAULT_SPACE
        if not space:
            raise ValueError("config space must be non-empty")

        # Storage — and therefore the kernel work — depends only on the
        # block geometry; simulate once per geometry and apply the
        # (multiplicative) kernel-shape penalty per config.
        stored_by_geom = stored_elements_by_geometry(
            csr, [cfg.key for cfg in space]
        )
        timings = simulate_many(
            tuning_device,
            [
                bccoo_kernel.work(
                    stored,
                    csr.n_rows,
                    device=tuning_device,
                    n_cols=csr.n_cols,
                    precision=csr.precision,
                    profile=csr.gather_profile,
                )
                for stored in stored_by_geom.values()
            ],
        )
        base_time_by_geom = {
            geom: timing.time_s
            for geom, timing in zip(stored_by_geom, timings)
        }

        best_cfg: BCCOOConfig | None = None
        best_time = float("inf")
        tuning_s = 0.0  # matrix-size-dependent: transforms + trial runs
        tuning_fixed_s = 0.0  # size-independent: per-config compiles
        # Each geometry pays one transform; every config pays a compile and
        # a trial SpMV.
        transformed: set[tuple[int, int]] = set()
        for cfg in space:
            if cfg.key not in transformed:
                tuning_s += DEFAULT_HOST.stream_time(
                    2 * csr.nnz + stored_by_geom[cfg.key]
                )
                transformed.add(cfg.key)
            tuning_fixed_s += DEFAULT_HOST.compile_cost_s
            trial_time = base_time_by_geom[cfg.key] * _shape_penalty(cfg)
            tuning_s += trial_time
            if trial_time < best_time:
                best_time = trial_time
                best_cfg = cfg
        assert best_cfg is not None

        stored = stored_by_geom[best_cfg.key]
        vb = csr.precision.value_bytes
        device_bytes = (
            stored * vb
            + int(stored * bccoo_kernel.INDEX_BYTES_PER_ELEM)
            + (csr.n_rows + csr.n_cols) * vb
        )
        report = PreprocessReport(
            format_name=cls.name,
            host_s=DEFAULT_HOST.stream_time(2 * csr.nnz + stored),
            transfer_s=transfer_report_s(device_bytes),
            tuning_s=tuning_s,
            tuning_fixed_s=tuning_fixed_s,
            device_bytes=device_bytes,
            padding_fraction=0.0 if stored == 0 else 1.0 - csr.nnz / stored,
            notes=(
                f"tuned over {len(space)} configs -> "
                f"{best_cfg.block_h}x{best_cfg.block_w} blocks, "
                f"wg={best_cfg.workgroup}"
            ),
        )
        return cls(csr, best_cfg, stored, report, n_trials=len(space))

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        return [
            bccoo_kernel.work(
                self.stored,
                self.n_rows,
                device=device,
                n_cols=self.n_cols,
                precision=self.precision,
                profile=self.csr.gather_profile,
                real_nnz=self.nnz,
                k=k,
            )
        ]
