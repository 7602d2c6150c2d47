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

from dataclasses import dataclass

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, GTX_TITAN, Precision
from ..gpu.kernel import KernelWork
from ..gpu.simulator import simulate_kernel
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


def all_configs() -> list[BCCOOConfig]:
    """The full search space (384 configurations)."""
    return [
        BCCOOConfig(bh, bw, wg, ept, tex)
        for bh in BLOCK_HEIGHTS
        for bw in BLOCK_WIDTHS
        for wg in WORKGROUPS
        for ept in ELEMS_PER_THREAD
        for tex in TEXTURE
    ]


def stored_elements_by_geometry(
    csr: CSRMatrix, geometries: list[tuple[int, int]]
) -> dict[tuple[int, int], int]:
    """Dense-block slot count (padding included) of every
    ``(block_h, block_w)`` geometry in ``geometries``.

    A geometry stores ``block_h * block_w`` slots per distinct
    ``(row // block_h, col // block_w)`` pair.  CSR storage is already
    grouped by block-row, so one sort by ``(row // block_h, col)`` per
    distinct height orders every block-row by column; each width of that
    height is then a count of changes in ``col // block_w`` within the
    block-rows.  Columns need not be sorted or distinct within a row.
    The sort is skipped when the keys already ascend (a row-sorted CSR at
    height 1).
    """
    geometries = list(dict.fromkeys(geometries))
    if any(bh < 1 or bw < 1 for bh, bw in geometries):
        raise ValueError("block geometry must be at least 1x1")
    nnz = csr.nnz
    if nnz == 0:
        return {geom: 0 for geom in geometries}
    counts: dict[tuple[int, int], int] = {}
    for bh in dict.fromkeys(bh for bh, _ in geometries):
        # Sort by key = block_row * n_cols + col.  Block-rows keep their
        # storage span, so subtracting the block-row offsets back out
        # leaves the columns sorted within each block-row.  numpy sorts
        # 32-bit keys about twice as fast as 64-bit ones, so the keys are
        # uint32 whenever every key fits.
        starts = csr.row_off[::bh]
        key_dtype = (
            np.uint32 if starts.shape[0] * csr.n_cols < 2**32 else np.int64
        )
        offsets = np.repeat(
            np.arange(starts.shape[0], dtype=key_dtype)
            * key_dtype(csr.n_cols),
            np.diff(starts, append=nnz),
        )
        cols = csr.col_idx
        key = np.add(offsets, cols, dtype=key_dtype, casting="unsafe")
        if not np.all(key[1:] >= key[:-1]):
            key.sort()
            key -= offsets
            cols = key.astype(cols.dtype)
        del offsets, key
        # change[i - 1] compares entries i - 1 and i; a block-row starting
        # at entry i always opens a new block.
        opens = starts[(starts > 0) & (starts < nnz)] - 1
        block_col = np.empty_like(cols)
        for bw in (w for h, w in geometries if h == bh):
            np.floor_divide(cols, bw, out=block_col)
            change = block_col[1:] != block_col[:-1]
            change[opens] = True
            counts[(bh, bw)] = (1 + int(np.count_nonzero(change))) * bh * bw
    return {geom: counts[geom] for geom in geometries}


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
        space = configs if configs is not None else all_configs()
        if not space:
            raise ValueError("config space must be non-empty")

        # Storage — and therefore the kernel work — depends only on the
        # block geometry; simulate once per geometry and apply the
        # (multiplicative) kernel-shape penalty per config.
        stored_by_geom = stored_elements_by_geometry(
            csr, [cfg.key for cfg in space]
        )
        base_time_by_geom: dict[tuple[int, int], float] = {}
        for geom, stored in stored_by_geom.items():
            trial_work = bccoo_kernel.work(
                stored,
                csr.n_rows,
                device=tuning_device,
                n_cols=csr.n_cols,
                precision=csr.precision,
                profile=csr.gather_profile,
            )
            base_time_by_geom[geom] = simulate_kernel(
                tuning_device, trial_work
            ).time_s

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
