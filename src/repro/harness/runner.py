"""Experiment runner: formats x matrices x devices x precisions, cached.

``run_cell`` produces one measurement cell: preprocessing time, SpMV time,
GFLOPs, and the OOM flag (evaluated against the *paper-scale* footprint,
since the synthetic analogs are scaled down).  Cells are cached for the
session so every experiment script can share builds; set the
``REPRO_CELL_CACHE`` environment variable to additionally persist cells
to disk (``1`` → ``.repro_cache/``, any other value → that directory), so
``scripts/reproduce_all.sh`` reruns are incremental.  The disk cache is
keyed on the full cell key plus ``DISK_CACHE_VERSION`` — bump the version
(or delete the directory) whenever the cost model changes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from ..data.corpus import corpus_matrix, get_spec, paper_scale_bytes
from ..formats.base import FormatCapacityError
from ..formats.convert import build_format
from ..gpu.device import DeviceSpec, Precision
from .metrics import spmv_gflops

#: Environment knob enabling the on-disk cell cache (opt-in).
DISK_CACHE_ENV_VAR = "REPRO_CELL_CACHE"

#: Default directory when ``REPRO_CELL_CACHE=1``.
DEFAULT_DISK_CACHE_DIR = ".repro_cache"

#: Bump to invalidate every persisted cell (cost-model changes).
DISK_CACHE_VERSION = 1


@dataclass(frozen=True)
class CellResult:
    """One (matrix, format, device, precision) measurement."""

    matrix: str
    format_name: str
    device: str
    precision: Precision
    #: Modelled single-SpMV time at analog scale, seconds.
    st_s: float
    #: Preprocessing (Figure 4's PT): scalable part at analog scale.
    pt_scalable_s: float
    #: Size-independent preprocessing (compiles).
    pt_fixed_s: float
    #: Analog-scale device footprint, bytes.
    device_bytes: int
    nnz: int
    scale: float
    #: The format could not hold the paper-scale matrix (Table IV's ∅).
    oom: bool
    #: The format is unavailable at this precision (BCCOO/TCOO in DP).
    unavailable: bool = False
    notes: str = ""

    @property
    def gflops(self) -> float:
        return spmv_gflops(self.nnz, self.st_s)

    @property
    def pt_s(self) -> float:
        """Total analog-scale PT."""
        return self.pt_scalable_s + self.pt_fixed_s

    def st_paper_s(self) -> float:
        """SpMV time extrapolated to the paper-scale matrix."""
        return self.st_s / self.scale

    def pt_paper_s(self) -> float:
        """PT extrapolated to paper scale (compiles don't scale)."""
        return self.pt_scalable_s / self.scale + self.pt_fixed_s

    @property
    def usable(self) -> bool:
        return not (self.oom or self.unavailable)


_CELLS: dict[tuple, CellResult] = {}
_FORMATS: dict[tuple, object] = {}
_PROFILES: dict[tuple, object] = {}


def clear_caches() -> None:
    """Drop cached cells, format builds, and profiles (tests / sweeps).

    Only the in-session caches are dropped; the opt-in disk cache is
    invalidated by version bump or by deleting its directory.
    """
    _CELLS.clear()
    _FORMATS.clear()
    _PROFILES.clear()


def disk_cache_dir() -> Path | None:
    """The on-disk cell cache directory, or ``None`` when disabled."""
    value = os.environ.get(DISK_CACHE_ENV_VAR, "")
    if not value or value == "0":
        return None
    return Path(DEFAULT_DISK_CACHE_DIR if value == "1" else value)


def _disk_path(cache_dir: Path, prefix: str, hashed: tuple) -> Path:
    digest = hashlib.sha1(repr(hashed).encode()).hexdigest()
    return cache_dir / f"{prefix}-{digest}.json"


def load_disk_entry(prefix: str, hashed: tuple, decode):
    """``decode(payload)`` of the disk entry for ``hashed``, or ``None``.

    ``None`` when the disk cache is off, the entry is missing, or it is
    stale/corrupt (unreadable JSON, or ``decode`` raises ``KeyError`` /
    ``TypeError`` / ``ValueError``): the caller recomputes and overwrites.
    Entries are named ``<prefix>-<sha1 of repr(hashed)>.json``.
    """
    cache_dir = disk_cache_dir()
    if cache_dir is None:
        return None
    try:
        payload = json.loads(_disk_path(cache_dir, prefix, hashed).read_text())
        return decode(payload)
    except (OSError, KeyError, TypeError, ValueError):
        return None


def store_disk_entry(prefix: str, hashed: tuple, payload: dict) -> None:
    """Write ``payload`` as the disk entry for ``hashed`` (atomic
    replace; a no-op when the disk cache is off)."""
    cache_dir = disk_cache_dir()
    if cache_dir is None:
        return
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _disk_path(cache_dir, prefix, hashed)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def _decode_cell(payload: dict) -> CellResult:
    payload["precision"] = Precision(payload["precision"])
    return CellResult(**payload)


def _store_disk_cell(key: tuple, cell: CellResult) -> None:
    if disk_cache_dir() is None:
        return
    payload = asdict(cell)
    payload["precision"] = cell.precision.value
    store_disk_entry("cell", (DISK_CACHE_VERSION, key), payload)


def get_format(
    matrix_key: str,
    format_name: str,
    precision: Precision = Precision.SINGLE,
    scale: float | None = None,
):
    """Build (or fetch) a format instance over a corpus matrix."""
    spec = get_spec(matrix_key)
    s = spec.default_scale if scale is None else scale
    key = (spec.name, format_name, precision, round(s, 9))
    fmt = _FORMATS.get(key)
    if fmt is None:
        csr = corpus_matrix(matrix_key, scale=s, precision=precision)
        fmt = build_format(format_name, csr)
        _FORMATS[key] = fmt
    return fmt


def cell_counters(
    matrix_key: str,
    format_name: str,
    device: DeviceSpec,
    precision: Precision = Precision.SINGLE,
    scale: float | None = None,
    k: int = 1,
):
    """Hardware-counter profile of one cell (session-cached).

    Returns the :class:`repro.obs.FormatProfile` for the cell's SpMV
    (``k=1``) or ``k``-wide SpMM — per-launch counter sets, aggregate,
    and roofline verdict.  The profile's ``total.time_s`` is the same
    float as the matching :attr:`CellResult.st_s`; profiling a cell
    never changes what :func:`run_cell` reports.  Cached alongside cells
    and dropped by :func:`clear_caches`.
    """
    spec = get_spec(matrix_key)
    s = spec.default_scale if scale is None else scale
    key = (
        spec.name,
        format_name,
        device.name,
        precision,
        round(s, 9),
        int(k),
    )
    profile = _PROFILES.get(key)
    if profile is None:
        from ..obs.profile import profile_format

        fmt = get_format(matrix_key, format_name, precision, s)
        profile = profile_format(fmt, device, k=k, matrix=spec.abbrev)
        _PROFILES[key] = profile
    return profile


def run_cell(
    matrix_key: str,
    format_name: str,
    device: DeviceSpec,
    precision: Precision = Precision.SINGLE,
    scale: float | None = None,
) -> CellResult:
    """Measure one cell (cached)."""
    spec = get_spec(matrix_key)
    s = spec.default_scale if scale is None else scale
    key = (spec.name, format_name, device.name, precision, round(s, 9))
    cell = _CELLS.get(key)
    if cell is not None:
        return cell
    cell = load_disk_entry("cell", (DISK_CACHE_VERSION, key), _decode_cell)
    if cell is not None:
        _CELLS[key] = cell
        return cell

    try:
        fmt = get_format(matrix_key, format_name, precision, s)
    except FormatCapacityError as exc:
        cell = CellResult(
            matrix=spec.abbrev,
            format_name=format_name,
            device=device.name,
            precision=precision,
            st_s=float("nan"),
            pt_scalable_s=float("nan"),
            pt_fixed_s=0.0,
            device_bytes=0,
            nnz=0,
            scale=s,
            oom=True,
            notes=str(exc),
        )
        _CELLS[key] = cell
        _store_disk_cell(key, cell)
        return cell
    except ValueError as exc:
        if "single precision" in str(exc):
            cell = CellResult(
                matrix=spec.abbrev,
                format_name=format_name,
                device=device.name,
                precision=precision,
                st_s=float("nan"),
                pt_scalable_s=float("nan"),
                pt_fixed_s=0.0,
                device_bytes=0,
                nnz=0,
                scale=s,
                oom=False,
                unavailable=True,
                notes=str(exc),
            )
            _CELLS[key] = cell
            _store_disk_cell(key, cell)
            return cell
        raise

    report = fmt.preprocess
    footprint = fmt.device_bytes() or report.device_bytes
    oom = not device.fits(paper_scale_bytes(footprint, s))
    cell = CellResult(
        matrix=spec.abbrev,
        format_name=format_name,
        device=device.name,
        precision=precision,
        st_s=fmt.spmv_time_s(device),
        pt_scalable_s=report.scalable_s(),
        pt_fixed_s=report.tuning_fixed_s,
        device_bytes=footprint,
        nnz=fmt.nnz,
        scale=s,
        oom=oom,
        notes=report.notes,
    )
    _CELLS[key] = cell
    _store_disk_cell(key, cell)
    return cell
