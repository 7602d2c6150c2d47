"""Sparse-matrix formats: CSR plus the paper's full comparison set.

* :class:`~repro.formats.csr.CSRMatrix` — the base container;
* :class:`~repro.formats.csr_format.CSRFormat` — CSR with scalar/vector
  kernels (the baseline of Figures 5–6);
* :class:`~repro.formats.coo.COOFormat`, :class:`~repro.formats.ell.ELLFormat`,
  :class:`~repro.formats.dia.DIAFormat` — the classic layouts;
* :class:`~repro.formats.hyb.HYBFormat` — CUSP's ELL+COO hybrid;
* :class:`~repro.formats.brc.BRCFormat`,
  :class:`~repro.formats.bccoo.BCCOOFormat`,
  :class:`~repro.formats.tcoo.TCOOFormat` — the research comparators of
  Figure 4 / Tables III–IV, auto-tuners included.

Two CSR names are easy to confuse; both are canonical here:

* ``repro.formats.CSRMatrix`` (from :mod:`repro.formats.csr`) is the raw
  *container* — arrays, statistics, and the one numeric SpMV kernel
  (``matvec``/``matmat``) every format multiplies through.  It is what
  every ``from_csr`` consumes.
* ``repro.formats.CSRFormat`` (from :mod:`repro.formats.csr_format`) is
  the *executable format* — an :class:`~repro.formats.base.SpMVFormat`
  with kernel cost models, preprocessing report, and ``run_spmv`` /
  ``run_spmm`` entry points.

Internal code should import them from this package (or the canonical
submodule named above), never from the "other" module.
"""

from .advisor import Recommendation, Workload, matrix_traits, recommend
from .base import (
    FormatCapacityError,
    ModelledRun,
    PreprocessReport,
    SpMMResult,
    SpMVFormat,
    SpMVResult,
)
from .bccoo import BCCOOConfig, BCCOOFormat
from .brc import BRCFormat
from .convert import (
    FORMAT_BUILDERS,
    PAPER_COMPARISON_SET,
    available_formats,
    build_format,
)
from .coo import COOFormat
from .csr import CSRMatrix
from .csr_format import CSRFormat
from .dia import DIAFormat
from .ell import ELLFormat
from .hyb import HYBFormat, hyb_ell_width
from .sic import SICFormat
from .tcoo import TCOOFormat

__all__ = [
    "BCCOOConfig",
    "BCCOOFormat",
    "Recommendation",
    "Workload",
    "matrix_traits",
    "recommend",
    "BRCFormat",
    "COOFormat",
    "CSRFormat",
    "CSRMatrix",
    "DIAFormat",
    "ELLFormat",
    "FORMAT_BUILDERS",
    "FormatCapacityError",
    "HYBFormat",
    "ModelledRun",
    "PAPER_COMPARISON_SET",
    "PreprocessReport",
    "SICFormat",
    "SpMMResult",
    "SpMVFormat",
    "SpMVResult",
    "TCOOFormat",
    "available_formats",
    "build_format",
    "hyb_ell_width",
]
