"""Device kernels: the warp-level cost model of every launch.

One module per kernel family, mirroring the CUDA kernels of the paper and
its comparison libraries.  The modules price launches only; the numeric
product of every format is :meth:`repro.formats.csr.CSRMatrix.matmat`.

* :mod:`~repro.kernels.csr_scalar` / :mod:`~repro.kernels.csr_vector` —
  the CSR baselines (cuSPARSE/CUSP style);
* :mod:`~repro.kernels.coo_segmented` / :mod:`~repro.kernels.ell_kernel` /
  :mod:`~repro.kernels.hyb_kernel` — the CUSP HYB pipeline;
* :mod:`~repro.kernels.acsr_bin` / :mod:`~repro.kernels.acsr_dp` — the
  paper's Algorithms 2–4;
* :mod:`~repro.kernels.brc_kernel` / :mod:`~repro.kernels.bccoo_kernel` /
  :mod:`~repro.kernels.tcoo_kernel` — the research comparators;
* :mod:`~repro.kernels.update_kernel` — the Section VII dynamic-graph
  CSR editor.
"""

from . import (
    acsr_bin,
    acsr_dp,
    bccoo_kernel,
    brc_kernel,
    common,
    coo_segmented,
    csr_scalar,
    csr_vector,
    ell_kernel,
    hyb_kernel,
    tcoo_kernel,
    update_kernel,
)

__all__ = [
    "acsr_bin",
    "acsr_dp",
    "bccoo_kernel",
    "brc_kernel",
    "common",
    "coo_segmented",
    "csr_scalar",
    "csr_vector",
    "ell_kernel",
    "hyb_kernel",
    "tcoo_kernel",
    "update_kernel",
]
