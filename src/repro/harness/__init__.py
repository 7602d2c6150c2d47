"""Experiment harness: metrics (Eq. 2-4), the cell runner, renderers,
and one experiment module per table/figure of the paper."""

from . import experiments
from .metrics import (
    BreakEven,
    arithmetic_mean,
    break_even,
    geometric_mean,
    speedup,
    spmv_gflops,
)
from .report import render_table
from .runner import CellResult, clear_caches, get_format, run_cell

__all__ = [
    "BreakEven",
    "CellResult",
    "arithmetic_mean",
    "break_even",
    "clear_caches",
    "experiments",
    "geometric_mean",
    "get_format",
    "render_table",
    "run_cell",
    "speedup",
    "spmv_gflops",
]
