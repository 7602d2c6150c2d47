"""Figure 5: SpMV GFLOPs for CSR / HYB / ACSR on the three devices.

Three panels (top GTX Titan with DP, center GTX 580 binning-only with OOM
cases, bottom Tesla K10 single GPU), each in single and double precision.
The shape targets from the paper's text:

* Titan: ACSR up to ~1.67x / avg ~1.18x over HYB (SP), up to ~5.34x /
  avg ~2.09x over CSR;
* GTX 580: no dynamic parallelism, lower margins (avg ~1.1x over HYB),
  and the largest matrices are ``∅`` (out of memory);
* K10 (one GPU): similar story at GK104 bandwidth.
"""

from __future__ import annotations

from typing import Sequence

from ...gpu.device import GTX_TITAN, DeviceSpec, Precision
from ..report import render_table
from ..runner import run_cell
from .common import ExperimentResult, default_matrices

FORMATS = ("csr", "hyb", "acsr")


def run(
    matrices: Sequence[str] | None = None,
    device: DeviceSpec = GTX_TITAN,
    precision: Precision = Precision.SINGLE,
) -> ExperimentResult:
    """GFLOPs of CSR/HYB/ACSR on one device and precision."""
    rows = []
    for key in default_matrices(matrices):
        row: dict = {"matrix": key}
        for fmt in FORMATS:
            cell = run_cell(key, fmt, device, precision)
            row[fmt] = cell.gflops if cell.usable else None
            row[f"{fmt}_oom"] = cell.oom
        if row["acsr"] and row["csr"]:
            row["acsr_over_csr"] = row["csr"] and row["acsr"] / row["csr"]
        else:
            row["acsr_over_csr"] = None
        if row["acsr"] and row["hyb"]:
            row["acsr_over_hyb"] = row["acsr"] / row["hyb"]
        else:
            row["acsr_over_hyb"] = None
        rows.append(row)

    def _avg(key: str) -> float | None:
        vals = [r[key] for r in rows if r[key] is not None]
        return sum(vals) / len(vals) if vals else None

    summary = {
        "device": device.name,
        "precision": precision.value,
        "avg_acsr_over_csr": _avg("acsr_over_csr"),
        "avg_acsr_over_hyb": _avg("acsr_over_hyb"),
    }

    def renderer(res: ExperimentResult) -> str:
        table = render_table(
            f"Figure 5 — GFLOPs on {device.name} ({precision.value})",
            ["matrix", *FORMATS, "/csr", "/hyb"],
            [
                [
                    r["matrix"],
                    *(r[f] for f in FORMATS),
                    r["acsr_over_csr"],
                    r["acsr_over_hyb"],
                ]
                for r in res.rows
            ],
        )
        s = res.summary
        return table + (
            f"\navg ACSR/CSR = {s['avg_acsr_over_csr']:.2f}x, "
            f"avg ACSR/HYB = {s['avg_acsr_over_hyb']:.2f}x"
        )

    return ExperimentResult(
        experiment="fig5", rows=rows, renderer=renderer, summary=summary
    )
