"""Figure 7: dynamic-graph PageRank speedups over 10 time epochs.

Top panel: the per-epoch speedup trend for one representative matrix
(FLI in the paper).  Bottom panel: the average speedup across all time
points for every matrix.  The expected shape: later epochs speed up more
than epoch 1 (ACSR stops paying the full copy after epoch 0, warm
restarts shrink iteration counts, so fixed per-epoch costs weigh more),
and the dynamic speedups exceed the static Figure 6 ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...data.corpus import corpus_matrix
from ...dynamic.pipeline import epoch_speedups, run_dynamic_pagerank
from ...gpu.device import GTX_TITAN, DeviceSpec, Precision
from ..report import render_table
from .common import ExperimentResult, default_matrices

#: The paper's representative matrix for the per-epoch panel.
DETAIL_MATRIX = "FLI"


def run_detail(
    matrix: str = DETAIL_MATRIX,
    device: DeviceSpec = GTX_TITAN,
    n_epochs: int = 10,
    precision: Precision = Precision.SINGLE,
) -> ExperimentResult:
    """Figure 7-top: per-epoch speedups for one matrix."""
    adjacency = corpus_matrix(matrix, precision=precision).binarized()
    results = run_dynamic_pagerank(adjacency, device, n_epochs=n_epochs)
    vs_csr = epoch_speedups(results, "csr")
    vs_hyb = epoch_speedups(results, "hyb")
    rows = [
        {
            "epoch": e,
            "iterations": results["acsr"].epochs[e].iterations,
            "vs_csr": float(vs_csr[e]),
            "vs_hyb": float(vs_hyb[e]),
        }
        for e in range(n_epochs)
    ]

    def renderer(res: ExperimentResult) -> str:
        return render_table(
            f"Figure 7 (top) — dynamic PageRank speedup per epoch, {matrix}",
            ["epoch", "iters", "vs CSR", "vs HYB"],
            [
                [r["epoch"], r["iterations"], r["vs_csr"], r["vs_hyb"]]
                for r in res.rows
            ],
        )

    return ExperimentResult(
        experiment="fig7-top",
        rows=rows,
        renderer=renderer,
        summary={"matrix": matrix},
    )


def run_average(
    matrices: Sequence[str] | None = None,
    device: DeviceSpec = GTX_TITAN,
    n_epochs: int = 10,
    precision: Precision = Precision.SINGLE,
) -> ExperimentResult:
    """Figure 7-bottom: all-epoch average speedup for every matrix."""
    rows = []
    for key in default_matrices(matrices):
        adjacency = corpus_matrix(key, precision=precision).binarized()
        results = run_dynamic_pagerank(adjacency, device, n_epochs=n_epochs)
        rows.append(
            {
                "matrix": key,
                "vs_csr": float(np.mean(epoch_speedups(results, "csr"))),
                "vs_hyb": float(np.mean(epoch_speedups(results, "hyb"))),
            }
        )

    summary = {
        "avg_vs_csr": float(np.mean([r["vs_csr"] for r in rows])),
        "avg_vs_hyb": float(np.mean([r["vs_hyb"] for r in rows])),
    }

    def renderer(res: ExperimentResult) -> str:
        return render_table(
            "Figure 7 (bottom) — dynamic PageRank average speedup",
            ["matrix", "vs CSR", "vs HYB"],
            [[r["matrix"], r["vs_csr"], r["vs_hyb"]] for r in res.rows],
        )

    return ExperimentResult(
        experiment="fig7-avg", rows=rows, renderer=renderer, summary=summary
    )
