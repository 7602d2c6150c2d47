"""Figure 6: PageRank / HITS / RWR speedup of ACSR over CSR and HYB.

Each panel runs the application to convergence (eps = 1e-6, Euclidean
distance) once per matrix and bills that run with each SpMV backend,
reporting ``time_backend / time_ACSR`` plus the iteration count.  Matrix copies and HYB's transform
are excluded, matching Section VI ("the time for copying data to the
device was not included; HYB data transformation cost was also not
included").
"""

from __future__ import annotations

from typing import Sequence

from ...apps.hits import hits_trajectory, stacked_matrix
from ...apps.pagerank import google_matrix, pagerank_trajectory
from ...apps.power_method import bill_trajectory
from ...apps.rwr import column_normalized, rwr_trajectory
from ...data.corpus import corpus_matrix
from ...formats.convert import build_format
from ...gpu.device import GTX_TITAN, DeviceSpec, Precision
from ..report import render_table
from .common import ExperimentResult, default_matrices

BACKENDS = ("csr", "hyb", "acsr")

#: Iteration cap for the harness runs.  The speedup metric is invariant
#: to the cap (every backend executes the *same* iteration count, so the
#: ratio equals the per-iteration time ratio), and HITS on large graphs
#: can need thousands of power iterations to reach eps = 1e-6.
MAX_APP_ITERATIONS = 100

#: Each app's operator (from the binarised adjacency) and its trajectory
#: on a format over that operator.
_APPS = {
    "pagerank": (google_matrix, pagerank_trajectory),
    "hits": (stacked_matrix, hits_trajectory),
    "rwr": (
        column_normalized,
        lambda fmt, **kw: rwr_trajectory(fmt, [0], **kw),
    ),
}
APPS = tuple(_APPS)


def run(
    app: str = "pagerank",
    matrices: Sequence[str] | None = None,
    device: DeviceSpec = GTX_TITAN,
    precision: Precision = Precision.SINGLE,
) -> ExperimentResult:
    """Run one application with every backend and report speedups."""
    if app not in APPS:
        raise ValueError(f"app must be one of {APPS}")
    rows = []
    for key in default_matrices(matrices):
        prepare, trajectory = _APPS[app]
        matrix = prepare(corpus_matrix(key, precision=precision).binarized())
        times: dict[str, float] = {}
        traj = None
        for backend in BACKENDS:
            fmt = build_format(backend, matrix)
            if traj is None:
                # Every backend multiplies through ``matrix``: one
                # trajectory, billed per backend.
                traj = trajectory(fmt, max_iterations=MAX_APP_ITERATIONS)
            res = bill_trajectory(traj, fmt, device).single()
            times[backend] = res.modeled_time_s
            iters = res.iterations
        rows.append(
            {
                "matrix": key,
                "iterations": iters,
                "speedup_vs_csr": times["csr"] / times["acsr"],
                "speedup_vs_hyb": times["hyb"] / times["acsr"],
            }
        )

    summary = {
        "app": app,
        "avg_vs_csr": sum(r["speedup_vs_csr"] for r in rows) / len(rows),
        "avg_vs_hyb": sum(r["speedup_vs_hyb"] for r in rows) / len(rows),
    }

    def renderer(res: ExperimentResult) -> str:
        table = render_table(
            f"Figure 6 — {app} speedup of ACSR on {device.name}",
            ["matrix", "iters", "vs CSR", "vs HYB"],
            [
                [
                    r["matrix"],
                    r["iterations"],
                    r["speedup_vs_csr"],
                    r["speedup_vs_hyb"],
                ]
                for r in res.rows
            ],
        )
        s = res.summary
        return table + (
            f"\nAVG: vs CSR {s['avg_vs_csr']:.2f}x, vs HYB {s['avg_vs_hyb']:.2f}x"
        )

    return ExperimentResult(
        experiment=f"fig6-{app}", rows=rows, renderer=renderer, summary=summary
    )
