"""Power-law degree and edge generators (the Figure 3 distribution).

The paper's matrices are web/social adjacency graphs whose row-length
histogram has "a very heavy concentration of very small rows" and "a long
tail on the right side" (Figure 3).  ACSR's two mechanisms target exactly
these two extremes, so the synthetic corpus must reproduce a matrix's
row-length *distribution* — mean, deviation, maximum — rather than its
exact edges.

Three generators:

* :func:`sample_degrees` — a truncated discrete power law fitted (by 1-D
  search over the exponent) to a target mean and standard deviation with a
  hard maximum;
* :func:`rmat_edges` — the classic R-MAT recursive generator, for tests
  that want an actual graph topology;
* :func:`sample_columns` — hub-skewed column picks, giving the gather
  stream the hot-column reuse real graphs have.

Real graphs also exhibit *degree locality*: crawl order and community
structure place similar-degree rows near each other (web pages of one site
share link counts).  :func:`cluster_degrees` reproduces it; it is what
makes ACSR's bin row-lists contiguous in practice.
"""

from __future__ import annotations

import numpy as np


#: Most pmf entries one array pass of :func:`_grid_moments` holds: each
#: transient array stays 128 KiB (cache-resident) whatever ``k_max`` is.
_GRID_ENTRIES = 1 << 14


def _powerlaw_pmf(alpha: float, k_max: int, cutoff: float) -> np.ndarray:
    """P(k) ∝ k^-alpha * exp(-k / cutoff) on 1..k_max."""
    k = np.arange(1, k_max + 1, dtype=np.float64)
    log_w = -alpha * np.log(k) - k / cutoff
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


def _grid_moments(
    alphas: np.ndarray, cutoffs: np.ndarray, k_max: int
) -> list[tuple[float, float]]:
    """``(mean, std)`` of the pmf at each ``(alphas[i], cutoffs[i])``.

    Each pmf is one row of a 2-D pass computed element for element as
    :func:`_powerlaw_pmf` computes it, and every row sum reduces one
    contiguous row, as the 1-D sum does, so the moments are bitwise those
    of the one-point-at-a-time evaluation.
    """
    k = np.arange(1, k_max + 1, dtype=np.float64)
    log_k = np.log(k)
    out = []
    step = max(1, _GRID_ENTRIES // k_max)
    for lo in range(0, alphas.shape[0], step):
        a = alphas[lo : lo + step, None]
        c = cutoffs[lo : lo + step, None]
        log_w = -a * log_k - k / c
        log_w -= log_w.max(axis=1, keepdims=True)
        w = np.exp(log_w)
        pmf = w / w.sum(axis=1, keepdims=True)
        first = (pmf * k).sum(axis=1).tolist()
        second = (pmf * k * k).sum(axis=1).tolist()
        for mu, sq in zip(first, second):
            var = sq - mu * mu
            out.append((mu, float(np.sqrt(max(var, 0.0)))))
    return out


def fit_alpha(
    mu: float, sigma: float, k_max: int
) -> tuple[float, float]:
    """Fit ``(alpha, cutoff)`` of a power law with exponential cutoff.

    The exponent shapes the head (mean) and the cutoff truncates the tail
    (deviation); a coarse-to-fine grid search over both matches the two
    target moments in log space.  Each round prices its whole grid with
    2-D array passes (:func:`_grid_moments`); the first strict minimum
    of the error wins.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if mu <= 1.0:
        return 4.0, float(k_max)

    def err(m: float, s: float) -> float:
        e = 2.0 * (np.log(m / mu)) ** 2
        if sigma > 0 and s > 0:
            e += (np.log(s / sigma)) ** 2
        return e

    alphas = np.linspace(0.8, 6.0, 27)
    cutoffs = np.geomspace(2.0, 4.0 * k_max, 17)
    best = (2.0, float(k_max))
    best_err = float("inf")
    for _round in range(3):
        grid_a = np.repeat(alphas, cutoffs.shape[0])
        grid_c = np.tile(cutoffs, alphas.shape[0])
        moments = _grid_moments(grid_a, grid_c, k_max)
        for a, c, (m, s) in zip(grid_a.tolist(), grid_c.tolist(), moments):
            e = err(m, s)
            if e < best_err:
                best_err = e
                best = (a, c)
        a0, c0 = best
        da = (alphas[1] - alphas[0]) if len(alphas) > 1 else 0.2
        alphas = np.linspace(max(0.5, a0 - da), min(7.0, a0 + da), 9)
        ratio = cutoffs[1] / cutoffs[0] if len(cutoffs) > 1 else 1.5
        cutoffs = np.geomspace(
            max(1.5, c0 / ratio), min(8.0 * k_max, c0 * ratio), 9
        )
    return best


def sample_degrees(
    n_rows: int,
    mu: float,
    sigma: float,
    max_degree: int,
    rng: np.random.Generator,
    force_max: bool = True,
) -> np.ndarray:
    """Draw a row-length sequence matching the target statistics.

    ``force_max`` plants one row at exactly ``max_degree`` so the matrix
    has the Table I hub even at small sizes.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if max_degree == 1:
        return np.ones(n_rows, dtype=np.int64)
    alpha, cutoff = fit_alpha(mu, sigma, max_degree)
    pmf = _powerlaw_pmf(alpha, max_degree, cutoff)
    deg = rng.choice(
        np.arange(1, max_degree + 1), size=n_rows, p=pmf
    ).astype(np.int64)
    if force_max:
        deg[int(rng.integers(0, n_rows))] = max_degree
    return deg


def cluster_degrees(
    degrees: np.ndarray,
    rng: np.random.Generator,
    window: int = 512,
) -> np.ndarray:
    """Impose degree locality: sort, then shuffle ``window``-sized blocks.

    The marginal distribution is untouched; only the *placement* changes,
    giving neighbouring rows similar lengths (and ACSR's bins contiguous
    row ranges) as in crawl-ordered web graphs.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n = degrees.shape[0]
    s = np.sort(np.asarray(degrees, dtype=np.int64))
    n_blocks = max(1, n // window)
    blocks = np.array_split(np.arange(n), n_blocks)
    order = np.concatenate(
        [blocks[i] for i in rng.permutation(len(blocks))]
    )
    return s[order]


def sample_columns(
    n: int,
    n_cols: int,
    rng: np.random.Generator,
    hub_exponent: float = 2.2,
) -> np.ndarray:
    """Hub-skewed column picks: ``col = floor(n_cols * u^hub_exponent)``.

    Larger exponents concentrate gathers on few hot columns (the in-degree
    power law), driving the texture-cache reuse real adjacency matrices
    show.  ``hub_exponent = 1`` is uniform.
    """
    if n_cols < 1:
        raise ValueError("need at least one column")
    if hub_exponent < 1.0:
        raise ValueError("hub_exponent must be >= 1")
    u = rng.random(n)
    cols = (n_cols * u**hub_exponent).astype(np.int64)
    return np.minimum(cols, n_cols - 1)


def rmat_edges(
    scale: int,
    n_edges: int,
    rng: np.random.Generator,
    probs: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
) -> tuple[np.ndarray, np.ndarray]:
    """R-MAT edge generator: ``2^scale`` vertices, ``n_edges`` edges.

    Vectorised over edges: at each of ``scale`` recursion levels every
    edge independently picks a quadrant.
    """
    if scale < 1 or scale > 30:
        raise ValueError("scale must be in [1, 30]")
    if n_edges < 0:
        raise ValueError("edge count must be non-negative")
    a, b, c, d = probs
    if abs(a + b + c + d - 1.0) > 1e-9:
        raise ValueError("quadrant probabilities must sum to 1")
    rows = np.zeros(n_edges, dtype=np.int64)
    cols = np.zeros(n_edges, dtype=np.int64)
    for level in range(scale):
        u = rng.random(n_edges)
        right = (u >= a) & (u < a + b) | (u >= a + b + c)
        down = u >= a + b
        bit = np.int64(1 << (scale - 1 - level))
        rows += down * bit
        cols += right * bit
    return rows, cols


def degree_histogram(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Figure 3 histogram: ``(k, frequency)`` over occupied lengths."""
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    counts = np.bincount(degrees)
    k = np.nonzero(counts)[0]
    freq = counts[k] / degrees.shape[0]
    return k, freq
