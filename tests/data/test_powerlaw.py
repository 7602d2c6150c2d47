"""Degree sampling, clustering, R-MAT, column skew."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.corpus import TABLE_I
from repro.data.powerlaw import (
    _grid_moments,
    _powerlaw_pmf,
    cluster_degrees,
    degree_histogram,
    fit_alpha,
    rmat_edges,
    sample_columns,
    sample_degrees,
)


class TestFit:
    @pytest.mark.parametrize(
        "mu,sigma,kmax",
        [(5.0, 25.0, 1000), (15.0, 45.0, 9000), (100.0, 270.0, 5000), (3.0, 10.0, 600)],
    )
    def test_moments_recovered(self, mu, sigma, kmax):
        rng = np.random.default_rng(0)
        deg = sample_degrees(200_000, mu, sigma, kmax, rng, force_max=False)
        assert deg.mean() == pytest.approx(mu, rel=0.25)
        assert deg.std() == pytest.approx(sigma, rel=0.4)

    def test_fit_returns_valid_params(self):
        alpha, cutoff = fit_alpha(10.0, 50.0, 5000)
        assert 0.5 <= alpha <= 4.5
        assert cutoff > 1.0

    def test_rejects_tiny_kmax(self):
        with pytest.raises(ValueError):
            fit_alpha(5.0, 5.0, 1)


def loop_moments(alpha, cutoff, k_max):
    """``(mean, std)`` of one pmf, evaluated on its own."""
    pmf = _powerlaw_pmf(alpha, k_max, cutoff)
    k = np.arange(1, pmf.shape[0] + 1, dtype=np.float64)
    m = float((pmf * k).sum())
    var = float((pmf * k * k).sum()) - m * m
    return m, float(np.sqrt(max(var, 0.0)))


def fit_alpha_loop(mu, sigma, k_max):
    """The one-pmf-at-a-time grid search the array fit replaced."""
    if mu <= 1.0:
        return 4.0, float(k_max)

    def err(alpha, cutoff):
        m, s = loop_moments(alpha, cutoff, k_max)
        e = 2.0 * (np.log(m / mu)) ** 2
        if sigma > 0 and s > 0:
            e += (np.log(s / sigma)) ** 2
        return e

    alphas = np.linspace(0.8, 6.0, 27)
    cutoffs = np.geomspace(2.0, 4.0 * k_max, 17)
    best = (2.0, float(k_max))
    best_err = float("inf")
    for _round in range(3):
        for a in alphas:
            for c in cutoffs:
                e = err(float(a), float(c))
                if e < best_err:
                    best_err = e
                    best = (float(a), float(c))
        a0, c0 = best
        da = alphas[1] - alphas[0]
        alphas = np.linspace(max(0.5, a0 - da), min(7.0, a0 + da), 9)
        ratio = cutoffs[1] / cutoffs[0]
        cutoffs = np.geomspace(
            max(1.5, c0 / ratio), min(8.0 * k_max, c0 * ratio), 9
        )
    return best


def corpus_fit_inputs():
    """``(mu, sigma, k_max)`` as synthesis fits them for every Table I
    spec, at its default scale and at a tenth of it."""
    cases = []
    for spec in TABLE_I:
        for factor in (1.0, 0.1):
            s = spec.default_scale * factor
            n_cols = max(64, int(round(spec.cols * s)))
            k_max = int(
                min(n_cols, max(math.ceil(4 * spec.mu), spec.max_nnz * s**0.25))
            )
            cases.append(
                pytest.param(
                    spec.mu, spec.sigma, k_max, id=f"{spec.abbrev}-{factor}"
                )
            )
    return cases


class TestFitIdentity:
    @pytest.mark.parametrize("k_max", [2, 50, 3000, 20_000])
    def test_grid_moments_bitwise_equal_single_pmfs(self, k_max):
        alphas = np.repeat(np.linspace(0.5, 7.0, 7), 5)
        cutoffs = np.tile(np.geomspace(1.5, 8.0 * k_max, 5), 7)
        want = [
            loop_moments(a, c, k_max)
            for a, c in zip(alphas.tolist(), cutoffs.tolist())
        ]
        assert repr(_grid_moments(alphas, cutoffs, k_max)) == repr(want)

    @pytest.mark.parametrize("mu,sigma,k_max", corpus_fit_inputs())
    def test_corpus_fit_bitwise_equals_loop(self, mu, sigma, k_max):
        assert repr(fit_alpha(mu, sigma, k_max)) == repr(
            fit_alpha_loop(mu, sigma, k_max)
        )

    @pytest.mark.parametrize(
        "mu,sigma,k_max",
        [(5.0, 25.0, 1000), (3.0, 0.0, 2), (1.0, 3.0, 50), (2.5, 1.0, 3)],
    )
    def test_edge_fits_bitwise_equal_loop(self, mu, sigma, k_max):
        assert repr(fit_alpha(mu, sigma, k_max)) == repr(
            fit_alpha_loop(mu, sigma, k_max)
        )


class TestSample:
    def test_bounds(self):
        rng = np.random.default_rng(1)
        deg = sample_degrees(5000, 8.0, 30.0, 400, rng)
        assert deg.min() >= 1
        assert deg.max() <= 400

    def test_force_max_plants_hub(self):
        rng = np.random.default_rng(2)
        deg = sample_degrees(1000, 3.0, 5.0, 900, rng, force_max=True)
        assert deg.max() == 900

    def test_degenerate_max_one(self):
        rng = np.random.default_rng(3)
        deg = sample_degrees(100, 1.0, 0.0, 1, rng)
        assert np.all(deg == 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_degrees(0, 5.0, 5.0, 10, np.random.default_rng(0))


class TestCluster:
    def test_distribution_preserved(self):
        rng = np.random.default_rng(4)
        deg = sample_degrees(20_000, 8.0, 30.0, 500, rng)
        clustered = cluster_degrees(deg, rng)
        np.testing.assert_array_equal(
            np.sort(clustered), np.sort(deg)
        )

    def test_locality_increased(self):
        rng = np.random.default_rng(5)
        deg = sample_degrees(20_000, 8.0, 30.0, 500, rng)
        shuffled = rng.permutation(deg)
        clustered = cluster_degrees(shuffled, rng)

        def roughness(d):
            return float(np.abs(np.diff(np.log1p(d))).mean())

        assert roughness(clustered) < 0.5 * roughness(shuffled)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            cluster_degrees(np.ones(4, dtype=np.int64), np.random.default_rng(0), window=0)


class TestColumns:
    def test_range(self):
        rng = np.random.default_rng(6)
        cols = sample_columns(10_000, 777, rng)
        assert cols.min() >= 0
        assert cols.max() < 777

    def test_hub_skew(self):
        rng = np.random.default_rng(7)
        skewed = sample_columns(100_000, 1000, rng, hub_exponent=3.0)
        uniform = sample_columns(100_000, 1000, rng, hub_exponent=1.0)
        # low column ids are much hotter under skew
        assert (skewed < 10).mean() > 3 * (uniform < 10).mean()

    def test_uniform_exponent_is_uniform(self):
        rng = np.random.default_rng(8)
        cols = sample_columns(200_000, 100, rng, hub_exponent=1.0)
        counts = np.bincount(cols, minlength=100)
        assert counts.std() / counts.mean() < 0.1

    def test_rejects_sub_one_exponent(self):
        with pytest.raises(ValueError):
            sample_columns(10, 10, np.random.default_rng(0), hub_exponent=0.5)


class TestRmat:
    def test_shapes_and_range(self):
        rng = np.random.default_rng(9)
        rows, cols = rmat_edges(10, 5000, rng)
        assert rows.shape == cols.shape == (5000,)
        assert rows.max() < 1024 and cols.max() < 1024
        assert rows.min() >= 0

    def test_skewed_probs_concentrate(self):
        rng = np.random.default_rng(10)
        rows, _ = rmat_edges(12, 50_000, rng, probs=(0.7, 0.1, 0.1, 0.1))
        deg = np.bincount(rows, minlength=4096)
        # heavy-tailed: max row degree far above mean
        assert deg.max() > 10 * deg.mean()

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            rmat_edges(4, 10, np.random.default_rng(0), probs=(0.5, 0.5, 0.5, 0.5))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            rmat_edges(0, 10, np.random.default_rng(0))


class TestHistogram:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        deg = sample_degrees(5000, 5.0, 20.0, 300, rng)
        k, freq = degree_histogram(deg)
        assert freq.sum() == pytest.approx(1.0)
        assert np.all(k >= deg.min())

    def test_empty(self):
        k, freq = degree_histogram(np.array([], dtype=np.int64))
        assert k.size == 0

    @given(
        st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=200
        )
    )
    @settings(max_examples=40)
    def test_property_mass_conserved(self, degrees):
        k, freq = degree_histogram(np.array(degrees, dtype=np.int64))
        assert freq.sum() == pytest.approx(1.0)
