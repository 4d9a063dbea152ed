"""Tests of the benchmark's own reference code (bench/reference.py).

Run from the checkout root:  python3 -m pytest -q bench/tests
"""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402


@pytest.mark.parametrize("sens,sigma,eps", [
    (1.0, 1.0, 0.5), (1.5, 7.3, 0.05), (0.5, 0.3, 2.0), (2.0, 1.0, 0.0), (1.0, 0.5, 4.0),
])
def test_gaussian_pair_matches_balle_wang(sens, sigma, eps):
    delta, err = ref.hockey_stick(ref.GAUSSIAN, [(0.0, 1.0)], [(sens, 1.0)], sigma, eps)
    want = ref.gaussian_pair_delta(sens, sigma, eps)
    assert abs(delta - want) <= err + 1e-15 * max(1.0, want)
    assert abs(delta - want) <= 1e-12 * want + 1e-300


def test_balle_wang_tail_is_relative_accurate():
    # in the tail the profile is ~1e-10; survival functions keep its digits
    delta, _ = ref.hockey_stick(ref.GAUSSIAN, [(0.0, 1.0)], [(1.0, 1.0)], 3.0, 2.0)
    want = ref.gaussian_pair_delta(1.0, 3.0, 2.0)
    assert 0 < want < 1e-8
    assert delta == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("sens,b,eps", [
    (1.0, 1.0, 0.25), (1.0, 1.5, 0.1), (0.5, 1.5, 0.1), (2.0, 0.7, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 3.0),
])
def test_laplace_pair_matches_closed_form(sens, b, eps):
    delta, err = ref.hockey_stick(ref.LAPLACE, [(0.0, 1.0)], [(sens, 1.0)], b, eps)
    want = max(0.0, 1.0 - math.exp((eps - sens / b) / 2.0))
    assert ref.laplace_pair_delta(sens, b, eps) == pytest.approx(want, rel=1e-14, abs=1e-300)
    assert abs(delta - want) <= err + 1e-15


def _brute_force(family, P, Q, scale, eps, points=400_001):
    lo = min(c for c, _ in P + Q) - 40 * scale
    hi = max(c for c, _ in P + Q) + 40 * scale
    x = np.linspace(lo, hi, points)

    def dens(law):
        z = (x[:, None] - np.array([c for c, _ in law])[None, :]) / scale
        k = np.exp(-np.abs(z)) / (2 * scale) if family == ref.LAPLACE else \
            np.exp(-0.5 * z * z) / (scale * math.sqrt(2 * math.pi))
        return k @ np.array([w for _, w in law])

    g = np.clip(dens(P) - math.exp(eps) * dens(Q), 0.0, None)
    return float(np.sum((g[1:] + g[:-1]) * np.diff(x)) / 2)


@pytest.mark.parametrize("family", [ref.LAPLACE, ref.GAUSSIAN])
def test_mixture_delta_matches_fine_quadrature(family):
    rng = random.Random(3)
    P = [(rng.uniform(-1, 1), rng.random()) for _ in range(6)]
    Q = [(rng.uniform(-1, 1), rng.random()) for _ in range(5)]
    P = [(c, w / sum(w for _, w in P)) for c, w in P]
    Q = [(c, w / sum(w for _, w in Q)) for c, w in Q]
    for eps in (0.0, 0.1, 0.5):
        delta, _ = ref.hockey_stick(family, P, Q, 0.4, eps)
        assert delta == pytest.approx(_brute_force(family, P, Q, 0.4, eps), abs=1e-7)


def test_bernstein_halfwidth_formula():
    n, alpha = 50_000, 1e-9
    log_term = math.log(2 / alpha)
    # zero mean: only the range term remains
    assert ref.bernstein_halfwidth(0.0, n, alpha) == pytest.approx(2 * log_term / (3 * n))
    mu = 0.03
    want = math.sqrt(2 * mu * (1 - mu) * log_term / n) + 2 * log_term / (3 * n)
    assert ref.bernstein_halfwidth(mu, n, alpha) == pytest.approx(want)
    # at tiny n Bernstein is looser than Hoeffding, which is returned instead
    assert ref.bernstein_halfwidth(0.5, 10, 0.01) == pytest.approx(math.sqrt(math.log(200) / 20))


def test_bernstein_halfwidth_covers():
    rng = np.random.default_rng(5)
    p, n, alpha, trials = 0.02, 2000, 0.05, 4000
    means = rng.binomial(n, p, size=trials) / n
    misses = np.mean(np.abs(means - p) > ref.bernstein_halfwidth(p, n, alpha))
    assert misses <= alpha


def test_kolmogorov_sf():
    assert ref.kolmogorov_sf(0.0) == 1.0
    # the two series agree where they meet
    assert ref.kolmogorov_sf(1.0 - 1e-12) == pytest.approx(ref.kolmogorov_sf(1.0), abs=1e-10)
    scipy_stats = pytest.importorskip("scipy.stats")
    for t in (0.3, 0.6, 0.9, 1.2, 1.63, 2.5):
        assert ref.kolmogorov_sf(t) == pytest.approx(scipy_stats.kstwobign.sf(t), abs=1e-12)


def test_ks_test_accepts_and_rejects():
    rng = np.random.default_rng(9)
    law = [(-0.5, 0.3), (0.25, 0.7)]
    cdf = lambda x: ref.mixture_cdf(ref.LAPLACE, law, 1.5, x)  # noqa: E731
    comp = rng.choice(2, size=4000, p=[0.3, 0.7])
    draws = np.array([-0.5, 0.25])[comp] + rng.laplace(0.0, 1.5, size=4000)
    assert ref.ks_test(draws.tolist(), cdf)[1] > 1e-3
    assert ref.ks_test((draws + 0.3).tolist(), cdf)[1] < 1e-6


def test_laws_are_normalised_and_enumerate_masks():
    rows = [[-0.5, 0.1, 0.4], [0.2, -0.3, 0.5]]
    row_law = ref.bernoulli_row_law(3, 0.5)
    assert len(row_law) == 8 and math.fsum(p for _, p in row_law) == 1.0
    law = ref.clipped_sum_law(rows, [row_law] * 2, 0.5)
    assert math.fsum(w for _, w in law) == pytest.approx(1.0, abs=1e-15)
    # the all-missing matrix puts weight 1/64 (at least) on centre 0
    assert dict(law)[0.0] >= 1 / 64
    vec = ref.clipped_mean_vector_law(rows, 0.5, 0.5)
    assert len(vec) == 64
    assert ref.clipped_mean_coordinate_law(rows, 0.5, 0, 0.5) == sorted(
        [(0.0, 0.25), (-0.25, 0.25), (0.1, 0.25), (-0.15, 0.25)])
    assert ref.same_law([(c + 1e-14, w) for c, w in law], law)
    assert not ref.same_law(law[1:], law)


def test_anchored_row_law_reads_the_anchor_bin():
    spec = {"anchor": [0], "q_all": 0.1, "candidates": [[0, 1], [0, 0]],
            "thresholds": [[0.0]], "score_table": {"0": [0.8, 0.2], "1": [0.3, 0.7]}}
    assert ref.anchored_row_law([-0.2, 0.4], spec) == [
        ((0, 1), 0.9 * 0.8), ((0, 0), 0.9 * 0.2), ((1, 1), 0.1)]
    assert ref.anchored_row_law([0.0, 0.4], spec)[0] == ((0, 1), 0.9 * 0.3)
