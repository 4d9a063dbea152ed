"""Divergence computation against closed-form oracles and the convexity
identities the amplification argument rests on."""

import math

import numpy as np
import pytest
from scipy import stats

from amplipriv import (
    DiscreteDistribution,
    MixtureSpec,
    SupportError,
    hockey_stick_discrete,
    hockey_stick_mixture_1d,
    mc_delta_estimate,
    mc_delta_mixtures,
    mix_discrete,
)

GAUSS_TV_UNIT_SHIFT = 0.3829249225480262  # Phi(1/2) - Phi(-1/2), closed form


def gauss_delta(shift, sigma, eps):
    """Closed-form hockey-stick divergence N(0, s) vs N(shift, s)."""
    a = shift / (2 * sigma) - eps * sigma / shift
    b = -shift / (2 * sigma) - eps * sigma / shift
    return stats.norm.cdf(a) - math.exp(eps) * stats.norm.cdf(b)


def laplace_delta(shift, scale, eps):
    """Closed-form hockey-stick divergence Lap(0, b) vs Lap(shift, b)."""
    if eps >= shift / scale:
        return 0.0
    return 1.0 - math.exp(-(shift / scale - eps) / 2.0)


def random_discrete(rng, size):
    probs = rng.uniform(0.05, 1.0, size)
    probs /= probs.sum()
    return DiscreteDistribution(tuple(range(size)), tuple(probs))


class TestDiscrete:
    def test_identical_distributions(self):
        d = DiscreteDistribution(("a", "b"), (0.5, 0.5))
        for eps in (0.0, 0.5, 2.0):
            assert hockey_stick_discrete(d, d, eps).value == 0.0

    def test_positive_part_sum(self):
        p = DiscreteDistribution((0, 1), (0.5, 0.5))
        q = DiscreteDistribution((0, 1), (0.25, 0.75))
        assert hockey_stick_discrete(p, q, 0.0).value == pytest.approx(0.25, abs=0)

    def test_randomized_response_tight_at_its_level(self):
        eps0 = math.log(3)
        p = DiscreteDistribution(("yes", "no"), (0.75, 0.25))
        q = DiscreteDistribution(("yes", "no"), (0.25, 0.75))
        assert hockey_stick_discrete(p, q, eps0).value <= 1e-15
        assert hockey_stick_discrete(p, q, eps0 - 0.01).value > 0.0

    def test_disjoint_supports(self):
        p = DiscreteDistribution(("a",), (1.0,))
        q = DiscreteDistribution(("b",), (1.0,))
        assert hockey_stick_discrete(p, q, 1.0).value == 1.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((0, 1), (0.5, 0.4))

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((0, 0), (0.5, 0.5))

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(2)
        p = random_discrete(rng, 6)
        q = random_discrete(rng, 6)
        grid = np.linspace(0, 3, 40)
        values = [hockey_stick_discrete(p, q, e).value for e in grid]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_delta_at_zero_is_total_variation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_discrete(rng, 5)
            q = random_discrete(rng, 5)
            tv = 0.5 * sum(
                abs(a - b) for a, b in zip(p.probs, q.probs)
            )
            assert hockey_stick_discrete(p, q, 0.0).value == pytest.approx(tv, abs=1e-14)


class TestQuadrature:
    def test_laplace_pure_dp_level(self):
        p = MixtureSpec(((1.0, "laplace", 0.0, 1.0),))
        q = MixtureSpec(((1.0, "laplace", 0.7, 1.0),))
        est = hockey_stick_mixture_1d(p, q, 0.7, tol=1e-9)
        assert est.value <= 1e-9

    def test_gaussian_total_variation(self):
        p = MixtureSpec(((1.0, "gaussian", 0.0, 1.0),))
        q = MixtureSpec(((1.0, "gaussian", 1.0, 1.0),))
        est = hockey_stick_mixture_1d(p, q, 0.0, tol=1e-9)
        assert est.value == pytest.approx(GAUSS_TV_UNIT_SHIFT, abs=1e-9)
        assert est.tolerance <= 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0, 2.0])
    def test_gaussian_closed_form(self, eps):
        p = MixtureSpec(((1.0, "gaussian", 0.0, 0.8),))
        q = MixtureSpec(((1.0, "gaussian", 0.5, 0.8),))
        est = hockey_stick_mixture_1d(p, q, eps, tol=1e-10)
        assert est.value == pytest.approx(gauss_delta(0.5, 0.8, eps), abs=1e-8)

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.9999, 1.0, 1.3])
    def test_laplace_closed_form(self, eps):
        p = MixtureSpec(((1.0, "laplace", 0.0, 1.0),))
        q = MixtureSpec(((1.0, "laplace", 1.0, 1.0),))
        est = hockey_stick_mixture_1d(p, q, eps, tol=1e-10)
        assert est.value == pytest.approx(laplace_delta(1.0, 1.0, eps), abs=1e-8)

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_tolerance_bounds_closed_form_error(self, family):
        oracle = gauss_delta if family == "gaussian" else laplace_delta
        misses = []
        for shift in (0.5, 1.0, 2.0):
            for scale in (0.3, 1.0, 3.0):
                for eps in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
                    p = MixtureSpec(((1.0, family, 0.0, scale),))
                    q = MixtureSpec(((1.0, family, shift, scale),))
                    est = hockey_stick_mixture_1d(p, q, eps, tol=1e-9)
                    err = abs(est.value - oracle(shift, scale, eps))
                    if err > est.tolerance:
                        misses.append((shift, scale, eps, err, est.tolerance))
        assert not misses

    def test_tail_delta_keeps_its_digits(self):
        # delta ~ 7e-200, far below the float spacing of the masses it differences
        p = MixtureSpec(((1.0, "gaussian", 0.0, 1.0),))
        q = MixtureSpec(((1.0, "gaussian", 0.1, 1.0),))
        est = hockey_stick_mixture_1d(p, q, 3.0)
        assert est.value == pytest.approx(gauss_delta(0.1, 1.0, 3.0), rel=1e-8)

    def test_equal_mixtures(self):
        p = MixtureSpec(((0.5, "gaussian", 0.0, 1.0), (0.5, "laplace", 1.0, 0.5)))
        assert hockey_stick_mixture_1d(p, p, 0.3, tol=1e-9).value == 0.0

    def test_point_mass_atoms(self):
        p = MixtureSpec(((0.6, "point_mass", 0.0, 0.0), (0.4, "point_mass", 1.0, 0.0)))
        q = MixtureSpec(((0.3, "point_mass", 0.0, 0.0), (0.7, "point_mass", 1.0, 0.0)))
        est = hockey_stick_mixture_1d(p, q, 0.0, tol=1e-9)
        assert est.value == pytest.approx(0.3, abs=1e-15)

    def test_atom_against_density(self):
        # an atom is singular w.r.t. any density: it survives whole
        p = MixtureSpec(((0.5, "point_mass", 0.0, 0.0), (0.5, "gaussian", 0.0, 1.0)))
        q = MixtureSpec(((1.0, "gaussian", 0.0, 1.0),))
        est = hockey_stick_mixture_1d(p, q, 0.0, tol=1e-9)
        assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_multidimensional_rejected(self):
        p = MixtureSpec(((1.0, "gaussian", 0.0, 1.0),))
        with pytest.raises(ValueError):
            hockey_stick_mixture_1d(p, p, 0.5, tol=-1.0)

    def test_mixture_vs_mc_consistency(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            def rand_mixture():
                k = int(rng.integers(1, 4))
                weights = rng.uniform(0.2, 1.0, k)
                weights /= weights.sum()
                comps = []
                for w in weights:
                    family = "gaussian" if rng.random() < 0.5 else "laplace"
                    comps.append(
                        (float(w), family, float(rng.uniform(-2, 2)),
                         float(rng.uniform(0.3, 1.5)))
                    )
                return MixtureSpec(tuple(comps))

            p, q = rand_mixture(), rand_mixture()
            eps = float(rng.uniform(0, 1))
            exact = hockey_stick_mixture_1d(p, q, eps, tol=1e-9)
            mc = mc_delta_mixtures(p, q, eps, n_samples=200_000, seed=trial)
            half = (mc.ci[1] - mc.ci[0]) / 2
            assert abs(mc.value - exact.value) <= 3 * half + 1e-9


class TestMonteCarlo:
    def test_identical_distributions_contain_zero(self):
        p = MixtureSpec(((1.0, "gaussian", 0.0, 1.0),))
        est = mc_delta_mixtures(p, p, 0.5, n_samples=50_000, seed=1)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.ci[0] == 0.0

    def test_gaussian_oracle_in_ci(self):
        p = MixtureSpec(((1.0, "gaussian", 0.0, 1.0),))
        q = MixtureSpec(((1.0, "gaussian", 1.0, 1.0),))
        est = mc_delta_mixtures(p, q, 0.0, n_samples=10**6, seed=11)
        assert est.ci[0] <= GAUSS_TV_UNIT_SHIFT <= est.ci[1]

    def test_zero_density_raises(self):
        def sampler(rng, size):
            return rng.uniform(0, 1, size)

        with pytest.raises(SupportError):
            mc_delta_estimate(
                sampler,
                p_density=lambda x: np.full_like(x, 1.0),
                q_density=lambda x: np.zeros_like(x),
                epsilon=0.1,
                n_samples=2000,
                seed=0,
            )

    def test_too_few_samples_rejected(self):
        p = MixtureSpec(((1.0, "gaussian", 0.0, 1.0),))
        with pytest.raises(ValueError):
            mc_delta_mixtures(p, p, 0.1, n_samples=10, seed=0)

    def test_atoms_rejected(self):
        p = MixtureSpec(((1.0, "point_mass", 0.0, 0.0),))
        with pytest.raises(SupportError):
            mc_delta_mixtures(p, p, 0.1, n_samples=2000, seed=0)

    def test_deterministic_given_seed(self):
        p = MixtureSpec(((1.0, "gaussian", 0.0, 1.0),))
        q = MixtureSpec(((1.0, "gaussian", 0.5, 1.0),))
        a = mc_delta_mixtures(p, q, 0.2, n_samples=20_000, seed=4)
        b = mc_delta_mixtures(p, q, 0.2, n_samples=20_000, seed=4)
        assert a.value == b.value and a.ci == b.ci


class TestConvexityIdentities:
    def test_convexity_inequality(self):
        # divergence against a mixture never beats the mixture of divergences
        rng = np.random.default_rng(9)
        for _ in range(300):
            x1 = random_discrete(rng, 5)
            x0 = random_discrete(rng, 5)
            x1p = random_discrete(rng, 5)
            beta = float(rng.uniform(0, 1))
            eps = float(rng.uniform(0, 2))
            mixed = mix_discrete([(1 - beta, x0), (beta, x1p)])
            lhs = hockey_stick_discrete(x1, mixed, eps).value
            rhs = (1 - beta) * hockey_stick_discrete(x1, x0, eps).value + \
                beta * hockey_stick_discrete(x1, x1p, eps).value
            assert lhs <= rhs + 1e-12

    def test_advanced_decomposition_identity(self):
        # D_{alpha'}(X || X') = eta * D_alpha(X1 || (1-beta) X0 + beta X1')
        rng = np.random.default_rng(10)
        for _ in range(300):
            x0 = random_discrete(rng, 4)
            x1 = random_discrete(rng, 4)
            x1p = random_discrete(rng, 4)
            eta = float(rng.uniform(0.05, 1.0))
            alpha = math.exp(float(rng.uniform(0, 2)))
            alpha_p = 1 + eta * (alpha - 1)
            beta = alpha_p / alpha
            x = mix_discrete([(1 - eta, x0), (eta, x1)])
            xp = mix_discrete([(1 - eta, x0), (eta, x1p)])
            lhs = hockey_stick_discrete(x, xp, math.log(alpha_p)).value
            inner = mix_discrete([(1 - beta, x0), (beta, x1p)])
            rhs = eta * hockey_stick_discrete(x1, inner, math.log(alpha)).value
            assert lhs == pytest.approx(rhs, abs=1e-12)
