"""Divergence computation against closed-form oracles and the convexity
identities the amplification argument rests on."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from amplipriv import (
    DimensionError,
    VectorMixture,
    divergence,
    hockey_stick_mixture_1d,
    mc_delta_vector,
)
from amplipriv.divergence import (
    _DRAW_REACH,
    MC_MAX_COORDINATES,
    _TAIL_SCALES as _TAIL,
    _Kernel,
    check_samples,
)
from amplipriv.missingness import _KEY_MC, substream
from amplipriv.noise import FAMILIES
from oracles import DiscreteDistribution, gather_sample, hockey_stick_discrete, mix_discrete

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


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of points of each joint kernel call, as they are made."""
    calls = []
    real = _Kernel.__call__

    def counting(self, x):
        calls.append(len(x))
        return real(self, x)

    monkeypatch.setattr(_Kernel, "__call__", counting)
    return calls


def unit(family, centre, scale):
    """The 1-D noise law at ``centre``: a one-component mixture, k = 1."""
    return VectorMixture(weights=[1.0], centers=[[centre]], family=family, scale=scale)


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
        p = unit("laplace", 0.0, 1.0)
        q = unit("laplace", 0.7, 1.0)
        est = hockey_stick_mixture_1d(p, q, 0.7, tol=1e-9)
        assert est.value <= 1e-9

    def test_gaussian_total_variation(self):
        p = unit("gaussian", 0.0, 1.0)
        q = unit("gaussian", 1.0, 1.0)
        est = hockey_stick_mixture_1d(p, q, 0.0, tol=1e-9)
        assert est.value == pytest.approx(GAUSS_TV_UNIT_SHIFT, abs=1e-9)
        assert est.tolerance <= 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0, 2.0])
    def test_gaussian_closed_form(self, eps):
        p = unit("gaussian", 0.0, 0.8)
        q = unit("gaussian", 0.5, 0.8)
        est = hockey_stick_mixture_1d(p, q, eps, tol=1e-10)
        assert est.value == pytest.approx(gauss_delta(0.5, 0.8, eps), abs=1e-8)

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.9999, 1.0, 1.3])
    def test_laplace_closed_form(self, eps):
        p = unit("laplace", 0.0, 1.0)
        q = unit("laplace", 1.0, 1.0)
        est = hockey_stick_mixture_1d(p, q, eps, tol=1e-10)
        assert est.value == pytest.approx(laplace_delta(1.0, 1.0, eps), abs=1e-8)

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_tolerance_bounds_closed_form_error(self, family):
        oracle = gauss_delta if family == "gaussian" else laplace_delta
        misses = []
        for shift in (0.5, 1.0, 2.0):
            for scale in (0.3, 1.0, 3.0):
                for eps in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
                    p = unit(family, 0.0, scale)
                    q = unit(family, shift, scale)
                    est = hockey_stick_mixture_1d(p, q, eps, tol=1e-9)
                    err = abs(est.value - oracle(shift, scale, eps))
                    if err > est.tolerance:
                        misses.append((shift, scale, eps, err, est.tolerance))
        assert not misses

    def test_tail_delta_keeps_its_digits(self):
        # delta ~ 7e-200, far below the float spacing of the masses it differences
        p = unit("gaussian", 0.0, 1.0)
        q = unit("gaussian", 0.1, 1.0)
        est = hockey_stick_mixture_1d(p, q, 3.0)
        assert est.value == pytest.approx(gauss_delta(0.1, 1.0, 3.0), rel=1e-8)

    def test_equal_mixtures(self):
        p = VectorMixture(weights=[0.5, 0.5], centers=[[0.0], [1.0]], family="laplace",
                          scale=0.5)
        assert hockey_stick_mixture_1d(p, p, 0.3, tol=1e-9).value == 0.0

    def test_multidimensional_rejected(self):
        p = unit("gaussian", 0.0, 1.0)
        k2 = VectorMixture(weights=[1.0], centers=[[0.0, 0.0]], family="gaussian", scale=1.0)
        for a, b, name in ((k2, p, "P"), (p, k2, "Q")):
            with pytest.raises(DimensionError, match=f"{name} has output dimension 2"):
                hockey_stick_mixture_1d(a, b, 0.5)

    def test_nan_tol_rejected(self):
        p = unit("gaussian", 0.0, 1.0)
        with pytest.raises(ValueError):
            hockey_stick_mixture_1d(p, p, 0.5, tol=math.nan)

    def test_mixture_vs_mc_consistency(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            # P and Q of one family and scale, as one mechanism's output laws are
            family = "gaussian" if rng.random() < 0.5 else "laplace"
            scale = float(rng.uniform(0.3, 1.5))

            def rand_mixture():
                m = int(rng.integers(1, 4))
                weights = rng.uniform(0.2, 1.0, m)
                weights /= weights.sum()
                return VectorMixture(weights=weights, centers=rng.uniform(-2, 2, (m, 1)),
                                     family=family, scale=scale)

            p, q = rand_mixture(), rand_mixture()
            eps = float(rng.uniform(0, 1))
            exact = hockey_stick_mixture_1d(p, q, eps, tol=1e-9)
            mc = mc_delta_vector(p, q, eps, n_samples=200_000, seed=trial)
            half = (mc.ci[1] - mc.ci[0]) / 2
            assert abs(mc.value - exact.value) <= 3 * half + 1e-9


class TestSignCertificate:
    """The sign grid's cells are certified by a slope bound, not assumed."""

    def test_window_between_two_grid_points_is_found(self):
        # p > e^eps q only on a window about 0.03 wide near x = 0.0314, inside
        # one grid cell whose ends are both negative
        P = unit("gaussian", 0.5, 1.0)
        Q = VectorMixture([0.5, 0.5], [[-4.0], [4.0]], "gaussian", 1.0)
        eps = 7.880832973283487
        est = hockey_stick_mixture_1d(P, Q, eps)

        def positive_part(x):
            p = stats.norm.pdf(x, 0.5)
            q = 0.5 * (stats.norm.pdf(x, -4.0) + stats.norm.pdf(x, 4.0))
            return max(p - math.exp(eps) * q, 0.0)

        ref, ref_err = integrate.quad(positive_part, -1.0, 1.0, points=[0.0314],
                                      epsabs=1e-16, epsrel=1e-12, limit=200)
        assert ref == pytest.approx(1.5183e-5, rel=1e-4)
        assert abs(est.value - ref) <= est.tolerance + ref_err
        assert est.tolerance < 1e-9

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_a_sign_it_cannot_tell_is_charged_to_the_tolerance(self, family):
        # g is exactly 0 everywhere, so no cell can be certified: every one is
        # given up and its mass bound goes to the tolerance
        p = VectorMixture([0.5, 0.5], [[0.0], [1.0]], family, 0.5)
        est = hockey_stick_mixture_1d(p, p, 0.0)
        assert est.value == 0.0
        assert 1e-3 < est.tolerance < 1.0

    def test_a_grid_point_where_g_is_zero_is_a_root(self, kernel_calls):
        # at eps = 0 the root 0.5 of N(0, 1) against N(1, 1) is a grid point,
        # where g is exactly 0; the cell beside it holds that root and is not
        # split down to float resolution
        est = hockey_stick_mixture_1d(unit("gaussian", 0.0, 1.0), unit("gaussian", 1.0, 1.0), 0.0)
        assert abs(est.value - (2.0 * stats.norm.cdf(0.5) - 1.0)) <= est.tolerance
        assert len(kernel_calls) <= 51

    def test_far_tails_do_not_blunt_the_float_error_bound(self):
        # P's far centre, 10^4 scales out, takes log q to about -10^4 at the
        # grid's right end, where g's float error bound is about 1e-8. Left of
        # 0, g is the constant c = 1e-9, on a quarter of P's mass: the error
        # allowed for g there must come from the values there, about 1e-10,
        # or those cells cannot be certified and their mass bound goes to the
        # tolerance
        P = VectorMixture([0.5, 0.5], [[0.0], [1e4]], "laplace", 1.0)
        Q = unit("laplace", 4.0, 1.0)
        eps = 4.0 + math.log(0.5) - 1e-9
        c = 4.0 + math.log(0.5) - eps
        # p > e^eps q left of the root c / 2 and, all but e^-5000 of it, about P's far centre
        delta = 0.5 - 0.5 * math.expm1(-c / 2.0)
        est = hockey_stick_mixture_1d(P, Q, eps)
        assert abs(est.value - delta) <= est.tolerance
        assert est.tolerance < 1e-12

    def test_laplace_tails_at_one_scale_cost_no_tolerance(self):
        # past the outer centres a Laplace g at one scale is constant, so the
        # tails need no mass
        p, q = unit("laplace", 0.0, 1.0), unit("laplace", 1.0, 1.0)
        assert hockey_stick_mixture_1d(p, q, 0.5).tolerance < 1e-14

    def test_a_gaussian_tail_past_the_grid_has_no_float_mass(self):
        # so the quadrature adds nothing for the sign of g past its grid
        assert FAMILIES["gaussian"].tail(np.array([_TAIL]))[0] == 0.0


class TestOneFamilyAndScale:
    """P and Q are the output laws of one calibrated mechanism, so both
    estimators refuse a pair of two families or two scales, naming both."""

    @pytest.mark.parametrize("P, Q, named", [
        (unit("laplace", 0.0, 1.0), unit("gaussian", 1.0, 1.0),
         "laplace at scale 1.0 and gaussian at scale 1.0"),
        (unit("laplace", 0.0, 2.0), unit("laplace", 0.0, 1.0),
         "laplace at scale 2.0 and laplace at scale 1.0"),
    ])
    def test_a_pair_of_two_families_or_two_scales_is_refused(self, P, Q, named):
        message = f"mixtures must share one noise family and scale, got {named}$"
        with pytest.raises(ValueError, match=message):
            hockey_stick_mixture_1d(P, Q, 0.5)
        with pytest.raises(ValueError, match=message):
            mc_delta_vector(P, Q, 0.5, 1000, 0)


def lattice(P, Q, eps, reach):
    """The centre lattice's (top, err) for P and Q, with no limit on its size."""
    return divergence._lattice_sup(P, Q, _Kernel((P, Q)), eps, math.inf, reach)


@st.composite
def laplace_pair(draw, ks=st.integers(1, 3)):
    """Two small Laplace mixtures of one output dimension k and one scale,
    their centres drawn from a lattice of quarters or from anywhere in [-2, 2]."""
    k, scale = draw(ks), draw(st.sampled_from([0.25, 0.5, 1.0, 2.5]))
    value = st.one_of(st.integers(-8, 8).map(lambda i: i / 4.0), st.floats(-2.0, 2.0))

    def mixture():
        m = draw(st.integers(1, 4))
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=m, max_size=m)), dtype=float)
        c = draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=m, max_size=m))
        return VectorMixture(w / w.sum(), c, "laplace", scale)

    return mixture(), mixture()


def level(P, Q, slack):
    """An epsilon ``slack`` above the pair's lattice maximum of log p - log q,
    so that about two draws in three are certified."""
    return max(lattice(P, Q, 0.0, 0.0)[0] + slack, 0.0)


@contextlib.contextmanager
def certificate_off():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divergence, "_lattice_sup", lambda *args: None)
        yield


class TestLatticeCertificate:
    """For Laplace at one scale the supremum of log p - log q lies on the
    lattice of centre coordinates, so where it is negative the divergence is
    0 with no grid and no draw, and the reports are those of the grid and the
    draw."""

    PAIR = (VectorMixture([0.5, 0.5], [[0.0, 1.0], [1.0, -0.5]], "laplace", 1.0),
            VectorMixture([0.25, 0.75], [[0.5, 1.0], [1.0, 0.0]], "laplace", 1.0))

    @settings(max_examples=150, deadline=None)
    @given(pair=laplace_pair(), slack=st.floats(-1.0, 2.0), seed=st.integers(0, 2**32 - 1))
    @example(pair=PAIR, slack=0.0, seed=0)
    def test_the_lattice_maximum_bounds_g_everywhere(self, pair, slack, seed):
        P, Q = pair
        eps = level(P, Q, slack)
        top, err = lattice(P, Q, eps, 50.0)
        assert err < 1e-8
        # a cloud 50 scales past the outer centres, and one about the lattice's corners
        rng, b = np.random.default_rng(seed), P.scale
        both = np.vstack((P.centers, Q.centers))
        lo, hi = both.min(axis=0) - 50.0 * b, both.max(axis=0) + 50.0 * b
        near = both[rng.integers(len(both), size=2000)] + rng.uniform(-b, b, (2000, len(lo)))
        x = np.vstack((rng.uniform(lo, hi, (2000, len(lo))), near))
        log_p, log_q = _Kernel((P, Q))(x)
        assert (log_p - (eps + log_q)).max() <= top + err

    @settings(max_examples=150, deadline=None)
    @given(pair=laplace_pair(st.just(1)), slack=st.floats(-1.0, 2.0))
    def test_a_certified_quadrature_is_the_grid_paths_result(self, pair, slack):
        P, Q = pair
        eps = level(P, Q, slack)
        top, err = lattice(P, Q, eps, _TAIL)
        est = hockey_stick_mixture_1d(P, Q, eps)
        with certificate_off():
            grid = hockey_stick_mixture_1d(P, Q, eps)
        assert repr(est) == repr(grid)
        if top + err < 0.0:
            assert (est.value, est.tolerance) == (0.0, 8.0 * divergence._EPS * (1.0 + math.exp(eps)))

    @settings(max_examples=100, deadline=None)
    @given(pair=laplace_pair(), slack=st.floats(-1.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_a_certified_estimate_is_the_sampled_one(self, pair, slack, seed):
        P, Q = pair
        eps = level(P, Q, slack)
        top, err = lattice(P, Q, eps, _DRAW_REACH)
        est = mc_delta_vector(P, Q, eps, 1000, seed)
        with certificate_off():
            sampled = mc_delta_vector(P, Q, eps, 1000, seed)
        assert repr(est) == repr(sampled)
        if top + err < 0.0:  # every sampled statistic is 0
            log_p, log_q = _Kernel((P, Q))(P.sample(substream(seed, _KEY_MC, 0), 1000))
            assert not np.clip(1.0 - np.exp(eps + log_q - log_p), 0.0, None).any()

    @pytest.mark.parametrize("P, Q, eps", [
        (unit("gaussian", 0.0, 1.0), unit("gaussian", 1.0, 1.0), 5.0),  # no Gaussian pair
        (unit("laplace", 0.0, 1.0), unit("laplace", 1.0, 1.0), 0.5),  # a root at x = 0.75
    ])
    def test_never_certified(self, P, Q, eps):
        for reach in (_TAIL, _DRAW_REACH):
            sup = lattice(P, Q, eps, reach)
            assert sup is None or sup[0] + sup[1] >= 0.0

    def test_a_certified_quadrature_evaluates_only_the_centres(self, kernel_calls):
        P, Q = unit("laplace", 0.0, 1.0), unit("laplace", 1.0, 1.0)
        est = hockey_stick_mixture_1d(P, Q, 1.5)
        assert est.value == laplace_delta(1.0, 1.0, 1.5) == 0.0
        assert kernel_calls == [2]

    def test_a_lattice_larger_than_the_sample_is_not_read(self, kernel_calls):
        # 11 values per coordinate make 1331 lattice points, more than 1000 draws
        P = VectorMixture(np.full(11, 1 / 11), np.repeat(np.arange(11.0)[:, None], 3, axis=1),
                          "laplace", 1.0)
        est = mc_delta_vector(P, P, 1.0, 1000, 0)
        assert est.value == 0.0 and kernel_calls == [1000]
        assert divergence._lattice_sup(P, P, _Kernel((P, P)), 1.0, 1000, _DRAW_REACH) is None


def _mixture_delta_oracle(P, Q, eps):
    """delta from roots found on a dense scan and refined by brentq, and each
    positive interval's mass from scipy's CDFs: apart from the package's
    grid, kernel and tail sums."""
    dist = {"gaussian": stats.norm, "laplace": stats.laplace}

    def diff(x):
        x = np.atleast_1d(x)[None]
        return sum(sign * (M.weights[:, None] * dist[M.family].pdf(x, M.centers, M.scale)).sum(0)
                   for M, sign in ((P, 1.0), (Q, -math.exp(eps))))

    def mass(M, a, b):
        cdf = dist[M.family].cdf
        return np.sum(M.weights * (cdf(b, M.centers[:, 0], M.scale) - cdf(a, M.centers[:, 0], M.scale)))

    reach = 40 * max(P.scale, Q.scale)
    x = np.linspace(min(P.centers.min(), Q.centers.min()) - reach,
                    max(P.centers.max(), Q.centers.max()) + reach, 400001)
    f = diff(x)
    cross = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
    roots = [optimize.brentq(lambda t: diff(t)[0], x[i], x[i + 1], xtol=1e-300, rtol=8.9e-16)
             for i in cross]
    edges = [-np.inf, *roots, np.inf]
    positive = [f[0] > 0, *(f[cross + 1] > 0)]
    return math.fsum(mass(P, a, b) - math.exp(eps) * mass(Q, a, b)
                     for a, b, pos in zip(edges[:-1], edges[1:], positive) if pos)


class TestMixtureTolerance:
    @pytest.mark.parametrize("trial", range(12))
    def test_value_within_its_tolerance_of_an_independent_oracle(self, trial):
        rng = np.random.default_rng(100 + trial)
        family = ("gaussian", "laplace")[trial % 2]
        scale = float(rng.uniform(0.3, 2.0))

        def mixture():
            return VectorMixture(rng.dirichlet(np.ones(3)), rng.uniform(-2, 2, (3, 1)), family, scale)

        P, Q = mixture(), mixture()
        eps = float(rng.uniform(0.0, 1.5))
        est = hockey_stick_mixture_1d(P, Q, eps)
        assert abs(est.value - _mixture_delta_oracle(P, Q, eps)) <= est.tolerance


class TestMonteCarlo:
    def test_identical_distributions_contain_zero(self):
        p = unit("gaussian", 0.0, 1.0)
        est = mc_delta_vector(p, p, 0.5, n_samples=50_000, seed=1)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.ci[0] == 0.0

    def test_gaussian_oracle_in_ci(self):
        p = unit("gaussian", 0.0, 1.0)
        q = unit("gaussian", 1.0, 1.0)
        est = mc_delta_vector(p, q, 0.0, n_samples=10**6, seed=11)
        assert est.ci[0] <= GAUSS_TV_UNIT_SHIFT <= est.ci[1]

    def test_interval_covers_tiny_delta(self):
        # delta = 1.0e-8, far below 1 / n: the interval must still hold it
        p = unit("gaussian", 0.0, 1.0)
        q = unit("gaussian", 1.0, 1.0)
        eps = 5.7761
        exact = gauss_delta(1.0, 1.0, eps)
        assert exact == pytest.approx(1.0e-8, rel=1e-4)
        for seed in range(40):
            est = mc_delta_vector(p, q, eps, n_samples=20_000, seed=seed)
            assert est.ci[0] <= exact <= est.ci[1]

    def test_vanishing_q_counts_in_full(self):
        # q underflows to zero at every point P draws: delta is 1
        p = unit("gaussian", 0.0, 1.0)
        q = unit("gaussian", 1e4, 1.0)
        est = mc_delta_vector(p, q, 1.0, n_samples=2000, seed=0)
        assert est.value == 1.0

    def test_too_few_samples_rejected(self):
        p = unit("gaussian", 0.0, 1.0)
        with pytest.raises(ValueError):
            mc_delta_vector(p, p, 0.1, n_samples=10, seed=0)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        w = np.full(4, 0.25)
        k3, k1 = (
            VectorMixture(weights=w, centers=rng.uniform(-1, 1, (4, k)), family="laplace", scale=1.0)
            for k in (3, 1)
        )
        one = unit("laplace", 0.0, 1.0)
        for p, q, dims in ((k3, k1, (3, 1)), (k1, k3, (1, 3)), (one, k3, (1, 3))):
            with pytest.raises(DimensionError,
                               match="P has output dimension %d but Q has output dimension %d" % dims):
                mc_delta_vector(p, q, 0.5, n_samples=2000, seed=0)

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_invalid_epsilon_rejected(self, epsilon):
        p = unit("gaussian", 0.0, 1.0)
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            mc_delta_vector(p, p, epsilon, n_samples=2000, seed=0)

    def test_pinned_vector_estimate(self):
        # 64-component, k = 3 Laplace pair; value and interval to the last bit
        rng = np.random.default_rng(64)
        weights = rng.uniform(0.1, 1.0, (2, 64))
        weights /= weights.sum(axis=1, keepdims=True)
        centers = rng.uniform(-1.0, 1.0, (2, 64, 3))
        centers[1] += 0.5
        p, q = (
            VectorMixture(weights=weights[i], centers=centers[i], family="laplace", scale=0.8)
            for i in (0, 1)
        )
        est = mc_delta_vector(p, q, 0.25, n_samples=20_000, seed=2024)
        assert repr(est.value) == "0.20600537380186307"
        assert repr(est.ci) == "(0.19923253450774636, 0.21277821309597977)"

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    @pytest.mark.parametrize("size, k", [(1, 1), (3, 1), (7, 3), (1001, 3), (50_000, 3)])
    def test_sample_matches_the_gather_oracle(self, family, size, k):
        rng = np.random.default_rng(k)
        mix = VectorMixture(weights=np.full(16, 1 / 16), centers=rng.choice([-0.5, -0.0, 0.0, 0.5],
                            (16, k)), family=family, scale=1.5)
        ours, theirs = np.random.default_rng(size), np.random.default_rng(size)
        got, want = mix.sample(ours, size), gather_sample(mix, theirs, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("k", [1, 3])
    def test_oversized_sample_count_refused(self, k):
        p = VectorMixture(weights=[1.0], centers=np.zeros((1, k)), family="laplace", scale=1.0)
        with pytest.raises(ValueError, match="n_samples: at most %d at output dimension %d, "
                           "got 10000000000000" % (MC_MAX_COORDINATES // k, k)):
            mc_delta_vector(p, p, 0.5, n_samples=10**13, seed=0)
        check_samples(MC_MAX_COORDINATES // k, k)  # the cap itself is accepted
        with pytest.raises(ValueError, match="n_samples: at most"):
            check_samples(MC_MAX_COORDINATES // k + 1, k)

    def test_deterministic_given_seed(self):
        p = unit("gaussian", 0.0, 1.0)
        q = unit("gaussian", 0.5, 1.0)
        a = mc_delta_vector(p, q, 0.2, n_samples=20_000, seed=4)
        b = mc_delta_vector(p, q, 0.2, n_samples=20_000, seed=4)
        assert a.value == b.value and a.ci == b.ci


def direct_log_density(x, weights, family, centers, scale):
    """Unblocked (N x m x k) log-sum-exp of a product-noise mixture."""
    z = np.abs(x[:, None, :] - centers[None, :, :]) / scale
    k = centers.shape[1]
    if family == "laplace":
        comp = -z.sum(axis=2) - k * math.log(2.0 * scale)
    else:
        comp = -0.5 * (z * z).sum(axis=2) - k * math.log(scale * math.sqrt(2.0 * math.pi))
    comp = comp + np.log(weights)
    peak = comp.max(axis=1)
    return peak + np.log(np.exp(comp - peak[:, None]).sum(axis=1))


def cube_log_density(mix, x, block=256):
    """The kernel as one (points x k x components) buffer per block of points,
    summed over the coordinate axis: the layout the coordinate-outer kernel
    must reproduce bit for bit."""
    centers = np.array(mix.kernel_centers)  # (k, m)
    out = np.full(len(x), -np.inf)
    for i in range(0, len(x), block):
        z = x[i : i + block, :, None] - centers
        z /= mix.scale
        FAMILIES[mix.family].penalty(z)
        pen = z[:, 0] if z.shape[1] == 1 else z.sum(axis=1)
        pen = mix.log_coef - pen
        peak = pen.max(axis=1, keepdims=True)
        out[i : i + block] = peak[:, 0] + np.log(np.exp(pen - peak).sum(axis=1))
    return out


class TestMixtureKernel:
    # "<family>-pair" is a P and a Q of that family and one scale on signed-zero lattice centres
    @pytest.mark.parametrize("family, k", [
        *((f, k) for k in (1, 2, 3, 5) for f in ("laplace", "gaussian")),
        ("laplace-pair", 1), ("gaussian-pair", 1),
    ])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_matches_cube_kernel_bit_for_bit(self, family, k, n):
        rng = np.random.default_rng(1000 * k + n)
        weights = rng.uniform(0.1, 1.0, 41)
        weights /= weights.sum()
        centers = rng.uniform(-2.0, 2.0, (41, k))
        x = rng.uniform(-6.0, 6.0, (n, k))
        if family.endswith("-pair"):
            lattice = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5], (2, 41, k))
            pair = [VectorMixture(weights=weights, centers=c, family=family.removesuffix("-pair"),
                                  scale=0.7)
                    for c in lattice]
            for got, mix in zip(_Kernel(pair)(x), pair):
                assert np.array_equal(got, mix.log_density(x))
                assert np.array_equal(got, cube_log_density(mix, x))
        else:
            mix = VectorMixture(weights=weights, centers=centers, family=family, scale=0.7)
            assert np.array_equal(mix.log_density(x), cube_log_density(mix, x))

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_blocked_matches_direct(self, family, k, n):
        rng = np.random.default_rng(n + 10 * k)
        weights = rng.uniform(0.1, 1.0, 37)
        weights /= weights.sum()
        centers = rng.uniform(-2.0, 2.0, (37, k))
        x = rng.uniform(-6.0, 6.0, (n, k))
        vm = VectorMixture(weights=weights, centers=centers, family=family, scale=0.7)
        got = vm.log_density(x)
        want = direct_log_density(x, weights, family, centers, 0.7)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def joint_case(case, k, rng):
    """Two or three mixtures of one family and scale for one joint kernel:
    overlapping centres on a lattice with both signed zeros, or disjoint
    centres; each has a zero-weight component."""
    m = 24
    weights = rng.uniform(0.1, 1.0, (3, m))
    weights[:, 5] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    lattice = np.array([-0.5, -0.0, 0.0, 0.25, 0.5])
    family, layout = case.split("-")
    if layout == "overlap":
        centers = rng.choice(lattice, (3, m, k))
        centers[1, m // 2 :] = centers[0, m // 2 :]
        centers[2] = centers[0]
    else:
        centers = np.stack([rng.uniform(-2.0, -1.0, (m, k)), rng.uniform(1.0, 2.0, (m, k))])
    return [VectorMixture(weights=w, centers=c, family=family, scale=0.7)
            for w, c in zip(weights, centers)]


class TestJointKernel:
    @pytest.mark.parametrize("case, k", [
        (f"{f}-{layout}", k) for f in ("laplace", "gaussian")
        for layout in ("overlap", "disjoint") for k in (1, 3)
    ])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_joint_matches_cube_kernel_bit_for_bit(self, case, k, n):
        rng = np.random.default_rng(100 * k + n)
        mixtures = joint_case(case, k, rng)
        x = rng.uniform(-6.0, 6.0, (n, k))
        x[: n // 2, 0] = rng.choice([-0.5, -0.0, 0.0, 0.25], n // 2)  # on the centres
        joint = _Kernel(mixtures)(x)
        assert joint.shape == (len(mixtures), n)
        for got, mix in zip(joint, mixtures):
            assert np.array_equal(got, cube_log_density(mix, x))

    def test_joint_call_memory_is_per_block(self):
        # an audit-sized pair: 50,000 points, 64 components, k = 3
        rng = np.random.default_rng(64)
        p, q = (
            VectorMixture(weights=np.full(64, 1 / 64), centers=rng.choice([-0.5, 0.0, 0.5], (64, 3)),
                          family="laplace", scale=1.5)
            for _ in range(2)
        )
        kernel = _Kernel((p, q))
        x = rng.uniform(-3.0, 3.0, (50_000, 3))
        tracemalloc.start()
        try:
            kernel(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two output rows take 0.8 MB and one (points x components)
        # buffer over every point would take 25.6 MB; the temporaries of a
        # block of points take a few hundred kB
        assert peak < 3_000_000

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_mc_estimate_memory_is_per_sample_coordinate(self, family):
        # an audit-sized estimate: 50,000 samples, 64 components, k = 3
        rng = np.random.default_rng(64)
        p, q = (
            VectorMixture(weights=np.full(64, 1 / 64), centers=rng.choice([-0.5, 0.0, 0.5], (64, 3)),
                          family=family, scale=1.5)
            for _ in range(2)
        )
        tracemalloc.start()
        try:
            mc_delta_vector(p, q, 0.3, n_samples=50_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # about 8 (k + 3) bytes per sample, 2.4 MB: the points and the two
        # log-density rows, plus the kernel's block buffers; whole-array
        # draws, sample and statistic would take 6.4-6.6 MB
        assert peak < 3_000_000


class TestMixtureValidation:
    @pytest.mark.parametrize("change, message", [
        (dict(family="cauchy"), "unknown mixture family"),
        (dict(scale=0.0), "finite positive scale"),
        (dict(scale=-1.0), "finite positive scale"),
        (dict(scale=math.nan), "finite positive scale"),
        (dict(scale=math.inf), "finite positive scale"),
        (dict(weights=np.array([0.7, 0.7])), "sum to"),
        (dict(weights=np.array([1.5, -0.5])), "nonnegative"),
        (dict(weights=np.array([math.nan, 1.0])), "nonnegative"),
        (dict(centers=np.array([0.0, 1.0])), "centers must be"),
        (dict(centers=np.zeros((3, 2))), "centers must be"),
        (dict(centers=np.array([[0.0, math.nan], [1.0, 1.0]])), "centers must be finite"),
        (dict(centers=np.array([[0.0, 0.0], [-math.inf, 1.0]])), "centers must be finite"),
    ])
    def test_invalid_mixture_rejected(self, change, message):
        fields = dict(weights=np.array([0.5, 0.5]), centers=np.array([[0.0, 0.0], [1.0, 1.0]]),
                      family="laplace", scale=1.0)
        with pytest.raises(ValueError, match=message):
            VectorMixture(**{**fields, **change})

    def test_valid_mixture_keeps_array_fields(self):
        vm = VectorMixture(weights=[0.25, 0.75], centers=[[0.0], [1.0]], family="gaussian",
                           scale=2)
        assert vm.weights.tolist() == [0.25, 0.75]
        assert vm.centers.shape == (2, 1) and vm.scale == 2.0
        # the components view: a float centre at k = 1, a tuple above
        assert vm.components == ((0.25, "gaussian", 0.0, 2.0), (0.75, "gaussian", 1.0, 2.0))
        assert all(type(c) is float for _, _, c, _ in vm.components)
        k2 = VectorMixture(weights=[1.0], centers=[[0.5, -1.0]], family="laplace", scale=1.0)
        assert k2.components == ((1.0, "laplace", (0.5, -1.0), 1.0),)


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


class TestPinnedQuadrature:
    """``hockey_stick_mixture_1d`` to the last bit on two 41-component
    mixtures whose shared zero centres are -0.0 in P and 0.0 in Q. Three
    rules keep these bits: ``math.log`` of each weight (the ``ODD`` weights
    are ones that numpy's vectorised log can round differently), the centre
    set built P first, and one ``math.fsum`` per block over both mixtures."""

    POOL = np.random.default_rng(7).uniform(0.01, 0.03, 20000)
    ODD = [1155, 6056, 8732, 9372, 19120]
    PINNED = {
        ("laplace", 0.0): ("0x1.bbf3b81016554p-4", "0x1.01d97905598a2p-47"),
        ("laplace", 0.05): ("0x1.88a42ab9945c7p-4", "0x1.0867904c8d87dp-47"),
        ("laplace", 0.2): ("0x1.e54d440cc1eaep-5", "0x1.20037aa5613a7p-47"),
        ("gaussian", 0.0): ("0x1.b9031222ac690p-4", "0x1.0204d6e8469a5p-47"),
        ("gaussian", 0.05): ("0x1.8a2e4fb51a44ep-4", "0x1.0a82eb98b9355p-47"),
        ("gaussian", 0.2): ("0x1.141f46cd06526p-4", "0x1.1fe8ce3d9f14ep-47"),
    }

    def mixture(self, idx, seed, zero, shift, family):
        w = np.append(self.POOL[idx], 1.0 - self.POOL[idx].sum())
        c = np.random.default_rng(seed).integers(-12, 13, len(w)) / 16.0 + shift
        c[:3] = zero
        return VectorMixture(w, c[:, None], family, 0.5)

    @pytest.mark.parametrize("family, epsilon", list(PINNED))
    def test_value_and_tolerance_to_the_last_bit(self, family, epsilon):
        P = self.mixture(self.ODD + list(range(35)), 1, -0.0, 0.0, family)
        Q = self.mixture(self.ODD[::-1] + list(range(35, 70)), 2, 0.0, 0.0625, family)
        est = hockey_stick_mixture_1d(P, Q, epsilon)
        assert (est.value.hex(), est.tolerance.hex()) == self.PINNED[family, epsilon]


def test_mixture_equality_and_hash_are_identity():
    def two():
        return VectorMixture([0.5, 0.5], [[0.0], [1.0]], "laplace", 1.0)

    a, b = two(), two()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
