"""Divergence computation against closed-form oracles and the convexity
identities the amplification argument rests on."""

import contextlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from amplipriv import (
    CompleteDataset,
    ComposedMechanism,
    DatasetMechanism,
    DimensionError,
    McarBernoulli,
    NeighborPair,
    VectorMixture,
    composed_output_mixture,
    divergence,
    hockey_stick_mixture_1d,
    make_standard_query,
    mc_delta_vector,
    named_postprocess,
    verify_amplification,
)
from amplipriv.divergence import MC_MAX_COORDINATES, _Kernel, check_samples
from amplipriv.missingness import _KEY_MC, substream
from amplipriv.roots import _TAIL_SCALES as _TAIL
from amplipriv.noise import EPSILON_MAX, FAMILIES, calibrate
from amplipriv import roots
from amplipriv.roots import laplace_signs
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


@contextlib.contextmanager
def counted_kernel():
    """The number of points of each joint kernel call, as they are made."""
    calls = []
    real = _Kernel.__call__

    def counting(self, x):
        calls.append(len(x))
        return real(self, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Kernel, "__call__", counting)
        yield calls


@pytest.fixture
def kernel_calls():
    with counted_kernel() as calls:
        yield calls


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

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_epsilon_up_to_the_largest_finite_exponential(self, family):
        # past ln(DBL_MAX) e^eps overflows: a ValueError, not an OverflowError
        P, Q = unit(family, 0.0, 1.0), unit(family, 1.0, 1.0)
        with pytest.raises(ValueError, match="^epsilon: must be nonnegative and at most 709.78"):
            hockey_stick_mixture_1d(P, Q, 710.0)
        est = hockey_stick_mixture_1d(P, Q, EPSILON_MAX)
        assert est.value == 0.0 and math.isfinite(est.tolerance)

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
        p = VectorMixture([0.5, 0.5], [[0.0], [1.0]], family, 0.5)
        est = hockey_stick_mixture_1d(p, p, 0.0)
        assert est.value == 0.0
        if family == "gaussian":
            # g is exactly 0 everywhere, so no grid cell can be certified: every
            # one is given up and its mass bound goes to the tolerance
            assert 1e-3 < est.tolerance < 1.0
        else:
            # every running sum is 0, within its float error bound: each piece
            # and tail is charged that bound, a few ulp, and not its mass
            assert 8.0 * divergence._EPS * 2.0 < est.tolerance < 1e-14

    def test_a_grid_point_where_g_is_zero_is_a_root(self, kernel_calls):
        # at eps = 0 the root 0.5 of N(0, 1) against N(1, 1) is a grid point,
        # where g is exactly 0; the cell beside it holds that root and is not
        # split down to float resolution
        est = hockey_stick_mixture_1d(unit("gaussian", 0.0, 1.0), unit("gaussian", 1.0, 1.0), 0.0)
        assert abs(est.value - (2.0 * stats.norm.cdf(0.5) - 1.0)) <= est.tolerance
        assert len(kernel_calls) <= 51

    def test_far_tails_do_not_blunt_the_float_error_bound(self, kernel_calls):
        # P's far centre, 10^4 scales out, is a term of every running sum. Left
        # of 0, h is p (1 - e^-c), c = 1e-9, on a quarter of P's mass: the sign
        # there comes from R_0 = (1 - e^-c) / 2, so the error bound of R_0 must
        # come from the terms near it, about 1e-16, and not grow with the far
        # centre's, or the tail is unsettled and its bound goes to the tolerance
        P = VectorMixture([0.5, 0.5], [[0.0], [1e4]], "laplace", 1.0)
        Q = unit("laplace", 4.0, 1.0)
        eps = 4.0 + math.log(0.5) - 1e-9
        c = 4.0 + math.log(0.5) - eps
        # p > e^eps q left of the root c / 2 and, all but e^-5000 of it, about P's far centre
        delta = 0.5 - 0.5 * math.expm1(-c / 2.0)
        est = hockey_stick_mixture_1d(P, Q, eps)
        assert abs(est.value - delta) <= est.tolerance
        assert est.tolerance < 1e-12
        assert kernel_calls == []  # the sweep reads no density

    def test_laplace_tails_at_one_scale_cost_no_tolerance(self, kernel_calls):
        # past the outer centres a Laplace h at one scale is one exponential
        # times R_0 or L_(m-1), whose signs the sweep settles, so the tails
        # need no mass
        p, q = unit("laplace", 0.0, 1.0), unit("laplace", 1.0, 1.0)
        assert hockey_stick_mixture_1d(p, q, 0.5).tolerance < 1e-14
        assert kernel_calls == []

    def test_a_gaussian_tail_past_the_grid_has_no_float_mass(self):
        # so the quadrature adds nothing for the sign of g past its grid
        assert FAMILIES["gaussian"].tail(np.array([_TAIL]))[0] == 0.0


def mp_laplace_delta(P, Q, eps):
    """delta of one-scale Laplace P and Q at 50 digits, at the exact e^eps.
    With s_j the signed weight at distinct centre c_j, on the piece
    x = c_k + t, 0 <= t <= d, 2b h = L e^(-t / b) + R e^(-(d - t) / b) with
    L and R sums over the centres left and right of it; its positive part
    integrates in closed form, as do the two tails."""
    with mpmath.workdps(50):
        b, alpha = mpmath.mpf(P.scale), mpmath.exp(mpmath.mpf(eps))
        weight = {}
        for M, sign in ((P, 1), (Q, -alpha)):
            for w, c in zip(M.weights.tolist(), M.centers[:, 0].tolist()):
                weight[c] = weight.get(c, 0) + sign * mpmath.mpf(w)
        c = [mpmath.mpf(x) for x in sorted(weight)]
        s = [weight[x] for x in sorted(weight)]
        L = [mpmath.fsum(s[j] * mpmath.exp(-(c[k] - c[j]) / b) for j in range(k + 1))
             for k in range(len(c))]
        R = [mpmath.fsum(s[j] * mpmath.exp(-(c[j] - c[k]) / b) for j in range(k, len(c)))
             for k in range(len(c))]
        total = max(R[0], 0) / 2 + max(L[-1], 0) / 2
        for k in range(len(c) - 1):
            l, r, d = L[k], R[k + 1], c[k + 1] - c[k]
            cuts = [mpmath.mpf(0), d]
            if l * r < 0 and 0 < d / 2 + b / 2 * mpmath.log(-l / r) < d:
                cuts.insert(1, d / 2 + b / 2 * mpmath.log(-l / r))
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                mid = (lo + hi) / 2
                if l * mpmath.exp(-mid / b) + r * mpmath.exp(-(d - mid) / b) > 0:
                    total += (l * (mpmath.exp(-lo / b) - mpmath.exp(-hi / b))
                              + r * (mpmath.exp(-(d - hi) / b) - mpmath.exp(-(d - lo) / b))) / 2
        return total


@st.composite
def laplace_pair_1d(draw):
    """Two Laplace mixtures of 1 to 6 components at one scale, centres from a
    lattice of quarters or anywhere in [-3, 3], some of them shifted by one
    far offset, 1e3 to 1e6 scales, so that one piece is that long."""
    scale = draw(st.sampled_from([0.25, 0.5, 1.0, 2.5]))
    far = scale * draw(st.one_of(st.just(0.0), st.floats(1e3, 1e6)))
    value = st.one_of(st.integers(-12, 12).map(lambda i: i / 4.0), st.floats(-3.0, 3.0))

    def mixture():
        m = draw(st.integers(1, 6))
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=m, max_size=m)), dtype=float)
        c = [[draw(value) + far * draw(st.integers(0, 1))] for _ in range(m)]
        return VectorMixture(w / w.sum(), c, "laplace", scale)

    return mixture(), mixture()


class TestLaplaceSweep:
    """For Laplace at one scale the roots of p - e^eps q come in closed form
    from two running sums over the centres: no grid and no bisection."""

    @settings(max_examples=300, deadline=None)
    @given(pair=laplace_pair_1d(), eps=st.floats(0.0, 3.0))
    @example(pair=(VectorMixture([0.5, 0.5], [[0.0], [1e6]], "laplace", 1.0),
                   VectorMixture([0.5, 0.5], [[1.0], [1e6]], "laplace", 1.0)), eps=0.1)
    def test_value_within_its_tolerance_of_a_50_digit_integral(self, pair, eps):
        est = hockey_stick_mixture_1d(*pair, eps)
        assert abs(est.value - mp_laplace_delta(*pair, eps)) <= est.tolerance

    @pytest.mark.parametrize("far", [1e4, 1e5, 1e6])
    def test_a_long_piece_keeps_its_mass(self, far):
        # the piece (1, far) is far - 1 scales long; h < 0 on it, and the
        # whole of delta sits left of the root 0.45, in the first piece
        P = VectorMixture([0.5, 0.5], [[0.0], [far]], "laplace", 1.0)
        Q = VectorMixture([0.5, 0.5], [[1.0], [far]], "laplace", 1.0)
        est = hockey_stick_mixture_1d(P, Q, 0.1)
        assert abs(est.value - -0.5 * math.expm1(-0.45)) <= est.tolerance
        assert est.tolerance < 1e-12

    def test_a_pair_with_delta_above_0_evaluates_no_density(self, kernel_calls):
        # the sweep places the roots from the centres and weights alone
        P = VectorMixture([0.5, 0.5], [[0.0], [2.0]], "laplace", 1.0)
        Q = VectorMixture([0.25, 0.75], [[1.0], [2.0]], "laplace", 1.0)
        est = hockey_stick_mixture_1d(P, Q, 0.1)
        assert est.value > 0.1 and kernel_calls == []

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales_raise_no_float_warning(self, scale):
        # a root's rounding bound is about 1e-15 of the scale: squared, it must
        # not overflow, and a scale far below the centres' spacing leaves
        # every density between them at 0
        P, Q = (VectorMixture([0.5, 0.5], [[c], [1.0]], "laplace", scale) for c in (0.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = hockey_stick_mixture_1d(P, Q, 0.0)
        assert abs(est.value - mp_laplace_delta(P, Q, 0.0)) <= est.tolerance < 1e-13

    @settings(max_examples=50, deadline=None)
    @given(pair=laplace_pair_1d(), order=st.randoms(use_true_random=False))
    def test_one_law_in_another_order_is_charged_a_few_ulp(self, pair, order):
        # Q is P with its components permuted and its first split in two, so
        # the summed weights differ from P's in their last bits: every sign is
        # within the sums' error bound, and only that bound is charged
        P = pair[0]
        perm = order.sample(range(len(P.weights)), len(P.weights))
        w = P.weights[perm + perm[:1]]
        w[[0, -1]] /= 2.0
        Q = VectorMixture(w, P.centers[perm + perm[:1]], "laplace", P.scale)
        est = hockey_stick_mixture_1d(P, Q, 0.0)
        assert est.value <= est.tolerance < 1e-13


# the benchmark's seed-2 audit-lattice point: a 2x6 clipped mean, then sum,
# under MCAR Bernoulli(1/2) masks, row 0 replaced by all 0.5
LATTICE_ROWS = ((-0.5,) * 6, (0.25, -0.5, 0.25, 0.5, 0.5, -0.25))
LATTICE_CLAIM = {"epsilon": 0.25, "delta": 0.31271072120902776}


def lattice_audit_pair(eps_base, claim=None):
    """The audit-lattice point's two output mixtures at base epsilon
    ``eps_base``, and the epsilon its audit row evaluates them at."""
    query = named_postprocess(make_standard_query("clipped_mean", n=2, d=6, clip=0.5), "sum")
    cm = ComposedMechanism(noise=calibrate(query, "laplace", eps_base, 0.0, 0.5),
                           missing=DatasetMechanism(McarBernoulli([0.5] * 6), n=2))
    left = CompleteDataset(LATTICE_ROWS, bound_B=0.5)
    pair = NeighborPair(left, left.substitute(0, (0.5,) * 6))
    row, = verify_amplification(cm, pair, [eps_base], claim=claim).rows
    P, Q = (composed_output_mixture(cm, ds) for ds in (pair.left, pair.right))
    return P, Q, row.epsilon_eval


class TestLaplaceSweepOnTheLatticeAudit:
    """The sweep on the seed-2 audit-lattice rows, to the last bit: the three
    accountant rows, where delta is 0, and the claim row, whose one kept
    interval runs from -inf to its one root."""

    PINNED = {  # (eps_base, claim): value, tolerance, edges, keep
        (0.25, False): ("0x0.0p+0", "0x1.23c9861a6c3c0p-48", ["-inf", "inf"], []),
        (0.5, False): ("0x0.0p+0", "0x1.51bd273f2c740p-48", ["-inf", "inf"], []),
        (1.0, False): ("0x0.0p+0", "0x1.d880e60e8060bp-48", ["-inf", "inf"], []),
        (1.0, True): ("0x1.c5b22c97840a1p-4", "0x1.245af1e1f4133p-47",
                      ["-inf", "-0x1.e587580559017p-3", "inf"], [0]),
    }

    @pytest.mark.parametrize("eps_base, claim", list(PINNED))
    def test_value_tolerance_and_edges_to_the_last_bit(self, eps_base, claim):
        P, Q, eps = lattice_audit_pair(eps_base, LATTICE_CLAIM if claim else None)
        est = hockey_stick_mixture_1d(P, Q, eps)
        edges, keep, _, _ = laplace_signs(P, Q, math.exp(eps))
        assert (est.value.hex(), est.tolerance.hex(), [x.hex() for x in edges],
                keep.tolist()) == self.PINNED[eps_base, claim]

    @pytest.mark.parametrize("eps_base, claim", list(PINNED))
    def test_rows_of_delta_0_charge_no_root(self, eps_base, claim, monkeypatch):
        # every root charge bounds a density with ``_exp_above``: on the rows of
        # delta 0 no root lies within reach of its piece, so none is formed
        P, Q, eps = lattice_audit_pair(eps_base, LATTICE_CLAIM if claim else None)
        calls, real = [], roots._exp_above
        monkeypatch.setattr(roots, "_exp_above", lambda a: calls.append(a.size) or real(a))
        _, _, root_err, _ = laplace_signs(P, Q, math.exp(eps))
        assert (calls != [], root_err > 0.0) == (claim, claim)


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


def lattice(P, Q, eps):
    """The centre lattice's (top, err) for P and Q, with no limit on its size;
    None unless they are Laplace."""
    read = divergence._centre_lattice(P, Q, _Kernel((P, Q)), math.inf)
    return None if read is None else divergence._lattice_sup(P, Q, eps, *read)


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
    return max(lattice(P, Q, 0.0)[0] + slack, 0.0)


@contextlib.contextmanager
def certificate_off():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divergence, "_lattice_sup", lambda *args: None)
        yield


class TestLatticeCertificate:
    """For Laplace at one scale the supremum of log p - log q lies on the
    lattice of centre coordinates, so where it is negative the divergence is
    0 with no draw, and the report is that of the draw; the quadrature's
    sweep finds no root there."""

    PAIR = (VectorMixture([0.5, 0.5], [[0.0, 1.0], [1.0, -0.5]], "laplace", 1.0),
            VectorMixture([0.25, 0.75], [[0.5, 1.0], [1.0, 0.0]], "laplace", 1.0))

    @settings(max_examples=150, deadline=None)
    @given(pair=laplace_pair(), slack=st.floats(-1.0, 2.0), seed=st.integers(0, 2**32 - 1))
    @example(pair=PAIR, slack=0.0, seed=0)
    def test_the_lattice_maximum_bounds_g_everywhere(self, pair, slack, seed):
        P, Q = pair
        eps = level(P, Q, slack)
        top, err = lattice(P, Q, eps)
        assert err < 1e-8
        # a cloud 50 scales past the outer centres, and one about the lattice's corners
        rng, b = np.random.default_rng(seed), P.scale
        both = np.vstack((P.centers, Q.centers))
        lo, hi = both.min(axis=0) - 50.0 * b, both.max(axis=0) + 50.0 * b
        near = both[rng.integers(len(both), size=2000)] + rng.uniform(-b, b, (2000, len(lo)))
        x = np.vstack((rng.uniform(lo, hi, (2000, len(lo))), near))
        log_p, log_q = _Kernel((P, Q))(x)
        assert (log_p - (eps + log_q)).max() <= top + err

    @settings(max_examples=500, deadline=None)
    @given(pair=laplace_pair(st.just(1)), slack=st.floats(-1.0, 2.0))
    def test_the_sweep_finds_no_root_where_the_lattice_certifies(self, pair, slack):
        # so the quadrature needs no certificate: it reports the one rootless
        # interval's tolerance, as the certificate did
        P, Q = pair
        eps = level(P, Q, slack)
        top, err = lattice(P, Q, eps)
        est = hockey_stick_mixture_1d(P, Q, eps)
        if top + err < 0.0:
            assert (est.value, est.tolerance) == (0.0, 8.0 * divergence._EPS * (1.0 + math.exp(eps)))

    @settings(max_examples=100, deadline=None)
    @given(pair=laplace_pair(), slack=st.floats(-1.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_a_certified_estimate_is_the_sampled_one(self, pair, slack, seed):
        P, Q = pair
        eps = level(P, Q, slack)
        top, err = lattice(P, Q, eps)
        est = mc_delta_vector(P, Q, eps, 1000, seed)
        with certificate_off():
            sampled = mc_delta_vector(P, Q, eps, 1000, seed)
        if top + err < 0.0:  # every sampled statistic is 0
            assert repr(est) == repr(sampled)
            log_p, log_q = _Kernel((P, Q))(P.sample(substream(seed, _KEY_MC, 0), 1000))
            assert not np.clip(1.0 - np.exp(eps + log_q - log_p), 0.0, None).any()
        else:  # the box interval, which TestBoxInterval checks against oracles, or the draw
            assert est.method == "interval" or repr(est) == repr(sampled)

    @pytest.mark.parametrize("P, Q, eps", [
        (unit("gaussian", 0.0, 1.0), unit("gaussian", 1.0, 1.0), 5.0),  # no Gaussian pair
        (unit("laplace", 0.0, 1.0), unit("laplace", 1.0, 1.0), 0.5),  # a root at x = 0.75
    ])
    def test_never_certified(self, P, Q, eps):
        sup = lattice(P, Q, eps)
        assert sup is None or sup[0] + sup[1] >= 0.0

    def test_a_quadrature_of_delta_0_evaluates_no_density(self, kernel_calls):
        P, Q = unit("laplace", 0.0, 1.0), unit("laplace", 1.0, 1.0)
        est = hockey_stick_mixture_1d(P, Q, 1.5)
        assert est.value == laplace_delta(1.0, 1.0, 1.5) == 0.0
        assert kernel_calls == []

    def test_a_lattice_larger_than_the_sample_is_not_read(self, kernel_calls):
        # 11 values per coordinate make 1331 lattice points, more than 1000 draws
        P = VectorMixture(np.full(11, 1 / 11), np.repeat(np.arange(11.0)[:, None], 3, axis=1),
                          "laplace", 1.0)
        est = mc_delta_vector(P, P, 1.0, 1000, 0)
        assert est.value == 0.0 and kernel_calls == [1000]
        assert divergence._centre_lattice(P, P, _Kernel((P, P)), 1000) is None


def product(A, B):
    """The law of (a, b) with a ~ A and b ~ B independent, one component per pair."""
    centers = np.hstack((np.repeat(A.centers, len(B.weights), axis=0),
                         np.tile(B.centers, (len(A.weights), 1))))
    return VectorMixture(np.outer(A.weights, B.weights).ravel(), centers, A.family, A.scale)


def overlaps(est, value, tolerance):
    return est.ci[0] <= value + tolerance and value - tolerance <= est.ci[1]


class TestBoxInterval:
    """A Laplace pair whose lattice fits the sample count, and whose delta the
    lattice does not certify 0, gets a deterministic interval from the
    lattice boxes in place of a draw."""

    SAMPLES = st.sampled_from([1000, 100_000, 10**7])

    @settings(max_examples=60, deadline=None)
    @given(pair=laplace_pair(st.just(1)), slack=st.floats(-1.5, 0.5), n=SAMPLES)
    def test_a_1d_interval_holds_the_quadrature(self, pair, slack, n):
        P, Q = pair
        eps = level(P, Q, slack)
        exact = hockey_stick_mixture_1d(P, Q, eps)
        assert overlaps(mc_delta_vector(P, Q, eps, n, 0), exact.value, exact.tolerance)

    @settings(max_examples=40, deadline=None)
    @given(pair=laplace_pair(st.just(1)), rest=laplace_pair(st.just(2)),
           slack=st.floats(-1.5, 0.5), n=SAMPLES)
    def test_neighbours_differing_in_coordinate_0_have_its_delta(self, pair, rest, slack, n):
        # P = A x B and Q = A' x B, as the audit's neighbours differ in one
        # feature: p/q is a(x_0)/a'(x_0), so delta is the 1-D delta of A and A'
        A, A2 = pair
        B = VectorMixture(rest[0].weights, rest[0].centers, "laplace", A.scale)
        eps = level(A, A2, slack)
        est = mc_delta_vector(product(A, B), product(A2, B), eps, n, 0)
        exact = hockey_stick_mixture_1d(A, A2, eps)
        assert overlaps(est, exact.value, exact.tolerance)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pair=laplace_pair(st.integers(2, 3)), slack=st.floats(-1.5, 0.5))
    def test_an_interval_overlaps_the_drawn_one(self, pair, slack):
        P, Q = pair
        eps = level(P, Q, slack)
        est = mc_delta_vector(P, Q, eps, 20_000, 5)
        with certificate_off():
            drawn = mc_delta_vector(P, Q, eps, 20_000, 5)
        assert drawn.method == "monte_carlo"
        assert est.ci[0] <= drawn.ci[1] and drawn.ci[0] <= est.ci[1]

    @settings(max_examples=50, deadline=None)
    @given(pair=laplace_pair(), order=st.randoms(use_true_random=False))
    def test_one_law_in_another_order_holds_0(self, pair, order):
        # the masses and log-densities of Q differ from P's in their last
        # bits only, which the float error bounds must absorb: delta is 0
        P = pair[0]
        perm = order.sample(range(len(P.weights)), len(P.weights))
        w = P.weights[perm + perm[:1]]  # its first component twice, at half the weight
        w[[0, -1]] /= 2.0
        Q = VectorMixture(w, P.centers[perm + perm[:1]], "laplace", P.scale)
        est = mc_delta_vector(P, Q, 0.0, 1000, 0)
        assert est.method == "interval" and est.ci[0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(pair=laplace_pair(), slack=st.floats(-1.5, 0.5), n=st.sampled_from([1000, 3000]))
    def test_the_boxes_never_pass_the_sample_count(self, pair, slack, n):
        P, Q = pair
        eps = level(P, Q, slack)
        with counted_kernel() as calls:
            est = mc_delta_vector(P, Q, eps, n, 0)
        # the first call reads the lattice, each later one the active coordinates'
        # lattice or the corners of a block of split boxes; a row whose boxes reach
        # the cap draws its n points in one last call
        boxes = calls[1:-1] if est.method == "monte_carlo" else calls[1:]
        assert sum(boxes) <= n

    @staticmethod
    def slow_pair():
        """9 values 4 scales apart per coordinate, k = 3: 729 lattice points,
        512 boxes of 8 corners each, over which p/q moves by up to e^24."""
        axis = np.arange(9.0) * 4.0
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        w = np.random.default_rng(0).uniform(size=len(grid))
        return (VectorMixture(np.full(len(grid), 1 / len(grid)), grid, "laplace", 1.0),
                VectorMixture(w / w.sum(), grid, "laplace", 1.0))

    def test_a_pair_of_slow_convergence_stops_at_the_cap(self, kernel_calls):
        # the boxes' corners reach the sample count while the interval is still
        # wider than the draw's ([0.1052, 0.3486] here), so the row draws: the
        # lattice, the split boxes' corners, then the 10,000 sampled points; the
        # 4096 corners of the lattice boxes are read from the lattice
        P, Q = self.slow_pair()
        est = mc_delta_vector(P, Q, 0.0, 10_000, 0)
        assert kernel_calls[0] == 729 and 0 < sum(kernel_calls[1:-1]) <= 10_000 - 4096
        assert kernel_calls[-1] == 10_000 and est.method == "monte_carlo"
        assert est.ci[1] - est.ci[0] < 0.02
        with certificate_off():
            assert repr(est) == repr(mc_delta_vector(P, Q, 0.0, 10_000, 0))

    def test_lattice_boxes_whose_corners_pass_the_sample_count_draw(self):
        # 729 lattice points fit in 1000, but their 512 boxes have 4096 corners
        P, Q = self.slow_pair()
        est = mc_delta_vector(P, Q, 0.0, 1000, 0)
        with certificate_off():
            assert repr(est) == repr(mc_delta_vector(P, Q, 0.0, 1000, 0))

    def test_coordinates_of_one_centre_value_are_dropped(self, kernel_calls):
        # coordinates 1 and 2 hold one value in every centre: the boxes are
        # those of coordinate 0, whose corners its lattice of 3 values holds,
        # and the interval is its 1-D one
        P, Q = (VectorMixture([0.5, 0.5], [[0.0, 3.0, -1.0], [c, 3.0, -1.0]], "laplace", 1.0)
                for c in (1.0, 2.0))
        est = mc_delta_vector(P, Q, 0.1, 1000, 0)
        assert kernel_calls[1:] == [3]
        one = mc_delta_vector(*(VectorMixture(M.weights, M.centers[:, :1], "laplace", 1.0)
                                for M in (P, Q)), 0.1, 1000, 0)
        assert est.method == "interval" and est.ci == one.ci

    def test_one_centre_value_everywhere_is_delta_0(self):
        P, Q = (VectorMixture(w, [[0.5, 1.0]] * 2, "laplace", 1.0)
                for w in ([0.5, 0.5], [0.1, 0.9]))
        est = mc_delta_vector(P, Q, 0.0, 1000, 0)
        assert (est.method, est.ci) == ("interval", (0.0, 0.0))

    def test_the_audit_pair_is_as_precise_as_its_draw(self, kernel_calls):
        # an audit-sized pair, 64 components, k = 3 and 3 values per coordinate;
        # one kernel call reads the 27 lattice points, which hold the 64 corners
        # of the 8 lattice boxes, and two rounds of split boxes follow
        rng = np.random.default_rng(64)
        p, q = (VectorMixture(np.full(64, 1 / 64), rng.choice([-0.5, 0.0, 0.5], (64, 3)),
                              "laplace", 1.5) for _ in range(2))
        est = mc_delta_vector(p, q, 0.05, 50_000, 1)
        assert kernel_calls == [27, 48 * 8, 8 * 8]
        log_term = math.log(4.0 / divergence._MC_ALPHA)
        assert est.method == "interval" and est.ci[0] > 0.0
        assert est.tolerance <= divergence._bernstein_half(est.ci[1], 50_000, log_term)
        assert est.value == 0.5 * (est.ci[0] + est.ci[1])

    @staticmethod
    def drawn_pair(k, seed, m, values, scale):
        """m components each, weights in [0.1, 1] and centres drawn from ``values``."""
        rng = np.random.default_rng(seed)
        return tuple(VectorMixture(w / w.sum(), rng.choice(values, (m, k)), "laplace", scale)
                     for w in rng.uniform(0.1, 1.0, (2, m)))

    @staticmethod
    def dropped_pair():
        """k = 3, 12 components each, coordinate 1 at 0.25 in every centre."""
        rng = np.random.default_rng(8)
        c = rng.choice([-0.5, 0.0, 0.5], (2, 12, 3))
        c[:, :, 1] = 0.25
        return tuple(VectorMixture(w / w.sum(), cc, "laplace", 1.0)
                     for w, cc in zip(rng.uniform(0.1, 1.0, (2, 12)), c))

    @pytest.mark.parametrize("pair, eps, n, lower, upper", [
        ((2, 1, 8, [-0.5, 0.0, 0.5], 1.0), 0.1, 20_000,
         "0x1.957719a009370p-6", "0x1.182b5bd1c2812p-5"),
        ((2, 2, 12, [-1.0, -0.25, 0.25, 1.0], 0.5), 0.3, 50_000,
         "0x1.27541f4e52393p-3", "0x1.326c7c3989e4fp-3"),
        # refined over three rounds
        ((3, 3, 16, [-0.5, 0.0, 0.5], 1.5), 0.05, 50_000,
         "0x1.1c26df16624d5p-5", "0x1.4a381c4a5b8bbp-5"),
        ((3, 4, 24, [-0.5, 0.0, 0.25, 0.5], 1.0), 0.2, 100_000,
         "0x1.29774a169000ap-5", "0x1.48ad200166907p-5"),
        ((3, 7, 10, [0.0, 1.0, 2.5], 0.5), 0.5, 10_000,
         "0x1.6a6fdc7d3e1c0p-2", "0x1.8a9831afc5dc8p-2"),
        ((4, 5, 16, [-0.5, 0.5], 1.0), 0.1, 50_000,
         "0x1.07f60b90ad757p-5", "0x1.23f80f1700175p-5"),
        ((4, 6, 20, [-0.5, 0.0, 0.5], 2.0), 0.0, 100_000,
         "0x1.673e51979f5bfp-5", "0x1.856bba23ea7c3p-5"),
        ("dropped", 0.1, 20_000, "0x1.59abc0c13a1e4p-5", "0x1.867dcbf3ff2a9p-5"),
    ])
    def test_pinned_intervals(self, pair, eps, n, lower, upper):
        # each pair's interval to the last bit, as the corners were first read
        # by the kernel box by box
        P, Q = self.dropped_pair() if pair == "dropped" else self.drawn_pair(*pair)
        est = mc_delta_vector(P, Q, eps, n, 0)
        assert est.method == "interval"
        assert est.ci == (float.fromhex(lower), float.fromhex(upper))

    def test_a_lattice_past_the_sample_count_draws_the_parents_bits(self, kernel_calls):
        # 22 x 11 x 11 lattice points, more than 1000: the draw, to the last bit
        c = np.repeat(np.arange(11.0)[:, None], 3, axis=1)
        P = VectorMixture(np.full(11, 1 / 11), c, "laplace", 1.0)
        Q = VectorMixture(np.full(11, 1 / 11), c + [0.5, 0.0, 0.0], "laplace", 1.0)
        est = mc_delta_vector(P, Q, 0.1, 1000, 0)
        assert kernel_calls == [1000] and est.method == "monte_carlo"
        assert repr(est.value) == "0.11567238848324143"
        assert repr(est.ci) == "(0.0869374283454378, 0.14440734862104507)"


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

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf, 710.0])
    def test_invalid_epsilon_rejected(self, epsilon):
        p = unit("gaussian", 0.0, 1.0)
        with pytest.raises(ValueError, match="^epsilon: must be nonnegative and at most 709.78"):
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

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_a_rescaled_mixture_is_the_one_built_at_its_scale(self, family):
        # weights whose numpy log can differ from math.log in the last bit
        pinned = TestPinnedQuadrature()
        M = pinned.mixture(pinned.ODD + list(range(35)), 1, -0.0, 0.0, family)
        x = np.linspace(-2.0, 2.0, 9)[:, None]
        at_half = M.log_density(x)  # M's kernel, built at its own scale, is not shared
        built = VectorMixture(M.weights, M.centers, family, 3.0)
        R = M.rescaled(3)
        assert (R.scale, M.scale) == (3.0, 0.5) and type(R.scale) is float
        assert R.log_coef.tobytes() == built.log_coef.tobytes()
        assert R.weights is M.weights and R.kernel_centers is M.kernel_centers
        assert R.log_density(x).tobytes() == built.log_density(x).tobytes()
        assert M.log_density(x).tobytes() == at_half.tobytes()

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_rescaling_refuses_what_building_refuses(self, scale):
        M = unit("laplace", 0.0, 1.0)
        with pytest.raises(ValueError, match="finite positive scale"):
            M.rescaled(scale)

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
    set built P first, and one ``math.fsum`` per block over both mixtures.
    The Laplace entries are those of the closed-form roots, which moved the
    values by at most 3 ulp from the bisected ones."""

    POOL = np.random.default_rng(7).uniform(0.01, 0.03, 20000)
    ODD = [1155, 6056, 8732, 9372, 19120]
    PINNED = {
        ("laplace", 0.0): ("0x1.bbf3b81016553p-4", "0x1.000000000013fp-47"),
        ("laplace", 0.05): ("0x1.88a42ab9945c7p-4", "0x1.06900d2115334p-47"),
        ("laplace", 0.2): ("0x1.e54d440cc1eabp-5", "0x1.1c56ecf2c57e1p-47"),
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
