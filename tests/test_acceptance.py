"""Acceptance criteria: analytic reproduction plus property/oracle suites.

Each test prints one [ACCEPTANCE] pass/fail line and enforces the stated
tolerance and runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from amplipriv import (
    CompleteDataset,
    ComposedMechanism,
    DatasetMechanism,
    MarAnchoredPattern,
    Mask,
    MaskMatrix,
    McarPattern,
    NeighborPair,
    VectorMixture,
    amplified_epsilon,
    amplify_fwl,
    apply_mask,
    calibrate_gaussian,
    calibrate_laplace,
    corollary_bound,
    hockey_stick_mixture_1d,
    linear_combination,
    make_standard_query,
    mc_delta_vector,
    named_postprocess,
    sensitivity_masked,
    tightness_counterexample,
    verify_amplification,
)
from amplipriv.queries import SensitivityBounds
from oracles import DiscreteDistribution, hockey_stick_discrete, mix_discrete

GAUSS_TV_UNIT_SHIFT = 0.3829249225480262  # Phi(1/2) - Phi(-1/2)


@contextmanager
def criterion(label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{label}: took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[ACCEPTANCE] {label}: PASS ({elapsed:.2f}s)")


def sum_query(n, d, B):
    base = make_standard_query("clipped_mean", n=n, d=d, clip=B)
    return named_postprocess(base, "sum")


def neighbor_pair(B=0.5):
    left = CompleteDataset(((0.3, -0.2, 0.5, -0.5), (-0.4, 0.1, 0.2, 0.3)), bound_B=B)
    right = left.substitute(0, (-0.3, 0.5, -0.1, 0.2))
    return NeighborPair(left, right)


def test_c01_amplification_formula_suite():
    """Amplified epsilon: bounds, monotonicity, exact endpoints on a 100x100 grid."""
    with criterion("C1 amplification formula suite", 1.0):
        eps_grid = np.linspace(0.02, 2.0, 100)
        p_grid = np.linspace(0.0, 1.0, 100)
        for eps in eps_grid:
            prev = -1.0
            for p in p_grid:
                val = amplified_epsilon(float(eps), float(p))
                assert val <= eps + 1e-12
                assert val >= prev - 1e-15  # non-decreasing in p
                prev = val
            assert abs(amplified_epsilon(float(eps), 1.0) - eps) <= 1e-12
            assert abs(amplified_epsilon(float(eps), 0.0)) <= 1e-12


def test_c02_exact_discrete_audit_randomized_response():
    """Random-response release under a coin-flip mask: zero divergence at the
    amplified level, computed exactly on the discrete output space."""
    with criterion("C2 exact discrete audit", 1.0):
        eps0 = math.log(3.0)

        def respond(masked):
            cell = masked.cells[0][0]
            if cell is None:
                return DiscreteDistribution(("yes", "no"), (0.5, 0.5))
            if cell == 1.0:
                return DiscreteDistribution(("yes", "no"), (0.75, 0.25))
            return DiscreteDistribution(("yes", "no"), (0.25, 0.75))

        mech = DatasetMechanism(McarPattern([((1,), 0.5), ((0,), 0.5)]), n=1)
        from amplipriv import p_star

        assert p_star(mech) == 0.5

        def composed(dataset):
            comps = []
            for m, prob in mech.feature_mech.support(dataset.rows[0]):
                masked = apply_mask(dataset, MaskMatrix((m,)))
                comps.append((prob, respond(masked)))
            return mix_discrete(comps)

        left = CompleteDataset(((1.0,),))
        right = CompleteDataset(((0.0,),))
        # base release is (eps0, 0)-DP: verify before composing
        assert hockey_stick_discrete(
            respond(left.as_incomplete()), respond(right.as_incomplete()), eps0
        ).value <= 1e-15
        eps_amp = amplified_epsilon(eps0, 0.5)
        assert eps_amp == pytest.approx(math.log(2.0), abs=1e-15)
        est = hockey_stick_discrete(composed(left), composed(right), eps_amp)
        assert est.value <= 1e-12


def test_c03_laplace_quadrature_audit():
    """Laplace on a clipped-mean pipeline, always-partially-observed MAR masks:
    the divergence vanishes at half the base epsilon."""
    with criterion("C3 Laplace quadrature audit", 60.0):
        B = 0.5
        q = sum_query(2, 4, B)
        missing = DatasetMechanism(
            MarAnchoredPattern(
                anchor=(0,),
                q_all=0.0,
                candidates=[(0, 1, 1, 1), (0, 0, 1, 1)],
                thresholds=[[0.0]],
                score_table={"1": [0.3, 0.7], "0": [0.8, 0.2]},
            ),
            n=2,
        )
        from amplipriv import p_star, verify_rho

        assert p_star(missing) == 1.0
        assert verify_rho(missing, 0.5)
        cm = ComposedMechanism(noise=calibrate_laplace(q, 1.0, B), missing=missing)
        table = verify_amplification(
            cm, neighbor_pair(B), [0.25, 0.5, 1.0], method="exact", tol=1e-7
        )
        for row in table.rows:
            assert row.epsilon_eval == pytest.approx(0.5 * row.epsilon_base, abs=1e-15)
            assert row.empirical <= 1e-6
            assert row.verdict == "PASS"


def test_c04_gaussian_quadrature_audit():
    """Gaussian on the same pipeline under half-hiding MCAR patterns: the
    divergence at the amplified level stays below half the base delta."""
    with criterion("C4 Gaussian quadrature audit", 60.0):
        B = 0.5
        delta = 1e-4
        q = sum_query(2, 4, B)
        missing = DatasetMechanism(
            McarPattern(
                [((1, 1, 1, 1), 0.5), ((0, 0, 1, 1), 0.25), ((1, 1, 0, 0), 0.25)]
            ),
            n=2,
        )
        from amplipriv import p_star

        assert p_star(missing) == 0.5
        cm = ComposedMechanism(
            noise=calibrate_gaussian(q, 1.0, delta, B), missing=missing
        )
        table = verify_amplification(
            cm, neighbor_pair(B), [0.25, 0.5, 1.0], method="exact", tol=1e-7
        )
        for row in table.rows:
            assert row.bound == pytest.approx(0.5 * delta, abs=0)
            assert row.empirical <= 0.5 * delta + 1e-6
            assert row.verdict == "PASS"


def test_c05_tightness_counterexample():
    """The always-observed-coordinate instance: no amplification at p* = 1."""
    with criterion("C5 tightness counterexample", 30.0):
        for eps in (0.1, 0.5, 1.0):
            res = tightness_counterexample(eps, 1e-3)
            assert res.p_star == 1.0
            assert res.equality_gap <= 1e-9


def _random_fwl_query(rng):
    d = int(rng.integers(2, 9))
    n = 2
    B = 0.5
    kind = rng.choice(["bounded_mean", "clipped_mean", "covariance", "linear",
                       "histogram", "combo"])
    if kind == "bounded_mean":
        q = make_standard_query("bounded_mean", n=n, d=d)
    elif kind == "clipped_mean":
        q = make_standard_query("clipped_mean", n=n, d=d, clip=float(rng.uniform(0.2, B)))
    elif kind == "covariance":
        q = make_standard_query("covariance", n=n, d=d, B=B)
    elif kind == "linear":
        k = int(rng.integers(1, 4))
        mats = [rng.uniform(-1, 1, (k, d)) for _ in range(n)]
        q = make_standard_query("linear", matrices=mats, n=n, d=d)
    elif kind == "histogram":
        q = make_standard_query("histogram", n=n, d=d, lo=-B, hi=B,
                                bins=int(rng.integers(2, 5)))
    else:
        q1 = make_standard_query("bounded_mean", n=n, d=d)
        q2 = make_standard_query("clipped_mean", n=n, d=d, clip=B)
        q = linear_combination([q1, q2], [float(rng.uniform(-2, 2)),
                                          float(rng.uniform(-2, 2))])
        if rng.random() < 0.5:
            factor = float(rng.uniform(0.5, 2.0))
            q = named_postprocess(q, "scale", factor=factor)
    rho = float(rng.choice([0.25, 0.5]))
    return q, B, rho


def test_c06_masked_sensitivity_brute_force():
    """Exhaustive corner/mask search never exceeds the masked constant."""
    with criterion("C6 masked sensitivity brute force", 120.0):
        rng = np.random.default_rng(606)
        for _ in range(50):
            q, B, rho = _random_fwl_query(rng)
            d = q.d
            cap = math.floor(rho * d)
            c_tilde = sensitivity_masked(q, B, rho).C_tilde_p
            corners = np.array(list(itertools.product((-B, B), repeat=d)))
            hidden_row = Mask(tuple([1] * d))
            worst = 0.0
            for obs_count in range(cap + 1):
                for obs in itertools.combinations(range(d), obs_count):
                    bits = [1] * d
                    for j in obs:
                        bits[j] = 0
                    mask = MaskMatrix((Mask(tuple(bits)), hidden_row))
                    outputs = np.empty((len(corners), q.output_dim))
                    for ci, corner in enumerate(corners):
                        ds = CompleteDataset((tuple(corner), tuple([0.0] * d)))
                        outputs[ci] = q(apply_mask(ds, mask))
                    for ci in range(len(corners)):
                        diff = outputs - outputs[ci]
                        if q.norm_p == 1:
                            gaps = np.abs(diff).sum(axis=1)
                        else:
                            gaps = np.sqrt((diff * diff).sum(axis=1))
                        worst = max(worst, float(gaps.max()))
            assert worst <= c_tilde + 1e-10, (
                f"gap {worst} exceeded masked constant {c_tilde} "
                f"({q.descriptor}, d={d}, rho={rho})"
            )


def test_c07_first_order_factor():
    """At small epsilon the amplification factor approaches p* times the
    sensitivity ratio, within 5 percent relative error."""
    with criterion("C7 first-order factor", 1.0):
        eps = 0.01
        for p in np.linspace(0.1, 1.0, 19):
            for ratio in np.linspace(0.1, 1.0, 19):
                amped = amplified_epsilon(ratio * eps, float(p))
                target = p * ratio
                assert abs(amped / eps - target) <= 0.05 * target


def test_c08_corollary_dominance():
    """The closed-form cap dominates the exact amplified epsilon on 10^4
    equal-constants tuples."""
    with criterion("C8 corollary dominance", 1.0):
        rng = np.random.default_rng(808)
        for _ in range(10_000):
            eps = float(rng.uniform(1e-6, 1.0))
            p = float(rng.uniform(0.0, 1.0))
            d = int(rng.integers(1, 12))
            k = int(rng.integers(1, d + 1))
            rho = k / d
            bounds = SensitivityBounds(C_p=float(d), C_tilde_p=float(k), rho=rho, B=1.0)
            exact = amplify_fwl(eps, 0.0, p, bounds, "laplace").amplified.epsilon
            assert exact <= corollary_bound(eps, p, rho) + 1e-12


def test_c09_estimator_cross_validation():
    """Monte Carlo estimator agrees with the Gaussian closed form and with
    quadrature across random mixture pairs."""
    with criterion("C9 estimator cross-validation", 120.0):
        # closed-form Gaussian oracle at the total-variation point
        p_unit, q_unit = (
            VectorMixture(weights=[1.0], centers=[[c]], family="gaussian", scale=1.0)
            for c in (0.0, 1.0)
        )
        est = mc_delta_vector(p_unit, q_unit, 0.0, 10**6, seed=909)
        assert est.ci[0] <= GAUSS_TV_UNIT_SHIFT <= est.ci[1]

        rng = np.random.default_rng(910)
        for trial in range(20):
            # P and Q of one family and scale, as one mechanism's output laws are
            family = "gaussian" if rng.random() < 0.5 else "laplace"
            scale = float(rng.uniform(0.3, 1.5))

            def rand_mixture():
                m = int(rng.integers(1, 4))
                weights = rng.uniform(0.2, 1.0, m)
                weights /= weights.sum()
                return VectorMixture(weights=weights, centers=rng.uniform(-2, 2, (m, 1)),
                                     family=family, scale=scale)

            p_mix, q_mix = rand_mixture(), rand_mixture()
            eps = float(rng.uniform(0.0, 1.0))
            exact = hockey_stick_mixture_1d(p_mix, q_mix, eps, tol=1e-9)
            mc = mc_delta_vector(p_mix, q_mix, eps, n_samples=10**5, seed=trial)
            half = (mc.ci[1] - mc.ci[0]) / 2
            assert abs(mc.value - exact.value) <= 3 * half + 1e-9


def test_c10_divergence_identity_suite():
    """Mixture convexity inequality and the exact decomposition identity on
    10^3 random discrete triples each."""
    with criterion("C10 divergence identity suite", 10.0):
        rng = np.random.default_rng(1010)

        def rand_discrete(size):
            probs = rng.uniform(0.05, 1.0, size)
            probs /= probs.sum()
            return DiscreteDistribution(tuple(range(size)), tuple(probs))

        for _ in range(1000):
            x1, x0, x1p = (rand_discrete(int(rng.integers(2, 7))) for _ in range(3))
            beta = float(rng.uniform(0, 1))
            eps = float(rng.uniform(0, 2))
            mixed = mix_discrete([(1 - beta, x0), (beta, x1p)])
            lhs = hockey_stick_discrete(x1, mixed, eps).value
            rhs = (1 - beta) * hockey_stick_discrete(x1, x0, eps).value + \
                beta * hockey_stick_discrete(x1, x1p, eps).value
            assert lhs <= rhs + 1e-12

        for _ in range(1000):
            size = int(rng.integers(2, 7))
            x0, x1, x1p = (rand_discrete(size) for _ in range(3))
            eta = float(rng.uniform(0.05, 1.0))
            alpha = math.exp(float(rng.uniform(0, 2)))
            alpha_p = 1 + eta * (alpha - 1)
            x = mix_discrete([(1 - eta, x0), (eta, x1)])
            xp = mix_discrete([(1 - eta, x0), (eta, x1p)])
            lhs = hockey_stick_discrete(x, xp, math.log(alpha_p)).value
            inner = mix_discrete([(1 - alpha_p / alpha, x0), (alpha_p / alpha, x1p)])
            rhs = eta * hockey_stick_discrete(x1, inner, math.log(alpha)).value
            assert lhs >= rhs - 1e-12 and lhs <= rhs + 1e-12
