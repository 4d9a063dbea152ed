"""Closed-form amplification accounting: formulas, invariants, serialization."""

import math

import numpy as np
import pytest

from amplipriv import (
    BudgetRangeError,
    DegenerateQueryError,
    PrivacyBudget,
    SensitivityBounds,
    amplified_epsilon,
    amplify_fwl,
    amplify_generic,
    corollary_bound,
)
from amplipriv.noise import EPSILON_MAX

# frozen 40-digit evaluations of the defining formulas
EPS_P_HALF = 0.6201145069582775  # ln(1 + 0.5 * (e - 1))
EPS_FWL_075_HALF = 0.3964519130429506  # ln(1 + 0.75 * (e^0.5 - 1))
COROLLARY_01_05 = 0.08591409142295226  # (e - 1) * 0.1 * 0.5


def bounds(C, C_tilde, rho=0.5, B=1.0):
    return SensitivityBounds(C_p=C, C_tilde_p=C_tilde, rho=rho, B=B)


class TestAmplifyGeneric:
    def test_p_one_returns_budget_unchanged(self):
        report = amplify_generic(PrivacyBudget(1.0, 0.1), 1.0)
        assert report.amplified.epsilon == 1.0
        assert report.amplified.delta == 0.1

    def test_p_zero_hides_everything(self):
        report = amplify_generic(PrivacyBudget(1.0, 0.1), 0.0)
        assert report.amplified.epsilon == 0.0
        assert report.amplified.delta == 0.0

    def test_p_half_value(self):
        report = amplify_generic(PrivacyBudget(1.0, 0.1), 0.5)
        assert report.amplified.epsilon == pytest.approx(EPS_P_HALF, abs=1e-14)
        assert report.amplified.delta == pytest.approx(0.05, abs=0)

    def test_monotone_strictly_in_p(self):
        grid = np.linspace(0.001, 0.999, 400)
        values = [amplified_epsilon(1.7, p) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_never_exceeds_base(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            eps = float(rng.uniform(0, 4))
            p = float(rng.uniform(0, 1))
            amped = amplified_epsilon(eps, p)
            assert amped <= eps
            if eps > 0 and p < 1:
                assert amped < eps

    def test_equality_only_at_endpoints(self):
        assert amplified_epsilon(0.0, 0.37) == 0.0
        assert amplified_epsilon(2.5, 1.0) == 2.5


class TestAmplifyFwl:
    def test_ratio_half_p_one_laplace(self):
        report = amplify_fwl(1.0, 0.0, 1.0, bounds(2.0, 1.0), family="laplace")
        assert report.amplified.epsilon == 0.5
        assert report.amplified.delta == 0.0
        assert report.route == "fwl_laplace"

    def test_ratio_half_p_075_laplace(self):
        report = amplify_fwl(1.0, 0.0, 0.75, bounds(2.0, 1.0), family="laplace")
        assert report.amplified.epsilon == pytest.approx(EPS_FWL_075_HALF, abs=1e-14)

    def test_gaussian_delta_scales_by_p(self):
        report = amplify_fwl(0.8, 1e-5, 0.5, bounds(2.0, 1.0), family="gaussian")
        assert report.amplified.delta == pytest.approx(5e-6, abs=0)
        assert report.route == "fwl_gaussian"

    def test_laplace_with_delta_rejected(self):
        with pytest.raises(BudgetRangeError):
            amplify_fwl(1.0, 0.1, 0.5, bounds(2.0, 1.0), family="laplace")

    def test_gaussian_epsilon_range(self):
        with pytest.raises(BudgetRangeError):
            amplify_fwl(1.5, 1e-5, 0.5, bounds(2.0, 1.0), family="gaussian")

    def test_an_epsilon_whose_exponential_overflows_is_refused(self):
        # a ValueError that names epsilon, not an OverflowError from expm1
        for call in (lambda: amplified_epsilon(800.0, 0.5),
                     lambda: amplify_generic(PrivacyBudget(800.0, 0.0), 0.5)):
            with pytest.raises(BudgetRangeError, match="^epsilon: must be nonnegative and at "
                               "most 709.782712893384, past which e.epsilon overflows, got 800.0$"):
                call()
        with pytest.raises(BudgetRangeError, match=r"^epsilon: \(C_tilde / C\) \* epsilon = "
                           r"0.5 \* 1500.0 must be nonnegative and at most 709.78.*, got 750.0$"):
            amplify_fwl(1500.0, 0.0, 0.5, bounds(2.0, 1.0), family="laplace")

    def test_only_epsilon_0_needs_a_finite_exponential(self):
        # the accountant exponentiates epsilon_0 = (C_tilde / C) * epsilon, not epsilon
        report = amplify_fwl(800.0, 0.0, 0.5, bounds(2.0, 1.0), family="laplace")
        assert report.base.epsilon == 800.0
        assert report.amplified.epsilon == amplified_epsilon(400.0, 0.5)
        report = amplify_fwl(2 * EPSILON_MAX, 0.0, 0.5, bounds(2.0, 1.0), family="laplace")
        assert math.isfinite(report.amplified.epsilon) and report.amplified.epsilon < EPSILON_MAX

    def test_degenerate_sensitivity(self):
        with pytest.raises(DegenerateQueryError):
            amplify_fwl(1.0, 0.0, 0.5, bounds(0.0, 0.0), family="laplace")

    def test_first_order_field(self):
        report = amplify_fwl(1.0, 0.0, 0.6, bounds(4.0, 1.0), family="laplace")
        assert report.first_order == pytest.approx(0.6 * 0.25 * 1.0)

    def test_ratio_one_matches_generic(self):
        for p in (0.0, 0.2, 0.7, 1.0):
            via_fwl = amplify_fwl(0.9, 0.0, p, bounds(3.0, 3.0, rho=1.0), "laplace")
            via_generic = amplify_generic(PrivacyBudget(0.9, 0.0), p)
            assert via_fwl.amplified.epsilon == via_generic.amplified.epsilon


class TestCorollaryBound:
    def test_cap_at_one(self):
        assert corollary_bound(1.0, 1.0, 0.5) == 0.5

    def test_small_p_linear(self):
        assert corollary_bound(1.0, 0.1, 0.5) == pytest.approx(
            COROLLARY_01_05, abs=1e-16
        )

    def test_p_zero(self):
        assert corollary_bound(1.0, 0.0, 0.5) == 0.0

    def test_epsilon_range(self):
        with pytest.raises(BudgetRangeError):
            corollary_bound(1.2, 0.5, 0.5)

    def test_dominates_exact_amplification(self):
        # equal-constants regime: ratio = rho with rho * d integral
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            eps = float(rng.uniform(1e-6, 1.0))
            p = float(rng.uniform(0, 1))
            d = int(rng.integers(1, 12))
            k = int(rng.integers(1, d + 1))
            rho = k / d
            exact = amplify_fwl(
                eps, 0.0, p, bounds(float(d), float(k), rho=rho), "laplace"
            ).amplified.epsilon
            assert exact <= corollary_bound(eps, p, rho) + 1e-12

    def test_first_order_limit(self):
        # eps'_0 / eps approaches p * ratio as eps shrinks
        eps = 0.01
        for p in np.linspace(0.1, 1.0, 10):
            for ratio in np.linspace(0.1, 1.0, 10):
                amped = amplified_epsilon(ratio * eps, p)
                assert abs(amped / eps - p * ratio) <= 0.05 * p * ratio


class TestReportSerialization:
    def test_budgets_render_as_decimal_strings(self):
        report = amplify_fwl(1.0, 0.0, 0.75, bounds(2.0, 1.0), family="laplace")
        blob = report.to_json_dict()
        assert blob["base"]["epsilon"] == "1.0"
        assert blob["amplified"]["epsilon"] == repr(EPS_FWL_075_HALF)
        assert float(blob["amplified"]["epsilon"]) == report.amplified.epsilon
        assert blob["route"] == "fwl_laplace"

    def test_upper_bound_note_present(self):
        report = amplify_generic(PrivacyBudget(1.0, 0.1), 0.5)
        assert any("upper bound" in note for note in report.notes)

    def test_amplified_never_worse_than_base(self):
        with pytest.raises(ValueError):
            from amplipriv import AmplificationReport

            AmplificationReport(
                base=PrivacyBudget(1.0, 0.0),
                amplified=PrivacyBudget(2.0, 0.0),
                p_star=1.0,
                route="generic",
            )
