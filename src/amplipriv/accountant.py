"""Closed-form privacy-amplification accounting.

The central map is epsilon' = ln(1 + p_star * (e^epsilon - 1)): the budget a
mechanism retains once a missing-data mechanism hides the differing record
with probability 1 - p_star. Arithmetic uses expm1/log1p, the compensated
path that keeps digits as p_star approaches 1, and endpoints are returned
exactly. Reported budgets are upper bounds on the true privacy level, and all
serialization uses shortest-round-trip decimal strings so no reader ever sees
a value rounded below what was computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetRangeError, DegenerateQueryError
from .noise import GAUSSIAN, LAPLACE, PrivacyBudget, check_exponentiable
from .queries import SensitivityBounds

ROUTE_GENERIC = "generic"
ROUTE_FWL_LAPLACE = "fwl_laplace"
ROUTE_FWL_GAUSSIAN = "fwl_gaussian"

_AMPLIFIED_NOTE = "amplified budget is an upper bound, not an exact privacy level"


@dataclass(frozen=True)
class AmplificationReport:
    base: PrivacyBudget
    amplified: PrivacyBudget
    p_star: float
    route: str
    rho: Optional[float] = None
    C: Optional[float] = None
    C_tilde: Optional[float] = None
    first_order: Optional[float] = None
    notes: tuple = ()

    def __post_init__(self):
        if self.amplified.epsilon > self.base.epsilon:
            raise ValueError("amplified epsilon exceeded the base budget")
        if self.amplified.delta > self.base.delta:
            raise ValueError("amplified delta exceeded the base budget")

    def to_json_dict(self) -> dict:
        out = {
            "base": {"epsilon": repr(self.base.epsilon), "delta": repr(self.base.delta)},
            "amplified": {
                "epsilon": repr(self.amplified.epsilon),
                "delta": repr(self.amplified.delta),
            },
            "p_star": repr(self.p_star),
            "route": self.route,
            "notes": list(self.notes),
        }
        if self.rho is not None:
            out["rho"] = repr(self.rho)
        if self.C is not None:
            out["C"] = repr(self.C)
        if self.C_tilde is not None:
            out["C_tilde"] = repr(self.C_tilde)
        if self.first_order is not None:
            out["first_order"] = repr(self.first_order)
        return out


def amplified_epsilon(epsilon: float, p_star: float) -> float:
    """ln(1 + p_star * (e^epsilon - 1)), exact at the endpoints, for epsilon
    in [0, EPSILON_MAX], where e^epsilon is finite."""
    check_exponentiable(epsilon)
    if not 0 <= p_star <= 1:
        raise ValueError("p_star must lie in [0, 1]")
    if p_star == 1.0 or epsilon == 0.0:
        return epsilon
    if p_star == 0.0:
        return 0.0
    return min(math.log1p(p_star * math.expm1(epsilon)), epsilon)


def amplify_generic(base: PrivacyBudget, p_star: float) -> AmplificationReport:
    """Amplification available to any DP mechanism under MCAR/MAR masking."""
    eps_new = amplified_epsilon(base.epsilon, p_star)
    return AmplificationReport(
        base=base,
        amplified=PrivacyBudget(eps_new, p_star * base.delta),
        p_star=p_star,
        route=ROUTE_GENERIC,
        notes=(_AMPLIFIED_NOTE,),
    )


def amplify_fwl(
    epsilon: float,
    delta: float,
    p_star: float,
    bounds: SensitivityBounds,
    family: str,
) -> AmplificationReport:
    """Amplification for calibrated Laplace/Gaussian on an FWL query.

    The masked-to-complete sensitivity ratio first shrinks the base epsilon to
    epsilon_0 = (C_tilde / C) * epsilon, then the generic map applies, so
    epsilon_0, not epsilon, must be at most EPSILON_MAX. Laplace keeps
    delta = 0; Gaussian scales delta by p_star.
    """
    if family == LAPLACE:
        if delta != 0.0:
            raise BudgetRangeError("the Laplace route carries delta = 0")
        if epsilon <= 0:
            raise BudgetRangeError("epsilon must be positive")
    elif family == GAUSSIAN:
        if not 0 < epsilon <= 1:
            raise BudgetRangeError(
                "the Gaussian guarantee is stated for epsilon in (0, 1]"
            )
        if not 0 <= delta <= 1:
            raise BudgetRangeError("delta must lie in [0, 1]")
    else:
        raise ValueError(f"unknown family '{family}'")
    if bounds.C_p <= 0:
        raise DegenerateQueryError("sensitivity constant C must be positive")
    if not 0 <= p_star <= 1:
        raise ValueError("p_star must lie in [0, 1]")

    ratio = bounds.ratio
    eps0 = ratio * epsilon
    check_exponentiable(eps0, f"(C_tilde / C) * epsilon = {ratio!r} * {epsilon!r} ")
    eps_new = amplified_epsilon(eps0, p_star)
    delta_new = 0.0 if family == LAPLACE else p_star * delta
    return AmplificationReport(
        base=PrivacyBudget(epsilon, delta),
        amplified=PrivacyBudget(eps_new, delta_new),
        p_star=p_star,
        route=ROUTE_FWL_LAPLACE if family == LAPLACE else ROUTE_FWL_GAUSSIAN,
        rho=bounds.rho,
        C=bounds.C_p,
        C_tilde=bounds.C_tilde_p,
        first_order=p_star * ratio * epsilon,
        notes=(_AMPLIFIED_NOTE,),
    )


def corollary_bound(epsilon: float, p_star: float, rho: float) -> float:
    """min((e - 1) * p_star, 1) * rho * epsilon.

    Valid in the equal-constants regime with rho * d integral; that hypothesis
    is the caller's attestation, recorded rather than checked, because it is a
    statement about a regime and not about runtime values. Always dominates
    the exact amplified epsilon under the same inputs.
    """
    if not 0 < epsilon <= 1:
        raise BudgetRangeError("the closed-form cap is stated for epsilon in (0, 1]")
    if not 0 <= p_star <= 1:
        raise ValueError("p_star must lie in [0, 1]")
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    return min((math.e - 1.0) * p_star, 1.0) * rho * epsilon
