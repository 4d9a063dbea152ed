"""Reference computations the tests compare the package against.

``DiscreteDistribution`` and ``hockey_stick_discrete`` give the exact
hockey-stick divergence of finite laws, the ground truth for the mixture
identities the amplification proof uses. ``verify_fwl`` samples shared-mask
neighbour pairs and tests the feature-wise Lipschitz inequality of a query's
declared constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from amplipriv.datasets import CompleteDataset, Mask, MaskMatrix, apply_mask
from amplipriv.divergence import DivergenceEstimate
from amplipriv.missingness import substream
from amplipriv.queries import FwlQuery

_NORM_TOL = 1e-12
_KEY_TRIAL = 2  # the sub-stream namespace of the trials, apart from the package's
METHOD_EXACT = "exact_discrete"


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite-support probability distribution over hashable outcomes."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        support = tuple(self.support)
        probs = tuple(float(p) for p in self.probs)
        if len(support) != len(probs) or not support:
            raise ValueError("support and probs must be non-empty and aligned")
        if len(set(support)) != len(support):
            raise ValueError("support entries must be distinct")
        if any(p < 0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(probs)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.probs))


def mix_discrete(components: Sequence) -> DiscreteDistribution:
    """Weighted mixture of discrete distributions on the union support."""
    acc: dict = {}
    for weight, dist in components:
        for x, p in zip(dist.support, dist.probs):
            acc[x] = acc.get(x, 0.0) + weight * p
    items = sorted(acc.items(), key=lambda kv: repr(kv[0]))
    return DiscreteDistribution(
        tuple(k for k, _ in items), tuple(v for _, v in items)
    )


def hockey_stick_discrete(
    P: DiscreteDistribution, Q: DiscreteDistribution, epsilon: float
) -> DivergenceEstimate:
    """Exact positive-part sum over the union support."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    alpha = math.exp(epsilon)
    q = Q.as_dict()
    p = P.as_dict()
    keys = set(p) | set(q)
    value = math.fsum(
        max(p.get(x, 0.0) - alpha * q.get(x, 0.0), 0.0) for x in keys
    )
    return DivergenceEstimate(
        value=min(value, 1.0), method=METHOD_EXACT, epsilon_at=epsilon, tolerance=0.0
    )


def _norm(v: np.ndarray, p: int) -> np.ndarray:
    """The l_p norm of ``v`` along its last axis."""
    return np.abs(v).sum(axis=-1) if p == 1 else np.sqrt((v * v).sum(axis=-1))


@dataclass(frozen=True)
class FwlCheckReport:
    max_violation: float
    worst_case: Optional[tuple]
    trials: int


def _corner_pair(q: FwlQuery, B: float):
    """Deterministic adversarial trial: fully observed, max-gap corner rows."""
    base = [[-B] * q.d for _ in range(q.n)]
    alt = [row[:] for row in base]
    alt[0] = [B] * q.d
    mask = MaskMatrix(tuple(Mask(tuple([0] * q.d)) for _ in range(q.n)))
    return CompleteDataset(tuple(map(tuple, base))), CompleteDataset(
        tuple(map(tuple, alt))
    ), mask, 0


def verify_fwl(q: FwlQuery, trials: int, B: float, seed: int = 0) -> FwlCheckReport:
    """Sample shared-mask neighbor pairs and test the FWL inequality.

    max_violation <= 0 certifies no counterexample was found; this is
    probabilistic evidence guarding combinator misuse, not a proof. Trial 0 is
    the deterministic max-gap corner pair, which catches understated constants
    immediately.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = -math.inf
    worst_case = None
    for t in range(trials):
        if t == 0:
            left, right, mask, i_star = _corner_pair(q, B)
        else:
            rng = substream(seed, _KEY_TRIAL, t)
            vals = rng.uniform(-B, B, (q.n, q.d))
            left = CompleteDataset(tuple(map(tuple, vals)))
            i_star = int(rng.integers(q.n))
            right = left.substitute(i_star, rng.uniform(-B, B, q.d))
            bits = rng.integers(0, 2, (q.n, q.d))
            mask = MaskMatrix(tuple(Mask(tuple(int(b) for b in r)) for r in bits))
        masked_l = apply_mask(left, mask)
        masked_r = apply_mask(right, mask)
        lhs = float(_norm(q(masked_l) - q(masked_r), q.norm_p))
        obs = np.array([1.0 - b for b in mask.rows[i_star].bits])
        gaps = (
            np.abs(np.array(left.rows[i_star]) - np.array(right.rows[i_star])) * obs
        )
        rhs = float(np.dot(q.constants_L, gaps))
        violation = lhs - rhs
        if violation > worst:
            worst = violation
            worst_case = (left, right, mask)
    return FwlCheckReport(max_violation=worst, worst_case=worst_case, trials=trials)
