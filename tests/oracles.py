"""Reference computations the tests compare the package against.

``DiscreteDistribution`` and ``hockey_stick_discrete`` give the exact
hockey-stick divergence of finite laws, the ground truth for the mixture
identities the amplification proof uses. ``oracle_support`` enumerates a
catalog family's row law on plain 0/1 tuples, as the families were first
written, the reference for their array supports. ``product_support`` enumerates every
mask matrix of a dataset mechanism, and ``enumerated_centre_law`` evaluates
the query on each and merges equal centres with a dict (``dict_centre_law``):
the reference for the audit's row-by-row convolution. ``ORACLE_DRAWS``
and ``gather_sample`` are the unit noise draws and the mixture sample written
as whole-array expressions, the reference for the in-place Monte Carlo path.
``verify_fwl`` samples shared-mask neighbour pairs and tests the feature-wise
Lipschitz inequality of a query's declared constants. ``stable_json`` is a
report's JSON text by way of ``json.dumps``, the reference for the one-pass
writer of ``cli``.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from amplipriv.datasets import CompleteDataset, MaskMatrix, apply_mask
from amplipriv.divergence import DivergenceEstimate, VectorMixture
from amplipriv.missingness import CappedBernoulli, DatasetMechanism, substream
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
        value=min(value, 1.0), method=METHOD_EXACT, tolerance=0.0
    )


def dict_centre_law(centres: np.ndarray, probs: np.ndarray) -> list:
    """(centre tuple, weight) pairs of a centre law: masks with equal centre
    tuples (-0.0 and 0.0 compare equal) merged in enumeration order, sorted
    by centre, zero weights dropped."""
    acc: dict = {}
    for center, prob in zip(map(tuple, centres.tolist()), probs.tolist()):
        acc[center] = acc.get(center, 0.0) + prob
    return [(c, w) for c, w in sorted(acc.items()) if w > 0.0]


def _bernoulli_law(pi: Sequence[float]) -> list:
    """Every code over the features with 0 < pi < 1 in turn, bit t of the
    code that of free feature t, each probability ``math.prod`` of the free
    factors in feature order; masks of probability 0 left out."""
    free = [(j, p) for j, p in enumerate(pi) if 0.0 < p < 1.0]
    bits, out = [int(p == 1.0) for p in pi], []
    for code in range(2 ** len(free)):
        for t, (j, _) in enumerate(free):
            bits[j] = (code >> t) & 1
        prob = math.prod((p if bits[j] else 1.0 - p for j, p in free), start=1.0)
        if prob > 0.0:
            out.append((tuple(bits), prob))
    return out


def oracle_support(kind: str, params: dict, sample: Sequence[float]) -> list:
    """(bits tuple, probability) per mask of positive probability in the row
    law of the catalog family ``kind`` built from ``params``, walked one
    mask at a time on 0/1 tuples."""
    if kind == "mcar_bernoulli":
        return _bernoulli_law(params["pi"])
    if kind == "capped_bernoulli":
        capped = CappedBernoulli(**params)  # its cap and normaliser
        return [(b, p / capped._z) for b, p in _bernoulli_law(params["pi"])
                if b.count(0) <= capped.obs_cap]
    if kind == "mcar_pattern":
        merged: dict = {}
        for bits, prob in params["patterns"]:
            key = tuple(int(b) for b in bits)
            merged[key] = merged.get(key, 0.0) + float(prob)
        return [(b, p) for b, p in sorted(merged.items()) if p > 0.0]
    # mar_anchored: the anchor values' bins pick the score row
    q_all, cands = params["q_all"], [tuple(int(b) for b in c) for c in params["candidates"]]
    key = ",".join(str(bisect_right(sorted(map(float, cuts)), sample[j]))
                   for cuts, j in zip(params["thresholds"], params["anchor"]))
    hidden, out = tuple([1] * len(cands[0])), []
    atom = q_all
    for bits, score in zip(cands, params["score_table"][key]):
        prob = (1.0 - q_all) * float(score)
        if bits == hidden:
            atom += prob
        elif prob > 0.0:
            out.append((bits, prob))
    return out + [(hidden, atom)] if atom > 0.0 else out


def product_support(mech: DatasetMechanism, dataset: CompleteDataset) -> tuple:
    """Every mask matrix of the product law as an (M, n, d) bool array, True
    where a cell is missing, in ``itertools.product`` order over the rows'
    supports, and the (M,) probabilities: the product of the row
    probabilities in row order."""
    per_row = [list(zip(*mech.feature_mech.support(row))) for row in dataset.rows]
    combos = list(itertools.product(*per_row))
    masks = np.array([[m for m, _ in combo] for combo in combos], dtype=bool)
    probs = np.array([math.prod(float(p) for _, p in combo) for combo in combos])
    return masks.reshape(len(combos), dataset.n, dataset.d), probs


def enumerated_centre_law(query: FwlQuery, mech: DatasetMechanism,
                          dataset: CompleteDataset) -> list:
    """(centre tuple, weight) pairs of the output law: the query on every mask
    matrix of ``product_support``, merged by ``dict_centre_law``."""
    masks, probs = product_support(mech, dataset)
    centres = query.evaluate_batch(np.where(masks, 0.0, dataset.to_array()), masks)
    return dict_centre_law(centres, probs)


def _laplace_draw(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Unit Laplace noise by the inverse CDF, both log branches at every coordinate."""
    u = np.clip(rng.random(shape), 1e-300, 1.0 - 1e-16)
    return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))


def _gaussian_draw(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Unit Gaussian noise by Box-Muller: all radii, then all angles, the
    cosines before the sines."""
    k = math.prod(shape)
    pairs = (k + 1) // 2
    u1 = np.clip(rng.random(pairs), 1e-300, 1.0)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:k].reshape(shape)


ORACLE_DRAWS = {"laplace": _laplace_draw, "gaussian": _gaussian_draw}


def gather_sample(mixture: VectorMixture, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws of ``mixture``: a choice over the components, then the
    gathered centres plus the scaled unit draw."""
    idx = rng.choice(len(mixture.weights), size=size, p=mixture.weights)
    draw = ORACLE_DRAWS[mixture.family](rng, (size, mixture.centers.shape[1]))
    return mixture.centers[idx] + mixture.scale * draw


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
    mask = MaskMatrix(np.zeros((q.n, q.d), dtype=bool))
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
            mask = MaskMatrix(bits.astype(bool))
        masked_l = apply_mask(left, mask)
        masked_r = apply_mask(right, mask)
        lhs = float(_norm(q(masked_l) - q(masked_r), q.norm_p))
        obs = np.array([1.0 - b for b in mask.bits[i_star].tolist()])
        gaps = (
            np.abs(np.array(left.rows[i_star]) - np.array(right.rows[i_star])) * obs
        )
        rhs = float(np.dot(q.constants_L, gaps))
        violation = lhs - rhs
        if violation > worst:
            worst = violation
            worst_case = (left, right, mask)
    return FwlCheckReport(max_violation=worst, worst_case=worst_case, trials=trials)


def stable_json(obj) -> str:
    """A report's JSON text: each float replaced by the string of its
    ``repr``, then ``json.dumps`` with sorted keys and a two-space indent,
    and a final newline."""
    def convert(o):
        if isinstance(o, float):
            return repr(float(o))
        if isinstance(o, dict):
            return {k: convert(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [convert(v) for v in o]
        return o

    return json.dumps(convert(obj), sort_keys=True, indent=2) + "\n"
