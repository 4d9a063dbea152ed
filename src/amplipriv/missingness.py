"""Missing-feature mechanisms, their dataset-level product law, and the
quantities that drive amplification: the hiding probability p_star and the
observed-fraction bound rho.

Every family here is MCAR or MAR by construction, and records which in its
``mechanism_class`` when it is built. In particular the probability of the
all-missing mask never depends on the data, which is what makes p_star a
single well-defined constant across neighbor pairs. There is no MNAR family.
Each constructor checks its arguments and names the one at fault: a
ValueError message starts with "<argument>: ".
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import CompleteDataset, Mask, MaskMatrix
from .errors import DimensionError

_PROB_TOL = 1e-12

# spawn-key namespaces so sub-streams never collide
_KEY_MASK_ROW = 0
_KEY_NOISE = 1
_KEY_MC = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based child stream: deterministic, order-insensitive."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def row_stream(seed: int, row: int) -> np.random.Generator:
    return substream(seed, _KEY_MASK_ROW, row)


class MechanismClass(enum.Enum):
    MCAR = "MCAR"
    MAR = "MAR"


class FeatureMechanism:
    """Per-sample mask law P[F(z) = m]. Subclasses are immutable, and each
    fixes ``mechanism_class`` when it is built: MCAR when the law ignores the
    sample, MAR when it reads only features that its masks observe."""

    d: int
    mechanism_class: MechanismClass

    def support(self, sample: Sequence[float]):
        """Iterable of (Mask, probability) with positive probability."""
        raise NotImplementedError

    def support_size(self):  # how many masks ``support`` yields; None: only reading it tells
        return None

    def all_missing_probability(self) -> float:
        """P[F(.) = all-ones mask]; data-independent for every family here."""
        raise NotImplementedError

    def max_observed_count(self) -> int:
        """Largest number of observed features over the support."""
        raise NotImplementedError

    def draw(self, sample: Sequence[float], rng: np.random.Generator) -> Mask:
        raise NotImplementedError


def _mask(bits) -> Mask:
    return bits if isinstance(bits, Mask) else Mask(tuple(bits))


class McarBernoulli(FeatureMechanism):
    """Each feature goes missing independently with probability pi_j."""

    mechanism_class = MechanismClass.MCAR

    def __init__(self, pi: Sequence[float]):
        pi = tuple(map(float, pi))
        if len(pi) < 1:
            raise DimensionError("pi: must be non-empty")
        if not all(0 <= p <= 1 for p in pi):
            raise ValueError(f"pi: entries must lie in [0, 1], got {list(pi)!r}")
        self.pi = pi
        self.d = len(pi)

    def support(self, sample):
        # only features with 0 < pi < 1 vary; the others' factors are exactly 1.0
        free = [(j, p) for j, p in enumerate(self.pi) if 0.0 < p < 1.0]
        bits = [int(p == 1.0) for p in self.pi]
        for code in range(2 ** len(free)):
            for t, (j, _) in enumerate(free):
                bits[j] = (code >> t) & 1
            prob = math.prod((p if bits[j] else 1.0 - p for j, p in free), start=1.0)
            if prob > 0.0:
                yield Mask(tuple(bits)), prob

    def support_size(self):
        # products round monotonically: none is 0 if that of the smaller factors is not
        free = [min(p, 1.0 - p) for p in self.pi if 0.0 < p < 1.0]
        return 2 ** len(free) if math.prod(free, start=1.0) > 0.0 else None

    def all_missing_probability(self):
        return math.prod(self.pi)

    def max_observed_count(self):
        return sum(1 for p in self.pi if p < 1.0)

    def draw(self, sample, rng):
        u = rng.random(self.d)
        return Mask(tuple(int(u[j] < self.pi[j]) for j in range(self.d)))


class CappedBernoulli(FeatureMechanism):
    """Bernoulli missingness conditioned on observing at most floor(rho*d) features.

    Sampling rejection-samples rows until the cap holds; probabilities are the
    Bernoulli law renormalized over the truncated support. This is the variant
    that actually satisfies the observed-fraction bound, which the
    unconditioned Bernoulli support violates.
    """

    mechanism_class = MechanismClass.MCAR

    def __init__(self, pi: Sequence[float], rho_cap: float):
        base = McarBernoulli(pi)
        if not 0 < rho_cap <= 1:
            raise ValueError(f"rho_cap: must lie in (0, 1], got {rho_cap!r}")
        self.pi = base.pi
        self.d = base.d
        self.rho_cap = rho_cap
        self.obs_cap = allowed_count(self.rho_cap, self.d)
        self._base = base
        self._z = self._truncated_mass()
        if self._z <= 0.0:
            raise ValueError("rho_cap: the capped support has zero mass under pi")

    def _truncated_mass(self) -> float:
        # Poisson-binomial: P[#observed <= cap] with observe prob 1 - pi_j.
        probs = np.zeros(self.d + 1)
        probs[0] = 1.0
        for p_miss in self.pi:
            q_obs = 1.0 - p_miss
            probs[1:] = probs[1:] * p_miss + probs[:-1] * q_obs
            probs[0] *= p_miss
        return float(np.sum(probs[: self.obs_cap + 1]))

    def support(self, sample):
        for m, p in self._base.support(sample):
            if m.observed_count <= self.obs_cap:
                yield m, p / self._z

    def all_missing_probability(self):
        return math.prod(self.pi) / self._z

    def max_observed_count(self):
        return min(self._base.max_observed_count(), self.obs_cap)

    def draw(self, sample, rng):
        while True:
            m = self._base.draw(sample, rng)
            if m.observed_count <= self.obs_cap:
                return m


class McarPattern(FeatureMechanism):
    """Finite list of masks with fixed, data-independent probabilities."""

    mechanism_class = MechanismClass.MCAR

    def __init__(self, patterns: Sequence):
        try:
            bits, probs = zip(*[(b, p) for b, p in patterns])
        except (TypeError, ValueError):
            raise ValueError(
                f"patterns: need a non-empty list of (mask, probability) pairs, got {patterns!r}"
            ) from None
        masks, probs = tuple(map(_mask, bits)), tuple(map(float, probs))
        if any(m.d != masks[0].d for m in masks):
            raise DimensionError("patterns: masks must share one length")
        if not all(0 <= p <= 1 for p in probs):
            raise ValueError(f"patterns: probabilities must lie in [0, 1], got {list(probs)!r}")
        merged: dict = {}
        for m, prob in zip(masks, probs):
            merged[m.bits] = merged.get(m.bits, 0.0) + prob
        total = math.fsum(merged.values())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"patterns: probabilities sum to {total}, expected 1")
        self.d = masks[0].d
        # only masks it can draw: a float cumulative sum that ends below 1 must
        # not fall through to a mask of probability 0
        self.patterns = tuple((Mask(b), p) for b, p in sorted(merged.items()) if p > 0.0)
        self._cum = np.cumsum([p for _, p in self.patterns])

    def support(self, sample):
        return self.patterns

    def all_missing_probability(self):
        return dict(self.patterns).get(Mask((1,) * self.d), 0.0)

    def max_observed_count(self):
        return max(m.observed_count for m, _ in self.patterns)

    def draw(self, sample, rng):
        u = rng.random()
        idx = int(np.searchsorted(self._cum, u, side="right"))
        idx = min(idx, len(self.patterns) - 1)
        return self.patterns[idx][0]


class MarAnchoredPattern(FeatureMechanism):
    """MAR family: an always-observed anchor set drives pattern choice.

    With probability ``q_all`` the row is fully missing (a data-independent
    atom); otherwise the anchor values pick a row of ``score_table``, a
    distribution over the candidate masks, each of which observes every anchor
    feature. Anchor indices are strictly increasing; the i-th anchor feature
    falls in bin b, the count of ``thresholds[i]`` at or below its value, and
    the comma-joined bins key the table. Because the scores read only
    features that every candidate observes, the mask law depends on observed
    values alone, so the family is MAR by construction and the all-missing
    probability is one constant. It is MCAR when every bin an anchor value
    can reach gives the same law.
    """

    def __init__(
        self,
        anchor: Sequence[int],
        q_all: float,
        candidates: Sequence,
        thresholds: Sequence[Sequence[float]],
        score_table: dict,
    ):
        cands = tuple(map(_mask, candidates))
        if not cands:
            raise ValueError("candidates: need at least one candidate mask")
        d = cands[0].d
        if any(m.d != d for m in cands):
            raise DimensionError("candidates: masks must share one length")
        if len(set(m.bits for m in cands)) != len(cands):
            raise ValueError("candidates: masks must be distinct")
        anchor = tuple(map(operator.index, anchor))
        if any(j < 0 or j >= d for j in anchor):
            raise ValueError(f"anchor: indices must lie in [0, {d}), got {list(anchor)!r}")
        # thresholds[i] bins anchor[i]: sorting here would re-pair them silently
        if any(a >= b for a, b in zip(anchor, anchor[1:])):
            raise ValueError(
                f"anchor: indices must be strictly increasing, got {list(anchor)!r}"
            )
        if any(m.bits[j] == 1 for m in cands for j in anchor):
            raise ValueError("candidates: every candidate must observe the full anchor set")
        if not 0 <= q_all <= 1:
            raise ValueError(f"q_all: must lie in [0, 1], got {q_all!r}")
        try:
            cuts = tuple(tuple(sorted(map(float, ts))) for ts in thresholds)
            ok = len(cuts) == len(anchor) and all(map(math.isfinite, itertools.chain(*cuts)))
        except (OverflowError, TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(
                "thresholds: need one list of finite numbers per anchor feature, "
                f"got {thresholds!r}"
            )
        table = {}
        for key, given in score_table.items():
            try:
                row = tuple(map(float, given))
            except (OverflowError, TypeError, ValueError):  # 10 ** 400 overflows a float
                row = ()
            if (len(row) != len(cands) or not all(s >= 0 for s in row)
                    or not abs(math.fsum(row) - 1.0) <= _PROB_TOL):
                raise ValueError(
                    f"score_table: row '{key}' must hold {len(cands)} nonnegative "
                    f"scores summing to 1, got {given!r}"
                )
            table[key] = row
        # every bin an anchor value can fall in: the count of cuts <= it
        bins = [sorted({0} | {bisect_right(c, t) for t in c}) for c in cuts]
        self._rows = {}
        for key in itertools.product(*bins):
            name = ",".join(map(str, key))
            if name not in table:
                raise ValueError(f"score_table: no entry for bin key '{name}'")
            self._rows[key] = table[name]
        self.d = d
        self.anchor = anchor
        self.q_all = q_all
        self.candidates = cands
        self._cuts = cuts
        self._all_ones = tuple([1] * d)
        laws = {tuple(self._law(row)) for row in self._rows.values()}
        self.mechanism_class = MechanismClass.MCAR if len(laws) == 1 else MechanismClass.MAR

    def scores_for(self, sample: Sequence[float]) -> tuple:
        """The score row keyed by the bins of the sample's anchor values."""
        bins = (bisect_right(c, sample[j]) for c, j in zip(self._cuts, self.anchor))
        return self._rows[tuple(bins)]

    def support(self, sample):
        return self._law(self.scores_for(sample))

    def _law(self, scores: tuple) -> list:
        """(Mask, probability) pairs of positive probability under one score row."""
        emitted_all_ones = self.q_all
        out = []
        for m, s in zip(self.candidates, scores):
            p = (1.0 - self.q_all) * s
            if m.bits == self._all_ones:
                emitted_all_ones += p
                continue
            if p > 0.0:
                out.append((m, p))
        if emitted_all_ones > 0.0:
            out.append((Mask(self._all_ones), emitted_all_ones))
        return out

    def all_missing_probability(self):
        # candidates observe the anchor, so an all-missing candidate needs an
        # empty anchor, and then the table has a single row: the all-missing
        # mass is the same in every row's law
        law = dict(self._law(next(iter(self._rows.values()))))
        return law.get(Mask(self._all_ones), 0.0)

    def max_observed_count(self):
        # over the masks some row's law can draw: a candidate of score 0 in every row is not one
        return max(m.observed_count for row in self._rows.values() for m, _ in self._law(row))

    def draw(self, sample, rng):
        if rng.random() < self.q_all:
            return Mask(self._all_ones)
        scores = self.scores_for(sample)
        idx = int(np.searchsorted(np.cumsum(scores), rng.random(), side="right"))
        if idx == len(scores):  # the cumulative sum ended below the draw
            idx = max(i for i, s in enumerate(scores) if s > 0.0)
        return self.candidates[idx]


# each family by its name in scenario files
MECHANISMS = {
    "mcar_bernoulli": McarBernoulli,
    "capped_bernoulli": CappedBernoulli,
    "mcar_pattern": McarPattern,
    "mar_anchored": MarAnchoredPattern,
}


@dataclass(frozen=True)
class DatasetMechanism:
    """Product extension of a feature mechanism: row masks drawn independently."""

    feature_mech: FeatureMechanism
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("n must be >= 1")

    @property
    def d(self) -> int:
        return self.feature_mech.d


def sample_mask(
    mech: DatasetMechanism, dataset: CompleteDataset, seed: int
) -> MaskMatrix:
    """Draw one mask matrix; per-row streams keyed on (seed, row index)."""
    if dataset.n != mech.n or dataset.d != mech.d:
        raise DimensionError("dataset shape does not match the mechanism")
    rows = tuple(
        mech.feature_mech.draw(dataset.rows[i], row_stream(seed, i))
        for i in range(dataset.n)
    )
    return MaskMatrix(rows)


def p_star(mech: DatasetMechanism) -> float:
    """Probability that a given record is at least partially observed.

    Equals 1 - P[F(.) = all-ones mask]. Every family here is MCAR or MAR by
    construction, so the all-ones probability is constant across samples and
    this is a single number.
    """
    return 1.0 - mech.feature_mech.all_missing_probability()


def allowed_count(rho: float, d: int) -> int:
    """The number of observed features a fraction rho of d allows: the largest
    c <= d with c / d <= rho. Compared as the quotient c / d, the value
    ``tight_rho`` returns, so a tight rho gives back its own count, where
    floor(rho * d) can lose one to rounding (15 / 22 * 22 < 15)."""
    return sum(1 for c in range(1, d + 1) if c / d <= rho)


def verify_rho(mech: DatasetMechanism, rho: float) -> bool:
    """Check every supported mask row observes at most a fraction rho of features."""
    if not 0 <= rho <= 1:
        raise ValueError(f"rho: must lie in [0, 1], got {rho!r}")
    return mech.feature_mech.max_observed_count() <= allowed_count(rho, mech.d)


def tight_rho(mech: DatasetMechanism) -> float:
    """Smallest valid observed-fraction bound for the mechanism's support."""
    return mech.feature_mech.max_observed_count() / mech.d
