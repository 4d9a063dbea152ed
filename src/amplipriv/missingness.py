"""Missing-feature mechanisms, their dataset-level product law, and the
quantities that drive amplification: the hiding probability p_star and the
observed-fraction bound rho.

Every family here is MCAR or MAR by construction. In particular the
probability of the all-missing mask never depends on the data, which is what
makes p_star a single well-defined constant across neighbor pairs.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .datasets import CompleteDataset, Mask, MaskMatrix
from .errors import (
    DimensionError,
    MechanismConsistencyError,
    SchemaError,
    UnsupportedMechanismError,
)

_PROB_TOL = 1e-12

# spawn-key namespaces so sub-streams never collide
_KEY_MASK_ROW = 0
_KEY_NOISE = 1
_KEY_TRIAL = 2
_KEY_MC = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based child stream: deterministic, order-insensitive."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def row_stream(seed: int, row: int) -> np.random.Generator:
    return substream(seed, _KEY_MASK_ROW, row)


class MechanismClass(enum.Enum):
    MCAR = "MCAR"
    MAR = "MAR"
    MNAR = "MNAR"


class FeatureMechanism:
    """Per-sample mask law P[F(z) = m]. Subclasses are immutable."""

    d: int

    def mask_probability(self, sample: Sequence[float], mask: Mask) -> float:
        raise NotImplementedError

    def support(self, sample: Sequence[float]):
        """Iterable of (Mask, probability) with positive probability."""
        raise NotImplementedError

    def all_missing_probability(self) -> float:
        """P[F(.) = all-ones mask]; data-independent for every family here."""
        raise NotImplementedError

    def max_observed_count(self) -> int:
        """Largest number of observed features over the support."""
        raise NotImplementedError

    def draw(self, sample: Sequence[float], rng: np.random.Generator) -> Mask:
        raise NotImplementedError

    def data_independent(self) -> bool:
        """True when the mask law ignores the sample entirely (MCAR family)."""
        raise NotImplementedError

    def _check_sample(self, sample: Sequence[float]):
        if len(sample) != self.d:
            raise DimensionError(f"sample has length {len(sample)}, mechanism d={self.d}")


def _mask_from_bits(bits) -> Mask:
    return bits if isinstance(bits, Mask) else Mask(tuple(bits))


class McarBernoulli(FeatureMechanism):
    """Each feature goes missing independently with probability pi_j."""

    def __init__(self, pi: Sequence[float]):
        pi = tuple(float(p) for p in pi)
        if len(pi) < 1:
            raise DimensionError("pi must be non-empty")
        if any(p < 0 or p > 1 for p in pi):
            raise ValueError("pi entries must lie in [0, 1]")
        self.pi = pi
        self.d = len(pi)

    def mask_probability(self, sample, mask):
        self._check_sample(sample)
        if mask.d != self.d:
            raise DimensionError("mask length mismatch")
        prob = 1.0
        for p, b in zip(self.pi, mask.bits):
            prob *= p if b == 1 else (1.0 - p)
        return prob

    def support(self, sample):
        for code in range(2 ** self.d):
            bits = tuple((code >> j) & 1 for j in range(self.d))
            m = Mask(bits)
            p = self.mask_probability(sample, m)
            if p > 0.0:
                yield m, p

    def all_missing_probability(self):
        return math.prod(self.pi)

    def max_observed_count(self):
        return sum(1 for p in self.pi if p < 1.0)

    def draw(self, sample, rng):
        u = rng.random(self.d)
        return Mask(tuple(int(u[j] < self.pi[j]) for j in range(self.d)))

    def data_independent(self):
        return True


class CappedBernoulli(FeatureMechanism):
    """Bernoulli missingness conditioned on observing at most floor(rho*d) features.

    Sampling rejection-samples rows until the cap holds; probabilities are the
    Bernoulli law renormalized over the truncated support. This is the variant
    that actually satisfies the observed-fraction bound, which the
    unconditioned Bernoulli support violates.
    """

    def __init__(self, pi: Sequence[float], rho_cap: float):
        base = McarBernoulli(pi)
        if not 0 < rho_cap <= 1:
            raise ValueError("rho_cap must lie in (0, 1]")
        self.pi = base.pi
        self.d = base.d
        self.rho_cap = float(rho_cap)
        self.obs_cap = math.floor(self.rho_cap * self.d)
        self._base = base
        self._z = self._truncated_mass()
        if self._z <= 0.0:
            raise ValueError("truncated support has zero mass under pi")

    def _truncated_mass(self) -> float:
        # Poisson-binomial: P[#observed <= cap] with observe prob 1 - pi_j.
        probs = np.zeros(self.d + 1)
        probs[0] = 1.0
        for p_miss in self.pi:
            q_obs = 1.0 - p_miss
            probs[1:] = probs[1:] * p_miss + probs[:-1] * q_obs
            probs[0] *= p_miss
        return float(np.sum(probs[: self.obs_cap + 1]))

    def mask_probability(self, sample, mask):
        if mask.observed_count > self.obs_cap:
            return 0.0
        return self._base.mask_probability(sample, mask) / self._z

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

    def data_independent(self):
        return True


class McarPattern(FeatureMechanism):
    """Finite list of masks with fixed, data-independent probabilities."""

    def __init__(self, patterns: Sequence):
        merged: dict = {}
        d = None
        for bits, prob in patterns:
            m = _mask_from_bits(bits)
            if d is None:
                d = m.d
            elif m.d != d:
                raise DimensionError("pattern masks must share a common length")
            prob = float(prob)
            if prob < 0:
                raise ValueError("pattern probabilities must be nonnegative")
            merged[m.bits] = merged.get(m.bits, 0.0) + prob
        if d is None:
            raise ValueError("pattern list must be non-empty")
        total = math.fsum(merged.values())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"pattern probabilities sum to {total}, expected 1")
        self.d = d
        self.patterns = tuple((Mask(b), p) for b, p in sorted(merged.items()))
        self._index = {m.bits: p for m, p in self.patterns}
        self._cum = np.cumsum([p for _, p in self.patterns])

    def mask_probability(self, sample, mask):
        self._check_sample(sample)
        return self._index.get(mask.bits, 0.0)

    def support(self, sample):
        for m, p in self.patterns:
            if p > 0.0:
                yield m, p

    def all_missing_probability(self):
        return self._index.get(tuple([1] * self.d), 0.0)

    def max_observed_count(self):
        return max(m.observed_count for m, p in self.patterns if p > 0.0)

    def draw(self, sample, rng):
        u = rng.random()
        idx = int(np.searchsorted(self._cum, u, side="right"))
        idx = min(idx, len(self.patterns) - 1)
        return self.patterns[idx][0]

    def data_independent(self):
        return True


class MarAnchoredPattern(FeatureMechanism):
    """MAR family: an always-observed anchor set drives pattern choice.

    With probability ``q_all`` the row is fully missing (a data-independent
    atom); otherwise a scoring rule maps the anchor values to a distribution
    over candidate masks, each of which observes every anchor feature. Because
    scores read only coordinates that every candidate observes, the mask law
    depends on observed values alone, so the family is MAR by construction and
    the all-missing probability is one constant.
    """

    def __init__(
        self,
        d: int,
        anchor: Sequence[int],
        q_all: float,
        candidates: Sequence,
        score: Callable[[tuple], Sequence[float]],
    ):
        if d < 1:
            raise DimensionError("d must be >= 1")
        anchor = tuple(sorted(set(int(j) for j in anchor)))
        if any(j < 0 or j >= d for j in anchor):
            raise ValueError("anchor indices out of range")
        if not 0 <= q_all <= 1:
            raise ValueError("q_all must lie in [0, 1]")
        cands = tuple(_mask_from_bits(b) for b in candidates)
        if not cands:
            raise ValueError("candidate list must be non-empty")
        for m in cands:
            if m.d != d:
                raise DimensionError("candidate masks must have length d")
            if any(m.bits[j] == 1 for j in anchor):
                raise ValueError("every candidate must observe the full anchor set")
        if len(set(m.bits for m in cands)) != len(cands):
            raise ValueError("candidate masks must be distinct")
        self.d = d
        self.anchor = anchor
        self.q_all = float(q_all)
        self.candidates = cands
        self._score = score
        self._all_ones = tuple([1] * d)

    def scores_for(self, sample: Sequence[float]) -> tuple:
        anchor_values = tuple(float(sample[j]) for j in self.anchor)
        raw = tuple(float(s) for s in self._score(anchor_values))
        if len(raw) != len(self.candidates):
            raise MechanismConsistencyError(
                "scoring rule returned a vector of the wrong length"
            )
        if any(s < 0 for s in raw):
            raise MechanismConsistencyError("scores must be nonnegative")
        total = math.fsum(raw)
        if abs(total - 1.0) > _PROB_TOL:
            raise MechanismConsistencyError(f"scores sum to {total}, expected 1")
        return raw

    def mask_probability(self, sample, mask):
        self._check_sample(sample)
        if mask.bits == self._all_ones:
            base = self.q_all
            # a fully-missing candidate is possible only with an empty anchor
            for m, s in zip(self.candidates, self.scores_for(sample)):
                if m.bits == self._all_ones:
                    base += (1.0 - self.q_all) * s
            return base
        for m, s in zip(self.candidates, self.scores_for(sample)):
            if m.bits == mask.bits:
                return (1.0 - self.q_all) * s
        return 0.0

    def support(self, sample):
        scores = self.scores_for(sample)
        emitted_all_ones = 0.0
        if self.q_all > 0.0:
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
        q = self.q_all
        if not self.anchor:
            # empty anchor: scores cannot depend on anything, evaluate once
            for m, s in zip(self.candidates, self.scores_for((0.0,) * self.d)):
                if m.bits == self._all_ones:
                    q += (1.0 - self.q_all) * s
        return q

    def max_observed_count(self):
        best = 0 if self.q_all > 0.0 else None
        for m in self.candidates:
            c = m.observed_count
            best = c if best is None else max(best, c)
        return best

    def draw(self, sample, rng):
        if rng.random() < self.q_all:
            return Mask(self._all_ones)
        scores = self.scores_for(sample)
        cum = np.cumsum(scores)
        idx = int(np.searchsorted(cum, rng.random(), side="right"))
        idx = min(idx, len(self.candidates) - 1)
        return self.candidates[idx]

    def data_independent(self):
        return not self.anchor


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


def mask_probability(mech: FeatureMechanism, sample: Sequence[float], mask: Mask) -> float:
    return mech.mask_probability(sample, mask)


def dataset_mask_probability(
    mech: DatasetMechanism, dataset: CompleteDataset, mask: MaskMatrix
) -> float:
    """Product of per-row mask probabilities, in fixed row order.

    Switches to log-space accumulation past 64 rows to dodge underflow.
    """
    if dataset.n != mech.n or dataset.d != mech.d:
        raise DimensionError("dataset shape does not match the mechanism")
    if mask.n != dataset.n or mask.d != dataset.d:
        raise DimensionError("mask shape does not match the dataset")
    per_row = [
        mech.feature_mech.mask_probability(dataset.rows[i], mask.rows[i])
        for i in range(dataset.n)
    ]
    if mech.n <= 64:
        prob = 1.0
        for p in per_row:
            prob *= p
        return prob
    if any(p == 0.0 for p in per_row):
        return 0.0
    return math.exp(math.fsum(math.log(p) for p in per_row))


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


def p_star(mech: DatasetMechanism, cls: Optional[MechanismClass] = None) -> float:
    """Probability that a given record is at least partially observed.

    Equals 1 - P[F(.) = all-ones mask]; the all-ones probability is constant
    across samples for MCAR/MAR mechanisms, so this is a single number. Raises
    for anything classified MNAR, where no such constant exists. ``cls`` is the
    mechanism's class when the caller has already classified it.
    """
    if cls is None:
        cls = classify(mech.feature_mech)
    if cls is MechanismClass.MNAR:
        raise UnsupportedMechanismError(
            "p_star requires an MCAR or MAR mechanism: under MNAR the mask law "
            "may depend on unobserved values and the hiding probability is not "
            "a constant across neighbor pairs"
        )
    return 1.0 - mech.feature_mech.all_missing_probability()


def verify_rho(mech: DatasetMechanism, rho: float) -> bool:
    """Check every supported mask row observes at most a fraction rho of features."""
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    return mech.feature_mech.max_observed_count() <= rho * mech.d


def tight_rho(mech: DatasetMechanism) -> float:
    """Smallest valid observed-fraction bound for the mechanism's support."""
    return mech.feature_mech.max_observed_count() / mech.d


class _ProbeStream(random.Random):
    """A seeded stdlib stream for the certificate's probes. ``random(size)``
    returns an array, as ``FeatureMechanism.draw`` asks of a numpy Generator,
    so classifying never loads ``numpy.random`` (nor, through it, OpenSSL)."""

    def random(self, size=None):
        draw = super().random
        return draw() if size is None else np.array([draw() for _ in range(size)])

    def point(self, bound: float, d: int) -> tuple:
        return tuple(self.uniform(-bound, bound) for _ in range(d))


def classify(
    mech: FeatureMechanism, trials: int = 64, bound: float = 1.0, seed: int = 20240
) -> MechanismClass:
    """Classify a feature mechanism as MCAR or MAR.

    Runs a randomized certificate: for sampled (z, z', m) triples with z and z'
    agreeing on the observed coordinates of m, the mask probabilities must
    match exactly. A violation means the mechanism's construction is broken,
    not that it is MNAR, so it raises. The MCAR/MAR split is decided by probing
    whether the mask law reacts to any coordinate change at all.
    """
    rng = _ProbeStream(seed)
    d = mech.d
    probe_masks = [Mask(tuple([1] * d)), Mask(tuple([0] * d))]
    z0 = rng.point(bound, d)
    for _ in range(8):
        probe_masks.append(mech.draw(z0, rng))

    for t in range(trials):
        z = rng.point(bound, d)
        m = probe_masks[t % len(probe_masks)]
        z_alt = tuple(
            z[j] if m.bits[j] == 0 else rng.uniform(-bound, bound) for j in range(d)
        )
        p1 = mech.mask_probability(z, m)
        p2 = mech.mask_probability(z_alt, m)
        if p1 != p2:
            raise MechanismConsistencyError(
                "mask probability changed with unobserved coordinates only: "
                "the mechanism violates its MAR construction"
            )

    if mech.data_independent():
        return MechanismClass.MCAR

    def _table(z):
        return sorted((m.bits, p) for m, p in mech.support(z))

    # probe for any data dependence at all; none found means degenerate MCAR
    ref_table = _table(rng.point(bound, d))
    for _ in range(trials):
        if _table(rng.point(bound, d)) != ref_table:
            return MechanismClass.MAR
    return MechanismClass.MCAR


# --- JSON mechanism specs ---------------------------------------------------


def table_score(
    thresholds: Sequence[Sequence[float]], score_table: dict, n_candidates: int
) -> Callable[[tuple], tuple]:
    """Build a scoring rule from per-anchor-coordinate thresholds and a table.

    Each anchor value is discretized to the count of thresholds <= value; the
    joined bin indices key into ``score_table``.
    """
    cuts = [sorted(float(t) for t in ts) for ts in thresholds]
    table = {}
    for key, row in score_table.items():
        row = tuple(float(s) for s in row)
        if len(row) != n_candidates:
            raise SchemaError(
                f"score_table: row '{key}' has {len(row)} scores for "
                f"{n_candidates} candidates"
            )
        if any(s < 0 for s in row) or not abs(math.fsum(row) - 1.0) <= _PROB_TOL:
            raise SchemaError(
                f"score_table: row '{key}' must be nonnegative and sum to 1, "
                f"got {list(row)!r}"
            )
        table[key] = row

    def score(anchor_values: tuple) -> tuple:
        if len(anchor_values) != len(cuts):
            raise DimensionError("anchor value count does not match thresholds")
        key = ",".join(
            str(bisect_right(cuts[i], v)) for i, v in enumerate(anchor_values)
        )
        if key not in table:
            raise SchemaError(f"score_table: no entry for bin key '{key}'")
        return table[key]

    return score


def feature_mechanism_from_spec(spec: dict) -> FeatureMechanism:
    """Parse the JSON mechanism spec format."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("kind: a mechanism spec is an object with a 'kind' field")
    kind = spec["kind"]
    if isinstance(kind, str) and kind.lower().startswith("mnar"):
        raise UnsupportedMechanismError(
            f"mechanism kind '{kind}': amplification accounting requires an MCAR "
            "or MAR mechanism (the mask law must not depend on unobserved values)"
        )
    if kind == "mcar_bernoulli":
        return McarBernoulli(spec["pi"])
    if kind == "capped_bernoulli":
        return CappedBernoulli(spec["pi"], spec["rho_cap"])
    if kind == "mcar_pattern":
        return McarPattern([(p["mask"], p["prob"]) for p in spec["patterns"]])
    if kind == "mar_anchored":
        candidates = spec["candidates"]
        if not candidates:
            raise SchemaError("candidates: need at least one candidate mask")
        thresholds, table = spec["thresholds"], spec["score_table"]
        score = table_score(thresholds, table, len(candidates))
        # every bin an anchor value can fall in: the count of thresholds <= it
        bins = [
            sorted({0} | {bisect_right(cuts, t) for t in cuts})
            for cuts in (sorted(float(t) for t in ts) for ts in thresholds)
        ]
        for key in itertools.product(*bins):
            key = ",".join(map(str, key))
            if key not in table:
                raise SchemaError(f"score_table: no entry for bin key '{key}'")
        return MarAnchoredPattern(
            d=len(candidates[0]),
            anchor=spec["anchor"],
            q_all=spec["q_all"],
            candidates=candidates,
            score=score,
        )
    raise SchemaError(f"kind: unknown mechanism kind '{kind}'")


def load_mechanism_spec(path) -> FeatureMechanism:
    with open(path) as fh:
        return feature_mechanism_from_spec(json.load(fh))
