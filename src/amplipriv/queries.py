"""Feature-wise Lipschitz queries: the standard catalog, closure combinators,
and the complete/masked sensitivity constants they induce.

A query f is feature-wise Lipschitz (FWL) for a norm when substituting one
record changes the output by at most sum_j L_j * |gap_j|, with the gap taken
per feature under a shared mask (NA against NA counts as zero). Masked cells
contribute nothing to any sum and mean denominators stay at n, which keeps the
constants data-independent; that is what lets the masked sensitivity be read
off the sorted constants alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .datasets import (
    CompleteDataset,
    IncompleteDataset,
    Mask,
    MaskMatrix,
    apply_mask,
)
from .errors import DimensionError, LipschitzContractError
from .missingness import substream, _KEY_TRIAL


@dataclass(frozen=True)
class FwlQuery:
    """A dataset-level query with per-feature Lipschitz constants.

    ``batch(values, na)`` evaluates a stack of M masked datasets at once (see
    ``evaluate_batch``) and is the query's one evaluator; calling the query on
    one dataset evaluates it as a stack of one. ``norm_p`` is the norm the
    inequality is declared for; a query valid under the l1 norm is
    automatically valid under l2 with the same constants.
    """

    batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constants_L: np.ndarray
    norm_p: int
    output_dim: int
    n: int
    d: int
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        L = np.asarray(self.constants_L, dtype=float)
        L.setflags(write=False)
        object.__setattr__(self, "constants_L", L)
        if L.ndim != 1 or len(L) != self.d:
            raise DimensionError("constants_L must be a length-d vector")
        if not np.all(L >= 0):  # a NaN constant is refused too
            raise ValueError("Lipschitz constants must be nonnegative")
        if self.norm_p not in (1, 2):
            raise ValueError("norm_p must be 1 or 2")
        if self.output_dim < 1 or self.n < 1 or self.d < 1:
            raise DimensionError("output_dim, n and d must be positive")

    def __call__(self, data: IncompleteDataset) -> np.ndarray:
        if data.n != self.n or data.d != self.d:
            raise DimensionError(
                f"query expects {self.n}x{self.d} data, got {data.n}x{data.d}"
            )
        return self.evaluate_batch(data.values_filled[None], data.na_mask[None])[0]

    def evaluate_batch(self, values: np.ndarray, na: np.ndarray) -> np.ndarray:
        """The query on M masked datasets at once, as an (M, output_dim) array.

        ``values`` (M, n, d) holds the cells with NA filled by 0.0 and ``na``
        (M, n, d) is True where a cell is NA, the layout of ``values_filled``
        and ``na_mask``. Row m equals the query on dataset m bit for bit.
        """
        values = np.asarray(values, dtype=float)
        na = np.asarray(na, dtype=bool)
        if values.shape[1:] != (self.n, self.d) or na.shape != values.shape:
            raise DimensionError(
                f"query expects (M, {self.n}, {self.d}) values and NA flags, got "
                f"{values.shape} and {na.shape}"
            )
        out = np.asarray(self.batch(values, na), dtype=float)
        if out.shape != (len(values), self.output_dim):
            raise DimensionError(
                f"batch evaluator returned shape {out.shape}, expected "
                f"({len(values)}, {self.output_dim})"
            )
        return out


@dataclass(frozen=True)
class SensitivityBounds:
    """Complete-data and masked-data sensitivity constants for one query."""

    C_p: float
    C_tilde_p: float
    rho: float
    B: float

    def __post_init__(self):
        if not (0.0 <= self.C_tilde_p <= self.C_p + 1e-15):
            raise ValueError("masked constant must satisfy 0 <= C_tilde <= C")

    @property
    def ratio(self) -> float:
        if self.C_p == 0.0:
            return 1.0
        return self.C_tilde_p / self.C_p


def _norm(v: np.ndarray, p: int) -> np.ndarray:
    """The l_p norm of ``v`` along its last axis."""
    return np.abs(v).sum(axis=-1) if p == 1 else np.sqrt((v * v).sum(axis=-1))


# --- standard catalog -------------------------------------------------------
#
# Each catalog query is written once, over a stack of M masked datasets. Every
# operation acts on each dataset's slice alone, so row m of the result does not
# depend on the rest of the stack (tests/test_queries.py checks this bit for bit).


def _linear_query(matrices: Sequence[np.ndarray], n: int, d: int) -> FwlQuery:
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if len(mats) == 1 and n > 1:
        mats = mats * n
    if len(mats) != n:
        raise DimensionError("matrices: need one matrix per row (or one shared)")
    k = mats[0].shape[0]
    for m in mats:
        if m.shape != (k, d):
            raise DimensionError(f"matrices: must all be k x {d}, got {m.shape}")
    stacked = np.stack(mats)  # (n, k, d)
    L = np.abs(stacked).sum(axis=1).max(axis=0)  # max_i ||B_i e_j||_1

    def batch(values, na):
        return np.einsum("ikd,mid->mk", stacked, values)

    return FwlQuery(batch, L, 1, k, n, d, {"kind": "linear"})


def _bounded_mean_query(n: int, d: int) -> FwlQuery:
    def batch(values, na):
        return values.sum(axis=-2) / n

    L = np.full(d, 1.0 / n)
    return FwlQuery(batch, L, 1, d, n, d, {"kind": "bounded_mean"})


def _clipped_mean_query(n: int, d: int, clip: float) -> FwlQuery:
    if not clip > 0:
        raise ValueError(f"clip: must be positive, got {clip!r}")

    def batch(values, na):
        vals = np.where(na, 0.0, np.clip(values, -clip, clip))
        return vals.sum(axis=-2) / n

    L = np.full(d, 1.0 / n)
    return FwlQuery(batch, L, 1, d, n, d, {"kind": "clipped_mean", "clip": clip})


def _covariance_query(n: int, d: int, B: float) -> FwlQuery:
    if not B > 0:
        raise ValueError(f"B: must be positive, got {B!r}")

    def batch(values, na):
        return (np.swapaxes(values, -1, -2) @ values / n).reshape(len(values), d * d)

    L = np.full(d, 2.0 * B * d / n)
    return FwlQuery(batch, L, 1, d * d, n, d, {"kind": "covariance", "B": B})


def _mean_projection_query(n: int, d: int, projection: np.ndarray) -> FwlQuery:
    P = np.asarray(projection, dtype=float)
    if P.ndim != 2 or P.shape[1] != d:
        raise DimensionError(f"projection: must be k x {d}, got shape {P.shape}")

    def batch(values, na):
        return (P @ (values.sum(axis=-2) / n)[..., None])[..., 0]

    L = np.sqrt((P * P).sum(axis=0)) / n  # ||P e_j||_2 / n
    return FwlQuery(batch, L, 2, P.shape[0], n, d, {"kind": "mean_projection"})


def _histogram_query(
    n: int,
    d: int,
    lo: float,
    hi: float,
    bins: int,
    features: Optional[Sequence[int]] = None,
) -> FwlQuery:
    """Per-feature marginals with triangular (hat) bin memberships.

    Hard one-hot binning is not feature-wise Lipschitz with any finite
    constant: two values straddling a bin edge move a full 2/n of mass while
    their gap is arbitrarily small. Hat memberships with unit overlap change
    at rate 1/width per bin and at most two bins are active, so the constants
    2 / (n * width) hold exactly. An NA cell is a member of no bin.
    """
    if not hi > lo:
        raise ValueError(f"hi: must exceed lo = {lo!r}, got {hi!r}")
    if bins < 1:
        raise ValueError(f"bins: must be at least 1, got {bins!r}")
    feats = tuple(range(d)) if features is None else tuple(sorted(set(features)))
    if any(j < 0 or j >= d for j in feats):
        raise ValueError(f"features: indices must lie in [0, {d}), got {list(feats)!r}")
    width = (hi - lo) / bins
    centers = lo + width * (np.arange(bins) + 0.5)
    cols = list(feats)

    def batch(values, na):
        vals = values[..., cols, None]  # (M, n, features, 1)
        member = np.clip(1.0 - np.abs(vals - centers) / width, 0.0, None)
        member = np.where(na[..., cols, None], 0.0, member)
        return (member.sum(axis=-3) / n).reshape(len(values), len(feats) * bins)

    L = np.zeros(d)
    for j in feats:
        L[j] = 2.0 / (n * width)
    return FwlQuery(
        batch, L, 1, len(feats) * bins, n, d,
        {"kind": "histogram", "bins": bins, "lo": lo, "hi": hi},
    )


_CONSTRUCTORS = {
    "histogram": _histogram_query,
    "linear": _linear_query,
    "bounded_mean": _bounded_mean_query,
    "clipped_mean": _clipped_mean_query,
    "covariance": _covariance_query,
    "mean_projection": _mean_projection_query,
}
QUERY_KINDS = tuple(_CONSTRUCTORS)


def make_standard_query(kind: str, **params) -> FwlQuery:
    """Build a catalog query; the constants match the closed-form formulas.

    Kinds: histogram, linear, bounded_mean, clipped_mean, covariance,
    mean_projection. See the individual builders for kind-specific params.
    A parameter out of range raises a ValueError "<param>: <rule>".
    """
    if kind not in _CONSTRUCTORS:
        raise ValueError(f"kind: unknown query kind {kind!r}")
    for name in ("n", "d"):
        if params.get(name, 1) < 1:
            raise DimensionError(f"{name}: must be at least 1, got {params[name]!r}")
    return _CONSTRUCTORS[kind](**params)


# --- closure combinators -----------------------------------------------------


def _composed(q: FwlQuery, mapping, Lambda: float, k: int) -> FwlQuery:
    """``q`` followed by ``mapping``, a Lambda-Lipschitz map of each output row
    onto k coordinates, applied once to the whole stack of outputs."""

    def batch(values, na):
        return mapping(q.batch(values, na))

    return FwlQuery(batch, Lambda * q.constants_L, q.norm_p, k, q.n, q.d,
                    {"kind": "postprocess", "lambda": Lambda, "inner": q.descriptor})


def lipschitz_postprocess(
    q: FwlQuery, mapping: Callable[[np.ndarray], np.ndarray], Lambda: float
) -> FwlQuery:
    """Compose a caller's Lambda-Lipschitz map after a query; constants scale by Lambda.

    ``mapping`` must act on each row of an (M, k) stack, as ``v.sum(axis=-1,
    keepdims=True)`` does: one that does not send 64 random points stacked as
    rows to their own images, bit for bit, is refused with a ValueError. The
    claimed constant is spot-checked on 32 pairs of those points, and a
    violation raises LipschitzContractError rather than yielding invalid constants.
    """
    if not Lambda >= 0:
        raise ValueError(f"Lambda: must be nonnegative, got {Lambda!r}")
    # rows 2t and 2t + 1 are the t-th spot-check pair
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (64, q.output_dim))
    images = np.asarray(mapping(points), dtype=float)
    rows = np.array([np.asarray(mapping(x), dtype=float) for x in points])
    if images.ndim != 2 or images.shape != rows.shape or images.tobytes() != rows.tobytes():
        raise ValueError(f"mapping: must map each row of an (M, {q.output_dim}) stack to "
                         "that row's image, as v.sum(axis=-1, keepdims=True) does")
    lhs = _norm(images[0::2] - images[1::2], q.norm_p)
    rhs = Lambda * _norm(points[0::2] - points[1::2], q.norm_p)
    bad = lhs > rhs + 1e-9 * np.maximum(1.0, rhs)
    if bad.any():
        t = int(np.argmax(bad))
        raise LipschitzContractError(f"map moved points by {lhs[t]:.6g} > Lambda * input "
                                     f"distance {rhs[t]:.6g}")
    return _composed(q, mapping, Lambda, images.shape[1])


POST_MAPS = ("identity", "scale", "project", "clamp", "sum")


def named_postprocess(q: FwlQuery, name: str, **params) -> FwlQuery:
    """``q`` followed by a named map, composed with the map's proven Lipschitz
    constant: ``identity`` (1), ``scale`` by ``factor`` (|factor|),
    ``project`` onto distinct output ``indices`` (1), ``clamp`` to [``lo``, ``hi``]
    (1) or ``sum`` (1 under l1, sqrt(k) under l2 for k outputs). Each acts on
    the last axis, so the composed query evaluates stacks of datasets at
    once; no map runs when the query is built."""
    mapping, lam, k = (lambda v: v), 1.0, q.output_dim
    if name == "scale":
        factor = params["factor"]
        mapping, lam = (lambda v: factor * v), abs(factor)
    elif name == "project":
        idx = list(params["indices"])
        if not all(0 <= i < k for i in idx):
            raise ValueError(f"indices: must lie in [0, {k}), got {idx}")
        if len(set(idx)) != len(idx):  # a repeated coordinate would raise the constant
            raise ValueError(f"indices: must be distinct, got {idx}")
        mapping, k = (lambda v: v[..., idx]), len(idx)
    elif name == "clamp":
        lo, hi = params["lo"], params["hi"]
        mapping = lambda v: np.clip(v, lo, hi)  # noqa: E731
    elif name == "sum":
        lam = 1.0 if q.norm_p == 1 else math.sqrt(k)
        mapping, k = (lambda v: v.sum(axis=-1, keepdims=True)), 1
    elif name != "identity":
        raise ValueError(f"name: unknown post-processing map {name!r}")
    return _composed(q, mapping, lam, k)


def linear_combination(queries: Sequence[FwlQuery], coeffs: Sequence[float]) -> FwlQuery:
    """Weighted sum of queries; constants add with absolute coefficients."""
    if len(queries) != len(coeffs) or not queries:
        raise DimensionError("need one coefficient per query")
    q0 = queries[0]
    for q in queries:
        if (q.output_dim, q.norm_p, q.n, q.d) != (q0.output_dim, q0.norm_p, q0.n, q0.d):
            raise DimensionError("queries must share output dim, norm, n and d")
    coeffs = [float(a) for a in coeffs]
    L = sum(abs(a) * q.constants_L for a, q in zip(coeffs, queries))

    def batch(values, na):
        return sum(a * q.batch(values, na) for a, q in zip(coeffs, queries))

    return FwlQuery(batch, L, q0.norm_p, q0.output_dim, q0.n, q0.d,
                    {"kind": "linear_combination", "coeffs": coeffs})


# --- sensitivity bounds ------------------------------------------------------


def sensitivity_complete(q: FwlQuery, B: float) -> float:
    """Complete-data sensitivity constant: 2B times the sum of all constants."""
    if B < 0:
        raise ValueError("B must be nonnegative")
    return 2.0 * B * float(np.sum(q.constants_L))


def sensitivity_masked(q: FwlQuery, B: float, rho: float) -> SensitivityBounds:
    """Masked-data constant: 2B times the sum of the floor(rho*d) largest L.

    Only features a mask can observe contribute to the gap, so the worst case
    keeps the largest constants. The sort is stable on the original index;
    floor(rho*d) = 0 gives a zero constant (everything is always missing).
    """
    if B < 0:
        raise ValueError("B must be nonnegative")
    if not 0 <= rho <= 1:
        raise ValueError(f"rho: must lie in [0, 1], got {rho!r}")
    keep = math.floor(rho * q.d)
    order = np.argsort(-q.constants_L, kind="stable")
    c_tilde = 2.0 * B * float(np.sum(q.constants_L[order[:keep]]))
    return SensitivityBounds(
        C_p=sensitivity_complete(q, B), C_tilde_p=c_tilde, rho=rho, B=B
    )


# --- empirical check ---------------------------------------------------------


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
