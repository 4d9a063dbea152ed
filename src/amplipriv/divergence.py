"""Hockey-stick divergence computation: exact up to float error on
one-dimensional mixtures, a certified interval for Laplace pairs of any
dimension, Monte Carlo everywhere else.

``VectorMixture`` is the one mixture type: weights over (m, k) centres with
one noise family and scale from the table in ``noise``, a 1-D law being the
case k = 1. The quadrature takes two mixtures of dimension 1; the one Monte
Carlo estimator, ``mc_delta_vector``, takes two of any equal dimension. An
audit compares the output laws of one calibrated mechanism on two datasets,
so P and Q share one family and one scale, and both estimators refuse a pair
that does not.

Log-densities come from one kernel that evaluates one or more mixtures of one
family and scale at the same points. It walks the points in blocks and,
within a block, the k coordinates in order: per coordinate, one penalty table
holds the distinct centres of all the mixtures, so P and Q, which share most
centres and have few distinct values per coordinate, fill it once (an
audit-sized Monte Carlo pair has 64 components each but at most 6 centres per
coordinate). Each mixture gathers its rows from the tables, sums them in
coordinate order and takes its log-sum-exp; the result is bit-identical to
evaluating each mixture alone. The Monte Carlo estimator and the 1-D
quadrature evaluate P and Q through one such joint kernel per call; a single
mixture's ``log_density`` uses a kernel over itself, built once and cached.

The Monte Carlo path works in place: the unit draw, scaled, becomes the
sample, and the kernel's log q row becomes the statistic. It holds
8 (k + 2) bytes per sample of dimension k, the sample and then the two
log-density rows beside it, plus the kernel's block buffers: about
8 (k + 3) bytes per sample at an audit's 50,000.

The divergence at level e^eps is sup_S (P(S) - e^eps Q(S)); the optimal S is
the set where the signed density p - e^eps q is positive, so it is the
positive-part integral of that density. For 1-D Laplace/Gaussian mixtures the
integral is a sum of component CDF and survival function differences between
the sign changes of p - e^eps q, so the only
approximation is where those roots sit; the reported ``tolerance`` bounds the
mass that root error can move plus the float error of the sums. The roots
come from the family. A 1-D Laplace pair at one scale b has at most one
root between adjacent centres, where p - e^eps q = A e^(x/b) + B e^(-x/b),
placed in closed form from two running sums over the centres, whose float
error the tolerance carries. A Gaussian pair's roots are bracketed on a
certified sign grid and bisected.

When P and Q are Laplace at one scale b, of any dimension k, Monte Carlo
can certify the divergence 0 without a draw. In each box between adjacent
centre values of every coordinate, p and q times one positive factor are
multilinear in the e^(2 x_j / b) with nonnegative coefficients, so p/q is
monotone in each coordinate; past a coordinate's outer centre value it does
not depend on that coordinate. So sup log p/q lies on the lattice of centre
coordinates, which one kernel call reads. Where that sup, less eps and plus
its float error, is negative, Monte Carlo returns the estimate and interval
of an all-zero statistic, the interval its draw would give. The quadrature's
Laplace sweep needs no certificate: it settles every sign from the centres.

The same monotonicity bounds p/q on any box inside one lattice box by its
values at the box's corners. So a Laplace pair with delta > 0 gets, in place
of the draw, a certified interval from such boxes (``_box_interval``) when
the boxes' corners it needs to be as narrow as the draw are no more than
the points the draw would take. The lattice boxes' corners are lattice
points, so the certificate's one kernel call on the lattice gives them too;
only the boxes that halving makes are read by further calls. Gaussian
pairs, and other Laplace pairs, take the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, SupportError
from .missingness import substream, _KEY_MC
from .noise import FAMILIES, LAPLACE, check_exponentiable
from .roots import _EPS, gaussian_signs, laplace_signs

_NORM_TOL = 1e-12
_MC_ALPHA = 0.01  # Monte Carlo intervals are two-sided at 99%
MC_MIN_SAMPLES = 1000  # fewer and the interval is too wide to mean anything
# the estimator holds 8 (k + 2) bytes per sample of dimension k, at most 24 per sample
# coordinate (k = 1), so this many sample coordinates need at most 1.5 GiB
MC_MAX_COORDINATES = 1 << 26

METHOD_QUADRATURE = "quadrature"
METHOD_MC = "monte_carlo"
METHOD_INTERVAL = "interval"

# points per (points x components) buffer, to bound memory; it also groups the
# quadrature's fsum blocks, so changing it moves the last bits of exact reports
_BLOCK = 256


@dataclass(frozen=True, eq=False)  # ndarray fields: compared and hashed by identity
class VectorMixture:
    """A finite mixture of product noise, the package's one mixture type:
    component i adds i.i.d. noise of one family and scale to every coordinate
    of its centre, row i of ``centers`` (m, k). A 1-D law is the case k = 1.

    When built it holds the kernel's columns: ``log_weights``, ``math.log``
    of each positive weight in index order; ``log_coef``, those less
    k log_norm(scale); and ``kernel_centers``, per coordinate one contiguous
    row of those components' centres.
    """

    weights: np.ndarray
    centers: np.ndarray
    family: str
    scale: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        centers = np.asarray(self.centers, dtype=float)
        if weights.ndim != 1:
            raise ValueError("mixture weights must be a vector")
        if not all(w >= 0 for w in weights.tolist()):  # False for NaN too
            raise ValueError("mixture weights must be nonnegative")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        if centers.ndim != 2 or len(centers) != len(weights):
            raise ValueError(
                f"centers must be (m, k) with m = {len(weights)} components, "
                f"got shape {centers.shape}"
            )
        if not np.isfinite(centers).all():
            raise ValueError("centers must be finite")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown mixture family '{self.family}'")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "centers", centers)
        cols = np.flatnonzero(weights > 0.0).tolist()
        object.__setattr__(self, "log_weights", np.array([math.log(weights[i]) for i in cols]))
        object.__setattr__(self, "kernel_centers", tuple(np.ascontiguousarray(centers[cols].T)))
        self._set_scale(self.scale)

    def _set_scale(self, scale: float) -> None:
        scale = float(scale)
        if not 0 < scale < math.inf:
            raise ValueError("continuous components need a finite positive scale")
        norm = self.centers.shape[1] * FAMILIES[self.family].log_norm(scale)
        vars(self).update(scale=scale, log_coef=self.log_weights - norm)

    def rescaled(self, scale: float) -> VectorMixture:
        """This law at noise ``scale``: only ``scale`` and ``log_coef`` differ."""
        out = object.__new__(VectorMixture)
        shared = ("weights", "centers", "family", "log_weights", "kernel_centers")
        vars(out).update((name, vars(self)[name]) for name in shared)
        out._set_scale(scale)
        return out

    @property
    def components(self) -> tuple:
        """(weight, family, centre, scale) per component, the centre a float
        at k = 1 and a tuple otherwise. The benchmark's checks and tracing in
        ``bench/`` read this view."""
        if self.centers.shape[1] == 1:
            centres = self.centers[:, 0].tolist()
        else:
            centres = list(map(tuple, self.centers.tolist()))
        return tuple(
            (w, self.family, c, self.scale) for w, c in zip(self.weights.tolist(), centres)
        )

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel((self,))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Log-density at the rows of ``x`` (n, k): finite far into the tails
        where the plain density underflows."""
        return self._kernel(x)[0]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws (size, k): a choice over the components, then one
        unit draw of the family, read from ``rng`` in that order. The draw is
        scaled in place and the chosen centres are added one coordinate at a
        time, so the Monte Carlo path holds about 8 (k + 3) bytes per sample."""
        idx = rng.choice(len(self.weights), size=size, p=self.weights)
        out = FAMILIES[self.family].draw(rng, (size, self.centers.shape[1]))
        out *= self.scale
        for j, column in enumerate(self.centers.T):  # centre + noise, one coordinate at a time
            out[:, j] += column[idx]
        return out


class _Kernel:
    """Log-densities of one or more mixtures of one dimension k, one family
    and one scale at the same points, from one penalty table per block and
    coordinate over their distinct centres: x - c, then / scale, then the
    family penalty, one row per centre. Values are bit-identical to
    evaluating each mixture alone: equal centres (-0.0 and 0.0 too) give
    equal penalties, and each mixture sums its gathered rows in coordinate
    order and its components along contiguous (points x components) rows.
    """

    def __init__(self, mixtures: Sequence[VectorMixture]):
        first = mixtures[0]
        for m in mixtures[1:]:
            if (m.family, m.scale) != (first.family, first.scale):
                raise ValueError(
                    "mixtures must share one noise family and scale, got "
                    f"{first.family} at scale {first.scale!r} and {m.family} at scale {m.scale!r}"
                )
        self.scale, self.penalty = first.scale, FAMILIES[first.family].penalty
        self.tables, gathers = [], []
        for j in range(first.centers.shape[1]):
            keys = [m.kernel_centers[j].tolist() for m in mixtures]
            cols = sorted(set().union(*keys))
            row = {c: u for u, c in enumerate(cols)}
            self.tables.append(np.array(cols).reshape(-1, 1))
            gathers.append([np.array([row[c] for c in ks], dtype=np.intp) for ks in keys])
        # per mixture, its coefficients and its rows of each coordinate's table
        self.mixtures = [
            (m.log_coef[:, None], rows) for m, rows in zip(mixtures, zip(*gathers))
        ]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Each mixture's log-density at the rows of ``x`` (n, k), one row each."""
        out = np.empty((len(self.mixtures), len(x)))
        for i in range(0, len(x), _BLOCK):
            xb = x[i : i + _BLOCK]
            tables = []
            for j, centers in enumerate(self.tables):
                t = np.subtract(xb[:, j], centers)
                t /= self.scale
                tables.append(self.penalty(t))
            for r, (log_coef, rows) in enumerate(self.mixtures):
                pen = tables[0].take(rows[0], axis=0, mode="clip")
                buf = None
                for t, idx in zip(tables[1:], rows[1:]):
                    buf = t.take(idx, axis=0, out=buf, mode="clip")
                    pen += buf
                np.subtract(log_coef, pen, out=pen)
                peak = pen.max(axis=0)
                pen -= peak
                np.exp(pen, out=pen)
                # summed along C-contiguous (points x components) rows: numpy's
                # pairwise row sums, which an F-ordered view would not reproduce
                total = np.ascontiguousarray(pen.T).sum(axis=1)
                np.add(peak, np.log(total), out=out[r, i : i + _BLOCK])
        return out


@dataclass(frozen=True)
class DivergenceEstimate:
    value: float
    method: str
    tolerance: Optional[float] = None
    ci: Optional[tuple] = None

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1.0 + 1e-9:
            raise ValueError("a hockey-stick divergence lies in [0, 1]")
        if self.method in (METHOD_MC, METHOD_INTERVAL) and self.ci is None:
            raise ValueError("Monte Carlo and interval estimates must carry an interval")
        if self.method == METHOD_QUADRATURE and self.tolerance is None:
            raise ValueError("quadrature estimates must carry a tolerance bound")


# --- the centre lattice: where log p/q peaks for Laplace at one scale ---------

# a unit Laplace draw is -log(2(1 - u)) or log(2u) with u clipped to [1e-300, 1 - 1e-16],
# so it lies within -log(2e-300) < 691 of 0
_DRAW_REACH = 691.0


def _centre_lattice(
    P: VectorMixture, Q: VectorMixture, kernel: _Kernel, n_samples: float,
) -> Optional[tuple]:
    """(axes, log_p, log_q), or None unless P and Q are Laplace and the
    lattice of centre coordinates has at most ``n_samples`` points: each
    coordinate's distinct centre values over P and Q, and their joint
    ``kernel`` on that lattice, flat in "ij" order (the last coordinate
    fastest). The certificate and the box interval both read these values."""
    if P.family != LAPLACE:
        return None
    k = P.centers.shape[1]
    axes = [sorted(set(P.centers[:, j].tolist() + Q.centers[:, j].tolist())) for j in range(k)]
    if math.prod(map(len, axes)) > n_samples:
        return None
    log_p, log_q = kernel(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k))
    return axes, log_p, log_q


def _lattice_sup(
    P: VectorMixture, Q: VectorMixture, epsilon: float, axes: list, log_p: np.ndarray,
    log_q: np.ndarray,
) -> tuple:
    """(top, err) from the centre lattice of P and Q (``_centre_lattice``).

    top is the lattice maximum of g = log p - log q - eps, which is sup g over
    R^k (see the module docstring). err bounds top's float error plus twice
    the kernel's error bound anywhere a draw can reach, ``_DRAW_REACH`` scales
    from the lattice, so top + err < 0 means the divergence is 0 and g, as
    computed at every draw, lies below minus its own error bound.
    """
    log_coef = max(float(np.abs(M.log_coef).max()) for M in (P, Q))
    logs = 1.0 + epsilon + log_coef
    # within that reach, log p <= log_coef + log m, and log p >= -log_coef less a penalty
    # of at most sum_j (span_j / b + _DRAW_REACH); so is log q
    far = (1.0 + log_coef + math.log(max(P.log_coef.size, Q.log_coef.size))
           + sum((a[-1] - a[0]) / P.scale + _DRAW_REACH for a in axes))
    top = float((log_p - (epsilon + log_q)).max())
    at_lattice = logs + float((np.abs(log_p) + np.abs(log_q)).max())
    return top, 2.0 ** -40 * (at_lattice + 2.0 * (logs + 2.0 * far))


def hockey_stick_mixture_1d(
    P: VectorMixture, Q: VectorMixture, epsilon: float, tol: float = 1e-9
) -> DivergenceEstimate:
    """Positive-part integral between two mixtures of output dimension 1 and
    one family and scale.

    The signs of h = p - e^eps q come from the family. For Laplace, a
    closed-form sweep over the centres (``roots.laplace_signs``) places every root
    of h without evaluating a density. For Gaussian, the sign of
    g = log p - eps - log q is read on one grid through every component
    centre, spacing 1/8 of the scale, spanning 40 scales beyond the outer
    centres, and its sign changes are bisected (``roots.gaussian_signs``). Over
    each interval between adjacent roots where h > 0, including the two
    unbounded end intervals, the integral is exact: sum_i w_i mass_i -
    e^eps sum_j v_j mass_j from each mixture's component CDFs and survival
    functions, one ``math.fsum`` per block of intervals.

    ``tolerance`` is the sign finder's bound on the mass its roots and signs
    can misplace, plus 8 ulp of (1 + e^eps) per interval for the CDF sums.
    The result does not depend on ``tol``, which is validated only.
    """
    if not tol > 0:
        raise ValueError(f"tol: must be positive, got {tol!r}")
    check_exponentiable(epsilon)
    for name, M in (("P", P), ("Q", Q)):
        if M.centers.shape[1] != 1:
            raise DimensionError(
                f"{name} has output dimension {M.centers.shape[1]}; the quadrature "
                "needs 1, use Monte Carlo for vector outputs"
            )
    alpha = math.exp(epsilon)
    if P.family == Q.family == LAPLACE and P.scale == Q.scale:
        edges, keep, root_err, lost = laplace_signs(P, Q, alpha)
    else:  # the kernel refuses two families or scales
        edges, keep, root_err, lost = gaussian_signs(P, Q, epsilon, alpha, _Kernel((P, Q)))

    # interval k runs from edge k to edge k + 1; ``keep`` lists those where h > 0
    signed = ((P, P.weights), (Q, -alpha * Q.weights))
    sums = []
    for i in range(0, keep.size, _BLOCK):
        blk = keep[i : i + _BLOCK]
        terms = []  # one exactly rounded sum per block over both mixtures
        for M, signed_weight in signed:
            za = (edges[blk, None] - M.centers[:, 0]) / M.scale
            zb = (edges[blk + 1, None] - M.centers[:, 0]) / M.scale
            tail = FAMILIES[M.family].tail
            ta, tb = tail(np.abs(za)), tail(np.abs(zb))
            mass = np.where(za >= 0, ta - tb, np.where(zb <= 0, tb - ta, 1.0 - ta - tb))
            terms += (mass * signed_weight).ravel().tolist()
        sums.append(math.fsum(terms))
    sum_err = 8.0 * _EPS * (1.0 + alpha) * (edges.size - 1)
    return DivergenceEstimate(
        value=float(min(max(math.fsum(sums), 0.0), 1.0)),
        method=METHOD_QUADRATURE,
        tolerance=root_err + sum_err + lost,
    )


# --- the box interval: delta between bounds from the lattice boxes -----------


def _bernstein_half(var: float, n_samples: int, log_term: float) -> float:
    """The empirical-Bernstein half-width of a [0, 1] statistic of variance
    ``var`` at ``n_samples`` draws, ``log_term`` being ln(4 / alpha)."""
    return math.sqrt(2.0 * var * log_term / n_samples) + 7.0 * log_term / (3.0 * (n_samples - 1))


def _box_mass(M: VectorMixture, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """M's mass in each box [lo, hi] (boxes x k): per coordinate one Laplace
    CDF or survival difference per component, multiplied over coordinates,
    then weighted and summed over components."""
    mass, tail = None, FAMILIES[LAPLACE].tail
    for j, centres in enumerate(M.centers.T):
        za, zb = ((edge[:, j, None] - centres) / M.scale for edge in (lo, hi))
        ta, tb = tail(np.abs(za)), tail(np.abs(zb))
        m = np.where(za >= 0.0, ta - tb, np.where(zb <= 0.0, tb - ta, 1.0 - ta - tb))
        mass = m if mass is None else mass * m
    return (mass * M.weights).sum(axis=1)


def _box_interval(
    P: VectorMixture, Q: VectorMixture, epsilon: float, n_samples: int, log_term: float,
    kernel: _Kernel, axes: list, log_p: np.ndarray, log_q: np.ndarray,
) -> Optional[tuple]:
    """(lower, upper) around the divergence of a one-scale Laplace pair, from
    boxes that each lie in one box of the centre lattice; None when the
    corners of those lattice boxes number more than ``n_samples``, or when
    splitting would read more corners than that before the interval is as
    narrow as the draw's. ``kernel``, ``axes``, ``log_p`` and ``log_q`` are
    the pair's joint kernel and its centre lattice (``_centre_lattice``).

    A coordinate where every centre of P and Q takes one value scales p and q
    by one factor, so the pair's divergence is that of its marginals on the
    other k' coordinates, which alone are boxed; when there are such
    coordinates, the kernel of those marginals reads their lattice once. Per
    coordinate the cells run between adjacent centre values, the first and
    last reaching on to -inf and +inf, where p/q no longer depends on that
    coordinate. p/q is monotone in each coordinate on a cell, so on a box it
    lies between r_min and r_max, the extremes over the box's 2^k' corners:
    gathered from the lattice values by flat index for the lattice boxes, and
    read from one kernel call per block of boxes for the boxes that splitting
    makes. The box adds at least
    max(P - e^eps Q, P (1 - e^eps / r_min), 0) and at most the smaller of
    P (1 - e^eps / r_max)_+ and P - e^eps Q min(r_min / e^eps, 1), with P and
    Q its masses. Each corner's log p - log q carries the kernel's error bound
    2^-40 (1 + eps + max |log coef| + |log p| + |log q|), and each box's
    bounds an ulp bound on its masses' products and sums; the interval is
    widened by them and clipped to [0, 1].

    Each round halves the boxes of widest gap, along the coordinates where
    their corner values differ, until the half-width is at most the
    empirical-Bernstein half-width of a statistic of variance at most
    ``upper`` at ``n_samples`` draws. If the corners of its boxes, the lattice
    boxes' counted in full, would pass ``n_samples`` first, it gives up: the
    boxes never number more, and the kernel reads no more points than the
    draw.
    """
    active = [j for j, a in enumerate(axes) if len(a) > 1]
    if not active:  # P and Q are one law
        return 0.0, 0.0
    k = len(active)
    if math.prod(len(axes[j]) - 1 for j in active) << k > n_samples:  # the lattice boxes' corners
        return None
    if k < len(axes):  # the marginals on the active coordinates, and their lattice
        P, Q = (VectorMixture(M.weights, M.centers[:, active], M.family, M.scale) for M in (P, Q))
        kernel = _Kernel((P, Q))
        axes, log_p, log_q = _centre_lattice(P, Q, kernel, math.inf)
    alpha = math.exp(epsilon)
    index = np.indices([len(a) - 1 for a in axes]).reshape(k, -1)
    lo, hi = (np.stack([np.array(a)[i + side] for a, i in zip(axes, index)], axis=1)
              for side in (0, 1))
    first, last = np.array([a[0] for a in axes]), np.array([a[-1] for a in axes])
    corners = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(bool)  # (2^k, k)
    logs = 1.0 + epsilon + max(float(np.abs(M.log_coef).max()) for M in (P, Q))
    # a k-term product of masses, each within 4 ulp, and an m-term weighted sum, per box
    box_err = (1.0 + alpha) * (5 * k + max(P.log_coef.size, Q.log_coef.size) + 8) * _EPS
    block = max(1, (8 * _BLOCK) >> k)  # boxes whose corners one kernel call reads

    shape = [len(a) for a in axes]

    # per box: its lower and upper bound, and the coordinates to split; the lattice
    # boxes' corners are lattice points, so their values are gathered by flat index
    def bounds(lo, hi, lattice=False):
        low, up = np.empty(len(lo)), np.empty(len(lo))
        split = np.empty(lo.shape, dtype=bool)
        for i in range(0, len(lo), block):
            l, h = lo[i : i + block], hi[i : i + block]
            if lattice:
                at = np.ravel_multi_index(index[:, i : i + block, None] + corners.T[:, None], shape)
                lp, lq = log_p[at.ravel()], log_q[at.ravel()]
            else:
                lp, lq = kernel(np.where(corners, h[:, None], l[:, None]).reshape(-1, k))
            g = (lp - lq).reshape(len(l), -1)
            err = (2.0 ** -40 * (logs + np.abs(lp) + np.abs(lq))).reshape(len(l), -1)
            for j in range(k):  # corners without bit j against their partners with it
                a = np.flatnonzero(~corners[:, j])
                b = a + (1 << j)
                differ = np.abs(g[:, b] - g[:, a]) > err[:, a] + err[:, b]
                split[i : i + block, j] = differ.any(axis=1)
            mid = 0.5 * (l + h)
            split[i : i + block] &= (l < mid) & (mid < h)
            # past the lattice's outer values a box reaches on to infinity
            edges = (np.where(l == first, -np.inf, l), np.where(h == last, np.inf, h))
            p_mass, q_mass = (_box_mass(M, *edges) for M in (P, Q))
            r_min, r_max = (g - err).min(axis=1), (g + err).max(axis=1)
            low[i : i + block] = np.maximum(np.maximum(
                p_mass - alpha * q_mass, p_mass * -np.expm1(np.minimum(epsilon - r_min, 0.0))), 0.0)
            up[i : i + block] = np.maximum(np.minimum(
                p_mass * -np.expm1(np.minimum(epsilon - r_max, 0.0)),
                p_mass - alpha * q_mass * np.exp(np.minimum(r_min - epsilon, 0.0))), 0.0)
        return low, up, split

    low, up, split = bounds(lo, hi, lattice=True)
    budget = n_samples - (len(lo) << k)  # corners the kernel may still read; the first round counts
    while True:
        err = len(lo) * box_err
        lower = max(math.fsum(low.tolist()) - err, 0.0)
        upper = min(math.fsum(up.tolist()) + err, 1.0)
        excess = (upper - lower) - 2.0 * _bernstein_half(upper, n_samples, log_term)
        gap = np.where(split.any(axis=1), np.maximum(up - low, 0.0), 0.0)
        if excess <= 0.0 or not gap.any():
            return lower, upper
        # the widest boxes whose gaps, halved, would close the excess, as many as the budget allows
        order = np.argsort(-gap, kind="stable")[: np.count_nonzero(gap)]
        order = order[: int(np.searchsorted(np.cumsum(gap[order]), 2.0 * excess)) + 1]
        born = np.cumsum(1 << split[order].sum(axis=1)) << k
        order = order[: int(np.searchsorted(born, budget, side="right"))]
        if not order.size:  # the draw meets the target at this many points
            return None
        # each child keeps one half of every split coordinate and all of the others
        l, h, s = lo[order, None], hi[order, None], split[order, None]
        mid = 0.5 * (l + h)
        keep = ~(corners & ~s).any(axis=2)  # (boxes, 2^k): halves only of split coordinates
        child_lo = np.where(corners & s, mid, l)[keep]
        child_hi = np.where(~corners & s, mid, h)[keep]
        rest = np.ones(len(lo), dtype=bool)
        rest[order] = False
        c_low, c_up, c_split = bounds(child_lo, child_hi)
        budget -= len(child_lo) << k
        lo, hi = np.concatenate((lo[rest], child_lo)), np.concatenate((hi[rest], child_hi))
        low, up = np.concatenate((low[rest], c_low)), np.concatenate((up[rest], c_up))
        split = np.concatenate((split[rest], c_split))


# --- Monte Carlo --------------------------------------------------------------


def check_samples(n_samples: int, k: int) -> None:
    """Refuse a Monte Carlo sample count too small for the interval to mean
    anything, or too large to hold at output dimension ``k``."""
    if n_samples < MC_MIN_SAMPLES:
        raise ValueError(f"n_samples: need at least {MC_MIN_SAMPLES}, got {n_samples!r}")
    if n_samples * k > MC_MAX_COORDINATES:
        raise ValueError(f"n_samples: at most {MC_MAX_COORDINATES // k} at output "
                         f"dimension {k}, got {n_samples!r}")


def mc_delta_vector(
    P: VectorMixture, Q: VectorMixture, epsilon: float, n_samples: int, seed: int
) -> DivergenceEstimate:
    """Estimate the divergence as E_P[(1 - e^eps q/p)_+] between two mixtures
    of one output dimension k, family and scale: samples from P's
    ``sample``, both log-densities from one joint kernel.

    The likelihood ratio is formed in log space, so a point where q underflows
    or vanishes counts in full. The statistic lies in [0, 1], and its 99%
    interval is empirical Bernstein (Maurer & Pontil, COLT 2009, Theorem 4)
    at level 0.005 on each side: valid at every sample size, also when the
    divergence is far below 1 / n_samples.

    A Laplace pair may draw nothing. Where the centre lattice certifies
    delta = 0, the result is that of an all-zero statistic. Where instead
    ``_box_interval`` gives an interval, that is the result, method
    "interval": ``ci`` holds the divergence for certain, ``value`` is its
    midpoint and ``tolerance`` its half-width.
    """
    k, k_q = P.centers.shape[1], Q.centers.shape[1]
    if k != k_q:
        raise DimensionError(f"P has output dimension {k} but Q has output dimension {k_q}")
    check_exponentiable(epsilon)
    check_samples(n_samples, k)
    kernel = _Kernel((P, Q))
    lattice = _centre_lattice(P, Q, kernel, n_samples)  # the one read of the lattice
    sup = None if lattice is None else _lattice_sup(P, Q, epsilon, *lattice)
    certified = sup is not None and sup[0] + sup[1] < 0.0  # every draw's statistic would be 0
    log_term = math.log(4.0 / _MC_ALPHA)
    interval = None
    if sup is not None and not certified:
        interval = _box_interval(P, Q, epsilon, n_samples, log_term, kernel, *lattice)
    if interval is not None:
        lower, upper = interval
        return DivergenceEstimate(value=0.5 * (lower + upper), method=METHOD_INTERVAL,
                                  tolerance=0.5 * (upper - lower), ci=interval)
    if certified:
        est = var = 0.0
    else:
        x = P.sample(substream(seed, _KEY_MC, 0), n_samples)
        log_p, stat = kernel(x)
        del x  # the statistic's temporaries need not sit beside the sample
        if not (math.isfinite(log_p.min()) and math.isfinite(log_p.max())):
            raise SupportError("P log-density was not finite at a sampled point")
        # (1 - e^(eps + log q - log p))_+ in place of log q
        np.add(epsilon, stat, out=stat)
        stat -= log_p
        with np.errstate(over="ignore"):
            np.exp(stat, out=stat)
        np.subtract(1.0, stat, out=stat)
        np.clip(stat, 0.0, None, out=stat)
        est, var = float(np.mean(stat)), float(np.var(stat, ddof=1))
    half = _bernstein_half(var, n_samples, log_term)
    return DivergenceEstimate(
        value=min(est, 1.0),
        method=METHOD_MC,
        ci=(max(est - half, 0.0), min(est + half, 1.0)),
    )
