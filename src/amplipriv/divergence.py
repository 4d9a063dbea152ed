"""Hockey-stick divergence computation: exact up to float error on
one-dimensional mixtures, Monte Carlo everywhere else.

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
mass that root error can move plus the float error of the sums.

When P and Q are Laplace at one scale b, of any dimension k, the divergence
is certified 0 without a grid or a draw. In each box between adjacent centre
values of every coordinate, p and q times one positive factor are
multilinear in the e^(2 x_j / b) with nonnegative coefficients, so p/q is
monotone in each coordinate; past a coordinate's outer centre value it does
not depend on that coordinate. So sup log p/q lies on the lattice of centre
coordinates, which one kernel call reads. Where that sup, less eps and plus
its float error, is negative, both estimators return what their grid or
draw would: the quadrature 0 with the tolerance of a rootless grid, Monte
Carlo the estimate and interval of an all-zero statistic. Reports keep
their bytes; a pair with delta > 0 or of the Gaussian family takes the grid
or the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, SupportError
from .missingness import substream, _KEY_MC
from .noise import FAMILIES, LAPLACE

_NORM_TOL = 1e-12
_MC_ALPHA = 0.01  # Monte Carlo intervals are two-sided at 99%
MC_MIN_SAMPLES = 1000  # fewer and the interval is too wide to mean anything
# the estimator holds 8 (k + 2) bytes per sample of dimension k, at most 24 per sample
# coordinate (k = 1), so this many sample coordinates need at most 1.5 GiB
MC_MAX_COORDINATES = 1 << 26

METHOD_QUADRATURE = "quadrature"
METHOD_MC = "monte_carlo"

# points per (points x components) buffer, to bound memory; it also groups the
# quadrature's fsum blocks, so changing it moves the last bits of exact reports
_BLOCK = 256


@dataclass(frozen=True, eq=False)  # ndarray fields: compared and hashed by identity
class VectorMixture:
    """A finite mixture of product noise, the package's one mixture type:
    component i adds i.i.d. noise of one family and scale to every coordinate
    of its centre, row i of ``centers`` (m, k). A 1-D law is the case k = 1.

    When built it holds the kernel's columns: ``log_coef``, log w_i -
    k log_norm(scale) for each positive-weight component in index order; and
    ``kernel_centers``, per coordinate one contiguous row of those
    components' centres.
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
        scale = float(self.scale)
        if not 0 < scale < math.inf:
            raise ValueError("continuous components need a finite positive scale")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "scale", scale)
        cols = np.flatnonzero(weights > 0.0).tolist()
        norm = centers.shape[1] * FAMILIES[self.family].log_norm(scale)
        object.__setattr__(self, "log_coef", np.array([math.log(weights[i]) - norm for i in cols]))
        object.__setattr__(self, "kernel_centers", tuple(np.ascontiguousarray(centers[cols].T)))

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
        if self.method == METHOD_MC and self.ci is None:
            raise ValueError("Monte Carlo estimates must carry a confidence interval")
        if self.method == METHOD_QUADRATURE and self.tolerance is None:
            raise ValueError("quadrature estimates must carry a tolerance bound")


# --- the centre lattice: where log p/q peaks for Laplace at one scale ---------

_TAIL_SCALES = 40.0
_EPS = float(np.finfo(float).eps)
# a unit Laplace draw is -log(2(1 - u)) or log(2u) with u clipped to [1e-300, 1 - 1e-16],
# so it lies within -log(2e-300) < 691 of 0
_DRAW_REACH = 691.0


def _lattice_sup(
    P: VectorMixture, Q: VectorMixture, kernel: _Kernel, epsilon: float, limit: float,
    reach: float,
) -> Optional[tuple]:
    """(top, err), or None unless P and Q are Laplace and the lattice of
    centre coordinates (each coordinate's distinct centre values over P and
    Q) has at most ``limit`` points. ``kernel`` is their joint one.

    top is the lattice maximum of g = log p - log q - eps, which is sup g over
    R^k (see the module docstring). err bounds top's float error plus twice
    the kernel's error bound at any point within ``reach`` scales of the
    lattice, so top + err < 0 means the divergence is 0 and g, as computed
    there, lies below minus its own error bound.
    """
    if P.family != LAPLACE:
        return None
    k = P.centers.shape[1]
    axes = [sorted(set(P.centers[:, j].tolist() + Q.centers[:, j].tolist())) for j in range(k)]
    if math.prod(map(len, axes)) > limit:
        return None
    log_p, log_q = kernel(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k))
    log_coef = max(float(np.abs(M.log_coef).max()) for M in (P, Q))
    logs = 1.0 + epsilon + log_coef
    # within reach, log p <= log_coef + log m, and log p >= -log_coef less a penalty of at
    # most sum_j (span_j / b + reach); so is log q
    far = (1.0 + log_coef + math.log(max(P.log_coef.size, Q.log_coef.size))
           + sum((a[-1] - a[0]) / P.scale + reach for a in axes))
    top = float((log_p - (epsilon + log_q)).max())
    at_lattice = logs + float((np.abs(log_p) + np.abs(log_q)).max())
    return top, 2.0 ** -40 * (at_lattice + 2.0 * (logs + 2.0 * far))


def hockey_stick_mixture_1d(
    P: VectorMixture, Q: VectorMixture, epsilon: float, tol: float = 1e-9
) -> DivergenceEstimate:
    """Positive-part integral between two mixtures of output dimension 1 and
    one family and scale.

    The sign of g = log p - eps - log q is read on one grid through every
    component centre (Laplace densities kink there), spacing 1/8 of the
    scale, spanning 40 scales beyond the outer centres. A cell
    whose ends share a sign holds no root when |g| at its ends, less float
    error, exceeds its width times a bound on |g'|; one that fails is split
    in 8 until each part passes, changes sign or can tell no more (adjacent
    floats, or g within float error of 0 at both ends). A cell whose ends
    differ in sign is taken to hold one root, and all are bisected together;
    one with one end where g is exactly 0 is taken to hold just that root. Over
    each interval where p > e^eps q, including the two unbounded end
    intervals, the integral is exact: sum_i w_i mass_i - e^eps sum_j v_j
    mass_j from each mixture's component CDFs and survival functions.

    ``tolerance`` bounds the error: each root is bisected to adjacent floats
    inside a bracket holding no centre, so every component is monotone there
    and p + e^eps q is at most its sum at the two bracket ends; half the
    bracket width times that bounds the mass a misplaced root moves. A cell
    given up adds the mass its sign can misplace. The CDF sums add 8 ulp of
    (1 + e^eps) per interval, which also bounds what the sign past the grid
    can misplace. The result does not depend on ``tol``, which is validated
    only.
    """
    if not tol > 0:
        raise ValueError(f"tol: must be positive, got {tol!r}")
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    for name, M in (("P", P), ("Q", Q)):
        if M.centers.shape[1] != 1:
            raise DimensionError(
                f"{name} has output dimension {M.centers.shape[1]}; the quadrature "
                "needs 1, use Monte Carlo for vector outputs"
            )
    alpha = math.exp(epsilon)
    kernel = _Kernel((P, Q))  # P and Q together, at every point below
    sup = _lattice_sup(P, Q, kernel, epsilon, math.inf, _TAIL_SCALES)
    if sup is not None and sup[0] + sup[1] < 0.0:  # as the grid finds no root and no lost mass
        return DivergenceEstimate(value=0.0, method=METHOD_QUADRATURE,
                                  tolerance=8.0 * _EPS * (1.0 + alpha))

    # P's centres first: of two signed zeros the set keeps the first seen
    centers = sorted(set(P.centers[:, 0].tolist() + Q.centers[:, 0].tolist()))
    score, scale = FAMILIES[P.family].score, P.scale
    span = _TAIL_SCALES * scale
    breaks = [centers[0] - span, *centers, centers[-1] + span]
    pieces = list(zip(breaks[:-1], breaks[1:]))
    steps = [int(min(4096, max(64, math.ceil((b - a) / (scale / 8.0))))) for a, b in pieces]
    grid = np.concatenate([np.linspace(a, b, n + 1)[:-1] for (a, b), n in zip(pieces, steps)]
                          + [breaks[-1:]])

    logs = 1.0 + epsilon + max(float(np.abs(M.log_coef).max()) for M in (P, Q))

    def sample(x):  # rows log p, log q, g and a bound on g's float error
        v = kernel(x[:, None])
        return np.vstack((v, v[0] - (epsilon + v[1]), 2.0 ** -40 * (logs + np.abs(v).sum(axis=0))))

    def slope_bound(a, b):
        # Off the centres (log p)' is minus a mean of psi(x - c) = score((x - c) / s) / s over
        # P's centres, so |g'| <= max(psi(x - q_min) - psi(x - p_max), psi(x - p_min) -
        # psi(x - q_max)): affine on a cell [a, b], so largest at an end (from inside)
        x, k = np.concatenate((a, b)), np.repeat([1, -1], len(a)) / scale
        (q_lo, q_hi), (p_lo, p_hi) = (score((x - np.array([[c.min()], [c.max()]])) * k) * k
                                      for c in (Q.kernel_centers[0], P.kernel_centers[0]))
        return np.maximum(q_lo - p_hi, p_lo - q_hi).reshape(2, -1).max(axis=0) * (1 + 2.0 ** -40)

    values = sample(grid)
    slope = slope_bound(np.array(breaks[:-1]), np.array(breaks[1:]))
    x, v, bound = grid[None], values[:, None], np.repeat(slope, steps)[None]
    found, lost = [], 0.0  # cells lie between neighbours in a row of x, each with its bound
    while True:
        pos, absg = v[2] > 0.0, np.abs(v[2])
        r, c = np.nonzero(pos[:, :-1] != pos[:, 1:])
        found.append((x[r, c], x[r, c + 1], pos[r, c]))
        reach = bound * np.diff(x) + v[3, :, :-1] + v[3, :, 1:]
        # a point where g is exactly 0 is a root, held by a cell with one such end
        r, c = np.nonzero((pos[:, :-1] == pos[:, 1:]) & (absg[:, :-1] + absg[:, 1:] <= reach)
                          & ((absg[:, :-1] == 0.0) == (absg[:, 1:] == 0.0)))
        a, b, va, vb, reach = x[r, c], x[r, c + 1], v[:, r, c], v[:, r, c + 1], reach[r, c]
        # give up cells that cannot be split or tell g from 0, or all past 65536,
        # adding the mass their sign can misplace: no centre is inside a cell
        stuck = ((np.abs(va[2]) <= va[3]) & (np.abs(vb[2]) <= vb[3])
                 | (b <= np.nextafter(a, np.inf)) | (r.size > 1 << 16))
        if stuck.any():  # |g| <= G there: its sign errs on expm1(min(G, 1)) of p or e^eps q
            G = np.minimum(0.5 * (np.abs(va[2]) + np.abs(vb[2]) + reach), 1.0)
            dens = np.exp(va[:2]) + np.exp(vb[:2])
            lost += float(np.sum(((b - a) * np.expm1(G)
                                  * np.maximum(dens[0], alpha * dens[1]))[stuck]))
        if stuck.all():
            break
        # split each cell left in 8 parts, each with its own bound
        a, b, va, vb = (t[..., ~stuck, None] for t in (a, b, va, vb))
        x = np.hstack((a, a + (b - a) * (np.arange(1, 8) / 8.0), b))
        v = np.concatenate((va, sample(x[:, 1:-1].ravel()).reshape(4, len(x), 7), vb), axis=2)
        bound = slope_bound(x[:, :-1].ravel(), x[:, 1:].ravel()).reshape(len(x), 8)
    a, b, a_positive = (np.concatenate(t) for t in zip(*found))
    order = np.argsort(a, kind="stable")
    a, b, a_positive = a[order], b[order], a_positive[order]
    # bisect every bracket down to adjacent floats
    while True:
        mid = 0.5 * (a + b)
        live = (a < mid) & (mid < b)
        if not live.any():
            break
        log_p, log_q = kernel(mid[:, None])
        same = (log_p > epsilon + log_q) == a_positive
        a = np.where(live & same, mid, a)
        b = np.where(live & ~same, mid, b)
    (p_a, q_a), (p_b, q_b) = (np.exp(kernel(t[:, None])) for t in (a, b))
    dens = p_a + p_b + alpha * (q_a + q_b)
    root_err = float(np.sum(0.5 * (b - a) * dens))

    # interval k runs from edge k to edge k + 1; past a root it takes the
    # sign of that bracket's right end
    edges = np.concatenate(([-np.inf], 0.5 * (a + b), [np.inf]))
    keep = np.flatnonzero(np.concatenate((values[2, :1] > 0.0, ~a_positive)))

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
    # past the grid a Laplace g is constant, and a Gaussian component's mass 40 scales out,
    # 0.5 erfc(40 / sqrt(2)) < 1e-300, is 0.0 in float: a sign there misplaces less than
    # 1e-300 (1 + e^eps), which 8 ulp of (1 + e^eps) bounds
    sum_err = 8.0 * _EPS * (1.0 + alpha) * (a.size + 1)
    return DivergenceEstimate(
        value=float(min(max(math.fsum(sums), 0.0), 1.0)),
        method=METHOD_QUADRATURE,
        tolerance=root_err + sum_err + lost,
    )


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
    """
    k, k_q = P.centers.shape[1], Q.centers.shape[1]
    if k != k_q:
        raise DimensionError(f"P has output dimension {k} but Q has output dimension {k_q}")
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    check_samples(n_samples, k)
    kernel = _Kernel((P, Q))
    sup = _lattice_sup(P, Q, kernel, epsilon, n_samples, _DRAW_REACH)
    if sup is not None and sup[0] + sup[1] < 0.0:  # every draw's statistic would be 0
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
    log_term = math.log(4.0 / _MC_ALPHA)
    half = math.sqrt(2.0 * var * log_term / n_samples) + 7.0 * log_term / (3.0 * (n_samples - 1))
    return DivergenceEstimate(
        value=min(est, 1.0),
        method=METHOD_MC,
        ci=(max(est - half, 0.0), min(est + half, 1.0)),
    )
