"""Hockey-stick divergence computation: exact on finite supports, exact up to
float error on one-dimensional mixtures, Monte Carlo everywhere else.

The 1-D ``MixtureSpec`` and the k-D ``VectorMixture`` share one product-noise
kernel for log-densities and samples, built on the family table in ``noise``;
the one Monte Carlo estimator, ``mc_delta_vector``, takes either. The kernel
evaluates one or more mixtures at the same points. It walks the points in
blocks and, within a block, the k coordinates in order: per coordinate, one
penalty table holds the distinct (family, scale, centre) columns of all the
mixtures, so P and Q, which share most centres and have few distinct values
per coordinate, fill it once (an audit-sized Monte Carlo pair has 64
components each but at most 6 columns per coordinate). Each mixture gathers
its columns from the tables, sums them in coordinate order and takes its
log-sum-exp; the result is bit-identical to evaluating each mixture alone.
The Monte Carlo estimator and the 1-D quadrature evaluate P and Q through one
such joint kernel per call; a single mixture's ``log_density`` uses a kernel
over itself, built once and cached.

The divergence at level e^eps is sup_S (P(S) - e^eps Q(S)); the optimal S is
the set where the signed mass p - e^eps q is positive, so the discrete case is
a positive-part sum and the continuous case a positive-part integral. For 1-D
Laplace/Gaussian mixtures the integral is a sum of component CDF and survival
function differences between the sign changes of p - e^eps q, so the only
approximation is where those roots sit; the reported ``tolerance`` bounds the
mass that root error can move plus the float error of the sums.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, SupportError
from .missingness import substream, _KEY_MC
from .noise import FAMILIES

_NORM_TOL = 1e-12
_MC_ALPHA = 0.01  # Monte Carlo intervals are two-sided at 99%
MC_MIN_SAMPLES = 1000  # fewer and the interval is too wide to mean anything

METHOD_EXACT = "exact_discrete"
METHOD_QUADRATURE = "quadrature"
METHOD_MC = "monte_carlo"

POINT_MASS = "point_mass"

# points per (points x components) buffer, to bound memory; it also groups the
# quadrature's fsum blocks, so changing it moves the last bits of exact reports
_BLOCK = 256


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


def _check_weights(weights: list) -> None:
    if not all(w >= 0 for w in weights):  # False for NaN too
        raise ValueError("mixture weights must be nonnegative")
    total = math.fsum(weights)
    if abs(total - 1.0) > _NORM_TOL:
        raise ValueError(f"mixture weights sum to {total}, expected 1")


class _ProductNoise:
    """A finite mixture of product noise: component i adds i.i.d. noise of
    family f_i and scale s_i to every coordinate of its centre c_i. Point-mass
    components draw their centre and carry no density."""

    def __init__(self, weights, families, centers, scales):
        self.weights = np.asarray(weights, dtype=float)
        self.centers = np.asarray(centers, dtype=float)  # (m, k)
        self.scales = np.asarray(scales, dtype=float)
        # position of each component's family in the table, -1 for atoms
        names = list(FAMILIES)
        self.codes = np.array([names.index(f) if f in FAMILIES else -1 for f in families])
        # the kernel's columns: continuous components of positive weight,
        # grouped by family
        k = self.centers.shape[1]
        cols, log_coef, self.spans = [], [], []
        for j, fam in enumerate(FAMILIES.values()):
            idx = np.flatnonzero((self.codes == j) & (self.weights > 0.0)).tolist()
            if idx:
                self.spans.append((fam, len(cols), len(cols) + len(idx)))
                cols += idx
                log_coef += [
                    math.log(self.weights[i]) - k * fam.log_norm(self.scales[i])
                    for i in idx
                ]
        self.log_coef = np.array(log_coef)
        # per coordinate, one contiguous row of the kernel's m component centres
        self.kernel_centers = tuple(np.ascontiguousarray(self.centers[cols].T))
        self.kernel_scales = self.scales[cols]
        self.kernel_codes = self.codes[cols]

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel((self,))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Log-density at the rows of ``x`` (n, k): finite far into the tails
        where the plain density underflows, -inf when there is no density."""
        return self._kernel(x)[0]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """A choice over components, then one unit draw per family."""
        idx = rng.choice(len(self.weights), size=size, p=self.weights)
        out = self.centers[idx]
        codes = self.codes[idx]
        for j, fam in enumerate(FAMILIES.values()):
            sel = np.flatnonzero(codes == j)
            if sel.size:
                noise = fam.draw(rng, (sel.size, out.shape[1]))
                out[sel] += self.scales[idx[sel], None] * noise
        return out


class _Kernel:
    """Log-densities of one or more product-noise mixtures of one dimension k
    at the same points, from one penalty table per block and coordinate over
    their distinct (family, scale, centre) columns, grouped by family: x - c,
    then / s, then the family penalty, one row per column. Values are
    bit-identical to evaluating each mixture alone: equal columns (centres
    -0.0 and 0.0 too) give equal penalties, and each mixture sums its
    gathered rows in coordinate order and its components along contiguous
    (points x components) rows.
    """

    def __init__(self, noises: Sequence[_ProductNoise]):
        self.tables, gathers = [], []
        for j in range(noises[0].centers.shape[1]):
            keys = [
                list(zip(n.kernel_codes.tolist(), n.kernel_scales.tolist(),
                         n.kernel_centers[j].tolist()))
                for n in noises
            ]
            cols = sorted(set().union(*keys))  # family code first: families contiguous
            row = {key: u for u, key in enumerate(cols)}
            spans = []
            for code, fam in enumerate(FAMILIES.values()):
                lo, hi = bisect_left(cols, (code,)), bisect_left(cols, (code + 1,))
                if lo < hi:
                    spans.append((fam, lo, hi))
            self.tables.append((
                np.array([c for _, _, c in cols]).reshape(-1, 1),
                np.array([s for _, s, _ in cols]).reshape(-1, 1),
                spans,
            ))
            gathers.append([np.array([row[key] for key in ks], dtype=np.intp) for ks in keys])
        # per mixture, its coefficients and its rows of each coordinate's table
        self.mixtures = [
            (n.log_coef[:, None], rows) for n, rows in zip(noises, zip(*gathers))
        ]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Each mixture's log-density at the rows of ``x`` (n, k), one row each."""
        out = np.full((len(self.mixtures), len(x)), -np.inf)
        for i in range(0, len(x), _BLOCK):
            xb = x[i : i + _BLOCK]
            tables = []
            for j, (centers, scales, spans) in enumerate(self.tables):
                t = np.subtract(xb[:, j], centers)
                t /= scales
                for fam, lo, hi in spans:
                    fam.penalty(t[lo:hi])
                tables.append(t)
            for r, (log_coef, rows) in enumerate(self.mixtures):
                if not log_coef.size:
                    continue
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
class MixtureSpec:
    """A one-dimensional mixture of Laplace, Gaussian and point-mass atoms."""

    components: tuple  # (weight, family, center, scale)

    def __post_init__(self):
        comps = []
        for weight, family, center, scale in self.components:
            weight = float(weight)
            center = float(center)
            scale = float(scale)
            if family not in FAMILIES and family != POINT_MASS:
                raise ValueError(f"unknown mixture family '{family}'")
            if family != POINT_MASS and not 0 < scale < math.inf:
                raise ValueError("continuous components need a finite positive scale")
            comps.append((weight, family, center, scale))
        _check_weights([w for w, _, _, _ in comps])
        object.__setattr__(self, "components", tuple(comps))

    @property
    def continuous(self) -> tuple:
        return tuple(c for c in self.components if c[1] != POINT_MASS)

    @property
    def atoms(self) -> tuple:
        return tuple(c for c in self.components if c[1] == POINT_MASS)

    @cached_property
    def _noise(self) -> _ProductNoise:
        w, f, c, s = zip(*self.components)
        return _ProductNoise(w, f, np.array(c)[:, None], s)

    def density(self, t):
        """Density of the continuous part (atoms carry their own mass)."""
        return np.exp(self.log_density(t))

    def log_density(self, t):
        """Log-density of the continuous part, elementwise over ``t``."""
        t = np.asarray(t, dtype=float)
        return self._noise.log_density(t.reshape(-1, 1)).reshape(t.shape)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._noise.sample(rng, size)[:, 0]


@dataclass(frozen=True)
class VectorMixture:
    """Mixture of k-dimensional product noise of one family and scale around
    enumerated centers, for Monte Carlo estimation at any output dimension."""

    weights: np.ndarray
    centers: np.ndarray
    family: str
    scale: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        centers = np.asarray(self.centers, dtype=float)
        if weights.ndim != 1:
            raise ValueError("mixture weights must be a vector")
        _check_weights(weights.tolist())
        if centers.ndim != 2 or len(centers) != len(weights):
            raise ValueError(
                f"centers must be (m, k) with m = {len(weights)} components, "
                f"got shape {centers.shape}"
            )
        if self.family not in FAMILIES:
            raise ValueError(f"unknown mixture family '{self.family}'")
        scale = float(self.scale)
        if not 0 < scale < math.inf:
            raise ValueError("continuous components need a finite positive scale")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "scale", scale)

    @cached_property
    def _noise(self) -> _ProductNoise:
        m = len(self.weights)
        return _ProductNoise(
            self.weights, [self.family] * m, self.centers, np.full(m, self.scale)
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._noise.sample(rng, size)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        return self._noise.log_density(x)


@dataclass(frozen=True)
class DivergenceEstimate:
    value: float
    method: str
    epsilon_at: float
    tolerance: Optional[float] = None
    ci: Optional[tuple] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1.0 + 1e-9:
            raise ValueError("a hockey-stick divergence lies in [0, 1]")
        if self.method == METHOD_MC and self.ci is None:
            raise ValueError("Monte Carlo estimates must carry a confidence interval")
        if self.method == METHOD_QUADRATURE and self.tolerance is None:
            raise ValueError("quadrature estimates must carry a tolerance bound")


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


# --- exact integral between roots ---------------------------------------------

_TAIL_SCALES = 40.0
_EPS = float(np.finfo(float).eps)


def hockey_stick_mixture_1d(
    P: MixtureSpec, Q: MixtureSpec, epsilon: float, tol: float = 1e-9
) -> DivergenceEstimate:
    """Positive-part integral between two 1-D mixtures.

    The sign of log p - eps - log q is read on one grid through every
    component centre (Laplace densities kink there), spacing 1/8 of the finest
    scale, spanning 40 of the widest scales beyond the outer centres. All sign
    changes are bisected together. Over each interval where p > e^eps q,
    including the two unbounded end intervals, the integral is exact:
    sum_i w_i mass_i - e^eps sum_j v_j mass_j from component CDFs and survival
    functions. Atoms are handled exactly on the side.

    ``tolerance`` bounds the error: each root is bisected to adjacent floats
    inside a bracket holding no centre, so every component is monotone there
    and p + e^eps q is at most its sum at the two bracket ends; half the
    bracket width times that bounds the mass a misplaced root moves. The CDF
    sums add 8 ulp of (1 + e^eps) per interval. The result does not depend on
    ``tol``, which is validated only.

    The bound assumes the sign grid sees every sign change. Past 40 of the
    widest scales beyond the outer centres the grid takes the sign of the
    last grid point to hold out to infinity, and two sign changes inside one
    grid step (1/8 of the finest scale, wider where a piece between centres
    would need more than 4096 steps) cancel unseen. ``tolerance`` covers
    neither case.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    alpha = math.exp(epsilon)

    # exact atom contribution
    atom_mass: dict = {}
    for w, _, center, _ in P.atoms:
        atom_mass[center] = atom_mass.get(center, 0.0) + w
    for w, _, center, _ in Q.atoms:
        atom_mass[center] = atom_mass.get(center, 0.0) - alpha * w
    atom_part = math.fsum(max(v, 0.0) for v in atom_mass.values())

    continuous = P.continuous + Q.continuous
    if not continuous:
        return DivergenceEstimate(
            value=min(atom_part, 1.0),
            method=METHOD_QUADRATURE,
            epsilon_at=epsilon,
            tolerance=0.0,
        )

    centers = sorted({c for _, _, c, _ in continuous})
    max_scale = max(s for _, _, _, s in continuous)
    min_scale = min(s for _, _, _, s in continuous)
    breakpoints = [
        centers[0] - _TAIL_SCALES * max_scale,
        *centers,
        centers[-1] + _TAIL_SCALES * max_scale,
    ]
    pieces = []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        steps = int(min(4096, max(64, math.ceil((b - a) / (min_scale / 8.0)))))
        pieces.append(np.linspace(a, b, steps + 1)[:-1])
    pieces.append(np.array(breakpoints[-1:]))
    grid = np.concatenate(pieces)

    kernel = _Kernel((P._noise, Q._noise))  # P and Q together, at every point below
    log_p, log_q = kernel(grid[:, None])
    positive = log_p > epsilon + log_q  # False if both -inf
    idx = np.flatnonzero(positive[:-1] != positive[1:])
    a, b = grid[idx], grid[idx + 1]
    a_positive = positive[idx]
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
    keep = np.flatnonzero(np.concatenate((positive[:1], ~a_positive)))

    center = np.array([c for _, _, c, _ in continuous])
    scale = np.array([s for _, _, _, s in continuous])
    family = np.array([f for _, f, _, _ in continuous])

    def tail_mass(z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        for name, fam in FAMILIES.items():
            out[:, family == name] = fam.tail(z[:, family == name])
        return out

    signed_weight = np.array(
        [w for w, _, _, _ in P.continuous] + [-alpha * w for w, _, _, _ in Q.continuous]
    )
    sums = [atom_part]
    for i in range(0, keep.size, _BLOCK):
        blk = keep[i : i + _BLOCK]
        za = (edges[blk, None] - center) / scale
        zb = (edges[blk + 1, None] - center) / scale
        ta, tb = tail_mass(np.abs(za)), tail_mass(np.abs(zb))
        mass = np.where(za >= 0, ta - tb, np.where(zb <= 0, tb - ta, 1.0 - ta - tb))
        sums.append(math.fsum((mass * signed_weight).ravel().tolist()))
    sum_err = 8.0 * _EPS * (1.0 + alpha) * (idx.size + 1)
    return DivergenceEstimate(
        value=float(min(max(math.fsum(sums), 0.0), 1.0)),
        method=METHOD_QUADRATURE,
        epsilon_at=epsilon,
        tolerance=root_err + sum_err,
    )


# --- Monte Carlo --------------------------------------------------------------


def mc_delta_vector(P, Q, epsilon: float, n_samples: int, seed: int) -> DivergenceEstimate:
    """Estimate the divergence as E_P[(1 - e^eps q/p)_+] between two mixtures
    (``MixtureSpec`` or ``VectorMixture``) of one output dimension: samples
    from P's ``sample``, both log-densities from one joint kernel.

    The likelihood ratio is formed in log space, so a point where q underflows
    or vanishes counts in full. The statistic lies in [0, 1], and its 99%
    interval is empirical Bernstein (Maurer & Pontil, COLT 2009, Theorem 4)
    at level 0.005 on each side: valid at every sample size, also when the
    divergence is far below 1 / n_samples.
    """
    if any(isinstance(M, MixtureSpec) and M.atoms for M in (P, Q)):
        raise SupportError("Monte Carlo estimation needs density-only mixtures")
    k, k_q = (M._noise.centers.shape[1] for M in (P, Q))
    if k != k_q:
        raise DimensionError(f"P has output dimension {k} but Q has output dimension {k_q}")
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    if n_samples < MC_MIN_SAMPLES:
        raise ValueError(
            f"need at least {MC_MIN_SAMPLES} samples for the CI to mean anything"
        )
    rng = substream(seed, _KEY_MC, 0)
    x = P.sample(rng, n_samples)
    log_p, log_q = _Kernel((P._noise, Q._noise))(x.reshape(n_samples, k))
    if np.any(~np.isfinite(log_p)):
        raise SupportError("P log-density was not finite at a sampled point")
    with np.errstate(over="ignore"):
        stat = np.clip(1.0 - np.exp(epsilon + log_q - log_p), 0.0, None)
    est = float(np.mean(stat))
    log_term = math.log(4.0 / _MC_ALPHA)
    half = math.sqrt(
        2.0 * float(np.var(stat, ddof=1)) * log_term / n_samples
    ) + 7.0 * log_term / (3.0 * (n_samples - 1))
    return DivergenceEstimate(
        value=min(est, 1.0),
        method=METHOD_MC,
        epsilon_at=epsilon,
        ci=(max(est - half, 0.0), min(est + half, 1.0)),
        seed=seed,
    )
