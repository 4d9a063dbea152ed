"""Hockey-stick divergence computation: exact on finite supports, exact up to
float error on one-dimensional mixtures, Monte Carlo everywhere else.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SupportError
from .missingness import substream, _KEY_MC

_NORM_TOL = 1e-12
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile

METHOD_EXACT = "exact_discrete"
METHOD_QUADRATURE = "quadrature"
METHOD_MC = "monte_carlo"

POINT_MASS = "point_mass"

_BLOCK = 256  # points per (points x components) evaluation, to bound memory


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
            if weight < 0:
                raise ValueError("mixture weights must be nonnegative")
            if family not in ("laplace", "gaussian", POINT_MASS):
                raise ValueError(f"unknown mixture family '{family}'")
            if family != POINT_MASS and scale <= 0:
                raise ValueError("continuous components need a positive scale")
            comps.append((weight, family, center, scale))
        total = math.fsum(w for w, _, _, _ in comps)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        object.__setattr__(self, "components", tuple(comps))

    @property
    def continuous(self) -> tuple:
        return tuple(c for c in self.components if c[1] != POINT_MASS)

    @property
    def atoms(self) -> tuple:
        return tuple(c for c in self.components if c[1] == POINT_MASS)

    def density(self, t):
        """Density of the continuous part (atoms carry their own mass)."""
        return np.exp(self.log_density(t))

    @cached_property
    def _kernel(self) -> tuple:
        """(log weight - log normaliser, centre, scale) arrays over the
        continuous components of positive weight, Gaussian ones first, and
        the number of Gaussian ones."""
        comps = sorted(
            (c for c in self.continuous if c[0] > 0.0), key=lambda c: c[1] != "gaussian"
        )
        log_coef = [
            math.log(w)
            - math.log(2.0 * s if f == "laplace" else s * math.sqrt(2.0 * math.pi))
            for w, f, _, s in comps
        ]
        return (
            np.array(log_coef),
            np.array([c for _, _, c, _ in comps]),
            np.array([s for _, _, _, s in comps]),
            sum(f == "gaussian" for _, f, _, _ in comps),
        )

    def log_density(self, t):
        """Log-density of the continuous part; stays finite far into the tails
        where the plain density underflows to zero, and is -inf everywhere
        when there is no continuous mass."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.full(flat.shape, -np.inf)
        log_coef, center, scale, n_gauss = self._kernel
        if center.size:
            for i in range(0, flat.size, _BLOCK):
                # one (points x components) buffer, updated in place
                z = flat[i : i + _BLOCK, None] - center
                z /= scale
                np.abs(z, out=z)
                gz = z[:, :n_gauss]
                gz *= gz
                gz *= 0.5
                np.subtract(log_coef, z, out=z)
                peak = z.max(axis=1, keepdims=True)
                z -= peak
                np.exp(z, out=z)
                out[i : i + _BLOCK] = peak[:, 0] + np.log(z.sum(axis=1))
        return out.reshape(t.shape)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        weights = np.array([c[0] for c in self.components])
        choice = rng.choice(len(self.components), size=size, p=weights)
        out = np.empty(size)
        for idx, (w, family, center, scale) in enumerate(self.components):
            sel = choice == idx
            count = int(np.sum(sel))
            if count == 0:
                continue
            if family == POINT_MASS:
                out[sel] = center
            elif family == "laplace":
                u = np.clip(rng.random(count), 1e-300, 1.0 - 1e-16)
                out[sel] = center + np.where(
                    u < 0.5, scale * np.log(2 * u), -scale * np.log(2 * (1 - u))
                )
            else:
                out[sel] = center + scale * rng.standard_normal(count)
        return out


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
_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _tail_mass(z_abs: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """Mass of a unit component beyond |z| on the far side of its centre: the
    CDF left of the centre, the survival function right of it, so tail masses
    far below 1e-16 keep their digits."""
    out = 0.5 * np.exp(-z_abs)
    if gauss.any():
        out[:, gauss] = 0.5 * _erfc(z_abs[:, gauss] / _SQRT2).astype(float)
    return out


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
    """
    if tol <= 0:
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

    positive = P.log_density(grid) > epsilon + Q.log_density(grid)  # False if both -inf
    idx = np.flatnonzero(positive[:-1] != positive[1:])
    a, b = grid[idx], grid[idx + 1]
    a_positive = positive[idx]
    # bisect every bracket down to adjacent floats
    while True:
        mid = 0.5 * (a + b)
        live = (a < mid) & (mid < b)
        if not live.any():
            break
        same = (P.log_density(mid) > epsilon + Q.log_density(mid)) == a_positive
        a = np.where(live & same, mid, a)
        b = np.where(live & ~same, mid, b)
    dens = P.density(a) + P.density(b) + alpha * (Q.density(a) + Q.density(b))
    root_err = float(np.sum(0.5 * (b - a) * dens))

    # interval k runs from edge k to edge k + 1; past a root it takes the
    # sign of that bracket's right end
    edges = np.concatenate(([-np.inf], 0.5 * (a + b), [np.inf]))
    keep = np.flatnonzero(np.concatenate((positive[:1], ~a_positive)))

    center = np.array([c for _, _, c, _ in continuous])
    scale = np.array([s for _, _, _, s in continuous])
    gauss = np.array([f == "gaussian" for _, f, _, _ in continuous], dtype=bool)
    signed_weight = np.array(
        [w for w, _, _, _ in P.continuous] + [-alpha * w for w, _, _, _ in Q.continuous]
    )
    sums = [atom_part]
    for i in range(0, keep.size, _BLOCK):
        blk = keep[i : i + _BLOCK]
        za = (edges[blk, None] - center) / scale
        zb = (edges[blk + 1, None] - center) / scale
        ta, tb = _tail_mass(np.abs(za), gauss), _tail_mass(np.abs(zb), gauss)
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


def mc_delta_estimate(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    p_density: Callable[[np.ndarray], np.ndarray],
    q_density: Callable[[np.ndarray], np.ndarray],
    epsilon: float,
    n_samples: int,
    seed: int,
) -> DivergenceEstimate:
    """Estimate the divergence as E_P[(1 - e^eps * q/p)_+].

    The statistic lives in [0, 1], so a normal-approximation 99% interval on
    the sample mean is reported alongside the estimate. Densities must be
    strictly positive wherever the sampler puts points.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for the CI to mean anything")
    rng = substream(seed, _KEY_MC, 0)
    x = np.asarray(sampler(rng, n_samples), dtype=float)
    p = np.asarray(p_density(x), dtype=float)
    q = np.asarray(q_density(x), dtype=float)
    if np.any(p <= 0.0):
        raise SupportError("sampler produced points where the P density is zero")
    if np.any(q <= 0.0):
        raise SupportError("Q density vanished at a sampled point")
    stat = np.clip(1.0 - math.exp(epsilon) * q / p, 0.0, None)
    est = float(np.mean(stat))
    half = _Z99 * float(np.std(stat, ddof=1)) / math.sqrt(n_samples)
    return DivergenceEstimate(
        value=min(est, 1.0),
        method=METHOD_MC,
        epsilon_at=epsilon,
        ci=(max(est - half, 0.0), min(est + half, 1.0)),
        seed=seed,
    )


def mc_delta_mixtures(
    P: MixtureSpec, Q: MixtureSpec, epsilon: float, n_samples: int, seed: int
) -> DivergenceEstimate:
    """Monte Carlo divergence between two purely continuous mixtures.

    The likelihood ratio is formed in log space, so a tail point where the
    plain Q density underflows to zero is not mistaken for a support
    violation.
    """
    if P.atoms or Q.atoms:
        raise SupportError("Monte Carlo estimation needs density-only mixtures")
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for the CI to mean anything")
    rng = substream(seed, _KEY_MC, 0)
    x = P.sample(rng, n_samples)
    log_p = P.log_density(x)
    log_q = Q.log_density(x)
    if np.any(~np.isfinite(log_p)):
        raise SupportError("P log-density was not finite at a sampled point")
    with np.errstate(over="ignore"):
        ratio = np.exp(epsilon + log_q - log_p)
    stat = np.clip(1.0 - ratio, 0.0, None)
    est = float(np.mean(stat))
    half = _Z99 * float(np.std(stat, ddof=1)) / math.sqrt(n_samples)
    return DivergenceEstimate(
        value=min(est, 1.0),
        method=METHOD_MC,
        epsilon_at=epsilon,
        ci=(max(est - half, 0.0), min(est + half, 1.0)),
        seed=seed,
    )
