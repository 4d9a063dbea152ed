"""Reference computations made apart from amplipriv.

Nothing here imports the package under test. The benchmark checks the
program's outputs against these:

- the output law of clipped-mean releases under Bernoulli or anchored-pattern
  masking, enumerated from bit patterns and mask probabilities;
- the hockey-stick divergence between two 1-D Laplace or Gaussian mixtures,
  integrated exactly from closed-form CDFs and survival functions between the
  roots of p - e^eps q;
- the closed forms for single-component pairs (Laplace, and the analytic
  Gaussian curve of Balle and Wang, ICML 2018);
- a Bernstein bound for Monte Carlo means of a [0, 1] statistic;
- a Kolmogorov-Smirnov test against a mixture CDF.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right

import numpy as np

LAPLACE = "laplace"
GAUSSIAN = "gaussian"

# Gaussian calibration rule stated by the program: sigma = c * C / eps with
# c = (1 + 1e-6) * sqrt(2 ln(1.25 / delta)).
GAUSSIAN_MARGIN = 1.0 + 1e-6

_SQRT2 = math.sqrt(2.0)
_TAIL_SCALES = 60.0
_GRID_PER_SCALE = 32


# --- calibration and accounting -------------------------------------------


def clipped_sensitivity(n: int, d: int, B: float) -> float:
    """C of the clipped mean (clip = B), alone (l1) or followed by a sum: 2B d / n."""
    return 2.0 * B * d / n


def noise_scale(family: str, C: float, epsilon: float, delta: float) -> float:
    if family == LAPLACE:
        return C / epsilon
    return GAUSSIAN_MARGIN * math.sqrt(2.0 * math.log(1.25 / delta)) * C / epsilon


def amplified_epsilon(epsilon: float, p_star: float, ratio: float) -> float:
    """ln(1 + p* (e^(ratio eps) - 1)), the paper's amplified budget."""
    return math.log1p(p_star * math.expm1(ratio * epsilon))


# --- one-dimensional noise kernels ----------------------------------------


def _gauss_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def _gauss_sf(z: float) -> float:
    return 0.5 * math.erfc(z / _SQRT2)


def _laplace_cdf(z: float) -> float:
    return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)


def _laplace_sf(z: float) -> float:
    return 0.5 * math.exp(-z) if z > 0 else 1.0 - 0.5 * math.exp(z)


def interval_mass(family: str, center: float, scale: float, lo: float, hi: float) -> float:
    """Mass of one component on (lo, hi); either end may be infinite.

    Right of the centre the mass is a difference of survival functions, left
    of it a difference of CDFs, so tail masses far below 1e-16 survive.
    """
    cdf, sf = (_laplace_cdf, _laplace_sf) if family == LAPLACE else (_gauss_cdf, _gauss_sf)
    zl = (lo - center) / scale
    zh = (hi - center) / scale
    if zl >= 0:
        return sf(zl) - sf(zh)
    if zh <= 0:
        return cdf(zh) - cdf(zl)
    return 1.0 - cdf(zl) - sf(zh)


def _log_density(family: str, comps, scale: float, x: np.ndarray) -> np.ndarray:
    """log sum_i w_i k((x - c_i) / s) / s on a vector of points."""
    w = np.array([c[1] for c in comps])
    c = np.array([c[0] for c in comps])
    z = (x[:, None] - c[None, :]) / scale
    if family == LAPLACE:
        lk = -np.abs(z) - math.log(2.0 * scale)
    else:
        lk = -0.5 * z * z - math.log(scale * math.sqrt(2.0 * math.pi))
    terms = lk + np.log(w)[None, :]
    peak = terms.max(axis=1)
    return peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))


def hockey_stick(family: str, P, Q, scale: float, epsilon: float):
    """(delta, error bound) of sup_S P(S) - e^eps Q(S) for 1-D mixtures.

    ``P`` and ``Q`` are sequences of (centre, weight) sharing one noise family
    and scale. The sign of p - e^eps q is read in log space on a grid of
    spacing scale/32 spanning 60 scales beyond the outermost centres, with
    every centre on the grid (Laplace densities kink there); each sign change
    is bisected to adjacent floats. The integral over each positive interval
    is then exact: sum_i w_i mass_i(I) - e^eps sum_j v_j mass_j(I).
    """
    centres = sorted({c for c, _ in P} | {c for c, _ in Q})
    lo = centres[0] - _TAIL_SCALES * scale
    hi = centres[-1] + _TAIL_SCALES * scale
    steps = int(math.ceil((hi - lo) / scale * _GRID_PER_SCALE))
    grid = np.union1d(np.linspace(lo, hi, steps + 1), np.array(centres))

    def s(x: np.ndarray) -> np.ndarray:
        return _log_density(family, P, scale, x) - epsilon - _log_density(family, Q, scale, x)

    sv = s(grid)
    roots = []
    for i in np.nonzero(np.sign(sv[:-1]) * np.sign(sv[1:]) < 0)[0]:
        a, b = float(grid[i]), float(grid[i + 1])
        sa = sv[i]
        while True:
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            sm = s(np.array([m]))[0]
            if sm == 0.0:
                a = b = m
                break
            if (sm > 0) == (sa > 0):
                a, sa = m, sm
            else:
                b = m
        roots.append(0.5 * (a + b))
    roots.extend(float(x) for x in grid[sv == 0.0])
    roots = sorted(set(roots))

    alpha = math.exp(epsilon)
    edges = [-math.inf, *roots, math.inf]
    # sign of each interval: at the midpoint between its roots, or at the
    # grid's outer end for the two unbounded intervals
    probes = [lo] + [0.5 * (a + b) for a, b in zip(roots[:-1], roots[1:])] + [hi]
    signs = s(np.array(probes))
    total = 0.0
    for (a, b), sign in zip(zip(edges[:-1], edges[1:]), signs):
        if sign <= 0:
            continue
        p_mass = math.fsum(w * interval_mass(family, c, scale, a, b) for c, w in P)
        q_mass = math.fsum(w * interval_mass(family, c, scale, a, b) for c, w in Q)
        total += p_mass - alpha * q_mass
    # a root misplaced by one float moves the integral by at most the
    # integrand's size there times that float step; the CDF sums themselves
    # carry a few ulps of the masses they difference
    if roots:
        dens = np.exp(_log_density(family, P, scale, np.array(roots))) + alpha * np.exp(
            _log_density(family, Q, scale, np.array(roots))
        )
        root_err = float(np.sum(dens * (np.abs(roots) + scale) * 4.0 * np.finfo(float).eps))
    else:
        root_err = 0.0
    sum_err = 8.0 * np.finfo(float).eps * (1.0 + alpha) * (len(roots) + 1)
    return max(total, 0.0), float(root_err + sum_err)


def laplace_pair_delta(sensitivity: float, scale: float, epsilon: float) -> float:
    """Closed form for Lap(0, b) against Lap(Delta, b)."""
    return max(0.0, -math.expm1((epsilon - sensitivity / scale) / 2.0))


def gaussian_pair_delta(sensitivity: float, sigma: float, epsilon: float) -> float:
    """Balle and Wang (ICML 2018), Theorem 8: the exact Gaussian privacy profile."""
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    return _gauss_cdf(a - b) - math.exp(epsilon) * _gauss_cdf(-a - b)


# --- output laws from bit patterns ----------------------------------------


def _merge(law: dict) -> list:
    """Sorted (centre, weight) pairs with positive weight."""
    return sorted((c, w) for c, w in law.items() if w > 0.0)


def _masked_column_sums(rows, bits_per_row, clip: float):
    d = len(rows[0])
    return [
        math.fsum(
            max(-clip, min(clip, row[j])) for row, bits in zip(rows, bits_per_row) if bits[j] == 0
        )
        for j in range(d)
    ]


def bernoulli_row_law(d: int, pi: float):
    """All 2^d row masks (bit 1 = missing) with their probabilities."""
    out = []
    for bits in itertools.product((0, 1), repeat=d):
        k = sum(bits)
        out.append((bits, pi**k * (1.0 - pi) ** (d - k)))
    return out


def anchored_row_law(row, spec: dict):
    """Row mask law of the ``mar_anchored`` family with a threshold table."""
    anchor = spec["anchor"]
    key = ",".join(
        str(bisect_right(sorted(spec["thresholds"][i]), row[a])) for i, a in enumerate(anchor)
    )
    scores = spec["score_table"][key]
    q_all = spec["q_all"]
    d = len(spec["candidates"][0])
    out = [(tuple(c), (1.0 - q_all) * s) for c, s in zip(spec["candidates"], scores)]
    if q_all > 0:
        out.append(((1,) * d, q_all))
    return out


def clipped_sum_law(rows, row_laws, clip: float) -> list:
    """(centre, weight) law of sum_j mean_i clip(x_ij) over observed cells."""
    n = len(rows)
    law: dict = {}
    for combo in itertools.product(*row_laws):
        w = math.prod(p for _, p in combo)
        sums = _masked_column_sums(rows, [b for b, _ in combo], clip)
        centre = math.fsum(sums) / n
        law[centre] = law.get(centre, 0.0) + w
    return _merge(law)


def clipped_mean_coordinate_law(rows, pi: float, j: int, clip: float) -> list:
    """Law of coordinate j of the clipped mean under Bernoulli(pi) masking."""
    n = len(rows)
    law: dict = {}
    for bits in itertools.product((0, 1), repeat=n):
        k = sum(bits)
        w = pi**k * (1.0 - pi) ** (n - k)
        centre = math.fsum(max(-clip, min(clip, r[j])) for r, b in zip(rows, bits) if b == 0) / n
        law[centre] = law.get(centre, 0.0) + w
    return _merge(law)


def clipped_mean_vector_law(rows, pi: float, clip: float) -> list:
    """(centre vector, weight) law of the vector clipped mean under Bernoulli(pi)."""
    n, d = len(rows), len(rows[0])
    row_law = bernoulli_row_law(d, pi)
    law: dict = {}
    for combo in itertools.product(row_law, repeat=n):
        w = math.prod(p for _, p in combo)
        sums = _masked_column_sums(rows, [b for b, _ in combo], clip)
        centre = tuple(s / n for s in sums)
        law[centre] = law.get(centre, 0.0) + w
    return _merge(law)


def same_law(program, reference, atol: float = 1e-12) -> bool:
    """Two (centre, weight) laws agree once centres within atol are pooled.

    Centres are floats or tuples of floats; the program may split one
    mathematical centre into neighbouring floats through summation order.
    """

    def pooled(law):
        out: list = []
        for c, w in sorted(law):
            key = np.atleast_1d(np.asarray(c, dtype=float))
            if out and np.all(np.abs(out[-1][0] - key) <= atol):
                out[-1][1] += w
            else:
                out.append([key, w])
        return out

    a, b = pooled(program), pooled(reference)
    return len(a) == len(b) and all(
        np.all(np.abs(ca - cb) <= atol) and abs(wa - wb) <= atol for (ca, wa), (cb, wb) in zip(a, b)
    )


# --- Monte Carlo and release checks ---------------------------------------


def bernstein_halfwidth(mean: float, n: int, alpha: float) -> float:
    """Two-sided Bernstein deviation bound for the mean of n draws in [0, 1].

    A [0, 1] statistic with mean mu has variance at most mu (1 - mu), so
    P(|mean_n - mu| > t) <= alpha for
    t = sqrt(2 v ln(2/alpha) / n) + 2 ln(2/alpha) / (3 n), with v = mu (1 - mu).
    Hoeffding's t = sqrt(ln(2/alpha) / (2 n)) holds as well. Both are fixed
    before sampling, so the smaller one still holds at level alpha.
    """
    log_term = math.log(2.0 / alpha)
    v = mean * (1.0 - mean)
    bernstein = math.sqrt(2.0 * v * log_term / n) + 2.0 * log_term / (3.0 * n)
    hoeffding = math.sqrt(log_term / (2.0 * n))
    return min(bernstein, hoeffding)


def mixture_cdf(family: str, law, scale: float, x: float) -> float:
    return math.fsum(w * interval_mass(family, c, scale, -math.inf, x) for c, w in law)


def kolmogorov_sf(t: float) -> float:
    """P(K > t) for the Kolmogorov distribution (limit of sqrt(n) D_n)."""
    if t <= 0.0:
        return 1.0
    if t < 1.0:
        # the alternating series converges slowly here; use the dual form
        s = math.fsum(
            math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * t * t)) for k in range(1, 40)
        )
        return 1.0 - math.sqrt(2.0 * math.pi) / t * s
    return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * t * t) for k in range(1, 101))


def ks_test(samples, cdf) -> tuple:
    """(D, p) of the one-sample KS test, with Stephens' finite-n correction."""
    xs = sorted(samples)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        d = max(d, (i + 1) / n - f, f - i / n)
    sq = math.sqrt(n)
    return d, min(1.0, max(0.0, kolmogorov_sf((sq + 0.12 + 0.11 / sq) * d)))
