"""Where p - e^eps q changes sign, for the 1-D quadrature of ``divergence``.

Each finder takes two 1-D mixtures of one family and scale and returns
(edges, keep, root_err, lost): the roots of p - e^eps q with -inf and inf,
the indices of the intervals between them where p > e^eps q, and bounds on
the mass the roots and the signs can misplace. For Laplace the roots come in
closed form from two running sums over the centres (``laplace_signs``); for
Gaussian from a certified sign grid and bisection (``gaussian_signs``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .divergence import VectorMixture, _Kernel

_TAIL_SCALES = 40.0  # the Gaussian grid's reach past the outer centres, in scales
_EPS = float(np.finfo(float).eps)

_TINY = 2.0 ** -1060  # above any one step's underflow: a subnormal result errs by 2^-1074
_UP = 1.0 + 2.0 ** -40  # covers the rounding of a bound's own few operations


def _exp_above(a: np.ndarray) -> np.ndarray:
    """e^a at least, for a computed within 2^-41 |a| and exp within 8 ulp
    (which ``_UP`` on the result covers)."""
    return np.exp(a + 2.0 ** -40 * np.abs(a))


def _running_sums(s, t, sigma, f, phi) -> tuple:
    """X, T and e along the centres in order: X_k = s_k + f_(k-1) X_(k-1)
    and T_k = t_k + f_(k-1) T_(k-1) in float, f holding the factors between
    adjacent centres, and e_k, a bound on both |X_k - exact X_k| and
    |T_k - exact T_k| from the weights' errors ``sigma`` and the factors'
    ``phi`` (see ``laplace_signs``)."""
    X, T, E = [], [], []
    x = tt = e = 0.0
    for s_k, t_k, sigma_k, f_k, phi_k in zip(s.tolist(), t.tolist(), sigma.tolist(),
                                             [0.0] + f.tolist(), [0.0] + phi.tolist()):
        x = s_k + f_k * x
        t_prev, tt = tt, t_k + f_k * tt
        e = (sigma_k + (f_k + phi_k) * e + phi_k * t_prev + 0.5 * _EPS * tt + _TINY) * _UP
        X.append(x)
        T.append(tt)
        E.append(e)
    return np.array(X), np.array(T), np.array(E)


def laplace_signs(P: VectorMixture, Q: VectorMixture, alpha: float) -> tuple:
    """(edges, keep, root_err, lost) for Laplace P and Q at one scale b: the
    roots of h = p - alpha q, with -inf and inf, the intervals between them
    where h > 0, and bounds on the mass the roots and signs can misplace.

    On the distinct centres c_0 < ... < c_(m-1), with s_j the P weight less
    alpha times the Q weight at c_j, 2b h(x) = sum_j s_j e^(-|x - c_j| / b).
    One forward and one backward running sum, every exponent <= 0, give
    L_k = sum_(j <= k) s_j e^(-(c_k - c_j) / b) and
    R_k = sum_(j >= k) s_j e^(-(c_j - c_k) / b). On the piece
    x = c_k + t, 0 <= t <= d = c_(k+1) - c_k,
    2b h = L_k e^(-t / b) + R_(k+1) e^(-(d - t) / b), which has one root,
    at t = d / 2 + (b / 2) ln(-L_k / R_(k+1)), when L_k R_(k+1) < 0, and none
    otherwise. Right of that root h takes the sign of R_(k+1), left of it
    that of L_k; past c_0 it has the sign of R_0, past c_(m-1) that of
    L_(m-1). A root counts when it falls inside its piece, and an edge goes
    wherever the sign changes, also at a centre where adjacent pieces'
    computed signs differ.

    The bound. Write u = 2^-53, take exp, log, expm1 and log1p within 8 ulp,
    and call a value exact when it is computed in real arithmetic from the
    float weights, centres and alpha. Let H be 2b h with the computed sums
    in place of the exact ones, K the set where h > 0 and K' the intervals
    kept. Apart from the CDF sums, the value errs from delta by the integral
    of |h| over K ^ K'. A point of K ^ K' on a piece either has a sign of H
    unlike that of h, so that 2b |h| <= |2b h - H| <= E(x) below, or lies
    between the root of H and its computed value.

    - The sums' float error. The same recursions on t_j, the P weight plus
      alpha times the Q weight at c_j, give T_k and T'_k, and on a piece
      2b (p + alpha q) = T_k e^(-t / b) + T'_(k+1) e^(-(d - t) / b).
      Rounding is monotone and |s_j| <= t_j, so |L_k| <= T_k in float, and
      one bound e_k serves L and T (``_running_sums``; R and T' alike). The
      weights summed at c_j over its n_j components err by at most
      sigma_j = (n_j + 2) u t_j + 2^-1060. The factor f = e^(-z), z = d / b, errs by
      at most u (3 z + 20) f plus 2^-1060: z is within 2u z, which moves
      e^(-z) by 2.1 u z of itself, exp adds 16 u, and a subnormal result
      2^-1074. With the product's rounding that is phi = u (3 z + 21) f +
      2^-1060, so e_k = sigma_k + (f + phi) e_(k-1) + phi T_(k-1) + u T_k +
      2^-1060, raised by 2^-40 for its own rounding. Hence
      E(x) = e^L_k e^(-t / b) + e^R_(k+1) e^(-(d - t) / b) on a piece, and
      e^R_0 e^((x - c_0) / b) and e^L_(m-1) e^(-(x - c_(m-1)) / b) on the
      tails.
    - Unsettled signs. A piece is settled when |L_k| > e^L_k and
      |R_(k+1)| > e^R_(k+1): L and R then have their computed signs, so
      K ^ K' on it lies between the root of h and the computed root. Any
      other piece goes to ``lost`` with the integral of E / 2b over it,
      (e^L_k + e^R_(k+1)) (1 - e^(-d / b)) / 2, and an unsettled tail with
      its e / 2; this bounds |h| over every point whose sign H gets wrong.
    - Roots. The computed root lies within
      W_r = 16u (d + b (1 + |ln |L_k|| + |ln |R_(k+1)||) + |x|) of H's. It
      rounds d (u d / 2), the logs (8u b each of |ln|), their difference
      and its product with b / 2 (u b |ln L - ln R|), the sum t (u |t|) and
      x = c_k + t (u |x|); W_r covers these with room for the rest. There
      |h| <= p + alpha q, so W_r times the largest 2b (p + alpha q) on the
      bracket [t - W_r, t + W_r] cut to the piece, over 2b, is charged.
      Each exponential is largest at one end of the bracket;
      ``_exp_above`` raises its exponent past its rounding.
      On a settled piece, the root of h lies within
      W_c = (b / 2) (-log1p(-e^L / |L|) - log1p(-e^R / |R|)) of H's, since
      |ln(L / L computed)| <= -ln(1 - e^L / |L|); so K ^ K' lies within
      W = W_r + W_c of the computed root. The exact
      L e^(-t / b) + R e^(-(d - t) / b), extended past the piece, is 0 at
      the root of h and changes by at most
      (|L| e^(-t / b) + |R| e^(-(d - t) / b)) / b, at most the T bound over
      b, per unit of t. So the piece may instead be charged W^2 / 2b times
      the largest 2b (p + alpha q) bound on [t - W, t + W], over 2b (for
      W < b, to keep it finite): second order in the float error. A
      settled piece is charged the smaller of this and the W_r charge plus
      its integral of E / 2b, which bounds its K ^ K' too. The charges go
      to ``root_err``.

    ``root_err`` and ``lost`` are raised by 2^-40 for their own sums. Where
    P = Q every s_j is 0 and every piece is unsettled, so delta is 0 with a
    tolerance of a few ulp.
    """
    both = P.centers[:, 0].tolist() + Q.centers[:, 0].tolist()
    centres = sorted(set(both))
    row = {c: j for j, c in enumerate(centres)}
    index = np.array([row[c] for c in both])
    n, centres = len(P.weights), np.array(centres)
    m, b = centres.size, P.scale
    w_p = np.bincount(index[:n], P.weights, m)
    w_q = np.bincount(index[n:], Q.weights, m)
    s, t = w_p - alpha * w_q, w_p + alpha * w_q
    sigma = (np.bincount(index, minlength=m) + 2) * (0.5 * _EPS) * t + _TINY
    d = np.diff(centres)
    z = d / b
    f = np.exp(-z)
    phi = (3.0 * z + 21.0) * (0.5 * _EPS) * f + _TINY
    L, T, e_L = _running_sums(s, t, sigma, f, phi)
    R, T_R, e_R = (a[::-1] for a in _running_sums(*(a[::-1] for a in (s, t, sigma, f, phi))))

    # piece k runs from c_k to c_(k+1): h has L_k on its left and R_(k+1) on its right
    left, right = L[:-1], R[1:]
    e_left, e_right = e_L[:-1], e_R[1:]
    settled = (np.abs(left) > e_left) & (np.abs(right) > e_right)
    within_e = 0.5 * (e_left + e_right) * -np.expm1(-z)  # the integral of E / 2b on a piece
    tails = [0.5 * e for v, e in ((R[0], e_R[0]), (L[-1], e_L[-1])) if not abs(v) > e]
    lost = math.fsum(within_e[~settled].tolist() + tails) * _UP
    pos_left = np.where(left != 0.0, left > 0.0, right > 0.0)
    pos_right = np.where(right != 0.0, right > 0.0, left > 0.0)

    k = np.flatnonzero(pos_left != pos_right)  # L_k and R_(k+1) of opposite signs
    ln_l, ln_r = np.log(np.abs(left[k])), np.log(np.abs(right[k]))
    t_root, d_k = 0.5 * d[k] + 0.5 * b * (ln_l - ln_r), d[k]
    x = centres[k] + t_root
    roots = np.full(m - 1, np.nan)
    inside = (centres[k] < x) & (x < centres[k + 1])
    roots[k[inside]] = x[inside]
    # a root past its piece leaves the piece one sign
    out = k[~inside]
    below = x[~inside] <= centres[out]
    pos_left[out[below]] = pos_right[out[below]]
    pos_right[out[~below]] = pos_left[out[~below]]

    dens_l, dens_r = T[k] + e_left[k], T_R[k + 1] + e_right[k]

    def density(i, lo, hi):  # 2b (p + alpha q) at most on [lo, hi] of crossing pieces i
        return dens_l[i] * _exp_above(-lo / b) + dens_r[i] * _exp_above((hi - d_k[i]) / b)

    w_r = 8.0 * _EPS * (d_k + b * (1.0 + np.abs(ln_l) + np.abs(ln_r)) + np.abs(x))
    lo, hi = np.maximum(t_root - w_r, 0.0), np.minimum(t_root + w_r, d_k)
    charge = np.where(lo < hi, w_r * density(slice(None), lo, hi), 0.0) / (2.0 * b)
    # a settled piece may take the second-order charge instead; W < b keeps it finite
    j = np.flatnonzero(settled[k])
    w = w_r[j] - 0.5 * b * (np.log1p(-e_left[k[j]] / np.abs(left[k[j]]))
                            + np.log1p(-e_right[k[j]] / np.abs(right[k[j]])))
    j, w = j[w < b], w[w < b]
    lo, hi = t_root[j] - w, t_root[j] + w
    far = np.where((lo < d_k[j]) & (hi > 0.0), 0.5 * w * (w / b) * density(j, lo, hi), 0.0)
    charge[j] = np.minimum(far / (2.0 * b), charge[j] + within_e[k[j]])
    root_err = math.fsum(charge.tolist()) * _UP

    # signs from -inf: the left tail, each piece's left and right parts, the right tail;
    # between them the centres and the roots
    sign = np.concatenate(([R[0] > 0.0], np.column_stack((pos_left, pos_right)).ravel(),
                           [L[-1] > 0.0]))
    at = np.column_stack((centres, np.append(roots, np.nan))).ravel()[:-1]
    change = np.flatnonzero(sign[:-1] != sign[1:])
    edges = np.concatenate(([-np.inf], at[change], [np.inf]))
    keep = np.flatnonzero(np.concatenate((sign[:1], sign[change + 1])))
    return edges, keep, root_err, lost


def gaussian_signs(
    P: VectorMixture, Q: VectorMixture, epsilon: float, alpha: float, kernel: _Kernel
) -> tuple:
    """(edges, keep, root_err, lost) for Gaussian P and Q from the sign grid.

    A cell of the grid whose ends share a sign holds no root when |g| at its
    ends, less float error, exceeds its width times a bound on |g'|; one that
    fails is split in 8 until each part passes, changes sign or can tell no
    more (adjacent floats, or g within float error of 0 at both ends). A cell
    whose ends differ in sign is taken to hold one root, and all are bisected
    together; one with one end where g is exactly 0 is taken to hold just
    that root.

    ``root_err`` bounds what the roots misplace: each is bisected to
    adjacent floats inside a bracket holding no centre, so every component
    is monotone there and p + e^eps q is at most its sum at the two bracket
    ends; half the bracket width times that bounds the mass a misplaced root
    moves. ``lost`` adds, for each cell given up, the mass its sign can
    misplace. A component's mass 40 scales out, 0.5 erfc(40 / sqrt(2))
    < 1e-300, is 0.0 in float, so a sign past the grid misplaces less than
    1e-300 (1 + e^eps), which the quadrature's 8 ulp of (1 + e^eps) bounds.
    """
    # P's centres first: of two signed zeros the set keeps the first seen
    centers = sorted(set(P.centers[:, 0].tolist() + Q.centers[:, 0].tolist()))
    scale = P.scale
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
        # Off the centres (log p)' is minus a mean of psi(x - c) = (x - c) / s^2 over P's
        # centres, so |g'| <= max(psi(x - q_min) - psi(x - p_max), psi(x - p_min) -
        # psi(x - q_max)): affine on a cell [a, b], so largest at an end (from inside)
        x, k = np.concatenate((a, b)), np.repeat([1, -1], len(a)) / scale
        (q_lo, q_hi), (p_lo, p_hi) = ((x - np.array([[c.min()], [c.max()]])) * k * k
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

    # past a root an interval takes the sign of that bracket's right end
    edges = np.concatenate(([-np.inf], 0.5 * (a + b), [np.inf]))
    keep = np.flatnonzero(np.concatenate((values[2, :1] > 0.0, ~a_positive)))
    return edges, keep, root_err, lost
