"""Calibrated Laplace and Gaussian mechanisms and their composition with a
missing-data mechanism: draw mask, apply it, run the query, add noise.

Calibration always uses the complete-data constant; amplification from
missingness is accounted afterwards, never re-calibrated away. Each noise
family is one entry of ``FAMILIES``: a unit draw (inverse CDF for Laplace,
Box-Muller pairs for Gaussian) on a counter-based uniform stream, so outputs
are bit-reproducible across platforms for a fixed seed, plus the
log-normaliser, penalty and tail mass that every density and divergence in
the package reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .datasets import CompleteDataset, IncompleteDataset, MaskMatrix, apply_mask
from .errors import BudgetRangeError, DegenerateQueryError, DimensionError
from .missingness import DatasetMechanism, sample_mask, substream, _KEY_NOISE
from .queries import FwlQuery, sensitivity_complete

# smallest multiplicative margin that keeps the strict inequality on the
# Gaussian constant after a decimal serialization round trip
GAUSSIAN_MARGIN = 1.0 + 1e-6

LAPLACE = "laplace"
GAUSSIAN = "gaussian"

_PAIRS = 1 << 14  # Box-Muller pairs per sine buffer: 128 kB


def _laplace_draw(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    # inverse CDF in place, one log per coordinate: log(2u) below 1/2,
    # -log(2(1 - u)) from 1/2 up
    u = rng.random(shape)
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
    upper = u >= 0.5
    np.subtract(1.0, u, out=u, where=upper)
    u *= 2.0
    np.log(u, out=u)
    return np.negative(u, out=u, where=upper)


def _gaussian_draw(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    # Box-Muller in place: all radii are drawn, into the second half, before
    # all angles, into the first; then r cos(theta) fills the first half and
    # r sin(theta) the second, through a sine buffer of at most _PAIRS
    k = math.prod(shape)
    pairs = (k + 1) // 2
    out = np.empty(2 * pairs)
    theta, r = out[:pairs], out[pairs:]
    rng.random(out=r)
    np.clip(r, 1e-300, 1.0, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    rng.random(out=theta)
    theta *= 2.0 * math.pi
    sin = np.empty(min(pairs, _PAIRS))
    for i in range(0, pairs, _PAIRS):
        t, rb = theta[i : i + _PAIRS], r[i : i + _PAIRS]
        s = np.sin(t, out=sin[: len(t)])
        np.cos(t, out=t)
        t *= rb
        rb *= s
    return out[:k].reshape(shape)


def _half_square(z: np.ndarray) -> np.ndarray:
    z *= z
    z *= 0.5
    return z


_erfc = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class NoiseFamily:
    """One noise family at unit scale.

    A coordinate at centre c and scale s has log-density
    ``-log_norm(s) - penalty((x - c) / s)``. ``penalty`` works in place on a
    float array; ``tail(|z|)`` is the mass beyond |z| on the far side of the
    centre, computed directly so tail masses far below 1e-16 keep their digits.
    ``score(z)``, the penalty's slope, is affine on each side of 0, from the right at 0.

    ``draw(rng, shape)`` returns a fresh array that the caller owns and may
    overwrite. Laplace reads one uniform per coordinate, in C order; the
    Gaussian, for k coordinates, reads all (k + 1) // 2 radii, then as many
    angles. Released values and Monte Carlo reports depend on that order.
    """

    draw: Callable[[np.random.Generator, tuple], np.ndarray]
    log_norm: Callable[[float], float]
    penalty: Callable[[np.ndarray], np.ndarray]
    tail: Callable[[np.ndarray], np.ndarray]
    score: Callable[[np.ndarray], np.ndarray]


FAMILIES = {
    GAUSSIAN: NoiseFamily(
        draw=_gaussian_draw,
        log_norm=lambda s: math.log(s * math.sqrt(2.0 * math.pi)),
        penalty=_half_square,
        tail=lambda z: 0.5 * _erfc(z / math.sqrt(2.0)).astype(float),
        score=lambda z: z,
    ),
    LAPLACE: NoiseFamily(
        draw=_laplace_draw,
        log_norm=lambda s: math.log(2.0 * s),
        penalty=lambda z: np.abs(z, out=z),
        tail=lambda z: 0.5 * np.exp(-z),
        score=lambda z: np.where(z >= 0.0, 1.0, -1.0),
    ),
}


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:
            raise BudgetRangeError(
                f"epsilon: must be finite and nonnegative, got {self.epsilon!r}"
            )
        if not 0 <= self.delta <= 1:
            raise BudgetRangeError(f"delta: must lie in [0, 1], got {self.delta!r}")


@dataclass(frozen=True)
class NoiseMechanism:
    """A query plus calibrated additive noise of one family."""

    query: FwlQuery
    family: str
    scale: float
    budget: PrivacyBudget
    C_used: float
    bound_B: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family '{self.family}'")
        if not 0 < self.scale < math.inf:  # a NaN scale is refused too
            raise ValueError(f"scale: must be finite and positive, got {self.scale!r}")


@dataclass(frozen=True)
class ComposedMechanism:
    """Mask draw, mask application, query, then noise, in that order."""

    noise: NoiseMechanism
    missing: DatasetMechanism

    def __post_init__(self):
        if (self.missing.n, self.missing.d) != (self.noise.query.n, self.noise.query.d):
            raise DimensionError("missing mechanism shape must match the query")


def gaussian_noise_factor(delta: float) -> float:
    """Margin-adjusted c with c > sqrt(2 ln(1.25/delta)) strictly."""
    if not 0 < delta <= 1:
        raise BudgetRangeError(f"delta: must lie in (0, 1], got {delta!r}")
    return GAUSSIAN_MARGIN * math.sqrt(2.0 * math.log(1.25 / delta))


def calibrate(q: FwlQuery, family: str, epsilon: float, delta: float, B: float) -> NoiseMechanism:
    """The ``family`` mechanism for ``q`` at (epsilon, delta), on the
    complete-data constant C. Laplace: scale b = C / epsilon, pure epsilon-DP,
    delta not read. Gaussian: scale sigma = c * C / epsilon, whose guarantee
    needs epsilon in (0, 1]."""
    if family == LAPLACE:
        eps_ok, rule = epsilon > 0, "must be positive"
    elif family == GAUSSIAN:
        eps_ok, rule = 0 < epsilon <= 1, "must lie in (0, 1] for the Gaussian guarantee"
    else:
        raise ValueError(f"family: unknown noise family {family!r}")
    if not eps_ok:
        raise BudgetRangeError(f"epsilon: {rule}, got {epsilon!r}")
    c = sensitivity_complete(q, B)
    if c == 0.0:
        raise DegenerateQueryError(
            "query has zero sensitivity; refusing a noiseless constant release"
        )
    delta, factor = (0.0, 1.0) if family == LAPLACE else (delta, gaussian_noise_factor(delta))
    return NoiseMechanism(query=q, family=family, scale=factor * c / epsilon,
                          budget=PrivacyBudget(epsilon, delta), C_used=c, bound_B=B)


def calibrate_laplace(q: FwlQuery, epsilon: float, B: float) -> NoiseMechanism:
    """``calibrate`` for the Laplace family."""
    return calibrate(q, LAPLACE, epsilon, 0.0, B)


def calibrate_gaussian(q: FwlQuery, epsilon: float, delta: float, B: float) -> NoiseMechanism:
    """``calibrate`` for the Gaussian family."""
    return calibrate(q, GAUSSIAN, epsilon, delta, B)


def run_mechanism(m: NoiseMechanism, data: IncompleteDataset, seed: int) -> np.ndarray:
    """Release f(data) plus i.i.d. noise of the declared family and scale."""
    center = m.query(data)
    rng = substream(seed, _KEY_NOISE, 0)
    return center + m.scale * FAMILIES[m.family].draw(rng, (m.query.output_dim,))


@dataclass(frozen=True)
class ComposedRun:
    output: np.ndarray
    mask_used: MaskMatrix


def run_composed(cm: ComposedMechanism, data: CompleteDataset, seed: int) -> ComposedRun:
    """One draw of the composed mechanism.

    The drawn mask is an internal variable of the privacy analysis; the
    release record only ever contains the noised output, and the mask in the
    returned struct exists for audit tooling behind an explicit flag.
    """
    mask = sample_mask(cm.missing, data, seed)
    masked = apply_mask(data, mask)
    out = run_mechanism(cm.noise, masked, seed)
    return ComposedRun(output=out, mask_used=mask)


def release_record(
    m: NoiseMechanism,
    output: np.ndarray,
    seed: int,
    mask: Optional[MaskMatrix] = None,
    audit: bool = False,
) -> dict:
    """JSON-ready release; audit mode is the only way the mask leaves the run.
    Nothing derived from ``seed`` is published: the noise is reproducible
    from it, so even a hash of it would let a brute force over seeds give
    back the noiseless value."""
    record = {
        "output": [repr(float(v)) for v in np.asarray(output).reshape(-1)],
        "epsilon_base": repr(m.budget.epsilon),
        "delta_base": repr(m.budget.delta),
        "family": m.family,
        "scale": repr(m.scale),
    }
    if audit:
        if mask is None:
            raise ValueError("audit mode requires the drawn mask")
        record["mask"] = [list(r.bits) for r in mask.rows]
    return record

