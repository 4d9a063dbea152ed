"""Calibrated Laplace and Gaussian mechanisms and their composition with a
missing-data mechanism: draw mask, apply it, run the query, add noise.

Calibration always uses the complete-data constant; amplification from
missingness is accounted afterwards, never re-calibrated away. Noise sampling
goes through explicit inverse-CDF (Laplace) and pair-transform (Gaussian)
routines on a counter-based uniform stream so outputs are bit-reproducible
across platforms for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:
            raise BudgetRangeError(
                f"epsilon must be finite and nonnegative, got {self.epsilon!r}"
            )
        if not 0 <= self.delta <= 1:
            raise BudgetRangeError("delta must lie in [0, 1]")


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
        if self.family not in (LAPLACE, GAUSSIAN):
            raise ValueError(f"unknown noise family '{self.family}'")
        if self.scale <= 0:
            raise ValueError("noise scale must be positive")


@dataclass(frozen=True)
class ComposedMechanism:
    """Mask draw, mask application, query, then noise, in that order."""

    noise: NoiseMechanism
    missing: DatasetMechanism

    def __post_init__(self):
        if (
            self.missing.n != self.noise.query.n
            or self.missing.d != self.noise.query.d
        ):
            raise DimensionError("missing mechanism shape must match the query")


def calibrate_laplace(q: FwlQuery, epsilon: float, B: float) -> NoiseMechanism:
    """Laplace scale b = C_1 / epsilon; pure epsilon-DP on complete data."""
    if epsilon <= 0:
        raise BudgetRangeError("epsilon must be positive")
    c1 = sensitivity_complete(q, B)
    if c1 == 0.0:
        raise DegenerateQueryError(
            "query has zero sensitivity; refusing a noiseless constant release"
        )
    return NoiseMechanism(
        query=q,
        family=LAPLACE,
        scale=c1 / epsilon,
        budget=PrivacyBudget(epsilon, 0.0),
        C_used=c1,
        bound_B=B,
    )


def gaussian_noise_factor(delta: float) -> float:
    """Margin-adjusted c with c > sqrt(2 ln(1.25/delta)) strictly."""
    if not 0 < delta <= 1:
        raise BudgetRangeError("delta must lie in (0, 1]")
    return GAUSSIAN_MARGIN * math.sqrt(2.0 * math.log(1.25 / delta))


def calibrate_gaussian(
    q: FwlQuery, epsilon: float, delta: float, B: float
) -> NoiseMechanism:
    """Gaussian scale sigma = c * C_2 / epsilon; the guarantee needs eps in (0, 1]."""
    if not 0 < epsilon <= 1:
        raise BudgetRangeError("the Gaussian guarantee is stated for epsilon in (0, 1]")
    c2 = sensitivity_complete(q, B)
    if c2 == 0.0:
        raise DegenerateQueryError(
            "query has zero sensitivity; refusing a noiseless constant release"
        )
    return NoiseMechanism(
        query=q,
        family=GAUSSIAN,
        scale=gaussian_noise_factor(delta) * c2 / epsilon,
        budget=PrivacyBudget(epsilon, delta),
        C_used=c2,
        bound_B=B,
    )


def _laplace_noise(rng: np.random.Generator, k: int, scale: float) -> np.ndarray:
    u = np.clip(rng.random(k), 1e-300, 1.0 - 1e-16)
    return np.where(u < 0.5, scale * np.log(2.0 * u), -scale * np.log(2.0 * (1.0 - u)))


def _gaussian_noise(rng: np.random.Generator, k: int, scale: float) -> np.ndarray:
    pairs = (k + 1) // 2
    u1 = np.clip(rng.random(pairs), 1e-300, 1.0)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:k]
    return scale * z


def run_mechanism(m: NoiseMechanism, data: IncompleteDataset, seed: int) -> np.ndarray:
    """Release f(data) plus i.i.d. noise of the declared family and scale."""
    center = m.query(data)
    rng = substream(seed, _KEY_NOISE, 0)
    if m.family == LAPLACE:
        noise = _laplace_noise(rng, m.query.output_dim, m.scale)
    else:
        noise = _gaussian_noise(rng, m.query.output_dim, m.scale)
    return center + noise


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


def output_density(m: NoiseMechanism, data: IncompleteDataset, point) -> float:
    """Exact product density of the mechanism's output at a point."""
    return math.exp(log_output_density(m, data, point))


def log_output_density(m: NoiseMechanism, data: IncompleteDataset, point) -> float:
    center = m.query(data)
    t = np.asarray(point, dtype=float).reshape(-1)
    if t.shape != center.shape:
        raise DimensionError("point dimension does not match the query output")
    resid = t - center
    if m.family == LAPLACE:
        return float(
            -np.sum(np.abs(resid)) / m.scale - len(t) * math.log(2.0 * m.scale)
        )
    return float(
        -np.sum(resid * resid) / (2.0 * m.scale**2)
        - len(t) * math.log(m.scale * math.sqrt(2.0 * math.pi))
    )


def release_record(
    m: NoiseMechanism,
    output: np.ndarray,
    seed: int,
    mask: Optional[MaskMatrix] = None,
    audit: bool = False,
) -> dict:
    """JSON-ready release; audit mode is the only way the mask leaves the run."""
    commitment = hashlib.sha256(str(int(seed)).encode()).hexdigest()
    record = {
        "output": [repr(float(v)) for v in np.asarray(output).reshape(-1)],
        "epsilon_base": repr(m.budget.epsilon),
        "delta_base": repr(m.budget.delta),
        "family": m.family,
        "scale": repr(m.scale),
        "seed_commitment": commitment,
    }
    if audit:
        if mask is None:
            raise ValueError("audit mode requires the drawn mask")
        record["mask"] = [list(r.bits) for r in mask.rows]
    return record


def release_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2)
