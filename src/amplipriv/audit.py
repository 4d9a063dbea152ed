"""Empirical verification of amplification claims.

The composed mechanism's output law on a fixed dataset is a finite mixture of
noise distributions, one per supported mask matrix. This module enumerates
that mixture, splits it into the hidden/partially-observed decomposition that
drives the amplification proof, computes divergences between neighbor
mixtures, and compares them against the accountant's bounds. It also builds
the explicit no-amplification instance for the p_star = 1 regime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .accountant import AmplificationReport, amplify_fwl
from .datasets import CompleteDataset, MaskMatrix, NeighborPair, apply_mask
from .divergence import (
    METHOD_MC,
    DivergenceEstimate,
    MixtureSpec,
    _Z99,
    hockey_stick_mixture_1d,
)
from .errors import DimensionError, MechanismConsistencyError, UnsupportedMechanismError
from .missingness import (
    _KEY_MC,
    DatasetMechanism,
    MarAnchoredPattern,
    MechanismClass,
    classify,
    p_star,
    substream,
    tight_rho,
)
from .noise import (
    GAUSSIAN,
    LAPLACE,
    ComposedMechanism,
    NoiseMechanism,
    calibrate_gaussian,
    calibrate_laplace,
)
from .queries import make_standard_query, sensitivity_masked

_SUPPORT_LIMIT = 200_000


def _dataset_support(mech: DatasetMechanism, dataset: CompleteDataset):
    """Enumerate (MaskMatrix, probability) over the product support."""
    per_row = [
        list(mech.feature_mech.support(dataset.rows[i])) for i in range(dataset.n)
    ]
    size = math.prod(len(s) for s in per_row)
    if size > _SUPPORT_LIMIT:
        raise UnsupportedMechanismError(
            f"mask support has {size} elements; exact enumeration needs a finite, "
            "desk-scale support"
        )
    for combo in itertools.product(*per_row):
        prob = 1.0
        for _, p in combo:
            prob *= p
        yield MaskMatrix(tuple(m for m, _ in combo)), prob


@dataclass(frozen=True)
class MixtureDecomposition:
    """The hidden/observed split of the mask law for one neighbor pair.

    ``w0`` normalizes the masks that fully hide the differing record; it is
    identical for both datasets, which is exactly why the hidden part of the
    two output mixtures coincides. ``w1`` and ``w1p`` normalize the rest for
    the left and right dataset respectively.
    """

    p_star: float
    w0: dict
    w1: dict
    w1p: dict


def mixture_decomposition(
    missing: DatasetMechanism, pair: NeighborPair
) -> MixtureDecomposition:
    left, right = pair.left, pair.right
    if not isinstance(left, CompleteDataset) or not isinstance(right, CompleteDataset):
        raise DimensionError("decomposition operates on complete-data neighbor pairs")
    cls = classify(missing.feature_mech)
    if cls is MechanismClass.MNAR:
        raise UnsupportedMechanismError("decomposition requires an MCAR/MAR mechanism")
    i_star = pair.differing_index if pair.differing_index is not None else 0
    ps = p_star(missing)

    w0: dict = {}
    w1: dict = {}
    w1p: dict = {}
    hidden_right: dict = {}
    for mask, prob in _dataset_support(missing, left):
        key = mask.bits_tuple()
        if mask.rows[i_star].is_all_missing():
            if ps < 1.0:
                w0[key] = prob / (1.0 - ps)
        elif ps > 0.0:
            w1[key] = prob / ps
    for mask, prob in _dataset_support(missing, right):
        key = mask.bits_tuple()
        if mask.rows[i_star].is_all_missing():
            if ps < 1.0:
                hidden_right[key] = prob / (1.0 - ps)
        elif ps > 0.0:
            w1p[key] = prob / ps
    if w0 != hidden_right:
        raise MechanismConsistencyError(
            "hidden-mask tables differ between neighbors: the mechanism is not "
            "MAR as constructed"
        )
    return MixtureDecomposition(p_star=ps, w0=w0, w1=w1, w1p=w1p)


def composed_output_mixture(
    cm: ComposedMechanism, dataset: CompleteDataset
) -> MixtureSpec:
    """Output law of the composed mechanism as a 1-D noise mixture.

    Requires a scalar query output; components with bit-identical centers are
    merged, and the component list is sorted by center for determinism.
    """
    q = cm.noise.query
    if q.output_dim != 1:
        raise DimensionError(
            "exact mixture enumeration needs a 1-D query output; use Monte Carlo "
            "for vector outputs"
        )
    acc: dict = {}
    for mask, prob in _dataset_support(cm.missing, dataset):
        center = float(q(apply_mask(dataset, mask))[0])
        acc[center] = acc.get(center, 0.0) + prob
    comps = tuple(
        (w, cm.noise.family, center, cm.noise.scale)
        for center, w in sorted(acc.items())
        if w > 0.0
    )
    return MixtureSpec(comps)


@dataclass(frozen=True)
class VectorMixture:
    """Mixture of k-dimensional product noise around enumerated centers.

    The Monte Carlo audit path works at any output dimension, so composed
    mechanisms whose query returns a vector are estimated through this rather
    than the 1-D quadrature representation.
    """

    weights: np.ndarray
    centers: np.ndarray
    family: str
    scale: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        k = self.centers.shape[1]
        idx = rng.choice(len(self.weights), size=size, p=self.weights)
        out = self.centers[idx].copy()
        if self.family == LAPLACE:
            u = np.clip(rng.random((size, k)), 1e-300, 1.0 - 1e-16)
            out += np.where(
                u < 0.5,
                self.scale * np.log(2 * u),
                -self.scale * np.log(2 * (1 - u)),
            )
        else:
            out += self.scale * rng.standard_normal((size, k))
        return out

    def log_density(self, x: np.ndarray) -> np.ndarray:
        k = self.centers.shape[1]
        resid = x[:, None, :] - self.centers[None, :, :]  # (size, m, k)
        if self.family == LAPLACE:
            comp = -np.abs(resid).sum(axis=2) / self.scale - k * math.log(
                2.0 * self.scale
            )
        else:
            comp = -(resid * resid).sum(axis=2) / (2.0 * self.scale**2) - k * math.log(
                self.scale * math.sqrt(2.0 * math.pi)
            )
        comp = comp + np.log(self.weights)[None, :]
        peak = comp.max(axis=1)
        return peak + np.log(np.exp(comp - peak[:, None]).sum(axis=1))


def composed_vector_mixture(
    cm: ComposedMechanism, dataset: CompleteDataset
) -> VectorMixture:
    """Output law at any output dimension, for Monte Carlo estimation."""
    q = cm.noise.query
    acc: dict = {}
    for mask, prob in _dataset_support(cm.missing, dataset):
        center = tuple(float(v) for v in q(apply_mask(dataset, mask)))
        acc[center] = acc.get(center, 0.0) + prob
    items = sorted(acc.items())
    return VectorMixture(
        weights=np.array([w for _, w in items]),
        centers=np.array([c for c, _ in items]),
        family=cm.noise.family,
        scale=cm.noise.scale,
    )


def mc_delta_vector(
    P: VectorMixture, Q: VectorMixture, epsilon: float, n_samples: int, seed: int
) -> DivergenceEstimate:
    """Monte Carlo divergence between two vector noise mixtures (log-space)."""
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for the CI to mean anything")
    rng = substream(seed, _KEY_MC, 0)
    x = P.sample(rng, n_samples)
    log_p = P.log_density(x)
    log_q = Q.log_density(x)
    with np.errstate(over="ignore"):
        stat = np.clip(1.0 - np.exp(epsilon + log_q - log_p), 0.0, None)
    est = float(np.mean(stat))
    half = _Z99 * float(np.std(stat, ddof=1)) / math.sqrt(n_samples)
    return DivergenceEstimate(
        value=min(est, 1.0),
        method=METHOD_MC,
        epsilon_at=epsilon,
        ci=(max(est - half, 0.0), min(est + half, 1.0)),
        seed=seed,
    )


@dataclass(frozen=True)
class AuditRow:
    epsilon_base: float
    epsilon_eval: float
    bound: float
    empirical: float
    method: str
    tolerance: float
    verdict: str
    ci: Optional[tuple] = None


@dataclass(frozen=True)
class AuditTable:
    rows: tuple
    report: AmplificationReport

    @property
    def passed(self) -> bool:
        return all(r.verdict == "PASS" for r in self.rows)


def _recalibrate(template: NoiseMechanism, epsilon: float) -> NoiseMechanism:
    if template.family == LAPLACE:
        return calibrate_laplace(template.query, epsilon, template.bound_B)
    return calibrate_gaussian(
        template.query, epsilon, template.budget.delta, template.bound_B
    )


def verify_amplification(
    cm: ComposedMechanism,
    pair: NeighborPair,
    epsilons: Sequence[float],
    method: str = "exact",
    tol: float = 1e-9,
    n_samples: int = 100_000,
    seed: int = 0,
    claim: Optional[dict] = None,
) -> AuditTable:
    """Check the amplified budget against the measured divergence.

    Each entry of ``epsilons`` is a base budget: the mechanism is recalibrated
    at that epsilon, the accountant produces the amplified (epsilon', delta'),
    and the divergence between the two composed output mixtures is evaluated
    at epsilon'. PASS means the empirical value stays within the bound plus
    the method margin (10x the reported quadrature tolerance; for Monte Carlo
    a row fails only when the whole 99% interval sits above the bound).

    ``claim`` optionally replaces the accountant with a user-asserted
    {"epsilon": e, "delta": d} hypothesis, so claimed budgets can be audited
    and refuted.
    """
    if method not in ("exact", "mc"):
        raise ValueError("method must be 'exact' or 'mc'")
    ps = p_star(cm.missing)
    rho = tight_rho(cm.missing)
    bounds = sensitivity_masked(cm.noise.query, cm.noise.bound_B, rho)

    def one(eps_base: float):
        mech = _recalibrate(cm.noise, eps_base)
        report = amplify_fwl(
            eps_base, mech.budget.delta, ps, bounds, family=mech.family
        )
        if claim is not None:
            eps_eval = float(claim["epsilon"])
            bound = float(claim["delta"])
        else:
            eps_eval = report.amplified.epsilon
            bound = report.amplified.delta
        sub = ComposedMechanism(noise=mech, missing=cm.missing)
        if method == "exact":
            pm = composed_output_mixture(sub, pair.left)
            qm = composed_output_mixture(sub, pair.right)
            est = hockey_stick_mixture_1d(pm, qm, eps_eval, tol=tol)
            margin = 10.0 * est.tolerance
            verdict = "PASS" if est.value <= bound + margin else "FAIL"
        else:
            pv = composed_vector_mixture(sub, pair.left)
            qv = composed_vector_mixture(sub, pair.right)
            est = mc_delta_vector(pv, qv, eps_eval, n_samples=n_samples, seed=seed)
            verdict = "PASS" if est.ci[0] <= bound else "FAIL"
        row = AuditRow(
            epsilon_base=float(eps_base),
            epsilon_eval=eps_eval,
            bound=bound,
            empirical=est.value,
            method=est.method,
            tolerance=est.tolerance if est.tolerance is not None else float("nan"),
            verdict=verdict,
            ci=est.ci,
        )
        return row, report

    results = [one(e) for e in epsilons]
    rows = tuple(r for r, _ in results)
    last_report = results[-1][1] if results else None
    return AuditTable(rows=rows, report=last_report)


# --- the p_star = 1 tightness instance ----------------------------------------


@dataclass(frozen=True)
class TightnessResult:
    composed: ComposedMechanism
    base_mechanism: NoiseMechanism
    pair: NeighborPair
    p_star: float
    equality_gap: float
    epsilon_at: float


def tightness_counterexample(
    epsilon: float, delta: float, B: float = 0.5, tol: float = 1e-12
) -> TightnessResult:
    """Build the no-amplification instance and measure the divergence gap.

    The mechanism always observes the coordinate the query reads, the query
    reads exactly that coordinate of the differing record, and the masks it
    draws depend only on that observed value (so the mechanism is MAR with
    p_star = 1). Masking then never changes the released distribution, and the
    composed and base divergences coincide.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    n, d, j0 = 1, 2, 0
    read_matrix = np.zeros((1, d))
    read_matrix[0, j0] = 1.0
    query = make_standard_query("linear", matrices=[read_matrix], n=n, d=d)
    mech = calibrate_gaussian(query, epsilon, delta, B)

    # candidates all observe feature j0; which one fires depends on its value
    missing = DatasetMechanism(
        MarAnchoredPattern(
            d=d,
            anchor=(j0,),
            q_all=0.0,
            candidates=[(0, 1), (0, 0)],
            score=lambda av: (1.0, 0.0) if av[0] < 0 else (0.0, 1.0),
        ),
        n=n,
    )
    composed = ComposedMechanism(noise=mech, missing=missing)

    left = CompleteDataset(((-B, 0.25),), bound_B=B)
    right = CompleteDataset(((B, 0.25),), bound_B=B)
    pair = NeighborPair(left, right, 0)

    pm = composed_output_mixture(composed, left)
    qm = composed_output_mixture(composed, right)
    base_p = MixtureSpec(((1.0, GAUSSIAN, float(query(left.as_incomplete())[0]), mech.scale),))
    base_q = MixtureSpec(((1.0, GAUSSIAN, float(query(right.as_incomplete())[0]), mech.scale),))

    d_composed = hockey_stick_mixture_1d(pm, qm, epsilon, tol=tol)
    d_base = hockey_stick_mixture_1d(base_p, base_q, epsilon, tol=tol)
    return TightnessResult(
        composed=composed,
        base_mechanism=mech,
        pair=pair,
        p_star=p_star(missing),
        equality_gap=abs(d_composed.value - d_base.value),
        epsilon_at=epsilon,
    )
