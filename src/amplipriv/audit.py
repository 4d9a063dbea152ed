"""Empirical verification of amplification claims.

The composed mechanism's output law on a fixed dataset is a finite mixture of
noise distributions, one per supported mask matrix. This module enumerates
that mixture, computes divergences between neighbor mixtures, and compares
them against the accountant's bounds. It also builds the explicit
no-amplification instance for the p_star = 1 regime.

The mask support is enumerated as arrays: an (M, n, d) bool stack of mask
matrices and their M probabilities. The query evaluates the whole stack in
one ``FwlQuery.evaluate_batch`` call, so no per-mask dataset is built. The
centre law this yields does not depend on epsilon, only the noise scale does,
so an audit builds each dataset's centre law once and reuses it at every grid
point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .accountant import AmplificationReport, amplify_fwl
from .datasets import CompleteDataset, Mask, MaskMatrix, NeighborPair
from .datasets import apply_mask  # noqa: F401  (patched by bench/tracing.py, its only reader)
from .divergence import VectorMixture, check_samples, hockey_stick_mixture_1d, mc_delta_vector
from .errors import DimensionError, UnsupportedMechanismError
from .missingness import (
    DatasetMechanism,
    MarAnchoredPattern,
    p_star,
    tight_rho,
)
from .noise import GAUSSIAN, ComposedMechanism, NoiseMechanism, calibrate, calibrate_gaussian
from .queries import make_standard_query, sensitivity_masked

_SUPPORT_LIMIT = 200_000


def _support_arrays(mech: DatasetMechanism, dataset: CompleteDataset):
    """The product mask support as an (M, n, d) bool array, True where a cell
    is missing, and its (M,) probabilities.

    Mask matrices come in ``itertools.product`` order over the rows' supports,
    and each probability is the running product of the row probabilities in
    row order. The size is checked before anything is allocated, reading each
    row's support at most one past the limit and no row once the product passes it.
    """
    if dataset.n != mech.n or dataset.d != mech.d:
        raise DimensionError("dataset shape does not match the mechanism")
    per_row, size = [], 1
    for row in dataset.rows:
        per_row.append(list(itertools.islice(mech.feature_mech.support(row), _SUPPORT_LIMIT + 1)))
        size *= len(per_row[-1])
        if size > _SUPPORT_LIMIT:
            exact = len(per_row) == dataset.n and len(per_row[-1]) <= _SUPPORT_LIMIT
            raise UnsupportedMechanismError(
                f"mask support has {size if exact else f'more than {_SUPPORT_LIMIT}'} elements; "
                "exact enumeration needs a finite, desk-scale support"
            )
    masks = np.empty((size, dataset.n, dataset.d), dtype=bool)
    probs = np.ones(size)
    # row i's choice for each mask matrix, the last row varying fastest
    choices = np.unravel_index(np.arange(size), [len(s) for s in per_row])
    for i, (support, choice) in enumerate(zip(per_row, choices)):
        masks[:, i] = np.array([m.bits for m, _ in support], dtype=bool)[choice]
        probs *= np.array([p for _, p in support])[choice]
    return masks, probs


def _dataset_support(mech: DatasetMechanism, dataset: CompleteDataset):
    """Enumerate (MaskMatrix, probability) over the product support. The audit
    reads ``_support_arrays``; bench/tracing.py, which patches this, is the
    only reader."""
    masks, probs = _support_arrays(mech, dataset)
    for bits, prob in zip(masks.astype(int).tolist(), probs.tolist()):
        yield MaskMatrix(tuple(Mask(tuple(r)) for r in bits)), prob


def _centre_law(cm: ComposedMechanism, dataset: CompleteDataset) -> list:
    """(centre tuple, weight) pairs of the output law over the mask support:
    bit-identical centres merged in enumeration order, sorted by centre, zero
    weights dropped."""
    masks, probs = _support_arrays(cm.missing, dataset)
    values = np.where(masks, 0.0, dataset.to_array())
    centres = cm.noise.query.evaluate_batch(values, masks)
    acc: dict = {}
    for center, prob in zip(map(tuple, centres.tolist()), probs.tolist()):
        acc[center] = acc.get(center, 0.0) + prob
    return [(c, w) for c, w in sorted(acc.items()) if w > 0.0]


def _require_scalar(cm: ComposedMechanism, prefix: str = "") -> None:
    if cm.noise.query.output_dim != 1:
        raise DimensionError(
            f"{prefix}exact mixture enumeration needs a 1-D query output; use Monte Carlo "
            "for vector outputs"
        )


def _mixture(law: list, mech: NoiseMechanism) -> VectorMixture:
    return VectorMixture(
        weights=np.array([w for _, w in law]),
        centers=np.array([c for c, _ in law]),
        family=mech.family,
        scale=mech.scale,
    )


def composed_output_mixture(
    cm: ComposedMechanism, dataset: CompleteDataset
) -> VectorMixture:
    """Output law of the composed mechanism as a 1-D noise mixture."""
    _require_scalar(cm)
    return _mixture(_centre_law(cm, dataset), cm.noise)


def composed_vector_mixture(
    cm: ComposedMechanism, dataset: CompleteDataset
) -> VectorMixture:
    """Output law at any output dimension, for Monte Carlo estimation."""
    return _mixture(_centre_law(cm, dataset), cm.noise)


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

    Recalibration changes only the noise scale, so the centre laws of
    ``pair.left`` and ``pair.right`` are built once, before the grid.
    """
    if method not in ("exact", "mc"):
        raise ValueError("method: must be 'exact' or 'mc'")
    if method == "exact":
        _require_scalar(cm, "method: ")
    check_samples(n_samples)  # whatever the method, as the scenario's audit.samples is
    epsilons = list(epsilons)
    laws = [_centre_law(cm, ds) for ds in (pair.left, pair.right)] if epsilons else []
    ps = p_star(cm.missing)
    rho = tight_rho(cm.missing)
    bounds = sensitivity_masked(cm.noise.query, cm.noise.bound_B, rho)

    noise = cm.noise

    def one(eps_base: float):
        mech = calibrate(noise.query, noise.family, eps_base, noise.budget.delta, noise.bound_B)
        report = amplify_fwl(
            eps_base, mech.budget.delta, ps, bounds, family=mech.family
        )
        if claim is not None:
            eps_eval = float(claim["epsilon"])
            bound = float(claim["delta"])
        else:
            eps_eval = report.amplified.epsilon
            bound = report.amplified.delta
        pm, qm = (_mixture(law, mech) for law in laws)
        if method == "exact":
            est = hockey_stick_mixture_1d(pm, qm, eps_eval, tol=tol)
            margin = 10.0 * est.tolerance
            verdict = "PASS" if est.value <= bound + margin else "FAIL"
        else:
            est = mc_delta_vector(pm, qm, eps_eval, n_samples=n_samples, seed=seed)
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
        raise ValueError(f"epsilon: must lie in (0, 1], got {epsilon!r}")
    if not 0 < delta < 1:
        raise ValueError(f"delta: must lie in (0, 1), got {delta!r}")
    n, d, j0 = 1, 2, 0
    read_matrix = np.zeros((1, d))
    read_matrix[0, j0] = 1.0
    query = make_standard_query("linear", matrices=[read_matrix], n=n, d=d)
    mech = calibrate_gaussian(query, epsilon, delta, B)

    # candidates all observe feature j0: (0, 1) fires when its value is below 0,
    # (0, 0) from 0 up
    missing = DatasetMechanism(
        MarAnchoredPattern(
            anchor=(j0,),
            q_all=0.0,
            candidates=[(0, 1), (0, 0)],
            thresholds=[[0.0]],
            score_table={"0": [1.0, 0.0], "1": [0.0, 1.0]},
        ),
        n=n,
    )
    composed = ComposedMechanism(noise=mech, missing=missing)

    left = CompleteDataset(((-B, 0.25),), bound_B=B)
    right = CompleteDataset(((B, 0.25),), bound_B=B)
    pair = NeighborPair(left, right)

    pm = composed_output_mixture(composed, left)
    qm = composed_output_mixture(composed, right)
    base_p, base_q = (
        VectorMixture(weights=[1.0], centers=[query(ds.as_incomplete())], family=GAUSSIAN,
                      scale=mech.scale)
        for ds in (left, right)
    )

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
