"""Empirical verification of amplification claims.

The composed mechanism's output law on a fixed dataset is a finite mixture of
noise distributions, one per centre the query takes under the mask law. This
module builds that mixture, computes divergences between neighbor mixtures,
and compares them against the accountant's bounds. It also builds the explicit
no-amplification instance for the p_star = 1 regime.

The query's ``batch`` is row-additive (see ``FwlQuery``) and the rows' masks
are independent, so the centre law is the convolution of row laws. Row i's
law holds row i's term under each mask of its support, from one ``batch``
call on an (R_i, n, d) stack with every other row NA. The running law takes
each row in order and merges equal centres by one sort, so its size follows
the distinct centres, not the product of the row supports; ``post`` maps the
last centres. An MCAR law ignores the data, so one row's support is read once
per audit and serves every row of both neighbours. The centre law does not
depend on epsilon, only the noise scale does, so an audit builds each
dataset's centre law once and reuses it at every grid point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .accountant import AmplificationReport, amplify_fwl
from .datasets import CompleteDataset, Mask, MaskMatrix, NeighborPair
from .datasets import apply_mask  # noqa: F401  (patched by bench/tracing.py, its only reader)
from .divergence import VectorMixture, check_samples, hockey_stick_mixture_1d, mc_delta_vector
from .errors import DimensionError, UnsupportedMechanismError
from .missingness import DatasetMechanism, MarAnchoredPattern, MechanismClass, p_star, tight_rho
from .noise import GAUSSIAN, ComposedMechanism, calibrate, calibrate_gaussian
from .queries import make_standard_query, sensitivity_masked

# the most terms one row of the convolution may form: the running law's
# distinct centres times the masks of the row's support, checked before the
# row is read into arrays; so also the most masks one row's support may have
_SUPPORT_LIMIT = 200_000


def _row_supports(mech: DatasetMechanism, datasets: Sequence[CompleteDataset]) -> list:
    """Per dataset, each row's mask support as (bits, probs): an (R, d) bool
    array, True where a cell is missing, and the R probabilities.

    An MCAR law ignores the row, so one row's support is read and stands for
    every row of every dataset. A support the mechanism states too large is
    not read, and any other is read at most one past the limit.
    """
    if any(ds.n != mech.n or ds.d != mech.d for ds in datasets):
        raise DimensionError("dataset shape does not match the mechanism")
    fm = mech.feature_mech
    read = 0 if (fm.support_size() or 0) > _SUPPORT_LIMIT else _SUPPORT_LIMIT + 1

    def table(row):
        support = list(itertools.islice(fm.support(row), read))
        if not read or len(support) > _SUPPORT_LIMIT:
            raise UnsupportedMechanismError(f"mask support has more than {_SUPPORT_LIMIT} elements;"
                                            " the exact audit reads each row's support whole")
        return (np.array([m.bits for m, _ in support], bool).reshape(-1, mech.d),
                np.array([p for _, p in support]))

    if fm.mechanism_class is MechanismClass.MCAR:
        shared = table(datasets[0].rows[0])
        return [[shared] * ds.n for ds in datasets]
    return [[table(row) for row in ds.rows] for ds in datasets]


def _dataset_support(mech: DatasetMechanism, dataset: CompleteDataset):
    """Enumerate (MaskMatrix, probability) over the product of the rows'
    supports, in ``itertools.product`` order, each probability the product of
    the row probabilities in row order. The audit convolves row laws instead;
    bench/tracing.py, which patches this, is the only reader."""
    rows = [[(Mask(tuple(b)), p) for b, p in zip(bits.astype(int).tolist(), probs.tolist())]
            for bits, probs in _row_supports(mech, [dataset])[0]]
    for combo in itertools.product(*rows):
        yield MaskMatrix(tuple(m for m, _ in combo)), math.prod(p for _, p in combo)


def _merge(centres: np.ndarray, weights: np.ndarray) -> tuple:
    """Weights and centres with equal centres (-0.0 and 0.0 too) merged, sorted
    by centre, weights <= 0 dropped: each keeps the first's bits, and the
    weights add in the given order."""
    order = np.lexsort(centres.T[::-1])  # stable: equal centres keep their order
    first = np.ones(len(order), dtype=bool)
    first[1:] = (centres[order[1:]] != centres[order[:-1]]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    weights = np.bincount(inverse, weights=weights)
    return weights[weights > 0.0], centres[order[first]][weights > 0.0]


def _row_law(query, data: np.ndarray, i: int, support: tuple) -> tuple:
    """Row i's law, merged: the ``batch`` term of row i under each mask of its
    support, on stacks with every other row NA of at most about
    ``_SUPPORT_LIMIT`` cells each."""
    bits, probs = support
    step, terms = max(1, _SUPPORT_LIMIT // data.size), []
    for chunk in np.split(bits, range(step, len(bits), step)):
        na = np.ones((len(chunk), *data.shape), dtype=bool)
        na[:, i] = chunk
        terms.append(query.batch(np.where(na, 0.0, data), na))
    return _merge(np.concatenate(terms).astype(float), probs)


def _centre_law(query, dataset: CompleteDataset, supports: list) -> tuple:
    """Weights and centres of the output law, sorted by centre, weights <= 0
    dropped: the row laws of ``supports`` convolved in row order, each weight
    the running one times the row's, equal centres merged after every row as
    ``_merge`` does, then ``post`` applied and equal centres merged again."""
    data, law = dataset.to_array(), None
    for i, support in enumerate(supports):
        size = 1 if law is None else len(law[0])
        if size * len(support[1]) > _SUPPORT_LIMIT:
            raise UnsupportedMechanismError(
                f"the centre law has {size} distinct centres before row {i}, whose support "
                f"has {len(support[1])} masks: {size * len(support[1])} terms, more than "
                f"{_SUPPORT_LIMIT}")
        weights, centres = row = _row_law(query, data, i, support)
        law = row if law is None else _merge(
            (law[1][:, None] + centres).reshape(-1, centres.shape[1]),
            np.outer(law[0], weights).ravel())
    if query.post is not None:
        law = _merge(np.asarray(query.post(law[1]), dtype=float), law[0])
    return law


def _require_scalar(cm: ComposedMechanism, prefix: str = "") -> None:
    if cm.noise.query.output_dim != 1:
        raise DimensionError(
            f"{prefix}the exact audit needs a 1-D query output; use Monte Carlo "
            "for vector outputs"
        )


def composed_output_mixture(cm: ComposedMechanism, dataset: CompleteDataset) -> VectorMixture:
    """Output law of the composed mechanism as a 1-D noise mixture."""
    _require_scalar(cm)
    return composed_vector_mixture(cm, dataset)


def composed_vector_mixture(cm: ComposedMechanism, dataset: CompleteDataset) -> VectorMixture:
    """Output law at any output dimension, for Monte Carlo estimation."""
    law = _centre_law(cm.noise.query, dataset, _row_supports(cm.missing, [dataset])[0])
    return VectorMixture(*law, cm.noise.family, cm.noise.scale)


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
    ``pair.left`` and ``pair.right`` are built once, before the grid, from
    row supports read once: one row's when the mechanism is MCAR.
    """
    if method not in ("exact", "mc"):
        raise ValueError("method: must be 'exact' or 'mc'")
    if method == "exact":
        _require_scalar(cm, "method: ")
    # whatever the method, as the scenario's audit.samples is
    check_samples(n_samples, cm.noise.query.output_dim)
    epsilons, datasets = list(epsilons), (pair.left, pair.right)
    supports = _row_supports(cm.missing, datasets) if epsilons else []
    laws = [_centre_law(cm.noise.query, ds, s) for ds, s in zip(datasets, supports)]
    ps, noise = p_star(cm.missing), cm.noise
    bounds = sensitivity_masked(noise.query, noise.bound_B, tight_rho(cm.missing))

    def one(eps_base: float):
        mech = calibrate(noise.query, noise.family, eps_base, noise.budget.delta, noise.bound_B)
        report = amplify_fwl(eps_base, mech.budget.delta, ps, bounds, family=mech.family)
        if claim is not None:
            eps_eval, bound = float(claim["epsilon"]), float(claim["delta"])
        else:
            eps_eval, bound = report.amplified.epsilon, report.amplified.delta
        pm, qm = (VectorMixture(*law, mech.family, mech.scale) for law in laws)
        if method == "exact":
            est = hockey_stick_mixture_1d(pm, qm, eps_eval, tol=tol)
            verdict = "PASS" if est.value <= bound + 10.0 * est.tolerance else "FAIL"
        else:
            est = mc_delta_vector(pm, qm, eps_eval, n_samples=n_samples, seed=seed)
            verdict = "PASS" if est.ci[0] <= bound else "FAIL"
        tolerance = est.tolerance if est.tolerance is not None else float("nan")
        return AuditRow(epsilon_base=float(eps_base), epsilon_eval=eps_eval, bound=bound,
                        empirical=est.value, method=est.method, tolerance=tolerance,
                        verdict=verdict, ci=est.ci), report

    results = [one(e) for e in epsilons]
    rows = tuple(r for r, _ in results)
    last_report = results[-1][1] if results else None
    return AuditTable(rows=rows, report=last_report)


# --- the p_star = 1 tightness instance ----------------------------------------


@dataclass(frozen=True)
class TightnessResult:
    p_star: float
    equality_gap: float


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
    missing = DatasetMechanism(MarAnchoredPattern(
        anchor=(j0,), q_all=0.0, candidates=[(0, 1), (0, 0)], thresholds=[[0.0]],
        score_table={"0": [1.0, 0.0], "1": [0.0, 1.0]}), n=n)
    composed = ComposedMechanism(noise=mech, missing=missing)

    left = CompleteDataset(((-B, 0.25),), bound_B=B)
    right = CompleteDataset(((B, 0.25),), bound_B=B)
    pm, qm = (composed_output_mixture(composed, ds) for ds in (left, right))
    base_p, base_q = (
        VectorMixture(weights=[1.0], centers=[query(ds.as_incomplete())], family=GAUSSIAN,
                      scale=mech.scale)
        for ds in (left, right)
    )

    d_composed = hockey_stick_mixture_1d(pm, qm, epsilon, tol=tol)
    d_base = hockey_stick_mixture_1d(base_p, base_q, epsilon, tol=tol)
    return TightnessResult(p_star=p_star(missing),
                           equality_gap=abs(d_composed.value - d_base.value))
