"""Command-line front end: run calibrate/amplify/audit/simulate scenarios from
JSON config files and write machine-readable reports.

Every randomized step draws from the single mandatory scenario seed, fanned
out through labeled sub-streams, so a scenario file plus its seed reproduces
every report byte for byte. Exit codes: 0 success, 1 error, 2 for an audit
verdict FAIL (the math disagreed with the claimed bound, which CI pipelines
should treat differently from a crash).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .accountant import amplify_fwl
from .audit import tightness_counterexample, verify_amplification
from .datasets import CompleteDataset, is_neighbor, load_dataset_csv
from .divergence import MC_MIN_SAMPLES
from .errors import BudgetRangeError, SchemaError, UnsupportedMechanismError
from .missingness import (
    DatasetMechanism,
    feature_mechanism_from_spec,
    p_star,
    tight_rho,
    verify_rho,
)
from .noise import (
    GAUSSIAN,
    LAPLACE,
    ComposedMechanism,
    PrivacyBudget,
    calibrate_gaussian,
    calibrate_laplace,
    release_record,
    run_composed,
)
from .queries import (
    FwlQuery,
    lipschitz_postprocess,
    make_standard_query,
    sensitivity_masked,
)

COMMANDS = ("calibrate", "amplify", "audit", "simulate", "counterexample", "report")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUDIT_FAIL = 2

AUDIT_CSV_HEADER = "epsilon,bound,empirical,method,tolerance,verdict"


# --- named post-processing maps ------------------------------------------------


def _post_map(entry: dict, query: FwlQuery):
    """(map, Lipschitz constant, output dim) of a named map. Every map acts on
    the last axis, so it takes one output vector (k,) or a stack (M, k)."""
    name = entry.get("map")
    if name == "identity":
        return (lambda v: v), 1.0, query.output_dim
    if name == "scale":
        factor = float(entry["factor"])
        return (lambda v: factor * v), abs(factor), query.output_dim
    if name == "project":
        idx = [int(i) for i in entry["indices"]]
        return (lambda v: v[..., idx]), 1.0, len(idx)
    if name == "clamp":
        lo, hi = float(entry["lo"]), float(entry["hi"])
        return (lambda v: np.clip(v, lo, hi)), 1.0, query.output_dim
    if name == "sum":
        lam = 1.0 if query.norm_p == 1 else math.sqrt(query.output_dim)
        return (lambda v: v.sum(axis=-1, keepdims=True)), lam, 1
    raise SchemaError(f"unknown post-processing map '{name}'")


def _build_query(spec: dict) -> FwlQuery:
    if "kind" not in spec:
        raise SchemaError("query spec needs a 'kind' field")
    params = spec.get("params", {})
    _require(isinstance(params, dict), "query.params", "must be a JSON object")
    params = dict(params)
    if spec["kind"] == "linear" and "matrices" in params:
        params["matrices"] = [np.asarray(m, dtype=float) for m in params["matrices"]]
    if spec["kind"] == "mean_projection" and "projection" in params:
        params["projection"] = np.asarray(params["projection"], dtype=float)
    try:
        q = make_standard_query(spec["kind"], **params)
    except TypeError as exc:  # a missing, unknown or ill-typed parameter
        raise SchemaError(
            f"scenario.query.params: do not fit kind {spec['kind']!r}: {exc}"
        ) from None
    for entry in spec.get("post", []):
        mapping, lam, k_out = _post_map(entry, q)
        lam = float(entry.get("lipschitz", lam))
        q = lipschitz_postprocess(q, mapping, lam, output_dim=k_out)
    return q


# --- scenario loading -----------------------------------------------------------


def _finite(value, field: str) -> float:
    """``value`` as a finite float, or a SchemaError naming ``field``."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"scenario.{field}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise SchemaError(f"scenario.{field}: must be finite, got {x!r}")
    return x


def _require(ok: bool, field: str, rule: str) -> None:
    """A SchemaError naming ``field`` and the ``rule`` it breaks, unless ``ok``."""
    if not ok:
        raise SchemaError(f"scenario.{field}: {rule}")


def _integer(value, field: str) -> int:
    """``value`` as an int, or a SchemaError naming ``field``; never truncates."""
    if isinstance(value, int):
        return value
    x = _finite(value, field)
    _require(x.is_integer(), field, f"expected an integer, got {value!r}")
    return int(x)


class Scenario:
    """Validated view of a scenario file."""

    def __init__(self, raw: dict, base_dir: Path):
        if not isinstance(raw, dict):
            raise SchemaError("scenario: top level must be a JSON object")
        self.raw = raw
        self.base_dir = base_dir
        if "seed" not in raw:
            raise SchemaError("scenario.seed: a seed is mandatory")
        self.seed = _integer(raw["seed"], "seed")
        _require(self.seed >= 0, "seed", f"must be nonnegative, got {self.seed}")
        self.bound_B = _finite(self._need("bound_B"), "bound_B")

    def _need(self, key):
        if key not in self.raw:
            raise SchemaError(f"scenario.{key}: missing required field")
        return self.raw[key]

    @property
    def budget(self):
        b = self._need("budget")
        _require(isinstance(b, dict), "budget", "must be a JSON object")
        _require("epsilon" in b, "budget.epsilon", "missing required field")
        eps = _finite(b["epsilon"], "budget.epsilon")
        try:
            PrivacyBudget(eps)
        except BudgetRangeError as exc:
            raise SchemaError(f"scenario.budget.epsilon: {exc}") from None
        return eps, _finite(b.get("delta", 0.0), "budget.delta")

    @property
    def family(self) -> str:
        fam = self._need("family")
        if fam not in (LAPLACE, GAUSSIAN):
            raise SchemaError(f"scenario.family: unknown family '{fam}'")
        return fam

    def query(self) -> FwlQuery:
        return _build_query(self._need("query"))

    def mechanism(self, n: int) -> DatasetMechanism:
        try:
            feature_mech = feature_mechanism_from_spec(self._need("mechanism"))
        except SchemaError as exc:
            raise SchemaError(f"scenario.mechanism.{exc}") from None
        return DatasetMechanism(feature_mech, n=n)

    def dataset(self) -> CompleteDataset:
        spec = self._need("dataset")
        if "inline" in spec:
            rows = spec["inline"]
            _require(isinstance(rows, list) and all(isinstance(r, list) for r in rows),
                     "dataset.inline", "expected a list of rows of numbers")
            return CompleteDataset(
                tuple(
                    tuple(_finite(v, f"dataset.inline[{i}][{j}]") for j, v in enumerate(row))
                    for i, row in enumerate(rows)
                ),
                bound_B=self.bound_B,
            )
        if "csv" in spec:
            path = self.base_dir / spec["csv"]
            if not path.exists():
                raise SchemaError(f"scenario.dataset.csv: no such file {path}")
            ds = load_dataset_csv(path)
            if not isinstance(ds, CompleteDataset):
                raise SchemaError(
                    "scenario.dataset.csv: composed runs start from complete data"
                )
            return CompleteDataset(ds.rows, bound_B=self.bound_B)
        raise SchemaError("scenario.dataset: need 'inline' rows or a 'csv' path")

    def neighbor_pair(self):
        left = self.dataset()
        spec = self._need("neighbor")
        row = int(spec["row"])
        if not 0 <= row < left.n:
            raise SchemaError(
                f"scenario.neighbor.row: {row} is out of range for {left.n} rows"
            )
        replacement = spec.get("replacement")
        _require(isinstance(replacement, list), "neighbor.replacement",
                 f"expected a list of numbers, got {replacement!r}")
        replacement = tuple(
            _finite(v, f"neighbor.replacement[{i}]") for i, v in enumerate(replacement)
        )
        right = left.substitute(row, replacement)
        pair = is_neighbor(left, right)
        if pair is None:
            raise SchemaError("scenario.neighbor: replacement does not give a neighbor")
        return pair

    def epsilon_grid(self):
        eps, _ = self.budget
        grid = [
            _finite(e, f"epsilon_grid[{i}]")
            for i, e in enumerate(self.raw.get("epsilon_grid", [eps]))
        ]
        _require(bool(grid), "epsilon_grid", "must list at least one epsilon")
        for i, e in enumerate(grid):
            _require(e > 0, f"epsilon_grid[{i}]", f"must be positive, got {e!r}")
        return grid

    def audit_options(self) -> dict:
        """The audit block as ``verify_amplification`` keywords, fields checked."""
        spec = self.raw.get("audit", {})
        _require(isinstance(spec, dict), "audit", "must be a JSON object")
        method = spec.get("method", "exact")
        _require(method in ("exact", "mc"), "audit.method",
                 f"unknown method {method!r}, expected 'exact' or 'mc'")
        n_samples = _integer(spec.get("samples", 100_000), "audit.samples")
        _require(n_samples >= MC_MIN_SAMPLES, "audit.samples",
                 f"need at least {MC_MIN_SAMPLES}, got {n_samples}")
        claim = spec.get("claim")
        if claim is not None:
            _require(isinstance(claim, dict), "audit.claim", "must be a JSON object")
            eps, delta = (_finite(claim.get(k), f"audit.claim.{k}") for k in ("epsilon", "delta"))
            _require(eps >= 0, "audit.claim.epsilon", f"must be nonnegative, got {eps!r}")
            _require(0 <= delta <= 1, "audit.claim.delta", f"must lie in [0, 1], got {delta!r}")
            claim = {"epsilon": eps, "delta": delta}
        return {
            "method": method,
            "tol": _finite(spec.get("tolerance", 1e-9), "audit.tolerance"),
            "n_samples": n_samples,
            "claim": claim,
        }

    def declared_rho(self, missing: DatasetMechanism) -> float:
        if "rho" in self.raw:
            rho = _finite(self.raw["rho"], "rho")
            if not verify_rho(missing, rho):
                raise SchemaError(
                    f"scenario.rho: declared bound {rho} is violated by the "
                    f"mechanism support (tight value {tight_rho(missing)})"
                )
            return rho
        return tight_rho(missing)


def _calibrated(scn: Scenario, query: FwlQuery):
    eps, delta = scn.budget
    if scn.family == LAPLACE:
        if delta != 0.0:
            raise SchemaError("scenario.budget: the Laplace family carries delta = 0")
        return calibrate_laplace(query, eps, scn.bound_B)
    return calibrate_gaussian(query, eps, delta, scn.bound_B)


# --- rendering -----------------------------------------------------------------


def _render_value(v) -> str:
    # numpy scalars subclass float but repr as np.float64(x)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _stable_json(obj) -> str:
    def convert(o):
        if isinstance(o, float):
            return repr(float(o))
        if isinstance(o, dict):
            return {k: convert(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [convert(v) for v in o]
        return o

    return json.dumps(convert(obj), sort_keys=True, indent=2) + "\n"


def emit_report(results, fmt: str, path: Path) -> None:
    """Write a report; identical inputs produce byte-identical files."""
    if fmt == "json":
        path.write_text(_stable_json(results))
        return
    if fmt == "csv":
        rows = results["rows"] if isinstance(results, dict) and "rows" in results else results
        lines = [AUDIT_CSV_HEADER]
        for r in rows:
            lines.append(
                ",".join(
                    _render_value(r[k])
                    for k in ("epsilon", "bound", "empirical", "method", "tolerance", "verdict")
                )
            )
        path.write_text("\n".join(lines) + "\n")
        return
    raise SchemaError(f"unknown report format '{fmt}'")


def _audit_rows_to_dicts(table):
    rows = []
    for r in table.rows:
        rows.append(
            {
                "epsilon": r.epsilon_base,
                "bound": r.bound,
                "empirical": r.empirical,
                "method": r.method,
                "tolerance": r.tolerance,
                "verdict": r.verdict,
                "epsilon_eval": r.epsilon_eval,
                "ci": list(r.ci) if r.ci is not None else None,
            }
        )
    return rows


# --- commands --------------------------------------------------------------------


def _cmd_calibrate(scn: Scenario, out_dir: Path, stem: str, fmt: str) -> int:
    query = scn.query()
    mech = _calibrated(scn, query)
    report = {
        "family": mech.family,
        "scale": mech.scale,
        "C_used": mech.C_used,
        "bound_B": mech.bound_B,
        "budget": {"epsilon": repr(mech.budget.epsilon), "delta": repr(mech.budget.delta)},
        "output_dim": mech.query.output_dim,
    }
    emit_report(report, "json", out_dir / f"{stem}_calibrate.json")
    print(f"calibrated {mech.family}: scale={mech.scale!r} (C={mech.C_used!r})")
    return EXIT_OK


def _cmd_amplify(scn: Scenario, out_dir: Path, stem: str, fmt: str) -> int:
    query = scn.query()
    mech = _calibrated(scn, query)
    missing = scn.mechanism(n=query.n)
    ps = p_star(missing)
    rho = scn.declared_rho(missing)
    bounds = sensitivity_masked(query, scn.bound_B, rho)
    eps, delta = scn.budget
    report = amplify_fwl(eps, delta, ps, bounds, family=scn.family)
    payload = report.to_json_dict()
    payload["mechanism_class"] = missing.feature_mech.mechanism_class.value
    emit_report(payload, "json", out_dir / f"{stem}_amplify.json")
    print(
        f"amplified: epsilon {report.base.epsilon!r} -> "
        f"{report.amplified.epsilon!r}, delta {report.base.delta!r} -> "
        f"{report.amplified.delta!r} (p*={ps!r}, rho={rho!r})"
    )
    return EXIT_OK


def _cmd_audit(scn: Scenario, out_dir: Path, stem: str, fmt: str) -> int:
    query = scn.query()
    mech = _calibrated(scn, query)
    missing = scn.mechanism(n=query.n)
    scn.declared_rho(missing)  # validates any declared bound
    pair = scn.neighbor_pair()
    table = verify_amplification(
        ComposedMechanism(noise=mech, missing=missing),
        pair,
        scn.epsilon_grid(),
        seed=scn.seed,
        **scn.audit_options(),
    )
    rows = _audit_rows_to_dicts(table)
    emit_report({"rows": rows}, "csv", out_dir / f"{stem}_audit.csv")
    sidecar = {
        "rows": rows,
        "seed": scn.seed,
        "scenario": scn.raw,
        "accountant": table.report.to_json_dict() if table.report else None,
    }
    emit_report(sidecar, "json", out_dir / f"{stem}_audit.json")
    for r in table.rows:
        print(
            f"epsilon={r.epsilon_base!r} bound={r.bound!r} "
            f"empirical={r.empirical!r} {r.verdict}"
        )
    if not table.passed:
        bad = next(r for r in table.rows if r.verdict == "FAIL")
        print(
            f"FAIL: empirical {bad.empirical!r} exceeds bound {bad.bound!r} "
            f"at epsilon {bad.epsilon_base!r}",
            file=sys.stderr,
        )
        return EXIT_AUDIT_FAIL
    return EXIT_OK


def _cmd_simulate(scn: Scenario, out_dir: Path, stem: str, fmt: str) -> int:
    query = scn.query()
    mech = _calibrated(scn, query)
    missing = scn.mechanism(n=query.n)
    data = scn.dataset()
    cm = ComposedMechanism(noise=mech, missing=missing)
    run = run_composed(cm, data, seed=scn.seed)
    audit_mode = bool(scn.raw.get("release_mask", False))
    record = release_record(
        mech,
        run.output,
        seed=scn.seed,
        mask=run.mask_used if audit_mode else None,
        audit=audit_mode,
    )
    emit_report(record, "json", out_dir / f"{stem}_release.json")
    print(f"released output of dim {len(record['output'])} (audit={audit_mode})")
    return EXIT_OK


def _cmd_counterexample(scn: Scenario, out_dir: Path, stem: str, fmt: str) -> int:
    spec = scn.raw.get("counterexample", {})
    eps_list = spec.get("epsilons")
    if eps_list is None:
        eps_list = [float(spec.get("epsilon", scn.budget[0]))]
    delta = float(spec.get("delta", scn.budget[1]))
    rows = []
    for eps in eps_list:
        res = tightness_counterexample(float(eps), delta, B=scn.bound_B)
        rows.append(
            {
                "epsilon": float(eps),
                "delta": delta,
                "p_star": res.p_star,
                "equality_gap": res.equality_gap,
            }
        )
        print(f"epsilon={eps!r}: p*={res.p_star!r} equality_gap={res.equality_gap!r}")
    emit_report({"rows": rows}, "json", out_dir / f"{stem}_counterexample.json")
    return EXIT_OK


def _cmd_report(scn_path: Path, out_dir: Path, stem: str, fmt: str) -> int:
    # re-render a previously written audit sidecar in the requested format
    with open(scn_path) as fh:
        payload = json.load(fh)
    if "rows" not in payload:
        raise SchemaError("report: input file carries no 'rows' table")
    emit_report(payload, fmt, out_dir / f"{stem}_report.{fmt}")
    print(f"re-rendered {len(payload['rows'])} rows as {fmt}")
    return EXIT_OK


# --- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amplipriv",
        description=(
            "Differentially private releases on incomplete data: calibrate "
            "mechanisms, account for amplification by missingness, and audit "
            "the bounds empirically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "calibrate": "calibrate a noise mechanism for the scenario's query and budget",
        "amplify": "compute the amplified privacy budget for the scenario",
        "audit": "verify the amplified budget against measured divergences",
        "simulate": "run the composed mechanism once and write the release record",
        "counterexample": "build the p*=1 instance and measure its divergence gap",
        "report": "re-render a previously written results file",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--out", default=".", help="directory for written reports")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--format", default="json", choices=("json", "csv"))
    return parser


def run_scenario(
    command: str,
    scenario_path: str,
    out_dir: str = ".",
    fmt: str = "json",
    seed_override: Optional[int] = None,
) -> int:
    path = Path(scenario_path)
    out = Path(out_dir)
    stem = path.stem
    try:
        out.mkdir(parents=True, exist_ok=True)
        if command == "report":
            return _cmd_report(path, out, stem, fmt)
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            print(
                f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr
            )
            return EXIT_ERROR
        scn = Scenario(raw, base_dir=path.parent)
        if seed_override is not None:
            scn.seed = seed_override
        handler = {
            "calibrate": _cmd_calibrate,
            "amplify": _cmd_amplify,
            "audit": _cmd_audit,
            "simulate": _cmd_simulate,
            "counterexample": _cmd_counterexample,
        }[command]
        return handler(scn, out, stem, fmt)
    except (SchemaError, UnsupportedMechanismError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_scenario(
        args.command, args.scenario, out_dir=args.out, fmt=args.format,
        seed_override=args.seed,
    )


if __name__ == "__main__":
    sys.exit(main())
