"""Command-line front end: run calibrate/amplify/audit/simulate scenarios from
JSON config files and write machine-readable reports.

Every randomized step draws from the single mandatory scenario seed, fanned
out through labeled sub-streams, so a scenario file plus its seed reproduces
every report byte for byte. Exit codes: 0 success, 1 error, 2 for an audit
verdict FAIL (the math disagreed with the claimed bound, which CI pipelines
should treat differently from a crash).

``FIELDS`` is the scenario format. A field that breaks it ends the run with
exit 1 and the diagnostic ``scenario.<path>: <rule>``.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .accountant import amplify_fwl
from .audit import tightness_counterexample, verify_amplification
from .datasets import CompleteDataset, Mask, NeighborPair, load_dataset_csv
from .errors import SchemaError, UnsupportedMechanismError
from .missingness import MECHANISMS, DatasetMechanism, p_star, tight_rho, verify_rho
from .noise import FAMILIES, LAPLACE, ComposedMechanism, calibrate, release_record, run_composed
from .queries import POST_MAPS, QUERY_KINDS, FwlQuery, make_standard_query, named_postprocess
from .queries import sensitivity_masked

COMMANDS = ("calibrate", "amplify", "audit", "simulate", "counterexample", "report")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUDIT_FAIL = 2

AUDIT_CSV_HEADER = "epsilon,bound,empirical,method,tolerance,verdict"


# --- field types: each returns the program's value or raises the diagnostic -----


def _real(v, finite: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    if finite and not math.isfinite(v):
        raise ValueError(f"must be finite, got {v!r}")
    return float(v)


def _int(v) -> int:
    x = _num(v)
    if not x.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return v if isinstance(v, int) else int(x)


def _typed(pytype: type, expected: str, min_len: int = 0) -> Callable:
    def coerce(v):
        if not isinstance(v, pytype) or min_len and len(v) < min_len:
            raise ValueError(f"{expected}, got {v!r}")
        return v
    return coerce


def _list(noun: str, min_len: int = 0) -> Callable:
    return _typed(list, f"expected {noun}", min_len)


def _choice(noun: str, options: tuple) -> Callable:
    def coerce(v):
        if v not in options:
            raise ValueError(f"unknown {noun} {v!r}, expected one of {', '.join(options)}")
        return v
    return coerce


def _bits(v) -> Mask:
    return Mask(tuple(_list("a list of 0/1 bits")(v)))


def _matrix(v) -> np.ndarray:
    m = np.asarray(v, dtype=float)  # a ragged or non-numeric list raises here
    if m.ndim != 2 or not np.isfinite(m).all():
        raise ValueError(f"expected a matrix of finite numbers, got {v!r}")
    return m


_num = partial(_real, finite=True)
_object = _typed(dict, "must be a JSON object")
_boolean = _typed(bool, "expected true or false")
_file = _typed(str, "expected a file path")


# --- the scenario format -------------------------------------------------------

REQ = object()  # the default of a required field


class Field(NamedTuple):
    """One scenario field. ``path`` names it, ``[i]`` and ``[j]`` standing
    for list indices; ``coerce`` is its type; ``rule`` a (holds, text) range
    check, kept for ranges that no constructor the program calls checks;
    ``kinds`` the query, mechanism or map kinds that take it."""

    path: str
    coerce: Callable
    doc: str
    default: object = REQ
    rule: Optional[tuple] = None
    kinds: tuple = ()


NONNEGATIVE = (lambda x: x >= 0, "must be nonnegative")
POSITIVE = (lambda x: x > 0, "must be positive")
BERNOULLI, PATTERN = ("mcar_bernoulli", "capped_bernoulli"), ("mcar_pattern",)
MAR, HISTOGRAM = ("mar_anchored",), ("histogram",)
F = Field
FIELDS = {f.path: f for f in (
    F("seed", _int, "seeds every random draw", rule=NONNEGATIVE),
    F("bound_B", _num, "bound on the magnitude of every entry", rule=POSITIVE),
    F("family", _choice("family", tuple(FAMILIES)), "noise family"),
    F("budget", _object, "base budget the noise is calibrated to"),
    F("budget.epsilon", _num, "base epsilon, positive; at most 1 for gaussian"),
    F("budget.delta", _num, "base delta: 0 for laplace, in (0, 1] for gaussian", 0.0),
    F("rho", _num, "declared observed-fraction bound in [0, 1], verified", None),
    F("epsilon_grid", _list("a list of numbers"), "base epsilons audited; absent, the budget's",
      None, (bool, "must list at least one epsilon")),
    F("epsilon_grid[i]", _num, "one base epsilon, positive; at most 1 for gaussian"),
    F("dataset", _object, "the complete dataset: inline rows, or else a CSV file"),
    F("dataset.inline", _list("a list of rows of numbers"), "its rows", None),
    F("dataset.inline[i]", _list("a list of numbers"), "one row"),
    F("dataset.inline[i][j]", _num, "one entry, at most bound_B in magnitude"),
    F("dataset.csv", _file, "CSV file, relative to the scenario file", None),
    F("neighbor", _object, "the neighbouring dataset the audit compares"),
    F("neighbor.row", _int, "index of the row it replaces", rule=NONNEGATIVE),
    F("neighbor.replacement", _list("a list of numbers"), "the row that replaces it"),
    F("neighbor.replacement[i]", _num, "one entry, at most bound_B in magnitude"),
    F("mechanism", _object, "the MCAR or MAR missingness mechanism; mnar_* kinds are refused"),
    F("mechanism.kind", _choice("mechanism kind", tuple(MECHANISMS)), "its family"),
    F("mechanism.pi", _list("a list of numbers"), "missing probabilities", kinds=BERNOULLI),
    F("mechanism.pi[i]", _real, "one feature's, in [0, 1]"),
    F("mechanism.rho_cap", _real, "cap in (0, 1] on the observed fraction", kinds=BERNOULLI[1:]),
    F("mechanism.patterns", _list("a list of patterns"), "masks it draws", kinds=PATTERN),
    F("mechanism.patterns[i]", _object, "one pattern"),
    F("mechanism.patterns[i].mask", _bits, "its mask, 1 marking a missing feature"),
    F("mechanism.patterns[i].prob", _real, "its probability; they sum to 1"),
    F("mechanism.anchor", _list("a list of integers"), "features that pick the mask", kinds=MAR),
    F("mechanism.anchor[i]", _int, "one feature index, increasing"),
    F("mechanism.q_all", _real, "probability in [0, 1] of the all-missing mask", kinds=MAR),
    F("mechanism.candidates", _list("a list of masks"), "masks it picks from", kinds=MAR),
    F("mechanism.candidates[i]", _bits, "one mask, observing every anchor feature"),
    F("mechanism.thresholds", _list("a list of lists"), "bin edges per anchor", kinds=MAR),
    F("mechanism.thresholds[i]", _list("a list of numbers"), "one anchor feature's, finite"),
    F("mechanism.thresholds[i][j]", _real, "one edge"),
    F("mechanism.score_table", _object, "scores of the candidates per key of bins", kinds=MAR),
    F("query", _object, "the feature-wise Lipschitz query"),
    F("query.kind", _choice("query kind", QUERY_KINDS), "catalog query"),
    F("query.params", _object, "its parameters", {}),
    F("query.params.n", _int, "rows, the dataset's if any", kinds=QUERY_KINDS),
    F("query.params.d", _int, "features, the dataset's if any", kinds=QUERY_KINDS),
    F("query.params.clip", _num, "positive clip bound", kinds=("clipped_mean",)),
    F("query.params.B", _num, "positive entry bound", kinds=("covariance",)),
    F("query.params.lo", _num, "lowest bin edge", kinds=HISTOGRAM),
    F("query.params.hi", _num, "highest bin edge, above lo", kinds=HISTOGRAM),
    F("query.params.bins", _int, "bins per feature, at least 1", kinds=HISTOGRAM),
    F("query.params.features", _list("a list of integers"), "features binned", None,
      kinds=HISTOGRAM),
    F("query.params.features[i]", _int, "one feature index"),
    F("query.params.matrices", _list("a non-empty list of matrices", 1), "k x d, one per row "
      "or one shared", kinds=("linear",)),
    F("query.params.matrices[i]", _matrix, "one matrix"),
    F("query.params.projection", _matrix, "k x d", kinds=("mean_projection",)),
    F("query.post", _list("a list of maps"), "Lipschitz maps applied in order", []),
    F("query.post[i]", _object, "one map"),
    F("query.post[i].map", _choice("post-processing map", POST_MAPS), "its name"),
    F("query.post[i].factor", _num, "scale factor", kinds=("scale",)),
    F("query.post[i].indices", _list("a non-empty list of integers", 1), "distinct output "
      "coordinates kept", kinds=("project",)),
    F("query.post[i].indices[j]", _int, "one coordinate, in [0, k)"),
    F("query.post[i].lo", _num, "lower clamp", kinds=("clamp",)),
    F("query.post[i].hi", _num, "upper clamp", kinds=("clamp",)),
    F("audit", _object, "how the audit measures the divergence", {}),
    F("audit.method", _choice("method", ("exact", "mc")), "quadrature or Monte Carlo", "exact"),
    F("audit.tolerance", _num, "positive; checked, but moves neither the measured delta nor "
      "its reported tolerance", 1e-9),
    F("audit.samples", _int, "Monte Carlo samples, at least 1000 whatever the method", 100_000),
    F("audit.claim", _object, "a budget audited in place of the accountant's", None),
    F("audit.claim.epsilon", _num, "claimed epsilon", rule=NONNEGATIVE),
    F("audit.claim.delta", _num, "claimed delta",
      rule=(lambda x: 0 <= x <= 1, "must lie in [0, 1]")),
    F("release_mask", _boolean, "simulate also writes the drawn mask: never private", False),
    F("counterexample", _object, "the p* = 1 instance", {}),
    F("counterexample.epsilons", _list("a non-empty list of numbers", 1), "its epsilons", None),
    F("counterexample.epsilons[i]", _num, "one epsilon, in (0, 1]"),
    F("counterexample.epsilon", _num, "its epsilon if no epsilons; absent, the budget's", None),
    F("counterexample.delta", _num, "its delta, in (0, 1); absent, the budget's", None),
)}
# the fields each query, mechanism and map kind takes, by name in table order
KIND_FIELDS = {
    kind: [f.path.rsplit(".", 1)[1] for f in FIELDS.values() if kind in f.kinds]
    for kind in (*QUERY_KINDS, *MECHANISMS, *POST_MAPS)
}
ITEMS = {p: p + ("[j]" if "[i]" in p else "[i]") for p in FIELDS}  # the path of a list's items
KEYS = {p: p.rsplit(".", 1)[-1] for p in FIELDS}  # the key of each field in its object
PARENTS = {p: [p[:i] for i, c in enumerate(p) if c == "."] for p in FIELDS}  # the objects above
MEMBERS: dict = {}  # the fields of each object by key, "" standing for the scenario itself
for _p in FIELDS:
    if "[" not in KEYS[_p]:
        MEMBERS.setdefault(_p.rpartition(".")[0], {})[KEYS[_p]] = _p
KINDED = {p.rpartition(".")[0] for p, f in FIELDS.items() if f.kinds}  # fields vary by kind
# rules between fields: path -> (reference value or None, holds(value, reference), rule)
CROSS = {
    "budget.delta": (lambda s: s.family,
                     lambda delta, family: family != LAPLACE or delta == 0,
                     "must be 0 for the {} family"),
    "query.params.n": (lambda s: s.dataset().n if "dataset" in s.raw else None, operator.eq,
                       "must equal the dataset's {} rows"),
    "query.params.d": (lambda s: s.dataset().d if "dataset" in s.raw else None, operator.eq,
                       "must equal the dataset's {} features"),
    "mechanism": (lambda s: s.get("query.params.d"), operator.eq,
                  "must cover the query's {} features"),
    "neighbor.row": (lambda s: s.dataset().n, operator.lt, "must index one of the {} rows"),
    "neighbor.replacement": (lambda s: s.dataset().d, lambda row, d: len(row) == d,
                             "must hold the dataset's {} features"),
}


def read(node: dict, path: str, at: Optional[str] = None):
    """Field ``path`` of ``node``, the object holding it, coerced and checked;
    a diagnostic names ``scenario.<at>``, ``path`` with its indices filled in."""
    key = KEYS[path]
    if key in node:
        return _check(path, node[key], at or path)
    if FIELDS[path].default is REQ:
        raise SchemaError(f"scenario.{at or path}: missing required field")
    return FIELDS[path].default


def _check(path: str, value, at: str):
    field = FIELDS[path]
    try:
        value = field.coerce(value)
    except (ArithmeticError, TypeError, ValueError) as exc:  # e.g. an integer past any float
        raise SchemaError(f"scenario.{at}: {exc}") from None
    if path in MEMBERS and path not in KINDED:
        _known(value, path, at)
    item = ITEMS[path]
    if item in FIELDS:
        value = [_check(item, v, f"{at}[{i}]") for i, v in enumerate(value)]
    if field.rule and not field.rule[0](value):
        raise SchemaError(f"scenario.{at}: {field.rule[1]}, got {value!r}")
    return value


def _known(node: dict, path: str, at: str, kind: Optional[str] = None) -> dict:
    """``node``, the object at ``path`` ("" for the scenario itself), once none
    of its keys is refused: a key names one of its fields, and one that
    ``kind``, when given, takes."""
    for key in node:
        field = FIELDS.get(MEMBERS[path].get(key))
        if field is None or field.kinds and kind not in field.kinds:
            rule = "unknown field" if kind is None else f"not a parameter of kind {kind!r}"
            raise SchemaError(f"scenario.{at}{'.' if at else ''}{key}: {rule}")
    return node


def _blame(exc: Exception, paths: dict, whole: Optional[str]) -> Exception:
    """A library check's "<param>: <rule>" naming ``paths[param]``, else
    ``whole``; with no ``whole``, an error of no listed parameter stays as it is."""
    param, sep, rule = str(exc).partition(": ")
    if sep and param in paths:
        return SchemaError(f"scenario.{paths[param]}: {rule}")
    return exc if whole is None else SchemaError(f"scenario.{whole}: {exc}")


def feature_mechanism_from_spec(spec: dict):
    """The feature mechanism of a scenario's ``mechanism`` block. A malformed
    block raises a SchemaError naming ``scenario.mechanism.<field>``, an MNAR
    kind an UnsupportedMechanismError."""
    kind = _check("mechanism", spec, "mechanism").get("kind")
    if isinstance(kind, str) and kind.lower().startswith("mnar"):
        raise UnsupportedMechanismError(
            f"mechanism kind '{kind}': amplification accounting requires an MCAR "
            "or MAR mechanism (the mask law must not depend on unobserved values)"
        )
    kind = read(spec, "mechanism.kind")
    _known(spec, "mechanism", "mechanism", kind)
    args = {name: read(spec, f"mechanism.{name}") for name in KIND_FIELDS[kind]}
    if kind == "mcar_pattern":
        args["patterns"] = [
            tuple(read(p, f"mechanism.patterns[i].{key}", f"mechanism.patterns[{i}].{key}")
                  for key in ("mask", "prob"))
            for i, p in enumerate(args["patterns"])
        ]
    try:
        return MECHANISMS[kind](**args)
    except ValueError as exc:
        raise _blame(exc, {name: f"mechanism.{name}" for name in args}, "mechanism") from None


def _post_map(q: FwlQuery, entry: dict, at: str) -> FwlQuery:
    """``q`` followed by the named map ``entry``, the scenario's ``at``."""
    name = read(entry, "query.post[i].map", f"{at}.map")
    _known(entry, "query.post[i]", at, name)
    args = {key: read(entry, f"query.post[i].{key}", f"{at}.{key}") for key in KIND_FIELDS[name]}
    try:
        return named_postprocess(q, name, **args)
    except ValueError as exc:
        raise _blame(exc, {key: f"{at}.{key}" for key in args}, at) from None


class Scenario:
    """A scenario file read through ``FIELDS``, each accessor reading only its own fields."""

    def __init__(self, raw: dict, base_dir: Path):
        if not isinstance(raw, dict):
            raise SchemaError("scenario: top level must be a JSON object")
        self.raw, self.base_dir, self._data = _known(raw, "", ""), base_dir, None
        self.seed = self.get("seed")
        self.bound_B = self.get("bound_B")

    def get(self, path: str):
        """Field ``path``, reached by walking the scenario from the top."""
        node = self.raw
        for parent in PARENTS[path]:
            node = read(node, parent)
        return read(node, path)

    def _agree(self, path: str, value) -> None:  # the rule of ``path`` in CROSS
        reference, holds, rule = CROSS[path]
        ref = reference(self)
        if ref is not None and not holds(value, ref):
            raise SchemaError(f"scenario.{path}: {rule.format(ref)}, got {value!r}")

    @property
    def budget(self):
        return self.get("budget.epsilon"), self.get("budget.delta")

    @property
    def family(self) -> str:
        return self.get("family")

    def query(self) -> FwlQuery:
        kind = self.get("query.kind")
        _known(self.get("query.params"), "query.params", "query.params", kind)
        args = {name: self.get(f"query.params.{name}") for name in KIND_FIELDS[kind]}
        try:
            q = make_standard_query(kind, **args)
        except ValueError as exc:
            raise _blame(exc, {k: f"query.params.{k}" for k in args}, "query.params") from None
        self._agree("query.params.n", q.n)
        self._agree("query.params.d", q.d)
        for i, entry in enumerate(self.get("query.post")):
            q = _post_map(q, entry, f"query.post[{i}]")
        return q

    def mechanism(self, n: int) -> DatasetMechanism:
        feature_mech = feature_mechanism_from_spec(self.get("mechanism"))
        self._agree("mechanism", feature_mech.d)
        return DatasetMechanism(feature_mech, n=n)

    def dataset(self) -> CompleteDataset:
        if self._data is None:
            rows, at = self.get("dataset.inline"), "dataset.inline"
            if rows is None and self.get("dataset.csv") is None:
                raise SchemaError("scenario.dataset: need 'inline' rows or a 'csv' path")
            try:
                if rows is None:
                    at = "dataset.csv"
                    rows = load_dataset_csv(self.base_dir / self.get("dataset.csv"))
                    if not isinstance(rows, CompleteDataset):
                        raise ValueError("composed runs start from complete data")
                    rows = rows.rows
                self._data = CompleteDataset(tuple(map(tuple, rows)), bound_B=self.bound_B)
            except (OSError, ValueError) as exc:
                raise _blame(exc, {}, at) from None
        return self._data

    def neighbor_pair(self):
        left = self.dataset()
        row, replacement = self.get("neighbor.row"), self.get("neighbor.replacement")
        self._agree("neighbor.row", row)
        self._agree("neighbor.replacement", replacement)
        try:
            return NeighborPair(left, left.substitute(row, replacement))
        except ValueError as exc:  # an entry past bound_B
            raise _blame(exc, {}, "neighbor.replacement") from None

    def epsilon_grid(self):
        grid = self.get("epsilon_grid")
        return [self.budget[0]] if grid is None else grid

    def audit_options(self) -> dict:
        """The audit block as ``verify_amplification`` keywords."""
        claim = self.get("audit.claim")
        if claim is not None:
            claim = {key: self.get(f"audit.claim.{key}") for key in ("epsilon", "delta")}
        return {"method": self.get("audit.method"), "tol": self.get("audit.tolerance"),
                "n_samples": self.get("audit.samples"), "claim": claim}

    def declared_rho(self, missing: DatasetMechanism) -> float:
        rho = self.get("rho")
        try:
            if rho is None or verify_rho(missing, rho):
                return tight_rho(missing) if rho is None else rho
        except ValueError as exc:
            raise _blame(exc, {"rho": "rho"}, "rho") from None
        raise SchemaError(f"scenario.rho: declared bound {rho} is violated by the "
                          f"mechanism support (tight value {tight_rho(missing)})")


def _calibrated(scn: Scenario, query: FwlQuery, epsilon=None, at: str = "budget.epsilon"):
    """The noise mechanism for ``query`` at the scenario's budget, or at the
    base ``epsilon`` read from field ``at``."""
    eps, delta = scn.budget
    scn._agree("budget.delta", delta)
    try:
        return calibrate(query, scn.family, eps if epsilon is None else epsilon, delta,
                         scn.bound_B)
    except ValueError as exc:  # a zero-sensitivity query names no budget field
        raise _blame(exc, {"epsilon": at, "delta": "budget.delta"}, "query") from None


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


def _cmd_calibrate(scn: Scenario, out_dir: Path, stem: str) -> int:
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


def _cmd_amplify(scn: Scenario, out_dir: Path, stem: str) -> int:
    query = scn.query()
    _calibrated(scn, query)  # checks the budget against the family
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


def _cmd_audit(scn: Scenario, out_dir: Path, stem: str) -> int:
    query = scn.query()
    mech = _calibrated(scn, query)
    missing = scn.mechanism(n=query.n)
    scn.declared_rho(missing)  # validates any declared bound
    pair = scn.neighbor_pair()
    grid = scn.epsilon_grid()
    for i, eps in enumerate(grid):  # names the grid epsilon the calibration refuses
        _calibrated(scn, query, eps, f"epsilon_grid[{i}]")
    options = scn.audit_options()
    try:
        table = verify_amplification(
            ComposedMechanism(noise=mech, missing=missing),
            pair,
            grid,
            seed=scn.seed,
            **options,
        )
    except ValueError as exc:
        paths = {"method": "audit.method", "tol": "audit.tolerance", "n_samples": "audit.samples"}
        raise _blame(exc, paths, None) from None
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


def _cmd_simulate(scn: Scenario, out_dir: Path, stem: str) -> int:
    query = scn.query()
    mech = _calibrated(scn, query)
    missing = scn.mechanism(n=query.n)
    data = scn.dataset()
    audit_mode = scn.get("release_mask")
    cm = ComposedMechanism(noise=mech, missing=missing)
    run = run_composed(cm, data, seed=scn.seed)
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


def _cmd_counterexample(scn: Scenario, out_dir: Path, stem: str) -> int:
    # each epsilon and delta with the field it came from; absent, the budget's
    epsilons = scn.get("counterexample.epsilons")
    if epsilons is not None:
        epsilons = [(e, f"counterexample.epsilons[{i}]") for i, e in enumerate(epsilons)]
    elif scn.get("counterexample.epsilon") is not None:
        epsilons = [(scn.get("counterexample.epsilon"), "counterexample.epsilon")]
    else:
        epsilons = [(scn.budget[0], "budget.epsilon")]
    delta, delta_at = scn.get("counterexample.delta"), "counterexample.delta"
    if delta is None:
        delta, delta_at = scn.budget[1], "budget.delta"
    rows = []
    for eps, eps_at in epsilons:
        try:
            res = tightness_counterexample(eps, delta, B=scn.bound_B)
        except ValueError as exc:
            paths = {"epsilon": eps_at, "delta": delta_at}
            err, param = _blame(exc, paths, "bound_B"), str(exc).partition(":")[0]
            if paths.get(param, "").startswith("budget."):  # a budget field it fell back to
                err = SchemaError(f"{err}; set counterexample.{param}, which defaults to it")
            raise err from None
        rows.append(
            {
                "epsilon": eps,
                "delta": delta,
                "p_star": res.p_star,
                "equality_gap": res.equality_gap,
            }
        )
    for r in rows:  # printed once every epsilon has run, so a refused one prints nothing
        print(f"epsilon={r['epsilon']!r}: p*={r['p_star']!r} equality_gap={r['equality_gap']!r}")
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
        if name == "report":  # the other commands write fixed formats
            p.add_argument("--format", default="json", choices=("json", "csv"))
    return parser


def run_scenario(
    command: str,
    scenario_path: str,
    out_dir: str = ".",
    fmt: str = "json",
    seed_override: Optional[int] = None,
) -> int:
    """Run ``command`` on a scenario file; only ``report`` reads ``fmt``."""
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
        if seed_override is not None:  # the seed field's rule, named by the option
            try:
                scn.seed = _check("seed", seed_override, "seed")
            except SchemaError as exc:
                raise SchemaError(f"--seed: {str(exc).partition(': ')[2]}") from None
        handler = {
            "calibrate": _cmd_calibrate,
            "amplify": _cmd_amplify,
            "audit": _cmd_audit,
            "simulate": _cmd_simulate,
            "counterexample": _cmd_counterexample,
        }[command]
        return handler(scn, out, stem)
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
        args.command, args.scenario, out_dir=args.out,
        fmt=getattr(args, "format", "json"), seed_override=args.seed,
    )


if __name__ == "__main__":
    sys.exit(main())
