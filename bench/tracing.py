"""Traced replay: each operation re-run from outside through the public
functions of every layer, with an in-memory span around each call.

Spans are (op, id, parent, name, start, end, counts). Loops too fine for one
span per iteration (mask enumeration, per-mask masking and query calls) are
timed by thin wrappers installed for the traced run only and recorded as busy
time plus a count under the enclosing span. Everything is written out when
the run ends; end-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from amplipriv import audit as audit_mod
from amplipriv.accountant import amplify_fwl
from amplipriv.audit import VectorMixture, composed_output_mixture, composed_vector_mixture, mc_delta_vector
from amplipriv.cli import Scenario, emit_report
from amplipriv.datasets import apply_mask
from amplipriv.divergence import hockey_stick_mixture_1d
from amplipriv.missingness import p_star, sample_mask, tight_rho
from amplipriv.noise import (
    LAPLACE,
    ComposedMechanism,
    calibrate_gaussian,
    calibrate_laplace,
    release_record,
    run_mechanism,
)
from amplipriv.queries import FwlQuery, sensitivity_masked

# per-layer metric -> how it is read from the spans (see README.md)
PER_CALL = {
    "divergence.quadrature_s": ("divergence.quadrature", 1.0),
    "audit.output_mixture_s": ("audit.output_mixture", 1.0),
    "audit.vector_mixture_s": ("audit.vector_mixture", 1.0),
    "audit.mc_sample_s": ("audit.mc_sample", 1.0),
    "audit.mc_log_density_s": ("audit.mc_log_density", 1.0),
    "missingness.sample_mask_us": ("missingness.sample_mask", 1e6),
    "noise.run_mechanism_us": ("noise.run_mechanism", 1e6),
    "noise.release_record_us": ("noise.release_record", 1e6),
    "noise.calibrate_us": ("noise.calibrate", 1e6),
    "accountant.amplify_us": ("accountant.amplify", 1e6),
}
PER_OP = {
    "cli.run_s": "cli.run",
    "cli.report_write_s": "cli.report_write",
    "queries.build_s": "queries.build",
    "missingness.classify_s": "missingness.classify",
}
PER_MASK = {
    "missingness.support_us_per_mask": "missingness.support",
    "datasets.apply_mask_us_per_mask": "datasets.apply_mask",
    "queries.eval_us_per_mask": "queries.eval",
}
COUNTS = ("audit.components", "missingness.masks_per_op")


def unit(metric: str) -> str:
    if metric in COUNTS:
        return "count"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_us") or metric.endswith("_us_per_mask"):
        return "us"
    return "s"


class Tracer:
    def __init__(self):
        self.op = 0
        self.spans = []
        self.busy = {}  # (op, parent span id, name) -> [seconds, count]
        self._stack = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **counts):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield counts
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end, counts))

    def add(self, name: str, seconds: float, count: int) -> None:
        key = (self.op, self._stack[-1] if self._stack else None, name)
        entry = self.busy.get(key)
        if entry is None:
            self.busy[key] = [seconds, count]
        else:
            entry[0] += seconds
            entry[1] += count

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end, counts in self.spans:
                rec = {"op": op, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end, **counts}
                fh.write(json.dumps(rec) + "\n")
            for (op, parent, name), (sec, count) in self.busy.items():
                fh.write(json.dumps({"op": op, "parent": parent, "name": name,
                                     "busy_s": sec, "count": count}) + "\n")


@contextmanager
def instrumented(tr: Tracer):
    """Time the per-mask loops and the Monte Carlo internals from outside."""
    orig_support = audit_mod._dataset_support
    orig_apply = audit_mod.apply_mask
    orig_call = FwlQuery.__call__
    orig_sample = VectorMixture.sample
    orig_logd = VectorMixture.log_density
    depth = [0]

    def support(mech, dataset):
        gen = orig_support(mech, dataset)
        while True:
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                tr.add("missingness.support", perf_counter() - t0, 0)
                return
            tr.add("missingness.support", perf_counter() - t0, 1)
            yield item

    def apply(dataset, mask):
        t0 = perf_counter()
        out = orig_apply(dataset, mask)
        tr.add("datasets.apply_mask", perf_counter() - t0, 1)
        return out

    def call(self, data):
        if depth[0]:
            return orig_call(self, data)
        depth[0] += 1
        t0 = perf_counter()
        try:
            return orig_call(self, data)
        finally:
            depth[0] -= 1
            tr.add("queries.eval", perf_counter() - t0, 1)

    def sample(self, rng, size):
        with tr.span("audit.mc_sample", samples=size):
            return orig_sample(self, rng, size)

    def log_density(self, x):
        with tr.span("audit.mc_log_density", samples=len(x)):
            return orig_logd(self, x)

    audit_mod._dataset_support = support
    audit_mod.apply_mask = apply
    FwlQuery.__call__ = call
    VectorMixture.sample = sample
    VectorMixture.log_density = log_density
    try:
        yield tr
    finally:
        audit_mod._dataset_support = orig_support
        audit_mod.apply_mask = orig_apply
        FwlQuery.__call__ = orig_call
        VectorMixture.sample = orig_sample
        VectorMixture.log_density = orig_logd


def _calibrate(query, family, epsilon, delta, B):
    if family == LAPLACE:
        return calibrate_laplace(query, epsilon, B)
    return calibrate_gaussian(query, epsilon, delta, B)


def replay_audit(tr: Tracer, path: Path, out_dir: Path) -> None:
    """The ``audit`` command, step by step, writing the same two reports."""
    with tr.span("cli.run"):
        raw = json.loads(path.read_text())
        scn = Scenario(raw, base_dir=path.parent)
        eps_budget, delta = scn.budget
        with tr.span("queries.build"):
            query = scn.query()
        with tr.span("noise.calibrate"):
            base = _calibrate(query, scn.family, eps_budget, delta, scn.bound_B)
        missing = scn.mechanism(n=query.n)
        scn.declared_rho(missing)
        pair = scn.neighbor_pair()
        spec = raw.get("audit", {})
        method = spec.get("method", "exact")
        tol = float(spec.get("tolerance", 1e-9))
        claim = spec.get("claim")
        with tr.span("missingness.classify"):
            ps = p_star(missing)
        bounds = sensitivity_masked(query, scn.bound_B, tight_rho(missing))
        rows = []
        report = None
        for eps in scn.epsilon_grid():
            with tr.span("noise.calibrate"):
                mech = _calibrate(query, base.family, eps, base.budget.delta, scn.bound_B)
            with tr.span("accountant.amplify"):
                report = amplify_fwl(eps, mech.budget.delta, ps, bounds, family=mech.family)
            if claim is not None:
                eps_eval, bound = float(claim["epsilon"]), float(claim["delta"])
            else:
                eps_eval, bound = report.amplified.epsilon, report.amplified.delta
            sub = ComposedMechanism(noise=mech, missing=missing)
            exact = method == "exact"
            build = composed_output_mixture if exact else composed_vector_mixture
            mixtures = []
            for ds in (pair.left, pair.right):
                with tr.span("audit.output_mixture" if exact else "audit.vector_mixture") as c:
                    mixtures.append(build(sub, ds))
                    c["components"] = len(mixtures[-1].components if exact else mixtures[-1].weights)
            if exact:
                with tr.span("divergence.quadrature"):
                    est = hockey_stick_mixture_1d(*mixtures, eps_eval, tol=tol)
                verdict = "PASS" if est.value <= bound + 10.0 * est.tolerance else "FAIL"
            else:
                n_samples = int(spec.get("samples", 100_000))
                with tr.span("audit.mc_estimate", samples=n_samples):
                    est = mc_delta_vector(*mixtures, eps_eval, n_samples=n_samples, seed=scn.seed)
                verdict = "PASS" if est.ci[0] <= bound else "FAIL"
            rows.append({
                "epsilon": float(eps),
                "bound": bound,
                "empirical": est.value,
                "method": est.method,
                "tolerance": est.tolerance if est.tolerance is not None else float("nan"),
                "verdict": verdict,
                "epsilon_eval": eps_eval,
                "ci": list(est.ci) if est.ci is not None else None,
            })
        with tr.span("cli.report_write"):
            emit_report({"rows": rows}, "csv", out_dir / f"{path.stem}_audit.csv")
            sidecar = {
                "rows": rows,
                "seed": scn.seed,
                "scenario": scn.raw,
                "accountant": report.to_json_dict() if report else None,
            }
            emit_report(sidecar, "json", out_dir / f"{path.stem}_audit.json")


def replay_simulate(tr: Tracer, path: Path, out_dir: Path, seed: int) -> None:
    """The ``simulate`` command, step by step, writing the same release record."""
    with tr.span("cli.run"):
        raw = json.loads(path.read_text())
        scn = Scenario(raw, base_dir=path.parent)
        scn.seed = seed
        eps, delta = scn.budget
        with tr.span("queries.build"):
            query = scn.query()
        with tr.span("noise.calibrate"):
            mech = _calibrate(query, scn.family, eps, delta, scn.bound_B)
        missing = scn.mechanism(n=query.n)
        data = scn.dataset()
        ComposedMechanism(noise=mech, missing=missing)  # shape validation, as in the CLI
        with tr.span("missingness.sample_mask"):
            mask = sample_mask(missing, data, seed)
        t0 = perf_counter()
        masked = apply_mask(data, mask)
        tr.add("datasets.apply_mask", perf_counter() - t0, 1)
        with tr.span("noise.run_mechanism"):
            output = run_mechanism(mech, masked, seed)
        with tr.span("noise.release_record"):
            record = release_record(mech, output, seed=seed, mask=None, audit=False)
        with tr.span("cli.report_write"):
            emit_report(record, "json", out_dir / f"{path.stem}_release.json")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def per_layer_metrics(tr: Tracer, ops: int) -> dict:
    """Medians over operations (or calls) of the traced layer costs."""
    by_name: dict = {}
    per_op: dict = {}
    for op, _, _, name, start, end, counts in tr.spans:
        by_name.setdefault(name, []).append((end - start, counts))
        slot = per_op.setdefault((name, op), [0.0, 0])
        slot[0] += end - start
        slot[1] += 1
    busy: dict = {}
    for (op, _, name), (sec, count) in tr.busy.items():
        for key in (name, (name, op)):
            slot = busy.setdefault(key, [0.0, 0])
            slot[0] += sec
            slot[1] += count

    metrics = {}
    for metric, (name, factor) in PER_CALL.items():
        metrics[metric] = _median([d for d, _ in by_name.get(name, [])]) * factor
    for metric, name in PER_OP.items():
        metrics[metric] = _median([per_op.get((name, op), (0.0, 0))[0] for op in range(ops)])
    for metric, name in PER_MASK.items():
        sec, count = busy.get(name, (0.0, 0))
        metrics[metric] = sec / count * 1e6 if count else 0.0
    comps = [c["components"] for n in ("audit.output_mixture", "audit.vector_mixture")
             for _, c in by_name.get(n, [])]
    metrics["audit.components"] = _median(comps)
    metrics["missingness.masks_per_op"] = _median([
        busy.get(("missingness.support", op), (0.0, 0))[1]
        + per_op.get(("missingness.sample_mask", op), (0.0, 0))[1]
        for op in range(ops)
    ])
    est = by_name.get("audit.mc_estimate", [])
    total = sum(d for d, _ in est)
    metrics["audit.mc_samples_per_s"] = sum(c["samples"] for _, c in est) / total if total else 0.0
    return metrics


def layer_shares(tr: Tracer) -> dict:
    """Self time of each layer (module) as a share of the replayed operations.

    A span's self time is its duration less its child spans and the busy time
    recorded under it; the layer is the module named before the dot.
    """
    child: dict = {}
    for _, sid, parent, _, start, end, _ in tr.spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + end - start
    layer: dict = {}
    for (_, parent, name), (sec, _) in tr.busy.items():
        child[parent] = child.get(parent, 0.0) + sec
        key = name.split(".")[0]
        layer[key] = layer.get(key, 0.0) + sec
    total = 0.0
    for _, sid, parent, name, start, end, _ in tr.spans:
        key = name.split(".")[0]
        layer[key] = layer.get(key, 0.0) + (end - start) - child.get(sid, 0.0)
        if parent is None:
            total += end - start
    return {k: v / total for k, v in sorted(layer.items())} if total else {}
