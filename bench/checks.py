"""Output checks, run after the timed loop of every run.

None of them compares against stored output. Each operation must exit 0 with
every verdict PASS and write the same reports as the warm-up operation (or,
for releases, a well-formed record); the warm-up reports are then checked
against the benchmark's own reference computations in reference.py.
"""

from __future__ import annotations

import json
import math

from amplipriv.audit import composed_output_mixture, composed_vector_mixture
from amplipriv.cli import Scenario
from amplipriv.datasets import CompleteDataset
from amplipriv.missingness import sample_mask
from amplipriv.noise import ComposedMechanism, calibrate_gaussian, calibrate_laplace

import reference as ref
import workloads

ALPHA = 1e-6  # false-alarm probability of each statistical check
REL = 1e-12


def _number(text: str) -> float:
    """A report number; numpy 2 scalars currently print as np.float64(x)."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _program_law(call, rows):
    """(centre, weight) law and noise scale the program builds for ``rows``."""
    scn = Scenario(call.scenario, base_dir=call.path.parent)
    query = scn.query()
    eps, delta = scn.budget
    if call.family == ref.LAPLACE:
        mech = calibrate_laplace(query, eps, scn.bound_B)
    else:
        mech = calibrate_gaussian(query, eps, delta, scn.bound_B)
    cm = ComposedMechanism(noise=mech, missing=scn.mechanism(n=query.n))
    data = CompleteDataset(tuple(map(tuple, rows)), bound_B=scn.bound_B)
    if call.kind == "mc":
        vm = composed_vector_mixture(cm, data)
        return [(tuple(c), w) for c, w in zip(vm.centers.tolist(), vm.weights.tolist())], vm.scale
    mix = composed_output_mixture(cm, data)
    return [(c, w) for w, _, c, _ in mix.components], mix.components[0][3]


def check_law(call, rows, problems: list) -> None:
    law, scale = _program_law(call, rows)
    eps, delta = call.scenario["budget"]["epsilon"], call.scenario["budget"]["delta"]
    want = ref.noise_scale(call.family, workloads.sensitivity(call), eps, delta)
    if not _close(scale, want):
        problems.append(f"{call.path.stem}: noise scale {scale!r}, calibration rule gives {want!r}")
    if not ref.same_law(law, workloads.reference_law(call, rows)):
        problems.append(f"{call.path.stem}: output law differs from the enumerated law")


def check_audit(call, rc: int, blobs: list, problems: list, notes: dict) -> None:
    name = call.path.stem
    if rc != 0:
        problems.append(f"{name}: exit code {rc}")
        return
    scn = call.scenario
    rows = json.loads(blobs[1])["rows"]
    grid = scn["epsilon_grid"]
    if len(rows) != len(grid):
        problems.append(f"{name}: {len(rows)} audit rows for a grid of {len(grid)}")
        return
    delta_budget = scn["budget"]["delta"]
    claim = scn["audit"].get("claim")
    ps = workloads.p_star(call)
    C = workloads.sensitivity(call)
    if call.kind == "mc":
        # only coordinate 0 differs; the others must share one law
        for j in range(1, len(call.left[0])):
            if ref.clipped_mean_coordinate_law(call.left, workloads.PI, j, workloads.B) != \
                    ref.clipped_mean_coordinate_law(call.right, workloads.PI, j, workloads.B):
                problems.append(f"{name}: neighbours differ beyond coordinate 0")
        left = ref.clipped_mean_coordinate_law(call.left, workloads.PI, 0, workloads.B)
        right = ref.clipped_mean_coordinate_law(call.right, workloads.PI, 0, workloads.B)
    else:
        left = workloads.reference_law(call, call.left)
        right = workloads.reference_law(call, call.right)
    for row, eps in zip(rows, grid):
        got = {k: _number(row[k]) for k in ("epsilon", "epsilon_eval", "bound", "empirical", "tolerance")}
        if claim is not None:
            want_eval, want_bound = claim["epsilon"], claim["delta"]
        else:
            # Bernoulli masking with pi < 1 can observe every feature, so
            # rho = 1 and the masked-to-complete constant ratio is 1
            want_eval = ref.amplified_epsilon(eps, ps, 1.0)
            want_bound = 0.0 if call.family == ref.LAPLACE else ps * delta_budget
        if got["epsilon"] != eps or not _close(got["epsilon_eval"], want_eval) \
                or not _close(got["bound"], want_bound):
            problems.append(f"{name}: row at eps={eps} evaluates ({got['epsilon_eval']!r}, "
                            f"{got['bound']!r}), expected ({want_eval!r}, {want_bound!r})")
        if row["verdict"] != "PASS":
            problems.append(f"{name}: verdict {row['verdict']} at eps={eps}")
        scale = ref.noise_scale(call.family, C, eps, delta_budget)
        delta_ref, err = ref.hockey_stick(call.family, left, right, scale, want_eval)
        if delta_ref > want_bound + err:
            problems.append(f"{name}: reference delta {delta_ref!r} exceeds the bound {want_bound!r}")
        if call.kind == "mc":
            allowed = ref.bernstein_halfwidth(delta_ref, int(scn["audit"]["samples"]), ALPHA) + err
        else:
            allowed = 10.0 * got["tolerance"] + err
        gap = abs(got["empirical"] - delta_ref)
        if not gap <= allowed:
            problems.append(f"{name}: delta {got['empirical']!r} at eps={want_eval!r}, "
                            f"reference {delta_ref!r}, allowed gap {allowed!r}")
        key = "mc_gap_over_allowed" if call.kind == "mc" else "delta_gap_over_allowed"
        notes[key] = max(notes.get(key, 0.0), gap / allowed if allowed > 0 else 0.0)
        if claim is not None:
            notes["claim_delta_min"] = min(notes.get("claim_delta_min", math.inf), delta_ref)


def check_release_record(call, rc: int, blob: bytes) -> float:
    """The released value, or None when the record is not a valid release."""
    if rc != 0:
        return None
    try:
        record = json.loads(blob)
        out = [float(v) for v in record["output"]]
        scale = float(record["scale"])
    except (ValueError, KeyError, TypeError):
        return None
    eps = call.scenario["budget"]["epsilon"]
    want = ref.noise_scale(ref.LAPLACE, workloads.sensitivity(call), eps, 0.0)
    if len(out) != 1 or record["family"] != ref.LAPLACE or not _close(scale, want):
        return None
    return out[0]


def check_mask_draws(call, seeds: list, problems: list, notes: dict) -> None:
    """The masks the releases drew, redrawn through ``sample_mask`` with the
    same seeds, follow each row's law: every pattern's frequency lies within
    a Bernstein bound of its probability."""
    scn = Scenario(call.scenario, base_dir=call.path.parent)
    data = scn.dataset()
    missing = scn.mechanism(n=data.n)
    draws = [sample_mask(missing, data, s).bits_tuple() for s in seeds]
    worst = 0.0
    for i, row in enumerate(call.left):
        for bits, p in ref.anchored_row_law(row, call.scenario["mechanism"]):
            freq = sum(d[i] == bits for d in draws) / len(draws)
            worst = max(worst, abs(freq - p) / ref.bernstein_halfwidth(p, len(draws), ALPHA))
    notes["mask_freq_gap_over_allowed"] = worst
    if worst > 1.0:
        problems.append("drawn masks do not follow the mechanism's row laws")


def check_run(wl, warm: list, outputs: list, replayed: bool):
    """Per-operation pass/fail plus whether the run's outputs are correct."""
    problems: list = []
    notes: dict = {}
    if wl.calls[0].kind == "release":
        call = wl.calls[0]
        values = [check_release_record(call, rc, blobs[0]) for rc, blobs in
                  (o[0] for o in [warm] + outputs)]
        ops_ok = [v is not None for v in values[1:]]
        if values[0] is None:
            problems.append("warm-up release record is not a valid release")
        if replayed and outputs and outputs[0][0][1] != warm[0][1]:
            problems.append("replayed release differs from the front-door release")
        check_law(call, call.left, problems)
        # a replayed run re-draws the warm-up's seed as its first operation
        good = [v for v in values[1 if replayed else 0:] if v is not None]
        law = workloads.reference_law(call, call.left)
        scale = ref.noise_scale(ref.LAPLACE, workloads.sensitivity(call),
                                call.scenario["budget"]["epsilon"], 0.0)
        d_stat, p_value = ref.ks_test(good, lambda x: ref.mixture_cdf(ref.LAPLACE, law, scale, x))
        notes.update(ks_n=len(good), ks_d=d_stat, ks_p=p_value)
        if p_value < ALPHA:
            problems.append(f"released outputs reject the composed law: KS p = {p_value:.3g}")
        check_mask_draws(call, [wl.release_seed0 + i for i in range(len(values))], problems, notes)
    else:
        for call, (rc, blobs) in zip(wl.calls, warm):
            check_audit(call, rc, blobs, problems, notes)
        for call in wl.calls:
            check_law(call, call.left, problems)
            check_law(call, call.right, problems)
        ops_ok = [all(rc == 0 and blobs == w[1] for (rc, blobs), w in zip(op, warm))
                  for op in outputs]
    if problems:
        ops_ok = [False] * len(outputs)
    notes["problems"] = problems
    return {"ops": ops_ok, "run": not problems}, notes
