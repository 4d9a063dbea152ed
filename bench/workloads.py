"""Workload definitions: scenario files generated from the benchmark seed.

Each workload is a list of front-door calls, ``(command, scenario_file)``,
that together make one operation. The program sees only the generated files;
the seed never reaches it except through them (and, for releases, through the
per-operation ``--seed`` override). ``reference_law`` gives each call's
output law from the benchmark's own enumeration, for the checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

B = 0.5
PI = 0.5
GAUSSIAN_DELTA = 1e-5
MC_SAMPLES = 50_000
LATTICE_MAGNITUDES = (0.5, 0.5, 0.5, 0.25, 0.25, 0.25)
GRAIN = 1024  # entries are multiples of 1/GRAIN, so every masked sum is exact

# the shipped MAR release scenario's mechanism
MAR_MECHANISM = {
    "kind": "mar_anchored",
    "anchor": [0],
    "q_all": 0.0,
    "candidates": [[0, 1, 1, 1], [0, 0, 1, 1]],
    "thresholds": [[0.0]],
    "score_table": {"1": [0.3, 0.7], "0": [0.8, 0.2]},
}

WORKLOADS = ("audit-quadrature", "audit-lattice", "audit-mc", "release-batch")


@dataclass
class Call:
    """One front-door call and what the checks need to judge its output."""

    command: str
    path: Path
    scenario: dict
    family: str
    kind: str  # "exact", "mc" or "release"
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    calls: list
    release_seed0: int = 0


def _uniform_rows(rng: random.Random, n: int, d: int) -> list:
    """Entries uniform on the dyadic grid of [-B, B].

    Dyadic entries make every masked sum exact, so one mathematical centre is
    one float; otherwise the program's merge of bit-identical centres splits
    some of them by rounding, and the component count would vary by seed.
    """
    return [[rng.randint(-int(B * GRAIN), int(B * GRAIN)) / GRAIN for _ in range(d)]
            for _ in range(n)]


def _base_pair_delta(family: str, sensitivity: float, scale: float, epsilon: float) -> float:
    if family == ref.LAPLACE:
        return ref.laplace_pair_delta(sensitivity, scale, epsilon)
    return ref.gaussian_pair_delta(sensitivity, scale, epsilon)


def _audit_scenario(seed, rows, neighbor_row, family, grid, method, post, claim_eps=None):
    """An audit scenario; with ``claim_eps`` it audits a stated claim instead
    of the accountant: delta at claim_eps of the same noise on the unmasked
    pair, a valid bound on the masked mixture by joint convexity."""
    n, d = len(rows), len(rows[0])
    delta = 0.0 if family == ref.LAPLACE else GAUSSIAN_DELTA
    scn = {
        "seed": seed,
        "bound_B": B,
        "dataset": {"inline": rows},
        "neighbor": {"row": 0, "replacement": neighbor_row},
        "mechanism": {"kind": "mcar_bernoulli", "pi": [PI] * d},
        "query": {
            "kind": "clipped_mean",
            "params": {"n": n, "d": d, "clip": B},
            "post": [{"map": "sum"}] if post else [],
        },
        "family": family,
        "budget": {"epsilon": 1.0, "delta": delta},
        "epsilon_grid": list(grid),
        "audit": {"method": method, "tolerance": 1e-7},
    }
    if method == "mc":
        scn["audit"]["samples"] = MC_SAMPLES
    if claim_eps is not None:
        C = ref.clipped_sensitivity(n, d, B)
        gap = sum(abs(a - b) for a, b in zip(rows[0], neighbor_row)) / n
        scale = ref.noise_scale(family, C, max(grid), delta)
        scn["audit"]["claim"] = {
            "epsilon": claim_eps,
            "delta": _base_pair_delta(family, gap, scale, claim_eps),
        }
    return scn


def _write(out_dir: Path, name: str, scn: dict) -> Path:
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(scn, indent=1))
    return path


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Generate the workload's scenario files under ``out_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}'; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = []
    if name == "audit-quadrature":
        # 2x3 with row 0 at the corner: 64 masks, 32 distinct centres (drawn
        # until no two subset sums coincide, so the count is seed-independent)
        while True:
            rows = [[-B] * 3, *_uniform_rows(rng, 1, 3)]
            if len(ref.clipped_sum_law(rows, [ref.bernoulli_row_law(3, PI)] * 2, B)) == 32:
                break
        for family in (ref.LAPLACE, ref.GAUSSIAN):
            for stem, grid, claim in (
                ("", (0.25, 0.5, 1.0), None),
                ("_claim", (1.0,), 0.25 if family == ref.LAPLACE else 0.05),
            ):
                scn = _audit_scenario(seed, rows, [B] * 3, family, grid, "exact", True, claim)
                path = _write(out_dir, f"quad_{family}{stem}", scn)
                calls.append(Call("audit", path, scn, family, "exact"))
    elif name == "audit-lattice":
        # 2x6 on the lattice {0, +-0.25, +-0.5}: 4096 masks per dataset
        # collapse to 22 centres, so enumeration outweighs the quadrature. The
        # seed picks signs and order of fixed magnitudes, which keeps the
        # centres' span, and so their count, the same for every seed
        row = [m * rng.choice((-1, 1)) for m in LATTICE_MAGNITUDES]
        rng.shuffle(row)
        rows = [[-B] * 6, row]
        for stem, grid, claim in (("", (0.25, 0.5, 1.0), None), ("_claim", (1.0,), 0.25)):
            scn = _audit_scenario(seed, rows, [B] * 6, ref.LAPLACE, grid, "exact", True, claim)
            path = _write(out_dir, f"lattice{stem}", scn)
            calls.append(Call("audit", path, scn, ref.LAPLACE, "exact"))
    elif name == "audit-mc":
        # vector clipped mean (k = 3); the neighbour changes feature 0 only,
        # so the other coordinates share one law and delta is the 1-D delta
        # of coordinate 0, which the reference integrates exactly
        rows = _uniform_rows(rng, 2, 3)
        rows[0][0] = -B
        neighbor = [B] + rows[0][1:]
        for stem, claim in (("", None), ("_claim", 0.1)):
            scn = _audit_scenario(seed, rows, neighbor, ref.LAPLACE, (1.0,), "mc", False, claim)
            path = _write(out_dir, f"mc{stem}", scn)
            calls.append(Call("audit", path, scn, ref.LAPLACE, "mc"))
    else:
        rows = _uniform_rows(rng, 2, 4)
        scn = {
            "seed": seed,
            "bound_B": B,
            "dataset": {"inline": rows},
            "neighbor": {"row": 0, "replacement": _uniform_rows(rng, 1, 4)[0]},
            "mechanism": MAR_MECHANISM,
            "query": {
                "kind": "clipped_mean",
                "params": {"n": 2, "d": 4, "clip": B},
                "post": [{"map": "sum"}],
            },
            "family": ref.LAPLACE,
            "budget": {"epsilon": 1.0, "delta": 0.0},
            "rho": 0.5,
            "epsilon_grid": [1.0],
        }
        path = _write(out_dir, "release", scn)
        calls.append(Call("simulate", path, scn, ref.LAPLACE, "release", left=rows))
        return Workload(name, calls, release_seed0=(seed % 100_000) * 100_000)
    for call in calls:
        call.left = call.scenario["dataset"]["inline"]
        call.right = [call.scenario["neighbor"]["replacement"], *call.left[1:]]
    return Workload(name, calls)


def reference_law(call: Call, rows) -> list:
    """The benchmark's own (centre, weight) law of a call's output on ``rows``."""
    scn = call.scenario
    d = len(rows[0])
    if call.kind == "release":
        laws = [ref.anchored_row_law(r, scn["mechanism"]) for r in rows]
        return ref.clipped_sum_law(rows, laws, B)
    if call.kind == "mc":
        return ref.clipped_mean_vector_law(rows, PI, B)
    return ref.clipped_sum_law(rows, [ref.bernoulli_row_law(d, PI)] * len(rows), B)


def p_star(call: Call) -> float:
    return 1.0 - PI ** len(call.left[0])


def sensitivity(call: Call) -> float:
    return ref.clipped_sensitivity(len(call.left), len(call.left[0]), B)
