"""Golden reports: every command on the shipped scenarios and on one inline
Monte Carlo scenario, and the exact audit of two inline scenarios, must write
the same bytes, print the same lines and exit the same way as when the
digests in ``golden_reports.json`` were pinned.

A change that moves the last bit of any report fails here. A change that
means to move one re-pins the digests and says why:

    PYTHONPATH=src python tests/test_golden_reports.py --pin
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from amplipriv.cli import run_scenario

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = HERE / "golden_reports.json"
COMMANDS = ("calibrate", "amplify", "audit", "simulate", "counterexample")

# shaped like the benchmark's audit-mc claim scenario: a vector clipped mean
# (k = 3, 64 components) on a 2x3 dyadic point, audited by Monte Carlo at a
# claimed epsilon, with fewer samples so it stays fast
MC_SCENARIO = {
    "seed": 2,
    "bound_B": 0.5,
    "dataset": {"inline": [[-0.5, 0.125, -0.375], [0.25, -0.0625, 0.4375]]},
    "neighbor": {"row": 0, "replacement": [0.5, 0.125, -0.375]},
    "mechanism": {"kind": "mcar_bernoulli", "pi": [0.5, 0.5, 0.5]},
    "query": {"kind": "clipped_mean", "params": {"n": 2, "d": 3, "clip": 0.5}, "post": []},
    "family": "laplace",
    "budget": {"epsilon": 1.0, "delta": 0.0},
    "epsilon_grid": [1.0, 1.5],
    "audit": {"method": "mc", "tolerance": 1e-7, "samples": 5000,
              "claim": {"epsilon": 0.1, "delta": 0.11}},
}

# shaped like the benchmark's audit-lattice point: 2x6 on {0, +-0.25, +-0.5},
# clipped mean then sum, an exact Laplace audit of a grid at a claimed epsilon
LATTICE_SCENARIO = {
    "seed": 2,
    "bound_B": 0.5,
    "dataset": {"inline": [[-0.5] * 6, [0.25, -0.5, 0.25, 0.5, 0.5, -0.25]]},
    "neighbor": {"row": 0, "replacement": [0.5] * 6},
    "mechanism": {"kind": "mcar_bernoulli", "pi": [0.5] * 6},
    "query": {"kind": "clipped_mean", "params": {"n": 2, "d": 6, "clip": 0.5},
              "post": [{"map": "sum"}]},
    "family": "laplace",
    "budget": {"epsilon": 1.0, "delta": 0.0},
    "epsilon_grid": [0.25, 0.5, 1.0],
    "audit": {"method": "exact", "tolerance": 1e-7,
              "claim": {"epsilon": 0.25, "delta": 0.31271072120902776}},
}

# shaped like the Gaussian half of the benchmark's audit-quadrature point: 2x3
# dyadic rows, clipped mean then sum, an exact audit of a grid at a claim
GAUSSIAN_SCENARIO = {
    "seed": 2,
    "bound_B": 0.5,
    "dataset": {"inline": [[-0.5] * 3, [-0.3935546875, 0.259765625, 0.49609375]]},
    "neighbor": {"row": 0, "replacement": [0.5] * 3},
    "mechanism": {"kind": "mcar_bernoulli", "pi": [0.5] * 3},
    "query": {"kind": "clipped_mean", "params": {"n": 2, "d": 3, "clip": 0.5},
              "post": [{"map": "sum"}]},
    "family": "gaussian",
    "budget": {"epsilon": 1.0, "delta": 1e-5},
    "epsilon_grid": [0.25, 0.5, 1.0],
    "audit": {"method": "exact", "tolerance": 1e-7,
              "claim": {"epsilon": 0.05, "delta": 0.06112211897607489}},
}

INLINE = {
    "mc_vector_claim.json": MC_SCENARIO,
    "lattice_sum_claim.json": LATTICE_SCENARIO,
    "gaussian_grid_claim.json": GAUSSIAN_SCENARIO,
}

CASES = [
    *(f"{path.name}:{command}" for path in sorted(SCENARIOS.glob("*.json")) for command in COMMANDS),
    *(f"mc_vector_claim.json:{command}" for command in COMMANDS),
    "lattice_sum_claim.json:audit",
    "gaussian_grid_claim.json:audit",
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: str, work: Path) -> dict:
    """Exit code and the SHA-256 of stdout, stderr and every report of one call."""
    name, command = case.split(":")
    if name in INLINE:
        scenario = work / name
        scenario.write_text(json.dumps(INLINE[name]))
    else:
        scenario = SCENARIOS / name
    out_dir = work / "out"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_scenario(command, str(scenario), str(out_dir))
    result = {
        "exit": code,
        "stdout": _digest(out.getvalue().encode()),
        "stderr": _digest(err.getvalue().encode()),
    }
    for report in sorted(out_dir.iterdir()):
        result[report.name] = _digest(report.read_bytes())
    return result


@pytest.mark.parametrize("case", CASES)
def test_reports_match_pinned_digests(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(case, tmp_path) == golden[case]


if __name__ == "__main__" and sys.argv[1:] == ["--pin"]:
    import tempfile

    pinned = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            pinned[case] = run_case(case, Path(tmp))
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} cases in {GOLDEN}")
