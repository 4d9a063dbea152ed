"""The benchmark's traced replay (bench/tracing.py) reaches into the program by
name: it patches ``audit._dataset_support``, ``audit.apply_mask``,
``FwlQuery.__call__`` and ``VectorMixture.sample``/``log_density`` and replays
the audit through public functions. This replays one small exact audit under
those patches, so a rename in the program fails here rather than in a
benchmark run. It also checks the benchmark's claim rows, exact and Monte
Carlo, against the benchmark's own exact delta."""

import json
import sys
from pathlib import Path

import pytest

from amplipriv import audit
from amplipriv.cli import run_scenario
from amplipriv.divergence import VectorMixture, _Kernel
from amplipriv.queries import FwlQuery

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402


def test_traced_replay_of_an_exact_audit(tmp_path):
    scenario = ROOT / "scenarios" / "laplace_mean_rho05.json"
    patched = (audit._dataset_support, audit.apply_mask, FwlQuery.__call__,
               VectorMixture.sample, VectorMixture.log_density)
    tr = tracing.Tracer()
    replay = tmp_path / "replay"
    replay.mkdir()
    with tracing.instrumented(tr):
        tracing.replay_audit(tr, scenario, replay)
    assert (audit._dataset_support, audit.apply_mask, FwlQuery.__call__,
            VectorMixture.sample, VectorMixture.log_density) == patched

    # the replay writes the reports the command writes
    assert run_scenario("audit", str(scenario), str(tmp_path / "cli")) == 0
    for name in ("laplace_mean_rho05_audit.csv", "laplace_mean_rho05_audit.json"):
        assert (replay / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()

    metrics = tracing.per_layer_metrics(tr, 1)
    assert metrics["cli.run_s"] > 0.0
    assert metrics["audit.components"] > 0
    assert metrics["divergence.quadrature_s"] > 0.0
    assert sum(tracing.layer_shares(tr).values()) > 0.99


@pytest.mark.parametrize("seed", [2, 7])
def test_the_benchmark_monte_carlo_claim_row_holds_the_exact_delta(tmp_path, seed, monkeypatch):
    # the audit-mc claim row: neighbours that differ in coordinate 0 only, so
    # the benchmark's own 1-D integral of that coordinate is the exact delta
    import reference as ref
    import workloads

    call = workloads.build("audit-mc", seed, tmp_path / "scenarios").calls[1]
    calls, real = [], _Kernel.__call__
    monkeypatch.setattr(_Kernel, "__call__", lambda self, x: calls.append(len(x)) or real(self, x))
    assert run_scenario("audit", str(call.path), str(tmp_path)) == 0
    # one kernel call, on the 4 x 4 x 6 centre lattice: its box interval needs no refinement
    assert calls == [96]
    row, = json.loads((tmp_path / f"{call.path.stem}_audit.json").read_text())["rows"]
    laws = [ref.clipped_mean_coordinate_law(rows, workloads.PI, 0, workloads.B)
            for rows in (call.left, call.right)]
    scale = ref.noise_scale(ref.LAPLACE, workloads.sensitivity(call), 1.0, 0.0)
    delta, err = ref.hockey_stick(ref.LAPLACE, *laws, scale, float(row["epsilon_eval"]))
    lower, upper = map(float, row["ci"])  # reports write numbers as strings
    assert row["method"] == "interval" and delta > 0.0
    assert lower <= delta + err and delta - err <= upper


@pytest.mark.parametrize("workload", ["audit-lattice", "audit-quadrature"])
@pytest.mark.parametrize("seed", [2, 7])
def test_the_benchmark_exact_claim_rows_hold_the_exact_delta(tmp_path, workload, seed):
    # each exact claim row's value lies within its own tolerance of the
    # benchmark's integral, give or take that integral's error bound
    import reference as ref
    import workloads

    calls = [call for call in workloads.build(workload, seed, tmp_path / "scenarios").calls
             if "claim" in call.scenario["audit"]]
    assert len(calls) == (1 if workload == "audit-lattice" else 2)
    for call in calls:
        assert run_scenario("audit", str(call.path), str(tmp_path)) == 0
        row, = json.loads((tmp_path / f"{call.path.stem}_audit.json").read_text())["rows"]
        laws = [workloads.reference_law(call, rows) for rows in (call.left, call.right)]
        scale = ref.noise_scale(call.family, workloads.sensitivity(call), float(row["epsilon"]),
                                call.scenario["budget"]["delta"])
        delta, err = ref.hockey_stick(call.family, *laws, scale, float(row["epsilon_eval"]))
        assert row["method"] == "quadrature" and delta > 0.0
        assert abs(float(row["empirical"]) - delta) <= float(row["tolerance"]) + err
