"""Scenario runner: exit codes, report formats, reproducibility."""

import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplipriv import audit
from amplipriv.cli import AUDIT_CSV_HEADER, FIELDS, build_parser, main, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(command, scenario, out, fmt="json", seed=None):
    return run_scenario(command, str(scenario), out_dir=str(out), fmt=fmt,
                        seed_override=seed)


@pytest.fixture
def laplace_scn():
    return SCENARIOS / "laplace_mean_rho05.json"


class TestBundledScenarios:
    def test_laplace_mean_rho05_audit(self, tmp_path, laplace_scn):
        assert run("audit", laplace_scn, tmp_path) == 0
        sidecar = json.loads((tmp_path / "laplace_mean_rho05_audit.json").read_text())
        for row in sidecar["rows"]:
            # p* = 1, ratio = 0.5: the amplified epsilon is exactly half the base
            assert float(row["epsilon_eval"]) == 0.5 * float(row["epsilon"])
            assert row["verdict"] == "PASS"

    def test_tightness_p1(self, tmp_path):
        assert run("counterexample", SCENARIOS / "tightness_p1.json", tmp_path) == 0
        report = json.loads((tmp_path / "tightness_p1_counterexample.json").read_text())
        for row in report["rows"]:
            assert float(row["p_star"]) == 1.0
            assert float(row["equality_gap"]) <= 1e-9

    def test_mnar_scenario_exits_one_with_mar_message(self, tmp_path, capsys):
        code = run("amplify", SCENARIOS / "mnar_rejected.json", tmp_path)
        assert code == 1
        assert "MAR" in capsys.readouterr().err

    def test_calibrate(self, tmp_path, laplace_scn):
        assert run("calibrate", laplace_scn, tmp_path) == 0
        report = json.loads((tmp_path / "laplace_mean_rho05_calibrate.json").read_text())
        assert report["family"] == "laplace"
        # C_1 = 2 * 0.5 * (4 * 1/2) = 2 at epsilon 1
        assert float(report["scale"]) == 2.0

    def test_amplify(self, tmp_path, laplace_scn):
        assert run("amplify", laplace_scn, tmp_path) == 0
        report = json.loads((tmp_path / "laplace_mean_rho05_amplify.json").read_text())
        assert report["amplified"]["epsilon"] == "0.5"
        assert report["mechanism_class"] == "MAR"
        assert isinstance(report["amplified"]["delta"], str)  # decimal strings

    def test_simulate_and_reproducibility(self, tmp_path, laplace_scn):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("simulate", laplace_scn, out_a) == 0
        assert run("simulate", laplace_scn, out_b) == 0
        rec_a = (out_a / "laplace_mean_rho05_release.json").read_bytes()
        rec_b = (out_b / "laplace_mean_rho05_release.json").read_bytes()
        assert rec_a == rec_b
        record = json.loads(rec_a)
        assert "mask" not in record
        assert "seed_commitment" not in record

    def test_seed_override_changes_release(self, tmp_path, laplace_scn):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run("simulate", laplace_scn, out_a, seed=1)
        run("simulate", laplace_scn, out_b, seed=2)
        rec_a = json.loads((out_a / "laplace_mean_rho05_release.json").read_text())
        rec_b = json.loads((out_b / "laplace_mean_rho05_release.json").read_text())
        assert rec_a["output"] != rec_b["output"]


class TestAuditOutputs:
    def test_csv_header_contract(self, tmp_path, laplace_scn):
        run("audit", laplace_scn, tmp_path)
        lines = (tmp_path / "laplace_mean_rho05_audit.csv").read_text().splitlines()
        assert lines[0] == AUDIT_CSV_HEADER == "epsilon,bound,empirical,method,tolerance,verdict"
        assert len(lines) == 4

    def test_reports_byte_identical_across_runs(self, tmp_path, laplace_scn):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run("audit", laplace_scn, out_a)
        run("audit", laplace_scn, out_b)
        for name in ("laplace_mean_rho05_audit.csv", "laplace_mean_rho05_audit.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_failed_claim_exits_two(self, tmp_path, laplace_scn, capsys):
        scn = json.loads(laplace_scn.read_text())
        scn["audit"]["claim"] = {"epsilon": 0.05, "delta": 0.0}
        scn["epsilon_grid"] = [1.0]
        bad = tmp_path / "bad_claim.json"
        bad.write_text(json.dumps(scn))
        code = run("audit", bad, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "exceeds bound" in err

    def test_report_rerenders_csv(self, tmp_path, laplace_scn):
        run("audit", laplace_scn, tmp_path)
        sidecar = tmp_path / "laplace_mean_rho05_audit.json"
        assert run("report", sidecar, tmp_path, fmt="csv") == 0
        rendered = (tmp_path / "laplace_mean_rho05_audit_report.csv").read_text()
        assert rendered.splitlines()[0] == AUDIT_CSV_HEADER


    def test_numeric_fields_parse_as_floats(self, tmp_path, laplace_scn):
        # a claim at epsilon 0 makes the quadrature integrate something
        scn = json.loads(laplace_scn.read_text())
        scn["audit"] = {"method": "exact", "claim": {"epsilon": 0.0, "delta": 1.0}}
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(scn))
        assert run("audit", path, tmp_path) == 0
        numeric = ("epsilon", "bound", "empirical", "tolerance")
        lines = (tmp_path / "claim_audit.csv").read_text().splitlines()
        for line in lines[1:]:
            row = dict(zip(AUDIT_CSV_HEADER.split(","), line.split(",")))
            for key in numeric:
                float(row[key])
        sidecar = json.loads((tmp_path / "claim_audit.json").read_text())
        for row in sidecar["rows"]:
            assert float(row["empirical"]) > 0.0
            for key in numeric + ("epsilon_eval",):
                float(row[key])
        acc = sidecar["accountant"]
        for key in ("C", "C_tilde", "first_order", "p_star", "rho"):
            float(acc[key])
        for value in (*acc["base"].values(), *acc["amplified"].values()):
            float(value)


class TestSchemaDiagnostics:
    def test_parse_error_is_line_numbered(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{\n  "seed": 1,\n  oops\n}\n')
        assert run("audit", bad, tmp_path) == 1
        err = capsys.readouterr().err
        assert "broken.json:3:" in err

    def test_missing_seed_rejected(self, tmp_path, capsys):
        bad = tmp_path / "noseed.json"
        bad.write_text(json.dumps({"bound_B": 1.0}))
        assert run("calibrate", bad, tmp_path) == 1
        assert "scenario.seed" in capsys.readouterr().err

    def test_rho_claim_verified(self, tmp_path, laplace_scn, capsys):
        scn = json.loads(laplace_scn.read_text())
        scn["rho"] = 0.25  # mechanism support observes up to half the features
        bad = tmp_path / "bad_rho.json"
        bad.write_text(json.dumps(scn))
        assert run("amplify", bad, tmp_path) == 1
        assert "scenario.rho" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run("audit", tmp_path / "nope.json", tmp_path) == 1

    def test_bad_neighbor_rejected(self, tmp_path, laplace_scn, capsys):
        scn = json.loads(laplace_scn.read_text())
        scn["neighbor"]["replacement"] = [9.0, 9.0, 9.0, 9.0]  # violates bound_B
        bad = tmp_path / "bad_neighbor.json"
        bad.write_text(json.dumps(scn))
        assert run("audit", bad, tmp_path) == 1


    @pytest.mark.parametrize("command", ["calibrate", "amplify"])
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_nonfinite_epsilon_rejected(self, tmp_path, laplace_scn, capsys,
                                        command, epsilon):
        scn = json.loads(laplace_scn.read_text())
        scn["budget"]["epsilon"] = epsilon  # written as NaN / Infinity
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(scn))
        assert run(command, path, tmp_path) == 1
        assert "scenario.budget.epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        "bound_B", "rho", "epsilon_grid[1]", "audit.tolerance", "audit.samples",
        "audit.claim.epsilon", "audit.claim.delta",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_numbers_rejected(self, tmp_path, laplace_scn, capsys, field, value):
        scn = json.loads(laplace_scn.read_text())
        scn["audit"]["claim"] = {"epsilon": 0.5, "delta": 0.01}
        scn["audit"]["samples"] = 2000
        if field == "epsilon_grid[1]":
            scn["epsilon_grid"][1] = value
        else:
            *parents, leaf = field.split(".")
            node = scn
            for key in parents:
                node = node[key]
            node[leaf] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(scn))
        assert run("audit", path, tmp_path) == 1
        assert f"scenario.{field}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("scenario.mechanism.score_table",
         lambda scn: scn["mechanism"]["score_table"].update({"1": [0.2, 0.7]})),
        ("scenario.mechanism.candidates",
         lambda scn: scn["mechanism"].update(candidates=[])),
        ("scenario.neighbor.row", lambda scn: scn["neighbor"].update(row=7)),
        # checked when the spec is parsed, not when an anchor first lands in bin 1
        pytest.param("scenario.mechanism.score_table: no entry for bin key '1'",
                     lambda scn: scn["mechanism"]["score_table"].pop("1"),
                     id="missing-bin-key"),
        pytest.param("scenario.audit.samples: need at least 1000",
                     lambda scn: scn["audit"].update(samples=10), id="samples-too-few"),
        pytest.param("scenario.audit.samples: need at least 1000",
                     lambda scn: scn["audit"].update(samples=-5), id="samples-negative"),
        pytest.param("scenario.audit.samples: expected an integer",
                     lambda scn: scn["audit"].update(samples=1500.7), id="samples-fractional"),
        pytest.param("scenario.audit.method: unknown method 'bootstrap'",
                     lambda scn: scn["audit"].update(method="bootstrap"), id="unknown-method"),
        pytest.param("scenario.epsilon_grid[0]: must be positive",
                     lambda scn: scn.update(epsilon_grid=[-1.0]), id="negative-grid-epsilon"),
        pytest.param("scenario.epsilon_grid: must list at least one epsilon",
                     lambda scn: scn.update(epsilon_grid=[]), id="empty-grid"),
        pytest.param("scenario.seed: expected a number, got 'abc'",
                     lambda scn: scn.update(seed="abc"), id="seed-not-a-number"),
        pytest.param("scenario.seed: must be nonnegative",
                     lambda scn: scn.update(seed=-3), id="seed-negative"),
        pytest.param("scenario.audit: must be a JSON object",
                     lambda scn: scn.update(audit=["mc"]), id="audit-not-an-object"),
        pytest.param("scenario.audit.claim: must be a JSON object",
                     lambda scn: scn["audit"].update(claim=0.5), id="claim-not-an-object"),
        pytest.param("scenario.audit.claim.epsilon: must be nonnegative",
                     lambda scn: scn["audit"].update(claim={"epsilon": -1, "delta": 0.1}),
                     id="negative-claim-epsilon"),
        pytest.param("scenario.audit.claim.delta: must lie in [0, 1]",
                     lambda scn: scn["audit"].update(claim={"epsilon": 1, "delta": 1.5}),
                     id="claim-delta-above-one"),
        pytest.param("scenario.audit.claim.delta: must lie in [0, 1]",
                     lambda scn: scn["audit"].update(claim={"epsilon": 1, "delta": -0.1}),
                     id="negative-claim-delta"),
        pytest.param("scenario.mechanism.anchor: missing required field",
                     lambda scn: scn["mechanism"].pop("anchor"), id="missing-anchor"),
        pytest.param("scenario.mechanism.q_all: missing required field",
                     lambda scn: scn["mechanism"].pop("q_all"), id="missing-q_all"),
        pytest.param("scenario.mechanism.pi: missing required field",
                     lambda scn: scn.update(mechanism={"kind": "mcar_bernoulli"}),
                     id="missing-pi"),
        pytest.param("scenario.mechanism.q_all: expected a number, got 'x'",
                     lambda scn: scn["mechanism"].update(q_all="x"), id="q_all-not-a-number"),
        pytest.param("scenario.mechanism.q_all: must lie in [0, 1], got 2.0",
                     lambda scn: scn["mechanism"].update(q_all=2), id="q_all-above-one"),
        pytest.param("scenario.mechanism.anchor: indices must lie in [0, 4)",
                     lambda scn: scn["mechanism"].update(anchor=[9]), id="anchor-out-of-range"),
        pytest.param("scenario.mechanism.candidates: masks must be distinct",
                     lambda scn: scn["mechanism"].update(candidates=[[0, 1, 1, 1]] * 2),
                     id="duplicate-candidates"),
        pytest.param("scenario.mechanism.candidates[0]: mask bits must be 0 or 1",
                     lambda scn: scn["mechanism"].update(candidates=[[0, 1, 1, 2], [0, 0, 1, 1]]),
                     id="candidate-bit-two"),
        pytest.param("scenario.mechanism.patterns: probabilities sum to 0.5",
                     lambda scn: scn.update(mechanism={"kind": "mcar_pattern", "patterns": [
                         {"mask": [0, 0, 1, 1], "prob": 0.25},
                         {"mask": [1, 1, 1, 1], "prob": 0.25}]}),
                     id="pattern-sum-half"),
        pytest.param("scenario.mechanism.rho_cap: must lie in (0, 1]",
                     lambda scn: scn.update(mechanism={"kind": "capped_bernoulli",
                                                       "pi": [0.5] * 4, "rho_cap": 0}),
                     id="rho_cap-zero"),
        # read in this order, the first thresholds list would bin feature 2
        pytest.param("scenario.mechanism.anchor: indices must be strictly increasing",
                     lambda scn: scn["mechanism"].update(
                         anchor=[2, 0], thresholds=[[0.0], [0.0]],
                         candidates=[[0, 1, 0, 1], [0, 0, 0, 1]]),
                     id="anchor-unsorted"),
        pytest.param("scenario.mechanism.anchor: indices must be strictly increasing",
                     lambda scn: scn["mechanism"].update(anchor=[0, 0],
                                                         thresholds=[[0.0], [0.0]]),
                     id="anchor-duplicate"),
        pytest.param("scenario.budget.epsilon: missing required field",
                     lambda scn: scn.update(budget={}), id="budget-empty"),
        pytest.param("scenario.budget.epsilon: expected a number, got 'one'",
                     lambda scn: scn["budget"].update(epsilon="one"), id="budget-epsilon-string"),
        pytest.param("scenario.query.params.n: missing required field",
                     lambda scn: scn["query"].update(params={}), id="query-params-empty"),
        pytest.param("scenario.query.params.width: not a parameter of kind 'clipped_mean'",
                     lambda scn: scn["query"]["params"].update(width=3),
                     id="query-params-unknown"),
        pytest.param("scenario.epsilon_grd: unknown field",
                     lambda scn: scn.update(epsilon_grd=scn.pop("epsilon_grid")),
                     id="top-level-unknown"),
        pytest.param("scenario.audit.tolerence: unknown field",
                     lambda scn: scn["audit"].update(tolerence=1e-7), id="audit-unknown"),
        pytest.param("scenario.mechanism.pi: not a parameter of kind 'mar_anchored'",
                     lambda scn: scn["mechanism"].update(pi=[0.5]), id="mechanism-unknown"),
        pytest.param("scenario.query.post[0].factor: not a parameter of kind 'sum'",
                     lambda scn: scn["query"]["post"][0].update(factor=2.0),
                     id="post-unknown"),
        pytest.param("scenario.neighbor.replacement: expected a list of numbers",
                     lambda scn: scn["neighbor"].update(replacement="abc"),
                     id="replacement-string"),
        pytest.param("scenario.neighbor.replacement[1]: expected a number, got 'x'",
                     lambda scn: scn["neighbor"]["replacement"].__setitem__(1, "x"),
                     id="replacement-string-cell"),
        pytest.param("scenario.dataset.inline[1][2]: expected a number, got 'x'",
                     lambda scn: scn["dataset"]["inline"][1].__setitem__(2, "x"),
                     id="inline-string-cell"),
        pytest.param("scenario.dataset.inline: expected a list of rows",
                     lambda scn: scn["dataset"].update(inline="rows"), id="inline-string"),
        pytest.param("scenario.neighbor.row: expected an integer, got 0.7",
                     lambda scn: scn["neighbor"].update(row=0.7), id="row-fractional"),
        pytest.param("scenario.neighbor.row: expected a number, got True",
                     lambda scn: scn["neighbor"].update(row=True), id="row-boolean"),
        pytest.param("scenario.bound_B: expected a number, got True",
                     lambda scn: scn.update(bound_B=True), id="bound_B-boolean"),
        pytest.param("scenario.neighbor.row: missing required field",
                     lambda scn: scn["neighbor"].pop("row"), id="row-missing"),
        pytest.param("scenario.neighbor: must be a JSON object",
                     lambda scn: scn.update(neighbor=[0, [0.5] * 4]), id="neighbor-list"),
        pytest.param("scenario.query: must be a JSON object",
                     lambda scn: scn.update(query=3), id="query-number"),
        pytest.param("scenario.query.post: expected a list of maps",
                     lambda scn: scn["query"].update(post="sum"), id="post-string"),
        pytest.param("scenario.query.post[0]: must be a JSON object",
                     lambda scn: scn["query"].update(post=["sum"]), id="post-entry-string"),
        pytest.param("scenario.query.post[0].map: unknown post-processing map 'cube'",
                     lambda scn: scn["query"].update(post=[{"map": "cube"}]),
                     id="post-unknown-map"),
        pytest.param("scenario.query.post[0].indices: must lie in [0, 4)",
                     lambda scn: scn["query"].update(post=[{"map": "project", "indices": [5]},
                                                           {"map": "sum"}]),
                     id="project-index-out-of-range"),
        pytest.param("scenario.query.post[1].indices: must be distinct, got [0, 0, 0]",
                     lambda scn: scn["query"].update(post=[{"map": "sum"},
                                                           {"map": "project", "indices": [0, 0, 0]}]),
                     id="project-indices-repeated"),
        pytest.param("scenario.query.post[0].indices[0]: expected an integer, got 0.5",
                     lambda scn: scn["query"].update(post=[{"map": "project", "indices": [0.5]}]),
                     id="project-index-fractional"),
        pytest.param("scenario.query.post[0].indices: expected a non-empty list of integers",
                     lambda scn: scn["query"].update(post=[{"map": "project", "indices": []}]),
                     id="project-indices-empty"),
        pytest.param("scenario.query.post[0].indices: missing required field",
                     lambda scn: scn["query"].update(post=[{"map": "project"}]),
                     id="project-indices-missing"),
        pytest.param("scenario.query.post[1].factor: missing required field",
                     lambda scn: scn["query"]["post"].append({"map": "scale"}),
                     id="scale-factor-missing"),
        pytest.param("scenario.query.post[1].factor: expected a number, got 'x'",
                     lambda scn: scn["query"]["post"].append({"map": "scale", "factor": "x"}),
                     id="scale-factor-string"),
        pytest.param("scenario.query.post[1].lo: missing required field",
                     lambda scn: scn["query"]["post"].append({"map": "clamp", "hi": 1.0}),
                     id="clamp-lo-missing"),
        pytest.param("scenario.query.post[1].hi: expected a number, got 'x'",
                     lambda scn: scn["query"]["post"].append({"map": "clamp", "lo": 0, "hi": "x"}),
                     id="clamp-hi-string"),
        pytest.param("scenario.query.post[0].lipschitz: not a parameter of kind 'sum'",
                     lambda scn: scn["query"]["post"][0].update(lipschitz=1.0),
                     id="lipschitz-refused"),
        pytest.param("scenario.dataset: must be a JSON object",
                     lambda scn: scn.update(dataset=5), id="dataset-number"),
        pytest.param("scenario.dataset.csv: expected a file path, got 5",
                     lambda scn: scn.update(dataset={"csv": 5}), id="dataset-csv-number"),
        pytest.param("scenario.rho: must lie in [0, 1], got -0.1",
                     lambda scn: scn.update(rho=-0.1), id="rho-negative"),
        pytest.param("scenario.query.params.clip: must be positive, got -1.0",
                     lambda scn: scn["query"]["params"].update(clip=-1), id="clip-negative"),
        pytest.param("scenario.query.params.d: must be at least 1, got 0",
                     lambda scn: scn["query"]["params"].update(d=0), id="d-zero"),
        pytest.param("scenario.bound_B: must be positive, got -1.0",
                     lambda scn: scn.update(bound_B=-1), id="bound_B-negative"),
        pytest.param("scenario.audit.tolerance: must be positive, got -1.0",
                     lambda scn: scn["audit"].update(tolerance=-1), id="tolerance-negative"),
        pytest.param("scenario.epsilon_grid: expected a list of numbers, got 0.5",
                     lambda scn: scn.update(epsilon_grid=0.5), id="grid-number"),
        pytest.param("scenario.neighbor.replacement: must hold the dataset's 4 features",
                     lambda scn: scn["neighbor"].update(replacement=[0.1, 0.2]),
                     id="replacement-short"),
        pytest.param("scenario.query.kind: unknown query kind 'median'",
                     lambda scn: scn["query"].update(kind="median"), id="query-kind-unknown"),
        pytest.param("scenario.query.kind: missing required field",
                     lambda scn: scn["query"].pop("kind"), id="query-kind-missing"),
        pytest.param("scenario.query.params.n: expected a number, got '2'",
                     lambda scn: scn["query"]["params"].update(n="2"), id="n-string"),
        pytest.param("scenario.query.params.n: expected an integer, got 2.5",
                     lambda scn: scn["query"]["params"].update(n=2.5), id="n-fractional"),
        pytest.param("scenario.query.params.n: must equal the dataset's 2 rows, got 3",
                     lambda scn: scn["query"]["params"].update(n=3), id="n-not-the-dataset's"),
        pytest.param("scenario.mechanism: must cover the query's 4 features, got 3",
                     lambda scn: scn.update(mechanism={"kind": "mcar_bernoulli", "pi": [0.5] * 3}),
                     id="mechanism-too-narrow"),
        pytest.param("scenario.budget.delta: must be 0 for the laplace family, got 0.1",
                     lambda scn: scn["budget"].update(delta=0.1), id="laplace-delta"),
        pytest.param("scenario.epsilon_grid[1]: must lie in (0, 1] for the Gaussian guarantee",
                     lambda scn: scn.update(family="gaussian", epsilon_grid=[0.5, 1.5],
                                            budget={"epsilon": 0.5, "delta": 0.001}),
                     id="gaussian-grid-epsilon"),
        pytest.param("scenario.audit.method: the exact audit needs a 1-D query output",
                     lambda scn: scn["query"].update(post=[]), id="exact-on-a-vector"),
        pytest.param("scenario.audit.tolerance: must be positive, got 0.0",
                     lambda scn: scn["audit"].update(tolerance=0), id="tolerance-zero"),
        pytest.param("scenario.audit.samples: need at least 1000, got 999",
                     lambda scn: scn["audit"].update(method="mc", samples=999), id="mc-samples"),
        pytest.param("scenario.audit.samples: at most 67108864 at output dimension 1",
                     lambda scn: scn["audit"].update(samples=10**13), id="samples-too-many"),
    ])
    def test_malformed_scenario_names_the_field(self, tmp_path, laplace_scn, capsys,
                                                field, edit):
        scn = json.loads(laplace_scn.read_text())
        edit(scn)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(scn))
        assert run("audit", path, tmp_path) == 1
        assert field in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["calibrate", "amplify", "audit", "simulate"])
    @pytest.mark.parametrize("n, rule", [
        (2.5, "expected an integer, got 2.5"),
        (3, "must equal the dataset's 2 rows, got 3"),
        ("2", "expected a number, got '2'"),
    ])
    def test_query_rows_named_under_every_command(self, tmp_path, laplace_scn, capsys,
                                                   command, n, rule):
        # n = 2.5 and n = 3 once calibrated the 2-row dataset at scale 1.6 and 1.333
        scn = json.loads(laplace_scn.read_text())
        scn["query"]["params"]["n"] = n
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(scn))
        assert run(command, path, tmp_path) == 1
        assert capsys.readouterr().err == f"error: scenario.query.params.n: {rule}\n"
        assert not list(tmp_path.glob("rows_*"))

    @pytest.mark.parametrize("command, field, edit", [
        ("simulate", "scenario.release_mask: expected true or false, got 'no'",
         lambda scn: scn.update(release_mask="no")),
        ("simulate", "scenario.release_mask: expected true or false, got 1",
         lambda scn: scn.update(release_mask=1)),
        ("counterexample", "scenario.counterexample: must be a JSON object",
         lambda scn: scn.update(counterexample=[0.5])),
        ("counterexample", "scenario.counterexample.epsilon: expected a number, got 'x'",
         lambda scn: scn.update(counterexample={"epsilon": "x", "delta": 0.001})),
        ("counterexample", "scenario.counterexample.epsilon: must lie in (0, 1], got 1.5",
         lambda scn: scn.update(counterexample={"epsilon": 1.5})),
        ("counterexample", "scenario.counterexample.epsilons: expected a non-empty list",
         lambda scn: scn["counterexample"].update(epsilons=0.5)),
        ("counterexample", "scenario.counterexample.epsilons: expected a non-empty list",
         lambda scn: scn["counterexample"].update(epsilons=[])),
        ("counterexample", "scenario.counterexample.epsilons[1]: must lie in (0, 1], got 0.0",
         lambda scn: scn["counterexample"].update(epsilons=[0.5, 0])),
        ("counterexample", "scenario.counterexample.delta: must lie in (0, 1), got 1.0",
         lambda scn: scn["counterexample"].update(delta=1)),
        ("counterexample", "scenario.counterexample.delta: expected a number, got None",
         lambda scn: scn["counterexample"].update(delta=None)),
        # a delta the block leaves out is the budget's: the message names both fields
        ("counterexample", "scenario.budget.delta: must lie in (0, 1), got 0.0; "
         "set counterexample.delta, which defaults to it\n",
         lambda scn: scn.update(budget={"epsilon": 0.5, "delta": 0},
                                counterexample={"epsilons": [0.5]})),
    ], ids=["release_mask-string", "release_mask-number", "counterexample-list",
            "epsilon-string", "epsilon-above-one", "epsilons-number", "epsilons-empty",
            "epsilons-zero", "delta-one", "delta-null", "delta-from-budget"])
    def test_malformed_command_block_names_the_field(self, tmp_path, laplace_scn, capsys,
                                                     command, field, edit):
        scn = json.loads((laplace_scn if command == "simulate"
                          else SCENARIOS / "tightness_p1.json").read_text())
        edit(scn)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(scn))
        assert run(command, path, tmp_path) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {field}")
        assert not list(tmp_path.glob("malformed_*"))

    def test_laplace_delta_binds_only_the_calibration(self, tmp_path, laplace_scn, capsys):
        scn = json.loads(laplace_scn.read_text())
        scn["budget"]["delta"] = 0.001
        path = tmp_path / "laplace_delta.json"
        path.write_text(json.dumps(scn))
        assert run("counterexample", path, tmp_path) == 0  # it calibrates no Laplace noise
        assert run("calibrate", path, tmp_path) == 1
        assert capsys.readouterr().err.endswith(
            "error: scenario.budget.delta: must be 0 for the laplace family, got 0.001\n")

    def test_release_mask_writes_the_drawn_mask(self, tmp_path, laplace_scn, capsys):
        scn = json.loads(laplace_scn.read_text())
        scn["release_mask"] = True
        path = tmp_path / "audit_release.json"
        path.write_text(json.dumps(scn))
        assert run("simulate", path, tmp_path) == 0
        record = json.loads((tmp_path / "audit_release_release.json").read_text())
        assert len(record["mask"]) == 2
        assert "(audit=True)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["amplify", "audit", "simulate"])
    @pytest.mark.parametrize("field, mechanism", [
        ("pi", {"kind": "mcar_bernoulli", "pi": [float("nan"), 0.5, 0.5, 0.5]}),
        ("pi", {"kind": "capped_bernoulli", "pi": [float("nan"), 0.5, 0.5, 0.5],
                "rho_cap": 0.5}),
        ("patterns", {"kind": "mcar_pattern", "patterns": [
            {"mask": [0, 0, 1, 1], "prob": float("nan")}, {"mask": [1, 1, 1, 1], "prob": 1.0}]}),
        ("thresholds", {"kind": "mar_anchored", "anchor": [0], "q_all": 0.0,
                        "candidates": [[0, 1, 1, 1], [0, 0, 1, 1]],
                        "thresholds": [[float("nan")]],
                        "score_table": {"1": [0.3, 0.7], "0": [0.8, 0.2]}}),
    ], ids=["bernoulli-pi", "capped-pi", "pattern-prob", "threshold"])
    def test_nan_mechanism_field_named(self, tmp_path, laplace_scn, capsys, command,
                                       field, mechanism):
        scn = json.loads(laplace_scn.read_text())
        scn["mechanism"] = mechanism  # written as NaN
        scn.pop("rho")
        path = tmp_path / "nan_mechanism.json"
        path.write_text(json.dumps(scn))
        assert run(command, path, tmp_path) == 1
        out, err = capsys.readouterr()
        assert f"scenario.mechanism.{field}: " in err
        assert "nan" not in out


class TestScenarioKeys:
    def test_score_table_keys_are_free(self, tmp_path, laplace_scn):
        scn = json.loads(laplace_scn.read_text())
        scn["mechanism"]["score_table"]["7"] = [0.5, 0.5]  # a bin no anchor value reaches
        path = tmp_path / "extra_bin.json"
        path.write_text(json.dumps(scn))
        assert run("audit", path, tmp_path) == 0

    def test_unknown_key_refused_only_by_commands_reading_its_object(self, tmp_path,
                                                                     laplace_scn, capsys):
        scn = json.loads(laplace_scn.read_text())
        scn["neighbor"]["rows"] = 1
        path = tmp_path / "neighbor_key.json"
        path.write_text(json.dumps(scn))
        assert run("amplify", path, tmp_path) == 0
        assert run("audit", path, tmp_path) == 1
        assert capsys.readouterr().err == "error: scenario.neighbor.rows: unknown field\n"

    @pytest.mark.parametrize("command, line", [
        ("amplify", "amplified: epsilon 1.0 -> 0.0"),
        ("audit", "epsilon=0.25 bound=0.0 empirical=0.0 PASS"),
    ])
    def test_mechanism_observing_nothing(self, tmp_path, laplace_scn, capsys, command, line):
        # tight rho is 0: the masked constant is 0 and every release is pure noise
        scn = json.loads(laplace_scn.read_text())
        scn["mechanism"] = {"kind": "mcar_bernoulli", "pi": [1.0, 1.0, 1.0, 1.0]}
        scn.pop("rho")
        path = tmp_path / "never_observed.json"
        path.write_text(json.dumps(scn))
        assert run(command, path, tmp_path) == 0
        out = capsys.readouterr().out
        assert out.startswith(line)
        if command == "audit":
            rows = json.loads((tmp_path / "never_observed_audit.json").read_text())["rows"]
            assert [r["verdict"] for r in rows] == ["PASS"] * 3


    @pytest.mark.parametrize("rho", [0.0, -0.1, 1.5])
    def test_declared_rho_of_a_mechanism_observing_nothing(self, tmp_path, laplace_scn, capsys,
                                                           rho):
        scn = json.loads(laplace_scn.read_text())
        scn["mechanism"] = {"kind": "mcar_bernoulli", "pi": [1.0, 1.0, 1.0, 1.0]}
        scn["rho"] = rho
        path = tmp_path / "never_observed.json"
        path.write_text(json.dumps(scn))
        code = run("amplify", path, tmp_path)
        out, err = capsys.readouterr()
        if rho == 0.0:  # the tight value, declared
            assert code == 0 and out.startswith("amplified: epsilon 1.0 -> 0.0")
        else:
            assert code == 1 and err == f"error: scenario.rho: must lie in [0, 1], got {rho!r}\n"

    def test_post_map_lipschitz_key_refused(self, tmp_path, laplace_scn, capsys):
        # a declared constant far below the clamp's proven 1 once calibrated
        # scale=0.02, released, and failed its audit with delta 0.99999 at bound 0
        scn = json.loads(laplace_scn.read_text())
        scn["query"]["post"] = [{"map": "sum"}, {"map": "scale", "factor": 10},
                                {"map": "clamp", "lo": 5, "hi": 6, "lipschitz": 0.001}]
        scn["dataset"]["inline"] = [[0.25, 0.25, 0, 0], [0.25, 0.25, 0, 0]]
        scn["neighbor"]["replacement"] = [0.35, 0.25, 0, 0]
        scn["mechanism"] = {"kind": "mcar_bernoulli", "pi": [0.0] * 4}
        scn["rho"] = 1
        path = tmp_path / "clamp.json"
        path.write_text(json.dumps(scn))
        for command in ("calibrate", "simulate", "audit"):
            assert run(command, path, tmp_path) == 1
            assert capsys.readouterr().err == (
                "error: scenario.query.post[2].lipschitz: not a parameter of kind 'clamp'\n")
        del scn["query"]["post"][2]["lipschitz"]
        path.write_text(json.dumps(scn))
        assert run("calibrate", path, tmp_path) == 0
        assert "scale=20.0 (C=20.0)" in capsys.readouterr().out
        assert run("audit", path, tmp_path) == 0

    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_seed_override_follows_the_seed_rule(self, tmp_path, laplace_scn, capsys, command):
        code = main([command, str(laplace_scn), "--out", str(tmp_path), "--seed", "-5"])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed: must be nonnegative, got -5\n"
        assert list(tmp_path.iterdir()) == []


def test_module_entry_point_runs_without_warnings(tmp_path, laplace_scn):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "amplipriv.cli", "calibrate", str(laplace_scn),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")


def _concrete_paths(node, path=()):
    """The key path of every dict entry and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _concrete_paths(child, path + (key,))


def _table_path(path) -> str:
    """The ``FIELDS`` path of a key path: list indices become [i], then [j]."""
    text, depth = "", 0
    for key in path:
        if isinstance(key, int):
            text += "[i]" if depth == 0 else "[j]"
            depth += 1
        else:
            text += f".{key}" if text else key
    return text


def _nearest_field(path) -> str:
    """The table path of a key path, or of its nearest ancestor in the table:
    a score_table row, or one bit of a mask, belongs to the table leaf above it."""
    while path and _table_path(path) not in FIELDS:
        path = path[:-1]
    return _table_path(path)


def _first_paths(bases) -> dict:
    """Each table path, and each path below a table leaf: the first base
    holding it, and the key path to it there."""
    found = {}
    for b, base in enumerate(bases):
        for path in _concrete_paths(base):
            found.setdefault(_table_path(path), (b, path))
    return found


class TestSchemaFuzz:
    """Every field of the table, on a scenario that holds it, dropped or
    replaced by a hostile value, under every command that reads it: the run
    passes, fails its audit, or exits 1 with a diagnostic naming a field."""

    SHIPPED = json.loads((SCENARIOS / "laplace_mean_rho05.json").read_text())
    BASES = [
        {**SHIPPED, "release_mask": False,
         "audit": {"method": "exact", "tolerance": 1e-7, "samples": 2000,
                   "claim": {"epsilon": 0.5, "delta": 0.5}},
         "counterexample": {"epsilons": [0.5], "epsilon": 0.5, "delta": 0.001}},
        {**{k: v for k, v in SHIPPED.items() if k != "rho"},
         "family": "gaussian", "budget": {"epsilon": 0.5, "delta": 0.001},
         "dataset": {"csv": "data.csv"},
         "mechanism": {"kind": "mcar_bernoulli", "pi": [0.5, 0.5, 0.5, 0.5]},
         "query": {"kind": "histogram",
                   "params": {"n": 2, "d": 4, "lo": -0.5, "hi": 0.5, "bins": 2, "features": [0, 1]},
                   "post": [{"map": "scale", "factor": 0.5}, {"map": "sum"}]}},
        {**SHIPPED, "mechanism": {"kind": "capped_bernoulli", "pi": [0.5] * 4, "rho_cap": 0.5},
         "query": {"kind": "covariance", "params": {"n": 2, "d": 4, "B": 0.5},
                   "post": [{"map": "project", "indices": [0]}, {"map": "clamp", "lo": -1, "hi": 1}]}},
        {**SHIPPED, "mechanism": {"kind": "mcar_pattern", "patterns": [
            {"mask": [0, 0, 1, 1], "prob": 0.5}, {"mask": [1, 1, 1, 1], "prob": 0.5}]},
         "query": {"kind": "linear", "params": {"n": 2, "d": 4, "matrices": [[[1, 0, 0, 0]]]},
                   "post": [{"map": "identity"}]}},
        {**SHIPPED, "query": {"kind": "mean_projection",
                              "params": {"n": 2, "d": 4, "projection": [[1, 0, 0, 0]]}}},
    ]
    PATHS = _first_paths(BASES)
    FOUR = ("calibrate", "amplify", "audit", "simulate")
    READERS = {
        "seed": (*FOUR, "counterexample"), "bound_B": (*FOUR, "counterexample"),
        "family": FOUR, "budget": FOUR, "dataset": FOUR, "query": FOUR,
        "mechanism": ("amplify", "audit", "simulate"), "rho": ("amplify", "audit"),
        "neighbor": ("audit",), "epsilon_grid": ("audit",), "audit": ("audit",),
        "release_mask": ("simulate",), "counterexample": ("counterexample",),
    }
    REPORTS = {"calibrate": "calibrate", "amplify": "amplify", "simulate": "release",
               "counterexample": "counterexample"}  # the audit sidecar copies the scenario
    DROP = object()
    VALUES = [DROP, float("nan"), float("inf"), float("-inf"), "abc", [0.5], -1, -0.5, 0, 2, 1.5,
              0.7, 5, True, None, {}, [], "sum", {"map": "scale"}, [[0, 1]], 10 ** 400]

    def test_every_field_is_fuzzed(self):
        assert set(FIELDS) <= set(self.PATHS)
        assert set(self.READERS) == {path.split(".")[0].split("[")[0] for path in FIELDS}
        # the bases hold no field outside the table: a path the table does not
        # list lies below a table leaf, such as a score_table row or a mask bit
        leaves = {_nearest_field(path) for field, (_, path) in self.PATHS.items()
                  if field not in FIELDS}
        assert leaves == {"mechanism.score_table", "mechanism.candidates[i]",
                          "mechanism.patterns[i].mask", "query.params.matrices[i]",
                          "query.params.projection"}
        assert not any(f.startswith((leaf + ".", leaf + "[")) for leaf in leaves for f in FIELDS)

    @pytest.mark.parametrize("field", sorted(PATHS))
    @settings(max_examples=3, deadline=None)  # about 220 examples over all fields
    @given(value=st.sampled_from(VALUES))
    def test_mutated_field_exits_cleanly(self, tmp_path_factory, field, value):
        b, path = self.PATHS[field]
        scn = json.loads(json.dumps(self.BASES[b]))
        *parents, leaf = path
        node = functools.reduce(lambda n, key: n[key], parents, scn)
        if value is self.DROP:
            del node[leaf]
        else:
            node[leaf] = value
        out_dir = tmp_path_factory.mktemp("fuzz")
        (out_dir / "data.csv").write_text("f1,f2,f3,f4\n0.3,-0.2,0.5,-0.5\n-0.4,0.1,0.2,0.3\n")
        scn_path = out_dir / "fuzz.json"
        scn_path.write_text(json.dumps(scn))
        nan = re.compile(r"\bnan\b", re.IGNORECASE)
        block = re.split(r"[.[]", _nearest_field(path))[0]
        for command in self.READERS[block]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(command, scn_path, out_dir)
            assert not nan.search(out.getvalue())
            assert code in (0, 2) or (code == 1 and err.getvalue().startswith("error: scenario.")), (
                command, err.getvalue())
            if code == 0 and command in self.REPORTS:
                report = out_dir / f"fuzz_{self.REPORTS[command]}.json"
                assert not nan.search(report.read_text()), command


class TestMonteCarloFootprint:
    @staticmethod
    def _oversized(tmp_path, laplace_scn):
        scn = json.loads(laplace_scn.read_text())
        scn["query"]["post"] = []  # the 4-coordinate mean
        scn["audit"].update(method="mc", samples=10**13)
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(scn))
        return path

    def test_oversized_samples_refused_before_allocating(self, tmp_path, laplace_scn, capsys):
        path = self._oversized(tmp_path, laplace_scn)
        tracemalloc.start()
        try:
            code = run("audit", path, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scenario.audit.samples: at most 16777216 at output dimension 4, "
            "got 10000000000000\n")
        assert peak < 2_000_000  # the draws alone would take 320 TB

    def test_oversized_samples_end_without_a_traceback(self, tmp_path, laplace_scn):
        path = self._oversized(tmp_path, laplace_scn)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-m", "amplipriv.cli", "audit", str(path), "--out", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "scenario.audit.samples" in done.stderr and "Traceback" not in done.stderr


class TestExactAuditFootprint:
    @staticmethod
    def _traced_audit(path, tmp_path):
        tracemalloc.start()
        try:
            code = run("audit", path, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, peak

    def test_a_product_support_past_the_limit_runs_in_little_memory(self, tmp_path, capsys,
                                                                    monkeypatch):
        # 3 rows of 6 Bernoulli features: 64^3 = 262144 mask matrices, more
        # than the limit, but the law convolved row by row stays small
        rows = [[0.1 * (i + j) - 0.4 for j in range(6)] for i in range(3)]
        scn = {
            "seed": 1, "bound_B": 0.5, "dataset": {"inline": rows},
            "neighbor": {"row": 0, "replacement": [0.5] * 6},
            "mechanism": {"kind": "mcar_bernoulli", "pi": [0.5] * 6},
            "query": {"kind": "clipped_mean", "params": {"n": 3, "d": 6, "clip": 0.5},
                      "post": [{"map": "sum"}]},
            "family": "laplace", "budget": {"epsilon": 1.0, "delta": 0.0},
            "epsilon_grid": [1.0], "audit": {"method": "exact"},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(scn))
        laws, real = [], audit._centre_law

        def traced(query, dataset, supports):  # the peak while each law is built
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            weights, centres = real(query, dataset, supports)
            laws.append((len(weights), tracemalloc.get_traced_memory()[1] - start))
            return weights, centres

        monkeypatch.setattr(audit, "_centre_law", traced)
        code, _ = self._traced_audit(path, tmp_path)
        assert code == 0
        assert capsys.readouterr().out.endswith(" PASS\n")
        # 153 and 194 centres, split by rounding; the (M, n, d) mask stack
        # alone would take 4.7 MB
        assert [n for n, _ in laws] == [153, 194]
        assert max(peak for _, peak in laws) < 2_000_000

    @staticmethod
    def _one_feature_sum(tmp_path, pi, n, rows=None):
        d = len(pi)
        scn = {
            "seed": 1, "bound_B": 0.5, "dataset": {"inline": rows or [[0.1] * d] * n},
            "neighbor": {"row": 0, "replacement": [-0.2] * d},
            "mechanism": {"kind": "mcar_bernoulli", "pi": pi},
            "query": {"kind": "clipped_mean", "params": {"n": n, "d": d, "clip": 0.5},
                      "post": [{"map": "sum"}]},
            "family": "laplace", "budget": {"epsilon": 1.0, "delta": 0.0},
            "epsilon_grid": [1.0], "audit": {"method": "exact"},
        }
        path = tmp_path / f"d{d}.json"
        path.write_text(json.dumps(scn))
        return path

    def test_oversized_row_support_refused_without_reading_it_all(self, tmp_path, capsys,
                                                                  monkeypatch):
        # one row of 24 Bernoulli features has 2^24 masks, gigabytes as Mask
        # objects; the refusal reads one past the limit, lowered here so the
        # traced run stays short (at the shipped 200000 it traces about 80 MB)
        monkeypatch.setattr(audit, "_SUPPORT_LIMIT", 4096)
        path = self._one_feature_sum(tmp_path, [0.5] * 24, n=1)
        tracemalloc.start()
        try:
            code = run("audit", path, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "mask support has more than 4096 elements" in capsys.readouterr().err
        assert peak < 4_000_000

    def test_a_law_past_the_limit_is_refused_before_allocating(self, tmp_path, capsys,
                                                              monkeypatch):
        # 40 rows of 1024 masks each: after row 0 the law has 14 distinct
        # centres (11 sums, split by rounding), and 14 x 1024 passes the
        # lowered limit, so row 1's stack is never built
        monkeypatch.setattr(audit, "_SUPPORT_LIMIT", 4096)
        built = []
        real = audit._row_law

        def counting(query, data, i, support):
            built.append(i)
            return real(query, data, i, support)

        monkeypatch.setattr(audit, "_row_law", counting)
        path = self._one_feature_sum(tmp_path, [0.5] * 10, n=40)
        code, peak = self._traced_audit(path, tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the centre law has 14 distinct centres before row 1, whose support "
            "has 1024 masks: 14336 terms, more than 4096\n")
        assert built == [0]
        assert peak < 2_000_000

    def test_an_exact_audit_at_64_rows(self, tmp_path, capsys):
        # 4^64 mask matrices; entries +-0.5 make every row term and sum exact,
        # so the law has at most 257 centres
        rows = [[0.5 if (i * 7 + j) % 3 else -0.5 for j in range(2)] for i in range(64)]
        path = self._one_feature_sum(tmp_path, [0.5, 0.5], n=64, rows=rows)
        scn = json.loads(path.read_text())
        scn["epsilon_grid"] = [0.5, 1.0]
        path.write_text(json.dumps(scn))
        assert run("audit", path, tmp_path) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in out[-2:]] == ["PASS", "PASS"]

    def test_fixed_features_are_not_enumerated(self, tmp_path, capsys):
        # 40 features, two of them random: 4 masks per row, not 2^40
        path = self._one_feature_sum(tmp_path, [0.5, 0.5] + [0.0, 1.0] * 19, n=2)
        assert run("audit", path, tmp_path) == 0
        assert capsys.readouterr().out.endswith(" PASS\n")

    @pytest.mark.parametrize("command, loaded", [
        ("audit", ""),
        ("amplify", ""),
        # a release draws noise, and numpy.random loads hashlib: the probe does see modules
        ("simulate", "numpy.random,hashlib,_hashlib"),
    ])
    def test_no_rng_or_openssl_without_a_release(self, tmp_path, laplace_scn, command, loaded):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        probe = (
            "import sys\n"
            "from amplipriv.cli import run_scenario\n"
            "assert run_scenario(sys.argv[1], sys.argv[2], sys.argv[3]) == 0\n"
            "print('loaded:' + ','.join(m for m in ('numpy.random', 'hashlib', '_hashlib')"
            " if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, command, str(laplace_scn), str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines()[-1] == "loaded:" + loaded


class TestCsvDataset:
    def test_dataset_from_csv_file(self, tmp_path, laplace_scn):
        scn = json.loads(laplace_scn.read_text())
        csv_path = tmp_path / "data.csv"
        rows = scn["dataset"]["inline"]
        lines = ["f1,f2,f3,f4"] + [",".join(repr(float(v)) for v in r) for r in rows]
        csv_path.write_text("\n".join(lines) + "\n")
        scn["dataset"] = {"csv": "data.csv"}
        scn_path = tmp_path / "csv_scenario.json"
        scn_path.write_text(json.dumps(scn))
        assert run("audit", scn_path, tmp_path) == 0
        produced = (tmp_path / "csv_scenario_audit.csv").read_text()
        reference_out = tmp_path / "ref"
        run("audit", laplace_scn, reference_out)
        reference = (reference_out / "laplace_mean_rho05_audit.csv").read_text()
        assert produced.splitlines()[1:] == reference.splitlines()[1:]


def test_readme_schema_documents_exactly_the_table():
    readme = (SCENARIOS.parent / "README.md").read_text()
    block = readme.split("### Scenario schema", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| .*? \| (.*) \|$", block, re.MULTILINE)
    assert sorted(path for path, _ in rows) == sorted(FIELDS)  # each table path once, and no other
    assert [path for path, doc in rows if not doc.startswith(FIELDS[path].doc)] == []


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for name in ("calibrate", "amplify", "audit", "simulate",
                     "counterexample", "report"):
            assert name in out

    @pytest.mark.parametrize("command", ["calibrate", "amplify", "audit", "simulate",
                                         "counterexample"])
    def test_format_is_a_report_option_only(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "x.json", "--format", "csv"])
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert build_parser().parse_args(["report", "x.json", "--format", "csv"]).format == "csv"

    def test_main_round_trip(self, tmp_path):
        code = main(
            ["calibrate", str(SCENARIOS / "laplace_mean_rho05.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
