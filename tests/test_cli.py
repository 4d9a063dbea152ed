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

from amplipriv.cli import AUDIT_CSV_HEADER, build_parser, main, run_scenario

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
        assert "seed_commitment" in record

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
        pytest.param("scenario.mechanism.candidates: mask bits must be 0 or 1",
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
        pytest.param("scenario.query.params: do not fit kind 'clipped_mean'",
                     lambda scn: scn["query"].update(params={}), id="query-params-empty"),
        pytest.param("scenario.query.params: do not fit kind 'clipped_mean'",
                     lambda scn: scn["query"]["params"].update(width=3),
                     id="query-params-unknown"),
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
        pytest.param("scenario.query.post[0].indices: indices must lie in [0, 4)",
                     lambda scn: scn["query"].update(post=[{"map": "project", "indices": [5]},
                                                           {"map": "sum"}]),
                     id="project-index-out-of-range"),
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
        pytest.param("scenario.query.post[0].lipschitz: expected a number, got 'x'",
                     lambda scn: scn["query"]["post"][0].update(lipschitz="x"),
                     id="lipschitz-string"),
        pytest.param("scenario.query.post[0].lipschitz: must be nonnegative, got -1.0",
                     lambda scn: scn["query"]["post"][0].update(lipschitz=-1),
                     id="lipschitz-negative"),
        pytest.param("scenario.dataset: must be a JSON object",
                     lambda scn: scn.update(dataset=5), id="dataset-number"),
        pytest.param("scenario.dataset.csv: expected a file path, got 5",
                     lambda scn: scn.update(dataset={"csv": 5}), id="dataset-csv-number"),
    ])
    def test_malformed_scenario_names_the_field(self, tmp_path, laplace_scn, capsys,
                                                field, edit):
        scn = json.loads(laplace_scn.read_text())
        edit(scn)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(scn))
        assert run("audit", path, tmp_path) == 1
        assert field in capsys.readouterr().err


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
    ], ids=["release_mask-string", "release_mask-number", "counterexample-list",
            "epsilon-string", "epsilon-above-one", "epsilons-number", "epsilons-empty",
            "epsilons-zero", "delta-one", "delta-null"])
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


def _mechanism_paths(node, path=()):
    """The path of every dict entry and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _mechanism_paths(child, path + (key,))


class TestMechanismFuzz:
    SHIPPED = json.loads((SCENARIOS / "laplace_mean_rho05.json").read_text())
    PATHS = list(_mechanism_paths(SHIPPED["mechanism"]))
    VALUES = [float("nan"), float("inf"), float("-inf"), "abc", [0.5], -1, -0.5, 2, 1.5]

    @settings(max_examples=80, deadline=None)
    @given(
        command=st.sampled_from(["amplify", "simulate"]),
        path=st.sampled_from(PATHS),
        value=st.one_of(st.none(), st.sampled_from(VALUES)),  # None drops the entry
    )
    def test_mutated_mechanism_exits_cleanly(self, tmp_path_factory, command, path, value):
        """A mutated mechanism block either runs or exits 1 naming the field
        at fault: never a traceback, and never a NaN result."""
        scn = json.loads(json.dumps(self.SHIPPED))
        *parents, leaf = path
        node = scn["mechanism"]
        for key in parents:
            node = node[key]
        if value is None:
            del node[leaf]
        else:
            node[leaf] = value
        out_dir = tmp_path_factory.mktemp("fuzz")
        scn_path = out_dir / "fuzz.json"
        scn_path.write_text(json.dumps(scn))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(command, scn_path, out_dir)
        nan = re.compile(r"\bnan\b", re.IGNORECASE)
        assert not nan.search(out.getvalue())
        if code == 0:
            for report in out_dir.glob("fuzz_*.json"):
                assert not nan.search(report.read_text())
        else:
            # a valid but different mechanism may break the declared rho
            assert code == 1
            assert err.getvalue().startswith(("error: scenario.mechanism.", "error: scenario.rho:"))


def _block_paths(scn, roots):
    """Each root path and the path of every entry and item below it."""
    for root in roots:
        node = functools.reduce(lambda n, key: n[key], root, scn)
        yield root
        if isinstance(node, (dict, list)):
            yield from (root + path for path in _mechanism_paths(node))


class TestBlockFuzz:
    """The same fuzz over the neighbor, query.post, dataset, release_mask and
    counterexample blocks, each command reading them."""

    SHIPPED = {**TestMechanismFuzz.SHIPPED, "release_mask": False,
               "counterexample": {"epsilons": [0.5], "delta": 0.001}}
    PATHS = list(_block_paths(SHIPPED, [("neighbor",), ("query", "post"), ("dataset",),
                                        ("release_mask",), ("counterexample",)]))
    VALUES = [*TestMechanismFuzz.VALUES, 0.7, 5, True, {}, [], "sum", {"map": "scale"},
              {"map": "project", "indices": [3]}, {"map": "clamp", "lo": 0, "hi": "x"}]

    @settings(max_examples=120, deadline=None)
    @given(
        command=st.sampled_from(["audit", "simulate", "counterexample"]),
        path=st.sampled_from(PATHS),
        value=st.one_of(st.none(), st.sampled_from(VALUES)),  # None drops the entry
    )
    def test_mutated_block_exits_cleanly(self, tmp_path_factory, command, path, value):
        scn = json.loads(json.dumps(self.SHIPPED))
        *parents, leaf = path
        node = functools.reduce(lambda n, key: n[key], parents, scn)
        if value is None:
            del node[leaf]
        else:
            node[leaf] = value
        out_dir = tmp_path_factory.mktemp("fuzz")
        scn_path = out_dir / "fuzz.json"
        scn_path.write_text(json.dumps(scn))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, scn_path, out_dir)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestExactAuditFootprint:
    def test_oversized_support_refused_before_allocating(self, tmp_path, capsys):
        # 3 rows of 6 Bernoulli features: 64^3 = 262144 mask matrices
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
        tracemalloc.start()
        try:
            code = run("audit", path, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "mask support has 262144 elements" in capsys.readouterr().err
        # the (M, n, d) mask stack alone would take 4.7 MB
        assert peak < 2_000_000

    @pytest.mark.parametrize("command, loaded", [
        ("audit", ""),
        ("amplify", ""),
        # a release draws noise and hashes its seed: the probe does see modules
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


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for name in ("calibrate", "amplify", "audit", "simulate",
                     "counterexample", "report"):
            assert name in out

    def test_main_round_trip(self, tmp_path):
        code = main(
            ["calibrate", str(SCENARIOS / "laplace_mean_rho05.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
