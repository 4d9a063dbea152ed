"""Scenario runner: exit codes, report formats, reproducibility."""

import json
from pathlib import Path

import pytest

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
