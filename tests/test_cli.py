import json

import pytest

from insured_agents import cli
from insured_agents.cli import main

BASE_FLAGS = [
    "--L", "100", "--G", "40", "--S-A", "30", "--S-I", "150",
    "--B", "20", "--F", "50", "--R", "10", "--V-future", "20",
]


def scenario_doc(**overrides) -> dict:
    doc = {
        "schema_version": 1,
        "seed": 7,
        "episodes": 40,
        "params": {
            "L": 100, "G": 40, "S_A": 30, "S_I": 150, "B": 20, "F": 50,
            "R": 10, "V_future": 20, "P": 1, "Pi_honest": 5,
        },
        "population": [{"id": "a0", "theta": 0.3}],
        "policies": {"agent": "opportunistic", "opportunistic_p": 0.5},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc()))
    return path


class TestCheck:
    def test_holding_conditions_exit_zero(self, capsys):
        assert main(["check", *BASE_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "access_to_justice: True" in out
        assert "all_hold: True" in out

    def test_violated_conditions_exit_one(self, capsys):
        flags = list(BASE_FLAGS)
        flags[flags.index("--F") + 1] = "500"
        assert main(["check", *flags]) == 1
        assert "access_to_justice: False" in capsys.readouterr().out

    def test_missing_flag_exits_two(self, capsys):
        assert main(["check", *BASE_FLAGS[2:]]) == 2

    def test_negative_amount_exits_two(self, capsys):
        flags = list(BASE_FLAGS)
        flags[1] = "-5"
        assert main(["check", *flags]) == 2

    @pytest.mark.parametrize("value", ["inf", "NaN"])
    def test_non_finite_amount_exits_two(self, value, capsys):
        flags = list(BASE_FLAGS)
        flags[1] = value
        assert main(["check", *flags]) == 2

    def test_sub_unit_precision_rejected(self, capsys):
        flags = list(BASE_FLAGS)
        flags[1] = "1.0000001"
        assert main(["check", *flags]) == 2


class TestSolve:
    def test_compliant_equilibrium(self, capsys):
        assert main(["solve", *BASE_FLAGS, "--pi-honest", "5"]) == 0
        out = capsys.readouterr().out
        assert "agent: honest" in out
        assert "respond_valid: accept" in out
        assert "verifier_invoked: False" in out

    def test_oracle_cross_check(self, capsys):
        code = main(["solve", *BASE_FLAGS, "--pi-honest", "5", "--oracle"])
        assert code == 0
        assert "solver in oracle set: yes" in capsys.readouterr().out

    def test_pi_honest_required(self, capsys):
        assert main(["solve", *BASE_FLAGS]) == 2

    def test_broken_deterrence_reports_malicious(self, capsys):
        flags = list(BASE_FLAGS)
        flags[flags.index("--G") + 1] = "200"
        assert main(["solve", *flags, "--pi-honest", "5"]) == 0
        assert "agent: malicious" in capsys.readouterr().out


class TestSimulate:
    def test_writes_report(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["simulate", str(scenario_file), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["episodes"] == 40

    def test_byte_identical_reruns(self, scenario_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["simulate", str(scenario_file), "--out", str(a)])
        main(["simulate", str(scenario_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_episode_log_lines(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        log = tmp_path / "episodes.ndjson"
        main([
            "simulate", str(scenario_file),
            "--out", str(out), "--episodes-log", str(log),
        ])
        lines = log.read_text().splitlines()
        assert len(lines) == 40
        first = json.loads(lines[0])
        assert first["index"] == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "no.json"), "--out", "x.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_reports_field_path(self, tmp_path, capsys):
        doc = scenario_doc()
        del doc["params"]["S_I"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert "params.S_I" in capsys.readouterr().err


class TestSweep:
    def run_sweep(self, scenario_file, tmp_path, jobs):
        out = tmp_path / f"sweep-{jobs}.csv"
        code = main([
            "sweep", "--scenario", str(scenario_file),
            "--grid", "G=40,200;F=50,500",
            "--out", str(out), "--jobs", str(jobs),
        ])
        assert code == 0
        return out.read_bytes()

    def test_csv_shape(self, scenario_file, tmp_path, capsys):
        text = self.run_sweep(scenario_file, tmp_path, 1).decode()
        lines = text.splitlines()
        assert lines[0] == (
            "G,F,predicted,misbehavior_rate,dispute_rate,verifier_invocations"
        )
        assert len(lines) == 5
        assert lines[1].startswith("40,50,true,")

    def test_jobs_do_not_change_output(self, scenario_file, tmp_path, capsys):
        assert self.run_sweep(scenario_file, tmp_path, 1) == self.run_sweep(
            scenario_file, tmp_path, 8
        )

    def test_bad_grid_exits_two(self, scenario_file, tmp_path, capsys):
        code = main([
            "sweep", "--scenario", str(scenario_file),
            "--grid", "Q=1,2", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "unknown grid parameter" in capsys.readouterr().err


class TestJobsEnvironment:
    def test_malformed_value_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("INSURED_AGENTS_JOBS", "abc")
        assert main(["check", *BASE_FLAGS]) == 2
        assert "error: INSURED_AGENTS_JOBS: " in capsys.readouterr().err

    def test_value_sets_default_jobs(self, monkeypatch, scenario_file, tmp_path, capsys):
        monkeypatch.setenv("INSURED_AGENTS_JOBS", "3")
        seen = []
        monkeypatch.setattr(cli, "sweep", lambda config, grid, jobs: seen.append(jobs) or [])
        assert main(["sweep", "--scenario", str(scenario_file), "--grid", "G=40",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert seen == [3]


class TestStack:
    def test_quote(self, capsys):
        code = main([
            "stack", "--base-risk", "0.1",
            "--cert", "safety:0.5", "--cert", "financial:0.4",
            "--coverage", "100", "--loading", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "residual_risk: 0.03" in out
        assert "premium: 3.6" in out

    def test_no_certs(self, capsys):
        assert main(["stack", "--base-risk", "0.1", "--coverage", "100"]) == 0
        assert "premium: 10" in capsys.readouterr().out

    def test_bad_discount_exits_two(self, capsys):
        code = main([
            "stack", "--base-risk", "0.1", "--cert", "safety:1.5",
            "--coverage", "100",
        ])
        assert code == 2

    def test_bad_base_risk_exits_two(self, capsys):
        assert main(["stack", "--base-risk", "0", "--coverage", "100"]) == 2


def test_no_subcommand_exits_two(capsys):
    assert main([]) == 2
