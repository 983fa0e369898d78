import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from insured_agents import sim
from insured_agents.cli import main
from test_sim import scenario_docs

ROOT = Path(__file__).resolve().parents[1]
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


#: Wrong-type or out-of-range values for a scenario document's leaves.
_BAD_LEAVES = (None, True, "x", -1, 1.5, 10**400, [], {})


def _leaf_paths(node, path=()) -> list[tuple]:
    """The key path of every scalar leaf under `node`."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaf_paths(child, (*path, key))]


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

    @pytest.mark.parametrize("flags, code", [
        (["--P", "1", "--pi-honest", "-5"], 0),  # the honest payoff is signed
        (["--P", "-1"], 2),
        (["--Pi-honest", "5"], 2),  # the one flag spelled in lower case
    ])
    def test_optional_parameter_flags(self, flags, code, capsys):
        assert main(["check", *BASE_FLAGS, *flags]) == code

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

    @pytest.mark.parametrize("log", ["report.json", "./sub/../report.json", "link.json"])
    def test_one_file_for_report_and_log_exits_two_before_opening_it(
            self, log, scenario_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(tmp_path / "report.json")
        code = main(["simulate", str(scenario_file), "--out", "report.json",
                     "--episodes-log", log])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "--episodes-log" in err
        assert not (tmp_path / "report.json").exists()

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

    @pytest.mark.parametrize("overrides, path", [
        ({"population": [{"id": "a0", "gain": 5}]}, "population[0].gain"),
        ({"stack": {"base_risk": 0.1, "certificates": 5}}, "stack.certificates"),
        ({"stack": {"base_risk": 0.1, "certificates": [
            {"issuer": "i0", "domain": "safety", "discount": 0.5, "expiry_tick": "9"},
        ]}}, "stack.certificates[0].expiry_tick"),
        ({"stack": {"base_risk": 1.5}}, "stack.base_risk"),
        ({"stack": {"base_risk": 0.1, "layer1_cut": 1.5}}, "stack.layer1_cut"),
        ({"claim_bond": -1}, "claim_bond"),
        ({"pricing": "experience", "loading": 1e20}, "loading"),
        ({"stack": {"base_risk": 0.1, "loading": 1e20}}, "stack.loading"),
        ({"claim_bond": "1"}, "claim_bond"),
        ({"params": {**scenario_doc()["params"], "L": "100"}}, "params.L"),
        ({"params": {**scenario_doc()["params"], "F": 2 * 10**12}}, "params"),
        ({"polices": {"agent": "always_malicious"}}, "polices"),
        ({"params": {**scenario_doc()["params"], "Q": 1}}, "params.Q"),
        ({"population": [{"id": "a0", "thetaa": 0.3}]}, "population[0].thetaa"),
        ({"params": {**scenario_doc()["params"], "L": -100}}, "params.L"),
        ({"population": [{"id": "a0", "gain": {"mean": -3}}]}, "population[0].gain.mean"),
        ({"population": [{"id": "a0", "gain": {"kind": "geometric", "mean": 0.4}}]},
         "population[0].gain.mean"),
        ({"population": [{"id": "a0", "gain": {"kind": "poisson", "mean": 3}}]},
         "population[0].gain.kind"),
    ])
    def test_malformed_field_exits_two_with_its_path(self, overrides, path, tmp_path,
                                                     capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(scenario_doc(**overrides)))
        assert main(["simulate", str(scenario), "--out", str(tmp_path / "r.json")]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(doc=scenario_docs(), data=st.data())
    def test_one_bad_leaf_exits_zero_or_two_with_a_path(self, doc, data):
        # Any one scalar leaf of a valid document, made the wrong type or out
        # of range, either still runs or is refused cleanly at a field path.
        path = data.draw(st.sampled_from(_leaf_paths(doc)))
        bad = data.draw(st.sampled_from(_BAD_LEAVES))
        doc = copy.deepcopy(doc)
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = bad
        with tempfile.TemporaryDirectory() as tmp:
            scenario, out = Path(tmp) / "bad.json", Path(tmp) / "r.json"
            scenario.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["simulate", str(scenario), "--out", str(out)])
            assert code in (0, 2), (path, bad)
            if code == 2:
                assert re.match(r"error: \S+: ", err.getvalue()), err.getvalue()
                assert "Traceback" not in err.getvalue()
                assert not out.exists()


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

    @pytest.mark.parametrize("grid, message", [
        pytest.param("Q=1,2", "unknown grid parameter 'Q'", id="unknown-name"),
        pytest.param("F=1,2;F=300", "grid parameter 'F' is repeated", id="repeated-name"),
        # `1` and `1.0` are one amount: the cell would run twice.
        pytest.param("S_A=1,1.0", "grid parameter 'S_A' repeats the value 1",
                     id="repeated-value"),
        pytest.param("F=50;S_A=0,2,0.5,2", "grid parameter 'S_A' repeats the value 2",
                     id="repeated-value-second-axis"),
    ])
    def test_bad_grid_exits_two(self, grid, message, scenario_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "sweep", "--scenario", str(scenario_file),
            "--grid", grid, "--out", str(out),
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, pricing", [
        pytest.param({"pricing": "experience"}, "experience", id="experience"),
        pytest.param({"stack": {"base_risk": 0.1}}, "stack", id="stack"),
    ])
    def test_premium_axis_under_self_pricing_exits_two(self, overrides, pricing, tmp_path,
                                                       capsys):
        # Both price every episode themselves, so a P axis would change nothing.
        doc = json.loads((ROOT / "demos" / "scenarios" / "baseline.json").read_text())
        scenario = tmp_path / "priced.json"
        scenario.write_text(json.dumps({**doc, **overrides}))
        out = tmp_path / "x.csv"
        code = main(["sweep", "--scenario", str(scenario), "--grid", "P=0,3,30",
                     "--out", str(out)])
        assert code == 2
        assert (f"error: grid parameter 'P' has no effect under {pricing} pricing"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_two(self, jobs, scenario_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "sweep", "--scenario", str(scenario_file), "--grid", "G=40",
            "--out", str(out), "--jobs", jobs,
        ])
        assert code == 2
        assert "error: --jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unrepresentable_cell_exits_two_before_any_cell_runs(self, jobs, tmp_path,
                                                                 capsys):
        # At L = 9e12 units a 20% loading prices past MAX_AMOUNT; the L = 100
        # cell is valid, but no cell may run and no CSV be written.
        doc = json.loads((ROOT / "demos" / "scenarios" / "baseline.json").read_text())
        scenario = tmp_path / "loaded.json"
        scenario.write_text(json.dumps({**doc, "loading": 0.2}))
        out = tmp_path / "x.csv"
        code = main([
            "sweep", "--scenario", str(scenario), "--grid", "L=100,9000000000000",
            "--out", str(out), "--jobs", jobs,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "L=9000000000000" in err and "loading" in err
        assert "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("certs, message", [
        (["a:0.5", "a:0.5"], "domain 'a' is repeated"),
        ([":0.5"], "empty domain"),
    ], ids=["repeated", "empty"])
    def test_bad_domain_exits_two_before_any_output(self, certs, message, capsys):
        argv = ["stack", "--base-risk", "0.5", "--coverage", "1"]
        for cert in certs:
            argv += ["--cert", cert]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_bad_base_risk_exits_two(self, capsys):
        assert main(["stack", "--base-risk", "0", "--coverage", "100"]) == 2

    def test_premium_past_max_amount_exits_two_before_any_output(self, capsys):
        code = main(["stack", "--base-risk", "0.1", "--coverage", "100",
                     "--loading", "1e300"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds representable range" in captured.err
        # One short line that names the quantity and the input.
        assert "premium" in captured.err and "loading" in captured.err
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 200

    @pytest.mark.parametrize("loading", ["inf", "-inf", "nan", "-0.5"])
    def test_bad_loading_exits_two(self, loading, capsys):
        code = main(["stack", "--base-risk", "0.1", "--coverage", "100",
                     f"--loading={loading}"])
        assert code == 2
        assert "loading must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--out"), ("simulate", "--episodes-log"), ("sweep", "--out"),
])
def test_unwritable_output_exits_two_before_any_episode(command, flag, scenario_file,
                                                        tmp_path, capsys, monkeypatch):
    def no_episode(*args):
        raise AssertionError("an episode ran")

    # Every episode, counted or run on its own, first derives its stream.
    monkeypatch.setattr(sim._World, "_episode_rng", no_episode)
    outputs = {"--out": tmp_path / "out", flag: tmp_path / "missing" / "file"}
    if command == "simulate":
        argv = ["simulate", str(scenario_file)]
    else:
        argv = ["sweep", "--scenario", str(scenario_file), "--grid", "G=40"]
    for name, path in outputs.items():
        argv += [name, str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(tmp_path / "missing") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("before", [None, "an earlier report\n"], ids=["absent", "present"])
@pytest.mark.parametrize("unwritable", ["--out", "--episodes-log"])
def test_a_failed_open_creates_and_empties_no_output(unwritable, before, scenario_file,
                                                     tmp_path, capsys):
    # One output's directory is missing: the other output is neither
    # created nor emptied, whichever of the two is opened first.
    outputs = {"--out": tmp_path / "report.json", "--episodes-log": tmp_path / "log.jsonl"}
    outputs[unwritable] = tmp_path / "missing" / outputs[unwritable].name
    (kept,) = (path for flag, path in outputs.items() if flag != unwritable)
    if before is not None:
        kept.write_text(before)
    argv = ["simulate", str(scenario_file)]
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    assert main(argv) == 2
    assert str(tmp_path / "missing") in capsys.readouterr().err
    assert (kept.read_text() if kept.exists() else None) == before


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("content", [
    pytest.param(b'{"schema_version": 1, "seed": "\xff"}', id="not-utf8"),
    pytest.param(b"[" * 200_000, id="nested-too-deep"),
])
def test_unreadable_scenario_exits_two_at_the_root(command, content, tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_bytes(content)
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", str(scenario), "--out", str(out)]
    else:
        argv = ["sweep", "--scenario", str(scenario), "--grid", "G=40", "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: $: ")
    assert not out.exists()


def test_no_subcommand_exits_two(capsys):
    assert main([]) == 2
