"""Byte gate: simulator outputs must match files recorded from a known-good build.

Each scenario below drives one branch of the episode engine (claims accepted,
denied and escalated, denied and dropped, excluded agents, stack and experience
pricing, enforcement off). The canonical report is compared byte for byte
with `golden/reports/<name>.json`, and the `--episodes-log` output by its
sha256 in `golden/episodes.sha256`. The sweep CSV of the criterion-11 grid
must equal `golden/sweep_criterion11.csv` at one and at two jobs. The solver's
and the oracle's answers on a small-integer parameter grid, where payoff ties
are common, must hash to `golden/solver_grid.sha256`.

To record the files from the current build (only when a change is meant to
alter the outputs, and say so in the change log):

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from insured_agents.cli import main as cli_main
from insured_agents.game import brute_force_spe, build_game, solve_spe
from insured_agents.mechanism import MechanismParams

GOLDEN = Path(__file__).resolve().parent / "golden"

_PARAMS = {
    "L": 100, "G": 40, "S_A": 30, "S_I": 150, "B": 20, "F": 50,
    "R": 10, "V_future": 20, "P": 1, "Pi_honest": 5,
}
_GAIN = {"kind": "geometric", "mean": 60}  # mixes honest and malicious draws

BASELINE = {
    "schema_version": 1,
    "seed": 42,
    "episodes": 300,
    "params": _PARAMS,
    "population": [{"id": "a0", "theta": 0.1}, {"id": "a1", "theta": 0.4}],
    "policies": {"agent": "opportunistic", "opportunistic_p": 0.5},
}


def _scenario(params=None, audit=True, policies=None, **extra) -> dict:
    doc = copy.deepcopy(BASELINE)
    doc["params"].update(params or {})
    doc["population"] = [
        {"id": "a0", "theta": 0.1, "gain": _GAIN, "audit_access": audit},
        {"id": "a1", "theta": 0.4, "gain": _GAIN, "audit_access": audit},
    ]
    doc["policies"].update(policies or {})
    doc.update(extra)
    return doc


_MALICIOUS = {"agent": "always_malicious"}
_STACK = {
    "base_risk": 0.1,
    "loading": 0.2,
    "certificates": [
        {"issuer": "code-insurer", "domain": "code", "discount": 0.5},
        {"issuer": "data-insurer", "domain": "data", "discount": 0.4},
    ],
}

SCENARIOS = {
    "baseline": BASELINE,
    "rational": _scenario(policies={"agent": "rational_spe"}),
    "malicious_audit": _scenario(policies=_MALICIOUS),
    "malicious_no_audit": _scenario(audit=False, policies=_MALICIOUS),
    # honest episodes pull the posterior below 1/2, so valid claims get denied
    "no_audit": _scenario(audit=False),
    "never_claim": _scenario(policies={"user": "never_claim"}),
    "claim_deny_bond": _scenario(
        policies={"user": "always_claim", "insurer": "always_deny"}, claim_bond=1
    ),
    "claim_accept": _scenario(
        policies={"user": "always_claim", "insurer": "always_accept"}
    ),
    "deny_drop": _scenario(
        params={"S_A": 150, "F": 500},
        policies={**_MALICIOUS, "insurer": "always_deny"},
    ),
    "stack": _scenario(params={"Pi_honest": 200}, stack=_STACK),
    "experience": _scenario(
        params={"Pi_honest": 200}, pricing="experience", loading=0.2
    ),
    # at Pi_honest=5 no agent buys at its experience-rated premium
    "excluded": _scenario(pricing="experience", loading=0.2),
    "experience_disputes": _scenario(
        params={"Pi_honest": 200},
        audit=False,
        policies={"user": "always_claim", "insurer": "always_deny"},
        pricing="experience",
        loading=0.2,
    ),
    "enforcement_off": _scenario(enforcement_enabled=False),
}

# The criterion-11 scenario and grid.
SWEEP_SCENARIO = {
    "schema_version": 1,
    "seed": 111,
    "episodes": 200,
    "params": _PARAMS,
    "population": [{"id": "a0", "theta": 0.3}],
    "policies": {"agent": "opportunistic", "opportunistic_p": 0.5},
}
SWEEP_GRID = "G=40,200;F=50,500"


def simulate(doc: dict, workdir: Path) -> tuple[bytes, bytes]:
    """(report bytes, episodes-log bytes) of `insured-agents simulate`."""
    scenario, out, log = workdir / "s.json", workdir / "r.json", workdir / "e.jsonl"
    scenario.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(scenario), "--out", str(out),
                     "--episodes-log", str(log)]) == 0
    return out.read_bytes(), log.read_bytes()


def sweep_csv(jobs: int, workdir: Path) -> bytes:
    scenario, out = workdir / "sweep.json", workdir / f"sweep-{jobs}.csv"
    scenario.write_text(json.dumps(SWEEP_SCENARIO))
    assert cli_main(["sweep", "--scenario", str(scenario), "--grid", SWEEP_GRID,
                     "--out", str(out), "--jobs", str(jobs)]) == 0
    return out.read_bytes()


def solver_grid_digest() -> str:
    """sha256 over repr of the solver's and the oracle's result at every grid point.

    Every unsigned field takes 0 or 1 micro-units and Pi_honest takes -1, 0
    or 1, so most comparisons the solver makes are ties and each compliant
    tie-break decides part of the result.
    """
    digest = hashlib.sha256()
    for values in itertools.product((0, 1), repeat=9):
        for pi_honest in (-1, 0, 1):
            tree = build_game(MechanismParams(*values, Pi_honest=pi_honest))
            digest.update(repr(solve_spe(tree)).encode())
            digest.update(repr(brute_force_spe(tree)).encode())
    return digest.hexdigest()


def _recorded_episode_digests() -> dict[str, str]:
    lines = (GOLDEN / "episodes.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_outputs_match_golden(name, tmp_path):
    report, log = simulate(SCENARIOS[name], tmp_path)
    assert report == (GOLDEN / "reports" / f"{name}.json").read_bytes()
    assert hashlib.sha256(log).hexdigest() == _recorded_episode_digests()[name]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_csv_matches_golden(jobs, tmp_path):
    assert sweep_csv(jobs, tmp_path) == (GOLDEN / "sweep_criterion11.csv").read_bytes()


def test_solver_grid_matches_golden():
    assert solver_grid_digest() == (GOLDEN / "solver_grid.sha256").read_text().strip()


def write_golden() -> None:
    (GOLDEN / "reports").mkdir(parents=True, exist_ok=True)
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in sorted(SCENARIOS):
            report, log = simulate(SCENARIOS[name], workdir)
            (GOLDEN / "reports" / f"{name}.json").write_bytes(report)
            digests.append(f"{hashlib.sha256(log).hexdigest()}  {name}\n")
        csv = sweep_csv(1, workdir)
        assert sweep_csv(2, workdir) == csv
        (GOLDEN / "sweep_criterion11.csv").write_bytes(csv)
    (GOLDEN / "episodes.sha256").write_text("".join(digests))
    (GOLDEN / "solver_grid.sha256").write_text(solver_grid_digest() + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_golden()
