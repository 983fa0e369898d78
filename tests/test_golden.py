"""Byte gate: simulator outputs must match files recorded from a known-good build.

Each scenario below drives one branch of the episode engine (claims accepted,
denied and escalated, denied and dropped, excluded agents, stack and experience
pricing, disputes through a stack across a certificate expiry, enforcement
off, episodes aborted mid-dispute). The canonical report is compared byte
for byte with `golden/reports/<name>.json`, and the
`--episodes-log` output by its sha256 in `golden/episodes*.sha256` (the
`aborted` scenario's digest is in `episodes_aborted.sha256`). The sweep CSV of
the criterion-11 grid must equal `golden/sweep_criterion11.csv` at one and at
two jobs. The solver's and the oracle's answers on a small-integer parameter
grid, where payoff ties are common, must hash to `golden/solver_grid.sha256`.
The ledger's transfers and shortfalls on every dispute path, with fees that
are paid in full and with fees that clamp, must hash to
`golden/transfers.sha256`.

The writer below must reproduce every one of these files byte for byte from
an unchanged build; a test runs it into a temporary directory. To record the
files from the current build (only when a change is meant to alter the
outputs, and say so in the change log):

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
from insured_agents.game import ALL_PATHS, brute_force_spe, build_game, solve_spe
from insured_agents.ledger import AccountId, Ledger, Role
from insured_agents.mechanism import MechanismParams
from insured_agents.sim import play_path

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
    # every episode disputed through the stack, whose code certificate
    # expires at tick 500 (episode 100), so the stack is priced twice
    "stack_disputes": _scenario(
        params={"Pi_honest": 200},
        policies={"user": "always_claim", "insurer": "always_deny"},
        claim_bond=1,
        stack={**_STACK, "certificates": [
            {**_STACK["certificates"][0], "expiry_tick": 500}, _STACK["certificates"][1],
        ]},
    ),
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
    # a fixed gain high enough that a tempted agent nets G - S_A - V_future =
    # 200 > Pi_honest, so each episode's uniform decides whether it misbehaves
    "fixed_tempted": {**BASELINE, "params": {**_PARAMS, "G": 250}},
}

# Funding is capped, so an escalation bond this large drains the user wallet
# after a few disputes: most episodes abort mid-dispute and must leave the
# ledger as they found it.
ABORTED = {
    "schema_version": 1,
    "seed": 3,
    "episodes": 60,
    "params": {**_PARAMS, "B": 100000000000},
    "population": [{"id": "a0", "theta": 0.1, "gain": _GAIN}],
    "policies": {"agent": "opportunistic", "opportunistic_p": 0.5,
                 "user": "always_claim", "insurer": "always_deny"},
}
SCENARIOS["aborted"] = ABORTED

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


# Every dispute path with a filing bond, a verifier fee and a reputation cost.
# The first wallets hold plenty; the second hold just enough to underwrite
# and post every bond, so fees and penalties clamp and record shortfalls.
_DISPUTE = MechanismParams(L=100, G=40, S_A=30, S_I=150, B=20, F=50, R=10,
                           V_future=20, P=8)
_CLAIM_BOND = 5
_FUNDINGS = (
    {"agent": 1000, "insurer": 1000, "user": 1000},
    {"agent": 38, "insurer": 120, "user": 25},
)
_WALLET_ROLES = {"agent": Role.AGENT_WALLET, "insurer": Role.INSURER_WALLET,
                 "user": Role.USER_WALLET}


def transfer_digest() -> str:
    """sha256 over each path's transfers, then its shortfalls, as field tuples."""
    digest = hashlib.sha256()
    for funding in _FUNDINGS:
        for path in ALL_PATHS:
            ledger = Ledger()
            for owner, amount in funding.items():
                ledger.deposit(AccountId(_WALLET_ROLES[owner], owner), amount)
            p = _DISPUTE
            ledger.underwrite("policy", "agent", "insurer", coverage=p.L,
                              deductible=p.S_A, premium=p.P, bond=p.B,
                              claim_deadline=5, expiry_tick=4, tick=0)
            play_path(ledger, ledger.policies["policy"], path, "user", p,
                      claim_bond=_CLAIM_BOND, tick=0)
            rows = [("path", path.describe())]
            rows += [("transfer", t.tick, t.memo.value, t.src.role.value, t.src.owner,
                      t.dst.role.value, t.dst.owner, t.amount)
                     for t in ledger.transfers]
            rows += [("shortfall", s.tick, s.memo.value, s.party.role.value,
                      s.party.owner, s.shortfall)
                     for s in ledger.shortfalls]
            for row in rows:
                digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


def _episode_digest_file(name: str) -> str:
    """The file under `golden/` that holds scenario `name`'s episode-log digest."""
    return "episodes_aborted.sha256" if name == "aborted" else "episodes.sha256"


def _recorded_episode_digests() -> dict[str, str]:
    """Digests from every `episodes*.sha256` file, keyed by scenario name."""
    lines = [line for path in sorted(GOLDEN.glob("episodes*.sha256"))
             for line in path.read_text().splitlines()]
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


def test_transfers_match_golden():
    assert transfer_digest() == (GOLDEN / "transfers.sha256").read_text().strip()


def test_writer_reproduces_the_golden_files(tmp_path):
    def files(root: Path) -> list[Path]:
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    written = tmp_path / "golden"
    write_golden(written)
    assert files(written) == files(GOLDEN)
    for name in files(GOLDEN):
        assert (written / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def write_golden(golden: Path = GOLDEN) -> None:
    (golden / "reports").mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}  # digest file name -> its text
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in sorted(SCENARIOS):
            report, log = simulate(SCENARIOS[name], workdir)
            (golden / "reports" / f"{name}.json").write_bytes(report)
            line = f"{hashlib.sha256(log).hexdigest()}  {name}\n"
            file = _episode_digest_file(name)
            digests[file] = digests.get(file, "") + line
        csv = sweep_csv(1, workdir)
        assert sweep_csv(2, workdir) == csv
        (golden / "sweep_criterion11.csv").write_bytes(csv)
    for file, lines in digests.items():
        (golden / file).write_text(lines)
    (golden / "solver_grid.sha256").write_text(solver_grid_digest() + "\n")
    (golden / "transfers.sha256").write_text(transfer_digest() + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_golden()
