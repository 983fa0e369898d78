"""The benchmark's four workloads: input streams, requests and output checks.

Each workload turns the benchmark seed into a stream of inputs, serves one
request per input through the simulator's public API, and checks what the
request returned; `jobs` is the number of threads a request runs on. The
first `checked_requests` inputs of the stream decide whether a run is
correct, so that the verdict does not depend on how many requests a run gets
through. A request's items are the episodes it attempts (the three
simulator workloads) or the parameter draws it audits (`equilibrium_audit`).

Why these four (each stresses a different layer):

- `simulate_baseline`: the committed baseline scenario, the paper's honest
  regime. No claims, no verifier calls, one distinct `MechanismParams` per
  scenario, so `game` does most of the work and a per-params cache would
  show its full effect here.
- `simulate_disputes`: every episode is priced from the posterior, so its
  params are distinct, and every episode is denied, escalated and
  adjudicated. This is the ledger's dispute path and the bypass case for a
  per-params cache.
- `sweep_grid`: the only workload with concurrency (`sweep` with two jobs)
  and the only one that prices through the `market` stack. `G` is not swept
  because every episode overwrites it with the agent's gain draw.
- `equilibrium_audit`: batches of random params through the conditions, the
  solver and the brute-force oracle; no ledger, no RNG, every input distinct.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
from pathlib import Path
from typing import NamedTuple

import numpy as np

from insured_agents import game, mechanism, sim
from insured_agents.money import units

ROOT = Path(__file__).resolve().parents[1]
BASELINE_SCENARIO = ROOT / "demos" / "scenarios" / "baseline.json"


class Outcome(NamedTuple):
    """What the benchmark learns from one checked request."""

    items: int
    failed: int  # aborted episodes, or items whose output failed a check
    problems: list[str]
    canonical: bytes  # the bytes the workload's output digest covers


def load_baseline() -> dict:
    with open(BASELINE_SCENARIO, encoding="utf-8") as fh:
        return json.load(fh)


class _Simulate:
    """One request is `insured-agents simulate` without the file write."""

    checked_requests = 3
    traced_requests = 4
    jobs = 1

    def __init__(self, seed: int, doc: dict):
        self._seeds = random.Random(seed)
        self.doc = doc
        self.episodes = sim.scenario_from_dict(doc).episodes

    def next_input(self) -> dict:
        return {**self.doc, "seed": self._seeds.getrandbits(63)}

    def items(self, doc: dict) -> int:
        return self.episodes

    def request(self, doc: dict) -> tuple[sim.MetricsReport, str]:
        config = sim.scenario_from_dict(doc)
        report, _ = sim.run_scenario_with_records(config)
        return report, report.to_json()

    def check(self, doc: dict, output: tuple[sim.MetricsReport, str]) -> Outcome:
        report, text = output
        problems = []
        if report.completed + report.excluded + report.aborted != report.episodes:
            problems.append(f"seed {doc['seed']}: completed+excluded+aborted != episodes")
        problems += [f"seed {doc['seed']}: {p}" for p in self.expect(report)]
        failed = report.episodes if problems else report.aborted
        return Outcome(report.episodes, failed, problems, text.encode())

    def expect(self, report: sim.MetricsReport) -> list[str]:
        raise NotImplementedError


class SimulateBaseline(_Simulate):
    def __init__(self, seed: int):
        super().__init__(seed, load_baseline())

    def expect(self, report: sim.MetricsReport) -> list[str]:
        # The paper's optimistic-execution claim: the verifier never runs.
        problems = []
        if report.verifier_invocations != 0:
            problems.append(f"verifier_invocations {report.verifier_invocations} != 0")
        if report.dispute_rate != 0.0:
            problems.append(f"dispute_rate {report.dispute_rate} != 0.0")
        return problems


def disputes_scenario(base: dict) -> dict:
    """Baseline params with experience pricing and a user who always claims
    against an insurer who always denies. A lower Pi_honest collapses under
    adverse selection (nearly every episode excluded), so work per request
    would depend on the seed."""
    doc = copy.deepcopy(base)
    doc["params"]["Pi_honest"] = 200
    doc["pricing"] = "experience"
    doc["loading"] = 0.2
    gain = {"kind": "geometric", "mean": 250}
    doc["population"] = [
        {"id": "a0", "theta": 0.1, "gain": gain},
        {"id": "a1", "theta": 0.4, "gain": gain, "audit_access": False},
    ]
    doc["policies"] = {
        "agent": "opportunistic",
        "opportunistic_p": 0.5,
        "user": "always_claim",
        "insurer": "always_deny",
    }
    return doc


class SimulateDisputes(_Simulate):
    def __init__(self, seed: int):
        super().__init__(seed, disputes_scenario(load_baseline()))

    def expect(self, report: sim.MetricsReport) -> list[str]:
        problems = []
        if report.excluded != 0:
            problems.append(f"excluded {report.excluded} != 0")
        if report.verifier_invocations == 0:
            problems.append("no episode reached the verifier")
        return problems


class SweepGrid:
    """One request is `sweep(config, grid, jobs=2)` over a 4x4 grid.

    A cell runs 100 episodes, so a request takes well under a second: the
    host's speed is read between requests, and over a longer request it
    changed too much for the reading to price the request's episodes.
    """

    checked_requests = 1
    traced_requests = 2
    jobs = 2
    grid = [
        ("S_A", [units(v) for v in (0, 10, 20, 30)]),
        ("F", [units(v) for v in (50, 150, 250, 500)]),
    ]

    def __init__(self, seed: int):
        doc = load_baseline()
        doc["episodes"] = 100
        doc["stack"] = {
            "base_risk": 0.1,
            "loading": 0.2,
            "certificates": [
                {"issuer": "code-insurer", "domain": "code", "discount": 0.5},
                {"issuer": "data-insurer", "domain": "data", "discount": 0.4},
            ],
        }
        self._seeds = random.Random(seed)
        self.config = sim.scenario_from_dict(doc)
        self.cells = [(a, b) for a in self.grid[0][1] for b in self.grid[1][1]]

    def next_input(self) -> sim.ScenarioConfig:
        return dataclasses.replace(self.config, seed=self._seeds.getrandbits(63))

    def items(self, config: sim.ScenarioConfig) -> int:
        return len(self.cells) * config.episodes

    def request(self, config: sim.ScenarioConfig) -> list[dict]:
        return sim.sweep(config, self.grid, jobs=self.jobs)

    def check(self, config: sim.ScenarioConfig, rows: list[dict]) -> Outcome:
        problems = []
        if [(r["S_A"], r["F"]) for r in rows] != self.cells:
            problems.append(f"seed {config.seed}: rows out of grid order")
        for r in rows:
            # Rational user and insurer never dispute: the optimistic path.
            if r["verifier_invocations"] != 0 or r["dispute_rate"] != 0.0:
                problems.append(f"seed {config.seed}: cell {r['S_A']},{r['F']} disputed")
            if not 0.0 <= r["misbehavior_rate"] <= 1.0:
                problems.append(f"seed {config.seed}: misbehavior_rate out of range")
        canonical = json.dumps(rows, sort_keys=True).encode()
        items = self.items(config)
        return Outcome(items, items if problems else 0, problems, canonical)


class EquilibriumAudit:
    """One request audits a batch of params draws: each goes through the
    conditions, the solver, the oracle and the prediction. Half the draws lie
    strictly inside the equilibrium region, half are unconstrained.

    A request is a batch, not a single draw: the two halves cost differently,
    so the median of single-draw latencies sat in the gap between them, and
    the 99.98th-percentile tail of ~70k draws per run timed host hiccups.
    """

    checked_requests = 16
    traced_requests = 12
    jobs = 1
    batch = 256
    high = 10**6

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._next = self._draw()

    def _draw(self) -> list[tuple[bool, mechanism.MechanismParams]]:
        rng, n, high = self._rng, self.batch // 2, self.high
        L = rng.integers(1, high, n)
        B = rng.integers(0, high, n)
        F = rng.integers(0, 2 * L + B)  # access to justice: F < 2L + B
        S_I = L + rng.integers(0, high, n)  # solvency: S_I >= L
        G = rng.integers(0, high, n)
        S_A = rng.integers(0, high, n)
        V = np.maximum(0, G + 1 - S_A) + rng.integers(0, high, n)  # deterrence
        P = rng.integers(0, high, n)
        R = rng.integers(0, high, n)
        Pi = G - S_A - V + 1 + rng.integers(0, high, n)  # honesty beats deviation
        region = np.stack([L, G, S_A, S_I, B, F, R, V, P, Pi], axis=1).tolist()
        free = rng.integers(0, high, (n, 10)).tolist()
        draws = []
        for inside, anywhere in zip(region, free):
            draws.append((True, mechanism.MechanismParams(*inside)))
            draws.append((False, mechanism.MechanismParams(*anywhere)))
        return draws

    def next_input(self) -> list[tuple[bool, mechanism.MechanismParams]]:
        draws, self._next = self._next, self._draw()
        return draws

    def items(self, draws: list) -> int:
        return len(draws)

    def request(self, draws: list[tuple[bool, mechanism.MechanismParams]]) -> list[tuple]:
        audits = []
        for _, params in draws:
            conditions = mechanism.check_conditions(params)
            tree = game.build_game(params)
            profile, payoffs = game.solve_spe(tree)
            oracle = game.brute_force_spe(tree)
            predicted = game.predict_honest_equilibrium(params)
            audits.append((conditions, profile, payoffs, oracle, predicted))
        return audits

    def check(self, draws: list, audits: list[tuple]) -> Outcome:
        problems = []
        canonical = []
        failed = 0
        for (inside, params), (conditions, profile, payoffs, oracle, predicted) in zip(draws, audits):
            known = len(problems)
            if profile not in oracle:
                problems.append(f"{params}: solver profile not in the oracle's SPE set")
            if predicted and (profile.agent is not game.AgentAction.HONEST
                              or payoffs.verifier_invoked):
                problems.append(f"{params}: predicted honest, solver disagrees")
            if inside and not (conditions.all_hold and predicted):
                problems.append(f"{params}: in-region draw not predicted honest")
            failed += len(problems) > known
            canonical.append(repr((profile, payoffs, len(oracle), predicted)))
        if len(audits) != len(draws):
            problems.append(f"{len(audits)} audits for {len(draws)} draws")
            failed = len(draws)
        return Outcome(len(draws), failed, problems, "\n".join(canonical).encode())


WORKLOADS = {
    "simulate_baseline": SimulateBaseline,
    "simulate_disputes": SimulateDisputes,
    "sweep_grid": SweepGrid,
    "equilibrium_audit": EquilibriumAudit,
}
