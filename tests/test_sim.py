import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from insured_agents import (
    ALL_PATHS,
    AgentAction,
    AgentProfile,
    EscalationChoice,
    GainModel,
    GameTree,
    LeafPayoffs,
    MechanismParams,
    TerminalPath,
    build_game,
    leaf_payoffs,
    replay_game_path,
    solve_spe,
    run_scenario,
    run_scenario_with_records,
    sweep,
    units,
)
from insured_agents import sim
from insured_agents.game import _ALL_PROFILES, InsurerResponse
from insured_agents.ledger import AccountId, Role
from insured_agents.market import RiskPosterior, price_premium
from insured_agents.sim import (
    AgentPolicy,
    BehaviorPolicy,
    InsurerPolicy,
    ScenarioConfig,
    ScenarioError,
    UserPolicy,
    _solved_profile,
    _World,
    scenario_from_dict,
    sweep_configs,
)
from test_golden import ABORTED
from test_ledger import ledger_state

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "demos" / "scenarios" / "baseline.json"


def make_params(**overrides) -> MechanismParams:
    base = dict(
        L=units(100), G=units(40), S_A=units(30), S_I=units(150),
        B=units(20), F=units(50), R=units(10), V_future=units(20),
        P=units(1), Pi_honest=units(5),
    )
    base.update(overrides)
    return MechanismParams(**base)


def make_config(**overrides) -> ScenarioConfig:
    base = dict(
        seed=7,
        episodes=50,
        params=make_params(),
        population=(AgentProfile(id="a0", gain=GainModel("fixed", units(40))),),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRunEpisode:
    def test_rational_everyone_stays_on_honest_path(self):
        report, records = run_scenario_with_records(make_config())
        assert report.misbehavior_rate == 0.0
        assert report.dispute_rate == 0.0
        assert report.verifier_invocations == 0
        assert all(r.action == "honest" and not r.claim_filed for r in records)

    def test_always_malicious_is_caught_and_settled(self):
        config = make_config(
            episodes=10,
            policy=BehaviorPolicy(agent=AgentPolicy.ALWAYS_MALICIOUS),
        )
        report, records = run_scenario_with_records(config)
        p = config.params
        assert report.misbehavior_rate == 1.0
        for r in records:
            assert r.claim_state == "accepted"
            assert r.payoff_user == 0
            assert r.payoff_insurer == -p.L + p.S_A + p.P
            assert r.payoff_agent == p.G - p.S_A - p.V_future - p.P

    def test_never_claim_user_eats_the_loss(self):
        config = make_config(
            episodes=5,
            policy=BehaviorPolicy(
                agent=AgentPolicy.ALWAYS_MALICIOUS, user=UserPolicy.NEVER_CLAIM
            ),
        )
        _, records = run_scenario_with_records(config)
        for r in records:
            assert r.payoff_user == -config.params.L
            assert not r.claim_filed

    def test_always_deny_insurer_triggers_disputes(self):
        config = make_config(
            episodes=5,
            policy=BehaviorPolicy(
                agent=AgentPolicy.ALWAYS_MALICIOUS, insurer=InsurerPolicy.ALWAYS_DENY
            ),
        )
        report, records = run_scenario_with_records(config)
        assert report.dispute_rate == 1.0
        assert report.verifier_invocations == 5
        for r in records:
            assert r.claim_state == "upheld_valid"

    def test_audit_access_counted(self):
        config = make_config(episodes=4)
        report, _ = run_scenario_with_records(config)
        # rational user files no claim on the honest path, so no audits
        assert report.audit_access_events == 0
        config = make_config(
            episodes=4, policy=BehaviorPolicy(agent=AgentPolicy.ALWAYS_MALICIOUS)
        )
        report, _ = run_scenario_with_records(config)
        assert report.audit_access_events == 4

    def test_unprofitable_agents_excluded(self):
        config = make_config(params=make_params(P=units(10)))  # premium > Pi_honest
        report, records = run_scenario_with_records(config)
        assert report.excluded == config.episodes
        assert report.completed == 0


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_scenario(make_config(episodes=200))
        b = run_scenario(make_config(episodes=200))
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        config = make_config(
            episodes=300,
            policy=BehaviorPolicy(
                agent=AgentPolicy.OPPORTUNISTIC, opportunistic_p=0.5
            ),
            params=make_params(G=units(200), F=units(5)),
            population=(
                AgentProfile(id="a0", gain=GainModel("geometric", units(200))),
            ),
        )
        a = run_scenario(config)
        b = run_scenario(replace(config, seed=8))
        assert a.to_json() != b.to_json()

    def test_histogram_mass_equals_completed_episodes(self):
        report = run_scenario(make_config(episodes=120))
        assert sum(report.user_loss_distribution.values()) == report.completed

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Account ids hash by their owner string and their role's address;
        # neither may reach a report, an episode log or a sweep CSV.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        outputs = []
        for hash_seed in ("0", "4242"):
            out = tmp_path / hash_seed
            out.mkdir()
            for args in (
                ["simulate", str(BASELINE), "--out", "report.json",
                 "--episodes-log", "episodes.jsonl"],
                ["sweep", "--scenario", str(BASELINE), "--grid", "G=40,200;F=50,500",
                 "--out", "sweep.csv"],
            ):
                subprocess.run(
                    [sys.executable, "-m", "insured_agents.cli", *args], cwd=out,
                    env={**env, "PYTHONHASHSEED": hash_seed},
                    check=True, capture_output=True, timeout=120,
                )
            outputs.append((
                (out / "report.json").read_bytes(),
                hashlib.sha256((out / "episodes.jsonl").read_bytes()).hexdigest(),
                (out / "sweep.csv").read_bytes(),
            ))
        assert outputs[0] == outputs[1]


class TestEpisodeStream:
    """A world reseeds one generator from seeds it derives in blocks; every
    episode must still draw exactly the stream `default_rng([seed, index])`
    gives. These tests and `tests/golden/` are the stream's only guard: the
    baseline scenario never misbehaves, so its report is the same at any seed."""

    @pytest.mark.filterwarnings("error")  # a uint32 overflow warning fails
    @given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**33 - 2))
    @example(seed=0, index=0)
    @example(seed=2**32 - 1, index=sim._SEED_BLOCK - 1)  # either side of a block boundary
    @example(seed=2**32, index=2**32 - 1)  # the index gains a second 32-bit word
    @example(seed=2**64 - 1, index=2**32)
    def test_derived_seeds_are_default_rng_states(self, seed, index):
        expected = []
        for i in (index, index + 1):
            state = np.random.default_rng([seed, i]).bit_generator.state["state"]
            expected.append((state["state"], state["inc"]))
        assert sim._seed_states(seed, index, index + 2) == expected

    def test_each_episode_reseeds_to_its_own_stream(self):
        config = make_config(seed=2**40 + 3, episodes=sim._SEED_BLOCK + 5)
        world = _World(config)
        for index in range(config.episodes):
            rng = world._episode_rng(index)
            expected = np.random.default_rng([config.seed, index])
            assert rng.bit_generator.state == expected.bit_generator.state, index
            # A 32-bit draw leaves half a word buffered; a reseed must drop it.
            assert rng.integers(2**32, dtype=np.uint32) == expected.integers(
                2**32, dtype=np.uint32)
        assert len(world._seeds) == 5  # no seed past the last episode

    def test_episodes_play_the_default_rng_stream(self, monkeypatch):
        gain = {"kind": "geometric", "mean": 200}
        stack = {"base_risk": 0.1, "loading": 0.2, "certificates": [
            {"issuer": "code-insurer", "domain": "code", "discount": 0.5},
        ]}
        runs = []
        for seed in (0, 7, 2**63 + 5):  # a seed of one 32-bit word and of two
            config = scenario_from_dict(scenario_doc(
                seed=seed, episodes=sim._SEED_BLOCK + 30, stack=stack,
                params={**scenario_doc()["params"], "Pi_honest": 200},
                population=[{"id": "a0", "theta": 0.1, "gain": gain},
                            {"id": "a1", "theta": 0.4, "gain": gain}],
                policies={"agent": "opportunistic", "opportunistic_p": 0.5},
            ))
            with monkeypatch.context() as patch:
                patch.setattr(_World, "_episode_rng", lambda world, index: (
                    np.random.default_rng([world.config.seed, index])
                ))
                _, expected = run_scenario_with_records(config)
            _, records = run_scenario_with_records(config)
            assert records == expected, f"seed {seed}"
            runs.append(records)
        assert runs[0] != runs[1] != runs[2] != runs[0]  # the scenario reads its seed


class TestDeterrence:
    def opportunistic_config(self, enforcement: bool) -> ScenarioConfig:
        return make_config(
            episodes=2000,
            enforcement_enabled=enforcement,
            policy=BehaviorPolicy(
                agent=AgentPolicy.OPPORTUNISTIC, opportunistic_p=0.5
            ),
            params=make_params(S_A=units(30), V_future=units(20)),
            population=(
                AgentProfile(id="a0", gain=GainModel("geometric", units(10))),
            ),
        )

    def test_enforcement_lowers_misbehavior(self):
        on = run_scenario(self.opportunistic_config(True))
        off = run_scenario(self.opportunistic_config(False))
        assert on.misbehavior_rate < off.misbehavior_rate

    def test_raising_deductible_weakly_lowers_misbehavior(self):
        base = self.opportunistic_config(True)
        low = run_scenario(replace(base, params=replace(base.params, S_A=units(5))))
        high = run_scenario(replace(base, params=replace(base.params, S_A=units(80))))
        assert high.misbehavior_rate <= low.misbehavior_rate


class TestLedgerGameConsistency:
    def test_all_paths_match_leaf_payoffs_with_zero_premium(self):
        params = make_params(P=0)
        m_esc = TerminalPath(AgentAction.MALICIOUS, True, InsurerResponse.DENY, True)
        for path in ALL_PATHS:
            expected = leaf_payoffs(params, path)
            pi_a, pi_i, pi_u = replay_game_path(params, path, claim_bond=0)
            assert pi_a == expected.pi_A, path.describe()
            assert pi_i == expected.pi_I, path.describe()
            if path == m_esc:
                # documented reference-point discrepancy: offset exactly L
                assert expected.pi_U - pi_u == params.L
            else:
                assert pi_u == expected.pi_U, path.describe()

    def test_premium_offsets_are_exactly_p(self):
        # With P > 0 the ledger shifts the agent by -P everywhere and the
        # two settled-malicious insurer leaves by +P; all else matches.
        params = make_params(P=units(8))
        verbatim = {
            TerminalPath(AgentAction.MALICIOUS, True, InsurerResponse.ACCEPT),
            TerminalPath(AgentAction.MALICIOUS, True, InsurerResponse.DENY, True),
        }
        for path in ALL_PATHS:
            expected = leaf_payoffs(params, path)
            pi_a, pi_i, _ = replay_game_path(params, path, claim_bond=0)
            assert expected.pi_A - pi_a == params.P
            assert pi_i - expected.pi_I == (params.P if path in verbatim else 0)

    @given(
        money=st.lists(st.integers(0, 10**9), min_size=8, max_size=8),
        premium=st.integers(1, 10**9),
        pi_honest=st.integers(-10**9, 10**9),
        claim_bond=st.integers(0, 10**9),
    )
    def test_ledger_minus_game_is_the_wedge(self, money, premium, pi_honest, claim_bond):
        # replay_game_path - leaf_payoffs, as (agent, insurer, user), per path.
        params = MechanismParams(*money, P=premium, Pi_honest=pi_honest)
        P, L, c = params.P, params.L, claim_bond
        wedge = {
            "H/NoClaim": (-P, 0, 0),
            "H/Claim/Accept": (-P, 0, 0),
            "H/Claim/Deny/Drop": (-P, c, -c),
            "H/Claim/Deny/Escalate": (-P, c, -c),
            "M/NoClaim": (-P, 0, 0),
            "M/Claim/Accept": (-P, P, 0),
            "M/Claim/Deny/Drop": (-P, c, -c),
            "M/Claim/Deny/Escalate": (-P, P, -L),
        }
        for path in ALL_PATHS:
            leaf = leaf_payoffs(params, path)
            replayed = replay_game_path(params, path, claim_bond=claim_bond)
            got = tuple(r - g for r, g in zip(replayed, (leaf.pi_A, leaf.pi_I, leaf.pi_U)))
            assert got == wedge[path.describe()], path.describe()

    def test_ledger_payoffs_flip_valid_escalation_below_2l_plus_b(self):
        # Under ledger payoffs a harmed user escalates a valid denial only
        # when F < L + B + claim bond (here 120), against the paper's
        # F < 2L + B (here 220); in between the two trees part ways.
        def ledger_tree(params):
            return GameTree(params, tuple(
                LeafPayoffs(*replay_game_path(params, path), bool(path.escalated))
                for path in ALL_PATHS
            ))

        for fee in (119, 120, 219, 220):
            params = make_params(F=units(fee))
            paper, _ = solve_spe(build_game(params))
            ledger, _ = solve_spe(ledger_tree(params))
            if fee in (119, 220):
                assert ledger == paper, fee
            else:
                assert paper.agent is AgentAction.HONEST, fee
                assert paper.escalate_valid is EscalationChoice.ESCALATE, fee
                assert ledger.agent is AgentAction.MALICIOUS, fee
                assert ledger.escalate_valid is EscalationChoice.DROP, fee


class TestSweep:
    def test_grid_shape_and_order(self):
        config = make_config(episodes=5)
        rows = sweep(config, [("G", [units(40), units(200)]), ("F", [units(50)])])
        assert len(rows) == 2
        assert [row["G"] for row in rows] == [units(40), units(200)]

    def test_predicted_column_matches_conditions(self):
        config = make_config(episodes=5)
        rows = sweep(config, [("G", [units(40), units(200)])])
        assert rows[0]["predicted"] is True
        assert rows[1]["predicted"] is False

    def test_all_hold_cells_have_zero_misbehavior(self):
        config = make_config(episodes=20)
        rows = sweep(config, [("G", [units(10), units(40)]), ("F", [units(5), units(50)])])
        for row in rows:
            assert row["predicted"] is True
            assert row["misbehavior_rate"] == 0.0
            assert row["verifier_invocations"] == 0

    def test_jobs_do_not_change_results(self):
        config = make_config(episodes=10)
        grid = [("G", [units(40), units(200)]), ("B", [units(20), units(5)])]
        assert sweep(config, grid, jobs=1) == sweep(config, grid, jobs=8)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(make_config(), [])

    def test_repeated_name_rejected(self):
        # A second F axis would overwrite the first in every cell.
        with pytest.raises(ValueError, match="'F'"):
            sweep(make_config(), [("F", [units(1), units(2)]), ("F", [units(300)])])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown grid parameter 'Q'"):
            sweep_configs(make_config(), [("Q", [1])])

    def test_out_of_range_cell_is_named(self):
        # A ScenarioError, not the MoneyOverflowError of formatting the cell.
        with pytest.raises(ScenarioError, match=f"^sweep cell F={10**30}: "):
            sweep_configs(make_config(), [("F", [10**30])])


def scenario_doc(**overrides) -> dict:
    doc = {
        "schema_version": 1,
        "seed": 7,
        "episodes": 10,
        "params": {
            "L": 100, "G": 40, "S_A": 30, "S_I": 150, "B": 20, "F": 50,
            "R": 10, "V_future": 20, "P": 1, "Pi_honest": 5,
        },
        "population": [{"id": "a0", "theta": 0.1}],
    }
    doc.update(overrides)
    return doc


class TestScenarioParsing:
    def test_round_trip(self):
        config = scenario_from_dict(scenario_doc())
        assert config.params.L == units(100)
        assert config.population[0].id == "a0"

    def test_unknown_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(scenario_doc(schema_version=2))

    def test_zero_episodes_rejected(self):
        with pytest.raises(ScenarioError, match="episodes"):
            scenario_from_dict(scenario_doc(episodes=0))

    def test_missing_param_has_field_path(self):
        doc = scenario_doc()
        del doc["params"]["S_I"]
        with pytest.raises(ScenarioError, match=r"params\.S_I"):
            scenario_from_dict(doc)

    def test_too_many_decimals_rejected(self):
        doc = scenario_doc()
        doc["params"]["L"] = "1.0000001"
        with pytest.raises(ScenarioError, match=r"params\.L"):
            scenario_from_dict(doc)

    def test_too_many_decimals_in_a_number_rejected(self):
        doc = scenario_doc()
        doc["params"]["L"] = 1.0000001
        with pytest.raises(ScenarioError, match=r"params\.L: .*decimal places"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "name", ["L", "G", "S_A", "S_I", "B", "F", "R", "V_future", "P", "Pi_honest"]
    )
    def test_string_amount_has_its_path(self, name):
        doc = scenario_doc()
        doc["params"][name] = "100"
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == f"params.{name}: must be a number, got '100'"

    def test_obligations_past_the_funding_cap_rejected(self):
        # At F = 2e12 units one escalated episode would owe more than a
        # wallet is funded with; it used to play with the fee clamped.
        doc = scenario_doc()
        doc["params"]["F"] = 2 * 10**12
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == "params"
        with pytest.raises(ScenarioError, match="funding cap"):
            replay_game_path(make_params(F=units(2 * 10**12)), ALL_PATHS[-1])

    def test_obligations_at_the_funding_cap_accepted(self):
        config = make_config()
        room = sim._FUNDING_CAP - sim._obligations(config)
        at_cap = replace(config, params=replace(config.params, F=config.params.F + room))
        at_cap.validate()
        past_cap = replace(at_cap, claim_bond=1)
        with pytest.raises(ScenarioError, match="^params: "):
            past_cap.validate()

    def test_bad_policy_name(self):
        with pytest.raises(ScenarioError, match="policies"):
            scenario_from_dict(scenario_doc(policies={"agent": "chaotic"}))

    @pytest.mark.parametrize("field, value, path", [
        ("episodes", "ten", "episodes"),
        ("episodes", 2.9, "episodes"),
        ("episodes", True, "episodes"),
        ("seed", "x", "seed"),
        ("seed", float("inf"), "seed"),
        ("seed", 7.5, "seed"),
        ("seed", "7", "seed"),
        ("loading", "high", "loading"),
        ("loading", -5, "loading"),
        ("loading", float("nan"), "loading"),
        ("enforcement_enabled", "false", "enforcement_enabled"),
        ("enforcement_enabled", 0, "enforcement_enabled"),
        ("loading", True, "loading"),
        ("loading", "0.2", "loading"),
        pytest.param("loading", 10**400, "loading", id="loading-huge-int"),
        ("pricing", 5, "pricing"),
        ("pricing", True, "pricing"),
        ("claim_bond", -1, "claim_bond"),
        ("policies", {"opportunistic_p": "0.5"}, "policies.opportunistic_p"),
        ("policies", {"opportunistic_p": True}, "policies.opportunistic_p"),
        ("policies", {"opportunistic_p": 1.5}, "policies.opportunistic_p"),
        ("policies", {"user": "sometimes"}, "policies.user"),
        ("claim_bond", "1", "claim_bond"),
    ])
    def test_bad_top_level_field_has_its_path(self, field, value, path):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(scenario_doc(**{field: value}))
        assert err.value.path == path

    @pytest.mark.parametrize("population, path", [
        ([{"id": "a0", "theta": True}], "population[0].theta"),
        ([{"id": "a0", "theta": "0.5"}], "population[0].theta"),
        ([{"id": "a0", "theta": 2}], "population[0].theta"),
        ([{"id": 7}], "population[0].id"),
        ([{"id": True}], "population[0].id"),
        ([{"id": "a0"}, {"id": "a0"}], "population[1].id"),
        ([{"id": "a0", "gain": 5}], "population[0].gain"),
        ([{"id": "a0", "gain": "fixed"}], "population[0].gain"),
        ([{"id": "a0", "gain": {"kind": "uniform"}}], "population[0].gain"),
        ([{"id": "a0", "gain": {"mean": "40"}}], "population[0].gain.mean"),
    ])
    def test_bad_population_field_has_its_path(self, population, path):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(scenario_doc(population=population))
        assert err.value.path == path

    @pytest.mark.parametrize("stack, path", [
        ({"base_risk": True}, "stack.base_risk"),
        ({"base_risk": "0.1"}, "stack.base_risk"),
        ({"base_risk": 0}, "stack.base_risk"),
        ({"base_risk": 1.5}, "stack.base_risk"),
        ({"base_risk": float("nan")}, "stack.base_risk"),
        ({}, "stack.base_risk"),
        ({"base_risk": 0.1, "layer1_cut": "0.2"}, "stack.layer1_cut"),
        ({"base_risk": 0.1, "layer1_cut": 1.5}, "stack.layer1_cut"),
        ({"base_risk": 0.1, "layer1_cut": -0.1}, "stack.layer1_cut"),
        ({"base_risk": 0.1, "loading": True}, "stack.loading"),
        ({"base_risk": 0.1, "certificates": 5}, "stack.certificates"),
        ({"base_risk": 0.1, "certificates": "ab"}, "stack.certificates"),
        ({"base_risk": 0.1, "certificates": {"issuer": "i0"}}, "stack.certificates"),
        ({"base_risk": 0.1, "certificates": [5]}, "stack.certificates[0]"),
    ])
    def test_bad_stack_field_has_its_path(self, stack, path):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(scenario_doc(stack=stack))
        assert err.value.path == path

    @pytest.mark.parametrize("field, value", [
        ("issuer", 5),
        ("domain", None),
        ("discount", True),
        ("discount", "0.5"),
        ("discount", 1.0),
        ("expiry_tick", "10"),
        ("expiry_tick", 2.5),
        ("expiry_tick", False),
        ("issuer", "insurer-0"),  # the master insurer would pay itself its share
    ])
    def test_bad_certificate_field_has_its_path(self, field, value):
        cert = {"issuer": "i0", "domain": "safety", "discount": 0.5, field: value}
        doc = scenario_doc(stack={"base_risk": 0.1, "certificates": [cert]})
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == f"stack.certificates[0].{field}"

    def test_missing_certificate_field_has_its_path(self):
        doc = scenario_doc(stack={"base_risk": 0.1,
                                  "certificates": [{"issuer": "i0", "discount": 0.5}]})
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == "stack.certificates[0].domain"

    @pytest.mark.parametrize("value", ["no", "false", 1, None])
    def test_non_boolean_audit_access_rejected(self, value):
        doc = scenario_doc(population=[{"id": "a0", "audit_access": value}])
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == "population[0].audit_access"

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), "Infinity"])
    def test_non_finite_amount_rejected(self, value):
        doc = scenario_doc()
        doc["params"]["L"] = value
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == "params.L"

    def test_boolean_flags_round_trip(self):
        doc = scenario_doc(
            enforcement_enabled=False,
            population=[{"id": "a0", "audit_access": False}],
        )
        config = scenario_from_dict(doc)
        assert config.enforcement_enabled is False
        assert config.population[0].audit_access_granted is False

    def test_negative_stack_loading_has_its_path(self):
        doc = scenario_doc(stack={"base_risk": 0.05, "loading": -1})
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == "stack.loading"

    def test_stack_round_trip(self):
        doc = scenario_doc(stack={
            "base_risk": 0.05,
            "certificates": [
                {"issuer": "i0", "domain": "safety", "discount": 0.5},
            ],
        })
        config = scenario_from_dict(doc)
        assert config.stack is not None
        report = run_scenario(replace(config, episodes=5))
        assert report.completed == 5


class TestSolvedProfileMemo:
    def test_memo_stays_bounded(self):
        # Experience pricing gives each episode its own premium, so this
        # scenario has more distinct MechanismParams than the memo holds.
        _solved_profile.cache_clear()
        config = scenario_from_dict(scenario_doc(
            episodes=600, pricing="experience", loading=0.2,
            params={**scenario_doc()["params"], "Pi_honest": 200},
        ))
        run_scenario(config)
        info = _solved_profile.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize

    def test_cold_and_warm_memo_give_the_same_report(self):
        config = make_config(
            episodes=200,
            population=(
                AgentProfile(id="a0", gain=GainModel("geometric", units(60))),
                AgentProfile(id="a1", theta=0.4),
            ),
            policy=BehaviorPolicy(agent=AgentPolicy.OPPORTUNISTIC, opportunistic_p=0.5),
        )
        _solved_profile.cache_clear()
        cold = run_scenario(config).to_json()
        assert _solved_profile.cache_info().hits > 0
        assert run_scenario(config).to_json() == cold

    def test_unenforced_scenario_solves_no_game(self):
        config = make_config(
            enforcement_enabled=False,
            population=(
                AgentProfile(id="a0", gain=GainModel("geometric", units(60))),
                AgentProfile(id="a1", theta=0.4),
            ),
            policy=BehaviorPolicy(agent=AgentPolicy.OPPORTUNISTIC, opportunistic_p=0.5),
        )
        for agent in (AgentPolicy.OPPORTUNISTIC, AgentPolicy.RATIONAL_SPE):
            _solved_profile.cache_clear()
            run_scenario(replace(config, policy=replace(config.policy, agent=agent)))
            assert _solved_profile.cache_info().misses == 0

    def test_threads_sharing_the_memo_agree_with_one_thread(self):
        config = make_config(episodes=40)
        grid = [("G", [units(10), units(40), units(200)]), ("F", [units(50), units(500)])]
        _solved_profile.cache_clear()
        serial = sweep(config, grid, jobs=1)
        _solved_profile.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = sweep(config, grid, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestEpisodeHotPath:
    @staticmethod
    def count_validations(monkeypatch) -> list[MechanismParams]:
        validated = []
        check = MechanismParams.__post_init__

        def counting(params):
            validated.append(params)
            check(params)

        monkeypatch.setattr(MechanismParams, "__post_init__", counting)
        return validated

    def test_fixed_game_is_not_validated_again(self, monkeypatch):
        doc = json.loads(BASELINE.read_text())
        doc["episodes"] = 200
        config = scenario_from_dict(doc)
        validated = self.count_validations(monkeypatch)
        report, _ = run_scenario_with_records(config)
        assert report.completed == 200
        assert validated == []

    def test_experience_priced_episodes_are_validated_once_each(self, monkeypatch):
        gain = {"kind": "geometric", "mean": 250}
        config = scenario_from_dict(scenario_doc(
            episodes=200, pricing="experience", loading=0.2,
            params={**scenario_doc()["params"], "Pi_honest": 200},
            population=[{"id": "a0", "theta": 0.1, "gain": gain},
                        {"id": "a1", "theta": 0.4, "gain": gain, "audit_access": False}],
            policies={"agent": "opportunistic", "opportunistic_p": 0.5,
                      "user": "always_claim", "insurer": "always_deny"},
        ))
        validated = self.count_validations(monkeypatch)
        report, _ = run_scenario_with_records(config)
        assert report.completed + report.excluded == 200
        assert len(validated) == 200
        assert all((ep.G, ep.P) != (config.params.G, config.params.P) for ep in validated)


def reference_episode_path(profile, policy: BehaviorPolicy, agent: AgentProfile,
                           action: AgentAction, posterior: RiskPosterior) -> TerminalPath:
    """The solver's profile, copied with the behavior policies written over
    it, played from the root."""
    changes: dict = {"agent": action}
    if policy.user is not UserPolicy.RATIONAL_SPE:
        claims = policy.user is UserPolicy.ALWAYS_CLAIM
        escalation = EscalationChoice.ESCALATE if claims else EscalationChoice.DROP
        changes.update(claims_when_harmed=claims, claims_when_unharmed=claims,
                       escalate_valid=escalation, escalate_invalid=escalation)
    response = None
    if policy.insurer is InsurerPolicy.ALWAYS_ACCEPT:
        response = InsurerResponse.ACCEPT
    elif policy.insurer is InsurerPolicy.ALWAYS_DENY:
        response = InsurerResponse.DENY
    elif not agent.audit_access_granted:
        response = (profile.respond_valid if posterior.mean >= 0.5
                    else profile.respond_invalid)
    if response is not None:
        changes.update(respond_valid=response, respond_invalid=response)
    return replace(profile, **changes).outcome_path()


class TestEpisodePath:
    def test_every_profile_and_policy_picks_the_overridden_profiles_path(self):
        # Posterior means below, at and above the insurer's 1/2 threshold.
        posteriors = [RiskPosterior(1, 3), RiskPosterior(1, 1), RiskPosterior(3, 1)]
        fixed_actions = {AgentPolicy.ALWAYS_HONEST: AgentAction.HONEST,
                         AgentPolicy.ALWAYS_MALICIOUS: AgentAction.MALICIOUS}
        for agent_policy, user, insurer, audit in itertools.product(
            [AgentPolicy.RATIONAL_SPE, *fixed_actions], UserPolicy, InsurerPolicy,
            (True, False),
        ):
            agent = AgentProfile(id="a0", audit_access_granted=audit)
            policy = BehaviorPolicy(agent=agent_policy, user=user, insurer=insurer)
            world = _World(make_config(episodes=1, population=(agent,), policy=policy))
            ep = world.config.params
            for profile, posterior in itertools.product(_ALL_PROFILES, posteriors):
                world.posteriors[agent.id] = posterior
                action = fixed_actions.get(agent_policy, profile.agent)
                expected = reference_episode_path(profile, policy, agent, action, posterior)
                # None for the RNG: none of these agent policies draws.
                assert world._episode_path(profile, agent, ep, None) == expected, (
                    profile, policy, audit, posterior,
                )


class TestOnePremiumPerEpisode:
    def test_stack_charges_the_experience_quote(self):
        # The game is solved at the experience quote; the ledger must charge
        # that quote, and each layer-1 issuer gets its share of that quote.
        stack = {"base_risk": 0.1, "loading": 0.2, "layer1_cut": 0.2, "certificates": [
            {"issuer": "code-insurer", "domain": "code", "discount": 0.5},
            {"issuer": "data-insurer", "domain": "data", "discount": 0.4},
        ]}
        config = scenario_from_dict(scenario_doc(
            episodes=40, pricing="experience", loading=0.2, stack=stack,
            params={**scenario_doc()["params"], "Pi_honest": 200},
            population=[
                {"id": "a0", "theta": 0.1},
                {"id": "a1", "theta": 0.4, "gain": {"kind": "fixed", "mean": 500}},
            ],
            policies={"agent": "opportunistic", "opportunistic_p": 0.5},
        ))
        world = _World(config)
        issuers = [AccountId(Role.INSURER_WALLET, c.issuer) for c in world.stack.layer1]
        cut = Fraction("0.2") / Fraction("0.9")  # layer1_cut over the total discount
        quotes = set()
        for index in range(config.episodes):
            agent = config.population[index % len(config.population)]
            quote = price_premium(world.posteriors[agent.id], config.params.L, 0.2)
            before = [world.ledger.balance(w) for w in issuers]
            record = world.run_episode(index)
            assert not record.aborted and not record.excluded, f"episode {index}"
            assert record.premium_paid == quote, f"episode {index}"
            shares = [world.ledger.balance(w) - b for w, b in zip(issuers, before)]
            assert shares == [int(cut * quote * Fraction(d)) for d in ("0.5", "0.4")]
            quotes.add(quote)
        assert world.fixed_ep.P not in quotes and len(quotes) > 2

    def test_expired_certificate_stops_discounting_and_sharing(self, monkeypatch):
        # Episode i starts at tick 5i, so the certificate covers episodes 0
        # and 1; from episode 2 on the stack prices the bare base risk.
        composed = []
        compose = sim.compose_stack
        monkeypatch.setattr(sim, "compose_stack", lambda *args, tick, **kwargs: (
            composed.append(tick) or compose(*args, tick=tick, **kwargs)
        ))
        stack = {"base_risk": 0.1, "certificates": [
            {"issuer": "code-insurer", "domain": "code", "discount": 0.5, "expiry_tick": 10},
        ]}
        config = scenario_from_dict(scenario_doc(
            episodes=6, stack=stack, params={**scenario_doc()["params"], "Pi_honest": 200},
        ))
        world = _World(config)
        issuer = AccountId(Role.INSURER_WALLET, "code-insurer")
        paid, shares = [], []
        for index in range(config.episodes):
            before = world.ledger.balance(issuer)
            record = world.run_episode(index)
            assert not record.aborted and not record.excluded, f"episode {index}"
            paid.append(record.premium_paid)
            shares.append(world.ledger.balance(issuer) - before)
        assert paid == [units(5)] * 2 + [units(10)] * 4
        assert shares == [units(1)] * 2 + [0] * 4
        assert world.stack.layer1 == ()
        assert composed == [0, 10]  # once per expiry, not once per episode


class TestConservation:
    def test_scenario_conserves_total_supply(self):
        # run_scenario asserts conservation internally; exercise a mix of
        # dispute-heavy paths to make that meaningful
        config = make_config(
            episodes=100,
            claim_bond=units(1),
            policy=BehaviorPolicy(
                agent=AgentPolicy.ALWAYS_MALICIOUS, insurer=InsurerPolicy.ALWAYS_DENY
            ),
        )
        report = run_scenario(config)
        assert report.verifier_invocations == 100


class TestAbortedEpisodes:
    def test_aborted_episode_leaves_the_whole_ledger_unchanged(self):
        world = _World(scenario_from_dict(ABORTED))
        aborted = 0
        for index in range(world.config.episodes):
            before = ledger_state(world.ledger)
            if world.run_episode(index).aborted:
                aborted += 1
                assert ledger_state(world.ledger) == before, f"episode {index}"
        assert aborted == 37
