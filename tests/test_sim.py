import contextlib
import functools
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

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
from insured_agents import market, sim
from insured_agents.game import _ALL_PROFILES, InsurerResponse
from insured_agents.ledger import (
    AccountId, Ledger, LedgerError, PlannedTransfers, Role, TransferCount, WrongState,
)
from insured_agents.market import (
    Certificate,
    InsurerStack,
    RiskPosterior,
    layer1_shares,
    price_premium,
    underwrite_stack,
    update_posterior,
)
from insured_agents.money import MAX_AMOUNT, MoneyError
from insured_agents.sim import (
    AgentPolicy,
    BehaviorPolicy,
    InsurerPolicy,
    ScenarioConfig,
    ScenarioError,
    StackSpec,
    UserPolicy,
    _solved_profile,
    _World,
    play_path,
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
    """A world sets one stream from seeds it derives in blocks and draws its
    uniforms in Python; every episode must still draw exactly the stream
    `default_rng([seed, index])` gives. These tests and `tests/golden/` are
    the stream's only guard: the baseline scenario never misbehaves, so its
    report is the same at any seed."""

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

    @settings(deadline=None)
    @given(
        # A seed of one 32-bit word, and of two.
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
        # Indices on both sides of a seed block's boundary and of 2**32.
        index=st.sampled_from([sim._SEED_BLOCK, 2**32]).flatmap(
            lambda edge: st.integers(edge - 2, edge + 1)),
    )
    def test_uniforms_are_default_rng_uniforms(self, seed, index):
        world = _World(make_config(seed=seed, episodes=index + 1))
        stream, expected = world._episode_rng(index), np.random.default_rng([seed, index])
        assert [stream.random() for _ in range(3)] == [expected.random() for _ in range(3)]

    @pytest.mark.parametrize("uniforms_first", [0, 2])
    def test_a_geometric_draw_hands_the_stream_on(self, uniforms_first):
        # An episode whose first draw, or a later one, is a geometric gain:
        # numpy's generator takes the stream from where it stands, serves the
        # rest of the episode, and the next episode draws in Python again.
        config = make_config(seed=2**40 + 3, episodes=3)
        world = _World(config)
        for index in (0, 1):
            stream = world._episode_rng(index)
            expected = np.random.default_rng([config.seed, index])
            draws = [stream.random() for _ in range(uniforms_first)]
            draws += [stream.geometric(0.3), stream.random(), stream.geometric(0.6)]
            assert draws == ([expected.random() for _ in range(uniforms_first)]
                             + [expected.geometric(0.3), expected.random(),
                                expected.geometric(0.6)])
        stream, expected = world._episode_rng(2), np.random.default_rng([config.seed, 2])
        assert stream.serving is None
        assert stream.random() == expected.random()

    def test_each_episode_reseeds_to_its_own_stream(self):
        config = make_config(seed=2**40 + 3, episodes=sim._SEED_BLOCK + 5)
        world = _World(config)
        for index in range(config.episodes):
            stream = world._episode_rng(index)
            expected = np.random.default_rng([config.seed, index])
            # Every third episode hands its stream on; the next must not inherit it.
            draws = [stream.random()] + ([stream.geometric(0.5)] if index % 3 == 0 else [])
            assert draws == [expected.random()] + (
                [expected.geometric(0.5)] if index % 3 == 0 else []), index
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
            return GameTree(tuple(
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

    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_cells_run_in_grid_order_on_the_calling_thread(self, jobs, monkeypatch):
        ran = []
        run = sim.run_scenario

        def recording(config):
            ran.append((threading.get_ident(), config.params.G, config.params.B))
            return run(config)

        monkeypatch.setattr(sim, "run_scenario", recording)
        grid = [("G", [units(40), units(200)]), ("B", [units(20), units(5)])]
        sweep(make_config(episodes=2), grid, jobs=jobs)
        caller = threading.get_ident()
        cells = itertools.product(*(values for _, values in grid))
        assert ran == [(caller, g, b) for g, b in cells]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(make_config(), [])

    def test_repeated_name_rejected(self):
        # A second F axis would overwrite the first in every cell.
        with pytest.raises(ValueError, match="'F'"):
            sweep(make_config(), [("F", [units(1), units(2)]), ("F", [units(300)])])

    def test_repeated_value_rejected(self):
        # A repeated value would run the identical cell twice.
        with pytest.raises(ValueError, match="grid parameter 'F' repeats the value 2"):
            sweep_configs(make_config(), [("S_A", [units(1)]),
                                          ("F", [units(2), units(3), units(2)])])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown grid parameter 'Q'"):
            sweep_configs(make_config(), [("Q", [1])])

    @pytest.mark.parametrize("overrides, pricing", [
        (dict(pricing="experience"), "experience"),
        (dict(stack=StackSpec(base_risk=0.1)), "stack"),
        (dict(pricing="experience", stack=StackSpec(base_risk=0.1)), "experience"),
    ])
    def test_premium_axis_under_self_pricing_is_refused(self, overrides, pricing):
        # Either prices every episode itself, so each P cell would run alike.
        with pytest.raises(ValueError,
                           match=f"^grid parameter 'P' has no effect under {pricing} "):
            sweep_configs(make_config(**overrides), [("P", [0, units(3)])])

    def test_premium_axis_under_flat_pricing_moves_the_run(self):
        cells = sweep_configs(make_config(episodes=20), [("P", [0, units(30)])])
        assert [run_scenario(cell).excluded for cell in cells] == [0, 20]

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
        with pytest.raises(ScenarioError, match="^params: "):
            replace(at_cap, claim_bond=1)

    @pytest.mark.parametrize("pricing", [
        {"pricing": "experience", "loading": 5, "policies": {
            "agent": "always_malicious", "user": "always_claim", "insurer": "always_accept"}},
        {"stack": {"base_risk": 1.0, "loading": 5},
         "policies": {"agent": "always_honest", "user": "never_claim"}},
    ], ids=["experience", "stack"])
    def test_wallets_are_funded_for_the_premium_the_pricing_can_charge(self, pricing):
        # The flat P is zero, but each premium is quoted up to L x (1 + 5):
        # wallets funded for P ran dry and most episodes aborted.
        doc = {**json.loads(BASELINE.read_text()), "episodes": 400, **pricing,
               "population": [{"id": "a0", "theta": 0.9}]}
        doc["params"] = {**doc["params"], "Pi_honest": 1000,
                         **dict.fromkeys(("S_A", "B", "F", "R", "P", "V_future", "G"), 0)}
        report = run_scenario(scenario_from_dict(doc))
        assert (report.completed, report.aborted) == (400, 0)

    @pytest.mark.parametrize("pricing", [
        {"pricing": "experience", "loading": 7.0},
        {"stack": StackSpec(base_risk=0.1, loading=7.0)},
    ], ids=["experience", "stack"])
    def test_obligations_count_the_premium_the_pricing_can_charge(self, pricing):
        # One episode may be charged L x 8, past the cap at L = MAX / 64.
        params = make_params(L=MAX_AMOUNT // 64, S_I=MAX_AMOUNT // 64)
        make_config(params=params)
        with pytest.raises(ScenarioError, match="^params: .* exceed the funding cap"):
            make_config(params=params, **pricing)

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
        ("polices", {"agent": "always_malicious"}, "polices"),
        ("policies", {"agnet": "always_malicious"}, "policies.agnet"),
        ("params", {**scenario_doc()["params"], "Q": 1}, "params.Q"),
        ("params", {**scenario_doc()["params"], "L": -100}, "params.L"),
        ("params", {**scenario_doc()["params"], "P": -0.5}, "params.P"),
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
        ([{"id": "a0", "gain": {"kind": "uniform"}}], "population[0].gain.kind"),
        ([{"id": "a0", "gain": {"mean": "40"}}], "population[0].gain.mean"),
        ([{"id": "a0", "gain": {"mean": -3}}], "population[0].gain.mean"),
        ([{"id": "a0", "gain": {"kind": "fixed", "mu": 3}}], "population[0].gain.mu"),
        ([{"id": "a0", "thetaa": 0.5}], "population[0].thetaa"),
        ([{"theta": 0.5}], "population[0].id"),
        ([5], "population[0]"),
        ([], "population"),
        ([{"id": "a0", "gain": {"kind": 5}}], "population[0].gain.kind"),
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
        ({"base_risk": 0.1, "loadng": 0.2}, "stack.loadng"),
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
        ("domain", ""),
        ("expiry", 10),
    ])
    def test_bad_certificate_field_has_its_path(self, field, value):
        cert = {"issuer": "i0", "domain": "safety", "discount": 0.5, field: value}
        doc = scenario_doc(stack={"base_risk": 0.1, "certificates": [cert]})
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == f"stack.certificates[0].{field}"

    @pytest.mark.parametrize("domains, index", [
        (["code", "code"], 1), (["code", "data", "code"], 2), (["code", ""], 1),
    ])
    def test_repeated_or_empty_domain_has_its_path(self, domains, index):
        # A repeated domain would discount the risk twice (premium 6 -> 3 units
        # at base risk 0.1, loading 0.2) and pay its issuer two shares.
        certs = [{"issuer": "c", "domain": domain, "discount": 0.5} for domain in domains]
        doc = scenario_doc(stack={"base_risk": 0.1, "loading": 0.2, "certificates": certs})
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == f"stack.certificates[{index}].domain"

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

    @pytest.mark.parametrize("overrides, message", [
        ({"params": {**scenario_doc()["params"], "L": -100}},
         "params.L: must be non-negative, got -100"),
        ({"population": [{"id": "a0", "gain": {"mean": -3}}]},
         "population[0].gain.mean: must be non-negative, got -3"),
        ({"claim_bond": -2.5}, "claim_bond: must be non-negative, got -2.5"),
    ])
    def test_negative_amount_is_shown_as_written(self, overrides, message):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(scenario_doc(**overrides))
        assert str(err.value) == message

    def test_negative_honest_payoff_accepted(self):
        # Pi_honest is the one signed parameter: a payoff, not an amount.
        config = scenario_from_dict(scenario_doc(
            params={**scenario_doc()["params"], "Pi_honest": -5},
        ))
        assert config.params.Pi_honest == units(-5)

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


class TestConfigBuiltInCode:
    """A ScenarioConfig obeys a scenario file's rules however it is built."""

    def test_duplicate_agent_ids_rejected(self):
        # They would share one wallet and one posterior.
        with pytest.raises(ScenarioError) as err:
            make_config(population=(AgentProfile(id="a0"), AgentProfile(id="a0")))
        assert err.value.path == "population[1].id"

    def test_certificate_from_the_master_insurer_rejected(self):
        # The master would pay itself its own layer-1 share, which `pay` refuses.
        stack = StackSpec(base_risk=0.1, certificates=(
            Certificate(issuer="i0", domain="code", risk_discount=0.5),
            Certificate(issuer="insurer-0", domain="safety", risk_discount=0.5),
        ))
        with pytest.raises(ScenarioError) as err:
            make_config(stack=stack)
        assert err.value.path == "stack.certificates[1].issuer"


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

    def test_behavioral_scenario_solves_no_game(self):
        # No policy reads the solver's choices, so no episode solves a game;
        # any one rational policy reads them again.
        behavioral = BehaviorPolicy(agent=AgentPolicy.OPPORTUNISTIC, opportunistic_p=0.5,
                                    user=UserPolicy.ALWAYS_CLAIM,
                                    insurer=InsurerPolicy.ALWAYS_DENY)
        config = make_config(
            episodes=60, pricing="experience", loading=0.2, policy=behavioral,
            params=make_params(Pi_honest=units(200)),
            population=(AgentProfile(id="a0", gain=GainModel("geometric", units(250))),),
        )
        _solved_profile.cache_clear()
        report = run_scenario(config)
        assert report.completed > 0 and report.verifier_invocations > 0
        assert _solved_profile.cache_info().misses == 0
        for name, rational in (("agent", AgentPolicy.RATIONAL_SPE),
                               ("user", UserPolicy.RATIONAL_SPE),
                               ("insurer", InsurerPolicy.RATIONAL_SPE)):
            _solved_profile.cache_clear()
            run_scenario(replace(config, policy=replace(behavioral, **{name: rational})))
            assert _solved_profile.cache_info().misses > 0, name


#: Two certificates, one of which expires at tick 40 (episode 8).
_TWO_AGENTS = [{"id": "a0", "theta": 0.1}, {"id": "a1", "theta": 0.4}]
_TWO_CERTIFICATES = [
    {"issuer": "code-insurer", "domain": "code", "discount": 0.5, "expiry_tick": 40},
    {"issuer": "data-insurer", "domain": "data", "discount": 0.4},
]
#: Ten certificates, more nonzero amounts than a settlement plan has markers
#: for, so such a stack is never planned. Eight expire at tick 100, and the
#: two left, from one issuer, are planned with that issuer in two slots.
_MANY_CERTIFICATES = [
    {"issuer": f"i{j}", "domain": f"d{j}", "discount": 0.1,
     **({"expiry_tick": 100} if j >= 2 else {})}
    for j in range(10)
]
_MANY_CERTIFICATES[1]["issuer"] = "i0"


@st.composite
def scenario_docs(draw, countable: bool = False) -> dict:
    """Valid scenario documents over every policy, both pricings, both gain
    kinds, a claim bond, stacks of none, two and ten certificates, some of
    which expire, and enforcement, at most 60 episodes. If `countable`, only
    worlds whose periods `_World` may count: enforcement on, flat pricing,
    every gain fixed, and a behavioral insurer or full audit access."""
    def pick(*options):
        return draw(st.sampled_from(options))

    params = {**scenario_doc()["params"], "S_A": pick(0, 30, 80), "F": pick(50, 150, 500),
              "P": pick(0, 1), "Pi_honest": pick(5, 200, 200)}  # 5 buys few policies
    population = [
        {"id": f"a{i}", "theta": pick(0.0, 0.1, 0.4, 0.9), "audit_access": draw(st.booleans()),
         "gain": {"kind": "fixed" if countable else pick("fixed", "geometric"),
                  "mean": pick(10, 40, 250)}}
        for i in range(draw(st.integers(1, 2)))
    ]
    seed, episodes = draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 60))
    policies = {"agent": pick(*(p.value for p in AgentPolicy)),
                "user": pick(*(p.value for p in UserPolicy)),
                "insurer": pick(*(p.value for p in InsurerPolicy)),
                "opportunistic_p": pick(0.5, 1.0)}
    if countable and policies["insurer"] == InsurerPolicy.RATIONAL_SPE.value:
        # A rational insurer reads the posterior of an agent without audit access.
        for agent in population:
            agent["audit_access"] = True
    return scenario_doc(
        seed=seed, episodes=episodes, params=params, population=population, policies=policies,
        enforcement_enabled=countable or pick(True, True, False), claim_bond=pick(0, 1),
        pricing="flat" if countable else pick("flat", "experience"), loading=pick(0.0, 0.2),
        stack=pick(None, {"base_risk": 0.1, "loading": 0.2, "certificates": _TWO_CERTIFICATES},
                   {"base_risk": 0.1}, {"base_risk": 0.1, "certificates": _MANY_CERTIFICATES}),
    )


def capped(doc: dict) -> dict:
    """`doc` with every amount scaled by 10 ** 9, so that one episode owes a
    sixth to three quarters of the funding cap: a run of more than a few episodes
    funds its wallets at the cap, and they run dry. Plans are then refused,
    checked paths clamp fees and episodes abort."""
    doc = {**doc, "params": {name: v * 10**9 for name, v in doc["params"].items()},
           "claim_bond": doc.get("claim_bond", 0) * 10**9}
    doc["population"] = [
        {**agent, "gain": {**agent["gain"], "mean": agent["gain"]["mean"] * 10**9}}
        if "gain" in agent else agent for agent in doc["population"]
    ]
    return doc


def capped_scenario_docs():
    """`scenario_docs` draws, each `capped`."""
    return scenario_docs().map(capped)


def countable_scenario_docs():
    """`scenario_docs` draws of worlds whose periods may be counted."""
    return scenario_docs(countable=True)


@contextlib.contextmanager
def marked_routes():
    """Mark with `hypothesis.event` each route off the plan that an episode
    run in the block takes: a plan its wallets cannot fund, the checked path
    that settles it, an aborted episode, a fee clamped at what a payer holds."""
    routes, recording = set(), []
    plan, play, apply = sim._settlement_plan, sim._play_episode, Ledger.apply_plan

    def recorded_plan(*args):
        recording.append(True)
        try:
            return plan(*args)
        finally:
            recording.pop()

    def applied(ledger, *args):
        deltas = apply(ledger, *args)
        if deltas is None:
            routes.add("refused plan")
        return deltas

    def played(ledger, *args):
        if recording:  # a plan's recording on its scratch ledger
            return play(ledger, *args)
        shortfalls = len(ledger.shortfalls)
        try:
            settled = play(ledger, *args)
        except LedgerError:
            routes.add("abort")
            raise
        routes.add("checked fallback")
        if len(ledger.shortfalls) > shortfalls:
            routes.add("clamped fee")
        return settled

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_settlement_plan", recorded_plan)
        patch.setattr(sim, "_play_episode", played)
        patch.setattr(Ledger, "apply_plan", applied)
        yield
    for route in sorted(routes):
        event(route)


def with_stacked_examples(test):
    """`test` also run on one disputed, insured run through each stack
    shape `scenario_docs` draws, each run past its certificates' expiry."""
    for certificates in (_TWO_CERTIFICATES, [], _MANY_CERTIFICATES):
        test = example(doc=scenario_doc(
            seed=3, episodes=30, claim_bond=1, pricing="experience", loading=0.2,
            params={**scenario_doc()["params"], "Pi_honest": 200},
            population=[{"id": "a0", "theta": 0.4,
                         "gain": {"kind": "geometric", "mean": 250}}],
            policies={"agent": "opportunistic", "opportunistic_p": 0.5,
                      "user": "always_claim", "insurer": "rational_spe"},
            stack={"base_risk": 0.1, "loading": 0.2, "certificates": certificates},
        ))(test)
    return test


def with_capped_examples(test):
    """`test` also run on a capped run down each route off the plan."""
    malicious = {"agent": "always_malicious", "user": "always_claim",
                 "insurer": "always_accept"}
    params = {**scenario_doc()["params"], "Pi_honest": 200}
    for doc in (
        # The insurer pays every accepted claim until it cannot post a stake:
        # its plans are refused, and the checked episodes abort.
        scenario_doc(episodes=30, params=params, policies=malicious),
        # The same under experience pricing, through a stack.
        scenario_doc(episodes=30, params=params, policies=malicious, pricing="experience",
                     loading=0.2, stack={"base_risk": 0.1, "loading": 0.2,
                                         "certificates": _TWO_CERTIFICATES}),
        # The user loses every dispute until it cannot pay the verifier's fee,
        # which the checked path clamps.
        scenario_doc(episodes=6, params={**params, "F": 500},
                     policies={"agent": "always_honest", "user": "always_claim",
                               "insurer": "always_deny"}),
        # Ten certificates: no plan, so every episode takes the checked path.
        scenario_doc(episodes=3, params=params,
                     stack={"base_risk": 0.1, "certificates": _MANY_CERTIFICATES}),
    ):
        test = example(doc=capped(doc))(test)
    return test


class TestReferenceRun:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(doc=scenario_docs())
    @with_stacked_examples
    def test_records_equal_a_run_that_solves_every_game(self, doc):
        self.check(doc, contextlib.nullcontext)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=capped_scenario_docs())
    @with_capped_examples
    def test_records_equal_a_run_that_solves_every_game_as_wallets_run_dry(self, doc):
        self.check(doc, marked_routes)

    @staticmethod
    def check(doc, routes):
        # Whether or not a world solves its games, and whatever the memo holds,
        # an episode plays what a cold solve of its own game gives.
        config = scenario_from_dict(doc)
        policy = config.policy
        rational = "rational_spe" in (policy.agent.value, policy.user.value,
                                      policy.insurer.value)
        before = _solved_profile.cache_info()
        with routes():
            _, records = run_scenario_with_records(config)
        after = _solved_profile.cache_info()
        # A game is looked up exactly when an enforced episode is insured and
        # a rational policy plays it.
        played = config.enforcement_enabled and any(not r.excluded for r in records)
        looked_up = after.hits + after.misses > before.hits + before.misses
        assert looked_up == (rational and played)
        init = _World.__init__

        def solving_init(world, config):
            init(world, config)
            world.solves = True

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_World, "__init__", solving_init)
            patch.setattr(sim, "_solved_profile", lambda ep: solve_spe(build_game(ep))[0])
            _, expected = run_scenario_with_records(config)
        assert records == expected


class TestBoundedBooks:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(doc=scenario_docs())
    @with_stacked_examples
    def test_a_world_that_retires_and_counts_matches_one_that_keeps_every_book(self, doc):
        self.check(doc, contextlib.nullcontext)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=capped_scenario_docs())
    @with_capped_examples
    def test_a_counting_world_matches_a_keeping_one_as_wallets_run_dry(self, doc):
        self.check(doc, marked_routes)

    @staticmethod
    def check(doc, routes):
        config = scenario_from_dict(doc)
        bounded = _World(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "TransferCount", list)
            kept = _World(config)
        kept.ledger.retire = lambda policy_id: None  # every closed policy stays
        with routes():
            for index in range(config.episodes):
                assert bounded.run_episode(index) == kept.run_episode(index)
                bounded.ledger.check_invariants()
                kept.ledger.check_invariants()
        assert isinstance(kept.ledger.transfers, list)
        assert len(bounded.ledger.transfers) == len(kept.ledger.transfers)
        assert not bounded.ledger.policies and not bounded.ledger.claims
        # Only empty escrows left the books.
        kept_balances = kept.ledger.balances
        assert {a: kept_balances[a] for a in bounded.ledger.balances} == bounded.ledger.balances
        assert not any(kept_balances[a] for a in kept_balances.keys() - bounded.ledger.balances)

    def test_a_long_run_keeps_no_closed_policy(self):
        world = _World(scenario_from_dict({**json.loads(BASELINE.read_text()),
                                           "episodes": 300}))
        insured = sum(not world.run_episode(index).excluded for index in range(300))
        assert not world.ledger.policies and not world.ledger.claims
        # The fee sink and the wallets of the insurer, the user and two agents.
        assert len(world.ledger.balances) == 5
        assert len(world.ledger.transfers) == 5 * insured > 0  # underwrite 3, expire 2


class TestReferenceStreams:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(doc=scenario_docs())
    @with_stacked_examples
    def test_records_and_bytes_equal_a_run_on_per_episode_generators(self, doc):
        # Each episode draws from its own `default_rng([seed, index])` and
        # prices at params built by `replace`; a rerun, and a config rebuilt
        # from the document's JSON, give the same report bytes.
        config = scenario_from_dict(doc)
        report, records = run_scenario_with_records(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_World, "_episode_rng", lambda world, index: (
                np.random.default_rng([world.config.seed, index])
            ))
            patch.setattr(_World, "_episode_params", lambda world, gain, premium: (
                replace(world.fixed_ep, G=gain, P=premium)
            ))
            _, expected = run_scenario_with_records(config)
        assert records == expected
        text = report.to_json()
        assert run_scenario(config).to_json() == text
        assert run_scenario(scenario_from_dict(json.loads(json.dumps(doc)))).to_json() == text


def _unplanned(path, nonzero):
    return None


class TestSettlementPlans:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(doc=scenario_docs())
    @with_stacked_examples
    def test_a_planned_world_matches_one_that_plays_every_path(self, doc):
        self.check(doc, contextlib.nullcontext)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=capped_scenario_docs())
    @with_capped_examples
    def test_a_planned_world_matches_one_that_plays_every_path_as_wallets_run_dry(self, doc):
        self.check(doc, marked_routes)

    @staticmethod
    def check(doc, routes):
        config = scenario_from_dict(doc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "TransferCount", list)
            planned, played = _World(config), _World(config)
        for index in range(config.episodes):
            with routes():
                record = planned.run_episode(index)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sim, "_settlement_plan", _unplanned)
                assert played.run_episode(index) == record
            assert planned.ledger.transfers == played.ledger.transfers
            assert planned.ledger.claims_filed == played.ledger.claims_filed
            assert planned.ledger.balances == played.ledger.balances
            planned.ledger.check_invariants()
            played.ledger.check_invariants()

    @pytest.mark.parametrize("stack", [
        None, {"base_risk": 0.1, "loading": 0.2, "certificates": _TWO_CERTIFICATES},
    ], ids=["unstacked", "stacked"])
    def test_a_world_plays_no_path_on_its_ledger(self, stack, monkeypatch):
        # Only the recording of each plan plays a path or underwrites through
        # a stack, on a scratch ledger; that holds across the stack's repricing.
        config = scenario_from_dict(scenario_doc(
            episodes=200, pricing="experience", loading=0.2, claim_bond=1,
            params={**scenario_doc()["params"], "Pi_honest": 200},
            population=[{"id": "a0", "theta": 0.1, "gain": {"kind": "geometric",
                                                             "mean": 250}}],
            policies={"agent": "opportunistic", "opportunistic_p": 0.5,
                      "user": "always_claim", "insurer": "always_deny"},
            stack=stack,
        ))
        world, played, stacked = _World(config), [], []
        play, underwrite = sim._play_episode, sim.underwrite_stack

        def recording_play(ledger, *args):
            played.append(ledger)
            return play(ledger, *args)

        def recording_underwrite(ledger, *args, **kwargs):
            stacked.append(ledger)
            return underwrite(ledger, *args, **kwargs)

        monkeypatch.setattr(sim, "_play_episode", recording_play)
        monkeypatch.setattr(sim, "underwrite_stack", recording_underwrite)
        # A fresh memo, so that this world's plans are recorded here.
        monkeypatch.setattr(sim, "_settlement_plan",
                            functools.cache(sim._settlement_plan.__wrapped__))
        records = [world.run_episode(index) for index in range(config.episodes)]
        assert any(r.verifier_invoked for r in records)
        assert world.ledger not in played and world.ledger not in stacked
        assert bool(stacked) == (stack is not None)
        assert world.ledger.claims_filed == sum(r.claim_filed for r in records) > 0

    def test_a_stack_past_the_markers_is_played_not_planned(self):
        # Ten certificates give up to seventeen nonzero amounts, more than the
        # markers cover: the recording refuses such a key before it plays
        # anything, rather than raise, and every episode takes the checked
        # path, as an unplanned world's.
        for path in ALL_PATHS:
            assert sim._settlement_plan(path, (True,) * 10) is not None
            assert sim._settlement_plan(path, (True,) * 7 + (False,) * 10) is not None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_play_episode", None)  # no recording may start
            for path in ALL_PATHS:
                for nonzero in ((True,) * 11, (True,) * 17):
                    assert sim._settlement_plan.__wrapped__(path, nonzero) is None
        config = scenario_from_dict(scenario_doc(
            episodes=30, claim_bond=1, params={**scenario_doc()["params"], "Pi_honest": 200},
            policies={"agent": "opportunistic", "opportunistic_p": 0.5,
                      "user": "always_claim", "insurer": "always_deny"},
            stack={"base_risk": 0.1, "certificates": [
                {"issuer": f"i{j}", "domain": f"d{j}", "discount": 0.1} for j in range(10)
            ]},
        ))
        _, records = run_scenario_with_records(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_settlement_plan", _unplanned)
            _, expected = run_scenario_with_records(config)
        assert records == expected
        assert all(r.verifier_invoked for r in records)

    def test_a_plan_is_refused_on_a_used_policy_id_and_undone_by_a_raising_block(self):
        ep, path = self.PARAMS, ALL_PATHS[7]
        amounts = (ep.L, ep.S_A, ep.P, ep.B, ep.F, ep.R, self.CLAIM_BOND)
        plan = sim._settlement_plan(path, tuple(map(bool, amounts)))
        totals, ledger = plan.totals(amounts), self.funded({})
        wallets = (AccountId(Role.AGENT_WALLET, "a0"), AccountId(Role.INSURER_WALLET, "insurer-0"),
                   AccountId(Role.USER_WALLET, "user-0"))
        ledger.underwrite("ep-0", "a0", "insurer-0", coverage=ep.L, deductible=ep.S_A,
                          premium=ep.P, bond=ep.B, claim_deadline=5, expiry_tick=4, tick=0)
        before = ledger_state(ledger)
        assert ledger.apply_plan(plan, wallets, "ep-0", amounts, 0, totals) is None
        assert ledger_state(ledger) == before
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                assert ledger.apply_plan(plan, wallets, "ep-1", amounts, 5, totals) is not None
                assert len(ledger._log) == len(plan.moves) and ledger.claims_filed == 1
                raise RuntimeError
        assert ledger_state(ledger) == before  # the sink got none of the plan's transfers
        assert ledger.apply_plan(plan, wallets, "ep-1", amounts, 5, totals) is not None
        assert len(ledger.transfers) == len(before[1]) + len(plan.moves)

    @pytest.mark.parametrize("path", ALL_PATHS, ids=lambda path: path.describe())
    def test_a_counted_plan_is_its_count_of_single_plans(self, path):
        ep = self.PARAMS
        amounts = (ep.L, ep.S_A, ep.P, ep.B, ep.F, ep.R, self.CLAIM_BOND)
        plan = sim._settlement_plan(path, tuple(map(bool, amounts)))
        totals = plan.totals(amounts)
        wallets = (AccountId(Role.AGENT_WALLET, "a0"), AccountId(Role.INSURER_WALLET, "insurer-0"),
                   AccountId(Role.USER_WALLET, "user-0"))
        counted, single = self.funded({}, TransferCount()), self.funded({}, TransferCount())
        deltas = counted.apply_plan(plan, wallets, "ep-0", amounts, 0, totals, 3)
        assert deltas == [3 * delta for delta in totals[1][:3]]
        for index in range(3):
            assert single.apply_plan(plan, wallets, f"ep-{index}", amounts, 5 * index,
                                     totals) is not None
        assert counted.balances == single.balances
        assert len(counted.transfers) == len(single.transfers) == 3 * len(plan.moves)
        assert counted.claims_filed == single.claims_filed == 3 * path.claimed

    def test_a_counted_plan_is_refused_whole(self):
        # Each source is checked against count times its gross outflow; a
        # sink that lists transfers, or an atomic block's journal, cannot
        # take a count above 1. Either way nothing changes.
        ep, path = self.PARAMS, ALL_PATHS[7]
        amounts = (ep.L, ep.S_A, ep.P, ep.B, ep.F, ep.R, self.CLAIM_BOND)
        plan = sim._settlement_plan(path, tuple(map(bool, amounts)))
        totals = plan.totals(amounts)
        wallets = (AccountId(Role.AGENT_WALLET, "a0"), AccountId(Role.INSURER_WALLET, "insurer-0"),
                   AccountId(Role.USER_WALLET, "user-0"))
        insurer = 3 * totals[0][1]
        ledger = self.funded({"insurer": insurer - 1}, TransferCount())
        before = ledger_state(ledger)
        assert ledger.apply_plan(plan, wallets, "ep-0", amounts, 0, totals, 3) is None
        assert ledger_state(ledger) == before
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                with pytest.raises(ValueError, match="counting sink"):
                    ledger.apply_plan(plan, wallets, "ep-0", amounts, 0, totals, 2)
                raise RuntimeError
        listing = self.funded({})
        before = ledger_state(listing)
        with pytest.raises(ValueError, match="counting sink"):
            listing.apply_plan(plan, wallets, "ep-0", amounts, 0, totals, 2)
        assert ledger_state(listing) == before
        assert ledger.apply_plan(plan, wallets, "ep-0", amounts, 0, totals, 2) is not None
        assert ledger.claims_filed == 2 and len(ledger.transfers) == 2 * len(plan.moves)

    #: Wallets that hold less than the plan pays out: the agent cannot post
    #: its deductible and premium, the insurer cannot post its stake or pay a
    #: verdict's fee and penalty, the user cannot pay the verifier's fee.
    PARAMS = make_params(P=units(8))
    CLAIM_BOND = units(5)
    PLENTY = units(10_000)
    SHORT = {
        "agent": {"agent": units(8 + 30) - 1},
        "stake": {"insurer": units(100) - 1},
        "fee": {"insurer": units(100 + 20 + 25)},
        "user": {"user": units(5 + 20 + 1)},
    }

    def funded(self, short: dict, transfers=None) -> Ledger:
        ledger = Ledger(transfers=[] if transfers is None else transfers)
        for role, owner in ((Role.AGENT_WALLET, "a0"), (Role.INSURER_WALLET, "insurer-0"),
                            (Role.USER_WALLET, "user-0")):
            key = role.value.split("_")[0]
            ledger.deposit(AccountId(role, owner), short.get(key, self.PLENTY))
        return ledger

    def play_directly(self, ledger: Ledger, path: TerminalPath, index: int,
                      stack: InsurerStack | None = None) -> list[int]:
        """The checked block: underwrite, through `stack` if one is given,
        play the path, retire."""
        ep, tick0 = self.PARAMS, index * 5
        wallets = [AccountId(Role.AGENT_WALLET, "a0"),
                   AccountId(Role.INSURER_WALLET, "insurer-0"),
                   AccountId(Role.USER_WALLET, "user-0")]
        before = [ledger.balance(w) for w in wallets]
        with ledger.atomic():
            if stack is None:
                policy = ledger.underwrite(
                    f"ep-{index}", "a0", "insurer-0", coverage=ep.L, deductible=ep.S_A,
                    premium=ep.P, bond=ep.B, claim_deadline=5, expiry_tick=tick0 + 4,
                    tick=tick0)
            else:
                policy = underwrite_stack(
                    ledger, "a0", stack, policy_id=f"ep-{index}", coverage=ep.L,
                    deductible=ep.S_A, bond=ep.B, premium=ep.P, claim_deadline=5,
                    expiry_tick=tick0 + 4, tick=tick0)
            play_path(ledger, policy, path, "user-0", ep, claim_bond=self.CLAIM_BOND,
                      tick=tick0)
            ledger.retire(policy.id)
        return [ledger.balance(w) - b for w, b in zip(wallets, before)]

    @staticmethod
    def settle(world: _World, path: TerminalPath, index: int,
               amounts: tuple[int, ...]) -> tuple[sim.EpisodeRecord, list[int]]:
        """Settle episode `index` of `world`'s first agent, which plays `path`
        at `amounts`, by its `_Settlement`; return its record and the
        (agent, insurer, user) deltas."""
        state = world.states[0]
        agent, parties = state.agent, state.wallets[:3]
        before = [world.ledger.balance(w) for w in parties]
        record = world._settle(state, world._settlement(agent, path, amounts, True),
                               world.fixed_ep.G, amounts, index)
        return record, [world.ledger.balance(w) - b for w, b in zip(parties, before)]

    @pytest.mark.parametrize("short", sorted(SHORT))
    @pytest.mark.parametrize("path", ALL_PATHS, ids=lambda path: path.describe())
    def test_an_unfunded_plan_falls_back_to_the_checked_path(self, short, path):
        world = _World(make_config(params=self.PARAMS, claim_bond=self.CLAIM_BOND))
        agent, ep, index = world.config.population[0], self.PARAMS, 3
        amounts = (ep.L, ep.S_A, ep.P, ep.B, ep.F, ep.R, self.CLAIM_BOND)
        plan = sim._settlement_plan(path, tuple(map(bool, amounts)))
        assert plan is not None
        world.ledger, direct = self.funded(self.SHORT[short]), self.funded(self.SHORT[short])
        wallets = world.states[0].wallets
        paid = [sum(amounts[k] for k in pays) for pays, _ in plan.flows[:3]]
        unfunded = any(world.ledger.balance(w) < out for w, out in zip(wallets, paid))
        before = ledger_state(world.ledger)
        applied = world.ledger.apply_plan(plan, wallets, f"ep-{index}", amounts, index * 5,
                                          plan.totals(amounts))
        assert (applied is None) == unfunded
        if applied is not None:
            return  # funded in full on this path: the property above covers it
        assert ledger_state(world.ledger) == before
        try:
            expected = self.play_directly(direct, path, index)
        except LedgerError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                self.settle(world, path, index, amounts)
            assert ledger_state(world.ledger) == before == ledger_state(direct)
            return
        record, deltas = self.settle(world, path, index, amounts)
        assert deltas == expected
        assert world.ledger.transfers == direct.transfers
        assert world.ledger.shortfalls == direct.shortfalls
        assert world.ledger.claims_filed == direct.claims_filed
        assert world.ledger.balances == direct.balances
        assert record.claim_filed == path.claimed

    @pytest.mark.parametrize("path", ALL_PATHS, ids=lambda path: path.describe())
    def test_a_stacked_plan_the_master_funds_from_its_premium_falls_back(self, path):
        # The master insurer holds one micro-unit less than all it pays out in
        # the plan, its stake and the layer-1 shares included. `apply_plan`
        # counts no inflow, so it refuses; the checked path pays the master
        # its premium before the master pays the shares, and settles in full.
        # The funding check is conservative, and falling back costs no bytes.
        stack = StackSpec(base_risk=0.1, layer1_cut=0.5, certificates=(
            Certificate("i0", "safety", 0.5), Certificate("i1", "financial", 0.4)))
        world = _World(make_config(params=self.PARAMS, claim_bond=self.CLAIM_BOND,
                                   stack=stack))
        agent, ep, index = world.config.population[0], self.PARAMS, 3
        shares = layer1_shares(world.stack, ep.P)
        amounts = (ep.L, ep.S_A, ep.P, ep.B, ep.F, ep.R, self.CLAIM_BOND, *shares)
        plan = sim._settlement_plan(path, tuple(map(bool, amounts)))
        assert plan is not None and len(plan.flows) == 6 and all(shares)
        master = {"insurer": sum(amounts[k] for k in plan.flows[1][0]) - 1}
        world.ledger, direct = self.funded(master), self.funded(master)
        before = ledger_state(world.ledger)
        wallets = world.states[0].wallets
        assert wallets[3:] == tuple(AccountId(Role.INSURER_WALLET, i) for i in ("i0", "i1"))
        assert world.ledger.apply_plan(plan, wallets, f"ep-{index}", amounts, index * 5,
                                      plan.totals(amounts)) is None
        assert ledger_state(world.ledger) == before
        expected = self.play_directly(direct, path, index, world.stack)
        record, deltas = self.settle(world, path, index, amounts)
        assert deltas == expected
        assert world.ledger.transfers == direct.transfers
        assert world.ledger.shortfalls == direct.shortfalls == []
        assert world.ledger.claims_filed == direct.claims_filed == int(path.claimed)
        assert world.ledger.balances == direct.balances
        assert record.claim_state == (plan.claim_state and plan.claim_state.value)


class TestSettlementTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(doc=scenario_docs())
    @with_stacked_examples
    def test_a_tabled_world_matches_one_that_prices_every_episode(self, doc):
        self.check(doc, contextlib.nullcontext)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=capped_scenario_docs())
    @with_capped_examples
    def test_a_tabled_world_matches_one_that_prices_every_episode_as_wallets_run_dry(self, doc):
        self.check(doc, marked_routes)

    @staticmethod
    def check(doc, routes):
        config = scenario_from_dict(doc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "TransferCount", list)
            tabled, priced = _World(config), _World(config)
        for index in range(config.episodes):
            state = tabled.states[index % len(tabled.states)]
            counts = list(state.counts)
            with routes():
                record = tabled.run_episode(index)
            priced._price_terms()  # an empty table, each agent's terms priced afresh
            assert record == priced.run_episode(index)
            assert tabled.ledger.transfers == priced.ledger.transfers
            assert tabled.ledger.balances == priced.ledger.balances
            # The world's purchase rule is the formula's, at the quote this
            # episode was offered under the pricing it ran at.
            quote = tabled.fixed_ep.P
            if config.pricing == "experience":
                quote = price_premium(RiskPosterior(*counts), config.params.L, config.loading)
            assert record.excluded is (config.enforcement_enabled and not
                                       market.decide_purchase(state.agent, quote, config.params))
        assert [state.agent for state in tabled.states] == list(config.population)

    @pytest.mark.parametrize("premium, excluded", [(4.999999, False), (5, True)])
    def test_a_world_buys_up_to_its_agents_max_quote(self, premium, excluded):
        # Deviation pays a0 nothing, so it buys below Pi_honest = 5 and not at it.
        doc = scenario_doc(episodes=4, params={**scenario_doc()["params"], "P": premium})
        self.check(doc, contextlib.nullcontext)
        _, records = run_scenario_with_records(scenario_from_dict(doc))
        assert [r.excluded for r in records] == [excluded] * 4

    @pytest.mark.parametrize("doc", [
        scenario_doc(episodes=50, population=_TWO_AGENTS),
        # The code certificate expires at episode 8 and the stack is priced again.
        scenario_doc(episodes=30, population=_TWO_AGENTS,
                     params={**scenario_doc()["params"], "Pi_honest": 200},
                     stack={"base_risk": 0.1, "loading": 0.2,
                            "certificates": _TWO_CERTIFICATES}),
        scenario_doc(episodes=40, population=_TWO_AGENTS, pricing="experience", loading=0.2),
    ], ids=["flat", "stack", "experience"])
    def test_a_world_solves_each_agents_max_quote_once(self, doc, monkeypatch):
        solved, priced = [], []
        solve, compose = sim.max_quote, sim.compose_stack
        monkeypatch.setattr(sim, "max_quote", lambda agent, params: (
            solved.append(agent.id) or solve(agent, params)))
        monkeypatch.setattr(sim, "compose_stack", lambda *args, **kwargs: (
            priced.append(kwargs["tick"]) or compose(*args, **kwargs)))
        report = run_scenario(scenario_from_dict(doc))
        assert solved == ["a0", "a1"]
        assert priced == ([0, 40] if "stack" in doc else [])
        if doc.get("pricing") == "experience":
            assert report.excluded > 0  # some quotes exceed an agent's max_quote

    def test_an_experience_priced_world_records_each_settlement_once(self, monkeypatch):
        # Each agent's path records its plan and its record fields once per
        # pricing; every other episode on that path reads them off the table.
        recorded, outcomes = [], []
        plan, outcome = sim._settlement_plan, _World._record_outcome
        monkeypatch.setattr(sim, "_settlement_plan",
                            lambda *args: recorded.append(args) or plan(*args))
        monkeypatch.setattr(_World, "_record_outcome", lambda world, record, agent, path, *rest: (
            outcomes.append((agent.id, path)) or outcome(world, record, agent, path, *rest)))
        config = TestEpisodeHotPath.experience_priced({
            "agent": "opportunistic", "opportunistic_p": 0.5,
            "user": "always_claim", "insurer": "always_deny"})
        world = _World(config)
        records = [world.run_episode(index) for index in range(config.episodes)]
        assert not any(r.aborted or r.excluded for r in records)
        table = [(state.agent.id, settlement.path) for state in world.states
                 for settlement in state.settlements.values()]
        played = {(r.agent_id, r.action, r.claim_state) for r in records}
        assert len(table) == len(played) == 4  # each agent honest and malicious
        assert sorted(outcomes, key=str) == sorted(table, key=str)
        assert [path for path, _ in recorded] == [path for _, path in outcomes]

    def test_counts_fold_each_insured_episodes_observation(self):
        # The insurer observes a misbehavior it settles or the verifier
        # upholds, and any misbehavior of an agent that grants audit access.
        config = TestEpisodeHotPath.experience_priced({"agent": "opportunistic",
                                                       "opportunistic_p": 0.5})
        world = _World(config)
        audited = {a.id: a.audit_access_granted for a in config.population}
        expected = {a.id: RiskPosterior() for a in config.population}
        for index in range(config.episodes):
            r = world.run_episode(index)
            if not (r.excluded or r.aborted):
                caught = r.claim_state in ("accepted", "upheld_valid")
                expected[r.agent_id] = update_posterior(
                    expected[r.agent_id], r.misbehaved and (caught or audited[r.agent_id]))
        assert {s.agent.id: RiskPosterior(*s.counts) for s in world.states} == expected
        assert all(p.alpha > 1 and p.beta > 1 for p in expected.values())

    @pytest.mark.parametrize("policies", [
        {"agent": "opportunistic", "opportunistic_p": 0.5},
        {"agent": "always_malicious", "user": "always_claim", "insurer": "always_deny"},
    ], ids=["honest", "disputed"])
    def test_a_counting_world_builds_no_planned_transfer(self, policies):
        def refuse(view):
            raise AssertionError("a counting sink iterated a planned settlement")

        config = scenario_from_dict(scenario_doc(
            episodes=60, claim_bond=1, policies=policies,
            params={**scenario_doc()["params"], "Pi_honest": 200},
        ))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PlannedTransfers, "__iter__", refuse)
            counting = _World(config)
            records = [counting.run_episode(index) for index in range(config.episodes)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "TransferCount", list)
            listing = _World(config)
        assert [listing.run_episode(index) for index in range(config.episodes)] == records
        assert not any(r.aborted or r.excluded for r in records)
        assert len(counting.ledger.transfers) == len(listing.ledger.transfers) >= 5 * 60


class TestCountedPeriods:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(doc=scenario_docs())
    @with_stacked_examples
    # Counted worlds whose every episode is disputed, or misbehaves when
    # tempted and is caught, through a stack that is priced again.
    @example(doc=scenario_doc(episodes=30, claim_bond=1, policies={
        "agent": "always_malicious", "user": "always_claim", "insurer": "always_deny"}))
    @example(doc=scenario_doc(
        episodes=30, params={**scenario_doc()["params"], "Pi_honest": 100},
        population=[{"id": "a0", "gain": {"kind": "fixed", "mean": 250}},
                    {"id": "a1", "theta": 0.4, "gain": {"kind": "fixed", "mean": 250}}],
        policies={"agent": "opportunistic", "opportunistic_p": 0.5, "user": "always_claim"},
        stack={"base_risk": 0.1, "loading": 0.2, "certificates": _TWO_CERTIFICATES}))
    def test_a_counted_world_matches_one_flushed_after_every_episode(self, doc):
        self.mark(self.check(doc))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=capped_scenario_docs())
    @with_capped_examples
    def test_a_counted_world_matches_one_flushed_after_every_episode_as_wallets_run_dry(
            self, doc):
        self.mark(self.check(doc))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(doc=countable_scenario_docs())
    def test_a_countable_world_matches_one_flushed_after_every_episode(self, doc):
        self.mark(self.check(doc))

    @staticmethod
    def mark(periods: list[tuple[int, int, bool]]) -> None:
        event("counted period" if any(proven for *_, proven in periods)
              else "flushed per episode")

    @staticmethod
    def check(doc) -> list[tuple[int, int, bool]]:
        """Run `doc` as `run_scenario_with_records` does, and as a world that
        settles every episode on its own (`run_episode`, a flush of one
        episode); both must give the same bytes, records and books. Returns
        each period the counted run tried to prove, as (start, stop, proven)."""
        config = scenario_from_dict(doc)
        periods, prove = [], _World._proven
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_World, "_proven", lambda world, start, stop: (
                periods.append((start, stop, prove(world, start, stop))) or periods[-1][2]))
            report, records = run_scenario_with_records(config)
            counted = _World(config)
            assert counted.run() == records
        flushed = _World(config)
        assert [flushed.run_episode(index) for index in range(config.episodes)] == records
        assert sim._aggregate(config, records).to_json() == report.to_json()
        assert counted.ledger.balances == flushed.ledger.balances
        assert len(counted.ledger.transfers) == len(flushed.ledger.transfers)
        assert counted.ledger.claims_filed == flushed.ledger.claims_filed
        assert [s.counts for s in counted.states] == [s.counts for s in flushed.states]
        counted.ledger.check_invariants()
        flushed.ledger.check_invariants()
        return periods[len(periods) // 2:]  # the second run's, `counted`

    def test_a_stack_that_expires_mid_run_flushes_and_counts_again(self, monkeypatch):
        # The code certificate expires at tick 40: episodes 0-7 are one
        # period and 8-29 the next, and each is counted. The first period's
        # tallies are applied before the stack is priced again.
        doc = scenario_doc(episodes=30, population=_TWO_AGENTS,
                           params={**scenario_doc()["params"], "Pi_honest": 200},
                           stack={"base_risk": 0.1, "loading": 0.2,
                                  "certificates": _TWO_CERTIFICATES})
        assert self.check(doc) == [(0, 8, True), (8, 30, True)]
        events, apply, compose = [], Ledger.apply_plan, sim.compose_stack
        monkeypatch.setattr(Ledger, "apply_plan", lambda ledger, *args: (
            events.append(args[6]) or apply(ledger, *args)))
        monkeypatch.setattr(sim, "compose_stack", lambda *args, **kwargs: (
            events.append(f"tick {kwargs['tick']}") or compose(*args, **kwargs)))
        _, records = run_scenario_with_records(scenario_from_dict(doc))
        assert not any(r.excluded or r.aborted for r in records)
        split = events.index("tick 40")
        assert events[0] == "tick 0" and sum(events[1:split]) == 8
        assert sum(events[split + 1:]) == 22 and len(events) <= 2 + 2 * 4

    @pytest.mark.parametrize("short", [0, 1], ids=["funded", "one unit short"])
    def test_a_world_funded_short_of_the_proof_settles_every_episode(self, short,
                                                                      monkeypatch):
        # One agent, so every episode touches every wallet: each must hold the
        # episodes times the most any plan at these amounts asks of it.
        doc = scenario_doc(episodes=40, policies={"agent": "opportunistic",
                                                  "opportunistic_p": 0.5})
        config = scenario_from_dict(doc)
        world = _World(config)
        nonzero = tuple(map(bool, world.amounts))
        plans = [sim._settlement_plan(path, nonzero) for path in ALL_PATHS]
        asks = [max(plan.totals(world.amounts)[0][slot] for plan in plans) for slot in range(3)]
        need = config.episodes * max(asks)
        monkeypatch.setattr(sim, "_funding", lambda config: need - short)
        counts, apply = [], Ledger.apply_plan
        monkeypatch.setattr(Ledger, "apply_plan", lambda ledger, *args: (
            counts.append(args[6]) or apply(ledger, *args)))
        assert self.check(doc) == [(0, 40, not short)]
        assert (max(counts) > 1) == (not short)
        assert not any(r.aborted for r in run_scenario_with_records(config)[1])

    def test_a_settlement_with_no_plan_stops_the_count_for_its_period(self, monkeypatch):
        # Ten live certificates give more nonzero amounts than a plan has
        # markers for: the first period stops counting at its first insured
        # episode, which takes the checked path with every one after it.
        # Eight certificates expire at tick 100, and the rest is counted.
        doc = scenario_doc(episodes=30, params={**scenario_doc()["params"], "Pi_honest": 200},
                           stack={"base_risk": 0.1, "certificates": _MANY_CERTIFICATES})
        counts, apply = [], Ledger.apply_plan
        monkeypatch.setattr(Ledger, "apply_plan", lambda ledger, *args: (
            counts.append(args[6]) or apply(ledger, *args)))
        assert self.check(doc) == [(0, 20, True), (20, 30, True)]
        _, records = run_scenario_with_records(scenario_from_dict(doc))
        assert not any(r.excluded or r.aborted for r in records)
        assert counts[-1] == 10  # one agent, one settlement: the second period's

    def test_a_checked_episode_sees_every_tally_applied(self, monkeypatch):
        # Misbehavior is left unplanned: the honest episodes counted before
        # the first malicious one reach the books before it is played.
        doc = scenario_doc(episodes=40, params={**scenario_doc()["params"], "Pi_honest": 100},
                           population=[{"id": "a0", "gain": {"kind": "fixed", "mean": 250}}],
                           policies={"agent": "opportunistic", "opportunistic_p": 0.5})
        plan = sim._settlement_plan
        monkeypatch.setattr(sim, "_settlement_plan", lambda path, nonzero: (
            None if path.agent is AgentAction.MALICIOUS else plan(path, nonzero)))
        assert self.check(doc) == [(0, 40, True)]
        worlds, events = [], []
        run, play, apply = _World.run, sim._play_episode, Ledger.apply_plan

        def checked(ledger, *args):
            world = worlds[-1]
            if ledger is world.ledger:
                events.append((world._counted_from, [dict(s.tally) for s in world.states]))
            return play(ledger, *args)

        monkeypatch.setattr(_World, "run", lambda world: worlds.append(world) or run(world))
        monkeypatch.setattr(sim, "_play_episode", checked)
        monkeypatch.setattr(Ledger, "apply_plan", lambda ledger, *args: (
            events.append(args[6]) or apply(ledger, *args)))
        _, records = run_scenario_with_records(scenario_from_dict(doc))
        # One call applies the honest tally, then the first malicious episode
        # is played; every later episode settles on its own.
        malicious = next(r.index for r in records if r.misbehaved)
        assert malicious > 1 and events[0] == malicious and isinstance(events[1], tuple)
        played = [e for e in events if isinstance(e, tuple)]
        assert played == [(None, [{}])] * sum(r.misbehaved for r in records)
        assert events[1:].count(1) == len(records) - malicious - len(played)

    def test_a_rational_insurer_without_audit_access_is_never_counted(self, monkeypatch):
        # Its response reads the posterior, which each episode moves.
        doc = scenario_doc(episodes=40, population=[
            {"id": "a0", "theta": 0.1}, {"id": "a1", "theta": 0.4, "audit_access": False}],
            policies={"agent": "opportunistic", "opportunistic_p": 0.5})
        counts, apply = [], Ledger.apply_plan
        monkeypatch.setattr(Ledger, "apply_plan", lambda ledger, *args: (
            counts.append(args[6]) or apply(ledger, *args)))
        assert self.check(doc) == [(0, 40, False)]
        assert counts and set(counts) == {1}

    def test_a_counted_baseline_applies_one_tally_per_agent_and_settlement(
            self, monkeypatch):
        def refuse(view):
            raise AssertionError("a counted settlement iterated a planned transfer")

        calls, apply = [], Ledger.apply_plan
        monkeypatch.setattr(Ledger, "apply_plan", lambda ledger, *args: (
            calls.append(args) or apply(ledger, *args)))
        monkeypatch.setattr(PlannedTransfers, "__iter__", refuse)
        config = scenario_from_dict({**json.loads(BASELINE.read_text()), "episodes": 2000})
        _, records = run_scenario_with_records(config)
        insured = [r for r in records if not r.excluded]
        settlements = {(r.agent_id, r.action, r.claim_state) for r in insured}
        assert len(insured) == 2000 and not any(r.aborted for r in records)
        assert 0 < len(calls) <= len(settlements)
        assert sum(args[6] for args in calls) == len(insured)

    @pytest.mark.parametrize("doc", [
        {**json.loads(BASELINE.read_text()), "episodes": 2000},
        scenario_doc(episodes=30, population=_TWO_AGENTS,
                     params={**scenario_doc()["params"], "Pi_honest": 200},
                     stack={"base_risk": 0.1, "loading": 0.2, "certificates": _TWO_CERTIFICATES}),
    ], ids=["baseline", "stack priced twice"])
    def test_a_counted_run_builds_each_settlement_once_per_pricing(self, doc, monkeypatch):
        # The loop looks a counted episode's settlement up by its action: no
        # episode builds one that its agent already has at the same amounts.
        built, build = [], _World._settlement
        monkeypatch.setattr(_World, "_settlement", lambda world, agent, path, amounts, *args: (
            built.append((agent.id, path.agent, amounts))
            or build(world, agent, path, amounts, *args)))
        counts, apply = [], Ledger.apply_plan
        monkeypatch.setattr(Ledger, "apply_plan", lambda ledger, *args: (
            counts.append(args[6]) or apply(ledger, *args)))
        _, records = run_scenario_with_records(scenario_from_dict(doc))
        assert max(counts) > 1  # counted
        assert not any(r.aborted for r in records)
        assert 0 < len(built) == len(set(built))

    def test_an_experience_priced_world_applies_each_insured_episode(self, monkeypatch):
        calls, apply = [], Ledger.apply_plan
        monkeypatch.setattr(Ledger, "apply_plan", lambda ledger, *args: (
            calls.append(args) or apply(ledger, *args)))
        config = TestEpisodeHotPath.experience_priced({"agent": "opportunistic",
                                                       "opportunistic_p": 0.5})
        _, records = run_scenario_with_records(config)
        insured = sum(not (r.excluded or r.aborted) for r in records)
        assert insured > 0 and len(calls) == insured
        assert {args[6] for args in calls} == {1}


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
        run_scenario(config)  # records its settlement plans, whose params are its own
        validated = self.count_validations(monkeypatch)
        report, _ = run_scenario_with_records(config)
        assert report.completed == 200
        assert validated == []

    @staticmethod
    def experience_priced(policies: dict) -> ScenarioConfig:
        gain = {"kind": "geometric", "mean": 250}
        return scenario_from_dict(scenario_doc(
            episodes=200, pricing="experience", loading=0.2,
            params={**scenario_doc()["params"], "Pi_honest": 200},
            population=[{"id": "a0", "theta": 0.1, "gain": gain},
                        {"id": "a1", "theta": 0.4, "gain": gain, "audit_access": False}],
            policies=policies,
        ))

    def test_game_free_experience_priced_episodes_are_not_validated(self, monkeypatch):
        # No game is solved, so no episode builds params: its drawn gain and
        # its quoted premium stay ints.
        config = self.experience_priced({"agent": "opportunistic", "opportunistic_p": 0.5,
                                         "user": "always_claim", "insurer": "always_deny"})
        run_scenario(config)  # records its settlement plans, whose params are its own
        validated = self.count_validations(monkeypatch)
        report, _ = run_scenario_with_records(config)
        assert report.completed == 200 and report.verifier_invocations > 0
        assert validated == []

    def test_rational_experience_priced_episodes_are_validated_once_each(self, monkeypatch):
        # An insured episode's params key its solved game; an excluded one
        # solves none.
        config = self.experience_priced({"agent": "rational_spe", "user": "always_claim",
                                         "insurer": "always_deny"})
        run_scenario(config)
        validated = self.count_validations(monkeypatch)
        report, _ = run_scenario_with_records(config)
        assert report.completed + report.excluded == 200 and report.completed > 0
        assert len(validated) == report.completed
        assert all((ep.G, ep.P) != (config.params.G, config.params.P) for ep in validated)


#: A world under each pricing whose episode params `_episode_params` builds.
_PRICED_WORLDS = {
    "flat": _World(make_config()),
    "experience": _World(make_config(pricing="experience", loading=0.2)),
    "stack": _World(make_config(stack=StackSpec(
        base_risk=0.1, loading=0.2,
        certificates=(Certificate("i0", "safety", 0.5), Certificate("i1", "financial", 0.4)),
    ))),
}


class TestEpisodeParams:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pricing=st.sampled_from(sorted(_PRICED_WORLDS)),
           gain=st.integers(0, MAX_AMOUNT), premium=st.integers(0, MAX_AMOUNT))
    def test_the_constructor_builds_what_a_field_replace_builds(self, pricing, gain,
                                                                premium):
        world = _PRICED_WORLDS[pricing]
        expected = replace(world.config.params, G=gain, P=premium)
        assert world._episode_params(gain, premium) == expected
        fixed = world.fixed_ep
        assert world._episode_params(fixed.G, fixed.P) is fixed
        assert fixed == replace(world.config.params, G=fixed.G, P=fixed.P)

    @pytest.mark.parametrize("pricing", sorted(_PRICED_WORLDS))
    @pytest.mark.parametrize("gain, premium", [
        (-1, 0), (MAX_AMOUNT + 1, 0), (0.5, 0), (0, -1), (0, MAX_AMOUNT + 1), (0, "1"),
    ])
    def test_an_out_of_range_value_raises_as_a_field_replace_does(self, pricing, gain,
                                                                  premium):
        world = _PRICED_WORLDS[pricing]
        with pytest.raises(MoneyError) as expected:
            replace(world.config.params, G=gain, P=premium)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            world._episode_params(gain, premium)


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
            ep, state = world.config.params, world.states[0]
            for profile, posterior in itertools.product(_ALL_PROFILES, posteriors):
                state.counts = [posterior.alpha, posterior.beta]
                action = fixed_actions.get(agent_policy, profile.agent)
                expected = reference_episode_path(profile, policy, agent, action, posterior)
                # None for the RNG: none of these agent policies draws.
                malicious = world._malicious(profile, ep.G, None)
                assert world._episode_path(profile, state, malicious) == expected, (
                    profile, policy, audit, posterior,
                )

    @pytest.mark.parametrize("alpha, beta, valid", [
        (7, 7, True), (8, 7, True), (7, 8, False),
        (2**52 - 1, 2**52 - 1, True), (2**52 - 1, 2**52 - 2, True), (2**52 - 2, 2**52 - 1, False),
    ])
    def test_without_audit_access_a_claim_is_valid_where_alpha_is_at_least_beta(
            self, alpha, beta, valid):
        # The posterior mean alpha / (alpha + beta) is at least 1/2 exactly
        # where alpha >= beta; the insurer answers an honest agent's claim as
        # a valid one there, and accepts it.
        agent = AgentProfile(id="a0", audit_access_granted=False)
        world = _World(make_config(episodes=1, population=(agent,)))
        state = world.states[0]
        state.counts = [alpha, beta]
        profile = next(p for p in _ALL_PROFILES if p.claims_when_unharmed
                       and p.respond_valid is InsurerResponse.ACCEPT
                       and p.respond_invalid is InsurerResponse.DENY)
        path = world._episode_path(profile, state, False)
        assert path.claimed and (path.response is InsurerResponse.ACCEPT) is valid
        assert (alpha / (alpha + beta) >= 0.5) is valid

    @given(alpha=st.integers(1, 2**52 - 1), beta=st.integers(1, 2**52 - 1))
    def test_the_count_comparison_is_the_posterior_mean_threshold(self, alpha, beta):
        assert (alpha >= beta) is (alpha / (alpha + beta) >= 0.5)


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
            counts = world.states[index % len(world.states)].counts
            quote = price_premium(RiskPosterior(*counts), config.params.L, 0.2)
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

    def test_conservation_is_checked_under_python_o(self):
        # An `assert` statement would vanish under -O; the check must not.
        script = (
            "import itertools, sys\n"
            "from insured_agents import sim\n"
            "from insured_agents.ledger import Ledger\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('not optimized')\n"
            "drift = itertools.count()\n"
            "Ledger.total_supply = lambda self: next(drift)\n"
            f"sim.run_scenario(sim.load_scenario({str(BASELINE)!r}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == (
            "AssertionError: ledger conservation violated in scenario"
        )


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

    @pytest.mark.parametrize("policy", [
        BehaviorPolicy(),
        BehaviorPolicy(agent=AgentPolicy.ALWAYS_MALICIOUS, insurer=InsurerPolicy.ALWAYS_DENY),
    ], ids=["honest", "dispute"])
    def test_a_checked_episode_refused_at_its_retire_leaves_the_ledger_unchanged(
            self, policy, monkeypatch):
        # The checked episode is one block, so a refusal at its last step
        # undoes the underwrite and the path played before it.
        def refuse(ledger, policy_id):
            raise WrongState(f"policy {policy_id} refused")

        monkeypatch.setattr(sim, "_settlement_plan", _unplanned)
        monkeypatch.setattr(Ledger, "retire", refuse)
        world = _World(make_config(policy=policy, claim_bond=units(1)))
        before = ledger_state(world.ledger)
        assert world.run_episode(0).aborted
        assert ledger_state(world.ledger) == before
