import sys
from dataclasses import replace

import pytest

from insured_agents import (
    ALL_PATHS,
    AgentAction,
    AgentProfile,
    GainModel,
    MechanismParams,
    TerminalPath,
    leaf_payoffs,
    replay_game_path,
    run_scenario,
    run_scenario_with_records,
    sweep,
    units,
)
from insured_agents.game import InsurerResponse
from insured_agents.sim import (
    AgentPolicy,
    BehaviorPolicy,
    InsurerPolicy,
    ScenarioConfig,
    ScenarioError,
    UserPolicy,
    _solved_profile,
    scenario_from_dict,
)


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

    def test_bad_policy_name(self):
        with pytest.raises(ScenarioError, match="policies"):
            scenario_from_dict(scenario_doc(policies={"agent": "chaotic"}))

    @pytest.mark.parametrize("field, value, path", [
        ("episodes", "ten", "episodes"),
        ("seed", "x", "seed"),
        ("seed", float("inf"), "seed"),
        ("loading", "high", "loading"),
        ("loading", -5, "loading"),
        ("loading", float("nan"), "loading"),
        ("enforcement_enabled", "false", "enforcement_enabled"),
        ("enforcement_enabled", 0, "enforcement_enabled"),
    ])
    def test_bad_top_level_field_has_its_path(self, field, value, path):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(scenario_doc(**{field: value}))
        assert err.value.path == path

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
