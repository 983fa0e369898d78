
import numpy as np
import pytest

from insured_agents import (
    ALL_PATHS,
    AgentAction,
    COMPLIANT_PROFILE,
    EscalationChoice,
    InsurerResponse,
    MechanismParams,
    TerminalPath,
    build_game,
    brute_force_spe,
    leaf_payoffs,
    predict_honest_equilibrium,
    scale_params,
    solve_spe,
)
from insured_agents.game import GameTree, _leaf_table, is_subgame_perfect

from conftest import random_params, equilibrium_params


def make(**overrides) -> MechanismParams:
    base = dict(
        L=100, G=40, S_A=30, S_I=150, B=20, F=50, R=10, V_future=20,
        P=8, Pi_honest=5,
    )
    base.update(overrides)
    return MechanismParams(**base)


M_ESC = TerminalPath(AgentAction.MALICIOUS, True, InsurerResponse.DENY, True)
M_ACC = TerminalPath(AgentAction.MALICIOUS, True, InsurerResponse.ACCEPT)
H_ESC = TerminalPath(AgentAction.HONEST, True, InsurerResponse.DENY, True)


class TestLeafPayoffs:
    def test_escalated_valid_user_payoff(self):
        # winner compensation L plus forfeited bond B minus fee F
        assert leaf_payoffs(make(), M_ESC).pi_U == 100 + 20 - 50

    def test_accepted_valid_insurer_payoff(self):
        assert leaf_payoffs(make(), M_ACC).pi_I == -100 + 30

    def test_caught_malicious_agent_payoff(self):
        expected = 40 - 30 - 20
        for path in (M_ESC, M_ACC):
            assert leaf_payoffs(make(), path).pi_A == expected

    def test_escalated_invalid_user_payoff(self):
        assert leaf_payoffs(make(), H_ESC).pi_U == -20 - 50

    def test_denying_insurer_on_escalated_valid(self):
        assert leaf_payoffs(make(), M_ESC).pi_I == -100 - 20 - 50 - 10

    def test_verifier_invoked_only_on_escalation(self):
        for path in ALL_PATHS:
            invoked = path.claimed and path.escalated is True
            assert leaf_payoffs(make(), path).verifier_invoked == invoked

    def test_formula_fidelity_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_params(rng)
            assert leaf_payoffs(p, M_ESC).pi_U == p.L + p.B - p.F
            assert leaf_payoffs(p, M_ACC).pi_I == -p.L + p.S_A
            assert leaf_payoffs(p, M_ESC).pi_A == p.G - p.S_A - p.V_future
            assert leaf_payoffs(p, H_ESC).pi_U == -p.B - p.F


class TestBuildGame:
    def test_fixed_leaf_count(self):
        assert len(build_game(make()).leaves) == len(ALL_PATHS) == 8

    def test_deterministic(self):
        assert build_game(make()).leaves == build_game(make()).leaves

    def test_reputation_cost_touches_one_leaf(self):
        a = build_game(make()).leaves
        b = build_game(make(R=99)).leaves
        differing = [path for path in ALL_PATHS if a[path] != b[path]]
        assert differing == [M_ESC]
        assert a[M_ESC].pi_I != b[M_ESC].pi_I

    def test_leaf_table_slots(self):
        # The solver and the oracle read these slots by position.
        tree = build_game(make())
        for agent, subtree in zip(
            (AgentAction.HONEST, AgentAction.MALICIOUS), _leaf_table(tree)
        ):
            paths = (
                TerminalPath(agent, False),
                TerminalPath(agent, True, InsurerResponse.ACCEPT),
                TerminalPath(agent, True, InsurerResponse.DENY, False),
                TerminalPath(agent, True, InsurerResponse.DENY, True),
            )
            assert len(subtree) == len(paths)
            for slot, path in zip(subtree, paths):
                assert slot is tree.leaves[path]

    def test_leaves_out_of_order_rejected(self):
        leaves = build_game(make()).leaves
        with pytest.raises(ValueError):
            GameTree(make(), dict(reversed(leaves.items())))

    def test_invalid_path_shapes_rejected(self):
        with pytest.raises(ValueError):
            TerminalPath(AgentAction.HONEST, False, InsurerResponse.DENY)
        with pytest.raises(ValueError):
            TerminalPath(AgentAction.HONEST, True)
        with pytest.raises(ValueError):
            TerminalPath(AgentAction.HONEST, True, InsurerResponse.ACCEPT, True)


class TestSolveSpe:
    def test_worked_example_is_compliant(self):
        profile, payoffs = solve_spe(build_game(make()))
        assert profile == COMPLIANT_PROFILE
        assert profile.outcome_path() == TerminalPath(AgentAction.HONEST, False)
        assert not payoffs.verifier_invoked

    def test_deterrence_violation_flips_agent(self):
        profile, _ = solve_spe(build_game(make(G=200)))
        assert profile.agent is AgentAction.MALICIOUS

    def test_justice_violation_drops_valid_denials(self):
        profile, _ = solve_spe(build_game(make(F=1000, G=200)))
        assert profile.escalate_valid is EscalationChoice.DROP
        assert profile.agent is AgentAction.MALICIOUS

    def test_solver_profile_always_subgame_perfect(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            tree = build_game(random_params(rng))
            profile, _ = solve_spe(tree)
            assert is_subgame_perfect(tree, profile)

    def test_solver_in_brute_force_set(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            tree = build_game(random_params(rng))
            profile, _ = solve_spe(tree)
            assert profile in brute_force_spe(tree)

    def test_scale_invariance_of_chosen_actions(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_params(rng)
            base, _ = solve_spe(build_game(p))
            scaled, _ = solve_spe(build_game(scale_params(p, 7)))
            assert base == scaled


class TestBruteForce:
    def test_compliant_profile_in_set_on_worked_example(self):
        assert COMPLIANT_PROFILE in brute_force_spe(build_game(make()))

    def test_tie_admits_both_stage4_actions(self):
        # B = F = 0 makes the invalid-claim escalation decision a tie.
        profiles = brute_force_spe(build_game(make(B=0, F=0)))
        choices = {p.escalate_invalid for p in profiles}
        assert choices == {EscalationChoice.ESCALATE, EscalationChoice.DROP}

    def test_deterministic_ordering(self):
        tree = build_game(make())
        assert brute_force_spe(tree) == brute_force_spe(tree)


class TestStageProperties:
    def test_stage4_escalates_valid_iff_justice_algebra(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            p = random_params(rng)
            profile, _ = solve_spe(build_game(p))
            should = p.L + p.B - p.F > -p.L
            assert (profile.escalate_valid is EscalationChoice.ESCALATE) == should

    def test_stage4_never_escalates_invalid_with_positive_costs(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            p = random_params(rng)
            profile, _ = solve_spe(build_game(p))
            if p.B + p.F > 0:
                assert profile.escalate_invalid is EscalationChoice.DROP

    def test_stage3_accepts_valid_when_escalation_threat_real(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            p = random_params(rng)
            profile, _ = solve_spe(build_game(p))
            escalates = profile.escalate_valid is EscalationChoice.ESCALATE
            if escalates and p.S_A + p.B + p.F + p.R > 0:
                assert profile.respond_valid is InsurerResponse.ACCEPT


class TestPredictHonestEquilibrium:
    def test_worked_example(self):
        assert predict_honest_equilibrium(make())

    def test_deterrence_violation(self):
        assert not predict_honest_equilibrium(make(G=200))

    def test_boundary_is_strict(self):
        # Pi_honest exactly equal to G - S_A - V_future fails.
        p = make(G=100, S_A=30, V_future=20, Pi_honest=50)
        assert not predict_honest_equilibrium(p)

    def test_no_honest_prediction_without_harm(self):
        # At L=0 a harmed user gains nothing by claiming, so deterrence never
        # binds and the solver picks deviation whenever G > Pi_honest.
        p = make(L=0, G=10, S_A=30, S_I=0, B=5, F=1, R=0, V_future=20,
                 P=0, Pi_honest=1)
        profile, _ = solve_spe(build_game(p))
        assert profile.agent is AgentAction.MALICIOUS
        assert not predict_honest_equilibrium(p)

    def test_matches_solver_on_equilibrium_draws(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            p = equilibrium_params(rng)
            assert predict_honest_equilibrium(p)
            profile, payoffs = solve_spe(build_game(p))
            assert profile.agent is AgentAction.HONEST
            assert not payoffs.verifier_invoked
