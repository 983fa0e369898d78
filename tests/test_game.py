
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from insured_agents import (
    ALL_PATHS,
    AgentAction,
    COMPLIANT_PROFILE,
    EscalationChoice,
    InsurerResponse,
    LeafPayoffs,
    MechanismParams,
    TerminalPath,
    build_game,
    brute_force_spe,
    leaf_payoffs,
    predict_honest_equilibrium,
    scale_params,
    solve_spe,
)
from insured_agents.game import (
    _ALL_PROFILES,
    _POSITION,
    _TRIPLES,
    StrategyProfile,
    _leaf_table,
    _subgame_choices,
    is_subgame_perfect,
)
from insured_agents.money import MAX_AMOUNT

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
        differing = [path for path, x, y in zip(ALL_PATHS, a, b) if x != y]
        assert differing == [M_ESC]
        m_esc = ALL_PATHS.index(M_ESC)
        assert a[m_esc].pi_I != b[m_esc].pi_I

    def test_leaf_table_slots(self):
        # The solver and the oracle read these slots by position.
        params = make()
        tree = build_game(params)
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
                assert slot == leaf_payoffs(params, path)

    @given(
        money=st.lists(st.integers(0, MAX_AMOUNT), min_size=9, max_size=9),
        pi_honest=st.integers(-MAX_AMOUNT, MAX_AMOUNT),
    )
    def test_leaves_match_the_paper_formulas(self, money, pi_honest):
        p = MechanismParams(*money, Pi_honest=pi_honest)
        # (pi_A, pi_I, pi_U, verifier_invoked) at each terminal path.
        formulas = {
            "H/NoClaim": (p.Pi_honest, p.P, 0, False),
            "H/Claim/Accept": (p.Pi_honest, -p.L + p.P, p.L, False),
            "H/Claim/Deny/Drop": (p.Pi_honest, p.P, 0, False),
            "H/Claim/Deny/Escalate": (p.Pi_honest, p.P + p.B - p.F, -p.B - p.F, True),
            "M/NoClaim": (p.G, p.P, -p.L, False),
            "M/Claim/Accept": (p.G - p.S_A - p.V_future, -p.L + p.S_A, 0, False),
            "M/Claim/Deny/Drop": (p.G, p.P, -p.L, False),
            "M/Claim/Deny/Escalate": (
                p.G - p.S_A - p.V_future, -p.L - p.B - p.F - p.R, p.L + p.B - p.F, True,
            ),
        }
        leaves = build_game(p).leaves
        assert [path.describe() for path in ALL_PATHS] == list(formulas)
        assert len(leaves) == len(formulas)
        for path, leaf in zip(ALL_PATHS, leaves):
            assert type(leaf) is LeafPayoffs
            expected = formulas[path.describe()]
            for field, value in zip(LeafPayoffs._fields, expected, strict=True):
                assert getattr(leaf, field) == value, (path.describe(), field)
            assert type(leaf.verifier_invoked) is bool

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

    # Small amounts make ties, and ties are where the tie-breaks decide.
    @given(
        money=st.lists(st.integers(0, 4), min_size=9, max_size=9),
        pi_honest=st.integers(-4, 4),
    )
    def test_matches_backward_induction_reference(self, money, pi_honest):
        params = MechanismParams(*money, Pi_honest=pi_honest)
        profile, payoffs = solve_spe(build_game(params))
        assert profile == reference_backward_induction(params)
        assert payoffs == leaf_payoffs(params, profile.outcome_path())
        assert profile is _ALL_PROFILES[_ALL_PROFILES.index(profile)]

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

    # Small amounts make ties, and ties make large SPE sets to order.
    @given(
        money=st.lists(st.integers(0, 4), min_size=9, max_size=9),
        pi_honest=st.integers(-4, 4),
    )
    def test_profiles_come_sorted_by_their_decisions(self, money, pi_honest):
        def key(p):
            return (
                p.agent.value, p.claims_when_harmed, p.claims_when_unharmed,
                p.respond_valid.value, p.respond_invalid.value,
                p.escalate_valid.value, p.escalate_invalid.value,
            )

        found = brute_force_spe(build_game(MechanismParams(*money, Pi_honest=pi_honest)))
        assert list(found) == sorted(found, key=key)

    @given(
        money=st.lists(st.integers(0, 4), min_size=9, max_size=9),
        pi_honest=st.integers(-4, 4),
    )
    def test_matches_node_by_node_reference(self, money, pi_honest):
        params = MechanismParams(*money, Pi_honest=pi_honest)
        tree = build_game(params)
        found = brute_force_spe(tree)
        assert found == tuple(
            p for p in _ALL_PROFILES if reference_subgame_perfect(params, p)
        )
        for profile in _ALL_PROFILES:
            assert is_subgame_perfect(tree, profile) == (profile in found)


def reference_outcome(profile) -> TerminalPath:
    """The path a profile reaches, worked out node by node."""
    malicious = profile.agent is AgentAction.MALICIOUS
    claimed = profile.claims_when_harmed if malicious else profile.claims_when_unharmed
    if not claimed:
        return TerminalPath(profile.agent, False)
    response = profile.respond_valid if malicious else profile.respond_invalid
    if response is InsurerResponse.ACCEPT:
        return TerminalPath(profile.agent, True, response)
    escalation = profile.escalate_valid if malicious else profile.escalate_invalid
    return TerminalPath(
        profile.agent, True, response, escalation is EscalationChoice.ESCALATE
    )


HONEST, MALICIOUS = AgentAction.HONEST, AgentAction.MALICIOUS
ACCEPT, DENY = InsurerResponse.ACCEPT, InsurerResponse.DENY
DROP, ESCALATE = EscalationChoice.DROP, EscalationChoice.ESCALATE

# Each decision node: the profile field it sets, the payoff its mover
# maximizes, and the upstream choices that reach it.
NODES = (
    ("agent", "pi_A", {}),
    ("claims_when_unharmed", "pi_U", {"agent": HONEST}),
    ("respond_invalid", "pi_I", {"agent": HONEST, "claims_when_unharmed": True}),
    ("escalate_invalid", "pi_U",
     {"agent": HONEST, "claims_when_unharmed": True, "respond_invalid": DENY}),
    ("claims_when_harmed", "pi_U", {"agent": MALICIOUS}),
    ("respond_valid", "pi_I", {"agent": MALICIOUS, "claims_when_harmed": True}),
    ("escalate_valid", "pi_U",
     {"agent": MALICIOUS, "claims_when_harmed": True, "respond_valid": DENY}),
)


def reference_subgame_perfect(params, profile) -> bool:
    """No single-node deviation strictly pays its mover, checked at each of
    the seven nodes in turn, with every leaf read through `leaf_payoffs`."""
    leaves = {path: leaf_payoffs(params, path) for path in ALL_PATHS}
    for field, mover, history in NODES:
        at_node = replace(profile, **history)
        stay = getattr(leaves[reference_outcome(at_node)], mover)
        own = getattr(at_node, field)
        for choice in (False, True) if isinstance(own, bool) else type(own):
            deviated = replace(at_node, **{field: choice})
            if getattr(leaves[reference_outcome(deviated)], mover) > stay:
                return False
    return True


def reference_backward_induction(params) -> StrategyProfile:
    """Backward induction node by node, with every leaf read through
    `leaf_payoffs` and each tie going to the compliant action: Honest,
    NoClaim, Accept on a valid claim and Deny on an invalid one, Drop."""
    def leaf(*path):
        return leaf_payoffs(params, TerminalPath(*path))

    fields, reached = {}, {}
    for agent, validity, tie_response in (
        (HONEST, "invalid", DENY), (MALICIOUS, "valid", ACCEPT),
    ):
        # Stage 4: the user escalates a denial only when it strictly pays.
        dropped = leaf(agent, True, DENY, False)
        escalated = leaf(agent, True, DENY, True)
        escalates = escalated.pi_U > dropped.pi_U
        denied = escalated if escalates else dropped
        # Stage 3: the insurer's strictly better response, else the tie-break.
        accepted = leaf(agent, True, ACCEPT)
        if accepted.pi_I != denied.pi_I:
            response = ACCEPT if accepted.pi_I > denied.pi_I else DENY
        else:
            response = tie_response
        filed = accepted if response is ACCEPT else denied
        # Stage 2: the user files only when filing strictly pays.
        unfiled = leaf(agent, False)
        claims = filed.pi_U > unfiled.pi_U
        harm = "harmed" if agent is MALICIOUS else "unharmed"
        fields[f"claims_when_{harm}"] = claims
        fields[f"respond_{validity}"] = response
        fields[f"escalate_{validity}"] = ESCALATE if escalates else DROP
        reached[agent] = filed if claims else unfiled
    # Stage 1: the agent deviates only when deviating strictly pays.
    deviates = reached[MALICIOUS].pi_A > reached[HONEST].pi_A
    return StrategyProfile(agent=MALICIOUS if deviates else HONEST, **fields)


class TestOutcomePath:
    def test_every_profile_reaches_its_all_paths_member(self):
        assert len(set(_ALL_PROFILES)) == 2**7
        for profile in _ALL_PROFILES:
            path = profile.outcome_path()
            assert path == reference_outcome(profile)
            assert path is ALL_PATHS[ALL_PATHS.index(path)]


class TestPositionTable:
    def test_position_is_a_bijection_onto_the_enumeration(self):
        # The solver answers with the profile at this table's position, so a
        # wrong entry would make the solver and the oracle agree on it.
        assert len(_POSITION) == 2 * 8 * 8
        assert set(_POSITION) == {
            (malicious, i, v)
            for malicious in (False, True) for i in range(8) for v in range(8)
        }
        assert sorted(_POSITION.values()) == list(range(len(_ALL_PROFILES)))
        for index, profile in enumerate(_ALL_PROFILES):
            malicious, invalid, valid = _subgame_choices(profile)
            key = (malicious, _TRIPLES.index(invalid), _TRIPLES.index(valid))
            assert _POSITION[key] == index

    def test_a_triples_index_is_its_bits(self):
        # The solver and `_passing` index a triple as 4*files + 2*accepts +
        # escalates.
        assert _TRIPLES == tuple(
            (bool(i & 4), bool(i & 2), bool(i & 1)) for i in range(8)
        )


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
