"""Four-stage dispute game: tree construction, SPE solver, brute-force oracle.

Stage 1: the agent acts honestly or maliciously.
Stage 2: the user files a claim or not (harmed iff the agent misbehaved).
Stage 3: on a claim, the insurer accepts or denies.
Stage 4: on a denial, the user escalates to the verifier or drops.

Escalation invokes an error-free verifier: the losing side forfeits its
bond, and both escalation parties pay the verifier fee F. A claim is
valid exactly when the agent misbehaved, so validity is pinned by the
Stage-1 action and the tree has eight terminal paths.

The leaf formulas live in one table, written out in `build_game` in
`ALL_PATHS` order: the honest agent's (invalid-claim) subtree, then the
malicious agent's (valid-claim) one, each as (no-claim, accept, deny+drop,
deny+escalate); `leaf_payoffs` reads its entries. The backward-induction
solver `solve_spe` and the brute-force oracle `brute_force_spe` both read
that per-validity table by position, and both answer with profiles from
one enumeration, placed by one position table (`_POSITION`); they share
those layouts and nothing of their decision logic. The oracle checks each
claim subgame node by node, once per choice that node's check depends on,
then visits only the (agent, triple, triple) combinations whose two
subgames pass, and keeps those whose Stage-1 choice is a best reply to
the two continuation payoffs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .mechanism import MechanismParams, check_conditions


class AgentAction(Enum):
    HONEST = "honest"
    MALICIOUS = "malicious"


class ClaimValidity(Enum):
    VALID = "valid"
    INVALID = "invalid"


class InsurerResponse(Enum):
    ACCEPT = "accept"
    DENY = "deny"


class EscalationChoice(Enum):
    ESCALATE = "escalate"
    DROP = "drop"


@dataclass(frozen=True)
class TerminalPath:
    """One terminal history: agent action, claim filed, response, escalation."""

    agent: AgentAction
    claimed: bool
    response: InsurerResponse | None = None
    escalated: bool | None = None

    def __post_init__(self) -> None:
        if not self.claimed:
            if self.response is not None or self.escalated is not None:
                raise ValueError("no-claim paths carry no response or escalation")
        elif self.response is None:
            raise ValueError("claimed paths need an insurer response")
        elif self.response is InsurerResponse.ACCEPT:
            if self.escalated is not None:
                raise ValueError("accepted claims cannot be escalated")
        elif self.escalated is None:
            raise ValueError("denied claims need an escalation decision")

    @property
    def validity(self) -> ClaimValidity:
        return (
            ClaimValidity.VALID
            if self.agent is AgentAction.MALICIOUS
            else ClaimValidity.INVALID
        )

    def describe(self) -> str:
        head = "H" if self.agent is AgentAction.HONEST else "M"
        if not self.claimed:
            return f"{head}/NoClaim"
        if self.response is InsurerResponse.ACCEPT:
            return f"{head}/Claim/Accept"
        tail = "Escalate" if self.escalated else "Drop"
        return f"{head}/Claim/Deny/{tail}"


def _all_paths() -> tuple[TerminalPath, ...]:
    paths = []
    for agent in (AgentAction.HONEST, AgentAction.MALICIOUS):
        paths.append(TerminalPath(agent, False))
        paths.append(TerminalPath(agent, True, InsurerResponse.ACCEPT))
        paths.append(TerminalPath(agent, True, InsurerResponse.DENY, False))
        paths.append(TerminalPath(agent, True, InsurerResponse.DENY, True))
    return tuple(paths)


ALL_PATHS = _all_paths()


def path_of(malicious: bool, claims: bool, accepts: bool, escalates: bool) -> TerminalPath:
    """The `ALL_PATHS` member these choices reach. `accepts` counts only on a
    claim and `escalates` only on a denial."""
    if not claims:
        step = 0
    elif accepts:
        step = 1
    else:
        step = 2 + escalates
    return ALL_PATHS[4 * malicious + step]


class LeafPayoffs(NamedTuple):
    """Per-party payoff deltas (signed micro-units) at one terminal path."""

    pi_A: int
    pi_I: int
    pi_U: int
    verifier_invoked: bool


@dataclass(frozen=True)
class GameTree:
    """The payoffs at every terminal path: `leaves[i]` is the payoff at
    `ALL_PATHS[i]`."""

    leaves: tuple[LeafPayoffs, ...]


def build_game(params: MechanismParams) -> GameTree:
    """Build the fixed tree: each terminal path's payoffs, in `ALL_PATHS` order.

    The payoffs follow the mechanism's accounting: the winner of an
    escalation collects the loser's forfeited bond, both escalation parties
    pay the verifier fee, a caught misbehaving agent loses its deductible
    and future value, and an insurer caught denying a valid claim
    additionally bears the reputation cost R. The verifier rules for the
    honest side.
    """
    p = params
    honest, G, P, L, B, F = p.Pi_honest, p.G, p.P, p.L, p.B, p.F
    caught = G - p.S_A - p.V_future
    # `tuple.__new__` builds each leaf without the NamedTuple's Python-level
    # `__new__`; the field order is `LeafPayoffs`'.
    leaf = tuple.__new__
    unclaimed = leaf(LeafPayoffs, (honest, P, 0, False))
    unpaid = leaf(LeafPayoffs, (G, P, -L, False))
    return GameTree((
        # (pi_A, pi_I, pi_U, verifier_invoked)
        unclaimed,                                                   # H/NoClaim
        leaf(LeafPayoffs, (honest, P - L, L, False)),                # H/Claim/Accept
        unclaimed,                                                   # H/Claim/Deny/Drop
        leaf(LeafPayoffs, (honest, P + B - F, -B - F, True)),        # H/Claim/Deny/Escalate
        unpaid,                                                      # M/NoClaim
        leaf(LeafPayoffs, (caught, p.S_A - L, 0, False)),            # M/Claim/Accept
        unpaid,                                                      # M/Claim/Deny/Drop
        leaf(LeafPayoffs, (caught, -L - B - F - p.R, L + B - F, True)),  # M/Claim/Deny/Escalate
    ))


def leaf_payoffs(params: MechanismParams, path: TerminalPath) -> LeafPayoffs:
    """Payoffs at a terminal path: its entry in `build_game`'s table."""
    return build_game(params).leaves[ALL_PATHS.index(path)]


@dataclass(frozen=True)
class StrategyProfile:
    """A pure action at every decision node of the game.

    The user has two claim nodes (harmed / unharmed) and two escalation
    nodes (one per claim validity); the insurer has one response node per
    claim validity.
    """

    agent: AgentAction
    claims_when_harmed: bool
    claims_when_unharmed: bool
    respond_valid: InsurerResponse
    respond_invalid: InsurerResponse
    escalate_valid: EscalationChoice
    escalate_invalid: EscalationChoice

    def outcome_path(self) -> TerminalPath:
        """The terminal path this profile induces from the root."""
        malicious, invalid, valid = _subgame_choices(self)
        return path_of(malicious, *(valid if malicious else invalid))


#: The profile the mechanism is designed to sustain: honest agent, user
#: claims when harmed and escalates only valid denials, insurer pays
#: valid claims and rejects invalid ones.
COMPLIANT_PROFILE = StrategyProfile(
    agent=AgentAction.HONEST,
    claims_when_harmed=True,
    claims_when_unharmed=False,
    respond_valid=InsurerResponse.ACCEPT,
    respond_invalid=InsurerResponse.DENY,
    escalate_valid=EscalationChoice.ESCALATE,
    escalate_invalid=EscalationChoice.DROP,
)


def solve_spe(tree: GameTree) -> tuple[StrategyProfile, LeafPayoffs]:
    """Backward-induction SPE with deterministic compliant tie-breaking.

    Reads the leaves by position from the per-validity table (no-claim,
    accept, deny+drop, deny+escalate) of `_leaf_table`, so no terminal path
    is built or hashed. Each claim subgame is solved from Stage 4 up to
    Stage 2, then the agent picks between the two at Stage 1. At every node
    the acting player maximizes its own continuation payoff given
    downstream choices; indifference resolves toward the compliant action
    (Honest, NoClaim, Accept-valid / Deny-invalid, Drop), so the result is
    unique and deterministic. The profile returned is the `_ALL_PROFILES`
    member at the `_POSITION` of those choices, so none is built.
    """
    subgames = []
    for (no_claim, accept, drop, esc), valid in zip(_leaf_table(tree), (False, True)):
        # Stage 4: user decides escalation after a denial.
        escalates = esc.pi_U > drop.pi_U
        deny = esc if escalates else drop
        # Stage 3: insurer responds, anticipating Stage 4. A tie goes to
        # Accept on a valid claim and to Deny on an invalid one.
        accepts = accept.pi_I >= deny.pi_I if valid else accept.pi_I > deny.pi_I
        filed = accept if accepts else deny
        # Stage 2: user decides whether to file.
        claims = filed.pi_U > no_claim.pi_U
        # The `_TRIPLES` index of (claims, accepts, escalates).
        subgames.append((4 * claims + 2 * accepts + escalates, filed if claims else no_claim))
    (invalid, honest), (valid, malicious) = subgames

    # Stage 1: agent compares full continuations.
    if honest.pi_A >= malicious.pi_A:
        return _ALL_PROFILES[_POSITION[False, invalid, valid]], honest
    return _ALL_PROFILES[_POSITION[True, invalid, valid]], malicious


def _all_profiles() -> tuple[StrategyProfile, ...]:
    combos = itertools.product(
        (AgentAction.HONEST, AgentAction.MALICIOUS),
        (False, True),
        (False, True),
        (InsurerResponse.ACCEPT, InsurerResponse.DENY),
        (InsurerResponse.ACCEPT, InsurerResponse.DENY),
        (EscalationChoice.DROP, EscalationChoice.ESCALATE),
        (EscalationChoice.DROP, EscalationChoice.ESCALATE),
    )
    return tuple(StrategyProfile(*combo) for combo in combos)


_ALL_PROFILES = _all_profiles()


def _leaf_table(tree: GameTree) -> tuple[tuple[LeafPayoffs, ...], ...]:
    """The leaves by position: the invalid-claim (honest agent) subtree, then
    the valid-claim (malicious agent) one, each (no-claim, accept, deny+drop,
    deny+escalate), as `ALL_PATHS` lists them."""
    return tree.leaves[:4], tree.leaves[4:]


def _subgame_choices(
    profile: StrategyProfile,
) -> tuple[bool, tuple[bool, bool, bool], tuple[bool, bool, bool]]:
    """The agent bit, then the (files, accepts, escalates) choices of the
    invalid-claim and of the valid-claim subgame."""
    return (
        profile.agent is AgentAction.MALICIOUS,
        (
            profile.claims_when_unharmed,
            profile.respond_invalid is InsurerResponse.ACCEPT,
            profile.escalate_invalid is EscalationChoice.ESCALATE,
        ),
        (
            profile.claims_when_harmed,
            profile.respond_valid is InsurerResponse.ACCEPT,
            profile.escalate_valid is EscalationChoice.ESCALATE,
        ),
    )


# Every (files, accepts, escalates) choice triple of one claim subgame; the
# triple at index i is the bits of i, so files counts 4, accepts 2 and
# escalates 1.
_TRIPLES = tuple(itertools.product((False, True), repeat=3))


# The `_ALL_PROFILES` position of each profile, keyed by its agent bit and
# the `_TRIPLES` index of its invalid-claim and valid-claim choices.
_POSITION = {
    (malicious, _TRIPLES.index(invalid), _TRIPLES.index(valid)): position
    for position, (malicious, invalid, valid)
    in enumerate(map(_subgame_choices, _ALL_PROFILES))
}


def _passing(subtree: tuple[LeafPayoffs, ...]) -> list[tuple[int, int]]:
    """(`_TRIPLES` index, agent's continuation payoff) of each choice triple
    that passes the subgame's one-shot-deviation check.

    The check is factored by node: Stage 4 compares each escalation choice
    once with the user's best of escalating and dropping; Stage 3 compares
    each (accepts, escalates) once with the insurer's other response; Stage
    2 compares each (files, accepts, escalates) once with the user's other
    filing choice. The game is finite with perfect information, so a
    profile is subgame perfect exactly when both its triples pass here and
    its Stage-1 choice is a best reply to their continuation payoffs.
    """
    no_claim, accept, drop, esc = subtree
    best4 = esc.pi_U if esc.pi_U > drop.pi_U else drop.pi_U
    passing = []
    for escalates, deny in ((0, drop), (1, esc)):
        if deny.pi_U < best4:  # Stage 4: the user would switch.
            continue
        for accepts, filed, other in ((0, deny, accept), (2, accept, deny)):
            if filed.pi_I < other.pi_I:  # Stage 3: the insurer would switch.
                continue
            # Stage 2: each filing choice passes when the other is no better.
            if no_claim.pi_U >= filed.pi_U:
                passing.append((accepts + escalates, no_claim.pi_A))
            if filed.pi_U >= no_claim.pi_U:
                passing.append((4 + accepts + escalates, filed.pi_A))
    return passing


def is_subgame_perfect(tree: GameTree, profile: StrategyProfile) -> bool:
    """True iff no player strictly gains from a single-node deviation: both
    of the profile's triples are among `_passing`'s and its Stage-1 choice
    is a best reply to their continuation payoffs."""
    malicious, invalid_choices, valid_choices = _subgame_choices(profile)
    invalid, valid = _leaf_table(tree)
    honest = dict(_passing(invalid)).get(_TRIPLES.index(invalid_choices))
    deviant = dict(_passing(valid)).get(_TRIPLES.index(valid_choices))
    if honest is None or deviant is None:
        return False
    return deviant >= honest if malicious else honest >= deviant


def brute_force_spe(tree: GameTree) -> tuple[StrategyProfile, ...]:
    """Every subgame-perfect pure profile, by the one-shot-deviation check.

    Independent of solve_spe: it checks the deviation property rather than
    inducting backward. `_passing` checks each claim subgame's nodes once,
    factored by node; a profile whose subgame fails is never subgame
    perfect, so only the (agent, invalid-claim triple, valid-claim triple)
    combinations whose two triples pass are visited, and each is kept when
    its Stage-1 choice is a best reply to the two continuation payoffs.
    Returned in enumeration order: by agent, claims when harmed, claims when
    unharmed, then each response and escalation by its `.value`.
    """
    invalid, valid = _leaf_table(tree)
    deviants = _passing(valid)
    positions = []
    for i, honest in _passing(invalid):
        for v, deviant in deviants:
            # Stage 1: staying honest, and deviating, each kept when it is
            # a best reply.
            if honest >= deviant:
                positions.append(_POSITION[False, i, v])
            if deviant >= honest:
                positions.append(_POSITION[True, i, v])
    positions.sort()
    return tuple([_ALL_PROFILES[position] for position in positions])


def predict_honest_equilibrium(params: MechanismParams) -> bool:
    """True iff the equilibrium conditions hold and honesty beats deviation.

    Requires all three conditions plus Pi_honest strictly above the
    caught-misbehavior payoff G - S_A - V_future. Always False at L = 0:
    a harmed user then gains nothing by claiming, so misbehavior is never
    caught and deterrence never binds.
    """
    if params.L == 0 or not check_conditions(params).all_hold:
        return False
    return params.Pi_honest > params.G - params.S_A - params.V_future
