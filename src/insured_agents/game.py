"""Four-stage dispute game: tree construction, SPE solver, brute-force oracle.

Stage 1: the agent acts honestly or maliciously.
Stage 2: the user files a claim or not (harmed iff the agent misbehaved).
Stage 3: on a claim, the insurer accepts or denies.
Stage 4: on a denial, the user escalates to the verifier or drops.

Escalation invokes an error-free verifier: the losing side forfeits its
bond, and both escalation parties pay the verifier fee F. A claim is
valid exactly when the agent misbehaved, so validity is pinned by the
Stage-1 action and the tree has eight terminal paths.

`build_game` computes the eight leaves once, in `ALL_PATHS` order: the
honest agent's (invalid-claim) subtree, then the malicious agent's
(valid-claim) one, each as (no-claim, accept, deny+drop, deny+escalate).
The backward-induction solver `solve_spe` and the brute-force oracle
`brute_force_spe` both read that per-validity table by position; they share
its layout and nothing of their decision logic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

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


@dataclass(frozen=True)
class LeafPayoffs:
    """Per-party payoff deltas (signed micro-units) at one terminal path."""

    pi_A: int
    pi_I: int
    pi_U: int
    verifier_invoked: bool


def leaf_payoffs(params: MechanismParams, path: TerminalPath) -> LeafPayoffs:
    """Payoffs at a terminal path.

    The four dispute-side payoffs follow the mechanism's accounting:
    winner of an escalation collects the loser's forfeited bond, both
    escalation parties pay the verifier fee, a caught misbehaving agent
    loses its deductible and future value, and an insurer caught denying
    a valid claim additionally bears the reputation cost R.
    """
    p = params
    malicious = path.agent is AgentAction.MALICIOUS
    pi_honest = p.Pi_honest
    if not path.claimed:
        if malicious:
            return LeafPayoffs(pi_A=p.G, pi_I=p.P, pi_U=-p.L, verifier_invoked=False)
        return LeafPayoffs(pi_A=pi_honest, pi_I=p.P, pi_U=0, verifier_invoked=False)
    if path.response is InsurerResponse.ACCEPT:
        if malicious:
            return LeafPayoffs(
                pi_A=p.G - p.S_A - p.V_future,
                pi_I=-p.L + p.S_A,
                pi_U=0,
                verifier_invoked=False,
            )
        return LeafPayoffs(
            pi_A=pi_honest, pi_I=-p.L + p.P, pi_U=p.L, verifier_invoked=False
        )
    if not path.escalated:
        if malicious:
            return LeafPayoffs(pi_A=p.G, pi_I=p.P, pi_U=-p.L, verifier_invoked=False)
        return LeafPayoffs(pi_A=pi_honest, pi_I=p.P, pi_U=0, verifier_invoked=False)
    # Escalated: the verifier rules for the honest side.
    if malicious:
        return LeafPayoffs(
            pi_A=p.G - p.S_A - p.V_future,
            pi_I=-p.L - p.B - p.F - p.R,
            pi_U=p.L + p.B - p.F,
            verifier_invoked=True,
        )
    return LeafPayoffs(
        pi_A=pi_honest,
        pi_I=p.P + p.B - p.F,
        pi_U=-p.B - p.F,
        verifier_invoked=True,
    )


@dataclass(frozen=True)
class GameTree:
    """The payoffs at every terminal path, keyed in `ALL_PATHS` order.

    The solver and the oracle read `leaves` by position, so any other key
    order is rejected.
    """

    params: MechanismParams
    leaves: Mapping[TerminalPath, LeafPayoffs]

    def __post_init__(self) -> None:
        if tuple(self.leaves) != ALL_PATHS:
            raise ValueError("leaves must be keyed by ALL_PATHS, in that order")


def build_game(params: MechanismParams) -> GameTree:
    """Build the fixed tree: each terminal path's payoffs, in `ALL_PATHS` order."""
    return GameTree(
        params=params, leaves={path: leaf_payoffs(params, path) for path in ALL_PATHS}
    )


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

    def insurer_response(self, validity: ClaimValidity) -> InsurerResponse:
        return (
            self.respond_valid
            if validity is ClaimValidity.VALID
            else self.respond_invalid
        )

    def user_escalates(self, validity: ClaimValidity) -> EscalationChoice:
        return (
            self.escalate_valid
            if validity is ClaimValidity.VALID
            else self.escalate_invalid
        )

    def outcome_path(self) -> TerminalPath:
        """The terminal path this profile induces from the root."""
        harmed = self.agent is AgentAction.MALICIOUS
        claimed = self.claims_when_harmed if harmed else self.claims_when_unharmed
        if not claimed:
            return TerminalPath(self.agent, False)
        validity = ClaimValidity.VALID if harmed else ClaimValidity.INVALID
        if self.insurer_response(validity) is InsurerResponse.ACCEPT:
            return TerminalPath(self.agent, True, InsurerResponse.ACCEPT)
        escalated = self.user_escalates(validity) is EscalationChoice.ESCALATE
        return TerminalPath(self.agent, True, InsurerResponse.DENY, escalated)

    def _sort_key(self) -> tuple:
        return (
            self.agent.value,
            self.claims_when_harmed,
            self.claims_when_unharmed,
            self.respond_valid.value,
            self.respond_invalid.value,
            self.escalate_valid.value,
            self.escalate_invalid.value,
        )


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


# Indexed by the solver's bool: accepts, escalates.
_RESPONSE = (InsurerResponse.DENY, InsurerResponse.ACCEPT)
_ESCALATION = (EscalationChoice.DROP, EscalationChoice.ESCALATE)


def solve_spe(tree: GameTree) -> tuple[StrategyProfile, LeafPayoffs]:
    """Backward-induction SPE with deterministic compliant tie-breaking.

    Reads the leaves by position from the per-validity table (no-claim,
    accept, deny+drop, deny+escalate) of `_leaf_table`, so no terminal path
    is built or hashed. Each claim subgame is solved from Stage 4 up to
    Stage 2, then the agent picks between the two at Stage 1. At every node
    the acting player maximizes its own continuation payoff given
    downstream choices; indifference resolves toward the compliant action
    (Honest, NoClaim, Accept-valid / Deny-invalid, Drop), so the result is
    unique and deterministic.
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
        subgames.append((escalates, accepts, claims, filed if claims else no_claim))
    (esc_invalid, acc_invalid, claims_unharmed, honest), (
        esc_valid, acc_valid, claims_harmed, malicious
    ) = subgames

    # Stage 1: agent compares full continuations.
    stays_honest = honest.pi_A >= malicious.pi_A
    profile = StrategyProfile(
        agent=AgentAction.HONEST if stays_honest else AgentAction.MALICIOUS,
        claims_when_harmed=claims_harmed,
        claims_when_unharmed=claims_unharmed,
        respond_valid=_RESPONSE[acc_valid],
        respond_invalid=_RESPONSE[acc_invalid],
        escalate_valid=_ESCALATION[esc_valid],
        escalate_invalid=_ESCALATION[esc_invalid],
    )
    return profile, honest if stays_honest else malicious


def _all_profiles() -> tuple[StrategyProfile, ...]:
    combos = itertools.product(
        (AgentAction.HONEST, AgentAction.MALICIOUS),
        (False, True),
        (False, True),
        (InsurerResponse.ACCEPT, InsurerResponse.DENY),
        (InsurerResponse.ACCEPT, InsurerResponse.DENY),
        (EscalationChoice.ESCALATE, EscalationChoice.DROP),
        (EscalationChoice.ESCALATE, EscalationChoice.DROP),
    )
    return tuple(StrategyProfile(*combo) for combo in combos)


_ALL_PROFILES = _all_profiles()


def _leaf_table(tree: GameTree) -> tuple[tuple[LeafPayoffs, ...], ...]:
    """The leaves by position: the invalid-claim (honest agent) subtree, then
    the valid-claim (malicious agent) one, each (no-claim, accept, deny+drop,
    deny+escalate), as `ALL_PATHS` lists them."""
    leaves = tuple(tree.leaves.values())
    return leaves[:4], leaves[4:]


def _one_shot_ok(
    table: tuple[tuple[LeafPayoffs, ...], ...],
    malicious: bool,
    claims_harmed: bool,
    claims_unharmed: bool,
    accepts_valid: bool,
    accepts_invalid: bool,
    escalates_valid: bool,
    escalates_invalid: bool,
) -> bool:
    """One-shot-deviation check at all seven decision nodes.

    The game is finite with perfect information, so no node admitting a
    strictly profitable single deviation is exactly subgame perfection.
    """
    invalid, valid = table
    continuation = []
    for (no_claim, accept, drop, esc), files, accepts, escalates in (
        (invalid, claims_unharmed, accepts_invalid, escalates_invalid),
        (valid, claims_harmed, accepts_valid, escalates_valid),
    ):
        chosen4 = esc if escalates else drop
        if esc.pi_U > chosen4.pi_U or drop.pi_U > chosen4.pi_U:
            return False
        chosen3 = accept if accepts else chosen4
        if accept.pi_I > chosen3.pi_I or chosen4.pi_I > chosen3.pi_I:
            return False
        chosen2 = chosen3 if files else no_claim
        if chosen3.pi_U > chosen2.pi_U or no_claim.pi_U > chosen2.pi_U:
            return False
        continuation.append(chosen2.pi_A)
    honest, deviant = continuation
    chosen1 = deviant if malicious else honest
    return honest <= chosen1 and deviant <= chosen1


def _profile_bits(profile: StrategyProfile) -> tuple[bool, ...]:
    return (
        profile.agent is AgentAction.MALICIOUS,
        profile.claims_when_harmed,
        profile.claims_when_unharmed,
        profile.respond_valid is InsurerResponse.ACCEPT,
        profile.respond_invalid is InsurerResponse.ACCEPT,
        profile.escalate_valid is EscalationChoice.ESCALATE,
        profile.escalate_invalid is EscalationChoice.ESCALATE,
    )


def is_subgame_perfect(tree: GameTree, profile: StrategyProfile) -> bool:
    """True iff no player strictly gains from a single-node deviation."""
    return _one_shot_ok(_leaf_table(tree), *_profile_bits(profile))


def brute_force_spe(tree: GameTree) -> tuple[StrategyProfile, ...]:
    """Enumerate all pure profiles; keep the subgame-perfect ones.

    Independent of solve_spe: it filters the full profile space with the
    one-shot-deviation check rather than inducting backward. Returned in
    a deterministic order.
    """
    table = _leaf_table(tree)
    found = [
        profile for profile, bits in _PROFILE_BITS if _one_shot_ok(table, *bits)
    ]
    found.sort(key=StrategyProfile._sort_key)
    return tuple(found)


_PROFILE_BITS = tuple((p, _profile_bits(p)) for p in _ALL_PROFILES)


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
