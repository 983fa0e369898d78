"""Mechanism parameters and the three equilibrium-condition predicates.

The trust mechanism is governed by eight money-valued parameters plus the
premium and the agent's honest-path payoff. Three inequalities jointly
guarantee an honest subgame-perfect equilibrium:

  access to justice:  2L + B > F     (strict)
  solvency:           S_I >= L       (non-strict)
  deterrence:         S_A + V_future > G  (strict)

Equality in a strict condition counts as a violation.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from fractions import Fraction

from .money import MAX_AMOUNT, check_amount, mul_exact


@dataclass(frozen=True)
class MechanismParams:
    """The money-valued parameters of one insured interaction (micro-units).

    L: user's loss if the agent misbehaves.
    G: agent's one-shot gain from misbehaving.
    S_A: agent deductible locked with the insurer.
    S_I: insurer stake locked in the protocol.
    B: escalation bond each disputant posts.
    F: verifier fee charged on escalation.
    R: insurer reputation cost for denying a valid claim.
    V_future: discounted value of the agent's future business.
    P: premium the agent pays for coverage.
    Pi_honest: agent's honest-path payoff (signed).
    """

    L: int
    G: int
    S_A: int
    S_I: int
    B: int
    F: int
    R: int
    V_future: int
    P: int = 0
    Pi_honest: int = 0

    def __post_init__(self) -> None:
        # Every field at once: exact ints, in range. Only a failure runs the
        # per-field checks, which raise for the first bad field in order.
        m = MAX_AMOUNT
        if not (
            type(self.L) is int and type(self.G) is int and type(self.S_A) is int
            and type(self.S_I) is int and type(self.B) is int and type(self.F) is int
            and type(self.R) is int and type(self.V_future) is int
            and type(self.P) is int and type(self.Pi_honest) is int
            and 0 <= self.L <= m and 0 <= self.G <= m and 0 <= self.S_A <= m
            and 0 <= self.S_I <= m and 0 <= self.B <= m and 0 <= self.F <= m
            and 0 <= self.R <= m and 0 <= self.V_future <= m and 0 <= self.P <= m
            and -m <= self.Pi_honest <= m
        ):
            for name in FIELDS:
                check_amount(getattr(self, name), signed=name in SIGNED)


#: The one list of mechanism parameters: MechanismParams' field names, in
#: order, read once rather than per instance. A scenario's `params`, a sweep
#: axis and a CLI flag each name one of these.
FIELDS = tuple(f.name for f in fields(MechanismParams))
#: The parameters a parameter set must name: those with no default.
REQUIRED = tuple(f.name for f in fields(MechanismParams) if f.default is MISSING)
#: The parameters that may be negative: a payoff, where the rest are amounts.
SIGNED = ("Pi_honest",)


@dataclass(frozen=True)
class ConditionReport:
    access_to_justice: bool
    solvency: bool
    deterrence: bool

    @property
    def all_hold(self) -> bool:
        return self.access_to_justice and self.solvency and self.deterrence


def check_conditions(params: MechanismParams) -> ConditionReport:
    """Evaluate the three equilibrium conditions on a parameter set."""
    return ConditionReport(
        access_to_justice=2 * params.L + params.B > params.F,
        solvency=params.S_I >= params.L,
        deterrence=params.S_A + params.V_future > params.G,
    )


def scale_params(params: MechanismParams, c: Fraction | int) -> MechanismParams:
    """Scale every money field by an exact positive rational.

    All three conditions are homogeneous of degree 1, so scaling never
    changes check_conditions. Non-integer results raise rather than round.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"scale factor must be positive, got {c}")
    scaled = {name: mul_exact(getattr(params, name), c) for name in FIELDS}
    return replace(params, **scaled)
