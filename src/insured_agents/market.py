"""Insurer-side economics: risk estimation, pricing, and the underwriting stack.

Risk is experience-rated with a Beta-Bernoulli posterior over an agent's
per-episode misbehavior probability. A hierarchical stack lets Layer-1
specialist insurers issue domain certificates that multiplicatively
discount the base risk the Layer-2 master insurer underwrites.

Every rate (loading, propensity, base risk, discount, layer-1 cut, residual
risk) is read by `money.rate`, as the exact decimal it is written as. A
premium is computed on integers: the risk and the loading as numerators and
denominators, rounded half-up once, at the end. `loaded_premium` is that one
formula: `price_premium` and `stack_premium` quote through it, and so does a
simulated world that keeps a posterior as its two counts. `max_premium` is
the most it can quote at a loading, which a world's funding is sized for.
An agent buys at any quote up to its `max_quote`, the one purchase formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ledger import AccountId, Ledger, Memo, PolicyRecord, Role
from .mechanism import MechanismParams
from .money import UNIT, MoneyOverflowError, check_amount, format_units, rate


@dataclass(frozen=True)
class RiskPosterior:
    """Beta(alpha, beta) pseudo-counts over per-episode misbehavior probability.

    The counts are ints: they start at 1 and each observation adds 1.
    """

    alpha: int = 1
    beta: int = 1

    def __post_init__(self) -> None:
        if not (type(self.alpha) is int and type(self.beta) is int
                and self.alpha > 0 and self.beta > 0):
            raise ValueError(f"Beta pseudo-counts must be positive ints: {self}")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def update_posterior(posterior: RiskPosterior, observed_misbehavior: bool) -> RiskPosterior:
    """Conjugate update: one more misbehavior or one more clean episode."""
    if observed_misbehavior:
        return RiskPosterior(posterior.alpha + 1, posterior.beta)
    return RiskPosterior(posterior.alpha, posterior.beta + 1)


@dataclass(frozen=True)
class GainModel:
    """Distribution of the agent's one-shot misbehavior gain G, in micro-units.

    kind "fixed" always yields `mean`; kind "geometric" draws a discrete
    geometric number of whole currency units with the given mean, so a
    geometric mean is zero or at least one unit.
    """

    kind: str = "fixed"
    mean: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "geometric"):
            raise ValueError(f"unknown gain model kind {self.kind!r}")
        check_amount(self.mean)
        if self.kind == "geometric" and 0 < self.mean < UNIT:
            raise ValueError(f"a geometric mean is 0 or at least 1 unit, "
                             f"got {format_units(self.mean)}")

    @property
    def drawn(self) -> bool:
        """Whether `draw` reads the generator: a geometric gain of nonzero mean."""
        return self.kind == "geometric" and self.mean != 0

    def draw(self, rng) -> int:
        if not self.drawn:
            return self.mean
        return int(rng.geometric(UNIT / self.mean)) * UNIT


@dataclass(frozen=True)
class AgentProfile:
    id: str
    theta: float = 0.0  # true misbehavior propensity
    gain: GainModel = GainModel()
    audit_access_granted: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")


def loaded_premium(risk_num: int, risk_den: int, coverage: int, loading: float) -> int:
    """(risk_num / risk_den) x coverage x (1 + loading) in micro-units.

    `loading` is read by `money.rate` as n/d. The exact price is then the
    integer quotient num/den with num = risk_num x coverage x (d + n) and
    den = risk_den x d, rounded half-up as (2 num + den) // (2 den): the
    arithmetic is on ints only. Any strictly positive expected loss
    prices at one micro-unit or more; a price past `MAX_AMOUNT` raises
    `MoneyOverflowError` naming the premium and the loading.
    """
    check_amount(coverage)
    try:
        load = rate(loading)
    except ValueError as exc:
        raise ValueError(f"loading {exc}") from None
    num = risk_num * coverage * (load.denominator + load.numerator)
    den = risk_den * load.denominator
    try:
        return check_amount(max((2 * num + den) // (2 * den), 1) if num > 0 else 0)
    except MoneyOverflowError as exc:
        raise MoneyOverflowError(f"premium at loading {loading!r}: {exc}") from None


def max_premium(coverage: int, loading: float) -> int:
    """The most `loaded_premium` can quote for `coverage` at `loading`: a
    risk is at most 1, so coverage x (1 + loading), rounded up."""
    return math.ceil(coverage * (1 + rate(loading)))


def price_premium(posterior: RiskPosterior, coverage: int, loading: float) -> int:
    """Expected-loss premium at the posterior mean, with a proportional loading."""
    alpha = posterior.alpha
    return loaded_premium(alpha, alpha + posterior.beta, coverage, loading)


def max_quote(agent: AgentProfile, params: MechanismParams) -> int:
    """The largest quote at which insured operation strictly beats the zero
    outside option; negative if none does.

    The baseline value is the honest-path payoff net of the premium. An
    agent with misbehavior propensity adds the option value of profitable
    deviation (what a deviation nets beyond the honest path, if positive),
    which is what drives adverse selection under flat pricing. With the
    propensity read by `money.rate` as n/d, a quote buys exactly when
    (Pi_honest - quote) x d + n x bonus > 0, that is, up to
    (Pi_honest x d + n x bonus - 1) // d. No quote enters it.
    """
    bonus = max(0, agent.gain.mean - params.S_A - params.V_future - params.Pi_honest)
    n, d = rate(agent.theta).as_integer_ratio()
    return (params.Pi_honest * d + n * bonus - 1) // d


def decide_purchase(agent: AgentProfile, quote: int, params: MechanismParams) -> bool:
    """Does `agent` buy at `quote`: is the quote at most its `max_quote`?"""
    return check_amount(quote) <= max_quote(agent, params)


@dataclass(frozen=True)
class Certificate:
    issuer: str
    domain: str
    risk_discount: float
    expiry_tick: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.risk_discount < 1.0:
            raise ValueError(
                f"risk_discount must lie in [0, 1), got {self.risk_discount}"
            )

    def expired(self, tick: int) -> bool:
        return self.expiry_tick is not None and tick >= self.expiry_tick


class ExpiredCertificate(Exception):
    pass


#: Residual risk never composes below this floor.
RESIDUAL_RISK_FLOOR = 1e-4


@dataclass(frozen=True)
class InsurerStack:
    """A Layer-2 master insurer backed by Layer-1 certificate issuers."""

    master: str
    layer1: tuple[Certificate, ...]
    residual_risk: float
    premium_shares: tuple[tuple[str, Fraction], ...]  # (issuer, its fraction of a premium)
    expires_at: float  # the first tick at which a live certificate expires
    warnings: tuple[str, ...] = ()


def compose_stack(
    base_risk: float,
    certificates: list[Certificate] | tuple[Certificate, ...],
    *,
    master: str = "master",
    tick: int = 0,
    layer1_cut: float = 0.2,
) -> InsurerStack:
    """Multiply independent certificate discounts into a residual risk.

    residual = base_risk x prod(1 - discount_j), clamped at
    `RESIDUAL_RISK_FLOOR`. Expired certificates are excluded from the
    product with a warning record. Exact rational arithmetic makes the
    result independent of certificate order. A `layer1_cut` of every premium
    flows to the live issuers, split in proportion to their discounts.
    Each certificate names its own non-empty domain: one listed twice would
    discount the risk twice and pay its issuer two shares.
    """
    if not 0.0 < base_risk <= 1.0:
        raise ValueError(f"base_risk must lie in (0, 1], got {base_risk}")
    if not 0.0 <= layer1_cut <= 1.0:
        raise ValueError(f"layer1_cut must lie in [0, 1], got {layer1_cut}")
    domains: set[str] = set()
    for cert in certificates:
        if not cert.domain:
            raise ValueError(f"certificate from {cert.issuer!r} has an empty domain")
        if cert.domain in domains:
            raise ValueError(f"certificate domain {cert.domain!r} is repeated")
        domains.add(cert.domain)
    residual = rate(base_risk)
    live: list[tuple[Certificate, Fraction]] = []
    warnings: list[str] = []
    for cert in certificates:
        if cert.expired(tick):
            warnings.append(f"expired certificate {cert.domain} from {cert.issuer}")
            continue
        discount = rate(cert.risk_discount)
        residual *= 1 - discount
        live.append((cert, discount))
    total = sum(d for _, d in live)
    cut = rate(layer1_cut)
    return InsurerStack(
        master=master,
        layer1=tuple(cert for cert, _ in live),
        residual_risk=max(float(residual), RESIDUAL_RISK_FLOOR),
        premium_shares=tuple((c.issuer, cut * d / total) for c, d in live if cut and d),
        expires_at=min(
            (c.expiry_tick for c, _ in live if c.expiry_tick is not None), default=math.inf
        ),
        warnings=tuple(warnings),
    )


def stack_premium(stack: InsurerStack, coverage: int, loading: float) -> int:
    """Premium the master insurer quotes at the stack's residual risk."""
    risk = rate(stack.residual_risk)
    return loaded_premium(risk.numerator, risk.denominator, coverage, loading)


def layer1_shares(stack: InsurerStack, premium: int) -> tuple[int, ...]:
    """Each layer-1 issuer's share of `premium`, in `premium_shares` order:
    its fraction of the premium, truncated. The one place a share is
    computed, so a planned settlement and a played one pay the same."""
    return tuple(premium * f.numerator // f.denominator for _, f in stack.premium_shares)


def underwrite_stack(
    ledger: Ledger,
    agent: str,
    stack: InsurerStack,
    *,
    policy_id: str,
    coverage: int,
    deductible: int,
    bond: int,
    premium: int,
    claim_deadline: int,
    expiry_tick: int,
    tick: int,
    shares: tuple[int, ...] | None = None,
) -> PolicyRecord:
    """Master insurer posts the protocol-facing stake and shares premium.

    The policy charges the caller's `premium` as given; `stack_premium`
    quotes the stack's residual risk. Each Layer-1 issuer gets its share,
    `layer1_shares` of the premium unless `shares` gives them in
    `premium_shares` order; the master keeps the remainder and bears all
    liability. The underwrite and the premium shares succeed or fail as
    one. A stack is refused from its `expires_at` on.
    """
    if tick >= stack.expires_at:
        raise ExpiredCertificate(f"a certificate expired at tick {stack.expires_at}")
    if shares is None:
        shares = layer1_shares(stack, premium)
    with ledger.atomic():
        policy = ledger.underwrite(
            policy_id, agent, stack.master, coverage=coverage, deductible=deductible,
            premium=premium, bond=bond, claim_deadline=claim_deadline,
            expiry_tick=expiry_tick, tick=tick,
        )
        for (issuer, _), share in zip(stack.premium_shares, shares, strict=True):
            if share > 0:
                ledger.pay(policy.insurer, AccountId(Role.INSURER_WALLET, issuer),
                           share, tick, Memo.PREMIUM)
    return policy
