"""Seeded episode engine tying strategic or behavioral agents to the ledger.

One episode is a full insured interaction: underwriting, the agent's
honest/malicious choice, an optional claim, an optional escalation to the
verifier, and policy close-out. Every episode draws from its own RNG
stream derived from (scenario seed, episode index), so results are
independent of execution order and a (config, seed) pair fully determines
every report field.

An enforced episode first fixes the game path it will play: the solver's
strategy profile with the behavior policies written over it. The profile
is solved once per distinct episode parameter set and kept in a bounded
memo (`_solved_profile`). `play_path`
then drives that path through the ledger; `replay_game_path`, which
criterion 6 checks against the game tree, runs the same function.

Payoff accounting: each party's episode payoff is its ledger balance
delta plus the exogenous components the ledger cannot carry (the user's
real-world harm L, the agent's misbehavior gain G or honest-path payoff,
and the loss of future value when caught). With premium and claim bond at
zero these match the game tree's leaf payoffs exactly, except that the
user's payoff on an escalated valid claim sits L below the game's stated
value (the game measures compensation from pre-harm wealth).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .game import (
    AgentAction,
    ClaimValidity,
    EscalationChoice,
    InsurerResponse,
    StrategyProfile,
    TerminalPath,
    build_game,
    predict_honest_equilibrium,
    solve_spe,
)
from .ledger import (
    AccountId,
    ClaimRecord,
    ClaimState,
    Ledger,
    LedgerError,
    PolicyRecord,
    PolicyStatus,
    Role,
)
from .market import (
    AgentProfile,
    Certificate,
    GainModel,
    InsurerStack,
    RiskPosterior,
    compose_stack,
    decide_purchase,
    price_premium,
    stack_premium,
    underwrite_stack,
    update_posterior,
)
from .mechanism import MechanismParams
from .money import MAX_AMOUNT, check_amount, units


class AgentPolicy(Enum):
    RATIONAL_SPE = "rational_spe"
    OPPORTUNISTIC = "opportunistic"
    ALWAYS_MALICIOUS = "always_malicious"
    ALWAYS_HONEST = "always_honest"


class UserPolicy(Enum):
    RATIONAL_SPE = "rational_spe"
    ALWAYS_CLAIM = "always_claim"
    NEVER_CLAIM = "never_claim"


class InsurerPolicy(Enum):
    RATIONAL_SPE = "rational_spe"
    ALWAYS_DENY = "always_deny"
    ALWAYS_ACCEPT = "always_accept"


@dataclass(frozen=True)
class BehaviorPolicy:
    agent: AgentPolicy = AgentPolicy.RATIONAL_SPE
    user: UserPolicy = UserPolicy.RATIONAL_SPE
    insurer: InsurerPolicy = InsurerPolicy.RATIONAL_SPE
    opportunistic_p: float = 0.0  # temptation probability for OPPORTUNISTIC

    def __post_init__(self) -> None:
        if not 0.0 <= self.opportunistic_p <= 1.0:
            raise ValueError(
                f"opportunistic_p must lie in [0, 1], got {self.opportunistic_p}"
            )


@dataclass(frozen=True)
class StackSpec:
    base_risk: float
    certificates: tuple[Certificate, ...] = ()
    layer1_cut: float = 0.2
    loading: float = 0.0


class ScenarioError(ValueError):
    """Invalid scenario configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    episodes: int
    params: MechanismParams
    population: tuple[AgentProfile, ...]
    policy: BehaviorPolicy = BehaviorPolicy()
    enforcement_enabled: bool = True
    claim_bond: int = 0
    pricing: str = "flat"  # "flat" uses params.P; "experience" prices per posterior
    loading: float = 0.0
    stack: StackSpec | None = None

    def validate(self) -> None:
        if self.seed < 0 or self.seed >= 2**64:
            raise ScenarioError("seed", "must be an unsigned 64-bit integer")
        if self.episodes < 1:
            raise ScenarioError("episodes", "must be at least 1")
        if not self.population:
            raise ScenarioError("population", "must list at least one agent profile")
        if self.pricing not in ("flat", "experience"):
            raise ScenarioError("pricing", f"unknown pricing mode {self.pricing!r}")
        loadings = [("loading", self.loading)]
        if self.stack is not None:
            loadings.append(("stack.loading", self.stack.loading))
        for path, loading in loadings:
            if not (math.isfinite(loading) and loading >= 0):
                raise ScenarioError(path, f"must be finite and non-negative, got {loading}")
        check_amount(self.claim_bond)


@dataclass
class EpisodeRecord:
    index: int
    agent_id: str
    action: str | None = None
    misbehaved: bool = False
    excluded: bool = False
    aborted: bool = False
    claim_filed: bool = False
    claim_state: str | None = None
    escalated: bool = False
    verifier_invoked: bool = False
    audit_access_event: bool = False
    payoff_agent: int = 0
    payoff_insurer: int = 0
    payoff_user: int = 0
    resolution_ticks: int | None = None
    premium_paid: int = 0
    compensation_paid: int = 0
    insurer_id: str = ""

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in sorted(self.__dict__)}


@dataclass
class MetricsReport:
    episodes: int
    completed: int
    excluded: int
    aborted: int
    misbehavior_rate: float
    dispute_rate: float
    mean_resolution_ticks: float
    user_loss_distribution: dict[str, int]
    insurer_loss_ratio: float
    verifier_invocations: int
    audit_access_events: int
    market_concentration: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "episodes": self.episodes,
            "completed": self.completed,
            "excluded": self.excluded,
            "aborted": self.aborted,
            "misbehavior_rate": self.misbehavior_rate,
            "dispute_rate": self.dispute_rate,
            "mean_resolution_ticks": self.mean_resolution_ticks,
            "user_loss_distribution": self.user_loss_distribution,
            "insurer_loss_ratio": self.insurer_loss_ratio,
            "verifier_invocations": self.verifier_invocations,
            "audit_access_events": self.audit_access_events,
            "market_concentration": self.market_concentration,
        }

    def to_json(self) -> str:
        """Canonical key-sorted rendering; byte-stable for a given scenario."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


_TICKS_PER_EPISODE = 5
_USER_ID = "user-0"
_INSURER_ID = "insurer-0"


def _episode_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


@functools.lru_cache(maxsize=256)
def _solved_profile(ep: MechanismParams) -> StrategyProfile:
    """The SPE profile of `ep`'s game, solved once per distinct `ep`.

    Episodes with one gain and a flat premium share one `ep`. The memo is
    bounded because experience pricing gives most episodes their own.
    """
    return solve_spe(build_game(ep))[0]


def _funding(config: ScenarioConfig) -> int:
    p = config.params
    per_episode = (
        p.L + p.S_A + p.B + p.F + p.R + p.P + config.claim_bond + units(1)
    )
    total = config.episodes * per_episode + p.L
    return min(total, MAX_AMOUNT // 8)


class _World:
    """Mutable scenario state: ledger, posteriors, tick clock."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.ledger = Ledger()
        self.posteriors: dict[str, RiskPosterior] = {
            a.id: RiskPosterior() for a in config.population
        }
        self.records: list[EpisodeRecord] = []
        self.stack: InsurerStack | None = None
        if config.stack is not None:
            self.stack = compose_stack(
                config.stack.base_risk,
                config.stack.certificates,
                master=_INSURER_ID,
                tick=0,
            )
        if config.enforcement_enabled:
            fund = _funding(config)
            self.ledger.deposit(AccountId(Role.USER_WALLET, _USER_ID), fund)
            self.ledger.deposit(AccountId(Role.INSURER_WALLET, _INSURER_ID), fund)
            for agent in config.population:
                self.ledger.deposit(AccountId(Role.AGENT_WALLET, agent.id), fund)
            if self.stack is not None:
                for cert in self.stack.layer1:
                    self.ledger.deposit(AccountId(Role.INSURER_WALLET, cert.issuer), 0)

    # -- per-episode decisions -------------------------------------------

    def _agent_action(
        self,
        profile: StrategyProfile,
        agent: AgentProfile,
        ep: MechanismParams,
        rng: np.random.Generator,
    ) -> AgentAction:
        kind = self.config.policy.agent
        enforced = self.config.enforcement_enabled
        if kind is AgentPolicy.ALWAYS_MALICIOUS:
            return AgentAction.MALICIOUS
        if kind is AgentPolicy.ALWAYS_HONEST:
            return AgentAction.HONEST
        if kind is AgentPolicy.RATIONAL_SPE:
            if enforced:
                return profile.agent
            return (
                AgentAction.MALICIOUS
                if ep.G > ep.Pi_honest
                else AgentAction.HONEST
            )
        # Opportunistic: tempted with probability p, then weighs the net
        # deviation payoff (deterrence applies only when enforcement is on).
        if rng.random() >= self.config.policy.opportunistic_p:
            return AgentAction.HONEST
        net = ep.G - ep.S_A - ep.V_future if enforced else ep.G
        return AgentAction.MALICIOUS if net > ep.Pi_honest else AgentAction.HONEST

    def _episode_path(
        self,
        profile: StrategyProfile,
        agent: AgentProfile,
        ep: MechanismParams,
        rng: np.random.Generator,
    ) -> TerminalPath:
        """The solver's profile with the behavior policies written over it."""
        policy = self.config.policy
        changes: dict = {}
        action = self._agent_action(profile, agent, ep, rng)
        if action is not profile.agent:
            changes["agent"] = action
        if policy.user is not UserPolicy.RATIONAL_SPE:
            claims = policy.user is UserPolicy.ALWAYS_CLAIM
            escalation = EscalationChoice.ESCALATE if claims else EscalationChoice.DROP
            changes.update(
                claims_when_harmed=claims,
                claims_when_unharmed=claims,
                escalate_valid=escalation,
                escalate_invalid=escalation,
            )
        response = None
        if policy.insurer is InsurerPolicy.ALWAYS_ACCEPT:
            response = InsurerResponse.ACCEPT
        elif policy.insurer is InsurerPolicy.ALWAYS_DENY:
            response = InsurerResponse.DENY
        elif not agent.audit_access_granted:
            # Without audit access the insurer only has its posterior.
            believed = (
                ClaimValidity.VALID
                if self.posteriors[agent.id].mean >= 0.5
                else ClaimValidity.INVALID
            )
            response = profile.insurer_response(believed)
        if response is not None:
            changes.update(respond_valid=response, respond_invalid=response)
        if changes:  # most episodes play the solver's own profile: no copy
            profile = replace(profile, **changes)
        return profile.outcome_path()

    # -- episode ----------------------------------------------------------

    def run_episode(self, index: int) -> EpisodeRecord:
        config = self.config
        agent = config.population[index % len(config.population)]
        rng = _episode_rng(config.seed, index)
        record = EpisodeRecord(index=index, agent_id=agent.id, insurer_id=_INSURER_ID)
        tick0 = index * _TICKS_PER_EPISODE

        gain = min(agent.gain.draw(rng), MAX_AMOUNT // 8)
        if config.pricing == "experience" and config.enforcement_enabled:
            premium = price_premium(
                self.posteriors[agent.id], config.params.L, config.loading
            )
        elif self.stack is not None:
            premium = stack_premium(self.stack, config.params.L, config.stack.loading)
        else:
            premium = config.params.P
        ep = replace(config.params, G=gain, P=premium)
        profile = _solved_profile(ep)

        if not config.enforcement_enabled:
            action = self._agent_action(profile, agent, ep, rng)
            record.action = action.value
            record.misbehaved = action is AgentAction.MALICIOUS
            record.payoff_agent, record.payoff_insurer, record.payoff_user = (
                _payoffs(ep, TerminalPath(action, False), [0, 0, 0])
            )
            return record

        if not decide_purchase(agent, premium, ep):
            record.excluded = True
            return record

        path = self._episode_path(profile, agent, ep, rng)
        wallets = (
            AccountId(Role.AGENT_WALLET, agent.id),
            AccountId(Role.INSURER_WALLET, _INSURER_ID),
            AccountId(Role.USER_WALLET, _USER_ID),
        )
        before = [self.ledger.balance(w) for w in wallets]
        n_transfers = len(self.ledger.transfers)
        policy_id = f"ep-{index}"
        try:
            policy = self._underwrite(agent, ep, policy_id, premium, tick0)
            claim = play_path(
                self.ledger, policy, path, _USER_ID, ep,
                claim_bond=config.claim_bond, tick=tick0,
            )
        except LedgerError:
            self._rollback(n_transfers, policy_id)
            record.aborted = True
            return record

        record.action = path.agent.value
        record.misbehaved = path.agent is AgentAction.MALICIOUS
        record.premium_paid = policy.premium
        if claim is not None:
            record.claim_filed = True
            record.claim_state = claim.state.value
            record.escalated = record.verifier_invoked = bool(path.escalated)
            record.audit_access_event = (
                config.policy.insurer is InsurerPolicy.RATIONAL_SPE
                and agent.audit_access_granted
            )
            if claim.state in (ClaimState.ACCEPTED, ClaimState.UPHELD_VALID):
                record.compensation_paid = claim.amount
            record.resolution_ticks = claim.resolved_tick - claim.filed_tick
        deltas = [self.ledger.balance(w) - b for w, b in zip(wallets, before)]
        record.payoff_agent, record.payoff_insurer, record.payoff_user = (
            _payoffs(ep, path, deltas)
        )
        observed = _caught(path) or (record.misbehaved and agent.audit_access_granted)
        self.posteriors[agent.id] = update_posterior(self.posteriors[agent.id], observed)
        return record

    def _underwrite(
        self,
        agent: AgentProfile,
        ep: MechanismParams,
        policy_id: str,
        premium: int,
        tick0: int,
    ) -> PolicyRecord:
        if self.stack is not None:
            policy, _ = underwrite_stack(
                self.ledger,
                agent.id,
                self.stack,
                policy_id=policy_id,
                coverage=ep.L,
                deductible=ep.S_A,
                bond=ep.B,
                loading=self.config.stack.loading,
                claim_deadline=_TICKS_PER_EPISODE,
                expiry_tick=tick0 + _TICKS_PER_EPISODE - 1,
                tick=tick0,
                layer1_cut=self.config.stack.layer1_cut,
            )
        else:
            policy, _ = self.ledger.underwrite(
                policy_id,
                agent.id,
                _INSURER_ID,
                coverage=ep.L,
                deductible=ep.S_A,
                premium=premium,
                bond=ep.B,
                claim_deadline=_TICKS_PER_EPISODE,
                expiry_tick=tick0 + _TICKS_PER_EPISODE - 1,
                tick=tick0,
            )
        return policy

    def _rollback(self, n_transfers: int, policy_id: str) -> None:
        while len(self.ledger.transfers) > n_transfers:
            t = self.ledger.transfers.pop()
            self.ledger.balances[t.dst] -= t.amount
            self.ledger.balances[t.src] = self.ledger.balances.get(t.src, 0) + t.amount
        self.ledger.policies.pop(policy_id, None)
        for claim_id in [c for c in self.ledger.claims if c.startswith(policy_id + "/")]:
            del self.ledger.claims[claim_id]


def run_scenario_with_records(
    config: ScenarioConfig,
) -> tuple[MetricsReport, list[EpisodeRecord]]:
    """Run every episode and aggregate; deterministic given (config, seed)."""
    world = _World(config)
    supply_before = world.ledger.total_supply()
    records = [world.run_episode(i) for i in range(config.episodes)]
    supply_after = world.ledger.total_supply()
    assert supply_before == supply_after, "ledger conservation violated in scenario"
    return _aggregate(config, records), records


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    return run_scenario_with_records(config)[0]


def _aggregate(config: ScenarioConfig, records: list[EpisodeRecord]) -> MetricsReport:
    completed = [r for r in records if not r.excluded and not r.aborted]
    n = len(completed)
    misbehaved = sum(r.misbehaved for r in completed)
    escalations = sum(r.escalated for r in completed)
    verifier = sum(r.verifier_invoked for r in completed)
    audits = sum(r.audit_access_event for r in completed)
    resolutions = [r.resolution_ticks for r in completed if r.resolution_ticks is not None]
    losses: dict[str, int] = {}
    for r in completed:
        key = str(r.payoff_user)
        losses[key] = losses.get(key, 0) + 1
    premiums = sum(r.premium_paid for r in completed)
    paid = sum(r.compensation_paid for r in completed)
    insured = [r for r in completed if r.premium_paid > 0 or config.enforcement_enabled]
    concentration: dict[str, float] = {}
    if insured:
        counts: dict[str, int] = {}
        for r in insured:
            if r.insurer_id:
                counts[r.insurer_id] = counts.get(r.insurer_id, 0) + 1
        total = sum(counts.values())
        concentration = {k: v / total for k, v in sorted(counts.items())} if total else {}
    return MetricsReport(
        episodes=len(records),
        completed=n,
        excluded=sum(r.excluded for r in records),
        aborted=sum(r.aborted for r in records),
        misbehavior_rate=misbehaved / n if n else 0.0,
        dispute_rate=escalations / n if n else 0.0,
        mean_resolution_ticks=(sum(resolutions) / len(resolutions)) if resolutions else 0.0,
        user_loss_distribution={k: losses[k] for k in sorted(losses, key=int)},
        insurer_loss_ratio=paid / premiums if premiums else 0.0,
        verifier_invocations=verifier,
        audit_access_events=audits,
        market_concentration=concentration,
    )


# -- playing game paths on the ledger -------------------------------------


def play_path(
    ledger: Ledger,
    policy: PolicyRecord,
    path: TerminalPath,
    claimant: str,
    params: MechanismParams,
    *,
    claim_bond: int,
    tick: int,
) -> ClaimRecord | None:
    """Play one terminal game path on an underwritten policy, then close it.

    A claimed path files for the full loss L at `tick + 1`, the insurer
    responds at `tick + 2`, and a denied claim is escalated and adjudicated
    (fee F, reputation cost R) or dropped at `tick + 3`. A policy still
    active afterwards expires at its expiry tick. Returns the claim, or
    None on a no-claim path.
    """
    claim = None
    if path.claimed:
        claim = ledger.file_claim(
            policy.id,
            claimant,
            params.L,
            path.validity,
            claim_bond=claim_bond,
            incident_tick=tick,
            tick=tick + 1,
        )
        accept = path.response is InsurerResponse.ACCEPT
        ledger.respond_claim(claim.id, accept=accept, tick=tick + 2)
        if path.escalated:
            ledger.escalate(claim.id, tick=tick + 3)
            ledger.adjudicate(
                claim.id, fee=params.F, reputation_cost=params.R, tick=tick + 3
            )
        elif not accept:
            ledger.drop_claim(claim.id, tick=tick + 3)
    if policy.status is PolicyStatus.ACTIVE:
        ledger.expire_policy(policy.id, tick=policy.expiry_tick)
    return claim


def _caught(path: TerminalPath) -> bool:
    """A misbehaving agent is caught when its claim is settled or upheld."""
    return (
        path.agent is AgentAction.MALICIOUS
        and path.claimed
        and (path.response is InsurerResponse.ACCEPT or bool(path.escalated))
    )


def _payoffs(
    params: MechanismParams, path: TerminalPath, deltas: list[int]
) -> tuple[int, int, int]:
    """(pi_A, pi_I, pi_U): the (agent, insurer, user) wallet deltas plus the
    exogenous harm, gain or honest-path payoff, and future value lost."""
    malicious = path.agent is AgentAction.MALICIOUS
    d_agent, d_insurer, d_user = deltas
    exo_agent = params.G if malicious else params.Pi_honest
    if _caught(path):
        exo_agent -= params.V_future
    return d_agent + exo_agent, d_insurer, d_user - (params.L if malicious else 0)


def replay_game_path(
    params: MechanismParams, path: TerminalPath, claim_bond: int = 0
) -> tuple[int, int, int]:
    """Drive one terminal game path through a fresh ledger.

    Returns (pi_A, pi_I, pi_U) measured as wallet deltas plus the exogenous
    harm/gain/future-value components, for direct comparison against
    leaf_payoffs.
    """
    ledger = Ledger()
    fund = max(
        params.L + params.S_A + params.B + params.F + params.R + params.P, units(1)
    ) * 4 + claim_bond
    wallets = (
        AccountId(Role.AGENT_WALLET, "agent"),
        AccountId(Role.INSURER_WALLET, "insurer"),
        AccountId(Role.USER_WALLET, "user"),
    )
    for w in wallets:
        ledger.deposit(w, fund)
    policy, _ = ledger.underwrite(
        "policy",
        "agent",
        "insurer",
        coverage=params.L,
        deductible=params.S_A,
        premium=params.P,
        bond=params.B,
        claim_deadline=_TICKS_PER_EPISODE,
        expiry_tick=_TICKS_PER_EPISODE - 1,
        tick=0,
    )
    play_path(ledger, policy, path, "user", params, claim_bond=claim_bond, tick=0)
    return _payoffs(params, path, [ledger.balance(w) - fund for w in wallets])


# -- parameter sweeps ------------------------------------------------------


def sweep(
    config: ScenarioConfig,
    grid: list[tuple[str, list[int]]],
    jobs: int = 1,
) -> list[dict]:
    """One scenario run per grid cell, in deterministic grid order.

    `grid` maps MechanismParams field names to value lists; the cartesian
    product is evaluated row-major. Cells are independent and may run
    concurrently; the output order never depends on `jobs`.
    """
    if not grid or any(not values for _, values in grid):
        raise ValueError("sweep grid must be non-empty in every dimension")
    names = [name for name, _ in grid]
    cells = list(itertools.product(*(values for _, values in grid)))

    def run_cell(values: tuple[int, ...]) -> dict:
        params = replace(config.params, **dict(zip(names, values)))
        cell_config = replace(config, params=params)
        report = run_scenario(cell_config)
        row = {name: value for name, value in zip(names, values)}
        row["predicted"] = predict_honest_equilibrium(params)
        row["misbehavior_rate"] = report.misbehavior_rate
        row["dispute_rate"] = report.dispute_rate
        row["verifier_invocations"] = report.verifier_invocations
        return row

    if jobs <= 1:
        return [run_cell(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_cell, cells))


# -- scenario (de)serialization -------------------------------------------


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed scenario document.

    Raises ScenarioError with a field path on any malformed input.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario document must be an object")
    version = doc.get("schema_version")
    if version != 1:
        raise ScenarioError("schema_version", f"unsupported version {version!r}")

    def need(key: str):
        if key not in doc:
            raise ScenarioError(key, "missing required field")
        return doc[key]

    def money(value, path: str) -> int:
        try:
            return units(value)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(path, str(exc)) from None

    def number(value, kind: type, path: str):
        try:
            return kind(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ScenarioError(path, str(exc)) from None

    def flag(value, path: str) -> bool:
        if not isinstance(value, bool):
            raise ScenarioError(path, f"must be true or false, got {value!r}")
        return value

    raw_params = need("params")
    if not isinstance(raw_params, dict):
        raise ScenarioError("params", "must be an object")
    param_fields = {}
    for name in ("L", "G", "S_A", "S_I", "B", "F", "R", "V_future"):
        if name not in raw_params:
            raise ScenarioError(f"params.{name}", "missing required field")
        param_fields[name] = money(raw_params[name], f"params.{name}")
    for name in ("P", "Pi_honest"):
        if name in raw_params:
            param_fields[name] = money(raw_params[name], f"params.{name}")
    try:
        params = MechanismParams(**param_fields)
    except ValueError as exc:
        raise ScenarioError("params", str(exc)) from None

    raw_population = need("population")
    if not isinstance(raw_population, list) or not raw_population:
        raise ScenarioError("population", "must be a non-empty list")
    population = []
    for i, entry in enumerate(raw_population):
        path = f"population[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ScenarioError(path, "each profile needs an 'id'")
        gain_doc = entry.get("gain", {"kind": "fixed", "mean": raw_params.get("G", 0)})
        try:
            gain = GainModel(
                kind=gain_doc.get("kind", "fixed"),
                mean=money(gain_doc.get("mean", 0), f"{path}.gain.mean"),
            )
            population.append(
                AgentProfile(
                    id=str(entry["id"]),
                    theta=float(entry.get("theta", 0.0)),
                    gain=gain,
                    audit_access_granted=flag(
                        entry.get("audit_access", True), f"{path}.audit_access"
                    ),
                )
            )
        except ScenarioError:
            raise
        except (ValueError, TypeError) as exc:
            raise ScenarioError(path, str(exc)) from None

    raw_policy = doc.get("policies", {})
    if not isinstance(raw_policy, dict):
        raise ScenarioError("policies", "must be an object")
    try:
        policy = BehaviorPolicy(
            agent=AgentPolicy(raw_policy.get("agent", "rational_spe")),
            user=UserPolicy(raw_policy.get("user", "rational_spe")),
            insurer=InsurerPolicy(raw_policy.get("insurer", "rational_spe")),
            opportunistic_p=float(raw_policy.get("opportunistic_p", 0.0)),
        )
    except ValueError as exc:
        raise ScenarioError("policies", str(exc)) from None

    stack_spec = None
    if "stack" in doc and doc["stack"] is not None:
        raw_stack = doc["stack"]
        if not isinstance(raw_stack, dict) or "base_risk" not in raw_stack:
            raise ScenarioError("stack", "must be an object with 'base_risk'")
        certs = []
        for j, c in enumerate(raw_stack.get("certificates", [])):
            try:
                certs.append(
                    Certificate(
                        issuer=str(c["issuer"]),
                        domain=str(c["domain"]),
                        risk_discount=float(c["discount"]),
                        expiry_tick=c.get("expiry_tick"),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ScenarioError(f"stack.certificates[{j}]", str(exc)) from None
        try:
            stack_spec = StackSpec(
                base_risk=float(raw_stack["base_risk"]),
                certificates=tuple(certs),
                layer1_cut=float(raw_stack.get("layer1_cut", 0.2)),
                loading=float(raw_stack.get("loading", 0.0)),
            )
        except (ValueError, TypeError) as exc:
            raise ScenarioError("stack", str(exc)) from None

    config = ScenarioConfig(
        seed=number(need("seed"), int, "seed"),
        episodes=number(need("episodes"), int, "episodes"),
        params=params,
        population=tuple(population),
        policy=policy,
        enforcement_enabled=flag(
            doc.get("enforcement_enabled", True), "enforcement_enabled"
        ),
        claim_bond=money(doc.get("claim_bond", 0), "claim_bond"),
        pricing=str(doc.get("pricing", "flat")),
        loading=number(doc.get("loading", 0.0), float, "loading"),
        stack=stack_spec,
    )
    config.validate()
    return config


def load_scenario(path: str) -> ScenarioConfig:
    """Read and validate a JSON scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError("$", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return scenario_from_dict(doc)
