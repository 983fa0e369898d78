"""Seeded episode engine tying strategic or behavioral agents to the ledger.

One episode is a full insured interaction: underwriting, the agent's
honest/malicious choice, an optional claim, an optional escalation to the
verifier, and policy close-out. Every episode draws from its own RNG
stream derived from (scenario seed, episode index), so results are
independent of execution order and a (config, seed) pair fully determines
every report field. That stream is exactly `np.random.default_rng([seed,
index])`'s, but no episode builds a generator: the world derives the seeds
of a block of episodes at once (`_seed_states`) and reseeds its one PCG64.

An enforced episode first picks the `ALL_PATHS` member it will play: the
solver's choices with the behavior policies written over them. The profile
is solved once per distinct episode parameter set and kept in a bounded
memo (`_solved_profile`). `_World._settle` underwrites the episode and
`play_path` drives that path through the ledger, in one atomic block;
`replay_game_path`, which criterion 6 checks against the game tree, settles
its path as the only episode of a one-agent world through the same step.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum

import numpy as np

from .game import (
    AgentAction,
    EscalationChoice,
    InsurerResponse,
    StrategyProfile,
    TerminalPath,
    build_game,
    path_of,
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
from .money import MAX_AMOUNT, MoneyError, check_amount, format_units, rate, units


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
        stack = self.stack
        if stack is not None:
            loadings.append(("stack.loading", stack.loading))
            if not 0.0 < stack.base_risk <= 1.0:
                raise ScenarioError("stack.base_risk",
                                    f"must lie in (0, 1], got {stack.base_risk}")
            if not 0.0 <= stack.layer1_cut <= 1.0:
                raise ScenarioError("stack.layer1_cut",
                                    f"must lie in [0, 1], got {stack.layer1_cut}")
        for path, loading in loadings:
            try:
                factor = 1 + rate(loading)
            except ValueError as exc:
                raise ScenarioError(path, str(exc)) from None
            if self.params.L * factor > MAX_AMOUNT:
                # A premium is at most L x (1 + loading): risk never exceeds 1.
                raise ScenarioError(path, f"prices a premium beyond the representable "
                                          f"range at L = {self.params.L}, got {loading}")
        try:
            check_amount(self.claim_bond)
        except MoneyError as exc:
            raise ScenarioError("claim_bond", str(exc)) from None
        obligations = _obligations(self)
        if obligations > _FUNDING_CAP:
            raise ScenarioError("params", f"one episode's obligations of "
                                          f"{format_units(obligations)} exceed the funding "
                                          f"cap of {format_units(_FUNDING_CAP)}")


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
        return {"schema_version": 1, **asdict(self)}

    def to_json(self) -> str:
        """Canonical key-sorted rendering; byte-stable for a given scenario."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


_TICKS_PER_EPISODE = 5
_USER_ID = "user-0"
_INSURER_ID = "insurer-0"


#: Episodes whose seeds `_World` derives at once, in blocks aligned to it:
#: enough to spread numpy's per-call cost thin, few enough that a block's
#: Python ints do not raise the peak resident set (1024 raised it by 1 MB).
_SEED_BLOCK = 256

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, calls: int) -> tuple[int, ...]:
    """The `hash_const` values a SeedSequence hash runs through: they depend
    on the number of calls only, never on the data hashed."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# SeedSequence's constants; mix_entropy hashes 4 + 12 times, generate_state 8.
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of `np.random.default_rng([seed, i])` for every
    i in [start, stop), for a seed and indices below 2**64.

    This is numpy's seeding run on many indices at once, so each one costs
    no per-call overhead; numpy's stream policy (NEP 19) keeps it fixed:
    - `SeedSequence` (numpy/random/bit_generator.pyx): the entropy is the
      seed's and the index's little-endian 32-bit words (one word for a
      value below 2**32, two otherwise); `mix_entropy` hashes it into a pool
      of four words, zero-padded, then mixes every pool word into every
      other; `generate_state(4, uint64)` hashes the pool, cycled, into eight
      words read in pairs as four uint64. All of it runs on uint32 arrays.
    - `PCG64` (numpy/random/src/pcg64/pcg64.h): `pcg64_set_seed` reads
      those as the 128-bit initstate and initseq, and
      `pcg_setseq_128_srandom_r` sets inc = initseq << 1 | 1 and state =
      (inc + initstate) x multiplier + inc, in Python ints.
    """
    index = np.arange(start, stop, dtype=np.uint64)
    words = [np.full(stop - start, w, dtype=np.uint32)
             for w in ([seed & _MASK32, seed >> 32] if seed >> 32 else [seed])]
    # An index below 2**32 has one word; its zero high word is the padding.
    words += [index.astype(np.uint32), (index >> 32).astype(np.uint32)]
    words += [np.zeros(stop - start, dtype=np.uint32)] * (4 - len(words))
    calls = iter(range(16))

    def hashmix(value: np.ndarray) -> np.ndarray:
        k = next(calls)
        value = (value ^ _MIX_HASH[k]) * _MIX_HASH[k + 1]
        return value ^ value >> 16

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16
    state = []
    for k in range(8):
        value = (pool[k % 4] ^ _STATE_HASH[k]) * _STATE_HASH[k + 1]
        state.append((value ^ value >> 16).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (state[2 * k] | state[2 * k + 1] << 32).tolist() for k in range(4)
    )
    out = []
    for hi, lo, inc_hi, inc_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        out.append((((hi << 64 | lo) + inc) * _PCG64_MULTIPLIER + inc & _MASK128, inc))
    return out


@functools.lru_cache(maxsize=256)
def _solved_profile(ep: MechanismParams) -> StrategyProfile:
    """The SPE profile of `ep`'s game, solved once per distinct `ep`.

    Episodes with one gain and a flat premium share one `ep`. The memo is
    bounded because experience pricing gives most episodes their own.
    """
    return solve_spe(build_game(ep))[0]


#: The most a wallet is funded with, so that no balance nears MAX_AMOUNT.
_FUNDING_CAP = MAX_AMOUNT // 8


def _obligations(config: ScenarioConfig) -> int:
    """The most one episode can ask of a wallet: its harm, stake, bond, fee,
    reputation cost, premium and claim bond, plus one unit."""
    p = config.params
    return p.L + p.S_A + p.B + p.F + p.R + p.P + config.claim_bond + units(1)


def _funding(config: ScenarioConfig) -> int:
    """Each wallet's deposit: every episode's obligations plus L, capped at
    `_FUNDING_CAP` (which `validate` keeps one episode's obligations under)."""
    total = config.episodes * _obligations(config) + config.params.L
    return min(total, _FUNDING_CAP)


class _World:
    """Mutable scenario state: ledger, posteriors, tick clock."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.ledger = Ledger()
        self.posteriors: dict[str, RiskPosterior] = {
            a.id: RiskPosterior() for a in config.population
        }
        self.stack: InsurerStack | None = None
        # The params of every episode at the scenario's gain and its flat or
        # stack premium, built once per pricing: under flat pricing, the
        # scenario's own, so such an episode validates nothing.
        self.fixed_ep = config.params
        if config.stack is not None:
            self._price_stack(0)
        insurer = AccountId(Role.INSURER_WALLET, _INSURER_ID)
        user = AccountId(Role.USER_WALLET, _USER_ID)
        # Each agent's (agent, insurer, user) wallets, whose deltas are its payoffs.
        self.wallets = {
            a.id: (AccountId(Role.AGENT_WALLET, a.id), insurer, user)
            for a in config.population
        }
        if config.enforcement_enabled:
            fund = _funding(config)
            self.ledger.deposit(user, fund)
            self.ledger.deposit(insurer, fund)
            for agent_wallet, _, _ in self.wallets.values():
                self.ledger.deposit(agent_wallet, fund)
        # One generator, reseeded for every episode from a block of derived
        # seeds; both are made on the first episode.
        self._rng: np.random.Generator | None = None
        self._block, self._seeds = -1, []

    def _price_stack(self, tick: int) -> None:
        """Compose the stack of the certificates live at `tick` and price it;
        it stays as priced until its `expires_at`."""
        spec, params = self.config.stack, self.config.params
        self.stack = compose_stack(
            spec.base_risk, spec.certificates, master=_INSURER_ID, tick=tick,
            layer1_cut=spec.layer1_cut,
        )
        self.fixed_ep = replace(params, P=stack_premium(self.stack, params.L, spec.loading))

    def _episode_rng(self, index: int) -> np.random.Generator:
        """Episode `index`'s generator: the world's one generator, reseeded to
        the stream `np.random.default_rng([seed, index])` gives.

        Seeds are derived a block of `_SEED_BLOCK` indices at a time, never
        past the world's last episode.
        """
        block, offset = divmod(index, _SEED_BLOCK)
        if block != self._block:
            if self._rng is None:
                self._rng = np.random.Generator(np.random.PCG64(0))
            self._seeds.clear()  # free the finished block before building the next
            start = block * _SEED_BLOCK
            stop = min(start + _SEED_BLOCK, self.config.episodes)
            self._block, self._seeds = block, _seed_states(self.config.seed, start, stop)
        state, inc = self._seeds[offset]
        self._rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        return self._rng

    # -- per-episode decisions -------------------------------------------

    def _agent_action(
        self,
        profile: StrategyProfile | None,
        ep: MechanismParams,
        rng: np.random.Generator,
    ) -> AgentAction:
        """The agent's move; `profile` is the solved game, None when
        enforcement is off and no game is played."""
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
        """The solver's choices with the behavior policies written over them."""
        policy = self.config.policy
        malicious = self._agent_action(profile, ep, rng) is AgentAction.MALICIOUS
        if policy.user is UserPolicy.RATIONAL_SPE:
            if malicious:
                claims, escalation = profile.claims_when_harmed, profile.escalate_valid
            else:
                claims, escalation = profile.claims_when_unharmed, profile.escalate_invalid
            escalates = escalation is EscalationChoice.ESCALATE
        else:
            claims = escalates = policy.user is UserPolicy.ALWAYS_CLAIM
        if policy.insurer is not InsurerPolicy.RATIONAL_SPE:
            accepts = policy.insurer is InsurerPolicy.ALWAYS_ACCEPT
        else:
            # Without audit access the insurer only has its posterior.
            valid = malicious if agent.audit_access_granted else (
                self.posteriors[agent.id].mean >= 0.5
            )
            response = profile.respond_valid if valid else profile.respond_invalid
            accepts = response is InsurerResponse.ACCEPT
        return path_of(malicious, claims, accepts, escalates)

    # -- episode ----------------------------------------------------------

    def run_episode(self, index: int) -> EpisodeRecord:
        config = self.config
        agent = config.population[index % len(config.population)]
        rng = self._episode_rng(index)
        record = EpisodeRecord(index=index, agent_id=agent.id, insurer_id=_INSURER_ID)
        tick0 = index * _TICKS_PER_EPISODE
        if self.stack is not None and tick0 >= self.stack.expires_at:
            self._price_stack(tick0)

        fixed = self.fixed_ep
        gain = min(agent.gain.draw(rng), MAX_AMOUNT // 8)
        if config.pricing == "experience" and config.enforcement_enabled:
            premium = price_premium(self.posteriors[agent.id], fixed.L, config.loading)
        else:
            premium = fixed.P
        if gain == fixed.G and premium == fixed.P:
            ep = fixed
        else:
            ep = replace(config.params, G=gain, P=premium)

        if not config.enforcement_enabled:
            action = self._agent_action(None, ep, rng)
            record.action = action.value
            record.misbehaved = action is AgentAction.MALICIOUS
            record.payoff_agent, record.payoff_insurer, record.payoff_user = (
                _payoffs(ep, path_of(record.misbehaved, False, False, False), [0, 0, 0])
            )
            return record

        if not decide_purchase(agent, premium, ep):
            record.excluded = True
            return record

        path = self._episode_path(_solved_profile(ep), agent, ep, rng)
        try:
            policy, claim, deltas = self._settle(agent, ep, path, index)
        except LedgerError:
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
        record.payoff_agent, record.payoff_insurer, record.payoff_user = (
            _payoffs(ep, path, deltas)
        )
        observed = _caught(path) or (record.misbehaved and agent.audit_access_granted)
        self.posteriors[agent.id] = update_posterior(self.posteriors[agent.id], observed)
        return record

    def _settle(
        self, agent: AgentProfile, ep: MechanismParams, path: TerminalPath, index: int
    ) -> tuple[PolicyRecord, ClaimRecord | None, list[int]]:
        """Underwrite episode `index` at `ep.P`, the premium its game is solved
        at, and play `path` on it in one atomic block. Returns the policy, the
        claim (None on a no-claim path) and the (agent, insurer, user) deltas."""
        ledger, wallets = self.ledger, self.wallets[agent.id]
        policy_id, tick0 = f"ep-{index}", index * _TICKS_PER_EPISODE
        expiry_tick = tick0 + _TICKS_PER_EPISODE - 1
        before = [ledger.balance(w) for w in wallets]
        with ledger.atomic():
            if self.stack is not None:
                policy = underwrite_stack(
                    ledger, agent.id, self.stack, policy_id=policy_id, coverage=ep.L,
                    deductible=ep.S_A, bond=ep.B, premium=ep.P,
                    claim_deadline=_TICKS_PER_EPISODE, expiry_tick=expiry_tick, tick=tick0,
                )
            else:
                policy = ledger.underwrite(
                    policy_id, agent.id, _INSURER_ID, coverage=ep.L, deductible=ep.S_A,
                    premium=ep.P, bond=ep.B, claim_deadline=_TICKS_PER_EPISODE,
                    expiry_tick=expiry_tick, tick=tick0,
                )
            claim = play_path(
                ledger, policy, path, _USER_ID, ep,
                claim_bond=self.config.claim_bond, tick=tick0,
            )
        return policy, claim, [ledger.balance(w) - b for w, b in zip(wallets, before)]


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
        # Every record names the one insurer; none pays a premium unenforced.
        market_concentration={_INSURER_ID: 1.0} if config.enforcement_enabled and n else {},
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
    """Settle one terminal game path as the only episode of a one-agent world.

    Returns (pi_A, pi_I, pi_U) measured as wallet deltas plus the exogenous
    harm/gain/future-value components, for direct comparison against
    leaf_payoffs.
    """
    config = ScenarioConfig(seed=0, episodes=1, params=params,
                            population=(AgentProfile(id="agent"),), claim_bond=claim_bond)
    _, _, deltas = _World(config)._settle(config.population[0], params, path, 0)
    return _payoffs(params, path, deltas)


# -- parameter sweeps ------------------------------------------------------


def sweep_configs(
    config: ScenarioConfig, grid: list[tuple[str, list[int]]]
) -> list[ScenarioConfig]:
    """Every grid cell's config, row-major, each built and validated.

    `grid` maps distinct MechanismParams field names to value lists. An
    empty grid or axis and an unknown or repeated name raise ValueError; a
    malformed cell raises ScenarioError naming the cell.
    """
    if not grid or any(not values for _, values in grid):
        raise ValueError("sweep grid must be non-empty in every dimension")
    names = [name for name, _ in grid]
    known = {f.name for f in fields(MechanismParams)}
    for i, name in enumerate(names):
        if name not in known:
            raise ValueError(f"unknown grid parameter {name!r}")
        if name in names[:i]:
            raise ValueError(f"grid parameter {name!r} is repeated")
    configs = []
    for values in itertools.product(*(values for _, values in grid)):
        cell = dict(zip(names, values))
        try:
            cell_config = replace(config, params=replace(config.params, **cell))
            cell_config.validate()
        except ValueError as exc:
            where = ", ".join(f"{name}={_grid_value(v)}" for name, v in cell.items())
            raise ScenarioError(f"sweep cell {where}", str(exc)) from None
        configs.append(cell_config)
    return configs


def _grid_value(value) -> str:
    """A grid value in currency units, or as given if it is no amount."""
    try:
        return format_units(value)
    except MoneyError:
        return repr(value)


def sweep(
    config: ScenarioConfig,
    grid: list[tuple[str, list[int]]],
    jobs: int = 1,
) -> list[dict]:
    """One scenario run per grid cell, in deterministic grid order.

    The cartesian product of `grid` is evaluated row-major. Every cell's
    config comes from `sweep_configs` before any cell runs, so a malformed
    cell runs nothing. Cells are independent and may run concurrently; the
    output order never depends on `jobs`.
    """
    names = [name for name, _ in grid]
    configs = sweep_configs(config, grid)

    def run_cell(cell_config: ScenarioConfig) -> dict:
        params = cell_config.params
        report = run_scenario(cell_config)
        row = {name: getattr(params, name) for name in names}
        row["predicted"] = predict_honest_equilibrium(params)
        row["misbehavior_rate"] = report.misbehavior_rate
        row["dispute_rate"] = report.dispute_rate
        row["verifier_invocations"] = report.verifier_invocations
        return row

    if jobs <= 1:
        return [run_cell(cell_config) for cell_config in configs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_cell, configs))


# -- scenario (de)serialization -------------------------------------------


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed scenario document.

    Raises ScenarioError with a field path on any malformed input. A field
    takes only its own JSON type: no string stands in for a number and no
    boolean for a number or a string.
    """
    def need(key: str):
        if key not in doc:
            raise ScenarioError(key, "missing required field")
        return doc[key]

    def money(value, path: str) -> int:
        of_type(value, path, (int, float), "a number")
        try:
            return units(value)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(path, str(exc)) from None

    def of_type(value, path: str, kind: type, what: str):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ScenarioError(path, f"must be {what}, got {value!r}")
        return value

    def integer(value, path: str) -> int:
        return of_type(value, path, int, "an integer")

    def number(value, path: str) -> float:
        try:
            return float(of_type(value, path, (int, float), "a number"))
        except OverflowError as exc:
            raise ScenarioError(path, str(exc)) from None

    def text(value, path: str) -> str:
        return of_type(value, path, str, "a string")

    def flag(value, path: str) -> bool:
        return of_type(value, path, bool, "true or false")

    def obj(value, path: str) -> dict:
        return of_type(value, path, dict, "an object")

    def build(path: str, cls, *args, **kwargs):
        """cls(...), with a ValueError from its own checks reported at `path`."""
        try:
            return cls(*args, **kwargs)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from None

    obj(doc, "$")
    version = doc.get("schema_version")
    if version != 1:
        raise ScenarioError("schema_version", f"unsupported version {version!r}")

    raw_params = obj(need("params"), "params")
    param_fields = {}
    for name in ("L", "G", "S_A", "S_I", "B", "F", "R", "V_future"):
        if name not in raw_params:
            raise ScenarioError(f"params.{name}", "missing required field")
        param_fields[name] = money(raw_params[name], f"params.{name}")
    for name in ("P", "Pi_honest"):
        if name in raw_params:
            param_fields[name] = money(raw_params[name], f"params.{name}")
    params = build("params", MechanismParams, **param_fields)

    raw_population = need("population")
    if not isinstance(raw_population, list) or not raw_population:
        raise ScenarioError("population", "must be a non-empty list")
    population = []
    for i, entry in enumerate(raw_population):
        path = f"population[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ScenarioError(path, "each profile needs an 'id'")
        agent_id = text(entry["id"], f"{path}.id")
        if any(agent.id == agent_id for agent in population):
            # Profiles with one id would share a posterior and a wallet.
            raise ScenarioError(f"{path}.id", f"duplicate id {agent_id!r}")
        gain_doc = obj(
            entry.get("gain", {"kind": "fixed", "mean": raw_params.get("G", 0)}),
            f"{path}.gain",
        )
        gain = build(
            f"{path}.gain", GainModel, kind=gain_doc.get("kind", "fixed"),
            mean=money(gain_doc.get("mean", 0), f"{path}.gain.mean"),
        )
        population.append(build(  # theta is the only field AgentProfile checks
            f"{path}.theta", AgentProfile, id=agent_id,
            theta=number(entry.get("theta", 0.0), f"{path}.theta"),
            gain=gain,
            audit_access_granted=flag(
                entry.get("audit_access", True), f"{path}.audit_access"
            ),
        ))

    raw_policy = obj(doc.get("policies", {}), "policies")
    policy = build(
        "policies.opportunistic_p", BehaviorPolicy,  # its only checked field
        agent=build("policies.agent", AgentPolicy,
                    raw_policy.get("agent", "rational_spe")),
        user=build("policies.user", UserPolicy, raw_policy.get("user", "rational_spe")),
        insurer=build("policies.insurer", InsurerPolicy,
                      raw_policy.get("insurer", "rational_spe")),
        opportunistic_p=number(
            raw_policy.get("opportunistic_p", 0.0), "policies.opportunistic_p"
        ),
    )

    stack_spec = None
    if doc.get("stack") is not None:
        raw_stack = obj(doc["stack"], "stack")
        if "base_risk" not in raw_stack:
            raise ScenarioError("stack.base_risk", "missing required field")
        raw_certs = of_type(raw_stack.get("certificates", []), "stack.certificates",
                            list, "a list")
        certs = []
        for j, c in enumerate(raw_certs):
            path = f"stack.certificates[{j}]"
            obj(c, path)
            for key in ("issuer", "domain", "discount"):
                if key not in c:
                    raise ScenarioError(f"{path}.{key}", "missing required field")
            issuer = text(c["issuer"], f"{path}.issuer")
            if issuer == _INSURER_ID:
                # The master would pay its own layer-1 share: `pay` refuses that.
                raise ScenarioError(f"{path}.issuer",
                                    f"{issuer!r} is the master insurer's id")
            expiry_tick = c.get("expiry_tick")
            certs.append(build(
                f"{path}.discount", Certificate,
                issuer=issuer,
                domain=text(c["domain"], f"{path}.domain"),
                risk_discount=number(c["discount"], f"{path}.discount"),
                expiry_tick=(None if expiry_tick is None
                             else integer(expiry_tick, f"{path}.expiry_tick")),
            ))
        stack_spec = StackSpec(
            base_risk=number(raw_stack["base_risk"], "stack.base_risk"),
            certificates=tuple(certs),
            layer1_cut=number(raw_stack.get("layer1_cut", 0.2), "stack.layer1_cut"),
            loading=number(raw_stack.get("loading", 0.0), "stack.loading"),
        )

    config = ScenarioConfig(
        seed=integer(need("seed"), "seed"),
        episodes=integer(need("episodes"), "episodes"),
        params=params,
        population=tuple(population),
        policy=policy,
        enforcement_enabled=flag(
            doc.get("enforcement_enabled", True), "enforcement_enabled"
        ),
        claim_bond=money(doc.get("claim_bond", 0), "claim_bond"),
        pricing=text(doc.get("pricing", "flat"), "pricing"),
        loading=number(doc.get("loading", 0.0), "loading"),
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
        except UnicodeDecodeError as exc:
            raise ScenarioError("$", f"not UTF-8 text: {exc.reason}") from None
        except RecursionError:
            raise ScenarioError("$", "JSON nested too deeply to parse") from None
    return scenario_from_dict(doc)
