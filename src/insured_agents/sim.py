"""Seeded episode engine tying strategic or behavioral agents to the ledger.

One episode is a full insured interaction: underwriting, the agent's
honest/malicious choice, an optional claim, an optional escalation to the
verifier, and policy close-out. Every episode draws from its own RNG
stream derived from (scenario seed, episode index), so results are
independent of execution order and a (config, seed) pair fully determines
every report field. That stream is exactly `np.random.default_rng([seed,
index])`'s, but no episode builds a generator: the world derives the seeds
of a block of episodes at once (`_seed_states`), and an episode's
`_EpisodeStream` draws its uniforms from its seed in Python ints. Only a
drawn gain hands the stream to the world's one numpy generator, so a run
whose gains are fixed never imports `numpy.random`.

An enforced episode first picks the `ALL_PATHS` member it will play: the
solver's choices with the behavior policies written over them. A world
whose agent, user and insurer policies are all behavioral reads no choice
of the solver's, so its episodes solve no game. Otherwise the profile is
solved once per distinct episode parameter set and kept in a bounded memo
(`_solved_profile`). Each population member has one `_AgentState`, which
holds the largest quote it buys at (`market.max_quote`), so a purchase is
one comparison, and the `_Settlement` of each path it plays under the
pricing. A drawn gain and a quoted premium stay ints: params are built
only to key a game to solve, or for the checked path. `_World._apply`
applies an episode's plan, layer-1 premium shares included, in one
`Ledger.apply_plan` call. The plan (`_settlement_plan`) is recorded once
per path and pattern of zero amounts from a real `_play_episode` on a
scratch ledger, so there is one choreography. An episode whose wallets
cannot fund its plan, or whose amounts are too many to plan, takes the
checked path: `_play_episode` underwrites it, `play_path` drives the path
and the policy retires, in one atomic block, so shortfalls and clamps are
as they always were and an aborted episode leaves the ledger as it found it.
`replay_game_path`, which criterion 6 checks against the game tree, settles
its path as the only episode of a one-agent world through the same step.

Every episode is decided in one loop, `_World._play`. A pricing period
whose episodes all settle exactly, read no posterior and are funded in
full by the balances at its start (`_World._proven`) is counted: a planned
settlement then goes to its agent's tally, and the tallies reach the
ledger as one `apply_plan` per (agent, settlement), with a count, when the
period ends, and before anything that reads a real balance.

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
from dataclasses import asdict, dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .game import (
    ALL_PATHS,
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
    FEE_SINK,
    AccountId,
    ClaimRecord,
    ClaimState,
    Ledger,
    LedgerError,
    PolicyRecord,
    PolicyStatus,
    Role,
    SettlementPlan,
    TransferCount,
)
from .market import (
    AgentProfile,
    Certificate,
    GainModel,
    InsurerStack,
    compose_stack,
    layer1_shares,
    loaded_premium,
    max_premium,
    max_quote,
    stack_premium,
    underwrite_stack,
)
from .mechanism import FIELDS, REQUIRED, SIGNED, MechanismParams
from .money import MAX_AMOUNT, MoneyError, check_amount, format_units, units


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

    def __post_init__(self) -> None:
        """Every rule a scenario obeys, however it is built: each violation
        raises ScenarioError at the field path a scenario file gives it."""
        if self.seed < 0 or self.seed >= 2**64:
            raise ScenarioError("seed", "must be an unsigned 64-bit integer")
        if self.episodes < 1:
            raise ScenarioError("episodes", "must be at least 1")
        if not self.population:
            raise ScenarioError("population", "must list at least one agent profile")
        ids = set()
        for i, agent in enumerate(self.population):
            if agent.id in ids:
                # Profiles with one id would share a posterior and a wallet.
                raise ScenarioError(f"population[{i}].id", f"duplicate id {agent.id!r}")
            ids.add(agent.id)
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
            domains = set()
            for j, cert in enumerate(stack.certificates):
                if cert.issuer == _INSURER_ID:
                    # The master would pay its own layer-1 share: `pay` refuses that.
                    raise ScenarioError(f"stack.certificates[{j}].issuer",
                                        f"{cert.issuer!r} is the master insurer's id")
                if not cert.domain:
                    raise ScenarioError(f"stack.certificates[{j}].domain", "must not be empty")
                if cert.domain in domains:
                    # It would discount the risk twice and pay two layer-1 shares.
                    raise ScenarioError(f"stack.certificates[{j}].domain",
                                        f"duplicate domain {cert.domain!r}")
                domains.add(cert.domain)
        for path, loading in loadings:
            try:
                premium = max_premium(self.params.L, loading)
            except ValueError as exc:
                raise ScenarioError(path, str(exc)) from None
            if premium > MAX_AMOUNT:
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
_MASK64 = (1 << 64) - 1
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


class _EpisodeStream:
    """An episode's draws: the stream of `np.random.default_rng([seed,
    index])`, from the PCG64 (state, inc) that `_seed_states` derives.

    `random()` steps PCG64's 128-bit LCG in Python ints and applies its
    XSL-RR output and numpy's `(x >> 11) * 2**-53`, so an episode that draws
    only uniforms builds no generator. Its first other draw hands the
    stream's current state to a numpy `Generator`, made once per stream,
    which serves the rest of that episode.
    """

    __slots__ = ("state", "inc", "serving", "_generator")

    def __init__(self) -> None:
        self.state = self.inc = 0
        self.serving: np.random.Generator | None = None  # this episode's, once handed
        self._generator: np.random.Generator | None = None

    def random(self) -> float:
        if self.serving is not None:
            return self.serving.random()
        self.state = state = (self.state * _PCG64_MULTIPLIER + self.inc) & _MASK128
        high = state >> 64
        word, rot = (high ^ state) & _MASK64, high >> 58
        return (((word >> rot | word << (64 - rot)) & _MASK64) >> 11) * 2.0**-53

    def geometric(self, p: float) -> int:
        serving = self.serving
        if serving is None:  # hand the stream on from where it stands
            serving = self._generator
            if serving is None:
                serving = self._generator = np.random.Generator(np.random.PCG64(0))
            serving.bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": self.state, "inc": self.inc},
                "has_uint32": 0, "uinteger": 0,
            }
            self.serving = serving
        return serving.geometric(p)


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
    reputation cost, claim bond and the most premium its pricing quotes (P,
    else `max_premium` at the experience or stack loading), plus one unit."""
    p, premium = config.params, config.params.P
    if config.pricing == "experience" or config.stack is not None:
        loading = config.loading if config.pricing == "experience" else config.stack.loading
        premium = max_premium(p.L, loading)
    return p.L + p.S_A + p.B + p.F + p.R + premium + config.claim_bond + units(1)


def _funding(config: ScenarioConfig) -> int:
    """Each wallet's deposit: every episode's obligations plus L, capped at
    `_FUNDING_CAP` (which `ScenarioConfig` keeps one episode's obligations under)."""
    total = config.episodes * _obligations(config) + config.params.L
    return min(total, _FUNDING_CAP)


class _Settlement(NamedTuple):
    """How an agent's episodes settle `path` under the pricing: the plan
    (None if there is none) and its totals with each amount a quoted premium
    changes at 0, listed in `linear` as (slot, field, times paid, net); the
    record's fields, at index 0, and the observation. If `exact` (gain and
    premium fixed by the pricing) the fields are the whole record but its
    index; otherwise they are at a gain and premium of 0, and an episode
    sets its premium and adds its deltas and gain to their payoffs."""

    path: TerminalPath
    plan: SettlementPlan | None
    totals: tuple[list[int], list[int]] | None = None
    linear: tuple[tuple[int, int, int, int], ...] = ()
    fields: dict | None = None
    observed: bool = False
    exact: bool = False

    def record(self, index: int) -> EpisodeRecord:
        """Episode `index`'s record: a copy of the fields, without `__init__`."""
        record = object.__new__(EpisodeRecord)
        vars(record).update(self.fields)
        record.index = index
        return record


class _AgentState:
    """A population member in a world: its `AgentProfile`, settlement wallets
    (agent, insurer, user, then a priced stack's layer-1 issuers), posterior
    counts [alpha, beta], gain where no draw changes it (else None) and
    `max_quote`. `_price_terms` empties the rest: its solved profile where
    gain and premium are fixed, and each `_Settlement` it has played, keyed
    by its action in a `countable` world, else by its path's `id` (kept
    alive by the entry: a path hashes in Python) and, if premiums are
    quoted, by which of P and the layer-1 shares are 0. `tally` counts a
    counted period's episodes per key until they are applied."""

    __slots__ = ("agent", "wallets", "counts", "gain", "max_quote", "profile", "settlements",
                 "tally")

    def __init__(self, agent: AgentProfile, params: MechanismParams, insurer: AccountId,
                 user: AccountId) -> None:
        self.agent = agent
        self.wallets = (AccountId(Role.AGENT_WALLET, agent.id), insurer, user)
        self.counts = [1, 1]
        self.gain = None if agent.gain.drawn else min(agent.gain.mean, MAX_AMOUNT // 8)
        self.max_quote = max_quote(agent, params)
        self.profile: StrategyProfile | None = None
        self.settlements: dict = {}
        self.tally: dict = {}


class _World:
    """Mutable scenario state: the ledger, each agent's `_AgentState` and
    the priced stack. An episode's ticks follow from its index.

    The ledger keeps only open books: it counts its transfers, and each
    settled episode's policy retires, so the world's memory does not grow
    with the number of episodes.

    `run` plays a pricing period at a time, in one `_play` call. A period
    it can prove (`_proven`) is counted: each agent's `tally` counts its
    episodes per settlement, and `_flush` applies each in one ledger call.
    Any other episode is settled at once, after the tallies, on real balances.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        policy, population = config.policy, config.population
        # Whether any policy plays the solved game; if none does, no episode
        # solves it.
        self.solves = (
            policy.agent is AgentPolicy.RATIONAL_SPE
            or policy.user is UserPolicy.RATIONAL_SPE
            or policy.insurer is InsurerPolicy.RATIONAL_SPE
        )
        # Whether a period may be counted: every insured episode settles
        # exactly (gain and premium fixed) and none reads a posterior, so
        # its path follows from the agent's action alone.
        self.countable = (
            config.enforcement_enabled and config.pricing == "flat"
            and not any(agent.gain.drawn for agent in population)
            and (policy.insurer is not InsurerPolicy.RATIONAL_SPE
                 or all(agent.audit_access_granted for agent in population))
        )
        self._counted_from: int | None = None  # the first episode tallied, if any is
        # `_malicious`'s terms, read once: the chance the agent is tempted (None:
        # always) and the gain above which it misbehaves (None: as the game says).
        p, enforced = config.params, config.enforcement_enabled
        self._agent_rule = {
            AgentPolicy.OPPORTUNISTIC: (policy.opportunistic_p, p.Pi_honest + (
                p.S_A + p.V_future if enforced else 0)),
            AgentPolicy.RATIONAL_SPE: (None, None if enforced else p.Pi_honest),
            AgentPolicy.ALWAYS_HONEST: (None, math.inf),
            AgentPolicy.ALWAYS_MALICIOUS: (None, -math.inf),
        }[policy.agent]
        self.ledger = Ledger(transfers=TransferCount())
        insurer = AccountId(Role.INSURER_WALLET, _INSURER_ID)
        user = AccountId(Role.USER_WALLET, _USER_ID)
        # Episode `index` is played by `states[index % len(states)]`.
        self.states = [_AgentState(a, config.params, insurer, user)
                       for a in config.population]
        self.stack: InsurerStack | None = None
        # The params of every episode at the scenario's gain and its flat or
        # stack premium, built once per pricing: under flat pricing, the
        # scenario's own, so such an episode validates nothing.
        self.fixed_ep = config.params
        if config.stack is not None:
            self._price_stack(0)
        else:
            self._price_terms()
        if config.enforcement_enabled:
            fund = _funding(config)
            self.ledger.deposit(user, fund)
            self.ledger.deposit(insurer, fund)
            for state in self.states:
                self.ledger.deposit(state.wallets[0], fund)
        # One stream, set to each episode's seed from a block of derived
        # seeds, which the first episode derives.
        self._stream = _EpisodeStream()
        self._block, self._seeds = -1, []

    def _episode_params(self, gain: int, premium: int) -> MechanismParams:
        """The scenario's params at an episode's drawn gain and its premium.

        `fixed_ep` itself when both match it. Otherwise a new set built by
        the constructor, not by `replace`: its fields are `fixed_ep`'s, which
        differ from the scenario's only in a stack's `P`, and `__post_init__`
        checks every field as `replace` would.
        """
        fixed = self.fixed_ep
        if gain == fixed.G and premium == fixed.P:
            return fixed
        return MechanismParams(
            L=fixed.L, G=gain, S_A=fixed.S_A, S_I=fixed.S_I, B=fixed.B, F=fixed.F,
            R=fixed.R, V_future=fixed.V_future, P=premium, Pi_honest=fixed.Pi_honest,
        )

    def _pricing_until(self, index: int) -> int:
        """Price the stack again if a certificate has expired by episode
        `index`; return the first episode past the pricing it runs at."""
        stack, episodes = self.stack, self.config.episodes
        if stack is None:
            return episodes
        tick0 = index * _TICKS_PER_EPISODE
        if tick0 >= stack.expires_at:
            self._price_stack(tick0)
        expiry = self.stack.expires_at
        if expiry >= episodes * _TICKS_PER_EPISODE:
            return episodes
        return -int(-expiry // _TICKS_PER_EPISODE)

    def _price_stack(self, tick: int) -> None:
        """Apply the tallies, then compose the stack of the certificates live
        at `tick` and price it; it stays as priced until its `expires_at`."""
        self._flush()
        spec, params = self.config.stack, self.config.params
        self.stack = compose_stack(
            spec.base_risk, spec.certificates, master=_INSURER_ID, tick=tick,
            layer1_cut=spec.layer1_cut,
        )
        self.fixed_ep = replace(params, P=stack_premium(self.stack, params.L, spec.loading))
        self._price_terms()

    def _price_terms(self) -> None:
        """Set the amounts at the flat or stack premium, give each agent's
        wallets the stack's issuers, and empty its profile and settlements."""
        stack = self.stack
        self.amounts = self._amounts(self.fixed_ep.P)
        issuers = () if stack is None else tuple(
            AccountId(Role.INSURER_WALLET, issuer) for issuer, _ in stack.premium_shares)
        for state in self.states:
            state.wallets = (*state.wallets[:3], *issuers)
            state.profile, state.settlements = None, {}

    def _amounts(self, premium: int) -> tuple[int, ...]:
        """An episode's amounts at `premium`: (L, S_A, P, B, F, R, claim
        bond), then each layer-1 issuer's share of P under the stack as priced."""
        p, stack = self.fixed_ep, self.stack
        shares = () if stack is None else layer1_shares(stack, premium)
        return (p.L, p.S_A, premium, p.B, p.F, p.R, self.config.claim_bond, *shares)

    def _episode_rng(self, index: int) -> _EpisodeStream:
        """Episode `index`'s draws: the world's one stream, set to the stream
        `np.random.default_rng([seed, index])` gives.

        Seeds are derived a block of `_SEED_BLOCK` indices at a time, never
        past the world's last episode.
        """
        block, offset = divmod(index, _SEED_BLOCK)
        if block != self._block:
            self._seeds.clear()  # free the finished block before building the next
            start = block * _SEED_BLOCK
            stop = min(start + _SEED_BLOCK, self.config.episodes)
            self._block, self._seeds = block, _seed_states(self.config.seed, start, stop)
        stream = self._stream
        stream.state, stream.inc = self._seeds[offset]
        stream.serving = None
        return stream

    # -- per-episode decisions -------------------------------------------

    def _malicious(self, profile: StrategyProfile | None, gain: int,
                   rng: _EpisodeStream) -> bool:
        """Whether the agent misbehaves at its drawn `gain`; `profile` is the
        solved game, None when no episode solves one (enforcement off, or
        every policy behavioral)."""
        tempted, threshold = self._agent_rule
        if tempted is not None and rng.random() >= tempted:
            return False
        if threshold is None:  # a rational agent under enforcement plays the game
            return profile.agent is AgentAction.MALICIOUS
        return gain > threshold

    def _episode_path(self, profile: StrategyProfile | None, state: _AgentState,
                      malicious: bool) -> TerminalPath:
        """The path of `state`'s episode whose agent acts `malicious`ly: the
        solver's choices with the behavior policies written over them;
        `profile` is None when every policy is behavioral and none reads it."""
        policy = self.config.policy
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
            # Without audit access the insurer only has its posterior mean,
            # alpha / (alpha + beta), which is at least 1/2 where alpha >= beta.
            alpha, beta = state.counts
            valid = malicious if state.agent.audit_access_granted else alpha >= beta
            response = profile.respond_valid if valid else profile.respond_invalid
            accepts = response is InsurerResponse.ACCEPT
        return path_of(malicious, claims, accepts, escalates)

    # -- episode ----------------------------------------------------------

    def run(self) -> list[EpisodeRecord]:
        """Every episode's record, in order, with the books settled: a
        pricing period at a time, counted if it is `_proven`."""
        records, index, episodes = [], 0, self.config.episodes
        while index < episodes:
            stop = self._pricing_until(index)
            if self._proven(index, stop):
                self._counted_from = index
            self._play(records, index, stop)
            index = stop
        self._flush()
        return records

    def run_episode(self, index: int) -> EpisodeRecord:
        """Play episode `index` on its own and settle it on the ledger."""
        records: list[EpisodeRecord] = []
        self._pricing_until(index)
        self._play(records, index, index + 1)
        return records[0]

    def _proven(self, start: int, stop: int) -> bool:
        """Whether episodes [start, stop), at one pricing, may be counted: the
        world is `countable`, its sink only counts, and each wallet holds now
        the episodes in that span that may touch it times the most any plan
        at the pricing's amounts asks of its slot. Then every tally of them
        is funded, in any order, as each episode would be in turn."""
        if not (self.countable and self.ledger.counting):
            return False
        amounts, states = self.amounts, self.states
        nonzero, asks = tuple(map(bool, amounts)), [0] * (len(states[0].wallets) + 1)
        for path in ALL_PATHS:
            plan = _settlement_plan(path, nonzero)
            if plan is not None:
                asks = list(map(max, asks, plan.totals(amounts)[0]))
        n, need = len(states), {}
        for k, state in enumerate(states):  # an agent's own episodes touch its wallet
            need[state.wallets[0]] = len(range(start + (k - start) % n, stop, n)) * asks[0]
        for wallet, ask in zip((*states[0].wallets[1:], FEE_SINK), asks[1:]):
            # Every episode may touch the others; a wallet in two slots owes both.
            need[wallet] = need.get(wallet, 0) + (stop - start) * ask
        return all(self.ledger.balance(wallet) >= amount for wallet, amount in need.items())

    def _play(self, records: list[EpisodeRecord], start: int, stop: int) -> None:
        """Decide episodes [start, stop), at one pricing, appending their records.
        A counted period tallies each planned settlement and copies its record
        until one has no plan; then the tallies are applied, and `_settle`
        settles the rest, as it does every episode of any other period."""
        config, states, fixed, amounts = self.config, self.states, self.fixed_ep, self.amounts
        n, stream, malicious_at = len(states), self._episode_rng, self._malicious
        quoted, enforced = config.pricing == "experience", config.enforcement_enabled
        premium, solves, countable = fixed.P, self.solves, self.countable
        counting = self._counted_from is not None
        for index in range(start, stop):
            state = states[index % n]
            rng = stream(index)
            gain = state.gain
            if gain is None:
                gain = min(state.agent.gain.draw(rng), MAX_AMOUNT // 8)
            if not enforced:  # no policy, so no premium and no game
                record = EpisodeRecord(index=index, agent_id=state.agent.id, insurer_id=_INSURER_ID)
                path = path_of(malicious_at(None, gain, rng), False, False, False)
                self._record_outcome(record, state.agent, path, gain, 0, None, None, [0, 0, 0])
                records.append(record)
                continue
            if quoted:
                alpha, beta = state.counts
                premium = loaded_premium(alpha, alpha + beta, fixed.L, config.loading)
                amounts = self._amounts(premium)
            if premium > state.max_quote:
                records.append(EpisodeRecord(index=index, agent_id=state.agent.id, excluded=True,
                                             insurer_id=_INSURER_ID))
                continue
            profile = state.profile  # kept only where the pricing fixes gain and premium
            if profile is None and solves:
                profile = _solved_profile(self._episode_params(gain, premium))
                if state.gain is not None and not quoted:
                    state.profile = profile
            malicious = malicious_at(profile, gain, rng)
            if countable:  # the path follows from the action alone
                key = malicious
            else:
                path = self._episode_path(profile, state, malicious)
                key = (id(path), amounts[2] > 0, *map(bool, amounts[7:])) if quoted else id(path)
            settlement = state.settlements.get(key)
            if settlement is None:
                settlement = state.settlements[key] = self._settlement(
                    state.agent, self._episode_path(profile, state, malicious), amounts, quoted,
                    None if quoted else state.gain)  # exact where gain and premium are fixed
            if counting:
                if settlement.plan is not None:
                    state.tally[key] = state.tally.get(key, 0) + 1
                    records.append(settlement.record(index))
                    continue
                self._flush()
                counting = False
            try:
                records.append(self._settle(state, settlement, gain, amounts, index))
            except LedgerError:
                records.append(EpisodeRecord(index=index, agent_id=state.agent.id, aborted=True,
                                             insurer_id=_INSURER_ID))

    def _flush(self) -> None:
        """Apply each agent's tally on each settlement in one ledger call,
        and add its count to the agent's posterior. The period's proof funds
        every tally, so a refusal is a fault in the proof."""
        first, self._counted_from = self._counted_from, None
        for state in self.states:
            for key, count in state.tally.items():
                settlement = state.settlements[key]
                if self._apply(state, settlement, self.amounts, first, count) is None:
                    raise AssertionError(f"a proven tally of {count} episodes was refused")
                state.counts[not settlement.observed] += count
            state.tally.clear()

    def _apply(self, state: _AgentState, settlement: _Settlement, amounts: tuple[int, ...],
               index: int, count: int = 1) -> list[int] | None:
        """Settle `count` of `state`'s episodes, from episode `index`, by
        `settlement`'s plan at `amounts`: the world's one `Ledger.apply_plan`
        call, for a tally and a single episode alike."""
        totals = settlement.totals
        if settlement.linear:  # the totals at each quoted amount
            outflows, nets = totals[0][:], totals[1][:]
            for slot, field, paid, net in settlement.linear:
                outflows[slot] += paid * amounts[field]
                nets[slot] += net * amounts[field]
            totals = outflows, nets
        return self.ledger.apply_plan(settlement.plan, state.wallets, f"ep-{index}", amounts,
                                      index * _TICKS_PER_EPISODE, totals, count)

    def _settlement(self, agent: AgentProfile, path: TerminalPath, amounts: tuple[int, ...],
                    quoted: bool, gain: int | None = None) -> _Settlement:
        """The `_Settlement` of `agent`'s episodes on `path` at `amounts`,
        `quoted` if each episode quotes its premium, exact at a `gain` all share."""
        plan = _settlement_plan(path, tuple(map(bool, amounts)))
        if plan is None:
            return _Settlement(path, None)
        varying = (2, *range(7, len(amounts))) if quoted else ()
        totals = plan.totals([0 if k in varying else a for k, a in enumerate(amounts)])
        linear = tuple((slot, k, pays.count(k), takes.count(k) - pays.count(k))
                       for slot, (pays, takes) in enumerate(plan.flows) for k in varying
                       if k in pays or k in takes)
        record = EpisodeRecord(index=0, agent_id=agent.id, insurer_id=_INSURER_ID)
        exact = gain is not None
        observed = self._record_outcome(
            record, agent, path, gain or 0, amounts[2] if exact else 0, plan.claim_state,
            plan.resolution_ticks, totals[1][:3] if exact else [0, 0, 0])
        # Every field but the index is the same in each episode it settles,
        # and so are the premium and the payoffs if it is exact.
        return _Settlement(path, plan, totals, linear, vars(record), observed, exact)

    def _record_outcome(self, record: EpisodeRecord, agent: AgentProfile, path: TerminalPath,
                        gain: int, premium: int, claim_state: ClaimState | None,
                        resolution_ticks: int | None, deltas: list[int]) -> bool:
        """Fill in `record`, an insured episode at `gain` and `premium` that
        settled `path`; return whether the insurer observed misbehavior."""
        record.action = path.agent.value
        record.misbehaved = misbehaved = path.agent is AgentAction.MALICIOUS
        record.premium_paid = premium
        if claim_state is not None:
            record.claim_filed = True
            record.claim_state = claim_state.value
            record.escalated = record.verifier_invoked = bool(path.escalated)
            record.audit_access_event = (
                self.config.policy.insurer is InsurerPolicy.RATIONAL_SPE
                and agent.audit_access_granted
            )
            if claim_state in (ClaimState.ACCEPTED, ClaimState.UPHELD_VALID):
                record.compensation_paid = self.fixed_ep.L
            record.resolution_ticks = resolution_ticks
        record.payoff_agent, record.payoff_insurer, record.payoff_user = (
            _payoffs(self.fixed_ep, gain, path, deltas)
        )
        return _caught(path) or (misbehaved and agent.audit_access_granted)

    def _settle(self, state: _AgentState, settlement: _Settlement, gain: int,
                amounts: tuple[int, ...], index: int) -> EpisodeRecord:
        """Settle episode `index` by `settlement` at `gain` and `amounts` in
        one ledger call, count it in the agent's posterior and return its
        record. With no plan, or one a wallet cannot fund, `_play_episode`
        plays it through the checked operations at params built for it."""
        ledger, plan, path = self.ledger, settlement.plan, settlement.path
        if plan is not None:
            deltas = self._apply(state, settlement, amounts, index)
            if deltas is not None:
                record = settlement.record(index)
                if not settlement.exact:
                    record.premium_paid = amounts[2]
                    record.payoff_agent += deltas[0] + (gain if record.misbehaved else 0)
                    record.payoff_insurer += deltas[1]
                    record.payoff_user += deltas[2]
                state.counts[not settlement.observed] += 1
                return record
        agent, parties = state.agent, state.wallets[:3]  # their deltas are the payoffs
        before = [ledger.balance(w) for w in parties]
        _, claim = _play_episode(ledger, self.stack, agent.id,
                                 self._episode_params(gain, amounts[2]), path,
                                 self.config.claim_bond, index, amounts[7:])
        deltas = [ledger.balance(w) - b for w, b in zip(parties, before)]
        record = EpisodeRecord(index=index, agent_id=agent.id, insurer_id=_INSURER_ID)
        ticks = None if claim is None else claim.resolved_tick - claim.filed_tick
        observed = self._record_outcome(record, agent, path, gain, amounts[2],
                                        claim and claim.state, ticks, deltas)
        state.counts[not observed] += 1  # alpha counts a misbehavior observed, beta a clean episode
        return record


def _play_episode(
    ledger: Ledger, stack: InsurerStack | None, agent: str, ep: MechanismParams,
    path: TerminalPath, claim_bond: int, index: int, shares: tuple[int, ...],
) -> tuple[PolicyRecord, ClaimRecord | None]:
    """Underwrite episode `index` at `ep.P`, the premium its game is solved
    at, through `stack` if there is one, which pays its issuers `shares`,
    play `path` on it and retire the closed policy, as one atomic block: if
    any step raises, the ledger is left as it was. Returns the policy and
    the claim (None on a no-claim path)."""
    policy_id, tick0 = f"ep-{index}", index * _TICKS_PER_EPISODE
    expiry_tick = tick0 + _TICKS_PER_EPISODE - 1
    with ledger.atomic():
        if stack is not None:
            policy = underwrite_stack(
                ledger, agent, stack, policy_id=policy_id, coverage=ep.L,
                deductible=ep.S_A, bond=ep.B, premium=ep.P,
                claim_deadline=_TICKS_PER_EPISODE, expiry_tick=expiry_tick, tick=tick0,
                shares=shares,
            )
        else:
            policy = ledger.underwrite(
                policy_id, agent, _INSURER_ID, coverage=ep.L, deductible=ep.S_A,
                premium=ep.P, bond=ep.B, claim_deadline=_TICKS_PER_EPISODE,
                expiry_tick=expiry_tick, tick=tick0,
            )
        claim = play_path(ledger, policy, path, _USER_ID, ep, claim_bond=claim_bond,
                          tick=tick0)
        ledger.retire(policy_id)
    return policy, claim


#: The most nonzero amounts a settlement plan is recorded at: the largest
#: marker, 64 ** 9 = 2 ** 54, stays far below `_FUNDING_CAP`.
_MARKED_AMOUNTS = 10


@functools.cache
def _settlement_plan(path: TerminalPath, nonzero: tuple[bool, ...]) -> SettlementPlan | None:
    """The settlement plan of an episode that plays `path` with the amounts
    (L, S_A, P, B, F, R, claim bond, then one premium share per layer-1
    issuer) nonzero where `nonzero` is true, or None if such an episode is
    not planned. The length of `nonzero` so gives the number of issuers.

    The choreography branches on the path and on which amounts are zero, and
    on nothing else of theirs, so one plan serves every episode with the
    same key. It is recorded once per key from a real `_play_episode` on a
    scratch ledger with ample funds, through a stack of as many issuers if
    there are shares, at a marker for each nonzero amount: 64 ** r for the
    r-th of them. A transfer moves one amount, or a stake less what a claim
    took from it: a sum of amounts, each counted between -31 and 32 times.
    Such a sum is written in base 64 with those counts as its digits, and
    that writing is unique, so it equals a marker only if it is that one
    amount: a transfer of one marker names exactly one amount. The episode
    is planned only if every transfer moves one marker between the
    episode's own accounts, no fee is clamped, and each escrow holds a
    non-negative count of every amount at every step (so at any amounts)
    and ends empty. A key with more than `_MARKED_AMOUNTS` nonzero amounts
    is not planned: its markers would not stay far below `_FUNDING_CAP`.
    """
    if sum(nonzero) > _MARKED_AMOUNTS:
        return None
    markers, rank = [], 0
    for used in nonzero:
        markers.append(1 << 6 * rank if used else 0)
        rank += used
    L, S_A, P, B, F, R, claim_bond, *shares = markers
    ep = MechanismParams(L=L, G=0, S_A=S_A, S_I=L, B=B, F=F, R=R, V_future=0, P=P)
    issuers = tuple(AccountId(Role.INSURER_WALLET, f"issuer-{j}") for j in range(len(shares)))
    stack = None
    if shares:  # its fractions are never read: the markers are its shares
        stack = InsurerStack(
            master=_INSURER_ID, layer1=(), residual_risk=1.0, expires_at=math.inf,
            premium_shares=tuple((issuer.owner, Fraction(0)) for issuer in issuers),
        )
    ledger = Ledger(transfers=[])
    parties = (AccountId(Role.AGENT_WALLET, "agent"),
               AccountId(Role.INSURER_WALLET, _INSURER_ID),
               AccountId(Role.USER_WALLET, _USER_ID))
    for wallet in parties:
        ledger.deposit(wallet, _FUNDING_CAP)
    try:
        policy, claim = _play_episode(ledger, stack, "agent", ep, path, claim_bond, 0,
                                      tuple(shares))
    except LedgerError:
        return None
    if ledger.shortfalls:
        return None
    flowing = len(parties) + len(issuers) + 1  # the wallets and the fee sink; escrows follow
    accounts = [*parties, *issuers, FEE_SINK, policy.escrow]
    if claim is not None:
        accounts.append(claim.bond_escrow)
    slot_of = {account: slot for slot, account in enumerate(accounts)}
    field_of = {marker: k for k, marker in enumerate(markers) if marker}
    flows = [([], []) for _ in range(flowing)]  # per wallet or sink: (pays, takes)
    held = [[0] * len(markers) for _ in range(2)]  # per escrow: count of each amount
    moves = []
    for src, dst, amount, tick, memo in ledger.transfers:
        move = (slot_of.get(src), slot_of.get(dst), field_of.get(amount), tick, memo)
        if None in move:
            return None
        moves.append(move)
        field = move[2]
        for slot, sign in ((move[0], -1), (move[1], 1)):
            if slot < flowing:
                flows[slot][sign > 0].append(field)
            else:
                held[slot - flowing][field] += sign
                if held[slot - flowing][field] < 0:
                    return None
    if any(map(any, held)):
        return None
    return SettlementPlan(
        moves=tuple(moves),
        flows=tuple((tuple(pays), tuple(takes)) for pays, takes in flows),
        claim_state=None if claim is None else claim.state,
        resolution_ticks=None if claim is None else claim.resolved_tick - claim.filed_tick,
    )


def run_scenario_with_records(
    config: ScenarioConfig,
) -> tuple[MetricsReport, list[EpisodeRecord]]:
    """Run every episode and aggregate; deterministic given (config, seed)."""
    world = _World(config)
    supply_before = world.ledger.total_supply()
    records = world.run()
    supply_after = world.ledger.total_supply()
    if supply_before != supply_after:  # a raise, so that `python -O` keeps the check
        raise AssertionError("ledger conservation violated in scenario")
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
    params: MechanismParams, gain: int, path: TerminalPath, deltas: list[int]
) -> tuple[int, int, int]:
    """(pi_A, pi_I, pi_U): the (agent, insurer, user) wallet deltas plus the
    exogenous harm, `gain` or honest-path payoff, and future value lost."""
    malicious = path.agent is AgentAction.MALICIOUS
    d_agent, d_insurer, d_user = deltas
    exo_agent = gain if malicious else params.Pi_honest
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
    world, agent = _World(config), config.population[0]
    record = world._settle(world.states[0], world._settlement(agent, path, world.amounts, False),
                           params.G, world.amounts, 0)
    return record.payoff_agent, record.payoff_insurer, record.payoff_user


# -- parameter sweeps ------------------------------------------------------


def sweep_configs(
    config: ScenarioConfig, grid: list[tuple[str, list[int]]]
) -> list[ScenarioConfig]:
    """Every grid cell's config, row-major, each built (and so validated).

    `grid` maps distinct MechanismParams field names to lists of distinct
    values. An empty grid or axis, an unknown or repeated name, a repeated
    value, which would run one cell twice, and a `P` axis under experience
    or stack pricing, which price each episode themselves and so would
    ignore it, raise ValueError; a malformed cell raises ScenarioError
    naming the cell.
    """
    if not grid or any(not values for _, values in grid):
        raise ValueError("sweep grid must be non-empty in every dimension")
    names = [name for name, _ in grid]
    for i, (name, values) in enumerate(grid):
        if name not in FIELDS:
            raise ValueError(f"unknown grid parameter {name!r}")
        if name in names[:i]:
            raise ValueError(f"grid parameter {name!r} is repeated")
        for j, value in enumerate(values):
            if value in values[:j]:
                raise ValueError(f"grid parameter {name!r} repeats the value "
                                 f"{_grid_value(value)}")
    if "P" in names and (config.pricing == "experience" or config.stack is not None):
        pricing = "experience" if config.pricing == "experience" else "stack"
        raise ValueError(f"grid parameter 'P' has no effect under {pricing} pricing, "
                         f"which prices each episode itself")
    configs = []
    for values in itertools.product(*(values for _, values in grid)):
        cell = dict(zip(names, values))
        try:
            cell_config = replace(config, params=replace(config.params, **cell))
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
    """One scenario run per grid cell, in row-major grid order.

    Every cell's config comes from `sweep_configs` before any cell runs, so
    a malformed cell runs nothing. The cells then run one after another on
    the calling thread. `jobs` is the most cells that may run at once, a
    bound that one cell at a time always meets, so the rows never depend
    on it.
    """
    names = [name for name, _ in grid]
    rows = []
    for cell_config in sweep_configs(config, grid):
        params = cell_config.params
        report = run_scenario(cell_config)
        row = {name: getattr(params, name) for name in names}
        row["predicted"] = predict_honest_equilibrium(params)
        row["misbehavior_rate"] = report.misbehavior_rate
        row["dispute_rate"] = report.dispute_rate
        row["verifier_invocations"] = report.verifier_invocations
        rows.append(row)
    return rows


# -- scenario (de)serialization -------------------------------------------


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed scenario document.

    Raises ScenarioError with a field path on any malformed input. This
    checks the document's shape: a field takes only its own JSON type, so no
    string stands in for a number and no boolean for a number or a string.
    The values' own rules belong to the classes built from them, above all
    ScenarioConfig, which holds a config built in code to the same rules.
    """
    def at(path: str, key: str) -> str:
        return key if path == "$" else f"{path}.{key}"

    def need(value: dict, path: str, key: str):
        if key not in value:
            raise ScenarioError(at(path, key), "missing required field")
        return value[key]

    def money(value, path: str, signed: bool = False) -> int:
        of_type(value, path, (int, float), "a number")
        try:
            amount = units(value)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(path, str(exc)) from None
        if amount < 0 and not signed:
            raise ScenarioError(path, f"must be non-negative, got {value!r}")
        return amount

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

    def obj(value, path: str, keys: tuple[str, ...]) -> dict:
        """`value` as an object, each of whose keys is one of `keys`."""
        for key in of_type(value, path, dict, "an object"):
            if key not in keys:
                raise ScenarioError(at(path, key), "unknown field")
        return value

    def build(path: str, cls, *args, **kwargs):
        """cls(...), with a ValueError from its own checks reported at `path`."""
        try:
            return cls(*args, **kwargs)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from None

    version = of_type(doc, "$", dict, "an object").get("schema_version")
    if version != 1:
        raise ScenarioError("schema_version", f"unsupported version {version!r}")
    obj(doc, "$", ("schema_version", "seed", "episodes", "params", "population", "policies",
                   "enforcement_enabled", "claim_bond", "pricing", "loading", "stack"))

    raw_params = obj(need(doc, "$", "params"), "params", FIELDS)
    for name in REQUIRED:
        need(raw_params, "params", name)
    params = MechanismParams(**{
        name: money(value, f"params.{name}", signed=name in SIGNED)
        for name, value in raw_params.items()
    })

    population = []
    raw_population = of_type(need(doc, "$", "population"), "population", list, "a list")
    for i, entry in enumerate(raw_population):
        path = f"population[{i}]"
        obj(entry, path, ("id", "theta", "gain", "audit_access"))
        agent_id = text(need(entry, path, "id"), f"{path}.id")
        gain = GainModel(mean=params.G)
        if "gain" in entry:
            gain_doc = obj(entry["gain"], f"{path}.gain", ("kind", "mean"))
            # The kind alone first, so that each refusal names its own field.
            kind = build(f"{path}.gain.kind", GainModel,
                         kind=gain_doc.get("kind", "fixed")).kind
            gain = build(f"{path}.gain.mean", GainModel, kind=kind,
                         mean=money(gain_doc.get("mean", 0), f"{path}.gain.mean"))
        population.append(build(  # theta is the only field AgentProfile checks
            f"{path}.theta", AgentProfile, id=agent_id,
            theta=number(entry.get("theta", 0.0), f"{path}.theta"),
            gain=gain,
            audit_access_granted=flag(
                entry.get("audit_access", True), f"{path}.audit_access"
            ),
        ))

    raw_policy = obj(doc.get("policies", {}), "policies",
                     ("agent", "user", "insurer", "opportunistic_p"))
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
        raw_stack = obj(doc["stack"], "stack",
                        ("base_risk", "certificates", "layer1_cut", "loading"))
        raw_certs = of_type(raw_stack.get("certificates", []), "stack.certificates",
                            list, "a list")
        certs = []
        for j, c in enumerate(raw_certs):
            path = f"stack.certificates[{j}]"
            obj(c, path, ("issuer", "domain", "discount", "expiry_tick"))
            expiry_tick = c.get("expiry_tick")
            certs.append(build(
                f"{path}.discount", Certificate,
                issuer=text(need(c, path, "issuer"), f"{path}.issuer"),
                domain=text(need(c, path, "domain"), f"{path}.domain"),
                risk_discount=number(need(c, path, "discount"), f"{path}.discount"),
                expiry_tick=(None if expiry_tick is None
                             else integer(expiry_tick, f"{path}.expiry_tick")),
            ))
        stack_spec = StackSpec(
            base_risk=number(need(raw_stack, "stack", "base_risk"), "stack.base_risk"),
            certificates=tuple(certs),
            layer1_cut=number(raw_stack.get("layer1_cut", 0.2), "stack.layer1_cut"),
            loading=number(raw_stack.get("loading", 0.0), "stack.loading"),
        )

    return ScenarioConfig(
        seed=integer(need(doc, "$", "seed"), "seed"),
        episodes=integer(need(doc, "$", "episodes"), "episodes"),
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
