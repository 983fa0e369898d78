"""Double-entry ledger and the policy/claim lifecycle state machine.

Money only ever moves between accounts (wallets, escrows, the verifier
fee sink), so the total supply is invariant under every operation. A
single operation validates before its first transfer: a failed precondition
raises and leaves the ledger untouched. That includes settlements: an
insurer's settlement larger than its policy's remaining escrowed stake is
refused, and a verdict pays at most what the stake holds, so the stake
never goes negative and never eats into the agent's deductible. Several
operations that must succeed or fail as one run in `with ledger.atomic():`,
which copies the open books on entry and, if the block raises, puts the
copy back. Its state is its books (balances, policies, claims, shortfalls)
and the count of claims filed, which numbers the next claim; defaulted
parties are read off the shortfalls. Amounts are checked once, where they
enter an operation; a transfer itself is a plain record.

A transfer costs its two balance writes and one plain tuple, `(src, dst,
amount, tick, memo)` in `Transfer` field order, appended to the sink
`Ledger.transfers` or to an atomic block's journal. A sink is any object
with `append` (one such tuple), `extend` (a sized iterable of them, in
order, which a sink that only counts need not iterate) and `len`. The
default `TransferList` keeps each as a `Transfer`, which is the one place a
`Transfer` is built; a `TransferCount` keeps only how many there were. A
planned settlement (`apply_plan`) costs less: one funding check and one
balance write per wallet, and its transfers handed on in one `extend` as a
`PlannedTransfers` view, which builds their tuples only when iterated.

Each account is named once, where its record is filed: a `PolicyRecord`
carries its agent and insurer wallets and its stake escrow, a `ClaimRecord`
its claimant's wallet and its bond escrow, and later operations read them.
`_require` is the single funding pre-check.

Lifecycle: underwrite -> file_claim -> respond_claim -> [escalate ->
adjudicate] -> expire_policy -> (retire). A policy with an unresolved claim
does not expire; it counts its `open_claims`.
A closed policy whose escrows are empty may retire: it leaves the books with
its claims, so a long run keeps only its open policies. `apply_plan` runs a
whole lifecycle, recorded once from these operations as a `SettlementPlan`,
on a fresh policy id, and leaves it retired: it checks every source against
all it pays out, writes the wallets' net deltas and hands on the plan's
transfers, with the ids and ticks put in, as an operation does. A source
that holds less makes it change nothing, and the caller plays the
operations instead. With a count it settles that many such policies at
once, for a sink that only counts.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sized
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .game import ClaimValidity
from .money import check_amount


class Role(Enum):
    AGENT_WALLET = "agent_wallet"
    INSURER_WALLET = "insurer_wallet"
    USER_WALLET = "user_wallet"
    STAKE_ESCROW = "stake_escrow"
    BOND_ESCROW = "bond_escrow"
    VERIFIER_FEE_SINK = "verifier_fee_sink"

    # Members are singletons, so hashing by identity agrees with equality; it
    # runs in C, where `Enum.__hash__` runs Python on every `AccountId` lookup.
    __hash__ = object.__hash__


class AccountId(NamedTuple):
    role: Role
    owner: str


#: The single system-owned verifier fee sink.
FEE_SINK = AccountId(Role.VERIFIER_FEE_SINK, "system")


class Memo(Enum):
    PREMIUM = "premium"
    STAKE_POST = "stake_post"
    STAKE_RETURN = "stake_return"
    DEDUCTIBLE_POST = "deductible_post"
    DEDUCTIBLE_SEIZE = "deductible_seize"
    COMPENSATION = "compensation"
    BOND_POST = "bond_post"
    BOND_FORFEIT = "bond_forfeit"
    BOND_RETURN = "bond_return"
    VERIFIER_FEE = "verifier_fee"
    CLAIM_BOND = "claim_bond"
    REPUTATION_PENALTY = "reputation_penalty"


class Transfer(NamedTuple):
    """One recorded movement of a positive amount between two accounts."""

    src: AccountId
    dst: AccountId
    amount: int
    tick: int
    memo: Memo


class LedgerError(Exception):
    """Base class for ledger operation failures."""


class InsufficientFunds(LedgerError):
    def __init__(self, party: AccountId, needed: int, available: int):
        self.party = party
        super().__init__(
            f"{party.role.value}:{party.owner} needs {needed} but holds {available}"
        )


class DuplicatePolicy(LedgerError):
    pass


class WrongState(LedgerError):
    pass


class DeadlinePassed(LedgerError):
    pass


class OverCoverage(LedgerError):
    pass


class PolicyInactive(LedgerError):
    pass


class PolicyStatus(Enum):
    ACTIVE = "active"
    EXPIRED = "expired"
    EXHAUSTED = "exhausted"


class ClaimState(Enum):
    FILED = "filed"
    ACCEPTED = "accepted"
    DENIED = "denied"
    ESCALATED = "escalated"
    UPHELD_VALID = "upheld_valid"
    UPHELD_INVALID = "upheld_invalid"
    DROPPED = "dropped"

    __hash__ = object.__hash__  # by identity, in C, as for `Role`


#: Claim transitions; states absent from the map are terminal.
_CLAIM_TRANSITIONS = {
    ClaimState.FILED: {ClaimState.ACCEPTED, ClaimState.DENIED},
    ClaimState.DENIED: {ClaimState.ESCALATED, ClaimState.DROPPED},
    ClaimState.ESCALATED: {ClaimState.UPHELD_VALID, ClaimState.UPHELD_INVALID},
}


@dataclass
class PolicyRecord:
    id: str
    agent: AccountId
    insurer: AccountId
    escrow: AccountId
    bond: int
    claim_deadline: int
    expiry_tick: int
    status: PolicyStatus = PolicyStatus.ACTIVE
    escrowed_stake: int = 0
    escrowed_deductible: int = 0
    open_claims: int = 0  # claims filed and not yet resolved
    claims: tuple[str, ...] = ()  # ids of every claim filed on it


@dataclass
class ClaimRecord:
    id: str
    policy_id: str
    claimant: AccountId
    bond_escrow: AccountId
    amount: int
    validity: ClaimValidity  # ground truth: visible to the verifier and audit access
    state: ClaimState = ClaimState.FILED
    filed_tick: int = 0
    resolved_tick: int | None = None
    claim_bond: int = 0


@dataclass(frozen=True)
class ShortfallEvent:
    """A fee or penalty a party could not fully pay; balance clamped at zero."""

    party: AccountId
    memo: Memo
    shortfall: int
    tick: int


class SettlementPlan(NamedTuple):
    """One settlement of a fresh policy, with its amounts left as fields.

    `moves` are its transfers in order, each `(src slot, dst slot, amount
    field, tick offset, memo)`. With n wallets, the slots are the wallets
    (0 to n - 1: the agent's, the insurer's, the user's, then each layer-1
    issuer's that a stack pays a premium share), the fee sink (n), the
    policy's stake escrow (n + 1) and its claim's bond escrow (n + 2); a
    field indexes the amounts the plan is applied at. `flows` gives, for
    each wallet and the fee sink, the fields it pays out and the fields it
    takes in, so its gross outflow and its net delta. Both escrows end as
    they began, empty. `claim_state` is the claim's terminal state, None on
    a no-claim settlement, and `resolution_ticks` its filed-to-resolved
    ticks.
    """

    moves: tuple[tuple[int, int, int, int, Memo], ...]
    flows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    claim_state: ClaimState | None
    resolution_ticks: int | None

    def totals(self, amounts: tuple[int, ...]) -> tuple[list[int], list[int]]:
        """Each wallet's and the fee sink's gross outflow and net delta at
        `amounts`, in slot order."""
        get = amounts.__getitem__
        outflows, deltas = [], []
        for pays, takes in self.flows:
            paid = sum(map(get, pays))
            outflows.append(paid)
            deltas.append(sum(map(get, takes)) - paid)
        return outflows, deltas


def _claim_id(policy_id: str, number: int) -> str:
    return f"{policy_id}/claim-{number}"


class PlannedTransfers:
    """The transfers of `count` applications of one plan as a sized view: its
    length is `count` times the plan's number of moves, and iterating the
    view of one application builds each transfer's plain tuple, escrow
    accounts included, in the plan's order. A sink that only counts reads
    the length and builds nothing; it is the only sink a larger count goes to."""

    __slots__ = ("moves", "accounts", "amounts", "tick", "policy_id", "claim", "count")

    def __init__(self, moves: tuple, accounts: tuple[AccountId, ...],
                 amounts: tuple[int, ...], tick: int, policy_id: str, claim: int | None,
                 count: int = 1):
        self.moves, self.accounts, self.amounts = moves, accounts, amounts
        self.tick, self.policy_id, self.claim, self.count = tick, policy_id, claim, count

    def __len__(self) -> int:
        return len(self.moves) * self.count

    def __iter__(self) -> Iterator[tuple]:
        policy_id, amounts, tick = self.policy_id, self.amounts, self.tick
        accounts = (*self.accounts, AccountId(Role.STAKE_ESCROW, policy_id),
                    None if self.claim is None
                    else AccountId(Role.BOND_ESCROW, _claim_id(policy_id, self.claim)))
        for src, dst, field, offset, memo in self.moves:
            yield accounts[src], accounts[dst], amounts[field], tick + offset, memo


class TransferList(list):
    """The default transfer sink: it keeps every transfer it is handed, in
    order, as a `Transfer`."""

    __slots__ = ()

    def append(self, transfer: tuple) -> None:
        super().append(Transfer._make(transfer))

    def extend(self, transfers: Iterable[tuple]) -> None:
        super().extend(map(Transfer._make, transfers))


class TransferCount:
    """A transfer sink that keeps only how many transfers it was handed."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def append(self, transfer: tuple) -> None:
        self.count += 1

    def extend(self, transfers: Sized) -> None:
        self.count += len(transfers)

    def __len__(self) -> int:
        return self.count


class Ledger:
    """Single-writer account book with escrowed stakes, bonds and slashing.

    `transfers` is the sink every completed transfer goes to, in order, as a
    plain `(src, dst, amount, tick, memo)` tuple. The default `TransferList`
    keeps them all as `Transfer` records.
    """

    def __init__(self, transfers=None) -> None:
        self.balances: dict[AccountId, int] = {FEE_SINK: 0}
        self.transfers = TransferList() if transfers is None else transfers
        self.policies: dict[str, PolicyRecord] = {}
        self.claims: dict[str, ClaimRecord] = {}
        self.shortfalls: list[ShortfallEvent] = []
        self.claims_filed = 0  # the last claim's number; retiring keeps it
        # Where `_transfer` writes: the sink, or an atomic block's journal.
        self._log = self.transfers

    # -- accounts ---------------------------------------------------------

    def deposit(self, account: AccountId, amount: int) -> None:
        """Mint initial funds into a wallet. Setup only: changes total supply.
        An atomic block that raises undoes it like any other change."""
        check_amount(amount)
        self.balances[account] = self.balances.get(account, 0) + amount

    def balance(self, account: AccountId) -> int:
        return self.balances.get(account, 0)

    @property
    def defaulted(self) -> set[AccountId]:
        """Every party with a recorded shortfall."""
        return {s.party for s in self.shortfalls}

    @property
    def counting(self) -> bool:
        """Whether the sink only counts (`TransferCount`), so that
        `apply_plan` takes a count above 1."""
        return isinstance(self.transfers, TransferCount)

    def total_supply(self) -> int:
        """Sum of every balance, escrows and sinks included."""
        return sum(self.balances.values())

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """A block that, if it raises, leaves the whole ledger as at entry:
        balances, transfers, policies, claims, each record's fields,
        shortfalls and the count of claims filed, and so the defaulted
        parties and the next claim number. Deposits, retires and applied
        plans inside it are undone with the rest.

        The outermost block copies the open books on entry and puts the copy
        back if it raises; shortfalls only ever grow, so it keeps their count.
        It keeps its own transfers in a journal and hands them to the sink
        only when it succeeds. A nested block joins the outermost one.
        """
        if self._log is not self.transfers:  # already inside a block
            yield
            return
        saved = (dict(self.balances), dict(self.policies), dict(self.claims),
                 len(self.shortfalls), self.claims_filed)
        records = [(record, vars(record).copy())
                   for book in (self.policies, self.claims) for record in book.values()]
        self._log = journal = []
        try:
            yield
        except BaseException:
            self.balances, self.policies, self.claims, n_shortfalls, self.claims_filed = saved
            del self.shortfalls[n_shortfalls:]
            for record, fields in records:
                vars(record).update(fields)
            raise
        finally:
            self._log = self.transfers
        self.transfers.extend(journal)

    def check_invariants(self) -> None:
        """Raise AssertionError unless every balance is non-negative and
        every policy has a non-negative stake, an escrow that holds exactly
        its escrowed stake plus deductible, and `open_claims` equal to its
        claims that are not yet resolved; and unless every claim's bond
        escrow holds its filing bond while the claim is unresolved, plus both
        escalation bonds while it is escalated, and nothing once it is
        resolved. A raise, not an `assert`, so that `python -O` keeps the
        check."""
        for account, amount in self.balances.items():
            if amount < 0:
                raise AssertionError(
                    f"{account.role.value}:{account.owner} holds {amount}")
        unresolved: dict[str, int] = {}
        for claim in self.claims.values():
            bonds = 0
            if claim.state in _CLAIM_TRANSITIONS:  # not yet terminal
                unresolved[claim.policy_id] = unresolved.get(claim.policy_id, 0) + 1
                bonds = claim.claim_bond
                if claim.state is ClaimState.ESCALATED:
                    bonds += 2 * self.policies[claim.policy_id].bond
            held = self.balances.get(claim.bond_escrow, 0)
            if held != bonds:
                raise AssertionError(
                    f"claim {claim.id} bond escrow holds {held}, not {bonds}")
        for policy in self.policies.values():
            if policy.escrowed_stake < 0:
                raise AssertionError(
                    f"policy {policy.id} has stake {policy.escrowed_stake}")
            held = self.balances.get(policy.escrow, 0)
            if held != policy.escrowed_stake + policy.escrowed_deductible:
                raise AssertionError(
                    f"policy {policy.id} escrows {held}, not stake "
                    f"{policy.escrowed_stake} + deductible {policy.escrowed_deductible}")
            if policy.open_claims != unresolved.get(policy.id, 0):
                raise AssertionError(
                    f"policy {policy.id} counts {policy.open_claims} open claim(s), "
                    f"not {unresolved.get(policy.id, 0)}")

    def pay(
        self, src: AccountId, dst: AccountId, amount: int, tick: int, memo: Memo
    ) -> None:
        """Direct wallet-to-wallet payment (e.g. premium revenue sharing)."""
        check_amount(amount)
        if src == dst:
            raise LedgerError("payment source and destination must differ")
        self._transfer(src, dst, amount, tick, memo)

    def _require(self, party: AccountId, amount: int) -> None:
        """The one funding pre-check: refuse before anything moves."""
        available = self.balances.get(party, 0)
        if available < amount:
            raise InsufficientFunds(party, amount, available)

    def _transfer(
        self, src: AccountId, dst: AccountId, amount: int, tick: int, memo: Memo
    ) -> None:
        """Move a checked amount; zero moves nothing and records nothing."""
        if amount == 0:
            return
        available = self.balances.get(src, 0)
        if available < amount:
            raise InsufficientFunds(src, amount, available)
        self.balances[src] = available - amount
        self.balances[dst] = self.balances.get(dst, 0) + amount
        self._log.append((src, dst, amount, tick, memo))

    def _transfer_clamped(
        self, src: AccountId, dst: AccountId, amount: int, tick: int, memo: Memo
    ) -> None:
        """Pay as much as the source holds; record any shortfall."""
        available = self.balances.get(src, 0)
        paid = min(amount, available)
        if paid > 0:
            self._transfer(src, dst, paid, tick, memo)
        if paid < amount:
            self.shortfalls.append(ShortfallEvent(src, memo, amount - paid, tick))

    # -- lifecycle --------------------------------------------------------

    def underwrite(
        self,
        policy_id: str,
        agent: str,
        insurer: str,
        *,
        coverage: int,
        deductible: int,
        premium: int,
        bond: int,
        claim_deadline: int,
        expiry_tick: int,
        tick: int,
    ) -> PolicyRecord:
        """Issue a policy: escrow insurer stake and agent deductible, pay premium.

        The escrowed stake equals the coverage, so the per-policy solvency
        requirement (stake >= coverage) holds by construction. The record
        keeps the stake as `escrowed_stake`; the premium is charged once and
        not kept.
        """
        for amount in (coverage, deductible, premium, bond):
            check_amount(amount)
        if policy_id in self.policies:
            raise DuplicatePolicy(policy_id)
        policy = PolicyRecord(
            id=policy_id,
            agent=AccountId(Role.AGENT_WALLET, agent),
            insurer=AccountId(Role.INSURER_WALLET, insurer),
            escrow=AccountId(Role.STAKE_ESCROW, policy_id),
            bond=bond,
            claim_deadline=claim_deadline,
            expiry_tick=expiry_tick,
            escrowed_stake=coverage,
            escrowed_deductible=deductible,
        )
        self._require(policy.insurer, coverage)
        self._require(policy.agent, premium + deductible)
        self._transfer(policy.insurer, policy.escrow, coverage, tick, Memo.STAKE_POST)
        self._transfer(policy.agent, policy.escrow, deductible, tick, Memo.DEDUCTIBLE_POST)
        self._transfer(policy.agent, policy.insurer, premium, tick, Memo.PREMIUM)
        self.policies[policy_id] = policy
        return policy

    def file_claim(
        self,
        policy_id: str,
        claimant: str,
        amount: int,
        validity: ClaimValidity,
        *,
        claim_bond: int = 0,
        incident_tick: int = 0,
        tick: int = 0,
    ) -> ClaimRecord:
        check_amount(amount)
        check_amount(claim_bond)
        policy = self._policy(policy_id)
        if policy.status is not PolicyStatus.ACTIVE:
            raise PolicyInactive(policy_id)
        if tick > incident_tick + policy.claim_deadline:
            raise DeadlinePassed(
                f"claim at tick {tick} past deadline "
                f"{incident_tick + policy.claim_deadline}"
            )
        if amount > policy.escrowed_stake:
            raise OverCoverage(f"claim {amount} exceeds available coverage")
        claim_id = _claim_id(policy_id, self.claims_filed + 1)
        claim = ClaimRecord(
            id=claim_id,
            policy_id=policy_id,
            claimant=AccountId(Role.USER_WALLET, claimant),
            bond_escrow=AccountId(Role.BOND_ESCROW, claim_id),
            amount=amount,
            validity=validity,
            filed_tick=tick,
            claim_bond=claim_bond,
        )
        self._require(claim.claimant, claim_bond)
        self._transfer(claim.claimant, claim.bond_escrow, claim_bond, tick, Memo.CLAIM_BOND)
        self.claims_filed += 1
        policy.open_claims += 1
        policy.claims += (claim_id,)
        self.claims[claim_id] = claim
        return claim

    def respond_claim(self, claim_id: str, accept: bool, tick: int) -> ClaimRecord:
        """Insurer settles or denies a filed claim.

        On settlement of a valid claim the agent's deductible is seized by
        the insurer; settling an invalid claim leaves the deductible alone
        since no misbehavior occurred. Settling more than the remaining
        stake raises OverCoverage.
        """
        claim = self._claim(claim_id)
        target = ClaimState.ACCEPTED if accept else ClaimState.DENIED
        self._check_transition(claim, target)
        if not accept:
            claim.state = ClaimState.DENIED
            return claim
        policy = self._policy(claim.policy_id)
        if claim.amount > policy.escrowed_stake:
            raise OverCoverage(
                f"claim {claim.id} for {claim.amount} exceeds the remaining "
                f"stake {policy.escrowed_stake}"
            )
        self._compensate(policy, claim, claim.amount, policy.insurer, tick)
        self._resolve(policy, claim, target, tick, claim.claimant)
        self._exhaust_if_depleted(policy, tick)
        return claim

    def escalate(self, claim_id: str, tick: int) -> ClaimRecord:
        """User escalates a denied claim: both sides post the policy bond."""
        claim = self._claim(claim_id)
        self._check_transition(claim, ClaimState.ESCALATED)
        policy = self._policy(claim.policy_id)
        bond = policy.bond
        self._require(claim.claimant, bond)
        self._require(policy.insurer, bond)
        self._transfer(claim.claimant, claim.bond_escrow, bond, tick, Memo.BOND_POST)
        self._transfer(policy.insurer, claim.bond_escrow, bond, tick, Memo.BOND_POST)
        claim.state = ClaimState.ESCALATED
        return claim

    def adjudicate(self, claim_id: str, *, fee: int, reputation_cost: int,
                   tick: int) -> ClaimRecord:
        """Error-free verdict on an escalated claim.

        Both escalation bonds and the claimant's filing bond go to the
        winner, and both parties pay the verifier fee. A valid claim is also
        paid from the insurer's stake, the agent's deductible is slashed to
        the fee sink (the denying insurer is itself being punished and
        collects nothing), and the insurer bears the reputation penalty.
        Fees and penalties that cannot be paid are clamped with a recorded
        shortfall. A valid claim above the remaining stake is paid what the
        stake holds, which exhausts the policy; the claimant bears the rest.
        """
        check_amount(fee)
        check_amount(reputation_cost)
        claim = self._claim(claim_id)
        valid = claim.validity is ClaimValidity.VALID
        target = ClaimState.UPHELD_VALID if valid else ClaimState.UPHELD_INVALID
        self._check_transition(claim, target)
        policy = self._policy(claim.policy_id)
        if valid:
            self._compensate(policy, claim, min(claim.amount, policy.escrowed_stake),
                             FEE_SINK, tick)
        winner = claim.claimant if valid else policy.insurer
        self._transfer(claim.bond_escrow, winner, policy.bond, tick, Memo.BOND_FORFEIT)
        self._transfer(claim.bond_escrow, winner, policy.bond, tick, Memo.BOND_RETURN)
        self._resolve(policy, claim, target, tick, winner)
        self._transfer_clamped(claim.claimant, FEE_SINK, fee, tick, Memo.VERIFIER_FEE)
        self._transfer_clamped(policy.insurer, FEE_SINK, fee, tick, Memo.VERIFIER_FEE)
        if valid:
            self._transfer_clamped(
                policy.insurer, FEE_SINK, reputation_cost, tick, Memo.REPUTATION_PENALTY
            )
            self._exhaust_if_depleted(policy, tick)
        return claim

    def drop_claim(self, claim_id: str, tick: int) -> ClaimRecord:
        """User abandons a denied claim; the filing bond is forfeited."""
        claim = self._claim(claim_id)
        self._check_transition(claim, ClaimState.DROPPED)
        policy = self._policy(claim.policy_id)
        self._resolve(policy, claim, ClaimState.DROPPED, tick, policy.insurer)
        return claim

    def expire_policy(self, policy_id: str, tick: int) -> PolicyRecord:
        """Close out an active policy past expiry; return remaining escrow.

        A policy with an unresolved claim (filed, denied or escalated) does
        not expire: its stake must stay escrowed until the claim settles.
        """
        policy = self._policy(policy_id)
        if policy.status is not PolicyStatus.ACTIVE:
            raise WrongState(f"policy {policy_id} is {policy.status.value}")
        if tick < policy.expiry_tick:
            raise WrongState(
                f"policy {policy_id} expires at {policy.expiry_tick}, tick is {tick}"
            )
        if policy.open_claims:
            raise WrongState(f"policy {policy_id} has {policy.open_claims} open claim(s)")
        self._release_escrow(policy, tick)
        policy.status = PolicyStatus.EXPIRED
        return policy

    def retire(self, policy_id: str) -> None:
        """Drop a closed policy, its claims and their empty escrow accounts
        from the books; it moves no money, so supply is unchanged.

        Only an expired or exhausted policy with no open claim and nothing
        left in its stake or bond escrows retires; otherwise this raises
        WrongState and changes nothing. An atomic block that raises puts a
        policy retired inside it back on the books. A retired id is
        forgotten, so it may be underwritten again as a new policy. Claim
        numbers keep counting from `claims_filed`.
        """
        policy = self.policies.get(policy_id)
        if policy is None:
            raise WrongState(f"unknown policy {policy_id}")
        if policy.status is PolicyStatus.ACTIVE:
            raise WrongState(f"policy {policy_id} is active")
        if policy.open_claims:
            raise WrongState(f"policy {policy_id} has {policy.open_claims} open claim(s)")
        balances, claims = self.balances, self.claims
        escrows = [policy.escrow]
        if policy.claims:
            escrows += [claims[claim_id].bond_escrow for claim_id in policy.claims]
        for account in escrows:
            if balances.get(account, 0):
                raise WrongState(f"{account.role.value}:{account.owner} still holds "
                                 f"{balances[account]}")
        for account in escrows:
            balances.pop(account, None)
        for claim_id in policy.claims:
            del claims[claim_id]
        del self.policies[policy_id]

    def apply_plan(self, plan: SettlementPlan, wallets: tuple[AccountId, ...],
                   policy_id: str, amounts: tuple[int, ...], tick: int,
                   totals: tuple[list[int], list[int]], count: int = 1) -> list[int] | None:
        """Settle a fresh policy `policy_id` by `plan` at `amounts`, from
        `tick`, and leave it retired. `wallets` fill the plan's wallet
        slots: the agent's, the insurer's and the user's, then each layer-1
        issuer's. `totals` is `plan.totals(amounts)`, which the caller keeps
        for many settlements. Returns the balance deltas of the first three.

        Every source must hold its gross outflow in the plan, or this returns
        None and changes nothing; so does a policy id already on the books.
        When each source holds it, the checked operations the plan was
        recorded from would pay every transfer in full and refuse none, so
        only the net deltas are written, and no escrow account or record is
        made. The transfers go where a checked operation's go, as one sized
        `PlannedTransfers` view with the ids and ticks put in: to the sink,
        or to an atomic block's journal, and a block that raises undoes the
        whole plan. A claim advances `claims_filed` as filing one does.

        A `count` above 1 settles that many such policies at once, each
        source checked against `count` times its gross outflow and each
        wallet given `count` times its delta, which it returns. Their
        transfers have no ids or ticks of their own, so only a sink that
        counts (`TransferCount`) takes them, outside an atomic block; any
        other raises ValueError before anything changes.
        """
        if policy_id in self.policies:
            return None
        balances = self.balances
        accounts = (*wallets, FEE_SINK)
        outflows, deltas = totals
        if count != 1:
            if not isinstance(self._log, TransferCount):
                raise ValueError("only a counting sink takes a counted settlement")
            outflows = [paid * count for paid in outflows]
            deltas = [delta * count for delta in deltas]
        for account, paid in zip(accounts, outflows):
            if balances.get(account, 0) < paid:
                return None
        for account, delta, (pays, takes) in zip(accounts, deltas, plan.flows):
            if pays or takes:
                balances[account] = balances.get(account, 0) + delta
        claim = None
        if plan.claim_state is not None:
            self.claims_filed = claim = self.claims_filed + count
        self._log.extend(PlannedTransfers(plan.moves, accounts, amounts, tick, policy_id, claim,
                                          count))
        return deltas[:3]

    # -- internals --------------------------------------------------------

    def _policy(self, policy_id: str) -> PolicyRecord:
        return self._record(self.policies, policy_id, "policy")

    def _claim(self, claim_id: str) -> ClaimRecord:
        return self._record(self.claims, claim_id, "claim")

    @staticmethod
    def _record(book: dict, key: str, kind: str):
        """The record `key` of `book`; an unknown key raises WrongState."""
        record = book.get(key)
        if record is None:
            raise WrongState(f"unknown {kind} {key}")
        return record

    @staticmethod
    def _check_transition(claim: ClaimRecord, target: ClaimState) -> None:
        if target not in _CLAIM_TRANSITIONS.get(claim.state, ()):
            raise WrongState(
                f"claim {claim.id} cannot go {claim.state.value} -> {target.value}"
            )

    def _compensate(self, policy: PolicyRecord, claim: ClaimRecord, amount: int,
                    seize_to: AccountId, tick: int) -> None:
        """Pay `amount`, at most the remaining stake, from the stake escrow to
        the claimant; a valid claim also slashes the agent's deductible to
        `seize_to`."""
        self._transfer(policy.escrow, claim.claimant, amount, tick, Memo.COMPENSATION)
        policy.escrowed_stake -= amount
        if claim.validity is ClaimValidity.VALID and policy.escrowed_deductible > 0:
            self._transfer(policy.escrow, seize_to, policy.escrowed_deductible, tick,
                           Memo.DEDUCTIBLE_SEIZE)
            policy.escrowed_deductible = 0

    def _resolve(self, policy: PolicyRecord, claim: ClaimRecord, state: ClaimState,
                 tick: int, bond_to: AccountId) -> None:
        """Close a claim on `policy`. Its filing bond goes to `bond_to`: back
        to the claimant's wallet, or forfeited to the insurer's."""
        returned = bond_to.role is Role.USER_WALLET
        memo = Memo.BOND_RETURN if returned else Memo.BOND_FORFEIT
        self._transfer(claim.bond_escrow, bond_to, claim.claim_bond, tick, memo)
        claim.state = state
        claim.resolved_tick = tick
        policy.open_claims -= 1

    def _release_escrow(self, policy: PolicyRecord, tick: int) -> None:
        if policy.escrowed_stake > 0:
            self._transfer(policy.escrow, policy.insurer, policy.escrowed_stake, tick,
                           Memo.STAKE_RETURN)
            policy.escrowed_stake = 0
        if policy.escrowed_deductible > 0:
            self._transfer(policy.escrow, policy.agent, policy.escrowed_deductible, tick,
                           Memo.STAKE_RETURN)
            policy.escrowed_deductible = 0

    def _exhaust_if_depleted(self, policy: PolicyRecord, tick: int) -> None:
        if policy.escrowed_stake == 0 and policy.status is PolicyStatus.ACTIVE:
            self._release_escrow(policy, tick)
            policy.status = PolicyStatus.EXHAUSTED
