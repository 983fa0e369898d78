import copy
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from insured_agents import ledger as ledger_module
from insured_agents.game import ALL_PATHS
from insured_agents.ledger import (
    _CLAIM_TRANSITIONS,
    FEE_SINK,
    AccountId,
    ClaimRecord,
    ClaimState,
    ClaimValidity,
    DeadlinePassed,
    DuplicatePolicy,
    InsufficientFunds,
    Ledger,
    LedgerError,
    Memo,
    OverCoverage,
    PolicyStatus,
    Role,
    Transfer,
    TransferCount,
    TransferList,
    WrongState,
)
from insured_agents.mechanism import MechanismParams
from insured_agents.money import MoneyError
from insured_agents.sim import play_path


AGENT = AccountId(Role.AGENT_WALLET, "agent")
INSURER = AccountId(Role.INSURER_WALLET, "insurer")
USER = AccountId(Role.USER_WALLET, "user")


def funded_ledger(agent=1000, insurer=1000, user=1000, transfers=None) -> Ledger:
    ledger = Ledger(transfers=transfers)
    ledger.deposit(AGENT, agent)
    ledger.deposit(INSURER, insurer)
    ledger.deposit(USER, user)
    return ledger


def ledger_state(ledger: Ledger) -> tuple:
    """Everything a ledger operation may change, as comparable values.

    A sink that keeps only a count, such as the simulator's, compares by its
    count; inside an atomic block, the block's own journal compares too.
    """
    transfers = ledger.transfers
    return (
        list(ledger.balances.items()),
        list(transfers) if isinstance(transfers, list) else len(transfers),
        None if ledger._log is transfers else list(ledger._log),
        [astuple(p) for p in ledger.policies.values()],
        [astuple(c) for c in ledger.claims.values()],
        list(ledger.shortfalls),
        set(ledger.defaulted),
        ledger.claims_filed,
    )


def underwrite(ledger, **overrides):
    terms = dict(
        coverage=150, deductible=30, premium=8, bond=20,
        claim_deadline=10, expiry_tick=100, tick=0,
    )
    terms.update(overrides)
    return ledger.underwrite("pol-1", "agent", "insurer", **terms)


class TestUnderwrite:
    def test_escrow_and_premium_flows(self):
        ledger = funded_ledger()
        underwrite(ledger)
        assert ledger.balance(INSURER) == 1000 - 150 + 8
        assert ledger.balance(AccountId(Role.STAKE_ESCROW, "pol-1")) == 180
        assert ledger.balance(AGENT) == 1000 - 30 - 8

    def test_insufficient_insurer_funds_is_atomic(self):
        ledger = funded_ledger(insurer=100)
        supply = ledger.total_supply()
        with pytest.raises(InsufficientFunds) as err:
            underwrite(ledger)
        assert err.value.party == INSURER
        assert ledger.total_supply() == supply
        assert ledger.balance(INSURER) == 100
        assert not ledger.policies

    def test_duplicate_policy(self):
        ledger = funded_ledger()
        underwrite(ledger)
        with pytest.raises(DuplicatePolicy):
            underwrite(ledger)


@pytest.mark.parametrize("target", ClaimState, ids=lambda s: s.value)
@pytest.mark.parametrize("state", ClaimState, ids=lambda s: s.value)
def test_claim_transition_is_allowed_exactly_as_the_table_says(state, target):
    claim = ClaimRecord(id="claim-0", policy_id="pol-1",
                        claimant=AccountId(Role.USER_WALLET, "user"),
                        bond_escrow=AccountId(Role.BOND_ESCROW, "claim-0"),
                        amount=100, validity=ClaimValidity.VALID, state=state)
    # A terminal state is absent from the table and allows no transition.
    if target in _CLAIM_TRANSITIONS.get(state, ()):
        Ledger._check_transition(claim, target)
    else:
        with pytest.raises(WrongState, match=f"{state.value} -> {target.value}$"):
            Ledger._check_transition(claim, target)
    assert hash(state) == object.__hash__(state)  # hashed by identity, in C


class TestClaims:
    def file(self, ledger, amount=100, valid=True, **overrides):
        kwargs = dict(claim_bond=0, incident_tick=0, tick=1)
        kwargs.update(overrides)
        tag = ClaimValidity.VALID if valid else ClaimValidity.INVALID
        return ledger.file_claim("pol-1", "user", amount, tag, **kwargs)

    def test_file_within_limits(self):
        ledger = funded_ledger()
        underwrite(ledger)
        assert self.file(ledger).state is ClaimState.FILED

    def test_over_coverage(self):
        ledger = funded_ledger()
        underwrite(ledger)
        with pytest.raises(OverCoverage):
            self.file(ledger, amount=200)

    def test_deadline(self):
        ledger = funded_ledger()
        underwrite(ledger)
        with pytest.raises(DeadlinePassed):
            self.file(ledger, tick=11)

    def test_accept_pays_user_and_seizes_deductible(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = self.file(ledger)
        ledger.respond_claim(claim.id, accept=True, tick=2)
        assert ledger.balance(USER) == 1000 + 100
        # insurer: -150 stake +8 premium +30 seized deductible; stake not
        # yet exhausted (50 remains escrowed)
        assert ledger.balance(INSURER) == 1000 - 150 + 8 + 30
        policy = ledger.policies["pol-1"]
        assert policy.escrowed_stake == 50 and policy.escrowed_deductible == 0

    def test_accept_invalid_claim_leaves_deductible(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = self.file(ledger, valid=False)
        ledger.respond_claim(claim.id, accept=True, tick=2)
        assert ledger.policies["pol-1"].escrowed_deductible == 30

    def test_deny_moves_nothing(self):
        ledger = funded_ledger()
        underwrite(ledger)
        before = dict(ledger.balances)
        claim = self.file(ledger)
        ledger.respond_claim(claim.id, accept=False, tick=2)
        assert ledger.balances == before
        assert claim.state is ClaimState.DENIED

    def test_accept_beyond_remaining_stake_is_refused(self):
        # Two invalid claims of 80 and 40 against a stake of 100: settling
        # the second would overdraw the stake into the agent's deductible.
        ledger = funded_ledger()
        underwrite(ledger, coverage=100, deductible=30)
        first = self.file(ledger, amount=80, valid=False)
        second = self.file(ledger, amount=40, valid=False)
        ledger.respond_claim(first.id, accept=True, tick=2)
        state = copy.deepcopy(vars(ledger))
        with pytest.raises(OverCoverage):
            ledger.respond_claim(second.id, accept=True, tick=2)
        assert vars(ledger) == state
        assert ledger.policies["pol-1"].escrowed_stake == 20
        # The refused claim is still open, so it must close before expiry.
        ledger.respond_claim(second.id, accept=False, tick=3)
        ledger.drop_claim(second.id, tick=4)
        ledger.expire_policy("pol-1", tick=100)
        assert ledger.balance(AccountId(Role.STAKE_ESCROW, "pol-1")) == 0
        assert ledger.balance(AGENT) == 1000 - 8

    def test_valid_verdict_beyond_remaining_stake_pays_what_the_stake_holds(self):
        # Two valid claims of 80 and 40 against a stake of 100: the first is
        # settled, the second denied and escalated. The verdict pays the 20
        # left and exhausts the policy; the user bears the other 20.
        ledger = funded_ledger()
        underwrite(ledger, coverage=100, deductible=30, premium=8, bond=20)
        first = self.file(ledger, amount=80)
        second = self.file(ledger, amount=40)
        ledger.respond_claim(first.id, accept=True, tick=2)
        ledger.respond_claim(second.id, accept=False, tick=2)
        ledger.escalate(second.id, tick=3)
        ledger.adjudicate(second.id, fee=5, reputation_cost=1, tick=3)
        policy = ledger.policies["pol-1"]
        assert second.state is ClaimState.UPHELD_VALID
        assert policy.status is PolicyStatus.EXHAUSTED
        assert policy.open_claims == 0 and policy.escrowed_stake == 0
        assert all(c.state not in _CLAIM_TRANSITIONS for c in ledger.claims.values())
        for account in (policy.escrow, first.bond_escrow, second.bond_escrow):
            assert ledger.balance(account) == 0
        # Compensation 80 + 20, both escalation bonds, less the verifier fee.
        assert ledger.balance(USER) == 1000 + 80 + 20 + 20 - 5
        ledger.check_invariants()
        supply = ledger.total_supply()
        ledger.retire("pol-1")
        assert not ledger.policies and not ledger.claims
        assert ledger.total_supply() == supply

    def test_respond_twice_is_wrong_state(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = self.file(ledger)
        ledger.respond_claim(claim.id, accept=True, tick=2)
        with pytest.raises(WrongState):
            ledger.respond_claim(claim.id, accept=False, tick=3)


class TestEscalation:
    def denied_claim(self, ledger, valid=True):
        underwrite(ledger)
        tag = ClaimValidity.VALID if valid else ClaimValidity.INVALID
        claim = ledger.file_claim("pol-1", "user", 100, tag, tick=1)
        ledger.respond_claim(claim.id, accept=False, tick=2)
        return claim

    def test_both_sides_post_bond(self):
        ledger = funded_ledger()
        claim = self.denied_claim(ledger)
        ledger.escalate(claim.id, tick=3)
        assert ledger.balance(AccountId(Role.BOND_ESCROW, claim.id)) == 40

    def test_escalate_filed_claim_is_wrong_state(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = ledger.file_claim(
            "pol-1", "user", 100, ClaimValidity.VALID, tick=1
        )
        with pytest.raises(WrongState):
            ledger.escalate(claim.id, tick=2)

    def test_underfunded_user_cannot_escalate(self):
        ledger = funded_ledger(user=10)
        claim = self.denied_claim(ledger)
        with pytest.raises(InsufficientFunds) as err:
            ledger.escalate(claim.id, tick=3)
        assert err.value.party == USER

    def test_valid_verdict_insurer_net(self):
        # full lifecycle: stake -150, premium +8, bond -20, fee -50,
        # reputation -10, nothing returned (stake partly consumed, rest
        # comes back on expiry)
        ledger = funded_ledger()
        claim = self.denied_claim(ledger)
        ledger.escalate(claim.id, tick=3)
        ledger.adjudicate(claim.id, fee=50, reputation_cost=10, tick=4)
        ledger.expire_policy("pol-1", tick=100)
        assert ledger.balance(INSURER) == 1000 - 100 - 20 - 50 - 10 + 8
        assert claim.state is ClaimState.UPHELD_VALID

    def test_invalid_verdict_user_net(self):
        ledger = funded_ledger()
        claim = self.denied_claim(ledger, valid=False)
        ledger.escalate(claim.id, tick=3)
        ledger.adjudicate(claim.id, fee=50, reputation_cost=10, tick=4)
        assert ledger.balance(USER) == 1000 - 20 - 50
        assert claim.state is ClaimState.UPHELD_INVALID

    def test_adjudicate_filed_claim_is_wrong_state(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = ledger.file_claim(
            "pol-1", "user", 100, ClaimValidity.VALID, tick=1
        )
        with pytest.raises(WrongState):
            ledger.adjudicate(claim.id, fee=50, reputation_cost=10, tick=2)

    def test_fee_shortfall_is_clamped_and_recorded(self):
        ledger = funded_ledger(user=150)  # covers bond, not the whole fee
        claim = self.denied_claim(ledger, valid=False)
        ledger.escalate(claim.id, tick=3)
        supply = ledger.total_supply()
        ledger.adjudicate(claim.id, fee=10**6, reputation_cost=0, tick=4)
        assert ledger.total_supply() == supply
        assert ledger.balance(USER) == 0
        assert any(s.party == USER for s in ledger.shortfalls)
        assert USER in ledger.defaulted


def _denied_claim(ledger):
    policy = underwrite(ledger)
    claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID, tick=1)
    ledger.respond_claim(claim.id, accept=False, tick=2)
    return policy, claim


def _refuse_stake(ledger):
    return lambda: underwrite(ledger), INSURER


def _refuse_premium_and_deductible(ledger):
    return lambda: underwrite(ledger), AGENT


def _refuse_claim_bond(ledger):
    underwrite(ledger)
    return lambda: ledger.file_claim(
        "pol-1", "user", 100, ClaimValidity.VALID, claim_bond=1001, tick=1
    ), USER


def _refuse_claimant_escalation_bond(ledger):
    _, claim = _denied_claim(ledger)
    return lambda: ledger.escalate(claim.id, tick=3), claim.claimant


def _refuse_insurer_escalation_bond(ledger):
    policy, claim = _denied_claim(ledger)
    return lambda: ledger.escalate(claim.id, tick=3), policy.insurer


@pytest.mark.parametrize("funds, refusal", [
    pytest.param(dict(insurer=149), _refuse_stake, id="stake"),  # 150
    pytest.param(dict(agent=37), _refuse_premium_and_deductible,
                 id="premium_and_deductible"),  # 8 + 30
    pytest.param({}, _refuse_claim_bond, id="claim_bond"),  # 1001 against 1000
    pytest.param(dict(user=19), _refuse_claimant_escalation_bond,
                 id="claimant_escalation_bond"),  # 20
    pytest.param(dict(insurer=150), _refuse_insurer_escalation_bond,
                 id="insurer_escalation_bond"),  # 20 against 150 - 150 + 8
])
def test_funding_refusal_names_the_account_and_moves_nothing(funds, refusal):
    ledger = funded_ledger(**funds)
    operation, party = refusal(ledger)
    before = ledger_state(ledger)
    with pytest.raises(InsufficientFunds) as err:
        operation()
    assert err.value.party == party
    assert ledger_state(ledger) == before


class TestExpiry:
    def test_clean_expiry_returns_everything(self):
        ledger = funded_ledger()
        underwrite(ledger)
        ledger.expire_policy("pol-1", tick=100)
        assert ledger.balance(INSURER) == 1000 + 8
        assert ledger.balance(AGENT) == 1000 - 8

    def test_partial_claim_then_expiry(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID, tick=1)
        ledger.respond_claim(claim.id, accept=True, tick=2)
        ledger.expire_policy("pol-1", tick=100)
        # 50 of the 150 stake remains and returns to the insurer
        assert ledger.balance(INSURER) == 1000 - 150 + 8 + 30 + 50

    def test_double_expiry_is_wrong_state(self):
        ledger = funded_ledger()
        underwrite(ledger)
        ledger.expire_policy("pol-1", tick=100)
        with pytest.raises(WrongState):
            ledger.expire_policy("pol-1", tick=101)

    def test_early_expiry_rejected(self):
        ledger = funded_ledger()
        underwrite(ledger)
        with pytest.raises(WrongState):
            ledger.expire_policy("pol-1", tick=99)

    def test_exhaustion_returns_deductible(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = ledger.file_claim(
            "pol-1", "user", 150, ClaimValidity.INVALID, tick=1
        )
        ledger.respond_claim(claim.id, accept=True, tick=2)
        policy = ledger.policies["pol-1"]
        assert policy.status is PolicyStatus.EXHAUSTED
        assert ledger.balance(AGENT) == 1000 - 8  # deductible came back

    def test_escalated_claim_blocks_expiry_until_adjudicated(self):
        # Expiring under an open dispute used to hand the stake back to the
        # insurer: the verdict then could not pay and the bonds stayed escrowed.
        ledger = funded_ledger()
        underwrite(ledger, coverage=100, deductible=30, bond=20, expiry_tick=4)
        claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID, tick=2)
        ledger.respond_claim(claim.id, accept=False, tick=3)
        ledger.escalate(claim.id, tick=4)
        before = ledger_state(ledger)
        with pytest.raises(WrongState, match="1 open claim"):
            ledger.expire_policy("pol-1", tick=4)
        assert ledger_state(ledger) == before
        user = ledger.balance(USER)
        ledger.adjudicate(claim.id, fee=0, reputation_cost=0, tick=5)
        paid = [t.amount for t in ledger.transfers if t.memo is Memo.COMPENSATION]
        assert paid == [100]
        assert ledger.balance(USER) == user + 100 + 2 * 20  # claim and both bonds
        assert ledger.balance(claim.bond_escrow) == 0

    @pytest.mark.parametrize("deny", [False, True], ids=["filed", "denied"])
    def test_open_claim_blocks_expiry_until_resolved(self, deny):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = ledger.file_claim("pol-1", "user", 50, ClaimValidity.INVALID, tick=1)
        if deny:
            ledger.respond_claim(claim.id, accept=False, tick=2)
        before = ledger_state(ledger)
        with pytest.raises(WrongState):
            ledger.expire_policy("pol-1", tick=100)
        assert ledger_state(ledger) == before
        if deny:
            ledger.drop_claim(claim.id, tick=3)
        else:
            ledger.respond_claim(claim.id, accept=True, tick=2)
        assert ledger.expire_policy("pol-1", tick=100).status is PolicyStatus.EXPIRED
        assert ledger.balance(AccountId(Role.STAKE_ESCROW, "pol-1")) == 0


def random_operations(ledger: Ledger, rng: np.random.Generator, steps: int) -> int:
    """Apply random (often invalid) operations; count successful ones."""
    policies: list[str] = []
    claims: list[str] = []
    succeeded = 0
    for step in range(steps):
        op = rng.integers(0, 7)
        tick = step
        try:
            if op == 0:
                pid = f"p{len(policies)}"
                ledger.underwrite(
                    pid, "agent", "insurer",
                    coverage=int(rng.integers(1, 200)),
                    deductible=int(rng.integers(0, 50)),
                    premium=int(rng.integers(0, 10)),
                    bond=int(rng.integers(0, 30)),
                    claim_deadline=20,
                    expiry_tick=tick + int(rng.integers(1, 40)),
                    tick=tick,
                )
                policies.append(pid)
            elif op == 1 and policies:
                pid = policies[rng.integers(0, len(policies))]
                claim = ledger.file_claim(
                    pid, "user",
                    int(rng.integers(1, 250)),
                    ClaimValidity.VALID if rng.random() < 0.5
                    else ClaimValidity.INVALID,
                    claim_bond=int(rng.integers(0, 5)),
                    incident_tick=max(0, tick - int(rng.integers(0, 30))),
                    tick=tick,
                )
                claims.append(claim.id)
            elif op == 2 and claims:
                cid = claims[rng.integers(0, len(claims))]
                ledger.respond_claim(cid, accept=rng.random() < 0.5, tick=tick)
            elif op == 3 and claims:
                ledger.escalate(claims[rng.integers(0, len(claims))], tick=tick)
            elif op == 4 and claims:
                ledger.adjudicate(
                    claims[rng.integers(0, len(claims))],
                    fee=int(rng.integers(0, 40)),
                    reputation_cost=int(rng.integers(0, 20)),
                    tick=tick,
                )
            elif op == 5 and claims:
                ledger.drop_claim(claims[rng.integers(0, len(claims))], tick=tick)
            elif op == 6 and policies:
                ledger.expire_policy(policies[rng.integers(0, len(policies))], tick=tick)
            succeeded += 1
        except Exception:
            pass
    return succeeded


class TestConservationAndAtomicity:
    def test_total_supply_constant_under_random_operations(self):
        ledger = funded_ledger(agent=10**6, insurer=10**6, user=10**6)
        supply = ledger.total_supply()
        rng = np.random.default_rng(21)
        succeeded = random_operations(ledger, rng, 3000)
        assert succeeded > 100
        assert ledger.total_supply() == supply

    def test_failed_operation_leaves_ledger_bit_identical(self):
        ledger = funded_ledger(insurer=100)
        balances = dict(ledger.balances)
        transfers = list(ledger.transfers)
        with pytest.raises(InsufficientFunds):
            underwrite(ledger)
        assert ledger.balances == balances
        assert ledger.transfers == transfers

    def test_no_negative_balances_ever(self):
        ledger = funded_ledger(agent=500, insurer=500, user=500)
        rng = np.random.default_rng(22)
        random_operations(ledger, rng, 2000)
        assert all(v >= 0 for v in ledger.balances.values())

    def test_terminal_claim_states_are_frozen(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID, tick=1)
        ledger.respond_claim(claim.id, accept=False, tick=2)
        ledger.drop_claim(claim.id, tick=3)
        for action in (
            lambda: ledger.respond_claim(claim.id, accept=True, tick=4),
            lambda: ledger.escalate(claim.id, tick=4),
            lambda: ledger.adjudicate(claim.id, fee=1, reputation_cost=1, tick=4),
            lambda: ledger.drop_claim(claim.id, tick=4),
        ):
            with pytest.raises(WrongState):
                action()


class TestPay:
    @pytest.mark.parametrize("amount", [0, 5])
    def test_same_source_and_destination_is_refused(self, amount):
        ledger = funded_ledger()
        before = ledger_state(ledger)
        with pytest.raises(LedgerError):
            ledger.pay(AGENT, AGENT, amount, 1, Memo.PREMIUM)
        assert ledger_state(ledger) == before


class TestAtomic:
    def test_block_that_raises_restores_records_it_changed(self):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = ledger.file_claim("pol-1", "user", 150, ClaimValidity.VALID, tick=1)
        ledger.respond_claim(claim.id, accept=False, tick=2)
        before = ledger_state(ledger)
        with pytest.raises(WrongState):
            with ledger.atomic():
                ledger.drop_claim(claim.id, tick=3)
                second = ledger.file_claim(
                    "pol-1", "user", 150, ClaimValidity.VALID, tick=3
                )
                ledger.respond_claim(second.id, accept=True, tick=4)
                assert ledger.policies["pol-1"].status is PolicyStatus.EXHAUSTED
                ledger.drop_claim(second.id, tick=4)  # accepted: cannot drop
        assert ledger_state(ledger) == before

    def test_block_that_raises_restores_shortfalls_and_defaults(self):
        ledger = funded_ledger(user=20)
        underwrite(ledger)
        claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.INVALID, tick=1)
        ledger.respond_claim(claim.id, accept=False, tick=2)
        before = ledger_state(ledger)
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                ledger.escalate(claim.id, tick=3)
                ledger.adjudicate(claim.id, fee=50, reputation_cost=0, tick=3)
                assert USER in ledger.defaulted and ledger.shortfalls
                raise RuntimeError
        assert ledger_state(ledger) == before

    def test_undone_shortfall_leaves_no_default(self):
        ledger = funded_ledger(user=20)
        underwrite(ledger)
        claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.INVALID, tick=1)
        ledger.respond_claim(claim.id, accept=False, tick=2)
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                ledger.escalate(claim.id, tick=3)
                ledger.adjudicate(claim.id, fee=50, reputation_cost=0, tick=3)
                assert ledger.defaulted == {USER}
                raise RuntimeError
        assert ledger.defaulted == set()

    def test_undone_claim_leaves_its_number_to_the_next(self):
        ledger = funded_ledger()
        underwrite(ledger)
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                undone = ledger.file_claim("pol-1", "user", 50, ClaimValidity.VALID, tick=1)
                raise RuntimeError
        claim = ledger.file_claim("pol-1", "user", 50, ClaimValidity.VALID, tick=1)
        assert claim.id == undone.id == "pol-1/claim-1"

    def test_claim_numbers_count_claims_across_policies_in_filing_order(self):
        ledger = funded_ledger()
        underwrite(ledger)
        ledger.underwrite("pol-2", "agent", "insurer", coverage=150, deductible=30,
                          premium=8, bond=20, claim_deadline=10, expiry_tick=100, tick=0)
        ids = [
            ledger.file_claim(policy, "user", 50, ClaimValidity.VALID, tick=1).id
            for policy in ("pol-1", "pol-2", "pol-1")
        ]
        assert ids == ["pol-1/claim-1", "pol-2/claim-2", "pol-1/claim-3"]

    def test_nested_block_joins_the_outer_one(self):
        ledger = funded_ledger()
        before = ledger_state(ledger)
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                with ledger.atomic():
                    underwrite(ledger)
                ledger.pay(AGENT, USER, 5, 1, Memo.PREMIUM)
                raise RuntimeError
        assert ledger_state(ledger) == before

    def test_block_that_succeeds_keeps_its_changes(self):
        ledger = funded_ledger()
        with ledger.atomic():
            underwrite(ledger)
        assert "pol-1" in ledger.policies
        assert ledger.balance(AccountId(Role.STAKE_ESCROW, "pol-1")) == 180


class TestTransferSink:
    def test_a_block_hands_its_transfers_to_the_sink_only_on_success(self):
        ledger = funded_ledger()
        with ledger.atomic():
            underwrite(ledger)
            assert ledger.transfers == []  # still in the block's journal
        assert [t.memo for t in ledger.transfers] == [
            Memo.STAKE_POST, Memo.DEDUCTIBLE_POST, Memo.PREMIUM]
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                ledger.expire_policy("pol-1", tick=100)
                raise RuntimeError
        assert len(ledger.transfers) == 3

    def test_a_count_sink_counts_what_a_list_keeps(self):
        counted, kept = funded_ledger(transfers=TransferCount()), funded_ledger()
        plain = funded_ledger(transfers=[])
        for ledger in (counted, kept, plain):
            underwrite(ledger)  # outside a block: straight to the sink
            with ledger.atomic():
                claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID,
                                          claim_bond=5, tick=1)
                ledger.respond_claim(claim.id, accept=True, tick=2)
        assert len(counted.transfers) == len(kept.transfers) == 7
        assert counted.balances == kept.balances
        assert all(type(entry) is tuple for entry in plain.transfers)
        assert plain.transfers == kept.transfers

    def test_the_default_sink_keeps_transfer_records_in_order(self):
        ledger = funded_ledger()
        assert type(ledger.transfers) is TransferList
        underwrite(ledger)  # outside a block
        with ledger.atomic():
            claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID,
                                      claim_bond=5, tick=1)
            ledger.respond_claim(claim.id, accept=True, tick=2)
        ledger.expire_policy("pol-1", tick=100)
        escrow = AccountId(Role.STAKE_ESCROW, "pol-1")
        bond = AccountId(Role.BOND_ESCROW, claim.id)
        assert all(type(t) is Transfer for t in ledger.transfers)
        assert ledger.transfers == [
            Transfer(INSURER, escrow, 150, 0, Memo.STAKE_POST),
            Transfer(AGENT, escrow, 30, 0, Memo.DEDUCTIBLE_POST),
            Transfer(AGENT, INSURER, 8, 0, Memo.PREMIUM),
            Transfer(USER, bond, 5, 1, Memo.CLAIM_BOND),
            Transfer(escrow, USER, 100, 2, Memo.COMPENSATION),
            Transfer(escrow, INSURER, 30, 2, Memo.DEDUCTIBLE_SEIZE),
            Transfer(bond, USER, 5, 2, Memo.BOND_RETURN),
            Transfer(escrow, INSURER, 50, 100, Memo.STAKE_RETURN),
        ]
        assert ledger.transfers[-2].src.owner == claim.id

    def test_a_block_journals_plain_tuples(self):
        ledger = funded_ledger()
        with ledger.atomic():
            underwrite(ledger)
            assert [type(entry) for entry in ledger._log] == [tuple] * 3
            assert ledger._log[2] == (AGENT, INSURER, 8, 0, Memo.PREMIUM)

    def test_a_block_that_raises_hands_nothing_on_and_restores_every_balance(self):
        ledger = funded_ledger(transfers=TransferCount())
        underwrite(ledger)
        claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID, tick=1)
        ledger.respond_claim(claim.id, accept=False, tick=2)
        balances, handed = dict(ledger.balances), len(ledger.transfers)
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                ledger.escalate(claim.id, tick=3)
                ledger.adjudicate(claim.id, fee=50, reputation_cost=10, tick=4)
                ledger.pay(USER, AGENT, 7, 4, Memo.PREMIUM)
                assert len(ledger._log) > 0
                raise RuntimeError
        assert ledger.balances == balances
        assert len(ledger.transfers) == handed

    def test_a_count_sink_builds_no_transfer_record(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Transfer was built")

        monkeypatch.setattr(ledger_module, "Transfer", refuse)
        ledger = funded_ledger(transfers=TransferCount())
        underwrite(ledger)
        with ledger.atomic():
            claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID, tick=1)
            ledger.respond_claim(claim.id, accept=False, tick=2)
            ledger.escalate(claim.id, tick=3)
            ledger.adjudicate(claim.id, fee=50, reputation_cost=10, tick=4)
        assert len(ledger.transfers) == 12

    def test_a_count_sink_and_the_default_sink_agree_on_every_path(self):
        params = MechanismParams(L=100, G=40, S_A=30, S_I=150, B=20, F=50, R=10,
                                 V_future=20, P=8)
        for path in ALL_PATHS:
            lengths = set()
            for sink in (None, TransferCount()):
                ledger = funded_ledger(transfers=sink)
                ledger.underwrite("policy", "agent", "insurer", coverage=params.L,
                                  deductible=params.S_A, premium=params.P,
                                  bond=params.B, claim_deadline=5, expiry_tick=4, tick=0)
                with ledger.atomic():
                    play_path(ledger, ledger.policies["policy"], path, "user", params,
                              claim_bond=5, tick=0)
                lengths.add(len(ledger.transfers))
            assert len(lengths) == 1, (path, lengths)

def _closed_policy(ledger) -> str:
    """pol-1 with one claim settled on it, then expired: ready to retire."""
    underwrite(ledger)
    claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID, claim_bond=5,
                              tick=1)
    ledger.respond_claim(claim.id, accept=True, tick=2)
    ledger.expire_policy("pol-1", tick=100)
    return claim.id


class TestRetire:
    def test_retire_drops_the_policy_its_claims_and_their_escrows(self):
        ledger = funded_ledger()
        claim_id = _closed_policy(ledger)
        supply, policy = ledger.total_supply(), ledger.policies["pol-1"]
        ledger.retire("pol-1")
        assert ledger.total_supply() == supply
        assert not ledger.policies and not ledger.claims
        assert policy.escrow not in ledger.balances
        assert AccountId(Role.BOND_ESCROW, claim_id) not in ledger.balances
        ledger.check_invariants()

    def test_active_policy_does_not_retire(self):
        ledger = funded_ledger()
        underwrite(ledger)
        before = ledger_state(ledger)
        with pytest.raises(WrongState, match="active"):
            ledger.retire("pol-1")
        assert ledger_state(ledger) == before

    def test_policy_with_an_open_claim_does_not_retire(self):
        # A claim denied, then a second one exhausts the stake: the policy is
        # closed, but the first claim is still open.
        ledger = funded_ledger()
        underwrite(ledger)
        denied = ledger.file_claim("pol-1", "user", 50, ClaimValidity.VALID, tick=1)
        ledger.respond_claim(denied.id, accept=False, tick=2)
        exhausting = ledger.file_claim("pol-1", "user", 150, ClaimValidity.VALID, tick=1)
        ledger.respond_claim(exhausting.id, accept=True, tick=2)
        assert ledger.policies["pol-1"].status is PolicyStatus.EXHAUSTED
        before = ledger_state(ledger)
        with pytest.raises(WrongState, match="open claim"):
            ledger.retire("pol-1")
        assert ledger_state(ledger) == before

    @pytest.mark.parametrize("escrow", ["stake", "bond"])
    def test_escrow_that_still_holds_money_does_not_retire(self, escrow):
        ledger = funded_ledger()
        claim_id = _closed_policy(ledger)
        account = (ledger.policies["pol-1"].escrow if escrow == "stake"
                   else ledger.claims[claim_id].bond_escrow)
        ledger.pay(INSURER, account, 5, 101, Memo.PREMIUM)
        before = ledger_state(ledger)
        with pytest.raises(WrongState, match="still holds 5"):
            ledger.retire("pol-1")
        assert ledger_state(ledger) == before

    def test_retire_inside_a_block_is_undone_with_it_or_holds(self):
        ledger, outside = funded_ledger(), funded_ledger()
        _closed_policy(ledger)
        _closed_policy(outside)
        outside.retire("pol-1")
        before = ledger_state(ledger)
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                ledger.retire("pol-1")
                assert not ledger.policies and not ledger.claims
                raise RuntimeError
        assert ledger_state(ledger) == before
        ledger.check_invariants()
        with ledger.atomic():
            ledger.retire("pol-1")
        assert ledger_state(ledger) == ledger_state(outside)

    def test_unknown_policy_does_not_retire(self):
        with pytest.raises(WrongState, match="unknown policy"):
            funded_ledger().retire("pol-1")

    def test_claim_numbers_continue_after_a_retire(self):
        ledger = funded_ledger()
        assert _closed_policy(ledger) == "pol-1/claim-1"
        ledger.retire("pol-1")
        ledger.underwrite("pol-2", "agent", "insurer", coverage=150, deductible=30,
                          premium=8, bond=20, claim_deadline=10, expiry_tick=100, tick=0)
        with pytest.raises(RuntimeError):
            with ledger.atomic():
                undone = ledger.file_claim("pol-2", "user", 50, ClaimValidity.VALID,
                                           tick=1)
                raise RuntimeError
        claim = ledger.file_claim("pol-2", "user", 50, ClaimValidity.VALID, tick=1)
        assert claim.id == undone.id == "pol-2/claim-2"
        assert ledger.claims_filed == 2

    def test_retired_id_may_be_underwritten_again_as_a_new_policy(self):
        ledger = funded_ledger()
        _closed_policy(ledger)
        ledger.retire("pol-1")
        policy = underwrite(ledger, coverage=120, tick=101, expiry_tick=200)
        assert policy.claims == () and policy.escrowed_stake == 120
        assert ledger.balance(policy.escrow) == 120 + 30
        ledger.check_invariants()


class TestCheckInvariants:
    def test_a_fresh_and_a_busy_ledger_pass(self):
        ledger = funded_ledger()
        ledger.check_invariants()
        _closed_policy(ledger)
        ledger.check_invariants()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda ledger, policy: ledger.balances.__setitem__(USER, -1), "holds -1"),
        (lambda ledger, policy: setattr(policy, "escrowed_stake", -1), "stake -1"),
        (lambda ledger, policy: setattr(policy, "escrowed_deductible", 0), "escrows 180"),
        (lambda ledger, policy: setattr(policy, "open_claims", 0), "counts 0 open"),
        (lambda ledger, policy: ledger.deposit(
            AccountId(Role.BOND_ESCROW, "pol-1/claim-1"), 5), "bond escrow holds 5"),
    ])
    def test_each_broken_book_raises(self, corrupt, message):
        ledger = funded_ledger()
        policy = underwrite(ledger)
        ledger.file_claim("pol-1", "user", 50, ClaimValidity.VALID, tick=1)
        corrupt(ledger, policy)
        with pytest.raises(AssertionError, match=message):
            ledger.check_invariants()

    @pytest.mark.parametrize("steps, held", [
        ((), 5),  # filed: the filing bond
        (("deny",), 5),
        (("deny", "escalate"), 5 + 2 * 20),  # plus both escalation bonds
        (("deny", "escalate", "adjudicate"), 0),
        (("deny", "drop"), 0),
        (("accept",), 0),
    ], ids=["filed", "denied", "escalated", "upheld", "dropped", "accepted"])
    def test_a_bond_escrow_holds_what_its_claim_state_says(self, steps, held):
        ledger = funded_ledger()
        underwrite(ledger)
        claim = ledger.file_claim("pol-1", "user", 100, ClaimValidity.VALID,
                                  claim_bond=5, tick=1)
        act = {
            "accept": lambda: ledger.respond_claim(claim.id, accept=True, tick=2),
            "deny": lambda: ledger.respond_claim(claim.id, accept=False, tick=2),
            "escalate": lambda: ledger.escalate(claim.id, tick=3),
            "adjudicate": lambda: ledger.adjudicate(claim.id, fee=10,
                                                    reputation_cost=0, tick=4),
            "drop": lambda: ledger.drop_claim(claim.id, tick=3),
        }
        for step in steps:
            act[step]()
        assert ledger.balance(claim.bond_escrow) == held
        ledger.check_invariants()
        ledger.deposit(claim.bond_escrow, 1)
        with pytest.raises(AssertionError,
                           match=f"bond escrow holds {held + 1}, not {held}$"):
            ledger.check_invariants()


_POLICY_IDS = tuple(f"p{i}" for i in range(8))
_WALLETS = (AGENT, INSURER, USER, FEE_SINK)
_NEW_WALLET = AccountId(Role.AGENT_WALLET, "newcomer")
_TICKS = st.integers(0, 40)
_TICKS_PAST_EXPIRY = 41


def _amount(high: int):
    return st.integers(-1, high)  # -1 is an invalid amount


class LedgerMachine(RuleBasedStateMachine):
    """Every public mutator with random, often invalid, arguments.

    After each step the ledger conserves supply and passes its own
    `check_invariants`: every balance and stake non-negative, each policy's
    stake escrow holding exactly its escrowed stake plus deductible, and its
    open claims counted. A step that raises must leave the whole ledger as
    it found it, and so must an atomic block that raises.
    """

    def __init__(self):
        super().__init__()
        self.ledger = funded_ledger(agent=200, insurer=200, user=200)
        self.supply = self.ledger.total_supply()

    @initialize(data=st.data())
    def open_a_policy(self, data):
        """Start each run with a policy, so that the lifecycle operations have
        something to act on, and half the time a claim filed on it. A policy
        with an open claim cannot retire, so the other half leaves `p0` free
        to close and retire."""
        self.ledger.underwrite(
            "p0", "agent", "insurer", coverage=100, deductible=20, premium=5,
            bond=30, claim_deadline=10, expiry_tick=data.draw(_TICKS), tick=0,
        )
        if data.draw(st.booleans()):
            self.ledger.file_claim("p0", "user", data.draw(st.integers(1, 100)),
                                   data.draw(st.sampled_from(ClaimValidity)), tick=0)

    def _apply(self, operation, *args, **kwargs) -> None:
        before = ledger_state(self.ledger)
        try:
            operation(*args, **kwargs)
        except (LedgerError, MoneyError):
            assert ledger_state(self.ledger) == before

    def _pick(self, data, book: dict, ready) -> str:
        """Half the time a record that is `ready`, if any; else any id,
        known or not."""
        candidates = [key for key, record in book.items() if ready(record)]
        if candidates and data.draw(st.booleans()):
            return data.draw(st.sampled_from(candidates))
        return data.draw(st.sampled_from([*book, "unknown"]))

    def _policy_id(self, data) -> str:
        return self._pick(data, self.ledger.policies,
                          lambda p: p.status is PolicyStatus.ACTIVE)

    def _claim_id(self, data, state: ClaimState) -> str:
        return self._pick(data, self.ledger.claims, lambda c: c.state is state)

    # -- one rule per public mutator; each draws its arguments from `data` --

    @rule(data=st.data())
    def underwrite(self, data) -> None:
        self._apply(
            self.ledger.underwrite,
            data.draw(st.sampled_from(_POLICY_IDS)), "agent", "insurer",
            coverage=data.draw(_amount(200)),
            deductible=data.draw(st.integers(0, 60)),
            premium=data.draw(st.integers(0, 20)),
            bond=data.draw(st.integers(0, 80)),
            claim_deadline=data.draw(st.integers(0, 10)),
            expiry_tick=data.draw(_TICKS),
            tick=data.draw(_TICKS),
        )

    @rule(data=st.data())
    def file_claim(self, data) -> None:
        incident_tick = data.draw(_TICKS)
        self._apply(
            self.ledger.file_claim,
            self._policy_id(data), "user",
            data.draw(_amount(150)),
            data.draw(st.sampled_from(ClaimValidity)),
            claim_bond=data.draw(st.integers(0, 20)),
            incident_tick=incident_tick,
            tick=incident_tick + data.draw(st.integers(0, 3)),
        )

    # The claim rules take an explicit claim id from the atomic block.

    @rule(data=st.data())
    def respond_claim(self, data, claim_id=None) -> None:
        claim_id = claim_id or self._claim_id(data, ClaimState.FILED)
        self._apply(self.ledger.respond_claim, claim_id,
                    accept=data.draw(st.booleans()), tick=data.draw(_TICKS))

    @rule(data=st.data())
    def escalate(self, data, claim_id=None) -> None:
        claim_id = claim_id or self._claim_id(data, ClaimState.DENIED)
        self._apply(self.ledger.escalate, claim_id, tick=data.draw(_TICKS))

    @rule(data=st.data())
    def adjudicate(self, data, claim_id=None) -> None:
        claim_id = claim_id or self._claim_id(data, ClaimState.ESCALATED)
        self._apply(self.ledger.adjudicate, claim_id, fee=data.draw(_amount(300)),
                    reputation_cost=data.draw(st.integers(0, 300)),
                    tick=data.draw(_TICKS))

    @rule(data=st.data())
    def drop_claim(self, data, claim_id=None) -> None:
        claim_id = claim_id or self._claim_id(data, ClaimState.DENIED)
        self._apply(self.ledger.drop_claim, claim_id, tick=data.draw(_TICKS))

    @rule(data=st.data())
    def expire_policy(self, data) -> None:
        self._apply(self.ledger.expire_policy, self._policy_id(data),
                    tick=data.draw(st.integers(0, 60)))

    @rule(data=st.data())
    def retire(self, data) -> None:
        # A refused retire changes nothing; an accepted one moves no money,
        # which `supply_is_conserved` checks after it. Policies seldom close
        # at random, so half the time an active one is first expired at a
        # tick past every expiry.
        policy_id = self._pick(data, self.ledger.policies, lambda p: not p.open_claims)
        policy = self.ledger.policies.get(policy_id)
        if policy and policy.status is PolicyStatus.ACTIVE and data.draw(st.booleans()):
            self._apply(self.ledger.expire_policy, policy_id, tick=_TICKS_PAST_EXPIRY)
        self._apply(self.ledger.retire, policy_id)

    @rule(data=st.data())
    def pay(self, data) -> None:
        # Wallets and the fee sink only: paying into or out of an escrow
        # would break the escrow accounting by design.
        self._apply(self.ledger.pay, data.draw(st.sampled_from(_WALLETS)),
                    data.draw(st.sampled_from(_WALLETS)), data.draw(_amount(300)),
                    data.draw(_TICKS), Memo.PREMIUM)

    def deposit(self, data) -> None:
        # Not a rule: a deposit mints money, so it runs only inside the block
        # that raises, which must undo it, on an existing wallet or a new one.
        self.ledger.deposit(data.draw(st.sampled_from([*_WALLETS, _NEW_WALLET])),
                            data.draw(st.integers(1, 50)))

    # What the block that raises may run.
    _OPERATIONS = (underwrite, file_claim, respond_claim, escalate, adjudicate,
                   drop_claim, expire_policy, retire, pay, deposit)
    # The rules that move a claim on from each non-terminal state.
    _NEXT_STEP = {
        ClaimState.FILED: (respond_claim,),
        ClaimState.DENIED: (escalate, drop_claim),
        ClaimState.ESCALATED: (adjudicate,),
    }

    def _open_claims(self) -> list:
        return [c for c in self.ledger.claims.values() if c.state in self._NEXT_STEP]

    @precondition(_open_claims)
    @rule(data=st.data(), n=st.integers(1, 3))
    def atomic_block_that_raises(self, data, n):
        """Each of the block's operations is either any operation, a
        deposit included, or the next lifecycle step of a claim that existed
        before the block; the first is always the latter."""
        before = ledger_state(self.ledger)
        claim = data.draw(st.sampled_from(self._open_claims()))
        with pytest.raises(_Abort):
            with self.ledger.atomic():
                for i in range(n):
                    steps = self._NEXT_STEP.get(claim.state)
                    if steps and (i == 0 or data.draw(st.booleans())):
                        data.draw(st.sampled_from(steps))(self, data, claim.id)
                    else:
                        data.draw(st.sampled_from(self._OPERATIONS))(self, data)
                raise _Abort
        assert ledger_state(self.ledger) == before

    @invariant()
    def supply_is_conserved(self):
        assert self.ledger.total_supply() == self.supply

    @invariant()
    def books_hold_their_invariants(self):
        self.ledger.check_invariants()


class _Abort(Exception):
    pass


TestLedgerStateMachine = LedgerMachine.TestCase
TestLedgerStateMachine.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
