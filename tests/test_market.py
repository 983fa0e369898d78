import itertools
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from insured_agents import (
    AgentProfile,
    Certificate,
    GainModel,
    MechanismParams,
    RiskPosterior,
    compose_stack,
    decide_purchase,
    price_premium,
    stack_premium,
    underwrite_stack,
    units,
    update_posterior,
)
from insured_agents.ledger import AccountId, InsufficientFunds, Ledger, Role
from insured_agents.market import (
    ExpiredCertificate, InsurerStack, layer1_shares, loaded_premium, max_premium, max_quote,
)
from insured_agents.money import MAX_AMOUNT, rate
from test_ledger import ledger_state


class TestPricePremium:
    def test_worked_example(self):
        # Beta(4, 8) has mean 1/3: 1/3 * 100 * 1.2 = 40 units
        premium = price_premium(RiskPosterior(4, 8), units(100), loading=0.2)
        assert premium == units(40)

    def test_zero_loading_is_expected_loss(self):
        premium = price_premium(RiskPosterior(1, 3), units(100), loading=0.0)
        assert premium == units(25)

    def test_positive_risk_never_prices_at_zero(self):
        premium = price_premium(RiskPosterior(1, 10**9), 10, loading=0.0)
        assert premium == 1

    def test_monotone_in_mean_coverage_and_loading(self):
        base = price_premium(RiskPosterior(2, 8), units(100), loading=0.1)
        assert price_premium(RiskPosterior(3, 8), units(100), 0.1) >= base
        assert price_premium(RiskPosterior(2, 8), units(150), 0.1) >= base
        assert price_premium(RiskPosterior(2, 8), units(100), 0.2) >= base

    def test_negative_loading_rejected(self):
        with pytest.raises(ValueError):
            price_premium(RiskPosterior(), units(100), loading=-0.1)

    def test_half_rounds_up_at_a_decimal_loading(self):
        # 1/2 x 10 x 13/10 = 6.5 exactly; binary 0.3 sits just below 3/10.
        assert price_premium(RiskPosterior(1, 1), 10, 0.3) == 7


def reference_premium(risk: Fraction, coverage: int, loading: str) -> int:
    """risk x coverage x (1 + loading), the loading read as a decimal,
    rounded half-up; a positive expected loss is at least one micro-unit."""
    exact = risk * coverage * (1 + Fraction(loading))
    if exact == 0:
        return 0
    return max(math.floor(exact + Fraction(1, 2)), 1)


def decimal_text(low: str, high: str):
    """Decimal strings in [low, high] with at most three places."""
    return st.decimals(Decimal(low), Decimal(high), places=3).map(str)


class TestPremiumMatchesExactReference:
    @given(alpha=st.integers(1, 60), beta=st.integers(1, 60),
           coverage=st.integers(0, 10**12), loading=decimal_text("0", "4"))
    @example(alpha=1, beta=1, coverage=10, loading="0.3")  # 6.5 exactly
    def test_price_premium(self, alpha, beta, coverage, loading):
        assert price_premium(RiskPosterior(alpha, beta), coverage, float(loading)) == (
            reference_premium(Fraction(alpha, alpha + beta), coverage, loading)
        )

    @given(risk=decimal_text("0.001", "1"),
           coverage=st.integers(0, 10**12), loading=decimal_text("0", "4"))
    @example(risk="0.5", coverage=10, loading="0.3")  # 6.5 exactly
    def test_stack_premium(self, risk, coverage, loading):
        stack = InsurerStack(master="m", layer1=(), residual_risk=float(risk),
                             premium_shares=(), expires_at=math.inf)
        assert stack_premium(stack, coverage, float(loading)) == (
            reference_premium(Fraction(risk), coverage, loading)
        )

    @given(alpha=st.integers(1, 60), beta=st.integers(0, 60),
           coverage=st.integers(0, 10**12), loading=decimal_text("0", "4"))
    @example(alpha=1, beta=0, coverage=10, loading="0.35")  # 13.5 exactly
    def test_max_premium_bounds_every_quote(self, alpha, beta, coverage, loading):
        bound = max_premium(coverage, float(loading))
        assert bound == math.ceil(coverage * (1 + Fraction(loading)))
        assert loaded_premium(alpha, alpha + beta, coverage, float(loading)) <= bound


class TestRate:
    @pytest.mark.parametrize("x, exact", [
        (0.2, Fraction(1, 5)),
        (0.3, Fraction(3, 10)),
        (1e-4, Fraction(1, 10000)),
        (0, Fraction(0)),
        (3, Fraction(3)),
        (Fraction(1, 3), Fraction(1, 3)),
        (np.float64(0.1), Fraction(1, 10)),
    ])
    def test_reads_the_decimal_text(self, x, exact):
        assert rate(x) == exact
        assert type(rate(x)) is Fraction

    @pytest.mark.parametrize("x", [
        -0.1, -1, Fraction(-1, 2), float("inf"), float("nan"), True, "0.2", None,
    ])
    def test_refuses_anything_else(self, x):
        with pytest.raises(ValueError, match="finite and non-negative"):
            rate(x)


class TestPosterior:
    def test_conjugate_updates(self):
        post = update_posterior(RiskPosterior(1, 1), True)
        assert (post.alpha, post.beta) == (2, 1)

    def test_counting(self):
        post = RiskPosterior(1, 1)
        for observed in [True] * 3 + [False] * 7:
            post = update_posterior(post, observed)
        assert post.mean == pytest.approx(4 / 12)

    def test_convergence_to_theta(self):
        rng = np.random.default_rng(31)
        for theta in (0.05, 0.3, 0.7):
            post = RiskPosterior(1, 1)
            for draw in rng.random(5000) < theta:
                post = update_posterior(post, bool(draw))
            assert abs(post.mean - theta) < 0.02

    def test_invalid_pseudo_counts_rejected(self):
        with pytest.raises(ValueError):
            RiskPosterior(0, 1)

    @pytest.mark.parametrize("counts", [(1.0, 1), (1, 0.5), (True, 1), (1, "2"), (-1, 1)])
    def test_a_count_that_is_not_a_positive_int_is_rejected(self, counts):
        with pytest.raises(ValueError, match="must be positive ints"):
            RiskPosterior(*counts)

    def test_counts_are_ints_and_the_mean_a_float(self):
        post = update_posterior(update_posterior(RiskPosterior(), True), False)
        assert (post.alpha, post.beta) == (2, 2)
        assert type(post.alpha) is int and type(post.beta) is int
        assert type(post.mean) is float and post.mean == 0.5

    def test_update_matches_a_field_replace(self):
        for post in (RiskPosterior(), RiskPosterior(2, 3), RiskPosterior(7, 9)):
            assert update_posterior(post, True) == replace(post, alpha=post.alpha + 1)
            assert update_posterior(post, False) == replace(post, beta=post.beta + 1)

    def test_update_refuses_a_non_positive_count(self):
        # A posterior built around its own check: the update must still refuse it.
        bad = object.__new__(RiskPosterior)
        object.__setattr__(bad, "alpha", -3)
        object.__setattr__(bad, "beta", 1)
        for observed in (True, False):
            with pytest.raises(ValueError, match="must be positive"):
                update_posterior(bad, observed)


class TestGainModel:
    def test_a_geometric_gain_draws_at_its_stated_mean(self):
        # `decide_purchase` reads the stated mean, so the draws honour it:
        # a mean of 1.9 units used to draw at 1.0.
        gain, rng = GainModel("geometric", units("1.9")), np.random.default_rng(0)
        draws = [gain.draw(rng) for _ in range(20_000)]
        assert abs(sum(draws) / len(draws) - units("1.9")) < units("0.05")

    @pytest.mark.parametrize("whole", [1, 2, 7, 1000])
    def test_a_whole_geometric_mean_draws_as_with_a_whole_unit_rate(self, whole):
        # p = UNIT / mean is exactly 1 / whole for a whole mean, so golden
        # runs drawn with a whole-unit rate keep their bytes.
        gain = GainModel("geometric", units(whole))
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        draws = [gain.draw(ours) for _ in range(200)]
        assert draws == [int(theirs.geometric(1 / whole)) * units(1)
                         for _ in range(200)]

    def test_a_geometric_mean_below_one_unit_is_refused(self):
        with pytest.raises(ValueError, match="geometric mean is 0 or at least 1 unit"):
            GainModel("geometric", units("0.4"))
        assert GainModel("geometric", 0).draw(np.random.default_rng(0)) == 0


class TestDecidePurchase:
    def agent(self, theta=0.0, gain_mean=0):
        return AgentProfile(id="a", theta=theta, gain=GainModel("fixed", gain_mean))

    def params(self, pi_honest):
        return MechanismParams(
            L=units(100), G=units(40), S_A=units(30), S_I=units(150),
            B=units(20), F=units(50), R=units(10), V_future=units(20),
            Pi_honest=pi_honest,
        )

    def test_profitable_operation_buys(self):
        assert decide_purchase(self.agent(), units(1), self.params(units(5)))

    def test_unprofitable_operation_declines(self):
        assert not decide_purchase(self.agent(), units(6), self.params(units(5)))

    def test_exact_tie_declines(self):
        assert not decide_purchase(self.agent(), units(5), self.params(units(5)))

    def test_decision_is_exact(self):
        # (0 - quote) + 0.1 x gain is +0.1 micro-units exactly; in floats
        # 0.1 x gain rounds to the quote and the agent would decline.
        agent = self.agent(theta=0.1, gain_mean=657784910279432361)
        params = MechanismParams(L=1, G=0, S_A=0, S_I=1, B=0, F=0, R=0, V_future=0)
        assert decide_purchase(agent, 65778491027943236, params)

    def test_risky_agent_values_coverage_more(self):
        # When deviation pays, willingness rises with theta.
        params = self.params(units(5))
        quote = units(40)
        risky = self.agent(theta=0.9, gain_mean=units(200))
        safe = self.agent(theta=0.0, gain_mean=units(200))
        assert decide_purchase(risky, quote, params)
        assert not decide_purchase(safe, quote, params)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        theta=st.sampled_from([0.0, 1.0]) | st.decimals(0, 1, places=6).map(float),
        s_a=st.integers(0, units(1000)),
        v_future=st.integers(0, units(1000)),
        pi_honest=st.integers(-units(1000), units(1000)),
        # The gain, from the deviation threshold S_A + V_future + Pi_honest.
        offset=st.integers(-units(1000), units(1000)),
        quote=st.integers(0, units(3000)),
    )
    # No quote buys: the honest path loses and deviation pays nothing.
    @example(theta=0.5, s_a=units(30), v_future=units(20), pi_honest=-units(5),
             offset=-units(1), quote=0)
    # The tie: (Pi_honest - q) + theta x bonus is 0 at q = max_quote + 1.
    @example(theta=0.5, s_a=0, v_future=0, pi_honest=units(5), offset=units(2), quote=0)
    def test_max_quote_is_the_largest_quote_the_exact_inequality_buys(
            self, theta, s_a, v_future, pi_honest, offset, quote):
        gain = s_a + v_future + pi_honest + offset
        assume(0 <= gain <= MAX_AMOUNT)
        agent = self.agent(theta, gain)
        params = MechanismParams(L=units(100), G=0, S_A=s_a, S_I=units(150), B=0, F=0,
                                 R=0, V_future=v_future, Pi_honest=pi_honest)
        bonus = max(0, gain - s_a - v_future - pi_honest)
        top = max_quote(agent, params)
        event("no quote buys" if top < 0 else "some quote buys")
        event("deviation pays" if bonus else "deviation does not pay")
        for q in (top - 1, top, top + 1, quote):
            if 0 <= q <= MAX_AMOUNT:
                expected = Fraction(pi_honest - q) + rate(theta) * bonus > 0
                assert decide_purchase(agent, q, params) is expected, q


class TestComposeStack:
    def certs(self, *discounts):
        return [
            Certificate(issuer=f"i{k}", domain=f"d{k}", risk_discount=d)
            for k, d in enumerate(discounts)
        ]

    def test_worked_example(self):
        stack = compose_stack(0.10, self.certs(0.5, 0.4))
        assert stack.residual_risk == 0.03

    def test_no_certificates_is_base_risk(self):
        assert compose_stack(0.10, []).residual_risk == 0.10

    def test_floor(self):
        stack = compose_stack(0.10, self.certs(0.999999, 0.999999))
        assert stack.residual_risk == 1e-4

    def test_order_independent(self):
        certs = self.certs(0.5, 0.4, 0.25)
        results = {
            compose_stack(0.10, list(perm)).residual_risk
            for perm in itertools.permutations(certs)
        }
        assert len(results) == 1

    def test_monotone_nonincreasing_in_each_discount(self):
        low = compose_stack(0.10, self.certs(0.5, 0.2)).residual_risk
        high = compose_stack(0.10, self.certs(0.5, 0.4)).residual_risk
        assert high <= low

    def test_expired_certificate_excluded_with_warning(self):
        certs = self.certs(0.5) + [
            Certificate(issuer="i9", domain="stale", risk_discount=0.4, expiry_tick=10)
        ]
        stack = compose_stack(0.10, certs, tick=10)
        assert stack.residual_risk == 0.05
        assert any("stale" in w for w in stack.warnings)

    def test_repeated_domain_rejected(self):
        # Listed twice, one certificate would halve the residual risk again
        # and pay its issuer two layer-1 shares.
        cert = Certificate(issuer="c", domain="code", risk_discount=0.5)
        with pytest.raises(ValueError, match="domain 'code' is repeated"):
            compose_stack(0.10, [cert, cert])
        renewed = Certificate(issuer="d", domain="code", risk_discount=0.2, expiry_tick=9)
        with pytest.raises(ValueError, match="domain 'code' is repeated"):
            compose_stack(0.10, [*self.certs(0.4), cert, renewed])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            compose_stack(0.0, [])
        with pytest.raises(ValueError, match="empty domain"):
            compose_stack(0.10, [Certificate(issuer="c", domain="", risk_discount=0.5)])
        with pytest.raises(ValueError):
            Certificate(issuer="i", domain="d", risk_discount=1.0)


class TestUnderwriteStack:
    def setup_ledger(self):
        ledger = Ledger()
        ledger.deposit(AccountId(Role.AGENT_WALLET, "agent"), units(1000))
        ledger.deposit(AccountId(Role.INSURER_WALLET, "master"), units(1000))
        return ledger

    def certs(self):
        return (
            Certificate(issuer="i0", domain="safety", risk_discount=0.5),
            Certificate(issuer="i1", domain="financial", risk_discount=0.4),
        )

    def test_residual_priced_premium(self):
        stack = compose_stack(0.10, self.certs(), master="master")
        assert stack_premium(stack, units(100), loading=0.2) == units("3.6")

    def test_premium_shares_proportional_to_discounts(self):
        ledger = self.setup_ledger()
        stack = compose_stack(0.10, self.certs(), master="master", layer1_cut=0.5)
        underwrite_stack(
            ledger, "agent", stack,
            policy_id="pol", coverage=units(100), deductible=units(10),
            bond=units(5), premium=units("3.6"), claim_deadline=10, expiry_tick=50,
            tick=0,
        )
        pool = units("3.6") * 0.5
        share0 = ledger.balance(AccountId(Role.INSURER_WALLET, "i0"))
        share1 = ledger.balance(AccountId(Role.INSURER_WALLET, "i1"))
        assert share0 + share1 <= pool
        # 5:4 split of the layer-1 cut
        assert share0 == int(pool * 5 / 9)
        assert share1 == int(pool * 4 / 9)

    def test_master_posts_full_stake(self):
        ledger = self.setup_ledger()
        stack = compose_stack(0.10, self.certs(), master="master")
        policy = underwrite_stack(
            ledger, "agent", stack,
            policy_id="pol", coverage=units(100), deductible=units(10),
            bond=units(5), premium=units("3.6"), claim_deadline=10, expiry_tick=50,
            tick=0,
        )
        assert policy.insurer == AccountId(Role.INSURER_WALLET, "master")
        assert policy.escrowed_stake == units(100)

    def test_expired_certificate_rejected(self):
        ledger = self.setup_ledger()
        stale = Certificate(
            issuer="i0", domain="safety", risk_discount=0.5, expiry_tick=5
        )
        stack = compose_stack(0.10, [stale], master="master", tick=0)
        with pytest.raises(ExpiredCertificate):
            underwrite_stack(
                ledger, "agent", stack,
                policy_id="pol", coverage=units(100), deductible=0,
                bond=0, premium=units(5), claim_deadline=10, expiry_tick=50,
                tick=10,
            )

    def test_stack_underwrites_until_its_first_expiry(self):
        ledger = self.setup_ledger()
        certs = self.certs() + (
            Certificate(issuer="i2", domain="data", risk_discount=0.2, expiry_tick=9),
            Certificate(issuer="i3", domain="code", risk_discount=0.1, expiry_tick=5),
        )
        stack = compose_stack(0.10, certs, master="master", tick=0)
        assert stack.expires_at == 5
        underwrite_stack(
            ledger, "agent", stack,
            policy_id="pol", coverage=units(100), deductible=0,
            bond=0, premium=units(5), claim_deadline=10, expiry_tick=50,
            tick=stack.expires_at - 1,
        )
        with pytest.raises(ExpiredCertificate):
            underwrite_stack(
                ledger, "agent", stack,
                policy_id="pol-2", coverage=units(100), deductible=0,
                bond=0, premium=units(5), claim_deadline=10, expiry_tick=50,
                tick=stack.expires_at,
            )

    def test_stack_without_expiring_certificates_never_expires(self):
        assert compose_stack(0.10, self.certs()).expires_at == math.inf
        assert compose_stack(0.10, []).expires_at == math.inf
        # An excluded certificate's expiry is not the stack's.
        stale = Certificate(issuer="i9", domain="stale", risk_discount=0.4, expiry_tick=3)
        assert compose_stack(0.10, self.certs() + (stale,), tick=3).expires_at == math.inf

    def test_layer1_cut_checked_when_composed(self):
        for cut in (-0.1, 1.5):
            with pytest.raises(ValueError):
                compose_stack(0.10, self.certs(), layer1_cut=cut)

    @given(
        cut=st.floats(0.0, 1.0),
        discounts=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4),
        premium=st.integers(0, MAX_AMOUNT),
    )
    def test_shares_match_the_discount_split(self, cut, discounts, premium):
        # Each issuer gets int(cut x premium x d_i / sum(d)), as decimal
        # fractions of the configured cut and discounts; nothing when the
        # cut or the total discount is zero.
        ledger = Ledger()
        ledger.deposit(AccountId(Role.AGENT_WALLET, "agent"), premium)
        ledger.deposit(AccountId(Role.INSURER_WALLET, "master"), units(1))
        certs = [
            Certificate(issuer=f"i{k}", domain=f"d{k}", risk_discount=d)
            for k, d in enumerate(discounts)
        ]
        stack = compose_stack(0.10, certs, master="master", layer1_cut=cut)
        underwrite_stack(
            ledger, "agent", stack,
            policy_id="pol", coverage=units(1), deductible=0, bond=0,
            premium=premium, claim_deadline=10, expiry_tick=50, tick=0,
        )
        total = sum(Fraction(str(d)) for d in discounts)
        paid = [ledger.balance(AccountId(Role.INSURER_WALLET, c.issuer)) for c in certs]
        if total == 0 or cut == 0:
            assert paid == [0] * len(certs)
            assert stack.premium_shares == ()
        else:
            pool = Fraction(str(cut)) * premium
            assert paid == [int(pool * Fraction(str(d)) / total) for d in discounts]
        # What the ledger paid is what `layer1_shares` computes, in its order.
        assert [ledger.balance(AccountId(Role.INSURER_WALLET, issuer))
                for issuer, _ in stack.premium_shares] == list(layer1_shares(stack, premium))

    def test_shares_given_are_paid_as_given(self):
        # A settlement plan is recorded with shares of its own choosing.
        ledger = self.setup_ledger()
        stack = compose_stack(0.10, self.certs(), master="master", layer1_cut=0.5)
        underwrite_stack(
            ledger, "agent", stack,
            policy_id="pol", coverage=units(100), deductible=0, bond=0,
            premium=units(8), claim_deadline=10, expiry_tick=50, tick=0, shares=(7, 0),
        )
        assert ledger.balance(AccountId(Role.INSURER_WALLET, "i0")) == 7
        assert ledger.balance(AccountId(Role.INSURER_WALLET, "i1")) == 0
        assert ledger.balance(AccountId(Role.INSURER_WALLET, "master")) == (
            units(1000 - 100 + 8) - 7)

    @pytest.mark.parametrize("shares", [(), (1,), (1, 2, 3)])
    def test_one_share_per_issuer_or_nothing_moves(self, shares):
        ledger = self.setup_ledger()
        before = ledger_state(ledger)
        stack = compose_stack(0.10, self.certs(), master="master")
        with pytest.raises(ValueError):
            underwrite_stack(
                ledger, "agent", stack,
                policy_id="pol", coverage=units(100), deductible=0, bond=0,
                premium=units(8), claim_deadline=10, expiry_tick=50, tick=0, shares=shares,
            )
        assert ledger_state(ledger) == before

    def test_failed_premium_share_undoes_the_whole_underwrite(self, monkeypatch):
        ledger = self.setup_ledger()
        before = ledger_state(ledger)
        pay = ledger.pay
        calls = []

        def pay_once(src, *args):
            calls.append(src)
            if len(calls) > 1:
                raise InsufficientFunds(src, 1, 0)
            pay(src, *args)

        monkeypatch.setattr(ledger, "pay", pay_once)
        stack = compose_stack(0.10, self.certs(), master="master", layer1_cut=0.5)
        with pytest.raises(InsufficientFunds):
            underwrite_stack(
                ledger, "agent", stack,
                policy_id="pol", coverage=units(100), deductible=units(10),
                bond=units(5), premium=units("3.6"), claim_deadline=10, expiry_tick=50,
                tick=0,
            )
        assert len(calls) == 2
        assert ledger_state(ledger) == before


class TestAdverseSelection:
    """Flat pricing attracts the risky tail; experience rating narrows it."""

    def population(self, rng, n=60):
        return [
            AgentProfile(
                id=f"a{k}",
                theta=float(rng.random()),
                gain=GainModel("fixed", units(200)),
            )
            for k in range(n)
        ]

    def params(self):
        return MechanismParams(
            L=units(100), G=units(200), S_A=units(30), S_I=units(150),
            B=units(20), F=units(50), R=units(10), V_future=units(20),
            Pi_honest=units(5),
        )

    def test_flat_premium_selects_high_theta(self):
        rng = np.random.default_rng(41)
        population = self.population(rng)
        params = self.params()
        flat_quote = units(40)
        buyers = [a for a in population if decide_purchase(a, flat_quote, params)]
        assert buyers
        avg_all = np.mean([a.theta for a in population])
        avg_buyers = np.mean([a.theta for a in buyers])
        assert avg_buyers >= avg_all

    def test_experience_rating_shrinks_the_gap(self):
        rng = np.random.default_rng(42)
        population = self.population(rng)
        params = self.params()
        avg_all = np.mean([a.theta for a in population])

        flat_quote = units(40)
        flat_buyers = [a for a in population if decide_purchase(a, flat_quote, params)]
        flat_gap = np.mean([a.theta for a in flat_buyers]) - avg_all

        rated_buyers = []
        for agent in population:
            post = RiskPosterior(1, 1)
            for draw in rng.random(200) < agent.theta:
                post = update_posterior(post, bool(draw))
            quote = price_premium(post, params.L, loading=0.0)
            if decide_purchase(agent, quote, params):
                rated_buyers.append(agent)
        assert rated_buyers
        rated_gap = np.mean([a.theta for a in rated_buyers]) - avg_all
        assert flat_gap > 0
        assert rated_gap < flat_gap
