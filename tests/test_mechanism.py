from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from insured_agents import MechanismParams, check_conditions, mechanism, scale_params, units
from insured_agents.mechanism import FIELDS, SIGNED
from insured_agents.money import (
    MAX_AMOUNT,
    MoneyError,
    MoneyOverflowError,
    RoundingForbiddenError,
    check_amount,
)


def make(**overrides) -> MechanismParams:
    base = dict(
        L=100, G=40, S_A=30, S_I=150, B=20, F=50, R=10, V_future=20,
        P=8, Pi_honest=5,
    )
    base.update(overrides)
    return MechanismParams(**base)


def test_all_conditions_hold_on_example():
    report = check_conditions(make())
    assert (
        report.access_to_justice,
        report.solvency,
        report.deterrence,
        report.all_hold,
    ) == (True, True, True, True)


def test_large_fee_breaks_access_to_justice():
    report = check_conditions(make(F=500))
    assert not report.access_to_justice
    assert not report.all_hold


def test_boundaries_strict_vs_non_strict():
    # Solvency is non-strict: equal stake and loss still passes.
    assert check_conditions(make(S_I=100, L=100)).solvency
    # Deterrence is strict: equality counts as a violation.
    assert not check_conditions(make(S_A=30, V_future=20, G=50)).deterrence


def test_negative_unsigned_field_rejected():
    with pytest.raises(MoneyError):
        make(L=-1)


@pytest.mark.parametrize("amount", [MAX_AMOUNT + 1, 10**5000],
                         ids=["max_plus_one", "5001_digits"])
def test_overflow_message_names_the_size_not_the_digits(amount):
    # 10**5000 has too many digits for `str()`, so the message must not print it.
    with pytest.raises(MoneyOverflowError, match="exceeds representable range") as err:
        check_amount(amount)
    assert len(str(err.value)) < 200


_BAD_AMOUNTS = [(-1, "minus_one"), (True, "true"), (1.0, "float"),
                (MAX_AMOUNT + 1, "max_plus_one"), (-MAX_AMOUNT - 1, "min_minus_one")]


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}-{name}")
    for field in FIELDS for value, name in _BAD_AMOUNTS
    if not (field in SIGNED and value == -1)
])
def test_bad_field_raises_what_check_amount_raises(field, value):
    # The one-pass check must not change which error a bad field gives.
    with pytest.raises(MoneyError) as expected:
        check_amount(value, signed=field in SIGNED)
    with pytest.raises(MoneyError) as got:
        make(**{field: value})
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_valid_params_skip_the_per_field_checks(monkeypatch):
    def refuse(amount, *, signed=False):
        raise AssertionError(f"per-field check ran on {amount!r}")

    monkeypatch.setattr(mechanism, "check_amount", refuse)
    for value in (0, 1, MAX_AMOUNT):
        assert make(**dict.fromkeys(FIELDS, value)).L == value
    assert make(Pi_honest=-MAX_AMOUNT).Pi_honest == -MAX_AMOUNT


def test_pi_honest_may_be_negative():
    assert make(Pi_honest=-7).Pi_honest == -7


def test_scale_by_two():
    scaled = scale_params(make(), 2)
    assert scaled.L == 200
    assert scaled.Pi_honest == 10


def test_scale_identity():
    params = make()
    assert scale_params(params, 1) == params


def test_fractional_scale_rejects_rounding():
    with pytest.raises(RoundingForbiddenError):
        scale_params(make(L=3), Fraction(1, 2))


def test_nonpositive_scale_rejected():
    with pytest.raises(ValueError):
        scale_params(make(), 0)


amounts = st.integers(min_value=0, max_value=10**12)


@given(
    st.builds(
        MechanismParams,
        L=amounts, G=amounts, S_A=amounts, S_I=amounts, B=amounts,
        F=amounts, R=amounts, V_future=amounts, P=amounts,
        Pi_honest=st.integers(min_value=-(10**12), max_value=10**12),
    ),
    st.integers(min_value=1, max_value=10**4),
)
def test_conditions_scale_invariant(params, c):
    assert check_conditions(scale_params(params, c)) == check_conditions(params)


@given(
    st.builds(
        MechanismParams,
        L=amounts, G=amounts, S_A=amounts, S_I=amounts, B=amounts,
        F=amounts, R=amounts, V_future=amounts,
    ),
    st.sampled_from(["L", "B", "S_I", "S_A", "V_future"]),
    st.integers(min_value=0, max_value=10**9),
)
def test_conditions_monotone_in_favorable_directions(params, field, bump):
    # L is favorable for access to justice but adverse for solvency
    # (S_I >= L), so monotonicity is per condition, not global.
    favors = {
        "L": ["access_to_justice"],
        "B": ["access_to_justice"],
        "S_I": ["solvency"],
        "S_A": ["deterrence"],
        "V_future": ["deterrence"],
    }
    before = check_conditions(params)
    after = check_conditions(replace(params, **{field: getattr(params, field) + bump}))
    for name in favors[field]:
        assert getattr(before, name) <= getattr(after, name)


@given(
    st.builds(
        MechanismParams,
        L=amounts, G=amounts, S_A=amounts, S_I=amounts, B=amounts,
        F=amounts, R=amounts, V_future=amounts,
    ),
    st.sampled_from(["F", "G"]),
    st.integers(min_value=0, max_value=10**9),
)
def test_conditions_monotone_in_adverse_directions(params, field, drop):
    lowered = max(0, getattr(params, field) - drop)
    before = check_conditions(params)
    after = check_conditions(replace(params, **{field: lowered}))
    for name in ("access_to_justice", "solvency", "deterrence"):
        assert getattr(before, name) <= getattr(after, name)


def test_units_helper_round_trip():
    assert units(100) == 100 * 10**6
    assert units("0.000001") == 1
    with pytest.raises(RoundingForbiddenError):
        units("0.0000001")
