"""Exact integer money arithmetic in micro-units.

All monetary quantities in this package are plain ints denominated in
micro-units (1 currency unit = 1_000_000 micro-units). Balances, stakes,
bonds, fees and premiums are non-negative; payoffs are signed deltas and
may be negative. Arithmetic is exact: anything that would require
rounding or exceed the representable range raises instead of silently
truncating.

Rates (a loading, a risk, a discount, a propensity) are not money. `rate`
is the one place a rate given as a float becomes exact: it reads the
float's shortest decimal text, so 0.2 is 1/5, not the binary value
nearest to it.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

UNIT = 10**6
# Signed-64-bit bound; Python ints are unbounded, but amounts past this
# are treated as an overflow error rather than silently accepted.
MAX_AMOUNT = 2**63 - 1


class MoneyError(ValueError):
    """Base class for money representation errors."""


class MoneyOverflowError(MoneyError):
    """Amount left the representable range."""


class RoundingForbiddenError(MoneyError):
    """An operation would have produced a non-integer micro-unit amount."""


def check_amount(amount: int, *, signed: bool = False) -> int:
    """Validate an amount in micro-units and return it.

    Unsigned amounts must be >= 0; signed amounts (payoff deltas) may be
    negative but must stay within the representable range.
    """
    if type(amount) is int and 0 <= amount <= MAX_AMOUNT:
        return amount  # the common case, valid signed or not
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise MoneyError(f"amount must be an int of micro-units, got {amount!r}")
    if abs(amount) > MAX_AMOUNT:
        # Its size, not its digits: `str()` refuses an int past 4300 digits.
        raise MoneyOverflowError(
            f"a {amount.bit_length()}-bit amount exceeds representable range "
            f"({MAX_AMOUNT.bit_length()} bits)"
        )
    if not signed and amount < 0:
        raise MoneyError(f"amount must be non-negative, got {amount}")
    return amount


def units(x: int | str | Decimal) -> int:
    """Convert whole or decimal currency units to micro-units, exactly.

    Accepts ints, decimal strings ("12.5"), or Decimal. More than six
    decimal places is a rounding error, not a truncation.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return check_amount(x * UNIT, signed=True)
    try:
        d = Decimal(str(x))
    except InvalidOperation as exc:
        raise MoneyError(f"not a decimal amount: {x!r}") from exc
    if not d.is_finite():
        raise MoneyError(f"not a finite amount: {x!r}")
    scaled = d * UNIT
    if scaled != scaled.to_integral_value():
        raise RoundingForbiddenError(
            f"{x!r} has more than 6 decimal places; micro-units cannot represent it"
        )
    return check_amount(int(scaled), signed=True)


def format_units(amount: int) -> str:
    """Render micro-units as a decimal currency string (no trailing zeros)."""
    check_amount(amount, signed=True)
    sign = "-" if amount < 0 else ""
    whole, frac = divmod(abs(amount), UNIT)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")


def mul_exact(amount: int, c: Fraction) -> int:
    """Multiply an amount by an exact rational; non-integer results raise."""
    check_amount(amount, signed=True)
    scaled = amount * c
    if scaled.denominator != 1:
        raise RoundingForbiddenError(
            f"scaling {amount} by {c} yields non-integer micro-units"
        )
    return check_amount(int(scaled), signed=True)


@functools.lru_cache(maxsize=1024, typed=True)
def rate(x: float | int | Fraction) -> Fraction:
    """A finite, non-negative rate as the exact rational its decimal text names.

    A float reads as its shortest round-trip decimal (0.2 is 1/5), an int
    as itself, and a Fraction passes through unchanged. Anything else,
    booleans included, raises ValueError. Memoised: a scenario reads the
    same few rates on every episode.
    """
    if isinstance(x, Fraction):
        exact = x
    elif isinstance(x, float) and math.isfinite(x):
        exact = Fraction(repr(float(x)))
    elif isinstance(x, int) and not isinstance(x, bool):
        exact = Fraction(x)
    else:
        exact = None
    if exact is None or exact < 0:
        raise ValueError(f"must be finite and non-negative, got {x!r}")
    return exact
