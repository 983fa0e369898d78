"""Exact integer money arithmetic in micro-units.

All monetary quantities in this package are plain ints denominated in
micro-units (1 currency unit = 1_000_000 micro-units). Balances, stakes,
bonds, fees and premiums are non-negative; payoffs are signed deltas and
may be negative. Arithmetic is exact: anything that would require
rounding or exceed the representable range raises instead of silently
truncating.
"""

from __future__ import annotations

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
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise MoneyError(f"amount must be an int of micro-units, got {amount!r}")
    if abs(amount) > MAX_AMOUNT:
        raise MoneyOverflowError(f"amount {amount} exceeds representable range")
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
