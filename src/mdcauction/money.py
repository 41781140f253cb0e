"""Fixed-point currency and quantity arithmetic.

Money amounts and resource quantities are stored as integer milli-units
(one whole unit = 1000 milli-units).  Integer arithmetic keeps budget
conservation exact and makes every simulation bit-reproducible.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation

from .errors import ValidationError

SCALE = 1000


def to_milli(value, field: str = "value") -> int:
    """Convert a whole-unit number to integer milli-units.

    Accepts ints, Decimals, floats and numeric strings.  Values finer
    than one milli-unit are rejected rather than silently rounded.
    """
    if isinstance(value, bool):
        raise ValidationError(field, "expected a number, got a boolean")
    if isinstance(value, int):
        return value * SCALE
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(field, "must be finite")
        value = Decimal(str(value))
    elif isinstance(value, str):
        try:
            value = Decimal(value)
        except InvalidOperation:
            raise ValidationError(field, f"not a number: {value!r}") from None
    if isinstance(value, Decimal):
        scaled = value * SCALE
        if scaled != scaled.to_integral_value():
            raise ValidationError(field, "resolution finer than 0.001 is not representable")
        return int(scaled)
    raise ValidationError(field, f"expected a number, got {type(value).__name__}")


def format_milli(amount: int) -> str:
    """Render milli-units with exactly three decimals, e.g. 9000 -> '9.000'."""
    sign = "-" if amount < 0 else ""
    amount = abs(amount)
    return f"{sign}{amount // SCALE}.{amount % SCALE:03d}"


def _floors_to_zero(amount: int, num: int, den: int, g: int) -> bool:
    """True only if amount * (num/den)**g < 1, for 0 < num < den and amount > 0.

    Decided in logarithms.  log(den/num) is taken as log1p of the gap
    when the ratio is near 1, so no cancellation occurs and both sides
    are far more accurate than the 1e-6 relative margin; inputs within
    the margin answer False and are computed exactly.
    """
    gap = den - num
    log_ratio = math.log1p(gap / num) if gap <= num else math.log(den) - math.log(num)
    return g * log_ratio > math.log(amount) * (1 + 1e-6) + 1e-6


def scale_by_ratio_pow(amount: int, num: int, den: int, exponent: float) -> int:
    """floor(amount * (num/den) ** exponent), all amounts in milli-units.

    Integer exponents use exact integer arithmetic; fractional exponents
    fall back to float pow and floor.  Integer exponents above 1 first
    take the cases that need no big powers: a ratio of 1 keeps the
    amount, and a ratio of 0 or a result that provably floors to 0 gives
    0, so a huge exponent such as 1e9 on a shrinking ratio costs nothing.
    """
    if den <= 0:
        raise ValueError("den must be positive")
    if num < 0 or amount < 0:
        raise ValueError("amount and num must be non-negative")
    if exponent < 0 or not math.isfinite(exponent):
        raise ValueError("exponent must be finite and non-negative")
    if exponent == int(exponent):
        g = int(exponent)
        if g > 1:
            if num == den:
                return amount
            if amount == 0 or num == 0 or (num < den and _floors_to_zero(amount, num, den, g)):
                return 0
        return amount * num**g // den**g
    if num == 0:
        return 0
    scaled = math.floor(amount * (num / den) ** exponent)
    # Float rounding can lift a result past the amount on a ratio of at most 1.
    return min(scaled, amount) if num <= den else scaled
