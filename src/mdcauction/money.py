"""Fixed-point currency and quantity arithmetic.

Money amounts and resource quantities are stored as integer milli-units
(one whole unit = 1000 milli-units).  Integer arithmetic keeps budget
conservation exact and makes every simulation bit-reproducible.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, InvalidOperation, localcontext

from .errors import ValidationError

SCALE = 1000
# Every amount ``to_milli`` returns is below _MAX_MILLI milli-units in
# magnitude: at most 28 digits, as many as the default Decimal context
# holds exactly, and far inside the 4300 digits Python formats, even summed.
_MAX_MILLI = 10**28
_TOO_LARGE = f"too large: must be below {_MAX_MILLI // SCALE:.0e}"


def to_milli(value, field: str = "value") -> int:
    """Convert a whole-unit number to integer milli-units.

    Accepts ints, Decimals, floats and numeric strings.  Values finer
    than one milli-unit are rejected rather than silently rounded, and
    so are values that are not finite or reach ``_MAX_MILLI`` milli-units
    in magnitude.
    """
    if isinstance(value, bool):
        raise ValidationError(field, "expected a number, got a boolean")
    if isinstance(value, int):
        # An integer is a whole number of units: only its range is checked.
        if abs(value) >= _MAX_MILLI // SCALE:
            raise ValidationError(field, _TOO_LARGE)
        return value * SCALE
    if isinstance(value, float):
        value = Decimal(str(value))
    elif isinstance(value, str):
        try:
            value = Decimal(value)
        except InvalidOperation:
            raise ValidationError(field, f"not a number: {value!r}") from None
    elif not isinstance(value, Decimal):
        raise ValidationError(field, f"expected a number, got {type(value).__name__}")
    if not value.is_finite():
        raise ValidationError(field, "must be finite")
    if value.copy_abs() >= _MAX_MILLI // SCALE:
        raise ValidationError(field, _TOO_LARGE)
    # A nonzero value below 0.001 fails here, before its exact ratio is built.
    if value and value.adjusted() < -3:
        raise ValidationError(field, "resolution finer than 0.001 is not representable")
    numerator, denominator = value.as_integer_ratio()
    milli, rest = divmod(numerator * SCALE, denominator)
    if rest:
        raise ValidationError(field, "resolution finer than 0.001 is not representable")
    return milli


def format_milli(amount: int) -> str:
    """Render milli-units with exactly three decimals, e.g. 9000 -> '9.000'."""
    sign = "-" if amount < 0 else ""
    amount = abs(amount)
    return f"{sign}{amount // SCALE}.{amount % SCALE:03d}"


def _floors_to_zero(amount: int, num: int, den: int, g: float) -> bool:
    """True only if amount * (num/den)**g < 1, for 0 < num < den and amount > 0.

    Decided in logarithms.  log(den/num) is taken as log1p of the gap
    when the ratio is near 1, so no cancellation occurs and both sides
    are far more accurate than the 1e-6 relative margin; inputs within
    the margin answer False and are computed exactly.
    """
    gap = den - num
    log_ratio = math.log1p(gap / num) if gap <= num else math.log(den) - math.log(num)
    return g * log_ratio > math.log(amount) * (1 + 1e-6) + 1e-6


def _settled_floor(n: int, d: int, slack: int, scale: int) -> int | None:
    """floor(x) shared by every x within a relative ``slack / scale`` of n/d, else None."""
    low = n * (scale - slack) // (d * scale)
    high = n * (scale + slack) // (d * scale)
    return low if low == high else None


def _root(x: int, k: int) -> int | None:
    """The integer y with y ** 2**k == x, or None if there is none."""
    for _ in range(k):
        if x <= 1:
            break
        y = math.isqrt(x)
        if y * y != x:
            return None
        x = y
    return x


def _scale_by_fractional_pow(amount: int, num: int, den: int, exponent: float) -> int:
    """floor(amount * (num/den) ** exponent) exactly, for 0 < num != den and amount > 0.

    The exponent is a double, so it is a / 2**k with a odd and k >= 1.
    The product is a whole number only if num/den in lowest terms is
    (s/t) ** 2**k for integers s and t: then it equals
    amount * s**a / t**a, taken in integers.  Otherwise it is
    irrational, and evaluations of ever higher precision, each with an
    error bound, settle its floor: first the double factor, then
    Decimal at 40, 80, ... digits.  Each allows a relative error of
    exponent + 8 units of its last digit (2**-52 for the double,
    10**(1 - digits) for Decimal), at least twice its first-order error:
    half a unit on num/den, magnified by the exponent, plus the power's
    and the product's own rounding.
    """
    slack = math.ceil(exponent) + 8
    try:
        p, q = ((num / den) ** exponent).as_integer_ratio()
    except OverflowError:
        p, q = 0, 1
    if p << 1000 >= q:  # a normal double, so its relative error is bounded
        settled = _settled_floor(amount * p, q, slack, 1 << 52)
        if settled is not None:
            return settled
    if num < den and _floors_to_zero(amount, num, den, exponent):
        return 0
    a, two_k = exponent.as_integer_ratio()
    k = two_k.bit_length() - 1
    common = math.gcd(num, den)
    s, t = _root(num // common, k), _root(den // common, k)
    if s is not None and t is not None:
        return amount * s**a // t**a
    digits = 40
    while True:
        with localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = digits, MAX_EMAX, MIN_EMIN
            value = Decimal(amount) * (Decimal(num) / Decimal(den)) ** Decimal(exponent)
        settled = _settled_floor(*value.as_integer_ratio(), slack, 10 ** (digits - 1))
        if settled is not None:
            return settled
        digits *= 2


def scale_by_ratio_pow(amount: int, num: int, den: int, exponent: float) -> int:
    """floor(amount * (num/den) ** exponent), all amounts in milli-units.

    The result is exact for every amount, ratio and exponent.  Integer
    exponents use integer arithmetic; fractional ones are settled by
    ``_scale_by_fractional_pow``.  Integer exponents above 1 first
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
    if amount == 0 or num == 0:
        return 0
    if num == den:
        return amount
    scaled = _scale_by_fractional_pow(amount, num, den, exponent)
    # Exact results never exceed the amount on a ratio below 1; the clamp
    # keeps a punished bid within the true bid should an error bound fail.
    return min(scaled, amount) if num < den else scaled
