import math
import os
import random
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdcauction import ValidationError, format_milli, to_milli
from mdcauction.money import scale_by_ratio_pow
from mdcauction.scenario import MAX_GAMMA


def test_whole_units_scale_to_milli():
    assert to_milli(15) == 15000
    assert to_milli(0) == 0
    assert to_milli(Decimal("2.222")) == 2222
    assert to_milli("2.5") == 2500
    assert to_milli(2.5) == 2500


def test_sub_milli_resolution_rejected():
    with pytest.raises(ValidationError, match="amount"):
        to_milli(Decimal("0.0001"), "amount")
    with pytest.raises(ValidationError):
        to_milli("abc")
    with pytest.raises(ValidationError):
        to_milli(True)
    with pytest.raises(ValidationError):
        to_milli(float("nan"))


@pytest.mark.parametrize(
    "value", [float("inf"), Decimal("-Infinity"), "Infinity", "NaN", "sNaN", Decimal("sNaN")]
)
def test_special_numbers_are_not_finite_whatever_their_type(value):
    with pytest.raises(ValidationError, match="^amount: must be finite$"):
        to_milli(value, "amount")


@pytest.mark.parametrize("value", [10**25, -(10**25), "1e5000", Decimal("1e999999"), 1e300])
def test_amounts_of_10_to_the_25_units_or_more_are_too_large(value):
    with pytest.raises(ValidationError, match="^amount: too large"):
        to_milli(value, "amount")


def test_the_largest_amounts_below_the_bound_convert_exactly():
    # 29 significant digits: a 28-digit Decimal product would round this to a whole number.
    with pytest.raises(ValidationError, match="resolution"):
        to_milli("1234567890123456789012345.6789")
    assert to_milli("9999999999999999999999999.999") == 10**28 - 1
    assert to_milli(-(10**25 - 1)) == -(10**28 - 1000)
    assert to_milli("1E+3") == 10**6
    assert to_milli("0e999999999") == 0
    with pytest.raises(ValidationError, match="resolution"):
        to_milli("1e-999999999")


def _converted(value):
    """``to_milli(value, "amount")``, or the message it raises."""
    try:
        return to_milli(value, "amount")
    except ValidationError as exc:
        return str(exc)


def test_an_integer_converts_as_its_decimal_does():
    # Integers are scaled directly; the Decimal path is the definition.
    rng = random.Random(25)
    edges = [v for m in (10**25 - 1, 10**25, 10**25 + 1) for v in (m, -m)]
    randoms = [rng.randint(-(10**26), 10**26) for _ in range(500)]
    randoms += [rng.randint(-(10**6), 10**6) for _ in range(500)]
    for value in edges + randoms + [0]:
        assert _converted(value) == _converted(Decimal(value)), value
    assert _converted(10**25) == "amount: too large: must be below 1e+25"
    assert _converted(-(10**25 - 1)) == -(10**28 - 1000)


def test_format_is_fixed_three_decimals():
    assert format_milli(9000) == "9.000"
    assert format_milli(2222) == "2.222"
    assert format_milli(0) == "0.000"
    assert format_milli(-1500) == "-1.500"


def test_ratio_pow_integer_exponent_is_exact():
    # 4 * (5/9)^1 = 2.222... floors to 2222 milli
    assert scale_by_ratio_pow(4000, 5000, 9000, 1.0) == 2222
    assert scale_by_ratio_pow(4000, 9000, 9000, 7.0) == 4000
    assert scale_by_ratio_pow(4000, 0, 9000, 1.0) == 0
    # 0^0 treated as 1: gamma=0 must be the identity even at zero remaining
    assert scale_by_ratio_pow(4000, 0, 9000, 0.0) == 4000


def test_ratio_pow_fractional_exponent():
    # 4 * (1/4)^0.5 = 2 exactly
    assert scale_by_ratio_pow(4000, 1000, 4000, 0.5) == 2000
    assert scale_by_ratio_pow(4000, 0, 9000, 0.5) == 0


def test_ratio_pow_matches_the_plain_formula_at_small_exponents():
    rng = random.Random(7)
    for _ in range(5000):
        den = rng.randint(1, 300_000)
        num = rng.randint(0, den)
        amount = rng.randint(0, 40_000)
        g = rng.randint(0, 12)
        assert scale_by_ratio_pow(amount, num, den, float(g)) == amount * num**g // den**g


def test_ratio_pow_near_the_floor_to_zero_boundary_is_exact():
    # amount * (num/den)**g lands just below, at and just above 1
    for num, den, g in ((2, 3, 40), (999, 1000, 500), (149_999, 150_000, 30_000)):
        edge = den**g // num**g
        for amount in (edge - 1, edge, edge + 1):
            assert scale_by_ratio_pow(amount, num, den, float(g)) == amount * num**g // den**g


def test_huge_whole_exponent_returns_promptly():
    # With a memory cap, so that building num**g would fail instead of
    # exhausting the machine.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from mdcauction.money import scale_by_ratio_pow as f\n"
        "print(f(20000, 150000, 200000, 1e9), f(20000, 200000, 200000, 1e9),"
        " f(20000, 0, 200000, 1e9), f(20000, 199999, 200000, 1e9))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "20000", "0", "0"]


def test_fractional_exponent_never_exceeds_the_amount():
    # float(2**54 - 1) rounds up to 2**54, so the float path overshot by one
    assert scale_by_ratio_pow(2**54 - 1, 10**17, 10**17, 0.5) == 2**54 - 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**70),
    st.integers(1, 2**70),
    st.floats(0, MAX_GAMMA, exclude_min=True).filter(lambda g: g != int(g)),
    st.data(),
)
def test_fractional_exponent_result_is_at_most_the_amount(amount, den, gamma, data):
    num = data.draw(st.integers(0, den))
    assert 0 <= scale_by_ratio_pow(amount, num, den, gamma) <= amount


def test_fractional_exponent_keeps_every_unit_above_2_pow_53():
    # The amount is not rounded to a double: (1/4) ** 0.5 is exactly 0.5.
    amount = 2**60 + 12345
    assert scale_by_ratio_pow(amount, 1, 4, 0.5) == amount // 2


def test_fractional_exponent_is_exact_at_whole_numbers():
    # (36/100) ** 0.5 is 0.6, but the double 0.36 ** 0.5 lies just below it.
    assert scale_by_ratio_pow(10000, 36, 100, 0.5) == 6000
    assert scale_by_ratio_pow(10000, 9, 100, 0.5) == 3000
    assert scale_by_ratio_pow(1000, 36, 100, 0.5) == 600
    # 66.48 * (1095200/3836450) ** 0.5 is 35.52; the float product floors to 35.519.
    assert scale_by_ratio_pow(66480, 1095200, 3836450, 0.5) == 35520
    assert scale_by_ratio_pow(100 * 2**60, 36, 100, 0.5) == 60 * 2**60
    # The double factor 2**-1100 underflows to 0.
    assert scale_by_ratio_pow(2**2000, 1, 2**2200, 0.5) == 2**900


def test_tiny_fractional_exponent_still_takes_the_last_unit():
    # 4 * (1/2) ** 1e-300 lies just below 4, though the double factor is 1.
    assert scale_by_ratio_pow(4000, 1, 2, 1e-300) == 3999


quarters = st.integers(1, 31).filter(lambda a: a % 4)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**70), st.integers(1, 2**70), quarters, st.data())
def test_quarter_exponents_match_an_integer_fourth_root(amount, den, a, data):
    # floor(x ** (1/4)) == isqrt(isqrt(floor(x))) for any real x >= 0
    num = data.draw(st.integers(0, den))
    expected = math.isqrt(math.isqrt(amount**4 * num**a // den**a))
    assert scale_by_ratio_pow(amount, num, den, a / 4) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 300),
    st.integers(1, 10**6),
    quarters,
    st.data(),
)
def test_whole_results_are_not_lost(m, v, c, a, data):
    # num/den = (u/v) ** 4, so amount * (num/den) ** (a/4) is exactly m * u**a.
    u = data.draw(st.integers(0, v))
    assert scale_by_ratio_pow(m * v**a, u**4 * c, v**4 * c, a / 4) == m * u**a


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, 10**7),
    st.integers(1, 10**7),
    st.floats(0.01, 20).filter(lambda g: g != int(g)),
    st.data(),
)
def test_fractional_exponent_matches_floats_away_from_whole_numbers(amount, den, gamma, data):
    num = data.draw(st.integers(0, den))
    x = amount * (num / den) ** gamma
    assume(abs(x - round(x)) > 1e-6)
    assert scale_by_ratio_pow(amount, num, den, gamma) == math.floor(x)
