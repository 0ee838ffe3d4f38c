"""Exact arithmetic: frozen examples plus independent loop/table oracles."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weincalc.exactarith import (
    DigitLimitError,
    double_factorial_odd,
    format_rational,
    multinomial,
    parse_rational,
    pi_power,
    require_printable_factorial,
    times_power,
)


def test_double_factorial_examples():
    assert double_factorial_odd(0) == 1  # defined value at i = 0
    assert double_factorial_odd(1) == 1
    assert double_factorial_odd(2) == 3
    product = 1
    for odd in range(1, 10, 2):
        product *= odd
    assert double_factorial_odd(5) == product == 945


@given(st.integers(min_value=0, max_value=40))
def test_double_factorial_identity(i):
    # (2i-1)!! * 2^i * i! == (2i)!
    assert double_factorial_odd(i) * 2**i * math.factorial(i) == math.factorial(2 * i)


def test_multinomial_examples():
    assert multinomial(2, [1, 1, 0, 0]) == 2
    assert multinomial(2, [2, 0, 0, 0]) == 1
    assert multinomial(4, [2, 1, 1]) == math.factorial(4) // math.factorial(2) == 12


def test_multinomial_rejects_bad_sum():
    with pytest.raises(ValueError):
        multinomial(3, [1, 1])
    with pytest.raises(ValueError):
        multinomial(2, [3, -1])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6), st.randoms())
def test_multinomial_permutation_invariant(parts, rnd):
    shuffled = list(parts)
    rnd.shuffle(shuffled)
    k = sum(parts)
    assert multinomial(k, parts) == multinomial(k, shuffled)


def test_rational_strings():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("0.25") == Fraction(1, 4)  # exact decimal, not a float
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(Fraction(6, 2)) == "3"


def test_rational_parse_rejects_garbage():
    for bad in ["", "pi", "1/0", "sqrt(2)", "1.2.3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_rational_exponents_are_bounded_by_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_rational("1.5e-3") == Fraction(3, 2000)
    assert parse_rational(f"1e{limit}") == 10**limit
    assert parse_rational(f" 1E-{limit} ") == Fraction(1, 10**limit)
    assert parse_rational("1e1_0") == 10**10  # Fraction's underscore grouping
    for huge in (f"1e{limit + 1}", f"2.5E-{limit + 1}", "1e7_000_000", "1e" + "9" * (limit + 1)):
        with pytest.raises(DigitLimitError):
            parse_rational(huge)
    for bad in ("1e", "1e_1", "e5", "1e+-5"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(bad)


@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
)
def test_rational_arithmetic_is_exact_and_canonical(a, b):
    total = a + b
    assert total - b == a
    assert total.numerator == 0 or math.gcd(abs(total.numerator), total.denominator) == 1
    assert total.denominator >= 1
    assert parse_rational(format_rational(total)) == total


@pytest.mark.parametrize("base", [Fraction(1), Fraction(1, 3), Fraction(2**40, 7**9)])
@pytest.mark.parametrize(
    "r", [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(9, 4), Fraction(1000, 999)]
)
def test_times_power_refuses_only_unprintable_results(base, r):
    # Refusal is monotone in the exponent: bisect for the first refused one;
    # the result there must be unprintable, the one below it computed.
    lo, hi = 0, 10**6
    with pytest.raises(DigitLimitError):
        times_power(base, r, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            times_power(base, r, mid)
            lo = mid
        except DigitLimitError:
            hi = mid
    assert times_power(base, r, lo) == base * r**lo
    with pytest.raises(DigitLimitError):
        format_rational(base * r**hi)


def test_times_power_never_refuses_a_unit_radius():
    assert times_power(Fraction(1, 7), Fraction(1), 10**12) == Fraction(1, 7)


def test_pi_power_refuses_only_above_the_float_range(refuses):
    # pi^620 is about 1.7e308, the last power of pi below the float maximum.
    for e in (1, 2, 300, 620):
        assert pi_power(n=e) == math.pi**e
    assert math.pi**620 * math.pi > sys.float_info.max
    for name, e in (("n", 621), ("k", 650), ("n", 10**6)):
        refuses(lambda: pi_power(**{name: e}), f"pi^{e} exceeds the float range", **{name: e})


def test_printable_factorial_refuses_only_unprintable_factorials():
    # Around the default limit and above any limit; 10^400 is past the float
    # range, so lgamma must not be reached there.
    limit = sys.get_int_max_str_digits()
    refused = []
    for k in [1, 25, *range(1540, 1580), limit, limit + 1, 10**400]:
        try:
            require_printable_factorial(k)
        except DigitLimitError:
            refused.append(k)
    assert {limit + 1, 10**400} <= set(refused)
    sys.set_int_max_str_digits(0)
    try:
        assert all(len(str(math.factorial(k))) > limit for k in refused if k < 10**6)
    finally:
        sys.set_int_max_str_digits(limit)
