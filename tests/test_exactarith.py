"""Exact arithmetic: frozen examples plus independent loop/table oracles."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weincalc.exactarith import (
    DigitLimitError,
    binomial,
    double_factorial_odd,
    factorial,
    format_rational,
    multinomial,
    parse_rational,
    require_printable_factorial,
    times_power,
)


def repeated_product(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def pascal_triangle(rows: int) -> list[list[int]]:
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(12) == repeated_product(12) == 479001600


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


@given(st.integers(min_value=1, max_value=60))
def test_factorial_recurrence(n):
    assert factorial(n) == n * factorial(n - 1)


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
    assert double_factorial_odd(i) * 2**i * factorial(i) == factorial(2 * i)


def test_binomial_examples():
    assert binomial(3, 2) == 3
    for n in range(8):
        assert binomial(n, 0) == 1
    tri = pascal_triangle(10)
    assert binomial(10, 5) == tri[10][5] == 252


def test_binomial_above_diagonal_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(0, 1) == 0


@given(st.integers(0, 12), st.integers(0, 12))
def test_binomial_matches_pascal(n, k):
    tri = pascal_triangle(12)
    expected = tri[n][k] if k <= n else 0
    assert binomial(n, k) == expected


def test_multinomial_examples():
    assert multinomial(2, [1, 1, 0, 0]) == 2
    assert multinomial(2, [2, 0, 0, 0]) == 1
    assert multinomial(4, [2, 1, 1]) == factorial(4) // (factorial(2) * factorial(1) * factorial(1)) == 12


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
