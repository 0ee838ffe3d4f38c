"""Moment sums against exhaustive oracles."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weincalc import combinatorics
from weincalc.combinatorics import (
    ball_moment,
    ball_moment_exact,
    moment_sum_bruteforce,
    moment_sum_closed,
)
from weincalc.exactarith import (
    DigitLimitError,
    ParameterError,
    double_factorial_odd,
    multinomial,
)
from weincalc.morphism import RAW_CHECK_MAX_K
from weincalc.verify import check_identity_suite


def exhaustive_compositions(weight: int, slots: int) -> set[tuple[int, ...]]:
    """Oracle: filter the full product grid of the first slots - 1 parts; the
    last part takes what is left."""
    return {
        (*combo, weight - sum(combo))
        for combo in itertools.product(range(weight + 1), repeat=slots - 1)
        if sum(combo) <= weight
    }


def test_moment_sum_bruteforce_small_values():
    # (1,1): compositions (1,0) and (0,1), each contributing 1.
    assert moment_sum_bruteforce(1, 1) == 2
    # (2,2): 4 compositions of shape (2,0,0,0) contribute 3 each,
    # 6 of shape (1,1,0,0) contribute 2 each.
    assert moment_sum_bruteforce(2, 2) == 24
    # (2,1): (2,0) -> 3, (0,2) -> 3, (1,1) -> 2.
    assert moment_sum_bruteforce(2, 1) == 8


def test_moment_sum_bruteforce_matches_definition():
    # The literal definition over the product-grid oracle, sharing no code
    # with the walk: sum of multinomial(k, I) * prod (2i-1)!! over all I.
    # The grid covers l = 1 and k below, at and above the l-slot split of the
    # walk into head and tail.
    for k in range(1, 7):
        for l in range(1, 5):
            expected = 0
            for comp in exhaustive_compositions(k, 2 * l):
                term = multinomial(k, comp)
                for i in comp:
                    term *= double_factorial_odd(i)
                expected += term
            assert moment_sum_bruteforce(k, l) == expected, (k, l)


def test_moment_sum_closed_values():
    assert moment_sum_closed(2, 2) == 2**2 * math.factorial(2) * math.comb(3, 2) == 24
    for l in range(1, 9):
        assert moment_sum_closed(1, l) == 2 * l
    assert moment_sum_closed(3, 3) == 8 * 6 * math.comb(5, 3) == 480


def test_moment_sums_agree_on_full_grid():
    # Establishes the closed form before anything else relies on it.
    for k in range(1, 9):
        for l in range(1, 9):
            assert moment_sum_bruteforce(k, l) == moment_sum_closed(k, l), (k, l)
    assert moment_sum_bruteforce(9, 9) == moment_sum_closed(9, 9)


def test_moment_sum_increasing_in_slots():
    for k in range(1, 7):
        values = [moment_sum_closed(k, l) for l in range(1, 9)]
        assert all(a < b for a, b in zip(values, values[1:]))


@given(st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=30)
def test_summand_identity(k, l):
    # 2^k * multinomial(k, I) * prod (2i-1)!! == k! * prod C(2i, i), exactly.
    for comp in exhaustive_compositions(k, 2 * l):
        lhs = 2**k * multinomial(k, comp)
        rhs = math.factorial(k)
        for i in comp:
            lhs *= double_factorial_odd(i)
            rhs *= math.comb(2 * i, i)
        assert lhs == rhs


def test_identity_suite_rows():
    result = check_identity_suite(4)
    rows = result.details["rows"]
    assert result.passed and result.details["k_max"] == 4
    assert [row["k"] for row in rows] == [1, 2, 3, 4]
    assert all(row["ok"] for row in rows)
    assert rows[0] == {"k": 1, "bruteforce": "2", "closed": "2", "ok": True}
    assert rows[3]["bruteforce"] == rows[3]["closed"] == str(2**4 * 24 * math.comb(7, 4))


def test_ball_moment_exact_spots():
    # Radial quadrature oracles: over B^2, 2*pi*int_0^1 r^3 dr = pi/2 and
    # 2*pi*int_0^1 r^5 dr = pi/3; over B^4, int |z|^2 = pi^2/3, halved by
    # coordinate symmetry for |z_1|^2.
    assert ball_moment_exact(1, 1, 1) == (Fraction(1, 2), 1)
    assert ball_moment_exact(2, 1, 1) == (Fraction(1, 6), 2)
    assert ball_moment_exact(1, 1, 2) == (Fraction(1, 3), 1)
    assert ball_moment_exact(2, 2, 2) == (Fraction(1, 4), 2)


def test_ball_moment_exact_is_the_moment_sum_over_factorials():
    # coeff = S(k, l) / (2^k (n+k)!), the form the docstring states.
    for n in range(1, 7):
        for l in range(1, n + 1):
            for k in range(1, 7):
                want = Fraction(moment_sum_closed(k, l), 2**k * math.factorial(n + k))
                assert ball_moment_exact(n, l, k) == (want, n)


def test_ball_moment_exact_rejects_bad_ranges(refuses):
    refuses(lambda: ball_moment_exact(1, 2, 1), "must satisfy 1 <= l <= n", l=2, n=1)
    refuses(lambda: ball_moment_exact(2, 1, 0), "must be >= 1", k=0)
    refuses(lambda: moment_sum_closed(1, 0), "must be >= 1", l=0)
    refuses(lambda: check_identity_suite(0), "must be >= 1", k_max=0)
    # n is tested first: with no coordinate, l = 1 is not at fault.
    refuses(lambda: ball_moment_exact(0, 1, 1), "must be >= 1", n=0)


def test_identity_suite_refuses_k_max_above_the_brute_force_budget():
    with pytest.raises(ParameterError, match=rf"^must be <= {RAW_CHECK_MAX_K} \(") as refused:
        check_identity_suite(RAW_CHECK_MAX_K + 1)
    assert refused.value.params == {"k_max": RAW_CHECK_MAX_K + 1}


def test_ball_moment_value_and_rules_in_order(monkeypatch, refuses):
    coeff, base, value = ball_moment(2, 1, 3, Fraction(1, 2))
    assert base == Fraction(1, 20) and coeff == base / 2**10
    assert value == float(coeff) * math.pi**2
    # The moment rule before the radius, the radius before the float range.
    refuses(lambda: ball_moment(0, 1, 1, Fraction(-1)), "must be >= 1", n=0)
    refuses(lambda: ball_moment(10**6, 1, 1, Fraction(0)), "must be > 0", r0=Fraction(0))

    def exact_not_reached(*args):
        raise AssertionError("ball_moment_exact called before the float range test")

    monkeypatch.setattr(combinatorics, "ball_moment_exact", exact_not_reached)
    with pytest.raises(ParameterError, match=r"^pi\^1000000 exceeds the float range$") as refused:
        ball_moment(10**6, 1, 1, Fraction(1))
    assert refused.value.params == {"n": 10**6}
    monkeypatch.undo()
    with pytest.raises(DigitLimitError):
        ball_moment(1, 1, 1, Fraction(10) ** 5000)
    with pytest.raises(ParameterError, match=r"\(r0 enters as r0\^4\)$") as refused:
        ball_moment(1, 1, 1, Fraction(10) ** 400)
    assert refused.value.params == {"r0": Fraction(10) ** 400}
