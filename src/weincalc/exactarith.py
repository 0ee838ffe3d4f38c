"""Exact integer and rational arithmetic primitives, and the parameter rules
that every module checks its inputs against.

Every identity check and lattice decision downstream must be a genuine
decision procedure, so the arithmetic here is integer and ``Fraction`` only
-- no floats anywhere.  Each parameter rule has one ``require_*`` helper and
one message text; the helpers compare whatever number they are given, so the
exact routes and the Monte Carlo oracles share them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence

def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"``, or an exact decimal string such as ``"0.25"``.

    Decimal strings are exact (power-of-ten denominators), never binary floats.
    """
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


class DigitLimitError(ValueError):
    """A number longer than the interpreter's integer string limit, which bounds every output."""

    def __init__(self):
        super().__init__(
            f"the result has a number of more than {sys.get_int_max_str_digits()} digits,"
            f" the integer string limit"
        )


def format_rational(q: Fraction) -> str:
    """Render as ``"p/q"``, or plain ``"p"`` when the denominator is 1."""
    try:
        return str(Fraction(q))
    except ValueError:  # only the integer string limit raises here
        raise DigitLimitError() from None


def require_printable_power(top: int, e: int, bottom: int) -> None:
    """Refuse with DigitLimitError, before top^e is formed, when an integer of
    at least top^e / bottom must exceed the integer string limit.  The test
    bounds top^e from below and bottom from above by powers of two, so it
    never refuses a printable integer."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    # 2^(limit*10//3 + 1) > 10^limit, since log2(10) < 10/3
    if limit and e * (top.bit_length() - 1) - bottom.bit_length() > limit * 10 // 3:
        raise DigitLimitError()


def require_printable_factorial(k: int) -> None:
    """Refuse with DigitLimitError, before k! is formed, when k! must exceed
    the integer string limit: by an lgamma estimate with a one-digit margin,
    or outright above the limit (at least 640), since k! > 10^k for k >= 25."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and (k > limit or math.lgamma(k + 1) / math.log(10) > limit + 1):
        raise DigitLimitError()


def times_power(base: Fraction, r: Fraction, e: int) -> Fraction:
    """base * r^e, refused with DigitLimitError before r^e is formed when its
    reduced numerator or denominator must exceed the integer string limit.

    For r = p/q and base = a/b in lowest terms the reduced numerator is at
    least p^e/b and the denominator at least q^e/a.
    """
    require_printable_power(r.numerator, e, base.denominator)
    require_printable_power(r.denominator, e, base.numerator)
    return base * r**e


def factorial(n: int) -> int:
    """n! as an exact integer."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    return math.factorial(n)


def double_factorial_odd(i: int) -> int:
    """(2i-1)!! = 1*3*5*...*(2i-1), with the convention (2*0-1)!! = 1."""
    if i < 0:
        raise ValueError(f"double_factorial_odd requires i >= 0, got {i}")
    out = 1
    for odd in range(3, 2 * i, 2):
        out *= odd
    return out


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires n, k >= 0, got n={n}, k={k}")
    return math.comb(n, k)


def multinomial(k: int, parts: Sequence[int]) -> int:
    """k! / (parts_1! * ... * parts_r!) for parts summing to k."""
    if k < 0:
        raise ValueError(f"multinomial requires k >= 0, got {k}")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be >= 0, got {list(parts)}")
    if sum(parts) != k:
        raise ValueError(
            f"multinomial parts must sum to k={k}, got sum {sum(parts)}"
        )
    out = math.factorial(k)
    for p in parts:
        out //= math.factorial(p)
    return out


def require_positive(**values: int) -> None:
    """Each named value is >= 1 (checked in the order given)."""
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def require_within(n: int, **values: int) -> None:
    """1 <= value <= n for each named value: a count of the n coordinates."""
    for name, value in values.items():
        if not 1 <= value <= n:
            raise ValueError(
                f"{name} must satisfy 1 <= {name} <= n, got {name}={value} with n={n}"
            )


def require_degree(n: int, k: int) -> None:
    """1 <= k <= n: a degree 2k-1 class on CP^n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    require_within(n, k=k)


def require_moment(n: int, l: int, k: int) -> None:
    """1 <= l <= n and k >= 1: the moment of |z_1..z_l|^2 to the k over B^2n."""
    require_within(n, l=l)
    require_positive(k=k)


def require_radius(r0: Fraction | float) -> None:
    """A ball radius r0 > 0."""
    if r0 <= 0:
        raise ValueError(f"r0 must be > 0, got {r0}")


def require_weight(rho: Fraction | float) -> None:
    """A blow-up weight 0 < rho < 1."""
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
