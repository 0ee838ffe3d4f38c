"""Exact integer and rational arithmetic primitives, and the parameter rules
that every module checks its inputs against.

Every identity check and lattice decision downstream must be a genuine
decision procedure, so the arithmetic here is integer and ``Fraction`` only.
The one float is ``coeff * pi^e``, every value the morphism takes being a
rational times a power of pi: ``pi_power`` forms pi^e, refused above the
float range, and ``times_pi_power`` renders the product that the commands
print and the Monte Carlo oracles and checks use; no identity check or
lattice decision reads it.
Each parameter rule has one helper (``require_*``, or ``pi_power`` for the
float range) and one message text.  A helper compares an exact number and a
float alike, so the exact routes and the Monte Carlo oracles share it.
Every parameter rule raises ParameterError, with the parameters at fault in
its `params` and none in its text.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction


class ParameterError(ValueError):
    """A parameter value refused by the rule that owns it.  The message is
    the rule's text alone, and `params` maps the name of each parameter at
    fault to its value, in order, so that each caller can name them its own
    way: the command line writes each as its flag, `--name value`."""

    def __init__(self, message: str, **params):
        super().__init__(message)
        self.params = params


class DigitLimitError(ParameterError):
    """A number longer than the interpreter's integer string limit, which
    bounds every output.  Such a number in a result grows with every size of
    a query, so the error names all of them, with no value: the caller names
    those its query sets.  An input literal past the limit (parse_rational)
    names only its own parameter, if any, and gives its digit count instead
    of its value."""

    def __init__(self, message: str | None = None, **params):
        if message is None:
            message = (
                f"the result has a number of more than {sys.get_int_max_str_digits()} digits,"
                f" the integer string limit"
            )
            params = dict.fromkeys(("n", "l", "k", "r0", "rho"))
        super().__init__(message, **params)


# A run of digits, and the exponent of "1e-7", once Fraction's underscores are dropped.
_DIGITS = re.compile(r"\d+")
_EXPONENT = re.compile(r"[eE][-+]?(\d+)\Z")


def _readable_digits(text: str, name: str | None) -> str:
    """The literal `text` stripped and without underscores, refused with
    DigitLimitError, naming `name` and the digit count, when a run of its
    digits is longer than the integer string limit."""
    digits = str(text).strip().replace("_", "")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    longest = max(map(len, _DIGITS.findall(digits)), default=0) if limit else 0
    if longest > limit:
        raise DigitLimitError(
            f"the input has a number of {longest} digits, more than {limit},"
            f" the integer string limit",
            **({} if name is None else {name: text}),
        )
    return digits


def parse_integer(text: str, name: str | None = None) -> int:
    """``int(text)``, with a literal of more digits than the integer string
    limit refused as parse_rational refuses it, not by int's own error."""
    _readable_digits(text, name)
    return int(text)


def parse_rational(text: str, name: str | None = None) -> Fraction:
    """Parse ``"p/q"``, ``"p"``, or an exact decimal string such as ``"0.25"``
    or ``"1e-7"``.

    Decimal strings are exact (power-of-ten denominators), never binary floats.
    Refused with DigitLimitError before Fraction reads it: a run of more
    digits than the integer string limit, which Fraction would refuse as an
    interpreter setting, and an exponent N above that limit in magnitude,
    which Fraction would expand into 10^|N| before any limit applies.  That
    error names the parameter `name`, when given, and never quotes the
    literal, which may be megabytes long.
    """
    literal = str(text).strip()
    digits = _readable_digits(text, name)
    exponent = _EXPONENT.search(digits)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and exponent and int(exponent[1]) > limit:
        raise DigitLimitError(
            f"the input has a power of ten of more than {limit} digits,"
            f" the integer string limit",
            **({} if name is None else {name: text}),
        )
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {json.dumps(text)}") from exc


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


def pi_power(**exponent: int) -> float:
    """pi^e for the one named exponent e, refused with ParameterError naming
    it when pi^e is above the float range."""
    ((_, e),) = exponent.items()
    try:
        return math.pi**e
    except OverflowError:
        raise ParameterError(f"pi^{e} exceeds the float range", **exponent) from None


def times_pi_power(coeff: Fraction, pi_power: float) -> float:
    """The float of coeff * pi^e, given pi_power = pi^e: float(coeff) *
    pi_power, bit for bit wherever both are normal floats, with the binary
    exponent of coeff split off so that a coefficient below the float range
    still gives a normal product.  OverflowError above it.  The Monte Carlo
    scales, the ball volume pi^n r0^(2n)/n! and pi^k/k!, are rendered here."""
    num, den = coeff.numerator, coeff.denominator
    e = num.bit_length() - den.bit_length() + 1
    mantissa = (num << max(-e, 0)) / (den << max(e, 0))  # in (1/4, 1): no overflow
    return math.ldexp(mantissa * pi_power, e)


def require_positive(**values: int) -> None:
    """Each named value is >= 1 (checked in the order given)."""
    for name, value in values.items():
        if value < 1:
            raise ParameterError("must be >= 1", **{name: value})


def require_within(n: int, **values: int) -> None:
    """n >= 1, then 1 <= value <= n for each named value: a count of the n
    coordinates."""
    require_positive(n=n)
    for name, value in values.items():
        if not 1 <= value <= n:
            raise ParameterError(f"must satisfy 1 <= {name} <= n", **{name: value, "n": n})


def require_moment(n: int, l: int, k: int) -> None:
    """n >= 1, 1 <= l <= n and k >= 1: the moment of |z_1..z_l|^2 to the k over B^2n."""
    require_within(n, l=l)
    require_positive(k=k)


def require_radius(r0: Fraction | float) -> None:
    """A ball radius r0 > 0."""
    if r0 <= 0:
        raise ParameterError("must be > 0", r0=r0)


def require_weight(rho: Fraction | float) -> None:
    """A blow-up weight 0 < rho < 1."""
    if not 0 < rho < 1:
        raise ParameterError("must lie in (0, 1)", rho=rho)
