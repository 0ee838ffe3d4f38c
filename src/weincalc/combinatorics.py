"""Multi-index compositions and the ball-moment sums S(k, l).

S(k, l) is the sum over all compositions I = (i_1, ..., i_{2l}) of k into 2l
nonnegative parts of

    k!/(i_1! * ... * i_{2l}!) * prod_j (2 i_j - 1)!!

It is evaluated two ways: by direct enumeration of every composition, and by
the closed form 2^k * k! * C(k+l-1, k).  The closed form is treated as a
conjecture until the test suite has established it against the brute force;
only then do the morphism formulas rely on it.

Brute force is intended for k + 2l up to about 24 (at most a few million
compositions); beyond that the enumeration is still correct, just slow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .exactarith import (
    binomial,
    factorial,
    multinomial,
    require_moment,
    require_positive,
    require_radius,
)

Composition = tuple[int, ...]


def compositions(weight: int, slots: int) -> Iterator[Composition]:
    """Yield every tuple of `slots` nonnegative integers summing to `weight`.

    Ordering puts weight on the leftmost slots first: (1, 0) before (0, 1).
    The total number of tuples is C(weight+slots-1, slots-1).
    """
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    # Checked inline, not through require_positive: this generator starts
    # once per enumerated prefix, and a call here slows the enumeration.
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    if slots == 1:
        yield (weight,)
        return
    for first in range(weight, -1, -1):
        for rest in compositions(weight - first, slots - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def moment_sum_bruteforce(k: int, l: int) -> int:
    """S(k, l) by direct enumeration of all compositions of k into 2l slots."""
    require_positive(k=k, l=l)
    # Local double-factorial table: parts never exceed k.
    df = [1] * (k + 1)
    for i in range(2, k + 1):
        df[i] = df[i - 1] * (2 * i - 1)
    total = 0
    for comp in compositions(k, 2 * l):
        term = multinomial(k, comp)
        for i in comp:
            term *= df[i]
        total += term
    return total


def moment_sum_closed(k: int, l: int) -> int:
    """S(k, l) = 2^k * k! * C(k+l-1, k)."""
    require_positive(k=k, l=l)
    return 2**k * factorial(k) * binomial(k + l - 1, k)


def verify_diagonal_identity(k_max: int) -> list[tuple[int, int, int, bool]]:
    """Check brute force against the closed form on the diagonal l = k.

    Returns one row (k, bruteforce, closed, equal) per 1 <= k <= k_max.
    """
    require_positive(k_max=k_max)
    rows = []
    for k in range(1, k_max + 1):
        brute = moment_sum_bruteforce(k, k)
        closed = moment_sum_closed(k, k)
        rows.append((k, brute, closed, brute == closed))
    return rows


def ball_moment_exact(
    n: int, l: int, k: int, r0: Fraction = Fraction(1)
) -> tuple[Fraction, int]:
    """Exact value of the ball moment integral

        integral over the radius-r0 ball in C^n of (|z_1|^2+...+|z_l|^2)^k
        (Lebesgue measure)  =  coeff * pi^n,

    returned as (coeff, n) with coeff = r0^(2(n+k)) * S(k,l) / (2^k (n+k)!).
    """
    require_moment(n, l, k)
    r0 = Fraction(r0)
    require_radius(r0)
    coeff = (
        r0 ** (2 * (n + k))
        * moment_sum_closed(k, l)
        / (2**k * factorial(n + k))
    )
    return coeff, n
