"""The ball-moment sums S(k, l) and exact ball moments.

S(k, l) is the sum over all compositions I = (i_1, ..., i_{2l}) of k into 2l
nonnegative parts of

    k!/(i_1! * ... * i_{2l}!) * prod_j (2 i_j - 1)!!

It is evaluated two ways: by direct enumeration of every composition, and by
the closed form 2^k * k! * C(k+l-1, k).  The closed form is treated as a
conjecture until the test suite has established it against the brute force;
only then do the morphism formulas rely on it.

The enumeration lists the exact factors of every composition of r units
into l slots once, for one half of the 2l slots, and reads that one table for
both halves: each pair of a first-half and a second-half composition is one
of the C(k+2l-1, 2l-1) compositions, whose exact term it forms at about 40 ns.
Cold, best of 7, S(7, 7) (77520 compositions) takes about 0.004 s, S(8, 8)
(490314) about 0.021 s and S(9, 9) (3124550) about 0.12 s on a 2-core x86-64
box with CPython 3.11.  It stays correct beyond that, just slower.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactarith import (
    ParameterError,
    pi_power,
    require_moment,
    require_positive,
    require_radius,
    times_pi_power,
    times_power,
)

# Brute-force self-check budget: the raw multi-index sum for degree k runs
# over C(3k-1, 2k-1) compositions.  Measured on a 2-core x86-64 box (CPython
# 3.11), one cold S(k, k) costs about 0.004 s at k = 7 and 0.021 s at k = 8.
# A budget of 9 would add S(9, 9) (3.1 million compositions, about 0.12 s) to
# every k = 9 query, which takes about 0.06 s without it.  The same bound caps
# `identity --k-max` (identity_rows).
RAW_CHECK_MAX_K = 8


@lru_cache(maxsize=None)
def moment_sum_bruteforce(k: int, l: int) -> int:
    """S(k, l) by direct enumeration of all compositions of k into 2l slots.

    The 2l slots split into two halves of l slots each.  A slot that takes
    i of the r units still to place carries the factor C(r, i) (2i-1)!!, so
    half[r] lists one exact factor r!/(j_1!...j_l!) * prod (2 j_i - 1)!! per
    composition (j_1, ..., j_l) of r units into one half.  A composition with
    r units in the second half is one pair, h from half[k-r] and t from
    half[r], and its exact term C(k, r) * h * t is formed and added to the
    total once.
    """
    require_positive(k=k, l=l)
    # Local double-factorial table: parts never exceed k.
    df = [1] * (k + 1)
    for i in range(2, k + 1):
        df[i] = df[i - 1] * (2 * i - 1)
    # step[r][i]: factor of a slot taking i of r units.
    step = [[math.comb(r, i) * df[i] for i in range(r + 1)] for r in range(k + 1)]
    # A one-slot half takes all r units, with C(r, r) = 1; each pass puts one
    # more slot in front of it.
    half = [[df[r]] for r in range(k + 1)]
    for _ in range(l - 1):
        half = [
            [f * g for i, f in enumerate(step[r]) for g in half[r - i]] for r in range(k + 1)
        ]
    total = 0
    for r in range(k + 1):
        c, second = math.comb(k, r), half[r]
        for h in half[k - r]:
            head = c * h
            total += sum([head * t for t in second])
    return total


def moment_sum_closed(k: int, l: int) -> int:
    """S(k, l) = 2^k * k! * C(k+l-1, k)."""
    require_positive(k=k, l=l)
    return 2**k * math.factorial(k) * math.comb(k + l - 1, k)


def identity_rows(k_max: int) -> list[dict]:
    """Brute-force diagonal moment sums S(k, k) against 2^k k! C(2k-1, k):
    one row {"k", "bruteforce", "closed", "ok"} per 1 <= k <= k_max, the two
    sums as decimal strings.  The `identity` command prints these rows and
    verify's identity-suite checks them.  k_max is at most RAW_CHECK_MAX_K."""
    require_positive(k_max=k_max)
    if k_max > RAW_CHECK_MAX_K:
        raise ParameterError(
            f"must be <= {RAW_CHECK_MAX_K} (the brute-force budget)", k_max=k_max
        )
    rows = []
    for k in range(1, k_max + 1):
        brute = moment_sum_bruteforce(k, k)
        closed = moment_sum_closed(k, k)
        rows.append(
            {"k": k, "bruteforce": str(brute), "closed": str(closed), "ok": brute == closed}
        )
    return rows


def ball_moment_exact(n: int, l: int, k: int) -> tuple[Fraction, int]:
    """Exact value of the ball moment integral

        integral over the unit ball in C^n of (|z_1|^2+...+|z_l|^2)^k
        (Lebesgue measure)  =  coeff * pi^n,

    returned as (coeff, n) with coeff = S(k,l) / (2^k (n+k)!) = C(k+l-1, k) k!/(n+k)!,
    computed as C(k+l-1, k) / perm(n+k, n) without a factorial.  Over the
    radius-r0 ball the coefficient gains the factor r0^(2(n+k)).
    """
    require_moment(n, l, k)
    return Fraction(math.comb(k + l - 1, k), math.perm(n + k, n)), n


def ball_moment(n: int, l: int, k: int, r0: Fraction) -> tuple[Fraction, Fraction, float]:
    """(coeff, coeff at r0 = 1, float value) of the ball moment integral of
    (|z_1|^2+...+|z_l|^2)^k over the radius-r0 ball in C^n, which is
    coeff * pi^n with coeff = ball_moment_exact's times r0^(2(n+k)).

    Every rule of the `moment` value runs here, in this order: n >= 1,
    1 <= l <= n and k >= 1; r0 > 0; pi^n inside the float range (pi_power),
    before any exact work, whose size grows with n; the printable
    r0^(2(n+k)) (DigitLimitError); and the float value inside the float range."""
    require_moment(n, l, k)
    require_radius(r0)
    pi_n = pi_power(n=n)
    base, _ = ball_moment_exact(n, l, k)
    r0_exp = 2 * (n + k)
    coeff = times_power(base, r0, r0_exp)
    try:
        value = times_pi_power(coeff, pi_n)
    except OverflowError:
        # At r0 = 1 the coefficient is below 1, so only r0 can overflow the value.
        raise ParameterError(
            f"the moment exceeds the float range (r0 enters as r0^{r0_exp})", r0=r0
        ) from None
    return coeff, base, value
