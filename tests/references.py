"""Reference formulas that the tests compare the package against.  The
package itself computes neither: they define the moment sums term by term."""

import math
from typing import Sequence


def double_factorial_odd(i: int) -> int:
    """(2i-1)!! = 1*3*5*...*(2i-1), with the convention (2*0-1)!! = 1."""
    if i < 0:
        raise ValueError(f"double_factorial_odd requires i >= 0, got {i}")
    out = 1
    for odd in range(3, 2 * i, 2):
        out *= odd
    return out


def multinomial(k: int, parts: Sequence[int]) -> int:
    """k! / (parts_1! * ... * parts_r!) for parts summing to k."""
    if k < 0:
        raise ValueError(f"multinomial requires k >= 0, got {k}")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be >= 0, got {list(parts)}")
    if sum(parts) != k:
        raise ValueError(f"multinomial parts must sum to k={k}, got sum {sum(parts)}")
    out = math.factorial(k)
    for p in parts:
        out //= math.factorial(p)
    return out
