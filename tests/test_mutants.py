"""The verification-power gate: each row seeds one defect in a closed form or
an integrand builder, and `verify.run_all` must fail with the checks the row
names among the failed ones (DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978).

A defect replaces the function in every weincalc module that bound its name,
since `verify` imports `cpn_q` and others by name.  A row runs the quick suite
only where that catches the defect by a wide margin: an exact check decides
it, or its Monte Carlo rows lie far outside the 4-sigma band, so that the
sample stream of another NumPy version cannot hide it.

Left out:

- equivalent mutants, which no route can tell from the original:
  `C(2k-1, k-1)` for `C(2k-1, k)` in `cpn_q` and `C(k+l-1, l-1)` for
  `C(k+l-1, k)` in `moment_sum_closed` (binomial symmetry), and
  `(n+k)!/k!` for `perm(n+k, n)` in `ball_moment_exact` (the same integer);
- `cpn_q` doubled for `k >= 9` only.  It is not equivalent, but no check
  fails on it: the self-check enumerates only up to `RAW_CHECK_MAX_K = 8`
  and Monte Carlo stops at `n = 3`, so it waits for an exact route above
  the enumeration budget.
"""

import math
import sys
from fractions import Fraction

import pytest

from weincalc import combinatorics, montecarlo, morphism, verify


def ball_moment_off_at_k3(original):
    def mutant(n, l, k):
        coeff, pi_exp = original(n, l, k)
        return (coeff * Fraction(101, 100) if k == 3 else coeff), pi_exp

    return mutant


def blowup_at_weight_with_one_more_power(original):
    def mutant(n, k, rho):
        c = morphism.cpn_q(n, k) / math.factorial(k)
        x = rho * rho
        return c * (1 - x ** (n + k + 1)) / (1 - x**n)

    return mutant


def moment_sum_above_six(original):
    def mutant(k, l):
        if l > 6:
            return 2**k * math.factorial(k) * math.comb(k + l, k)
        return original(k, l)

    return mutant


def trace_volume_scaled(original):
    def mutant(*args):
        return [(m, k, cutoff, scale * 1.01) for m, k, cutoff, scale in original(*args)]

    return mutant


# (module, name, defect, quick, checks that must fail).  In the quick suite a
# 1 % error at k = 3 of the ball moments, or in the trace-volume scale, sits
# about 5 standard errors out, too close to the band; the full suite puts it
# at about 17.  The identity suite reaches l = 7 only in the full suite.
MUTANTS = [
    pytest.param(
        morphism, "cpn_q", lambda f: lambda n, k: f(n, k) * Fraction(1001, 1000), True,
        {"cpn-exact", "blowup", "product"}, id="cpn_q-times-1.001",
    ),
    pytest.param(
        combinatorics, "ball_moment_exact", ball_moment_off_at_k3, False,
        {"ball-moments"}, id="ball_moment_exact-times-1.01-at-k3",
    ),
    pytest.param(
        morphism, "blowup_at_weight", blowup_at_weight_with_one_more_power, True,
        {"blowup"}, id="blowup_at_weight-x^(n+k+1)",
    ),
    pytest.param(
        combinatorics, "moment_sum_closed", moment_sum_above_six, False,
        {"identity-suite"}, id="moment_sum_closed-C(k+l,k)-above-l6",
    ),
    pytest.param(
        montecarlo, "trace_volume_integrands", trace_volume_scaled, False,
        {"cpn-monte-carlo", "blowup"}, id="trace_volume_integrands-scale-times-1.01",
    ),
]


def install(monkeypatch, module, name, defect) -> int:
    """Replace module.name by defect(original) in every weincalc module that
    holds the original; the number of bindings replaced."""
    original = getattr(module, name)
    mutant = defect(original)
    replaced = 0
    for module_name, owner in list(sys.modules.items()):
        if module_name.split(".")[0] != "weincalc":
            continue
        for key, value in list(vars(owner).items()):
            if value is original:
                monkeypatch.setattr(owner, key, mutant)
                replaced += 1
    return replaced


@pytest.mark.parametrize("module, name, defect, quick, expected", MUTANTS)
def test_verify_fails_on_a_seeded_defect(monkeypatch, module, name, defect, quick, expected):
    assert install(monkeypatch, module, name, defect) >= 1
    failed = {result.name for result in verify.run_all(quick=quick) if not result.passed}
    assert expected <= failed
