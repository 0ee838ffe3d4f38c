"""The verification-power gate: each row seeds one defect in a closed form, a
builder of an integrand or a lattice, the order decision or a Monte Carlo
error bar, and `verify.run_all` must fail with the checks the row
names among the failed ones (DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978).

A defect replaces the function in every weincalc module that bound its name,
since `verify` imports `cpn_q` and others by name.  A row runs the quick suite
only where that catches the defect by a wide margin: an exact check decides
it, or its Monte Carlo rows lie far outside their empirical-Bernstein bands
(montecarlo.McEstimate), so that the sample stream of another NumPy version
cannot hide it.

Left out:

- equivalent mutants, which no route can tell from the original:
  `C(2k-1, k-1)` for `C(2k-1, k)` in `cpn_q` and `C(k+l-1, l-1)` for
  `C(k+l-1, k)` in `moment_sum_closed` (binomial symmetry), and
  `(n+k)!/k!` for `perm(n+k, n)` in `ball_moment_exact` (the same integer).
"""

import math
import sys
from fractions import Fraction

import pytest

from weincalc import combinatorics, montecarlo, morphism, symbolic, verify
from weincalc.symbolic import Lattice, OrderResult


def ball_moment_off_at_k3(original):
    def mutant(n, l, k):
        coeff, pi_exp = original(n, l, k)
        return (coeff * Fraction(101, 100) if k == 3 else coeff), pi_exp

    return mutant


def radius_power_2n_plus_k(original):
    def mutant(n, l, k, r0):  # r0^(2n+k) for r0^(2(n+k))
        _, base, _ = original(n, l, k, r0)
        coeff = base * r0 ** (2 * n + k)
        return coeff, base, float(coeff) * math.pi**n

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


def std_error_times_samples(original):
    def mutant(*args):
        return [est._replace(std_error=est.std_error * est.samples) for est in original(*args)]

    return mutant


def blowup_lattice_without_x_power(original):
    return lambda k: Lattice(original(k).generators[:1])  # drops pi^k x^k/k!


def product_lattice_without_periods(original):
    return lambda n, k, m_desc: original(n, k, m_desc._replace(periods={}))


def product_lattice_times_factorial(original):
    def mutant(n, k, m_desc):  # p * (k-j)! for p / (k-j)!
        gens = [(Fraction(1, math.factorial(k)), k, 0)]
        for j in range(1, k + 1):
            gens += [(p * math.factorial(k - j), k - j, 0) for p in m_desc.periods.get(2 * j, ())]
        return Lattice(gens)

    return mutant


def finite_orders_doubled(original):
    def mutant(value, lattice):
        order = original(value, lattice)
        if order.is_finite and order.order > 1:
            return OrderResult.finite(2 * order.order)
        return order

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
        combinatorics, "ball_moment", radius_power_2n_plus_k, True,
        {"ball-moments"}, id="ball_moment-r0^(2n+k)",
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
    pytest.param(
        montecarlo, "_estimate", std_error_times_samples, True,
        {"ball-moments", "cpn-monte-carlo", "blowup"}, id="_estimate-std_error-times-samples",
    ),
    pytest.param(
        morphism, "blowup_lattice", blowup_lattice_without_x_power, True,
        {"blowup"}, id="blowup_lattice-without-x^k",
    ),
    pytest.param(
        morphism, "product_cpn_lattice", product_lattice_without_periods, True,
        {"product"}, id="product_cpn_lattice-without-periods",
    ),
    pytest.param(
        morphism, "product_cpn_lattice", product_lattice_times_factorial, True,
        {"product"}, id="product_cpn_lattice-times-(k-j)!",
    ),
    pytest.param(
        morphism, "cpn_q", lambda f: lambda n, k: f(n, k) * (2 if k >= 9 else 1), True,
        {"cpn-exact"}, id="cpn_q-doubled-above-k8",
    ),
    pytest.param(
        symbolic, "lattice_order", finite_orders_doubled, True,
        {"cpn-exact", "blowup", "decision-procedures"}, id="lattice_order-finite-doubled",
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
