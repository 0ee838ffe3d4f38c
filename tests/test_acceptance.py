"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are exact unless stated; Monte Carlo checks use 10^6 samples with
fixed seeds and an empirical-Bernstein band (montecarlo.McEstimate), which a
correct value leaves with probability at most 2 10^-4 per row.  Runtime budgets are asserted from
wall-clock measurements of the criterion body alone.
"""

import json
import math
import time

from weincalc import verify
from weincalc.cli import main
from weincalc.combinatorics import moment_sum_bruteforce


def timed(fn):
    start = time.monotonic()
    result = fn()
    return result, time.monotonic() - start


def report(criterion: str, passed: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if passed and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {verdict} {criterion} ({elapsed:.1f}s, budget {budget:.0f}s)"
    )
    assert passed
    assert elapsed < budget, f"{criterion} exceeded runtime budget"


def test_criterion_1_identity_suite():
    # S_k brute force equals 2^k k! C(2k-1, k) exactly for 1 <= k <= 7.
    def body():
        return all(
            moment_sum_bruteforce(k, k) == 2**k * math.factorial(k) * math.comb(2 * k - 1, k)
            for k in range(1, 8)
        )

    passed, elapsed = timed(body)
    report("criterion-1 identity suite (k <= 7)", passed, elapsed, 60.0)


def test_criterion_2_general_moment_sums():
    # Brute force equals 2^k k! C(k+l-1, k) exactly for 1 <= k, l <= 6.
    def body():
        return all(
            moment_sum_bruteforce(k, l) == 2**k * math.factorial(k) * math.comb(k + l - 1, k)
            for k in range(1, 7)
            for l in range(1, 7)
        )

    passed, elapsed = timed(body)
    report("criterion-2 general moment sums (k, l <= 6)", passed, elapsed, 60.0)


def test_criterion_3_ball_moments():
    # Exact spot values pi/2, pi^2/6, pi/3 and pi/32 (radius 1/2), plus 10^6-sample Monte Carlo
    # within its band on the whole n <= 3, l <= n, k <= 3 grid.
    result, elapsed = timed(lambda: verify.check_ball_moments(verify.draw_mc_pass(10**6)))
    report("criterion-3 ball moments (exact spots + MC grid)", result.passed, elapsed, 120.0)


def test_criterion_4_cpn_exact_suite():
    # For all 1 <= k <= n <= 8: 0 < q < 1 exactly, the coset is nonzero, the
    # raw multi-index value equals the closed form, and the anchors
    # q(n,1) = 1/(n+1) with order n+1 and q(n,n) = 1/2 with order 2 hold.
    result, elapsed = timed(lambda: verify.check_cpn_exact(n_max=8))
    report("criterion-4 CP^n exact suite (n <= 8)", result.passed, elapsed, 10.0)


def test_criterion_5_cpn_monte_carlo():
    # 10^6-sample morphism average within its band of q(n,k) pi^k/k!, n <= 3.
    result, elapsed = timed(lambda: verify.check_cpn_monte_carlo(verify.draw_mc_pass(10**6)))
    report("criterion-5 CP^n Monte Carlo (n <= 3)", result.passed, elapsed, 120.0)


def test_criterion_6_blowup():
    # Infinite order for all 1 <= k < n <= 8; x -> 0 degeneration equals the
    # CP^n value exactly; MC at rho = 1/2 within its band for n <= 3; and the
    # k = n case computes Finite(2) with the inconsistency flag set.
    result, elapsed = timed(lambda: verify.check_blowup(verify.draw_mc_pass(10**6), n_max=8))
    flagged = [
        row
        for row in result.details["rows"]
        if row["k"] == row["n"]
    ]
    flags_ok = all(
        row["order"] == {"kind": "finite", "order": 2} and row["flags"]
        for row in flagged
    )
    report("criterion-6 blow-up suite (n <= 8)", result.passed and flags_ok, elapsed, 120.0)


def test_criterion_7_product():
    # Rational-period descriptor: cpn(n,k) x trivial nontrivial for all
    # 1 <= k <= n <= 5, with generator-by-generator lattice containment.
    result, elapsed = timed(lambda: verify.check_product(n_max=5))
    report("criterion-7 product suite (n <= 5)", result.passed, elapsed, 10.0)


def test_criterion_8_decision_procedure_oracle():
    # lattice_member / lattice_order agree with the bounded integer-vector
    # search in [-50, 50] on 200 randomized small instances.
    result, elapsed = timed(verify.check_decision_procedures)
    assert result.details["instances"] == 200
    report("criterion-8 decision procedures (200 instances)", result.passed, elapsed, 30.0)


def test_criterion_9_determinism(capsys):
    # Repeated verify runs with the same seeds emit byte-identical JSON.
    def body():
        outputs = []
        for _ in range(2):
            code = main(["verify", "--json"])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out.encode())
        return outputs[0] == outputs[1] and json.loads(outputs[0])["status"] == "ok"

    passed, elapsed = timed(body)
    with capsys.disabled():
        report("criterion-9 byte-identical verify output", passed, elapsed, 300.0)
