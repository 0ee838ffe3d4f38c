"""CLI surface: exit codes, JSON schema stability, human/JSON agreement.

Every refusal is checked by one stderr rule, `assert_refused`: exit 2, no
stdout, and the exact stderr, or a prefix (for argparse's usage errors, a
fragment) of a diagnostic under 300 bytes.  In process, `check_refusal` runs
a query written as text, with its descriptor file named `{path}`.  Its tables:

- flags (`test_refusal_diagnostics_name_the_flags_as_typed`): exact text;
- over-long input (`test_an_over_long_input_is_refused_in_a_few_bytes`): a
  prefix of a diagnostic under 300 bytes, however long the input;
- malformed descriptor fields
  (`test_product_rejects_malformed_descriptor_fields`): the field's prefix;

and the single-query refusal tests, each one exact-text call.  No query and
stderr is asserted twice in process.  The bounded-query table
(`test_worst_case_queries_finish_within_their_bounds`) runs each query as a
fresh process under its own timeout and applies the same rule; where a query
is also pinned in process, its row checks only the bound and the exit code.
The process contracts (no NumPy, byte-identical Monte Carlo output across
processes and BLAS thread counts, a closed stdout) also run as fresh
processes here.
"""

import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from weincalc import cli, combinatorics, montecarlo, morphism, symbolic, verify
from weincalc.cli import main
from weincalc.exactarith import SHOWN_PREFIX, format_rational, times_pi_power
from weincalc.morphism import MAX_DESCRIPTOR_CHARS, RAW_CHECK_MAX_K, cpn_q
from weincalc.symbolic import PiGradedValue, json_terms


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


def assert_refused(code, out, err, expected):
    """The stderr rule of every refusal test, in process or not: exit 2, no
    stdout, and stderr equal to `expected` when it ends in a newline.
    Otherwise stderr is under 300 bytes, however long the input it quotes,
    and starts with `expected`, an "error: " prefix, or, for argparse's
    usage errors, starts with "usage: " and contains `expected`."""
    assert (code, out) == (2, ""), err[:200]
    if expected.endswith("\n"):
        assert err == expected
        return
    assert len(err.encode()) < 300, err[:200]
    if expected.startswith("error: "):
        assert err.startswith(expected), err
    else:
        assert err.startswith("usage: ") and expected in err, err


def check_refusal(capsys, tmp_path, argv, expected, descriptor=None):
    """Run the query `argv`, text split at spaces, through main and apply
    assert_refused.  `descriptor`, a JSON document or the raw text or bytes
    of one, is written to the file that `argv` and `expected` name as
    `{path}`."""
    path = tmp_path / "manifold.json"
    if isinstance(descriptor, bytes):
        path.write_bytes(descriptor)
    elif descriptor is not None:
        path.write_text(descriptor if isinstance(descriptor, str) else json.dumps(descriptor))
    try:
        code = main(argv.replace("{path}", str(path)).split())
    except SystemExit as exc:  # argparse's usage errors exit inside main
        code = exc.code
    out, err = capsys.readouterr()
    assert_refused(code, out, err, expected.replace("{path}", str(path)))


def spy(monkeypatch, name):
    """The argument tuples of every call of symbolic.`name`, through each
    weincalc module that holds it, under whatever name it is imported."""
    calls = []
    original = getattr(symbolic, name)

    def traced(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "weincalc":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, traced)
    return calls


def test_cpn_human_and_json_agree(capsys):
    code, out, _ = run_cli(capsys, "cpn", "--n", "2", "--k", "1")
    assert code == 0
    assert "q         = 1/3" in out
    assert "Finite(3)" in out
    assert "nontrivial" in out

    code, doc = run_json(capsys, "cpn", "--n", "2", "--k", "1")
    assert code == 0
    assert doc["schema"] == "weincalc/1"
    assert doc["q"] == "1/3"
    assert doc["order"] == {"kind": "finite", "order": 3}
    assert doc["nontrivial"] is True
    assert doc["status"] == "ok"
    # The value block round-trips through the symbolic serialization.
    assert PiGradedValue.from_terms(json_terms(doc["value"])).components[1].num.terms


def test_cpn_top_degree(capsys):
    code, doc = run_json(capsys, "cpn", "--n", "5", "--k", "5")
    assert code == 0
    assert doc["q"] == "1/2"
    assert doc["order"] == {"kind": "finite", "order": 2}


def test_cpn_at_huge_dimension_never_forms_n_factorial(capsys):
    # q(n, 1) = 1/(n+1); with n! and (n+1)! formed this took over a minute.
    code, doc = run_json(capsys, "cpn", "--n", "1000000", "--k", "1")
    assert code == 0
    assert doc["q"] == "1/1000001"
    assert doc["order"] == {"kind": "finite", "order": 1000001}


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_digit_limit_names_the_flags(capsys, tmp_path, fmt):
    # 1/(2 * 2000!) has 5736 digits; the interpreter's limit stays in force.
    check_refusal(capsys, tmp_path, " ".join(["cpn --n 2000 --k 2000", *fmt]),
                  f"error: --n 2000 --k 2000: {DIGITS}\n")


def test_blowup_infinite_order(capsys):
    code, doc = run_json(capsys, "blowup", "--n", "3", "--k", "1")
    assert code == 0
    assert doc["order"]["kind"] == "infinite"
    assert doc["flags"] == []


def test_blowup_top_degree_is_flagged(capsys):
    code, doc = run_json(capsys, "blowup", "--n", "2", "--k", "2")
    assert code == 0
    assert doc["order"] == {"kind": "finite", "order": 2}
    assert doc["flags"] == ["finite-order-at-k-equals-n"]


def test_blowup_numeric_weight(capsys):
    code, doc = run_json(capsys, "blowup", "--n", "2", "--k", "1", "--rho", "1/2")
    assert code == 0
    at = doc["at_rho"]
    assert at["x"] == "1/4"
    # f(1/4) = (1/3)(1/16 + 1/4 + 1)/(5/4) = 7/20.
    assert at["pi_k_coefficient"] == "7/20"
    assert abs(at["value_float"] - 0.35 * 3.141592653589793) < 1e-12


@pytest.mark.parametrize("rho", [None, "3/7"])
def test_blowup_json_writes_the_value_once(capsys, monkeypatch, rho):
    # The value prints megabytes at large n, so --json writes it once, as
    # `value`, and formats no weight function; the human report formats it
    # and builds no JSON.
    formatted, rendered = [], []
    to_str, to_json = symbolic.RatFuncQ.__str__, PiGradedValue.to_json
    monkeypatch.setattr(symbolic.RatFuncQ, "__str__", lambda f: formatted.append(f) or to_str(f))
    monkeypatch.setattr(PiGradedValue, "to_json", lambda v: rendered.append(v) or to_json(v))
    argv = ["blowup", "--n", "160", "--k", "159"] + ([] if rho is None else ["--rho", rho])
    code, doc = run_json(capsys, *argv)
    assert code == 0
    at_rho = [] if rho is None else ["at_rho"]
    assert list(doc) == [
        "schema", "command", "params", "value", "lattice", "order", *at_rho, "flags", "status"
    ]
    assert (formatted, len(rendered)) == ([], 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    value = out.splitlines()[1]
    assert value.startswith("  value     = (") and value.endswith(") * pi^159")
    assert (len(formatted), len(rendered)) == (1, 1)


def test_moment_exact(capsys):
    code, doc = run_json(capsys, "moment", "--n", "1", "--l", "1", "--k", "1", "--r0", "1")
    assert code == 0
    assert doc["coefficient"] == "1/2"
    assert doc["pi_exp"] == 1
    assert doc["r0_exp"] == 4

    code, doc = run_json(capsys, "moment", "--n", "2", "--l", "2", "--k", "2", "--r0", "1")
    assert doc["coefficient"] == "1/4"  # pi^2/4
    assert doc["pi_exp"] == 2
    # The heading names the one modulus at l = 1; it read (|z_1|^2+...+|z_1|^2)^1.
    for flags, heading in [
        ("--n 1 --l 1 --k 1", "integral over B^2(1) of (|z_1|^2)^1"),
        ("--n 2 --l 2 --k 2", "integral over B^4(1) of (|z_1|^2+...+|z_2|^2)^2"),
    ]:
        code, out, _ = run_cli(capsys, "moment", *flags.split())
        assert (code, out.splitlines()[0]) == (0, heading)


def test_moment_radius_scaling(capsys):
    code, doc = run_json(capsys, "moment", "--n", "2", "--l", "1", "--k", "3", "--r0", "1/2")
    assert code == 0
    assert doc["r0_exp"] == 2 * (2 + 3)
    assert doc["coefficient_at_r0_1"] == "1/20"
    assert Fraction(doc["coefficient"]) == Fraction(1, 20) * Fraction(1, 2) ** 10


def test_moment_float_is_the_coefficient_times_pi_power(capsys):
    # Where float(coeff) and the product are normal floats, value_float is
    # float(coeff) * pi^n bit for bit.
    for n, l, k, r0 in [(1, 1, 1, "1"), (3, 2, 5, "7/3"), (8, 8, 8, "9/4"), (6, 1, 2, "1/4")]:
        code, doc = run_json(capsys, "moment", "--n", str(n), "--l", str(l), "--k", str(k),
                             "--r0", r0)
        assert code == 0
        assert doc["value_float"] == float(Fraction(doc["coefficient"])) * math.pi**n
    # Near the top of the float range: pi^620 is about 1.7e308.
    assert times_pi_power(Fraction(3, 4), math.pi**620) == 0.75 * math.pi**620
    with pytest.raises(OverflowError):
        times_pi_power(Fraction(3, 2), math.pi**620)


def test_moment_float_below_the_coefficient_float_range(capsys):
    # pi^200/201! is about 1.7e-278, although 1/201! is below every float.
    code, doc = run_json(capsys, "moment", "--n", "200", "--l", "1", "--k", "1")
    assert code == 0
    assert doc["coefficient"] == f"1/{math.factorial(201)}"
    expected = math.exp(200 * math.log(math.pi) - math.lgamma(202))
    assert math.isclose(doc["value_float"], expected, rel_tol=1e-9)


def test_moment_rejects_value_above_float_range(capsys, tmp_path):
    # float(coeff) is finite here, but times pi^5 it is not; JSON has no Infinity.
    r0 = "54700000000000000000000000"
    check_refusal(capsys, tmp_path, f"moment --n 5 --l 1 --k 1 --r0 {r0} --json",
                  f"error: --r0 {r0}: the moment exceeds the float range (r0 enters as r0^12)\n")


def test_moment_at_huge_degree_is_quick(capsys):
    # Neither k! nor (n+k)! is formed, and r0^(2(n+k)) is refused before it
    # is formed when it cannot be printed; each case once took minutes.
    digits = f"more than {sys.get_int_max_str_digits()} digits, the integer string limit\n"
    start = time.perf_counter()
    code, doc = run_json(capsys, "moment", "--n", "1", "--l", "1", "--k", "10000000")
    assert code == 0
    assert doc["coefficient"] == "1/10000001"
    assert doc["r0_exp"] == 20000002
    for flags in ("--n 619 --l 1 --k 10000000 --r0 1", "--n 1 --l 1 --k 10000000 --r0 9/4"):
        code, out, err = run_cli(capsys, "moment", *flags.split())
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flags}: the result has ")
        assert err.endswith(digits)
    assert time.perf_counter() - start < 10


def test_moment_with_mc(capsys):
    code, doc = run_json(
        capsys,
        "moment", "--n", "1", "--l", "1", "--k", "1",
        "--mc", "--samples", "100000", "--seed", "9",
    )
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["mc"]["band_distance"] <= 1
    assert doc["mc"]["samples"] == 100000


def test_moment_without_a_coordinate_blames_n(capsys, tmp_path):
    # It blamed l: "l must satisfy 1 <= l <= n, got l=1 with n=0".
    check_refusal(capsys, tmp_path, "moment --n 0 --l 1 --k 1", "error: --n 0: must be >= 1\n")


def test_moment_tests_float_range_before_exact_work(capsys, monkeypatch):
    # At n = 10^6 the exact coefficient alone costs about 24 s; the float
    # range of pi^n must refuse the query before any of it is computed.
    def exact_not_reached(*args):
        raise AssertionError("ball_moment_exact called before the --n range test")

    monkeypatch.setattr(combinatorics, "ball_moment_exact", exact_not_reached)
    code, out, err = run_cli(capsys, "moment", "--n", "1000000", "--l", "1", "--k", "1")
    assert code == 2
    assert out == ""
    assert err == "error: --n 1000000: pi^1000000 exceeds the float range\n"


def test_moment_mc_keeps_the_standard_error_of_a_tiny_moment(capsys):
    # The integrand is about 1e-225 here; its squares once underflowed to 0.
    code, doc = run_json(
        capsys, "moment", "--n", "170", "--l", "1", "--k", "1", "--mc", "--samples", "40000"
    )
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["mc"]["std_error"] > 0
    assert doc["mc"]["band_distance"] <= 1


def test_moment_mc_rejects_float_overflow_of_the_volume(capsys):
    # The volume pi^600 15.2^1200/600! is about 2.5e308; the moment, 0.38
    # times it, is still a float.
    argv = ["moment", "--n", "600", "--l", "1", "--k", "1", "--r0", "15.2"]
    assert run_json(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--mc", "--samples", "10") == (
        2, "", "error: --n 600 --r0 15.2: the Monte Carlo ball volume overflows a float\n"
    )


def test_moment_mc_answers_where_only_n_factorial_overflows(capsys):
    # pi^171/171! is about 8.3e-225, although 171! is above every float; the
    # query was refused as an overflowing volume.
    code, doc = run_json(
        capsys, "moment", "--n", "171", "--l", "1", "--k", "1", "--mc", "--samples", "40000"
    )
    assert (code, doc["status"]) == (0, "ok")
    assert doc["mc"]["band_distance"] <= 1


def test_moment_mc_refuses_an_underflowing_moment(capsys, monkeypatch):
    # At r0 = 1e-40 the moment is about 1e-400: the estimate and its standard
    # error were both 0.0, so the check passed on no evidence.  At 1e-400 the
    # float radius itself is 0.0, and the refusal named "r0 must be > 0".
    drawn = []
    monkeypatch.setattr(montecarlo, "sample_ball", lambda *a: drawn.append(a))
    for r0 in ("1e-40", "1e-400"):
        code, out, err = run_cli(
            capsys, "moment", "--n", "3", "--l", "1", "--k", "2", "--r0", r0,
            "--mc", "--samples", "100",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: --n 3 --l 1 --k 2 --r0 {r0}: the moment underflows a float,"
            f" so Monte Carlo cannot check it\n"
        )
        code, doc = run_json(capsys, "moment", "--n", "3", "--l", "1", "--k", "2", "--r0", r0)
        assert (code, doc["value_float"]) == (0, 0.0)  # the exact moment still answers
    assert drawn == []


def test_moment_mc_refuses_samples_that_cannot_resolve_the_integrand(capsys, monkeypatch):
    # At k = 10^6 the moment is 3/(10^6 + 3) of the bound |z|^(2k) <= 1: 1000
    # samples printed an estimate about 3e87 standard errors off and exited 1
    # on a correct closed form.  At k = 10^9 no count within the cap suffices.
    drawn = []
    monkeypatch.setattr(montecarlo, "sample_ball", lambda *a: drawn.append(a))
    mc = ("--mc", "--samples", "1000")
    code, out, err = run_cli(capsys, "moment", "--n", "3", "--l", "3", "--k", "1000000", *mc)
    assert (code, out) == (2, "")
    assert err == (
        "error: --samples 1000: too few for a Monte Carlo band within 10% of this moment;"
        " it needs at least 77027358 samples\n"
    )
    code, out, err = run_cli(capsys, "moment", "--n", "3", "--l", "3", "--k", "1000000000", *mc)
    assert (code, out) == (2, "")
    assert err == (
        "error: --samples 1000 --n 3 --l 3 --k 1000000000: a Monte Carlo band within 10% of"
        " this moment needs about 10^10.9 samples, and samples * n must be <= 300000000"
        " (MAX_MC_WORK)\n"
    )
    assert drawn == []


def test_moment_mc_refuses_the_counts_whose_4_sigma_rule_failed_a_correct_value(
    capsys, monkeypatch
):
    # 3628 samples, the count the kurtosis rule asked for at (3, 1, 8), put
    # the estimate 4.34 and 4.89 standard errors from 1/990 pi^3 at these
    # seeds, and the query exited 1.  The band's power rule refuses it before
    # any draw, and the count it names checks the same value at both seeds.
    argv = ["moment", "--n", "3", "--l", "1", "--k", "8", "--mc"]
    sample_ball = montecarlo.sample_ball
    for seed in ("23", "244"):
        drawn = []
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "sample_ball", lambda *a: drawn.append(a) or sample_ball(*a))
            code, out, err = run_cli(capsys, *argv, "--samples", "3628", "--seed", seed)
        assert (code, out, len(drawn)) == (2, "", 0)
        assert err == (
            "error: --samples 3628: too few for a Monte Carlo band within 10% of this moment;"
            " it needs at least 38130 samples\n"
        )
        code, doc = run_json(capsys, *argv, "--samples", "38130", "--seed", seed)
        assert (code, doc["status"]) == (0, "ok")
        assert doc["mc"]["band_distance"] <= 1


def test_moment_mc_needs_the_samples_that_the_power_rule_asks_for(capsys):
    # |z|^2 over the unit disk has mean 1/2, so the range term 7 L / (3 (N-1))
    # of the band, L = ln(2 10^4), is within 10 % of it from N = 464.
    argv = ["moment", "--n", "1", "--l", "1", "--k", "1", "--mc"]
    assert run_cli(capsys, *argv, "--samples", "463")[0] == 2
    assert run_cli(capsys, *argv, "--samples", "464")[0] == 0


@pytest.mark.parametrize(
    "n, l, k", [(1, 1, 1), (2, 1, 1), (3, 2, 2), (5, 5, 1), (6, 3, 7), (40, 40, 1)]
)
def test_moment_power_rule_reads_the_exact_ball_moments(n, l, k):
    # The power rule reads log E[s^k] on the unit ball: the ball moment over
    # the volume pi^n/n!.
    moment = combinatorics.ball_moment_exact(n, l, k)[0] * math.factorial(n)
    assert montecarlo._log_unit_moment(n, l, k) == pytest.approx(
        math.log(moment), rel=1e-12, abs=1e-14
    )


def test_moment_rejects_samples_above_cap(capsys, tmp_path, monkeypatch):
    # The cap bounds samples * n, the normals drawn, so it tightens with n.
    cap = montecarlo.MAX_MC_WORK
    # The n = 3 case is a row of the flags table.
    for n, samples in [(1, cap + 1), (170, cap // 170 + 1)]:
        check_refusal(capsys, tmp_path, f"moment --n {n} --l 1 --k 1 --mc --samples {samples}",
                      f"error: --samples {samples} --n {n}: samples * n must be <= {cap}\n")
    # Every sample count up to 10^8 is accepted at n <= 3, and the exact
    # moment, which draws no samples, is not bounded by it.
    assert 3 * 10**8 <= cap
    code, out, err = run_cli(capsys, "moment", "--n", "400", "--l", "1", "--k", "1")
    assert (code, err) == (0, "")
    # At the cap itself the request runs; one sample more is refused.
    monkeypatch.setattr(montecarlo, "MAX_MC_WORK", 3000)
    for samples, codes in [("1000", (0, 1)), ("1001", (2,))]:
        code, out, err = run_cli(
            capsys, "moment", "--n", "3", "--l", "1", "--k", "1", "--mc", "--samples", samples
        )
        assert code in codes


DIGITS = (
    f"the result has a number of more than {sys.get_int_max_str_digits()} digits,"
    f" the integer string limit"
)
LONG = "3" * (sys.get_int_max_str_digits() + 1)
# An over-long literal is shown by its first SHOWN_PREFIX characters.
SHOWN = f"{LONG[:SHOWN_PREFIX]}..."
LONG_INPUT = (
    f"the input has a number of {len(LONG)} digits, more than {sys.get_int_max_str_digits()},"
    f" the integer string limit"
)
POWER_DIGITS = (
    f"the input has a power of ten of more than {sys.get_int_max_str_digits()} digits,"
    f" the integer string limit"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("moment --n 700 --l 1 --k 1", "--n 700: pi^700 exceeds the float range"),
        ("moment --n 700 --l 1 --k 1 --mc --samples 10",
         "--n 700: pi^700 exceeds the float range"),
        ("moment --n 5 --l 1 --k 1 --r0 54700000000000000000000000",
         "--r0 54700000000000000000000000: the moment exceeds the float range"
         " (r0 enters as r0^12)"),
        ("moment --n 1 --l 1 --k 1 --r0 1e400",
         "--r0 1e400: the moment exceeds the float range (r0 enters as r0^4)"),
        ("moment --n 1 --l 1 --k 1 --r0 1e-5000", f"--r0 1e-5000: {POWER_DIGITS}"),
        ("moment --n 3 --l 1 --k 2 --r0 1e-40 --mc --samples 100",
         "--n 3 --l 1 --k 2 --r0 1e-40: the moment underflows a float,"
         " so Monte Carlo cannot check it"),
        ("moment --n 3 --l 1 --k 1 --mc --samples 100000001",
         "--samples 100000001 --n 3: samples * n must be <= 300000000"),
        # NumPy refused it with "expected non-negative integer", naming no field.
        ("moment --n 2 --l 1 --k 1 --mc --samples 10 --seed -1", "--seed -1: must be >= 0"),
        # Values up to r0^(2k) = 2^520 and 2^1030 have squares that overflow:
        # the checks printed NaN and exited 1 on a correct closed form.
        ("moment --n 40 --l 40 --k 260 --r0 2 --mc --samples 10000",
         "--samples 10000 --r0 2 --k 260: the Monte Carlo sum of squares overflows a float"),
        ("moment --n 40 --l 40 --k 515 --r0 2 --mc --samples 10000",
         "--samples 10000 --r0 2 --k 515: the Monte Carlo sum of squares overflows a float"),
        # The rules of the draw come in this order, all before the power
        # rule, which 1000 samples at k = 10^6 break.
        ("moment --n 3 --l 3 --k 1000000 --mc --samples 1 --seed -1",
         "--samples 1: must be >= 2"),
        ("moment --n 3 --l 3 --k 1000000 --mc --samples 100000001 --seed -1",
         "--samples 100000001 --n 3: samples * n must be <= 300000000"),
        ("moment --n 3 --l 3 --k 1000000 --mc --samples 1000 --seed -1",
         "--seed -1: must be >= 0"),
        ("moment --n 2 --l 3 --k 1", "--l 3 --n 2: must satisfy 1 <= l <= n"),
        ("moment --n 2 --l 1 --k 1 --r0 0", "--r0 0: must be > 0"),
        ("identity --k-max 0", "--k-max 0: must be >= 1"),
        # The budget is RAW_CHECK_MAX_K; the `identity-budget` row of the
        # bounded-query table runs the same query as a fresh process.
        (f"identity --k-max {RAW_CHECK_MAX_K + 1}",
         f"--k-max {RAW_CHECK_MAX_K + 1}: must be <= {RAW_CHECK_MAX_K} (the brute-force budget)"),
        ("cpn --n 0 --k 1", "--n 0: must be >= 1"),
        ("cpn --n 3 --k 5", "--k 5 --n 3: must satisfy 1 <= k <= n"),
        ("blowup --n 3 --k 1 --rho 3/2", "--rho 3/2: must lie in (0, 1)"),
        # Text that is no rational number is named by its flag too.
        ("blowup --n 3 --k 1 --rho 1/0", "--rho 1/0: not a rational number"),
        ("moment --n 1 --l 1 --k 1 --r0 abc", "--r0 abc: not a rational number"),
        ("blowup --n 10000000 --k 1",
         "--n 10000000 --k 1: the reduced value has 20000001 terms, more than 5000"),
        ("blowup --n 700 --k 650 --rho 1/2", "--k 650: pi^650 exceeds the float range"),
        ("blowup --n 2499 --k 1 --rho 8/9", f"--n 2499 --k 1 --rho 8/9: {DIGITS}"),
        ("product --n 3 --k 2 --manifold {sphere}",
         "--k 2: must be <= 1, half the descriptor dimension 2"),
        # argparse refused a short non-integer with its usage line.
        ("cpn --n abc --k 1", "--n abc: not an integer"),
        ("product --n 2 --k 1 --manifold /nonexistent",
         "--manifold /nonexistent: cannot read manifold descriptor: No such file or directory"),
        # Fraction refused this literal as an interpreter setting, and the
        # refusal read "not a rational number"; then it echoed the whole
        # literal and called it the result.
        pytest.param(f"blowup --n 3 --k 1 --rho 1/{LONG}",
                     f"--rho {f'1/{LONG}'[:SHOWN_PREFIX]}...: the input has a number of {len(LONG)} digits,"
                     f" more than {sys.get_int_max_str_digits()}, the integer string limit",
                     id="rho-with-more-digits-than-the-limit"),
        # argparse refused these as invalid int values, echoing them whole.
        pytest.param(f"cpn --n {LONG} --k 1", f"--n {SHOWN}: {LONG_INPUT}", id="long-n"),
        pytest.param(f"cpn --n 3 --k {LONG}", f"--k {SHOWN}: {LONG_INPUT}", id="long-k"),
        pytest.param(f"moment --n 2 --l {LONG} --k 1", f"--l {SHOWN}: {LONG_INPUT}", id="long-l"),
        pytest.param(f"identity --k-max {LONG}", f"--k-max {SHOWN}: {LONG_INPUT}",
                     id="long-k-max"),
        pytest.param(f"moment --n 1 --l 1 --k 1 --mc --samples {LONG}",
                     f"--samples {SHOWN}: {LONG_INPUT}", id="long-samples"),
        pytest.param(f"moment --n 1 --l 1 --k 1 --mc --seed -{LONG}",
                     f"--seed -{LONG[:SHOWN_PREFIX - 1]}...: {LONG_INPUT}", id="long-seed"),
    ],
)
def test_refusal_diagnostics_name_the_flags_as_typed(capsys, tmp_path, argv, message):
    # Each rule is raised where it lives; the flags are written by cli.main alone.
    sphere = {"dimension": 2, "trivial_odd_homotopy": [3]}
    check_refusal(capsys, tmp_path, argv.format(sphere="{path}"), f"error: {message}\n", sphere)


# Text one character longer than the integer string limit, with no digits.
OVER = "x" * (sys.get_int_max_str_digits() + 1)
OVER_SHOWN = OVER[:SHOWN_PREFIX]


def class_doc(entry, name="c", **fields):
    """A descriptor text with the one class `name`."""
    doc = {"dimension": 6, "trivial_odd_homotopy": [1, 3], "classes": {name: entry}}
    return json.dumps({**doc, **fields})


def component_doc(**fields):
    """A descriptor text whose class value has one component."""
    return class_doc({"degree": 3, "value": [{"pi_exp": 0, "num": [], "den": [], **fields}]})


# A product query on the descriptor of each row below that has one.
PRODUCT = "product --n 3 --k 1 --manifold {path}"
# An over-long JSON string, quoted, is shown by its first SHOWN_PREFIX characters.
QUOTED = f'"{OVER_SHOWN[:-1]}...'


@pytest.mark.parametrize(
    "argv, descriptor, stderr",
    [
        # An input or a list of inputs, each longer than the limit.
        pytest.param(f"cpn --n {OVER} --k 1", None, f"error: --n {OVER_SHOWN}...: not an integer",
                     id="n-not-an-integer"),
        pytest.param(f"blowup --n 3 --k 1 --rho {OVER}", None,
                     f"error: --rho {OVER_SHOWN}...: not a rational number", id="rho-not-rational"),
        pytest.param(f"moment --n 1 --l 1 --k 1 --r0 {OVER}", None,
                     f"error: --r0 {OVER_SHOWN}...: not a rational number", id="r0-not-rational"),
        pytest.param(PRODUCT, {"dimension": "1" * len(OVER)},
                     "error: dimension: must be a positive even integer", id="dimension"),
        pytest.param(PRODUCT, {"dimension": 4, "trivial_odd_homotopy": [2] * len(OVER)},
                     "error: trivial_odd_homotopy: must be a list of odd degrees, got [2, 2",
                     id="trivial-odd-homotopy"),
        pytest.param(PRODUCT, {"dimension": 4, OVER: 1},
                     f"error: {OVER_SHOWN}...: unknown field", id="unknown-field"),
        pytest.param(PRODUCT, {"dimension": 4, "periods": {OVER: ["1"]}},
                     f"error: periods.{OVER_SHOWN}...: key must be an even degree",
                     id="period-key"),
        pytest.param(PRODUCT, {"dimension": 4, "periods": {"2": [OVER]}},
                     f"error: periods.2: period {QUOTED} is not rational",
                     id="period-not-rational"),
        pytest.param(PRODUCT, {"dimension": 4, "periods": {"2": [" " * len(OVER) + "0"]}},
                     f'error: periods.2: period "{" " * (SHOWN_PREFIX - 1)}... must be nonzero',
                     id="period-zero"),
        pytest.param(PRODUCT, f'{{"dimension": 4, "{OVER}": 1, "{OVER}": 1}}',
                     f"error: --manifold {{path}}: manifold descriptor repeats the name {QUOTED}",
                     id="repeated-name"),
        pytest.param(PRODUCT, class_doc(OVER),
                     f"error: classes.c: must be a JSON object, got {QUOTED}",
                     id="class-not-an-object"),
        pytest.param(PRODUCT, class_doc("c", OVER),
                     f'error: classes.{OVER_SHOWN}...: must be a JSON object, got "c"',
                     id="class-name"),
        pytest.param(PRODUCT, class_doc({"degree": OVER}),
                     "error: classes.c.degree: must be a positive odd integer", id="class-degree"),
        pytest.param(PRODUCT, class_doc({"degree": 3, "value": OVER}),
                     "error: classes.c.value: must be a list of components", id="class-value"),
        pytest.param(PRODUCT, component_doc(pi_exp=OVER),
                     "error: classes.c.value: exponent must be an integer",
                     id="component-exponent"),
        pytest.param(PRODUCT, component_doc(num=OVER),
                     "error: classes.c.value: terms must be a list", id="component-terms"),
        pytest.param(PRODUCT, component_doc(num=[[0, OVER]]),
                     f"error: classes.c.value: not a rational number: {QUOTED}",
                     id="class-coefficient"),
        # The rules of the query, on a well-formed descriptor.
        pytest.param(f"{PRODUCT} --class c",
                     class_doc({"degree": 3}, trivial_odd_homotopy=list(range(3, 9000, 2))),
                     "error: --k 1: the descriptor does not assert trivial homotopy in degree"
                     " 2k-1 = 1", id="homotopy-not-asserted"),
        pytest.param(f"{PRODUCT} --class zz",
                     {"dimension": 6, "trivial_odd_homotopy": [1],
                      "classes": {f"c{i}": {"degree": 1} for i in range(1000)}},
                     "error: descriptor has no class named 'zz' (available:",
                     id="unknown-class-of-many"),
        pytest.param(f"{PRODUCT} --class {OVER}", class_doc({"degree": 1}),
                     f"error: descriptor has no class named '{OVER_SHOWN[:-1]}...",
                     id="long-unknown-class"),
        pytest.param(f"{PRODUCT} --class {OVER}", class_doc({"degree": 3}, OVER),
                     f"error: --k 1: class '{OVER_SHOWN[:-1]}... lives in degree 3",
                     id="long-class-in-another-degree"),
        # argparse's own usage errors, and the path of an unreadable descriptor.
        pytest.param(OVER, None, f"invalid choice: '{OVER_SHOWN}...'", id="unknown-command"),
        pytest.param("\\" * len(OVER), None,
                     "invalid choice: " + repr("\\" * SHOWN_PREFIX + "..."),
                     id="unknown-command-quoted-by-repr"),
        pytest.param(f"cpn --n 2 --k 1 {OVER}", None,
                     f"unrecognized arguments: {OVER_SHOWN}...", id="unrecognized-argument"),
        pytest.param(f"cpn --n 2 --k 1 --json={OVER}", None,
                     f"argument --json: ignored explicit argument '{OVER_SHOWN}...'",
                     id="json-explicit-argument"),
        pytest.param(f"product --n 2 --k 1 --manifold {'d/' * 2999}dd", None,
                     "error: --manifold d/d/d/d/d/d/d/d/d/d/...: cannot read manifold descriptor: ",
                     id="manifold-path"),
    ],
)
def test_an_over_long_input_is_refused_in_a_few_bytes(capsys, tmp_path, argv, descriptor, stderr):
    # Every diagnostic shows an input longer than the integer string limit by
    # its first SHOWN_PREFIX characters, and names the flag or field at fault.
    check_refusal(capsys, tmp_path, argv, stderr, descriptor)


def test_blowup_rejects_term_count_above_cap(capsys):
    # 20000001 terms: reducing and printing them would run for minutes.  The
    # refusal's text is pinned by the `blowup-terms` row of the bounded-query
    # table.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "blowup", "--n", "10000000", "--k", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    # At the cap itself the query runs: n = 2499, k = 1 has 4999 terms.
    code, doc = run_json(capsys, "blowup", "--n", "2499", "--k", "1")
    assert code == 0
    assert len(doc["value"][0]["num"]) + len(doc["value"][0]["den"]) == 4999


def test_blowup_runs_no_gcd(capsys, monkeypatch):
    # The value is built in its reduced form and --rho evaluates the closed
    # form, so the Euclidean reduction never runs; nor does it for cpn.
    calls = spy(monkeypatch, "poly_gcd")
    for argv in (
        ("blowup", "--n", "600", "--k", "599"),
        ("blowup", "--n", "300", "--k", "299", "--rho", "1/2"),
        ("cpn", "--n", "9", "--k", "9"),
    ):
        code, _ = run_json(capsys, *argv)
        assert code == 0
    assert calls == []
    four, two = symbolic.PolyQ.one_minus_x_pow(4), symbolic.PolyQ.one_minus_x_pow(2)
    verify._euclid_reduced(four, two)
    assert calls == [(four, two)]  # the spy does see verify's blow-up reference


def test_blowup_refuses_rho_before_building_the_value(capsys, monkeypatch):
    # Every --rho test runs before the value is built, so a refused weight
    # costs no value: at n = 1558 the value alone prints 13.5 MB.
    built = []
    monkeypatch.setattr(morphism, "blowup_weinstein", lambda *a: built.append(a))
    limit = sys.get_int_max_str_digits()
    refusals = {
        ("1558", "1557", "1/2"): "error: --k 1557: pi^1557 exceeds the float range",
        ("2499", "1", "3/2"): "error: --rho 3/2: must lie in (0, 1)",
        ("2499", "1", "8/9"): (
            f"error: --n 2499 --k 1 --rho 8/9: the result has a number of more than {limit}"
            f" digits, the integer string limit"
        ),
        # The value is unprintable too (its coefficient has more than 4300
        # digits); the --rho error wins.
        ("1720", "1558", "3/2"): "error: --rho 3/2: must lie in (0, 1)",
        # So is the lattice generator pi^1600/1600!; the --rho error wins.
        ("2000", "1600", "3/2"): "error: --rho 3/2: must lie in (0, 1)",
    }
    for (n, k, rho), message in refusals.items():
        code, out, err = run_cli(capsys, "blowup", "--n", n, "--k", k, "--rho", rho)
        assert (code, out, err) == (2, "", message + "\n")
    assert built == []


def test_blowup_weight_and_verify_share_one_value(capsys):
    # verify's Monte Carlo rows compare against the float that --rho prints.
    rows = verify.check_blowup(verify.draw_mc_pass(200), n_max=3).details["monte_carlo"]
    assert [(row["n"], row["k"]) for row in rows] == [
        (n, k) for n in range(1, 4) for k in range(1, n + 1)
    ]
    for row in rows:
        code, doc = run_json(
            capsys, "blowup", "--n", str(row["n"]), "--k", str(row["k"]), "--rho", row["rho"]
        )
        assert code == 0
        assert row["exact"] == doc["at_rho"]["value_float"], row


def test_blowup_weight_refused_before_its_powers(capsys):
    # The pi^k coefficient at rho = 8/9 has more than 4300 digits; forming
    # it term by term took over 3 s before the digit limit refused it.  The
    # refusal's text is pinned by the `blowup-rho-digits` row of the
    # bounded-query table.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "blowup", "--n", "2499", "--k", "1", "--rho", "8/9")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")


def test_blowup_weight_refuses_only_unprintable_coefficients(capsys):
    # A grid across both refusals: the size test before any power is formed,
    # and the digit limit when the coefficient is printed.  The expected
    # coefficient comes from the integer form c (b^(n+k) - a^(n+k)) /
    # (b^k (b^n - a^n)) at x = a/b, computed with the limit lifted.
    limit = sys.get_int_max_str_digits()
    outcomes = set()
    for rho, first, step in (("8/9", 2240, 16), ("99/100", 1060, 6), ("1/1000", 700, 7)):
        x = Fraction(rho) ** 2
        a, b = x.numerator, x.denominator
        for k in (1, 2, 3):
            for n in range(first, first + 10 * step, step):
                code, out, err = run_cli(
                    capsys, "blowup", "--n", str(n), "--k", str(k), "--rho", rho, "--json"
                )
                sys.set_int_max_str_digits(0)
                try:
                    c = cpn_q(n, k) / math.factorial(k)
                    exact = c * Fraction(b ** (n + k) - a ** (n + k), b**k * (b**n - a**n))
                    digits = max(len(str(exact.numerator)), len(str(exact.denominator)))
                finally:
                    sys.set_int_max_str_digits(limit)
                if code == 2:
                    assert "integer string limit" in err
                    assert digits > limit, (n, k, rho)
                else:
                    assert code == 0
                    assert json.loads(out)["at_rho"]["pi_k_coefficient"] == str(exact)
                outcomes.add(code)
    assert outcomes == {0, 2}


def test_unprintable_degree_is_refused_before_exact_work(capsys, tmp_path):
    # Every cpn, blowup and product document prints the lattice generator
    # pi^k/k!, which has more than 4300 digits from k = 1559 on; at k = 10^6
    # forming k!, C(2k-1, k) and perm(n+k, k) ran for minutes.
    big = "1000000"
    path = write_descriptor(
        tmp_path, {"dimension": 2 * 10**6, "trivial_odd_homotopy": [2 * 10**6 - 1]}
    )
    start = time.perf_counter()
    for argv in (("cpn",), ("blowup",), ("product", "--manifold", path)):
        code, out, err = run_cli(capsys, *argv, "--n", big, "--k", big)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --n {big} --k {big}: the result has a number of more than"
            f" {sys.get_int_max_str_digits()} digits, the integer string limit\n"
        )
    assert time.perf_counter() - start < 1.0
    code, doc = run_json(capsys, "cpn", "--n", "1558", "--k", "1558")
    assert code == 0
    assert doc["q"] == "1/2"
    code, _, err = run_cli(capsys, "cpn", "--n", "1559", "--k", "1559", "--json")
    assert code == 2
    assert "integer string limit" in err


def test_unprintable_coefficient_is_refused_before_perm(capsys, monkeypatch):
    # cpn and blowup print c = q/k! = C(2k-1, k) / perm(n+k, k), whose
    # denominator is at least (n+1)^k / C(2k-1, k).  At a 4000-digit n,
    # forming perm(n+k, k) first ran for 20 s before the same refusal.
    def refusal(n, k):
        return (
            f"error: --n {n} --k {k}: the result has a number of more than"
            f" {sys.get_int_max_str_digits()} digits, the integer string limit\n"
        )

    queries = [("cpn", "1" + "0" * 3999, "1500"), ("cpn", "4500", "1500"), ("blowup", "4500", "1500")]
    perm = math.perm
    formed = []
    monkeypatch.setattr(math, "perm", lambda *a: formed.append(a) or perm(*a))
    start = time.perf_counter()
    for command, n, k in queries:
        assert run_cli(capsys, command, "--n", n, "--k", k) == (2, "", refusal(n, k))
    assert time.perf_counter() - start < 1.0
    assert formed == []
    # The message is the one the value's own printing gives without the test.
    monkeypatch.setattr(morphism, "require_printable_power", lambda *a: None)
    for command, n, k in queries[1:]:
        assert run_cli(capsys, command, "--n", n, "--k", k) == (2, "", refusal(n, k))
    assert formed != []


def test_product_coefficient_test_allows_for_the_class_denominator(
    capsys, tmp_path, monkeypatch
):
    # product prints c = q/k! summed with the class's pi^k component a/b,
    # whose coefficient a_j at x^deg(b) can cancel at most den(a_j) of
    # den(c).  With no such coefficient the query is refused as cpn refuses
    # it, before q is formed: at k = 1500 forming it first took 18 s.
    n = "9" * 4000
    cancel = {"pi_exp": 2, "num": [[0, f"-3/{int(n) + 1}"]], "den": [[0, str(int(n) + 2)]]}
    empty = {"pi_exp": 2, "num": [], "den": [[0, "1"]]}
    path = write_descriptor(
        tmp_path,
        {"dimension": 3000, "trivial_odd_homotopy": [3, 2999],
         "classes": {"empty": {"degree": 3, "value": [empty]},
                     "cancel": {"degree": 3, "value": [cancel]}}},
    )
    formed = []
    monkeypatch.setattr(morphism, "cpn_q", lambda *a: formed.append(a) or cpn_q(*a))
    limit = sys.get_int_max_str_digits()
    product = ("product", "--n", n, "--manifold", path)
    for k, chosen in (("1500", ()), ("2", ()), ("2", ("--class", "empty"))):
        assert run_cli(capsys, *product, "--k", k, *chosen) == (
            2, "",
            f"error: --n {n} --k {k}: the result has a number of more than {limit}"
            f" digits, the integer string limit\n",
        )
    assert formed == []
    # c(n, 2) = 3/((n+1)(n+2)), which this class cancels.
    code, doc = run_json(capsys, *product, "--k", "2", "--class", "cancel")
    assert (code, doc["value"], doc["order"]) == (0, [], {"kind": "finite", "order": 1})
    assert formed == [(int(n), 2)]


def test_a_class_that_cannot_cancel_den_c_is_refused_before_q(capsys, tmp_path, monkeypatch):
    # The class pi^1000 has a_0 = 1, which cancels nothing, yet it once
    # switched the printable-c test off: the query formed perm(n+k, k) and
    # ran 8-10 s as a process before the same refusal.
    n = "9" * 4000
    value = [{"pi_exp": 1000, "num": [[0, "1"]], "den": [[0, "1"]]}]
    path = write_descriptor(
        tmp_path,
        {"dimension": 2000, "trivial_odd_homotopy": [1999],
         "classes": {"c": {"degree": 1999, "value": value}}},
    )
    formed = []
    monkeypatch.setattr(morphism, "cpn_q", lambda *a: formed.append(a) or cpn_q(*a))
    perm = math.perm
    monkeypatch.setattr(math, "perm", lambda *a: formed.append(a) or perm(*a))
    argv = ("product", "--n", n, "--k", "1000", "--manifold", path, "--class", "c")
    assert run_cli(capsys, *argv) == (
        2, "",
        f"error: --n {n} --k 1000: the result has a number of more than"
        f" {sys.get_int_max_str_digits()} digits, the integer string limit\n",
    )
    assert formed == []


def test_a_product_lattice_defect_fails_the_self_check(capsys, tmp_path, monkeypatch):
    # The containment test read as a parameter error: verify aborted with
    # exit 2 and printed no report.
    original = morphism.product_cpn_lattice
    monkeypatch.setattr(
        morphism, "product_cpn_lattice",
        lambda n, k, m_desc: original(n, k, m_desc._replace(periods={})),
    )
    sphere = write_descriptor(tmp_path, {"dimension": 2, "trivial_odd_homotopy": [1],
                                         "periods": {"2": ["1"]}})
    assert run_cli(capsys, "product", "--n", "2", "--k", "1", "--manifold", sphere) == (
        1, "",
        "error: self-check failed: product lattice does not contain the factor generator"
        " 1*pi^0*x^0\n",
    )
    code, out, err = run_cli(capsys, "verify", "--quick")
    lines = out.splitlines()
    assert (code, err, len(lines), lines[-1]) == (1, "", 10, "VERIFICATION FAILED (8/9)")
    (failed,) = [line for line in lines if line.startswith("FAIL")]
    assert failed.split()[1] == "product"
    # The named-class row passes the containment test, since M has no period
    # in degree 6, and fails its box confirmation.
    assert failed.endswith("11 failed, 10 refused by the self-check")


def test_cpn_refuses_only_unprintable_coefficients(capsys):
    # Across the test's threshold, a refused query's q/k! truly has a
    # denominator of more than 4300 digits (counted with the limit lifted).
    limit = sys.get_int_max_str_digits()
    outcomes = set()
    for k, first, step in ((1000, 20000, 24000), (1500, 1500, 300)):
        for n in range(first, first + 10 * step, step):
            code, out, err = run_cli(capsys, "cpn", "--n", str(n), "--k", str(k), "--json")
            sys.set_int_max_str_digits(0)
            try:
                digits = len(str((cpn_q(n, k) / math.factorial(k)).denominator))
            finally:
                sys.set_int_max_str_digits(limit)
            assert code == (2 if digits > limit else 0), (n, k, digits)
            assert ("integer string limit" in err) == (code == 2)
            outcomes.add(code)
    assert outcomes == {0, 2}


def test_huge_exponents_are_refused_before_expansion(capsys, tmp_path):
    # Fraction expands "1eN" into 10^|N| before any digit-limit test: each of
    # these inputs ran for seconds before it was refused on the digit limit.
    period = write_descriptor(
        tmp_path, {"dimension": 2, "trivial_odd_homotopy": [1], "periods": {"2": ["1e7000000"]}}
    )
    coefficient = tmp_path / "class.json"
    value = [{"pi_exp": 0, "num": [[0, "1e7000000"]], "den": [[0, "1"]]}]
    coefficient.write_text(
        json.dumps({"dimension": 2, "classes": {"c": {"degree": 1, "value": value}}})
    )
    product = ("product", "--n", "2", "--k", "1", "--manifold")
    for argv, prefix in (
        (("blowup", "--n", "2", "--k", "1", "--rho", "1e-7000000"), "--rho 1e-7000000"),
        (("moment", "--n", "2", "--l", "1", "--k", "1", "--r0", "1e-7000000"), "--r0 1e-7000000"),
        ((*product, period), "periods.2"),
        ((*product, str(coefficient)), "classes.c.value"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.1, argv
        assert (code, out, err) == (2, "", f"error: {prefix}: {POWER_DIGITS}\n")


# A product query on the descriptor file of check_refusal.
SPHERE_QUERY = "product --n 2 --k 1 --manifold {path}"


def test_product_refuses_a_deeply_nested_descriptor(capsys, tmp_path):
    # json.load raised RecursionError: a traceback and exit code 1.
    check_refusal(capsys, tmp_path, SPHERE_QUERY,
                  "error: --manifold {path}: manifold descriptor nests arrays or objects too"
                  " deeply to read\n", "[" * 5000 + "]" * 5000)


def test_product_refuses_a_misspelled_field(capsys, tmp_path):
    # "period" was read as no periods: order infinite, exit 0, where the
    # same query with "periods" answers Finite(6).
    value = [{"pi_exp": 0, "num": [[0, "1/2"]], "den": [[0, "1"]]}]
    doc = {"dimension": 4, "trivial_odd_homotopy": [1], "periods": {"2": ["1/3"]},
           "classes": {"c": {"degree": 1, "value": value}}}
    argv = ("product", "--n", "2", "--k", "1", "--class", "c", "--manifold")
    code, doc_out = run_json(capsys, *argv, write_descriptor(tmp_path, doc))
    assert (code, doc_out["order"]) == (0, {"kind": "finite", "order": 6})
    root = "dimension, trivial_odd_homotopy, periods, classes"
    doc["period"] = doc.pop("periods")
    misspelled_class = {"dimension": 4, "trivial_odd_homotopy": [1],
                        "classes": {"c": {"degree": 1, "valeu": value}}}
    for bad, message in [
        (doc, f"period: unknown field; the known ones are {root}"),
        (misspelled_class, "classes.c.valeu: unknown field; the known ones are degree, value"),
    ]:
        check_refusal(capsys, tmp_path, " ".join([*argv, "{path}"]), f"error: {message}\n", bad)


def test_product_refuses_repeated_names(capsys, tmp_path):
    # json.load keeps the last of two equal names: this descriptor printed
    # the lattice <1/2, pi> where the one list ["1/3", "1/2"] gives <1/6, pi>.
    check_refusal(capsys, tmp_path, SPHERE_QUERY,
                  'error: --manifold {path}: manifold descriptor repeats the name "2" in one'
                  " object\n",
                  '{"dimension": 2, "trivial_odd_homotopy": [1],'
                  ' "periods": {"2": ["1/3"], "2": ["1/2"]}}')


def test_product_refuses_an_integer_above_the_string_limit(capsys, tmp_path):
    # json.load once refused it with int()'s text, which names no field of
    # the descriptor and suggests changing an interpreter setting.
    check_refusal(capsys, tmp_path, SPHERE_QUERY,
                  "error: --manifold {path}: manifold descriptor has an integer of more than"
                  f" {sys.get_int_max_str_digits()} digits, the integer string limit\n",
                  '{"dimension": ' + "4" * 5000 + ', "trivial_odd_homotopy": [1]}')


def test_product_refuses_a_class_exponent_above_the_bound(capsys, tmp_path, monkeypatch):
    # (x^d + x + 1)/(x^(d-1) + 3) at d = 20000 once cost 0.78 s of Euclid
    # before the refusal; every component is read and bounded before the
    # first one is divided.
    divisions = spy(monkeypatch, "exact_quotient")
    bound = symbolic.MAX_JSON_EXPONENT
    slow = {"pi_exp": 0, "num": [[20000, "1"], [1, "1"], [0, "1"]], "den": [[19999, "1"], [0, "3"]]}
    fine = {"pi_exp": 1, "num": [[bound, "1"], [0, "1"]], "den": [[bound - 1, "1"], [0, "3"]]}
    for value, wrong in (
        ([slow], 20000),
        ([fine, {**fine, "pi_exp": bound + 1}], bound + 1),
        ([fine, {**fine, "pi_exp": 2, "den": [[bound + 1, "1"]]}], bound + 1),
    ):
        check_refusal(capsys, tmp_path, f"{SPHERE_QUERY} --class c",
                      f"error: classes.c.value: exponent must be at most {bound}, got {wrong}\n",
                      {"dimension": 2, "trivial_odd_homotopy": [1],
                       "classes": {"c": {"degree": 1, "value": value}}})
        assert divisions == []
    assert PiGradedValue.from_terms(json_terms([fine])).components[1].den.degree == bound - 1


def test_product_decides_only_the_named_class(capsys, tmp_path, monkeypatch):
    # 100 classes (x^1000 + x + 1)/(x^999 + 3) made every product query
    # reduce all of them, about 1 s, although a query reads at most one.
    calls = spy(monkeypatch, "exact_quotient")
    gcds = spy(monkeypatch, "poly_gcd")
    value = [{"pi_exp": 0, "num": [[1000, "1"], [1, "1"], [0, "1"]], "den": [[999, "1"], [0, "3"]]}]
    named = [{"pi_exp": 0, "num": [[0, "1"], [3, "1"]], "den": [[0, "1"], [2, "1"]]}]
    classes = {f"c{i}": {"degree": 1, "value": value} for i in range(100)}
    path = write_descriptor(
        tmp_path,
        {"dimension": 2, "trivial_odd_homotopy": [1],
         "classes": {**classes, "named": {"degree": 1, "value": named}}},
    )
    product = ("product", "--n", "2", "--k", "1", "--manifold", path)
    code, _ = run_json(capsys, *product)
    assert (code, calls) == (0, [])
    code, doc = run_json(capsys, *product, "--class", "named")
    assert code == 0
    assert calls == [(symbolic.PolyQ({3: 1, 0: 1}), symbolic.PolyQ({2: 1, 0: 1}))]
    assert doc["value"][0] == named[0]  # x^2 + 1 does not divide x^3 + 1: kept as given
    assert gcds == []


def test_adding_a_class_to_the_cpn_value_runs_no_gcd(capsys, tmp_path, monkeypatch):
    # The class a/b is decided by one division and printed as given, b made
    # monic: adding it to the CP^n monomial c gives (a + c b)/b, with no gcd.
    # A reduction by Euclid once cost a dense class of degree 100 with
    # 100-digit coefficients minutes.
    calls = spy(monkeypatch, "poly_gcd")
    # (x^2 - 1)(x + 3) / ((x - 1)(2x + 5)): a shared factor x - 1, kept
    num = {3: 1, 2: 3, 1: -1, 0: -3}
    den = {2: 2, 1: 3, 0: -5}
    value = [{"pi_exp": 1, "num": [[e, str(c)] for e, c in num.items()],
              "den": [[e, str(c)] for e, c in den.items()]}]
    path = write_descriptor(
        tmp_path,
        {"dimension": 2, "trivial_odd_homotopy": [1],
         "classes": {"c": {"degree": 1, "value": value}}},
    )
    argv = ("product", "--n", "2", "--k", "1", "--manifold", path, "--class", "c")
    code, doc = run_json(capsys, *argv)
    assert (code, calls) == (0, [])
    half = Fraction(1, 2)  # 1 / lead(b)
    a, b = symbolic.PolyQ(num) * half, symbolic.PolyQ(den) * half
    c = symbolic.PolyQ({0: cpn_q(2, 1)})
    as_given = symbolic.RatFuncQ._of(a + c * b, b)
    assert doc["value"] == PiGradedValue({1: as_given}).to_json()


def test_product_reads_a_period_number_as_written(capsys, tmp_path):
    # A period written as a JSON number went through a binary float and lost
    # its digits: this one printed the lattice coefficient 1/10.
    digits = "0.1000000000000000055511151231257827"
    lattices = []
    for period in (digits, f'"{digits}"'):
        path = tmp_path / "manifold.json"
        path.write_text(
            '{"dimension": 2, "trivial_odd_homotopy": [1], "periods": {"2": [' + period + "]}}"
        )
        code, doc = run_json(capsys, "product", "--n", "2", "--k", "1", "--manifold", str(path))
        assert code == 0
        lattices.append(doc["lattice"])
    assert lattices[0] == lattices[1]
    assert lattices[0][0]["coeff"] == format_rational(Fraction(digits))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_product_refuses_a_descriptor_above_the_size_limit(capsys, tmp_path):
    # Reading /dev/zero grew the process until a MemoryError traceback and
    # exit 1, or until the kernel killed it.
    check_refusal(capsys, tmp_path, "product --n 2 --k 1 --manifold /dev/zero",
                  "error: --manifold /dev/zero: manifold descriptor is longer than"
                  f" {MAX_DESCRIPTOR_CHARS} characters\n")


def test_product_refuses_a_descriptor_that_is_not_utf8(capsys, tmp_path):
    check_refusal(capsys, tmp_path, SPHERE_QUERY,
                  "error: --manifold {path}: cannot read manifold descriptor: 'utf-8' codec"
                  " can't decode byte 0xff in position 0: invalid start byte\n",
                  b"\xff\xfe{}")


def test_product_refuses_a_descriptor_that_is_not_json(capsys, tmp_path):
    check_refusal(capsys, tmp_path, SPHERE_QUERY,
                  "error: --manifold {path}: manifold descriptor is not valid JSON: Expecting"
                  " property name enclosed in double quotes: line 1 column 17 (char 16)\n",
                  '{"dimension": 2,}')


def test_product_names_the_dimension_bound(capsys, tmp_path):
    check_refusal(capsys, tmp_path, "product --n 8 --k 8 --manifold {path}",
                  "error: --k 8: must be <= 1, half the descriptor dimension 2\n",
                  {"dimension": 2, "trivial_odd_homotopy": [15]})


@pytest.mark.parametrize("corrupt", [False, True])
def test_identity_prints_the_rows_and_verdict_of_the_identity_suite(capsys, monkeypatch, corrupt):
    if corrupt:  # every row fails, as a wrong closed form would make it
        monkeypatch.setattr(combinatorics, "moment_sum_closed", lambda k, l: 0)
    for k_max in (1, 7):
        code, doc = run_json(capsys, "identity", "--k-max", str(k_max))
        check = verify.check_identity_suite(k_max)
        assert doc["rows"] == check.details["rows"]
        assert (code, doc["all_ok"]) == ((1, False) if corrupt else (0, True))
        assert doc["all_ok"] == check.passed


def test_identity_table(capsys):
    code, doc = run_json(capsys, "identity", "--k-max", "4")
    assert code == 0
    assert doc["all_ok"] is True
    assert [row["k"] for row in doc["rows"]] == [1, 2, 3, 4]
    assert doc["rows"][1]["bruteforce"] == "24"


def write_descriptor(tmp_path, doc):
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_product_with_sphere_descriptor(capsys, tmp_path):
    path = write_descriptor(
        tmp_path,
        {"dimension": 2, "trivial_odd_homotopy": [1], "periods": {"2": ["1"]}},
    )
    code, doc = run_json(capsys, "product", "--n", "2", "--k", "1", "--manifold", path)
    assert code == 0
    assert doc["nontrivial"] is True
    assert doc["order"] == {"kind": "finite", "order": 3}


def test_product_with_zero_class_matches_cpn_coset(capsys, tmp_path):
    path = write_descriptor(
        tmp_path,
        {
            "dimension": 6,
            "trivial_odd_homotopy": [3],
            "periods": {"2": ["1"], "4": ["1/2"]},
            "classes": {"zero": {"degree": 3, "value": []}},
        },
    )
    code, product_doc = run_json(
        capsys, "product", "--n", "3", "--k", "2", "--manifold", path, "--class", "zero"
    )
    assert code == 0
    code, cpn_doc = run_json(capsys, "cpn", "--n", "3", "--k", "2")
    assert product_doc["value"] == cpn_doc["value"]


def test_product_rejects_irrational_periods(capsys, tmp_path):
    check_refusal(capsys, tmp_path, SPHERE_QUERY,
                  'error: periods.2: period "sqrt(2)" is not rational; only manifolds with'
                  " rational period groups are supported\n",
                  {"dimension": 2, "trivial_odd_homotopy": [1], "periods": {"2": ["sqrt(2)"]}})


def test_product_rejects_missing_triviality_assertion(capsys, tmp_path):
    check_refusal(capsys, tmp_path, "product --n 2 --k 2 --manifold {path}",
                  "error: --k 2: the descriptor does not assert trivial homotopy in degree"
                  " 2k-1 = 3 (trivial_odd_homotopy: [1])\n",
                  {"dimension": 4, "trivial_odd_homotopy": [1], "periods": {"2": ["1"]}})


def test_product_rejects_class_degree_mismatch(capsys, tmp_path):
    check_refusal(capsys, tmp_path, "product --n 2 --k 2 --manifold {path} --class loop",
                  "error: --k 2: class 'loop' lives in degree 1, not in 2k-1 = 3\n",
                  {"dimension": 4, "trivial_odd_homotopy": [1, 3], "periods": {"2": ["1"]},
                   "classes": {"loop": {"degree": 1, "value": []}}})


def test_product_checks_the_degree_before_the_descriptor(capsys, tmp_path):
    # Both queries also break a descriptor rule (degree -1 is not asserted
    # trivial; the loop lives in degree 1, not 3); the degree rule reports.
    loop = {"dimension": 4, "trivial_odd_homotopy": [1],
            "classes": {"loop": {"degree": 1, "value": []}}}
    for n, k, named in (("2", "0", ""), ("1", "2", " --class loop")):
        check_refusal(capsys, tmp_path, f"product --n {n} --k {k}{named} --manifold {{path}}",
                      f"error: --k {k} --n {n}: must satisfy 1 <= k <= n\n", loop)


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"dimension": 2, "trivial_odd_homotopy": [1], "periods": ["1"]}, "periods"),
        ({"dimension": 2, "trivial_odd_homotopy": [1], "classes": ["zero"]}, "classes"),
        ({"dimension": 2, "trivial_odd_homotopy": [1], "periods": {"2": ["0"]}}, "periods.2"),
        (
            {
                "dimension": 2,
                "trivial_odd_homotopy": [1],
                "classes": {"c": {"degree": 1, "value": [
                    {"pi_exp": 0, "num": [[0, "1"]], "den": [[0, "1"]]},
                    {"pi_exp": 0, "num": [[0, "1/2"]], "den": [[0, "1"]]},
                ]}},
            },
            "classes.c.value",
        ),
        (
            {
                "dimension": 2,
                "trivial_odd_homotopy": [1],
                "classes": {"c": {"degree": 1, "value": [
                    {"pi_exp": 1, "num": [[0, "1"]], "den": []},
                ]}},
            },
            "classes.c.value",
        ),
        (
            {
                "dimension": 2,
                "trivial_odd_homotopy": [1],
                "classes": {"c": {"degree": 1, "value": [
                    {"pi_exp": 1.7, "num": [[0.9, "1/2"]], "den": [[0, "1"]]},
                ]}},
            },
            "classes.c.value",
        ),
        (
            {
                "dimension": 2,
                "trivial_odd_homotopy": [1],
                "classes": {"c": {"degree": 1, "value": [
                    {"pi_exp": 1, "num": [[True, "1/2"]], "den": [[0, "1"]]},
                ]}},
            },
            "classes.c.value",
        ),
        (
            {
                "dimension": 2,
                "trivial_odd_homotopy": [1],
                "classes": {"c": {"degree": 1, "value": [
                    {"pi_exp": 0, "num": [[0, "1"], [0, "1/2"]], "den": [[0, "1"]]},
                ]}},
            },
            "classes.c.value",
        ),
    ],
)
def test_product_rejects_malformed_descriptor_fields(capsys, tmp_path, doc, field):
    check_refusal(capsys, tmp_path, "product --n 1 --k 1 --manifold {path}", f"error: {field}: ",
                  doc)


def test_verify_quick_passes(capsys):
    code, doc = run_json(capsys, "verify", "--quick")
    assert code == 0
    assert doc["status"] == "ok"
    assert [c["name"] for c in doc["checks"]] == [
        "identity-suite",
        "moment-sums",
        "ball-moments",
        "cpn-exact",
        "cpn-monte-carlo",
        "blowup",
        "product",
        "decision-procedures",
        "mc-determinism",
    ]
    assert all(c["passed"] for c in doc["checks"])


# The sha256 of each part of `verify --json` that no Monte Carlo draw feeds,
# as printed: the five exact checks whole, blowup's exact rows and
# ball-moments' quadrature spots.  The Monte Carlo rows are left out, because
# NumPy pins their stream only per version.  A changed byte fails below with
# the part named; updating a digest is its own documented step.
EXACT_CHECKS = ("identity-suite", "moment-sums", "cpn-exact", "product", "decision-procedures")
EXACT_PART_SHA256 = {
    "--quick": {
        "identity-suite": "323253703dd0e8025fb7a41c2fa476c3a38ef3f4498b54b8c54506ccf79b3b15",
        "moment-sums": "a777278be1a9b84e4eb0deaf0250bc6520fff8112786192d8d7978059174a954",
        "cpn-exact": "b14248721e4d301fb29e9e3c3d6fe1f1384e0027c5002cfa3ef5b563668a7455",
        "product": "a02b9dc56f7c4a272d3e55fd7667c7bfb0feb07887488b65779f4a180c889787",
        "decision-procedures": "95972a55fc270b69fea5560f1c7e92b338fca05513b8fa91ae76cdf89c004af6",
        "blowup.rows": "0aee46a0d0982daed77fdc06d8f924f9bbe0874bf50153d79a5c4e0dc64d3545",
        "ball-moments.spots": "ea22dec525b8135e56ca450326a3bb7e5b99256b86b1a3928c53ea0e3c91e8ab",
    },
    "": {
        "identity-suite": "55f87ddca9675980961dfdd7248ba93a70fca6c572670efc2559b34ba9037a6e",
        "moment-sums": "a42f82beb8f03746ee250038af907213e84091b82388a0eba46c25438a613079",
        "cpn-exact": "055bbb42f27f3287f6791506c718b6873e04477e5b9f0db3cf51900ca2669229",
        "product": "400cca02a11d65d20c36583486fa58b6cb1232818733a078551588f69ab19c13",
        "decision-procedures": "95972a55fc270b69fea5560f1c7e92b338fca05513b8fa91ae76cdf89c004af6",
        "blowup.rows": "0ef03bb7b1a10bd179a34be738081de42602f8c179c023fb92cdceee5753c339",
        "ball-moments.spots": "ea22dec525b8135e56ca450326a3bb7e5b99256b86b1a3928c53ea0e3c91e8ab",
    },
}


@pytest.mark.parametrize("mode", EXACT_PART_SHA256, ids=["quick", "full"])
def test_verify_exact_output_is_pinned(capsys, mode):
    out = run_cli(capsys, "verify", *mode.split(), "--json")[1]
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    parts = {name: checks[name] for name in EXACT_CHECKS}
    parts["blowup.rows"] = checks["blowup"]["details"]["rows"]
    parts["ball-moments.spots"] = checks["ball-moments"]["details"]["spots"]
    printed = {name: json.dumps(part) for name, part in parts.items()}
    assert all(text in out for text in printed.values())  # the bytes as printed
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in printed.items()}
    assert digests == EXACT_PART_SHA256[mode]


def test_a_failed_check_counts_its_failed_rows(monkeypatch):
    # Every row of cpn-exact fails with a wrong q, and one pair of
    # moment-sums with a wrong S(3, 2); the line counts those, not the cases.
    monkeypatch.setattr(verify, "cpn_q", lambda n, k: cpn_q(n, k) * Fraction(1001, 1000))
    result = verify.check_cpn_exact(4)
    assert not result.passed
    assert result.summary() == "13 cases, 13 failed"
    closed = combinatorics.moment_sum_closed
    monkeypatch.setattr(
        combinatorics, "moment_sum_closed", lambda k, l: closed(k, l) + ((k, l) == (3, 2))
    )
    result = verify.check_moment_sums()
    assert not result.passed
    assert result.summary() == "36 pairs, 1 failed"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cpn", "--n", "2"])  # missing --k
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_verify_detects_corrupted_closed_form(monkeypatch):
    # Mutation harness: break the closed form and the identity check must fail.
    monkeypatch.setattr(
        combinatorics, "moment_sum_closed", lambda k, l: 2**k * k * (k + l)
    )
    result = verify.check_identity_suite(k_max=3)
    assert not result.passed


@pytest.mark.parametrize("argv", [["cpn", "--n", "3", "--k", "2"], ["verify", "--quick"]])
def test_failed_self_check_exits_1_without_traceback(capsys, monkeypatch, argv):
    monkeypatch.setattr(combinatorics, "moment_sum_bruteforce", lambda k, l: 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    if argv[0] == "cpn":  # a query refuses to answer
        assert out == ""
        assert err.startswith("error: self-check failed: closed form q(")
        assert err.count("\n") == 1
        return
    # verify reports every check, the refused values as failed rows
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 10 and lines[-1] == "VERIFICATION FAILED (4/9)"
    failed = {line.split()[1] for line in lines[:-1] if line.startswith("FAIL")}
    assert failed == {"identity-suite", "moment-sums", "cpn-exact", "blowup", "product"}
    for name in ("cpn-exact", "blowup", "product"):
        (line,) = [line for line in lines if line.split()[1] == name]
        assert "refused by the self-check" in line
    doc = json.loads(run_cli(capsys, *argv, "--json")[1])
    refused = [
        row
        for check in doc["checks"]
        for key in ("rows", "monte_carlo")
        for row in check["details"].get(key, [])
        if "error" in row
    ]
    assert refused and all(row["error"].startswith("closed form q(") for row in refused)


# Modules that no exact query loads.  Only a Monte Carlo query loads NumPy
# (about 0.1 s per process); concurrent.futures costs 10 ms, and dataclasses,
# which pulls in inspect, 8-12 ms.
WATCHED = ("numpy", "concurrent.futures", "dataclasses", "inspect")

# Modules that `import weincalc` registers in sys.modules without running
# their body, which runs on the first attribute access: every submodule but
# the entry point, cli.  A lazy module is not a types.ModuleType until then,
# and testing any attribute would load it.
LAZY = tuple(
    f"weincalc.{name}"
    for name in ("combinatorics", "exactarith", "montecarlo", "morphism", "symbolic", "verify")
)
# The LAZY modules that an enumeration (exact moment, identity) runs, and
# those that a value (cpn, blowup, product) runs.
ENUMERATION = {"weincalc.exactarith", "weincalc.combinatorics"}
VALUE = ENUMERATION | {"weincalc.symbolic", "weincalc.morphism"}

# A fresh interpreter runs one query and prints its exit code, which WATCHED
# modules it loaded, counting none that the interpreter's start-up loaded
# before, and which LAZY modules ran; the query's own output is discarded.
NUMPY_PROBE = f"""
import contextlib, io, sys, types
before = set(sys.modules)
from weincalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(m for m in {WATCHED!r} if m in sys.modules and m not in before),
      *(m for m in {LAZY!r} if type(sys.modules[m]) is types.ModuleType))
"""


def fresh_process(
    *args, environ=os.environ, stdout=subprocess.PIPE, timeout=120, python=sys.executable
):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, *filter(None, environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [python, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_fresh(*args, environ=os.environ):
    done = fresh_process(*args, environ=environ)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def probe_numpy(*argv):
    code, *loaded = run_fresh("-c", NUMPY_PROBE, *argv)
    return int(code), set(loaded)


# What the installed `weinstein-calc` script runs.
ENTRY = "from weincalc.cli import entry; entry()"


@pytest.fixture(scope="module")
def worst_descriptors(tmp_path_factory):
    """The descriptor files of the bounded-query table, by name."""
    folder = tmp_path_factory.mktemp("worst")
    rnd = random.Random(7)

    def poly(d):
        return [[e, str(rnd.randint(-9, 9))] for e in range(d + 1)]

    periods = [f"1/{i}" for i in range(2, 32002)]
    value = [{"pi_exp": 1000, "num": [[0, "1"]], "den": [[0, "1"]]}]
    docs = {
        "wide": {"dimension": 3000, "trivial_odd_homotopy": [2999]},
        "classy": {"dimension": 2000, "trivial_odd_homotopy": [1999],
                   "classes": {"c": {"degree": 1999, "value": value}}},
        "periods": {"dimension": 8, "trivial_odd_homotopy": [3],
                    "periods": {"2": periods, "4": periods}},
        "stringy": {"dimension": "1" * 2000000},
        "dense": {"dimension": 4, "trivial_odd_homotopy": [3], "classes": {"c": {
            "degree": 3, "value": [{"pi_exp": 2, "num": poly(100), "den": poly(99)}]}}},
    }
    wide = random.Random(11)

    def ints(d, digits):
        return [wide.randint(-10**digits, 10**digits) for _ in range(d + 1)]

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def dense_class(num, den):
        value = [{"pi_exp": 2, "num": [[e, str(c)] for e, c in enumerate(num)],
                  "den": [[e, str(c)] for e, c in enumerate(den)]}]
        return {"dimension": 4, "trivial_odd_homotopy": [3],
                "classes": {"c": {"degree": 3, "value": value}}}

    factor = ints(500, 50)
    docs["dense100"] = dense_class(ints(100, 100), ints(99, 100))
    docs["monic"] = dense_class(ints(1000, 100), ints(299, 100) + [1])
    docs["divisible"] = dense_class(times(ints(500, 50), factor), factor)
    paths = {name: folder / f"{name}.json" for name in [*docs, "latin"]}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    paths["latin"].write_bytes(b"\xff\xfe{}")
    return {name: str(path) for name, path in paths.items()}


# The admitted inputs of largest cost, each answered or refused within its
# bound in seconds.  `err` is None for no stderr rule, or the `expected` text
# of assert_refused, with the descriptor files named as in argv.
@pytest.mark.parametrize(
    "argv, seconds, code, err",
    [
        pytest.param("product --n {big} --k 1500 --manifold {wide}", 10, 2, None, id="wide"),
        pytest.param("cpn --n {big} --k 1500", 10, 2, None, id="cpn-4000-digits"),
        pytest.param("product --n {big} --k 1000 --manifold {classy} --class c", 10, 2, None,
                     id="classy"),
        pytest.param("blowup --n 10000000 --k 1", 10, 2, None, id="blowup-terms"),
        pytest.param("blowup --n 2499 --k 1 --rho 8/9", 10, 2, None, id="blowup-rho-digits"),
        pytest.param("moment --n 3 --l 3 --k 1000000 --mc --samples 1000", 10, 2, None,
                     id="moment-mc-power"),
        pytest.param("identity --k-max 9", 10, 2, None, id="identity-budget"),
        pytest.param("moment --n 3 --l 1 --k 8 --mc --samples 3628 --seed 23", 10, 2, None,
                     id="moment-mc-seed-23"),
        # Periods 1/2, ..., 1/32001 in degrees 2 and 4: the generator of
        # either cell has the denominator lcm(2, ..., 32001), about 13,900
        # digits, and a fold of 32000 numerators scaled to it takes about a
        # minute.  The fold stops once its denominator passes the limit.
        pytest.param("product --n 3 --k 2 --manifold {periods}", 2, 2,
                     "error: --manifold {periods}: the lattice generator has a denominator of"
                     f" more than {sys.get_int_max_str_digits()} digits, the integer string"
                     " limit\n", id="periods"),
        pytest.param("cpn --n {long} --k 1", 10, 2, "error: --n 333", id="n-past-the-limit"),
        pytest.param("cpn --n {letters} --k 1", 10, 2, "error: --n xxx", id="n-letters"),
        pytest.param("blowup --n 3 --k 1 --rho {letters}", 10, 2, "error: --rho xxx",
                     id="rho-letters"),
        pytest.param("product --n 2 --k 1 --manifold {stringy}", 10, 2, "error: dimension: ",
                     id="dimension-string"),
        pytest.param("{letters}", 10, 2, "usage: ", id="command-letters"),
        pytest.param("cpn --n 2 --k 1 {letters}", 10, 2, "usage: ", id="argument-letters"),
        pytest.param("product --n 2 --k 1 --manifold {deep}", 10, 2, "error: --manifold d/d/",
                     id="deep-path"),
        # A descriptor file that cannot be read as JSON text is named by its flag.
        pytest.param("product --n 2 --k 1 --manifold /dev/zero", 10, 2, "error: --manifold ",
                     id="dev-zero", marks=pytest.mark.skipif(
                         not os.path.exists("/dev/zero"), reason="no /dev/zero")),
        pytest.param("product --n 2 --k 1 --manifold {latin}", 10, 2, "error: --manifold ",
                     id="latin-1"),
        pytest.param("product --n 3 --k 2 --manifold {dense} --class c --json", 10, 0, None,
                     id="dense-class"),
        # Dense classes with 100-digit coefficients, each decided by one
        # integer long division: degree 100 over 99 (a 22 KB file, which
        # Euclid over Q did not reduce in 20 s); degree 1000 over a monic
        # degree 300, which only the division's coefficient bound stops
        # early (run to its end, the division took 9.5 s on a 2-core x86-64
        # box, so this row has the bound of the periods row); and a degree 500
        # factor of a 50-digit product, which divides.
        pytest.param("product --n 3 --k 2 --manifold {dense100} --class c --json", 10, 0, None,
                     id="dense-class-100-digit"),
        pytest.param("product --n 3 --k 2 --manifold {monic} --class c --json", 2, 0, None,
                     id="dense-class-monic"),
        pytest.param("product --n 3 --k 2 --manifold {divisible} --class c --json", 10, 0, None,
                     id="dense-class-divisible"),
    ],
)
def test_worst_case_queries_finish_within_their_bounds(worst_descriptors, argv, seconds, code, err):
    texts = {"big": "9" * 4000, "long": "3" * 5000, "letters": "x" * 100000,
             "deep": "d/" * 2999 + "dd"}
    argv = argv.format(**worst_descriptors, **texts).split()
    done = fresh_process("-c", ENTRY, *argv, timeout=seconds)
    assert done.returncode == code, done.stderr[:200]
    assert (done.stdout != "") == (code == 0)
    if err is not None:
        assert_refused(done.returncode, done.stdout, done.stderr, err.format(**worst_descriptors))


@pytest.mark.parametrize(
    "argv",
    [
        ["cpn", "--n", "3", "--k", "2"],
        ["blowup", "--n", "3", "--k", "2", "--rho", "1/2"],
        ["identity", "--k-max", "7"],
        ["product", "--n", "2", "--k", "1", "--manifold", "DESCRIPTOR"],
        ["moment", "--n", "2", "--l", "1", "--k", "2", "--json"],
    ],
)
def test_exact_commands_never_load_numpy(tmp_path, argv):
    # No exact command runs montecarlo or verify; identity and moment, which
    # only enumerate, run no value code either.
    path = write_descriptor(
        tmp_path, {"dimension": 2, "trivial_odd_homotopy": [1], "periods": {"2": ["1"]}}
    )
    argv = [path if arg == "DESCRIPTOR" else arg for arg in argv]
    assert probe_numpy(*argv) == (0, ENUMERATION if argv[0] in ("identity", "moment") else VALUE)


def test_import_runs_no_submodule():
    probe = (
        "import sys, types, weincalc;"
        " print(*(m for m in sys.argv[1:] if type(sys.modules[m]) is types.ModuleType))"
    )
    assert run_fresh("-c", probe, *LAZY) == []


def test_import_never_loads_numpy_and_monte_carlo_does():
    # The import registers every module of the package in sys.modules, where
    # perfbench's trace_child.install looks them up after it.
    probe = (
        "import sys; before = set(sys.modules); import weincalc.cli;"
        " print(*(m in sys.modules and m not in before for m in sys.argv[1:]),"
        " *sorted(m for m in sys.modules if m.startswith('weincalc.')))"
    )
    package = Path(cli.__file__).parent
    modules = sorted(f"weincalc.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    assert run_fresh("-c", probe, *WATCHED) == ["False"] * len(WATCHED) + modules
    argv = ["moment", "--n", "2", "--l", "1", "--k", "1", "--mc", "--samples", "1000"]
    code, loaded = probe_numpy(*argv)
    assert code == 0 and loaded & {"numpy", "concurrent.futures"} == {"numpy"}
    # The moment --mc check lives in montecarlo: no value code, no suite.
    assert loaded & set(LAZY) == ENUMERATION | {"weincalc.montecarlo"}
    code, loaded = probe_numpy("verify", "--quick")
    assert code == 0 and set(LAZY) <= loaded


# A fresh interpreter runs one query and prints its exit code, whether NumPy
# was loaded when check_decision_procedures, the last exact check, returned,
# and whether it was loaded at the end.
ORDER_PROBE = """
import contextlib, io, sys
from weincalc import verify
from weincalc.cli import main
exact, loaded = verify.check_decision_procedures, []
def last_exact_check():
    result = exact()
    loaded.append("numpy" in sys.modules)
    return result
verify.check_decision_procedures = last_exact_check
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *loaded, "numpy" in sys.modules)
"""


def test_verify_runs_its_exact_checks_before_numpy_loads():
    assert run_fresh("-c", ORDER_PROBE, "verify", "--quick") == ["0", "False", "True"]


@pytest.fixture(scope="module")
def bare_python(tmp_path_factory):
    """The interpreter of a virtual environment without pip or site-packages,
    in which `import numpy` fails, as where NumPy is not installed."""
    folder = tmp_path_factory.mktemp("bare")
    subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(folder)],
                   check=True, timeout=60)
    python = str(folder / "bin" / "python")
    assert "No module named 'numpy'" in fresh_process("-c", "import numpy", python=python).stderr
    return python


def test_exact_commands_answer_without_numpy(capsys, tmp_path, bare_python):
    sphere = write_descriptor(
        tmp_path, {"dimension": 2, "trivial_odd_homotopy": [1], "periods": {"2": ["1"]}}
    )
    for query in ("cpn --n 3 --k 2", "blowup --n 3 --k 2 --rho 1/2", "identity --k-max 4",
                  "identity --k-max 8", f"product --n 2 --k 1 --manifold {sphere}",
                  "moment --n 2 --l 1 --k 2 --r0 1/2"):
        for argv in (query.split(), [*query.split(), "--json"]):
            done = fresh_process("-c", ENTRY, *argv, python=bare_python)
            assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--quick"],
        ["moment", "--n", "1", "--l", "1", "--k", "1", "--mc", "--samples", "1000", "--json"],
        ["verify"],  # which runs its exact checks first
        ["moment", "--n", "1", "--l", "1", "--k", "1", "--mc"],
    ],
)
def test_monte_carlo_without_numpy_exits_2_with_one_line(bare_python, argv):
    done = fresh_process("-c", ENTRY, *argv, python=bare_python)
    assert_refused(done.returncode, done.stdout, done.stderr,
                   f"error: {argv[0]} needs NumPy (the runtime dependency numpy>=1.24 is not"
                   " installed)\n")


def test_only_a_missing_numpy_is_refused(monkeypatch):
    def run_all(quick):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.setattr(verify, "run_all", run_all)
    with pytest.raises(ModuleNotFoundError, match="scipy"):
        main(["verify"])


# A fresh interpreter runs one query through the console-script entry point
# and prints OPENBLAS_NUM_THREADS as the query left it, whether NumPy was
# loaded, the process's thread count where /proc shows it, whether OpenSSL's
# `_hashlib` was loaded, the count of libcrypto mappings where /proc shows
# them, and a sha256 digest.
BLAS_PROBE = """
import contextlib, io, os, sys
from weincalc.cli import entry
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    entry()
import hashlib
tasks, maps = "/proc/self/task", "/proc/self/maps"
print(os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules,
      len(os.listdir(tasks)) if os.path.isdir(tasks) else 1,
      sys.modules.get("_hashlib") is not None,
      sum("libcrypto" in line for line in open(maps)) if os.path.exists(maps) else 0,
      hashlib.sha256(b"weincalc").hexdigest())
"""


def test_entry_gives_numpy_one_blas_thread_unless_the_user_set_a_count():
    argv = ["moment", "--n", "2", "--l", "1", "--k", "1", "--mc", "--samples", "1000"]
    unset = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    # No OpenSSL either: numpy.random's `secrets` import mapped 3.3 MB of
    # libcrypto, and hashlib answers from CPython's builtin sha256 instead.
    digest = hashlib.sha256(b"weincalc").hexdigest()
    assert run_fresh("-c", BLAS_PROBE, *argv, environ=unset) == [
        "1", "True", "1", "False", "0", digest
    ]
    given = {**unset, "OPENBLAS_NUM_THREADS": "2"}
    assert run_fresh("-c", BLAS_PROBE, *argv, environ=given)[:2] == ["2", "True"]
    # A `_hashlib` loaded before entry() stays.
    assert run_fresh("-c", "import hashlib" + BLAS_PROBE, *argv, environ=unset)[3] == "True"


def test_entry_prints_the_bytes_of_main(capsys):
    # The process settings of entry(), no OpenSSL among them, change no byte.
    argv = ["verify", "--quick", "--json"]
    done = fresh_process("-c", ENTRY, *argv)
    assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "query",
    [
        "verify --quick --json",
        "verify --json",
        "moment --n 3 --l 2 --k 2 --mc --samples 100000 --seed 5 --json",
    ],
)
def test_monte_carlo_output_depends_on_neither_the_process_nor_the_blas_thread_count(query):
    # Two processes print the same bytes: one with OPENBLAS_NUM_THREADS unset,
    # which entry() sets to 1, and one with 2 threads.
    unset = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    runs = [
        fresh_process("-c", ENTRY, *query.split(), environ=environ)
        for environ in (unset, {**unset, "OPENBLAS_NUM_THREADS": "2"})
    ]
    assert [(done.returncode, done.stderr) for done in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--quick", "--json"],
        ["cpn", "--n", "2", "--k", "1"],
        ["--help"],  # argparse writes the help and exits inside main
        ["blowup", "--n", "600", "--k", "599", "--json"],  # 1.7 MB, past any pipe buffer
    ],
)
def test_entry_exits_with_its_own_code_and_no_traceback_when_stdout_is_closed(argv):
    # The reader of the pipe is gone before the child starts, or it takes 10
    # bytes and closes, as `head -c 10` does after `weinstein-calc verify
    # --json | head -c 10`; then the broken pipe may land in entry's last flush.
    for taken in (0, 10):
        reader, writer = os.pipe()

        def head(reader=reader, taken=taken):
            os.read(reader, taken)
            os.close(reader)

        thread = threading.Thread(target=head)
        thread.start()
        if not taken:
            thread.join()
        try:
            done = fresh_process("-c", ENTRY, *argv, stdout=writer)
        finally:
            os.close(writer)
            thread.join()
        assert (done.returncode, done.stderr) == (0, ""), taken


def test_only_entry_freezes_the_heap(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["verify", "--quick"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert (gc.isenabled(), gc.get_freeze_count()) == before
