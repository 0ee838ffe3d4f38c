"""Property tests for the command-line contract.

Argument vectors and manifold descriptors, well formed or arbitrary, go
through `cli.main`: query commands exit 0 or 2 (1 only for a `moment --mc`
estimate outside its Monte Carlo band, which is a verification failure), no
exception escapes, a `cpn`, `blowup`, `moment` or `identity` refusal names
its flags or quotes its unreadable number, and every value printed as JSON
survives `symbolic.json_terms` and `PiGradedValue.to_json`.  Sizes stay
small (n, k <= 12, at most 10^3 samples) so that the suite runs in seconds;
only rational exponents reach beyond the integer string limit, which refuses
them at once.
The one exception is the product gate's property, whose `--n` has hundreds
of digits so that the denominator of the CP^n value nears a lowered limit.
"""

import json
import math
import sys
from fractions import Fraction

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from weincalc.cli import main
from weincalc.symbolic import PiGradedValue, PolyQ, RatFuncQ, json_terms

SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

small = st.integers(min_value=-2, max_value=12)
rational_text = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 20), st.integers(-3, 20)),
    # Exponent notation, with exponents inside the integer string limit and
    # beyond it, which must be refused before Fraction expands them.
    st.builds(
        lambda m, e: f"{m}e{e}",
        st.integers(-9, 99),
        st.one_of(st.integers(-5, 5), st.integers(4301, 10**9), st.integers(-(10**9), -4301)),
    ),
    st.sampled_from(["0.25", "1/2", "1", "0", "-1/3", "abc", "", "1/0", "nan", "inf"]),
    st.text(max_size=6),
)
json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-50, 50),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
any_json = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


def mostly(valid, other=any_json):
    """`valid` in three draws of four, `other` in the fourth, so that fields
    deep in a descriptor (class values) are reached behind well-formed ones."""
    return st.sampled_from([valid, valid, valid, other]).flatmap(lambda strategy: strategy)


exponent = mostly(st.integers(0, 5), st.one_of(st.integers(-1, 5), json_leaf))
nonzero = st.sampled_from(["1", "1/2", "-3/4", "2/3"])
coefficient = mostly(st.one_of(nonzero, st.just("0")), rational_text)
terms = mostly(st.lists(st.tuples(exponent, coefficient).map(list), max_size=3))
component = st.fixed_dictionaries({"pi_exp": exponent, "num": terms, "den": terms})
class_entry = mostly(
    st.fixed_dictionaries(
        {
            "degree": mostly(st.sampled_from([1, 3, 5]), st.one_of(small, json_leaf)),
            "value": mostly(st.lists(component, max_size=3)),
        }
    )
)
descriptors = mostly(
    st.fixed_dictionaries(
        {
            "dimension": mostly(st.integers(3, 6).map(lambda m: 2 * m), st.one_of(small, json_leaf)),
            "trivial_odd_homotopy": mostly(
                st.lists(st.integers(1, 6).map(lambda k: 2 * k - 1), max_size=6),
                st.one_of(st.lists(small, max_size=6), any_json),
            ),
            "periods": mostly(
                st.dictionaries(
                    mostly(st.sampled_from(["2", "4", "6"]), st.text(max_size=3)),
                    mostly(st.lists(mostly(nonzero, rational_text), max_size=3)),
                    max_size=3,
                )
            ),
            "classes": mostly(
                st.dictionaries(st.sampled_from(["a", "b", "c"]), class_entry, max_size=3)
            ),
        }
    )
)


@st.composite
def query_argv(draw):
    """The argument vector of one cpn, blowup, moment or identity query."""
    command = draw(st.sampled_from(["cpn", "blowup", "moment", "identity"]))
    if command == "identity":
        argv = ["identity", "--k-max", str(draw(small))]
    elif command == "moment":
        argv = ["moment", "--n", str(draw(small)), "--l", str(draw(small))]
        argv += ["--k", str(draw(small))]
        if draw(st.booleans()):
            argv += ["--r0", draw(rational_text)]
        if draw(st.booleans()):
            argv += ["--mc", "--samples", str(draw(st.integers(-1, 1000)))]
            argv += ["--seed", str(draw(st.integers(-1, 2**64)))]
    else:
        argv = [command, "--n", str(draw(small)), "--k", str(draw(small))]
        if command == "blowup" and draw(st.booleans()):
            argv += ["--rho", draw(rational_text)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def strict_json(text):
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def check_contract(capsys, argv):
    usage = False
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code, usage = exc.code, True
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.strip()
        if argv[0] != "product" and not usage:
            # A query refusal names the flags at fault, as typed, or quotes
            # the text that is not a number.
            assert err.startswith(("error: --", "error: not a rational number: ")), (argv, err)
        return
    if code == 1:
        # Only the Monte Carlo cross-check of `moment --mc` may fail.
        assert "--mc" in argv, (argv, err)
        if "--json" in argv:
            doc = strict_json(out)
            assert doc["status"] == "fail"
            assert doc["mc"]["band_distance"] > 1
        return
    assert code == 0, (argv, code, err)
    if "--json" in argv:
        doc = strict_json(out)
        assert doc["status"] == "ok"
        if "value" in doc:
            assert PiGradedValue.from_terms(json_terms(doc["value"])).to_json() == doc["value"]


@SETTINGS
@given(argv=query_argv())
def test_query_commands_keep_the_exit_code_contract(capsys, argv):
    check_contract(capsys, argv)


@SETTINGS
@given(
    n=small,
    k=small,
    descriptor=descriptors,
    class_name=st.sampled_from([None, "a", "b", "c", "zz"]),
    as_json=st.booleans(),
)
def test_product_keeps_the_exit_code_contract(
    capsys, tmp_path, n, k, descriptor, class_name, as_json
):
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    argv = ["product", "--n", str(n), "--k", str(k), "--manifold", str(path)]
    if class_name is not None:
        argv += ["--class", class_name]
    if as_json:
        argv.append("--json")
    check_contract(capsys, argv)


fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
polys = st.dictionaries(st.integers(0, 6), fractions, max_size=4).map(PolyQ)
values = st.dictionaries(
    st.integers(0, 8), st.builds(RatFuncQ, polys, polys.filter(bool)), max_size=4
).map(PiGradedValue)


@SETTINGS
@given(value=values)
def test_value_json_round_trips(value):
    doc = value.to_json()
    back = PiGradedValue.from_terms(json_terms(json.loads(json.dumps(doc))))
    assert back == value
    assert back.to_json() == doc


def partial_fractions(n, k):
    """c(n, k) = C(2k-1, k) / perm(n+k, k) as its k partial fractions
    A_i / (n+i), i = 1..k, whose denominators are about n each."""
    top = math.comb(2 * k - 1, k)
    return [
        Fraction(top, math.prod(j - i for j in range(1, k + 1) if j != i) * (n + i))
        for i in range(1, k + 1)
    ]


small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(SETTINGS, max_examples=60)
@given(
    k=st.integers(2, 4),
    cancelled=st.sets(st.integers(0, 3)),
    digits=st.integers(100, 620),
    offset=st.integers(0, 10**100),
    shape=st.sampled_from(["constant", "polynomial", "rational", "quadratic"]),
    r=st.lists(small_fractions, min_size=3, max_size=3),
    beta=small_fractions.filter(bool),
)
@example(k=2, cancelled={0}, digits=500, offset=0, shape="constant",
         r=[Fraction(1, 2)] * 3, beta=Fraction(1))
@example(k=3, cancelled={0, 2}, digits=300, offset=7, shape="rational",
         r=[Fraction(1, 2)] * 3, beta=Fraction(-2))
@example(k=2, cancelled=set(), digits=500, offset=0, shape="polynomial",
         r=[Fraction(1, 2)] * 3, beta=Fraction(1))
def test_product_refuses_only_what_it_cannot_print(
    capsys, tmp_path, k, cancelled, digits, offset, shape, r, beta
):
    # The class a/b (b monic) cancels the partial fractions of c = q/k!
    # numbered in `cancelled`, so the printed sum (a + c b)/b keeps the rest
    # and den(c) may exceed the limit while every printed number fits.
    # Under a 640-digit limit the query answers exactly when every number it
    # prints fits: the lattice generator 1/k!, the sum's coefficients and
    # b's.  A finite order divides the denominator of the sum's constant.
    limit = 640
    cancelled = {i for i in cancelled if i < k}
    d = min(digits, 620 // max(len(cancelled), 1))
    n = 10 ** (d - 1) + offset % 10 ** (d - 1)
    terms = partial_fractions(n, k)
    dropped = sum((terms[i] for i in cancelled), Fraction(0))
    b = {
        "constant": {0: Fraction(1)},
        "polynomial": {0: Fraction(1)},
        "rational": {1: Fraction(1), 0: beta},
        "quadratic": {2: Fraction(1), 0: abs(beta)},
    }[shape]
    rest = {"constant": r[:1], "polynomial": r, "rational": r[:2], "quadratic": r[:2]}[shape]
    rest = {e: coeff for e, coeff in enumerate(rest) if coeff}
    if shape == "rational":  # gcd(rest, x + beta) = 1
        assume(sum(coeff * (-beta) ** e for e, coeff in rest.items()))
    elif shape == "quadratic":  # x^2 + |beta| is irreducible over Q
        assume(rest)
    # a = rest - dropped * b, so that gcd(a, b) = gcd(rest, b) = 1.
    a = {e: rest.get(e, 0) - dropped * b.get(e, 0) for e in {*rest, *b}}
    a = {e: coeff for e, coeff in a.items() if coeff}
    c = Fraction(math.comb(2 * k - 1, k), math.perm(n + k, k))
    total = {e: a.get(e, 0) + c * b.get(e, 0) for e in {*a, *b}}
    total = {e: coeff for e, coeff in total.items() if coeff}

    printed = [math.factorial(k)]
    for coeff in (*total.values(), *b.values()):
        printed += [coeff.numerator, coeff.denominator]
    fits = all(len(str(abs(m))) <= limit for m in printed)

    value = [{"pi_exp": k, "num": [[e, str(coeff)] for e, coeff in sorted(a.items())],
              "den": [[e, str(coeff)] for e, coeff in sorted(b.items())]}]
    descriptor = {"dimension": 2 * k, "trivial_odd_homotopy": [2 * k - 1],
                  "classes": {"c": {"degree": 2 * k - 1, "value": value}}}
    assert all(len(text) <= limit for part in value[0]["num"] for text in part[1].split("/"))
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    argv = ["product", "--n", str(n), "--k", str(k), "--manifold", str(path), "--class", "c"]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code = main([*argv, "--json"])
        out, err = capsys.readouterr()
    finally:
        sys.set_int_max_str_digits(before)
    assert code == (0 if fits else 2), (code, err[-120:])
    if fits:
        (component,) = json.loads(out)["value"] or [{"pi_exp": k, "num": []}]
        assert component["num"] == [[e, str(coeff)] for e, coeff in sorted(total.items())]
    else:
        assert err.endswith("the integer string limit\n")
