"""Property tests for the command-line contract.

Argument vectors and manifold descriptors, well formed or arbitrary, go
through `cli.main`: query commands exit 0 or 2 (1 only for a `moment --mc`
estimate outside the sigma band, which is a verification failure), no
exception escapes, a `cpn`, `blowup`, `moment` or `identity` refusal names
its flags or quotes its unreadable number, and every value printed as JSON
survives `PiGradedValue.from_json`/`to_json`.  Sizes stay small (n, k <= 12,
at most 10^3 samples) so that the suite runs in seconds; only rational
exponents reach beyond the integer string limit, which refuses them at once.
"""

import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weincalc.cli import main
from weincalc.symbolic import PiGradedValue, PolyQ, RatFuncQ
from weincalc.verify import SIGMA_BAND

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
            assert not doc["mc"]["sigma_distance"] < SIGMA_BAND
        return
    assert code == 0, (argv, code, err)
    if "--json" in argv:
        doc = strict_json(out)
        assert doc["status"] == "ok"
        if "value" in doc:
            assert PiGradedValue.from_json(doc["value"]).to_json() == doc["value"]


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
    back = PiGradedValue.from_json(json.loads(json.dumps(doc)))
    assert back == value
    assert back.to_json() == doc
