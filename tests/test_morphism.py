"""Morphism values: CP^n, blow-up, products, descriptors."""

import math
import re
from fractions import Fraction

import pytest

from weincalc import combinatorics, morphism
from weincalc.exactarith import DigitLimitError, ParameterError
from weincalc.morphism import (
    FINITE_ORDER_AT_TOP_DEGREE,
    ManifoldDescriptor,
    SelfCheckError,
    blowup_at_weight,
    blowup_lattice,
    blowup_weinstein,
    cpn_lattice,
    cpn_q,
    cpn_weinstein,
    cpn_weinstein_raw,
    product_cpn_lattice,
    product_value,
)
from weincalc.symbolic import (
    FieldError,
    Lattice,
    OrderResult,
    PiGradedValue,
    PolyQ,
    RatFuncQ,
    lattice_member,
)


def test_q_instances():
    assert cpn_q(1, 1) == Fraction(1, 2)
    assert cpn_q(2, 1) == Fraction(1, 3)
    assert cpn_q(2, 2) == Fraction(1, 2)
    assert cpn_q(3, 2) == Fraction(3, 10)


def test_q_anchors():
    for n in range(1, 11):
        assert cpn_q(n, 1) == Fraction(1, n + 1)
        assert cpn_q(n, n) == Fraction(1, 2)


def test_q_strictly_between_zero_and_one():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert 0 < cpn_q(n, k) < 1


def test_raw_instances():
    assert cpn_weinstein_raw(2, 2) == Fraction(1, 2)
    assert cpn_weinstein_raw(1, 1) == Fraction(1, 2)
    assert cpn_weinstein_raw(3, 1) == Fraction(1, 4)


def test_raw_equals_closed_form():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert cpn_weinstein_raw(n, k) == cpn_q(n, k)


def test_cpn_weinstein_value_and_order():
    cv = cpn_weinstein(2, 1)
    assert cv.value == PiGradedValue.monomial(Fraction(1, 3), 1, 0)
    assert cv.lattice == Lattice([(1, 1, 0)])
    assert cv.order == OrderResult.finite(3)
    assert not lattice_member(cv.value, cv.lattice)
    assert cpn_weinstein(1, 1).order == OrderResult.finite(2)
    assert cpn_weinstein(4, 1).order == OrderResult.finite(5)
    assert cpn_weinstein(4, 4).order == OrderResult.finite(2)


def test_cpn_weinstein_self_check_trips_on_corruption(monkeypatch):
    from weincalc import combinatorics
    from weincalc.morphism import RAW_CHECK_MAX_K, SelfCheckError

    monkeypatch.setattr(combinatorics, "moment_sum_bruteforce", lambda k, l: 1)
    # The self-check runs on every query up to and including the budget.
    for n, k in [(2, 1), (RAW_CHECK_MAX_K, RAW_CHECK_MAX_K)]:
        with pytest.raises(SelfCheckError):
            cpn_weinstein(n, k)
        with pytest.raises(SelfCheckError):
            blowup_weinstein(n, k)

    def unreachable(k, l):
        raise AssertionError(f"brute force reached at k={k}")

    # Beyond the budget the enumeration is never started.
    monkeypatch.setattr(combinatorics, "moment_sum_bruteforce", unreachable)
    k = RAW_CHECK_MAX_K + 1
    assert cpn_weinstein(k, k).order == OrderResult.finite(2)
    assert blowup_weinstein(k, k).order == OrderResult.finite(2)


def test_cpn_weinstein_rejects_bad_degrees(refuses):
    # One rule and one message text for cpn_q, the raw oracle, the value
    # constructors and the product lattice (and the Monte Carlo oracles).
    sphere = ManifoldDescriptor.from_json(SPHERE_DOC)
    for n, k in [(1, 2), (3, 0), (2, -1)]:
        for entry in (cpn_q, cpn_weinstein_raw, cpn_weinstein, blowup_weinstein):
            refuses(lambda: entry(n, k), "must satisfy 1 <= k <= n", k=k, n=n)
        refuses(lambda: product_cpn_lattice(n, k, sphere), "must satisfy 1 <= k <= n", k=k, n=n)
    refuses(lambda: cpn_weinstein(0, 1), "must be >= 1", n=0)
    refuses(lambda: cpn_lattice(0), "must be >= 1", k=0)


def test_blowup_refuses_more_terms_than_the_cap():
    # 2000001 terms: building them took 0.13 s, and 10^7 ten times that.
    # The value at a weight admits the same (n, k), tested before the weight.
    # The error names n and k apart from its text; the CLI writes the flags.
    message = f"the reduced value has 2000001 terms, more than {morphism.MAX_BLOWUP_TERMS}"
    for refused in (
        lambda: blowup_weinstein(10**6, 1),
        lambda: blowup_at_weight(10**6, 1, Fraction(3, 2)),
    ):
        with pytest.raises(ParameterError) as err:
            refused()
        assert (str(err.value), err.value.params) == (message, {"n": 10**6, "k": 1})


def test_cpn_lattice_generator():
    assert cpn_lattice(3).generators == ((Fraction(1, 6), 3, 0),)


def test_blowup_value_n2_k1():
    cv = blowup_weinstein(2, 1)
    f = cv.value.components[1]
    third = Fraction(1, 3)
    assert f.num == PolyQ({0: third, 1: third, 2: third})
    assert f.den == PolyQ({0: 1, 1: 1})
    assert cv.lattice == Lattice([(1, 1, 0), (1, 1, 1)])


def test_blowup_value_n2_k2_is_polynomial():
    cv = blowup_weinstein(2, 2)
    f = cv.value.components[2]
    assert f.is_polynomial
    assert f.num == PolyQ({0: Fraction(1, 4), 2: Fraction(1, 4)})


def test_blowup_specializes_to_cpn_at_zero():
    for n in range(1, 7):
        for k in range(1, n + 1):
            f = blowup_weinstein(n, k).value.components[k]
            # f(0) is the ratio of the constant terms
            assert f.num.terms[0] / f.den.terms[0] == cpn_q(n, k) / math.factorial(k)


def test_blowup_at_weight_is_the_value_at_rho_squared(refuses):
    # The built value, substituted term by term, against the closed form.
    x = Fraction(1, 9)
    for n in range(1, 6):
        for k in range(1, n + 1):
            f = blowup_weinstein(n, k).value.components[k]
            num = sum(c * x**e for e, c in f.num.terms.items())
            den = sum(c * x**e for e, c in f.den.terms.items())
            assert blowup_at_weight(n, k, Fraction(1, 3)) == num / den
    refuses(lambda: blowup_at_weight(2, 1, Fraction(1)), "must lie in (0, 1)", rho=Fraction(1))


def test_blowup_at_weight_takes_the_full_gate():
    # c = q/k! must have a denominator of more than 4300 digits at
    # (7500, 1500), so the blow-up value that `blowup --rho` builds next
    # refuses it; the value at a weight runs the same gate and refuses first.
    with pytest.raises(DigitLimitError):
        blowup_at_weight(7500, 1500, Fraction(1, 2))


def test_blowup_orders():
    assert not blowup_weinstein(2, 1).order.is_finite
    assert not blowup_weinstein(3, 1).order.is_finite
    assert not blowup_weinstein(3, 2).order.is_finite
    assert blowup_weinstein(2, 2).order == OrderResult.finite(2)


def test_blowup_flags_only_at_top_degree():
    # The answer carries its flags: only the blow-up at k = n, whose
    # computed order is finite, is flagged.
    assert blowup_weinstein(2, 2).flags == (FINITE_ORDER_AT_TOP_DEGREE,)
    assert blowup_weinstein(3, 1).flags == ()
    assert cpn_weinstein(2, 2).flags == ()


def test_verify_blowup_rows_check_the_reduced_form(monkeypatch):
    from weincalc import morphism, verify

    result = verify.check_blowup(verify.draw_mc_pass(200), n_max=5)
    assert result.passed
    assert all(row["reduced_form_matches"] for row in result.details["rows"])

    def unreduced(n, k):
        # The same function with (1 + x) left in numerator and denominator:
        # x -> 0 and the order at k < n cannot tell it from the reduced form.
        cv = morphism.blowup_weinstein(n, k)
        f = cv.value.components[k]
        g = RatFuncQ.__new__(RatFuncQ)
        g.num, g.den = f.num * PolyQ({0: 1, 1: 1}), f.den * PolyQ({0: 1, 1: 1})
        return morphism.CosetValue.of(PiGradedValue({k: g}), cv.lattice)

    monkeypatch.setattr(verify, "blowup_weinstein", unreduced)
    rows = verify.check_blowup(verify.draw_mc_pass(200), n_max=3).details["rows"]
    bad = [row for row in rows if not row["ok"]]
    assert bad and all(not row["reduced_form_matches"] for row in bad)
    assert all(row["x0_matches_cpn"] for row in rows)
    assert any(row["k"] < row["n"] for row in bad)


def test_blowup_lattice_shape():
    assert blowup_lattice(2).generators == (
        (Fraction(1, 2), 2, 0),
        (Fraction(1, 2), 2, 2),
    )


# ---------------------------------------------------------------------------
# products


SPHERE_DOC = {
    "dimension": 2,
    "trivial_odd_homotopy": [1],
    "periods": {"2": ["1"]},
}


def test_product_with_trivial_factor_reduces_to_cpn_coset():
    product = product_value(2, 1, ManifoldDescriptor.from_json(SPHERE_DOC))
    cv = cpn_weinstein(2, 1)
    assert product.value == cv.value
    assert product.lattice == Lattice(cv.lattice.generators + ((1, 0, 0),))  # P_2(M) = Z
    assert not lattice_member(product.value, product.lattice)
    assert product.order == OrderResult.finite(3)


def test_product_class_cancelling_the_cpn_value_is_member():
    minus = {"pi_exp": 1, "num": [[0, "-1/3"]], "den": [[0, "1"]]}  # cpn(2, 1) is pi/3
    doc = {**SPHERE_DOC, "classes": {"minus": {"degree": 1, "value": [minus]}}}
    product = product_value(2, 1, ManifoldDescriptor.from_json(doc), "minus")
    assert product.value == PiGradedValue()
    assert lattice_member(product.value, product.lattice)
    assert product.order == OrderResult.finite(1)


def test_product_rejects_non_containing_lattice(monkeypatch):
    # No descriptor can break the containment, so a miss is a defect of the
    # lattice builder: a self-check failure, not a parameter error.
    sphere = ManifoldDescriptor.from_json(SPHERE_DOC)
    for lattice, generator in (
        (Lattice([(2, 1, 0)]), "1*pi^1*x^0"),  # misses pi itself
        (Lattice([(1, 1, 0)]), "1*pi^0*x^0"),  # misses the period of M
    ):
        monkeypatch.setattr(morphism, "product_cpn_lattice", lambda n, k, desc: lattice)
        with pytest.raises(SelfCheckError, match=rf"factor generator {re.escape(generator)}$"):
            product_value(2, 1, sphere)


def test_product_rules_run_in_order(refuses):
    # Each query breaks two rules; the earlier rule reports.  The degree rule
    # comes first (test_cli.test_product_checks_the_degree_before_the_descriptor).
    desc = ManifoldDescriptor.from_json(
        {"dimension": 2, "trivial_odd_homotopy": [1, 3, 3199], "classes": {"loop": {"degree": 1}}}
    )
    refuses(
        lambda: product_value(3, 3, desc, "missing"),
        "the descriptor does not assert trivial homotopy in degree 2k-1 = 5"
        " (trivial_odd_homotopy: [1, 3, 3199])",
        k=3,
    )
    with pytest.raises(ValueError, match="^descriptor has no class named 'missing'"):
        product_value(3, 2, desc, "missing")  # k = 2 also breaks the dimension bound
    refuses(lambda: product_value(3, 2, desc, "loop"),
            "class 'loop' lives in degree 1, not in 2k-1 = 3", k=2)
    dimension = "must be <= 1, half the descriptor dimension 2"
    refuses(lambda: product_value(2000, 1600, desc), dimension, k=1600)  # 1600! is unprintable too
    wide = ManifoldDescriptor.from_json({"dimension": 3200, "trivial_odd_homotopy": [3199]})
    with pytest.raises(DigitLimitError):
        product_value(2000, 1600, wide)
    refuses(lambda: product_value(3, 2, desc), dimension, k=2)


def test_product_dimension_bound_runs_before_exact_work(monkeypatch, refuses):
    # 1 <= k <= n and degree 15 is asserted trivial, but dimension 2 allows
    # only k <= 1: the refusal comes before the CP^n value and its self-check.
    calls = []
    for module, name in ((morphism, "cpn_weinstein"), (combinatorics, "moment_sum_bruteforce")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    desc = ManifoldDescriptor.from_json({"dimension": 2, "trivial_odd_homotopy": [15]})
    refuses(lambda: product_value(8, 8, desc), "must be <= 1, half the descriptor dimension 2",
            k=8)
    assert calls == []


def test_product_cpn_lattice_instances():
    sphere = ManifoldDescriptor.from_json(SPHERE_DOC)
    assert product_cpn_lattice(2, 1, sphere).generators == (
        (Fraction(1), 0, 0),
        (Fraction(1), 1, 0),
    )

    bare = ManifoldDescriptor.from_json(
        {"dimension": 8, "trivial_odd_homotopy": [1, 3], "periods": {}}
    )
    assert product_cpn_lattice(3, 2, bare).generators == ((Fraction(1, 2), 2, 0),)

    rich = ManifoldDescriptor.from_json(
        {
            "dimension": 8,
            "trivial_odd_homotopy": [3],
            "periods": {"2": ["1/2"], "4": ["1/3"]},
        }
    )
    assert product_cpn_lattice(4, 2, rich).generators == (
        (Fraction(1, 3), 0, 0),
        (Fraction(1, 2), 1, 0),
        (Fraction(1, 2), 2, 0),
    )


# ---------------------------------------------------------------------------
# descriptor validation


def test_descriptor_parses_classes():
    doc = {
        "dimension": 4,
        "trivial_odd_homotopy": [1, 3],
        "periods": {"2": ["1"], "4": ["1/2"]},
        "classes": {
            "zero": {"degree": 3, "value": []},
            "half": {
                "degree": 3,
                "value": [{"pi_exp": 0, "num": [[0, "1/2"]], "den": [[0, "1"]]}],
            },
        },
    }
    desc = ManifoldDescriptor.from_json(doc)
    assert desc.half_dimension == 2
    assert desc.periods[4] == (Fraction(1, 2),)
    assert desc.classes["zero"].value == PiGradedValue()
    assert desc.classes["half"].value == PiGradedValue.monomial(Fraction(1, 2), 0, 0)
    assert desc.period_lattice(2).generators == ((Fraction(1, 2), 0, 0),)
    assert desc.period_lattice(3).generators == ()


def _class_value(value):
    return {"dimension": 4, "classes": {"c": {"degree": 1, "value": value}}}


def _component(num, den=((0, "1"),), pi_exp=0):
    return {"pi_exp": pi_exp, "num": [list(t) for t in num], "den": [list(t) for t in den]}


KEY_RULE = "key must be an even degree 2 <= d <= {} in plain digits, got {}"
DIGIT_LIMIT = "the result has a number of more than 4300 digits, the integer string limit"
BAD_FIELDS = [
    ({"dimension": 3}, "dimension", "must be a positive even integer, got 3"),
    ({"dimension": 0}, "dimension", "must be a positive even integer, got 0"),
    (
        {"dimension": 4, "trivial_odd_homotopy": [2]},
        "trivial_odd_homotopy",
        "must be a list of odd degrees, got [2]",
    ),
    ({"dimension": 4, "periods": {"3": ["1"]}}, "periods.3", KEY_RULE.format(4, '"3"')),
    ({"dimension": 4, "periods": {"6": ["1"]}}, "periods.6", KEY_RULE.format(4, '"6"')),
    (
        {"dimension": 4, "periods": {"2": ["sqrt(2)"]}},
        "periods.2",
        'period "sqrt(2)" is not rational; only manifolds with rational period groups'
        " are supported",
    ),
    (
        {"dimension": 4, "classes": {"x": {"degree": 2, "value": []}}},
        "classes.x",
        "must be a positive odd integer, got 2",
    ),
    ({"dimension": 4, "periods": ["1"]}, "periods", 'must be a JSON object, got ["1"]'),
    (
        {"dimension": 4, "classes": [{"degree": 1, "value": []}]},
        "classes",
        'must be a JSON object, got [{"degree": 1, "value": []}]',
    ),
    ({"dimension": 4, "periods": {"2": ["1", "0"]}}, "periods.2", 'period "0" must be nonzero'),
    (
        {
            "dimension": 4,
            "classes": {"twice": {"degree": 1, "value": [
                _component([(0, "1")], pi_exp=1),
                _component([(0, "2")], pi_exp=1),
            ]}},
        },
        "classes.twice.value",
        "duplicate pi_exp 1",
    ),
    # A key has one spelling, so "2" and "02" cannot name one degree.
    (
        {"dimension": 4, "periods": {"2": ["1/2"], "02": ["1"]}},
        "periods.02",
        KEY_RULE.format(4, '"02"'),
    ),
    # JSON true loads as the int True, which is no degree; the message quotes JSON.
    (
        {"dimension": 4, "trivial_odd_homotopy": [True, 3]},
        "trivial_odd_homotopy",
        "must be a list of odd degrees, got [true, 3]",
    ),
    (
        {"dimension": 4, "classes": {"h": {"degree": True, "value": []}}},
        "classes.h.degree",
        "must be a positive odd integer, got true",
    ),
    # int() reads each of these keys as a degree; the key rule reads none.
    ({"dimension": 4, "periods": {" 4": ["1"]}}, "periods. 4", KEY_RULE.format(4, '" 4"')),
    ({"dimension": 4, "periods": {"+4": ["1"]}}, "periods.+4", KEY_RULE.format(4, '"+4"')),
    ({"dimension": 4, "periods": {"٤": ["1"]}}, "periods.٤", KEY_RULE.format(4, '"\\u0664"')),
    ({"dimension": 40, "periods": {"4_0": ["1"]}}, "periods.4_0", KEY_RULE.format(40, '"4_0"')),
    ({"dimension": "4"}, "dimension", 'must be a positive even integer, got "4"'),
    (
        {"dimension": 4, "periods": {"2": [None]}},
        "periods.2",
        "period null is not rational; only manifolds with rational period groups are supported",
    ),
    # A class value names the part of its shape that is broken.
    (
        _class_value({"pi_exp": 0}),
        "classes.c.value",
        'must be a list of components, got {"pi_exp": 0}',
    ),
    (_class_value(["x"]), "classes.c.value", 'must be a JSON object, got "x"'),
    (_class_value([{"num": [], "den": []}]), "classes.c.value", "required field is missing"),
    (
        _class_value([{"pi_exp": 0, "num": 3, "den": []}]),
        "classes.c.value",
        "terms must be a list of [exponent, coefficient] pairs, got 3",
    ),
    (
        _class_value([_component([(1.5, "1")])]),
        "classes.c.value",
        "exponent must be an integer, got 1.5",
    ),
    (
        _class_value([_component([(0, "x")])]),
        "classes.c.value",
        'not a rational number: "x"',
    ),
    (
        _class_value([_component([(0, "1")], den=[(0, "0")])]),
        "classes.c.value",
        "the den of pi_exp 0 is zero",
    ),
    # An exponent beyond the integer string limit is refused before it is expanded.
    ({"dimension": 4, "periods": {"2": ["1e7000000"]}}, "periods.2", DIGIT_LIMIT),
    (_class_value([_component([(0, "1e7000000")])]), "classes.c.value", DIGIT_LIMIT),
    # 'value' is optional: a class without it is the zero class.
    (
        {"dimension": 4, "classes": {"c": ["degree"]}},
        "classes.c",
        'must be a JSON object, got ["degree"]',
    ),
    # A misspelled field was read as absent.
    (
        {"dimension": 4, "Periods": {"2": ["1"]}},
        "Periods",
        "unknown field; the known ones are dimension, trivial_odd_homotopy, periods, classes",
    ),
    (
        {"dimension": 4, "classes": {"c": {"degree": 1, "values": []}}},
        "classes.c.values",
        "unknown field; the known ones are degree, value",
    ),
    # A negative pi exponent was accepted on read and refused, with no
    # field, only by a query that named the class.
    (_class_value([_component([(0, "1")], pi_exp=-1)]), "classes.c.value",
     "exponent must be >= 0, got -1"),
    # An unknown component key was accepted without a word.
    (
        _class_value([{**_component([(0, "1")]), "extra": 5}]),
        "classes.c.value",
        "unknown field; the known ones are pi_exp, num, den",
    ),
    # A class without its degree is refused on the missing field.
    ({"dimension": 4, "classes": {"c": {"value": []}}}, "classes.c.degree",
     "required field is missing"),
    # A period longer than the integer string limit was called irrational.
    ({"dimension": 4, "periods": {"2": ["1" * 4301]}}, "periods.2", DIGIT_LIMIT),
]


@pytest.mark.parametrize(
    "doc,field,message",
    BAD_FIELDS,
    ids=[f"doc{i}-{field}" for i, (_, field, _) in enumerate(BAD_FIELDS)],
)
def test_descriptor_rejects_bad_fields(doc, field, message):
    with pytest.raises(FieldError) as err:
        ManifoldDescriptor.from_json(doc)
    assert err.value.name.startswith(field)
    assert str(err.value) == f"{err.value.name}: {message}"


def test_descriptor_irrational_period_diagnostic_mentions_rationality():
    with pytest.raises(FieldError, match="rational"):
        ManifoldDescriptor.from_json(
            {"dimension": 4, "periods": {"2": ["pi"]}}
        )
