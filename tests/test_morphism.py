"""Morphism values: CP^n, blow-up, products, descriptors."""

import re
from fractions import Fraction

import pytest

from weincalc import morphism
from weincalc.exactarith import DigitLimitError, factorial
from weincalc.morphism import (
    FINITE_ORDER_AT_TOP_DEGREE,
    DescriptorError,
    ManifoldDescriptor,
    blowup_at_weight,
    blowup_flags,
    blowup_lattice,
    blowup_weinstein,
    cpn_lattice,
    cpn_q,
    cpn_weinstein,
    cpn_weinstein_raw,
    product_cpn_lattice,
    product_value,
)
from weincalc.symbolic import Lattice, OrderResult, PiGradedValue, PolyQ, RatFuncQ, lattice_member


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
    assert cv.order() == OrderResult.finite(3)
    assert not lattice_member(cv.value, cv.lattice)
    assert cpn_weinstein(1, 1).order() == OrderResult.finite(2)
    assert cpn_weinstein(4, 1).order() == OrderResult.finite(5)
    assert cpn_weinstein(4, 4).order() == OrderResult.finite(2)


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
    assert cpn_weinstein(k, k).order() == OrderResult.finite(2)
    assert blowup_weinstein(k, k).order() == OrderResult.finite(2)


def test_cpn_weinstein_rejects_bad_degrees():
    # One rule and one message text for cpn_q, the raw oracle, the value
    # constructors and the product lattice (and the Monte Carlo oracles).
    for n, k in [(1, 2), (3, 0), (2, -1)]:
        message = f"k must satisfy 1 <= k <= n, got k={k} with n={n}"
        for entry in (cpn_q, cpn_weinstein_raw, cpn_weinstein, blowup_weinstein):
            with pytest.raises(ValueError, match=message):
                entry(n, k)
        with pytest.raises(ValueError, match=message):
            product_cpn_lattice(n, k, ManifoldDescriptor.from_json(SPHERE_DOC))
    with pytest.raises(ValueError, match="n must be >= 1, got n=0"):
        cpn_weinstein(0, 1)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        cpn_lattice(0)


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
            assert f.num.terms[0] / f.den.terms[0] == cpn_q(n, k) / factorial(k)


def test_blowup_at_weight_is_the_value_at_rho_squared():
    # The built value, substituted term by term, against the closed form.
    x = Fraction(1, 9)
    for n in range(1, 6):
        for k in range(1, n + 1):
            f = blowup_weinstein(n, k).value.components[k]
            num = sum(c * x**e for e, c in f.num.terms.items())
            den = sum(c * x**e for e, c in f.den.terms.items())
            assert blowup_at_weight(n, k, Fraction(1, 3)) == num / den
    with pytest.raises(ValueError, match="rho must lie in"):
        blowup_at_weight(2, 1, Fraction(1))


def test_blowup_orders():
    assert not blowup_weinstein(2, 1).order().is_finite
    assert not blowup_weinstein(3, 1).order().is_finite
    assert not blowup_weinstein(3, 2).order().is_finite
    assert blowup_weinstein(2, 2).order() == OrderResult.finite(2)


def test_blowup_flags_only_at_top_degree():
    top = blowup_weinstein(2, 2).order()
    assert blowup_flags(2, 2, top) == [FINITE_ORDER_AT_TOP_DEGREE]
    assert blowup_flags(3, 1, blowup_weinstein(3, 1).order()) == []


def test_verify_blowup_rows_check_the_reduced_form(monkeypatch):
    from weincalc import morphism, verify

    result = verify.check_blowup(n_max=5, samples=200)
    assert result.passed
    assert all(row["reduced_form_matches"] for row in result.details["rows"])

    def unreduced(n, k):
        # The same function with (1 + x) left in numerator and denominator:
        # x -> 0 and the order at k < n cannot tell it from the reduced form.
        cv = morphism.blowup_weinstein(n, k)
        f = cv.value.components[k]
        g = RatFuncQ.__new__(RatFuncQ)
        g.num, g.den = f.num * PolyQ({0: 1, 1: 1}), f.den * PolyQ({0: 1, 1: 1})
        return morphism.CosetValue(PiGradedValue({k: g}), cv.lattice)

    monkeypatch.setattr(verify, "blowup_weinstein", unreduced)
    rows = verify.check_blowup(n_max=3, samples=200).details["rows"]
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
    assert product.order() == OrderResult.finite(3)


def test_product_class_cancelling_the_cpn_value_is_member():
    minus = {"pi_exp": 1, "num": [[0, "-1/3"]], "den": [[0, "1"]]}  # cpn(2, 1) is pi/3
    doc = {**SPHERE_DOC, "classes": {"minus": {"degree": 1, "value": [minus]}}}
    product = product_value(2, 1, ManifoldDescriptor.from_json(doc), "minus")
    assert product.value == PiGradedValue()
    assert lattice_member(product.value, product.lattice)
    assert product.order() == OrderResult.finite(1)


def test_product_rejects_non_containing_lattice(monkeypatch):
    sphere = ManifoldDescriptor.from_json(SPHERE_DOC)
    for lattice, generator in (
        (Lattice([(2, 1, 0)]), "1*pi^1*x^0"),  # misses pi itself
        (Lattice([(1, 1, 0)]), "1*pi^0*x^0"),  # misses the period of M
    ):
        monkeypatch.setattr(morphism, "product_cpn_lattice", lambda n, k, desc: lattice)
        with pytest.raises(ValueError, match=rf"factor generator {re.escape(generator)}$"):
            product_value(2, 1, sphere)


def test_product_rules_run_in_order():
    # Each query breaks two rules; the earlier rule reports.  The degree rule
    # comes first (test_cli.test_product_checks_the_degree_before_the_descriptor).
    desc = ManifoldDescriptor.from_json(
        {"dimension": 2, "trivial_odd_homotopy": [1, 3, 3199], "classes": {"loop": {"degree": 1}}}
    )
    with pytest.raises(ValueError, match="does not assert trivial homotopy in degree 5 "):
        product_value(3, 3, desc, "missing")
    with pytest.raises(ValueError, match="^descriptor has no class named 'missing'"):
        product_value(3, 2, desc, "missing")  # k = 2 also breaks the dimension bound
    with pytest.raises(ValueError, match="^class 'loop' lives in degree 1"):
        product_value(3, 2, desc, "loop")
    with pytest.raises(DigitLimitError):  # 1600! is unprintable; k = 1600 also breaks it
        product_value(2000, 1600, desc)
    with pytest.raises(ValueError, match="dimension bound"):
        product_value(3, 2, desc)


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


def test_product_cpn_lattice_dimension_bound():
    sphere = ManifoldDescriptor.from_json(SPHERE_DOC)
    with pytest.raises(ValueError):
        product_cpn_lattice(3, 2, sphere)  # sphere only allows k <= 1


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


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"dimension": 3}, "dimension"),
        ({"dimension": 0}, "dimension"),
        ({"dimension": 4, "trivial_odd_homotopy": [2]}, "trivial_odd_homotopy"),
        ({"dimension": 4, "periods": {"3": ["1"]}}, "periods.3"),
        ({"dimension": 4, "periods": {"6": ["1"]}}, "periods.6"),
        ({"dimension": 4, "periods": {"2": ["sqrt(2)"]}}, "periods.2"),
        ({"dimension": 4, "classes": {"x": {"degree": 2, "value": []}}}, "classes.x"),
        ({"dimension": 4, "periods": ["1"]}, "periods"),
        ({"dimension": 4, "classes": [{"degree": 1, "value": []}]}, "classes"),
        ({"dimension": 4, "periods": {"2": ["1", "0"]}}, "periods.2"),
        (
            {
                "dimension": 4,
                "classes": {"twice": {"degree": 1, "value": [
                    {"pi_exp": 1, "num": [[0, "1"]], "den": [[0, "1"]]},
                    {"pi_exp": 1, "num": [[0, "2"]], "den": [[0, "1"]]},
                ]}},
            },
            "classes.twice.value",
        ),
        # "2" and "02" name one degree; one of the lists was silently lost.
        ({"dimension": 4, "periods": {"2": ["1/2"], "02": ["1"]}}, "periods.02"),
        # JSON true loads as the int True, which is no degree.
        ({"dimension": 4, "trivial_odd_homotopy": [True, 3]}, "trivial_odd_homotopy"),
        ({"dimension": 4, "classes": {"h": {"degree": True, "value": []}}}, "classes.h.degree"),
    ],
)
def test_descriptor_rejects_bad_fields(doc, field):
    with pytest.raises(DescriptorError) as err:
        ManifoldDescriptor.from_json(doc)
    assert err.value.field.startswith(field)


def test_descriptor_irrational_period_diagnostic_mentions_rationality():
    with pytest.raises(DescriptorError, match="rational"):
        ManifoldDescriptor.from_json(
            {"dimension": 4, "periods": {"2": ["pi"]}}
        )
