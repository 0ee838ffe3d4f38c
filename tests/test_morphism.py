"""Morphism values: CP^n, blow-up, products, descriptors."""

from fractions import Fraction

import pytest

from weincalc.exactarith import factorial
from weincalc.morphism import (
    FINITE_ORDER_AT_TOP_DEGREE,
    DescriptorError,
    ManifoldDescriptor,
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
from weincalc.symbolic import Lattice, OrderResult, PiGradedValue, PolyQ, lattice_member


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
            assert f.evaluate(Fraction(0)) == cpn_q(n, k) / factorial(k)


def test_blowup_orders():
    assert not blowup_weinstein(2, 1).order().is_finite
    assert not blowup_weinstein(3, 1).order().is_finite
    assert not blowup_weinstein(3, 2).order().is_finite
    assert blowup_weinstein(2, 2).order() == OrderResult.finite(2)


def test_blowup_flags_only_at_top_degree():
    top = blowup_weinstein(2, 2).order()
    assert blowup_flags(2, 2, top) == [FINITE_ORDER_AT_TOP_DEGREE]
    assert blowup_flags(3, 1, blowup_weinstein(3, 1).order()) == []


def test_blowup_lattice_shape():
    assert blowup_lattice(2).generators == (
        (Fraction(1, 2), 2, 0),
        (Fraction(1, 2), 2, 2),
    )


# ---------------------------------------------------------------------------
# products


def test_product_with_trivial_factor_reduces_to_cpn_coset():
    cv = cpn_weinstein(2, 1)
    m_lattice = Lattice([(1, 0, 0)])  # P_2(M) = Z
    full = Lattice(cv.lattice.generators + m_lattice.generators)
    product = product_value(
        cv.value, cv.lattice, PiGradedValue.zero(), m_lattice, full
    )
    assert product.value == cv.value
    assert not lattice_member(product.value, product.lattice)
    assert product.order() == OrderResult.finite(3)


def test_product_zero_plus_zero_is_member():
    full = Lattice([(1, 1, 0)])
    product = product_value(
        PiGradedValue.zero(), Lattice([(1, 1, 0)]), PiGradedValue.zero(), Lattice([]), full
    )
    assert lattice_member(product.value, product.lattice)
    assert product.order() == OrderResult.finite(1)


def test_product_rejects_non_containing_lattice():
    cv = cpn_weinstein(2, 1)
    too_small = Lattice([(2, 1, 0)])  # does not contain pi itself
    with pytest.raises(ValueError):
        product_value(cv.value, cv.lattice, PiGradedValue.zero(), Lattice([]), too_small)


SPHERE_DOC = {
    "dimension": 2,
    "trivial_odd_homotopy": [1],
    "periods": {"2": ["1"]},
}


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
    assert desc.classes["zero"].value == PiGradedValue.zero()
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
