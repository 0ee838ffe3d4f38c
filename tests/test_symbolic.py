"""Polynomial/rational-function algebra and the lattice decision procedures.

The gcd oracle here is an independent Euclidean algorithm on dense
coefficient lists; the division that decides a rational function is checked
against the same dense lists divided by that gcd, and membership is
cross-checked against the bounded integer-vector search from the
verification suite.
"""

import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import euclid_gcd
from weincalc import symbolic
from weincalc.exactarith import DigitLimitError, format_rational
from weincalc.morphism import blowup_weinstein
from weincalc.symbolic import (
    Lattice,
    OrderResult,
    PiGradedValue,
    PolyQ,
    RatFuncQ,
    json_terms,
    lattice_member,
    lattice_order,
    poly_gcd,
    rational_gcd,
)
from weincalc.verify import _box_table, _in_box, brute_force_member


def in_box(gens, target, bound):
    """Whether `target` is a combination of `gens` with coefficients in [-bound, bound]."""
    return _in_box(_box_table(gens, bound), target.numerator, target.denominator)

# ---------------------------------------------------------------------------
# dense-list polynomial oracle


def dense(p: PolyQ) -> list[Fraction]:
    if not p:
        return []
    out = [Fraction(0)] * (p.degree + 1)
    for e, c in p.terms.items():
        out[e] = c
    return out


def dense_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def dense_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, coeff in enumerate(b):
            a[shift + i] -= factor * coeff
        dense_trim(a)
        if not a:
            break
    return a


def dense_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = dense_trim(list(a)), dense_trim(list(b))
    while b:
        a, b = b, dense_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


small_poly = st.builds(
    PolyQ,
    st.dictionaries(
        st.integers(0, 6),
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
        max_size=4,
    ),
)
nonzero_poly = small_poly.filter(bool)
nonzero_scalar = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
# A shared factor of degree >= 1 whose leading coefficient is not +-1, such
# as 2x + 1: it has rational content and a non-monic primitive part.
shared_factor = nonzero_poly.filter(lambda p: p.degree >= 1 and abs(p.leading_coeff()) != 1)


def dense_divexact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Quotient a/b by long division on dense lists; b must divide a."""
    a, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        factor = quot[shift] = a[shift + len(b) - 1] / b[-1]
        for i, coeff in enumerate(b):
            a[shift + i] -= factor * coeff
    assert not any(a)
    return quot


def dense_reduce(num: PolyQ, den: PolyQ) -> tuple[list[Fraction], list[Fraction]]:
    """The reference reduction on dense lists: divide both by dense_gcd, then
    make the denominator monic."""
    g = dense_gcd(dense(num), dense(den))
    qn, qd = dense_divexact(dense(num), g), dense_divexact(dense(den), g)
    lead = qd[-1]
    return dense_trim([c / lead for c in qn]), [c / lead for c in qd]


def test_poly_basic_arithmetic():
    p = PolyQ({0: 1, 2: -1})  # 1 - x^2
    q = PolyQ({1: Fraction(1, 2)})
    assert p + q == PolyQ({0: 1, 1: Fraction(1, 2), 2: -1})
    assert (p * q).terms == {1: Fraction(1, 2), 3: Fraction(-1, 2)}
    assert (p + PolyQ({2: 1})).terms == {0: 1}  # a cancelled term is not stored
    assert not p + PolyQ({0: -1, 2: 1})
    assert not PolyQ()
    assert PolyQ().degree == -1
    assert (p.degree, p.leading_coeff()) == (2, -1)


def test_poly_gcd_known_values():
    # x^2 - 1 divides x^4 - 1; monic convention fixes the sign.
    assert poly_gcd(PolyQ.one_minus_x_pow(4), PolyQ.one_minus_x_pow(2)) == PolyQ(
        {0: -1, 2: 1}
    )
    assert poly_gcd(PolyQ.one_minus_x_pow(3), PolyQ.one_minus_x_pow(2)) == PolyQ(
        {0: -1, 1: 1}
    )


@given(small_poly, nonzero_poly)
@settings(max_examples=80)
def test_poly_divmod_is_euclidean(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(small_poly, small_poly)
@settings(max_examples=80)
def test_poly_gcd_matches_dense_oracle(a, b):
    got = poly_gcd(a, b)
    expected = dense_gcd(dense(a), dense(b))
    assert dense(got) == expected
    assert got == euclid_gcd(a, b)


def test_poly_gcd_keeps_the_remainder_coefficients_small(monkeypatch):
    # Dense coprime polynomials of degree 60 and 59 with one-digit
    # coefficients.  Euclid on the raw remainders grows their coefficients
    # to about 15 000 bits; scaled monic at each step, to about 500.
    rnd = random.Random(7)
    a = PolyQ({e: rnd.randint(-9, 9) for e in range(61)})
    b = PolyQ({e: rnd.randint(-9, 9) for e in range(60)})
    bits = []
    divide = PolyQ.__divmod__

    def spy(p, q):
        for c in (*p.terms.values(), *q.terms.values()):
            bits.append(max(c.numerator.bit_length(), c.denominator.bit_length()))
        return divide(p, q)

    monkeypatch.setattr(PolyQ, "__divmod__", spy)
    assert poly_gcd(a, b) == PolyQ({0: 1})
    assert 0 < max(bits) <= 1024


def test_ratfunc_known_reductions():
    # (1 - x^3)/3 over 1 - x^2 shares the factor 1 - x, but 1 - x^2 does not
    # divide it: it is kept as given, scaled to the monic x^2 - 1.  1 - x^2
    # divides (1 - x^4)/2, which leaves its quotient over 1.
    third = Fraction(1, 3)
    f = RatFuncQ(PolyQ.one_minus_x_pow(3) * third, PolyQ.one_minus_x_pow(2))
    assert f.num == PolyQ({0: -third, 3: third})
    assert f.den == PolyQ({0: -1, 2: 1})
    assert not f.is_polynomial
    g = RatFuncQ(PolyQ.one_minus_x_pow(4) * Fraction(1, 2), PolyQ.one_minus_x_pow(2))
    assert g.is_polynomial
    assert g.num == PolyQ({0: Fraction(1, 2), 2: Fraction(1, 2)})
    assert not RatFuncQ(PolyQ(), PolyQ.one_minus_x_pow(1))
    # The two early exits: x^2 + 1 over x + 1/2 has the primitive parts
    # A = x^2 + 1 and B = 2x + 1, and 2 does not divide lead(A) = 1; x^2 + x + 1
    # over the monic x - 36 reaches the quotient coefficient 37, which is
    # above C(1, 0) * ||A||_2 = sqrt(3).
    assert symbolic.exact_quotient(PolyQ({2: 1, 0: 1}), PolyQ({1: 1, 0: Fraction(1, 2)})) is None
    assert symbolic.exact_quotient(PolyQ({2: 1, 1: 1, 0: 1}), PolyQ({1: 1, 0: -36})) is None


@given(small_poly, nonzero_poly, shared_factor, nonzero_scalar, nonzero_scalar)
@settings(max_examples=100)
def test_ratfunc_reduction_matches_fraction_reference(p, q, s, cn, cd):
    # s * p * cn / (s * q * cd): rational contents of either sign, negative
    # leading coefficients and a shared non-monic factor.  The value is
    # decided, not reduced: the quotient over 1 exactly when the reduced form
    # has the denominator 1, and num/den as given, den monic, otherwise.
    num, den = s * p * cn, s * q * cd
    f = RatFuncQ(num, den)
    reduced_num, reduced_den = dense_reduce(num, den)
    assert f.is_polynomial == (reduced_den == [1])
    if f.is_polynomial:
        assert dense(f.num) == reduced_num
        assert f.num * den == num
    else:
        scale = 1 / den.leading_coeff()
        assert (f.num, f.den) == (num * scale, den * scale)


def test_ratfunc_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFuncQ(PolyQ({0: 1}), PolyQ())


@given(small_poly, nonzero_poly)
@settings(max_examples=60)
def test_ratfunc_reduce_idempotent(num, den):
    f = RatFuncQ(num, den)
    again = RatFuncQ(f.num, f.den)
    assert again == f


@given(
    small_poly,
    nonzero_poly,
    st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
)
@settings(max_examples=60)
def test_ratfunc_reduce_scale_invariant(num, den, c):
    assert RatFuncQ(num * c, den * c) == RatFuncQ(num, den)


@given(small_poly, small_poly, nonzero_poly)
@settings(max_examples=80)
def test_ratfunc_sum_with_a_polynomial_runs_no_gcd(p, a, b):
    # p + a/b = (a + p b)/b keeps the form of a/b with no division: b divides
    # a + p b iff it divides a.
    one = PolyQ({0: 1})
    f, poly = RatFuncQ(a, b), RatFuncQ(p, one)
    expected = RatFuncQ(f.num + p * f.den, f.den)
    calls = []
    gcd, divide = symbolic.poly_gcd, symbolic.exact_quotient
    symbolic.poly_gcd = lambda x, y: calls.append("gcd") or gcd(x, y)
    symbolic.exact_quotient = lambda x, y: calls.append("division") or divide(x, y)
    try:
        sums = [poly + f, f + poly, poly + poly]
    finally:
        symbolic.poly_gcd, symbolic.exact_quotient = gcd, divide
    assert calls == []
    assert sums[:2] == [expected, expected]
    assert sums[2] == RatFuncQ(p * 2, one)


def test_ratfunc_two_fractions_do_not_add():
    # Every sum the program forms has a polynomial side, so the sum of two
    # fractions, which would need a gcd, is not defined.
    one = PolyQ({0: 1})
    f, g = RatFuncQ(one, PolyQ({0: 1, 1: 1})), RatFuncQ(one, PolyQ({0: -1, 1: 1}))
    with pytest.raises(TypeError):
        f + g


def test_rational_gcd_examples():
    assert rational_gcd([Fraction(2, 3), Fraction(1, 2)]) == Fraction(1, 6)
    assert rational_gcd([Fraction(1)]) == 1
    assert rational_gcd([Fraction(3, 4)]) == Fraction(3, 4)
    with pytest.raises(ValueError):
        rational_gcd([])
    with pytest.raises(ValueError):
        rational_gcd([Fraction(0)])


def test_rational_gcd_stops_once_the_denominator_passes_the_string_limit():
    # The generator's denominator is a multiple of the running lcm, so the
    # fold stops at the first input that takes it to 10^limit or above: a
    # stream of periods 1/2, 1/3, ... is read only that far.
    limit = sys.get_int_max_str_digits()
    read = []

    def periods():
        for i in range(2, 10**5):
            read.append(i)
            yield Fraction(1, i)
        raise AssertionError("the whole stream was read")

    refusal = f"^the lattice generator has a denominator of more than {limit} digits,"
    with pytest.raises(DigitLimitError, match=refusal) as err:
        rational_gcd(periods())
    assert err.value.params == {}  # the caller names the input
    assert math.lcm(*read[:-1]) < 10**limit <= math.lcm(*read)
    # At the boundary: a denominator of `limit` digits prints, one more does not.
    widest = Fraction(2, 10**limit - 1)
    assert rational_gcd([widest, Fraction(6)]) == widest
    with pytest.raises(DigitLimitError):
        rational_gcd([Fraction(6), Fraction(1, 10**limit)])


@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9).filter(bool),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(-10, 10), min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_rational_gcd_membership_matches_box_search(values, witness):
    g = rational_gcd(values)
    assert g > 0
    assert all((v / g).denominator == 1 for v in values)
    # A target built with small integer coefficients is a multiple of g and
    # is reachable by the bounded search; shifting it by g/2 makes both fail.
    member = sum(n * v for n, v in zip(witness, values))
    assert (member / g).denominator == 1
    assert in_box(values, Fraction(member), 30)
    shifted = member + g / 2
    assert (shifted / g).denominator != 1
    assert not in_box(values, shifted, 30)


def box_reference(gens, target, bound):
    """Every coefficient vector in [-bound, bound]^len(gens), one by one."""
    coeffs = range(-bound, bound + 1)
    return any(
        sum((c * g for c, g in zip(vector, gens)), Fraction(0)) == target
        for vector in itertools.product(coeffs, repeat=len(gens))
    )


def test_box_search_matches_exhaustive_reference():
    rnd = random.Random(1974)

    def generator():  # zero, negative and fractional generators included
        return Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))

    outcomes = []
    for _ in range(400):
        bound = rnd.randint(0, 3)
        gens = [generator() for _ in range(rnd.randint(0, 3))]
        # Witness coefficients up to bound + 1 put some targets just outside the box.
        witness = [rnd.randint(-bound - 1, bound + 1) for _ in gens]
        reached = sum((c * g for c, g in zip(witness, gens)), Fraction(0))
        for target in (reached, reached + Fraction(1, 5), generator()):
            expected = box_reference(gens, target, bound)
            assert in_box(gens, target, bound) == expected, (gens, target, bound)
            outcomes.append(expected)
    assert outcomes.count(True) > 300 and outcomes.count(False) > 300
    # Edge cases: the box edge itself, one step outside it, and no generators.
    assert in_box([Fraction(1, 3)], Fraction(2, 3), 2)
    assert not in_box([Fraction(1, 3)], Fraction(1), 2)
    assert in_box([], Fraction(0), 5)
    assert not in_box([], Fraction(1, 2), 5)
    with pytest.raises(ValueError, match="at most 3 generators"):
        in_box([Fraction(1)] * 4, Fraction(0), 1)


def test_monomial_keeps_its_checks_and_equals_the_reduced_form():
    # The monomial is wrapped as built, with no division, so these are its
    # only checks: an int coefficient is stored as a Fraction, zero gives the
    # zero value, and a negative exponent is refused.
    (f,) = PiGradedValue.monomial(-3, 2, 5).components.values()
    assert f == RatFuncQ(PolyQ({5: Fraction(-3)}), PolyQ({0: 1}))
    assert type(f.num.terms[5]) is Fraction and f.is_polynomial
    assert PiGradedValue.monomial(0, 1, 2) == PiGradedValue()
    with pytest.raises(ValueError, match="^exponent must be >= 0, got -1$"):
        PiGradedValue.monomial(1, 0, -1)
    with pytest.raises(ValueError, match="^pi exponent must be >= 0, got -1$"):
        PiGradedValue.monomial(1, -1)


# ---------------------------------------------------------------------------
# lattice decisions


def test_lattice_member_known_cases():
    half_pi = PiGradedValue.monomial(Fraction(1, 2), 1, 0)
    assert not lattice_member(half_pi, Lattice([(1, 1, 0)]))
    pi_sq_half = PiGradedValue.monomial(Fraction(1, 2), 2, 0)
    assert lattice_member(pi_sq_half, Lattice([(Fraction(1, 2), 2, 0)]))
    nonpoly = PiGradedValue({1: RatFuncQ(PolyQ({0: 1}), PolyQ({0: 1, 1: 1}))})
    assert not lattice_member(nonpoly, Lattice([(1, 1, 0), (1, 1, 1), (1, 1, 2)]))


def test_lattice_order_known_cases():
    assert lattice_order(PiGradedValue(), Lattice([(1, 1, 0)])) == OrderResult.finite(1)
    f = RatFuncQ(
        PolyQ({0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}),
        PolyQ({0: 1, 1: 1}),
    )
    result = lattice_order(PiGradedValue({1: f}), Lattice([(1, 1, 0), (1, 1, 2)]))
    assert not result.is_finite
    assert result.witness is not None
    value = PiGradedValue(
        {2: RatFuncQ(PolyQ({0: Fraction(1, 2), 2: Fraction(1, 2)}), PolyQ({0: 1}))}
    )
    lattice = Lattice([(Fraction(1, 2), 2, 0), (Fraction(1, 2), 2, 2)])
    assert lattice_order(value, lattice) == OrderResult.finite(1)
    assert lattice_member(value, lattice)


def test_order_witness_names_the_denominator_briefly():
    # At n = 600 the denominator has 600 terms; the witness names it by its
    # degree and term count instead of printing it.
    result = blowup_weinstein(600, 599).order
    assert not result.is_finite
    assert len(result.witness) < 100
    assert result.witness == (
        "pi^599 component has a denominator of degree 599 with 600 terms"
        " that does not divide its numerator"
    )


def test_lattice_order_unsupported_monomial():
    value = PiGradedValue.monomial(Fraction(1, 2), 3, 1)
    result = lattice_order(value, Lattice([(1, 3, 0)]))
    assert not result.is_finite
    assert "pi^3*x^1" in result.witness


def test_lattice_order_multiple_scaling_law():
    # order((1/6) pi) against <pi> is 6; (m/6) pi has order 6/gcd(6, m).
    lattice = Lattice([(1, 1, 0)])
    for m in range(1, 13):
        multiple = PiGradedValue.monomial(Fraction(m, 6), 1, 0)
        assert lattice_order(multiple, lattice) == OrderResult.finite(6 // math.gcd(6, m))


def test_member_implies_order_one():
    lattice = Lattice([(Fraction(2, 3), 1, 0), (Fraction(1, 2), 0, 1)])
    value = PiGradedValue.monomial(Fraction(4, 3), 1, 0) + PiGradedValue.monomial(
        Fraction(-3, 2), 0, 1
    )
    assert lattice_member(value, lattice)
    assert lattice_order(value, lattice) == OrderResult.finite(1)


def test_lattice_collapse_and_sign_dedup():
    lattice = Lattice([(Fraction(2, 3), 1, 0), (Fraction(-1, 2), 1, 0)])
    assert lattice.generators == ((Fraction(1, 6), 1, 0),)
    assert Lattice([(1, 1, 0), (-1, 1, 0)]).generators == ((Fraction(1), 1, 0),)


def test_lattice_rejects_zero_generator():
    with pytest.raises(ValueError):
        Lattice([(0, 1, 0)])


def test_member_agrees_with_bounded_search_small_instances():
    # Independent integer-vector search in [-20, 20] on seeded random
    # instances with distinct monomials (the full 200-instance run with
    # shared monomials at bound 50 is an acceptance test).
    rnd = random.Random(7)
    for _ in range(40):
        count = rnd.randint(1, 3)
        cells: list[tuple[int, int]] = []
        while len(cells) < count:
            cell = (rnd.randint(0, 1), rnd.randint(0, 1))
            if cell not in cells:
                cells.append(cell)
        gens = [(Fraction(rnd.randint(1, 9), rnd.randint(1, 9)), a, b) for a, b in cells]
        value = PiGradedValue()
        for coeff, a, b in gens:
            scale = Fraction(rnd.randint(-8, 8), rnd.choice([1, 2]))
            value = value + PiGradedValue.monomial(coeff * scale, a, b)
        assert lattice_member(value, Lattice(gens)) == brute_force_member(value, gens, 20)


# ---------------------------------------------------------------------------
# serialization


def test_value_json_roundtrip_bit_exact():
    f = RatFuncQ(
        PolyQ({0: Fraction(1, 3), 2: Fraction(-5, 7)}),
        PolyQ({0: 1, 1: 1}),
    )
    value = PiGradedValue({0: RatFuncQ(PolyQ({0: Fraction(3, 4)}), PolyQ({0: 1})), 2: f})
    doc = value.to_json()
    assert PiGradedValue.from_terms(json_terms(json.loads(json.dumps(doc)))) == value
    with pytest.raises(ValueError, match="duplicate pi_exp 2"):
        json_terms(doc + doc[1:])
    repeated = [{"pi_exp": 0, "num": [[0, "1"], [0, "1/2"]], "den": [[0, "1"]]}]
    with pytest.raises(ValueError, match="duplicate term exponent 0"):
        json_terms(repeated)


def test_lattice_json_format():
    lattice = Lattice([(Fraction(1, 2), 2, 0), (Fraction(1, 6), 2, 2), (3, 0, 1)])
    doc = lattice.to_json()
    assert doc == [
        {"coeff": "3", "pi_exp": 0, "x_exp": 1},
        {"coeff": "1/2", "pi_exp": 2, "x_exp": 0},
        {"coeff": "1/6", "pi_exp": 2, "x_exp": 2},
    ]


def reference_str(p: PolyQ) -> str:
    """The rendering that formats every term's coefficient on its own."""
    if not p:
        return "0"
    out = ""
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        var = "" if e == 0 else "x" if e == 1 else f"x^{e}"
        if not var:
            term = format_rational(c)
        else:
            term = var if c == 1 else f"-{var}" if c == -1 else f"{format_rational(c)}*{var}"
        if out:
            term = f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        out += term
    return out


@given(nonzero_poly, nonzero_poly)
@settings(max_examples=80)
def test_rendering_matches_per_term_formatting(num, den):
    # Coefficients that share a numerator or a denominator must keep their
    # own text: the memo is keyed by both.
    f = RatFuncQ(num, den)
    assert str(num) == reference_str(num)
    assert str(f.num) == reference_str(f.num)
    assert PiGradedValue({1: f}).to_json() == [
        {
            "pi_exp": 1,
            "num": [[e, format_rational(f.num.terms[e])] for e in sorted(f.num.terms)],
            "den": [[e, format_rational(f.den.terms[e])] for e in sorted(f.den.terms)],
        }
    ]


def test_each_distinct_coefficient_is_formatted_once(monkeypatch):
    # All 319 numerator terms of the n = 160 blow-up value share one
    # coefficient, and all 160 denominator terms are 1.
    value = blowup_weinstein(160, 159).value
    f = value.components[159]
    distinct = {(c.numerator, c.denominator) for p in (f.num, f.den) for c in p.terms.values()}
    assert len(distinct) == 2
    calls = []

    def spy(c):
        calls.append(c)
        return format_rational(c)

    monkeypatch.setattr(symbolic, "format_rational", spy)
    doc = value.to_json()
    assert len(calls) <= len(distinct)
    calls.clear()
    text = str(f)
    assert len(calls) <= len(distinct)
    monkeypatch.undo()
    assert doc == value.to_json()
    assert text == str(f)
    assert doc[0]["num"][0] == [0, format_rational(f.num.terms[0])]
