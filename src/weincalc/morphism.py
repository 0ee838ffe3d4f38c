"""Exact generalized Weinstein morphism values.

Covers complex projective space with the Fubini-Study form normalized so a
projective line has area pi, its one-point symplectic blow-up of weight rho
(through the induced value, with x = rho^2 formal), and Cartesian products
with a manifold known through its rational period data.  The Monte Carlo
oracles in `montecarlo` check these values independently of this module.

Conventions: values live in the basis of plain pi powers, so the morphism
value on CP^n in degree 2k-1 is stored as (q/k!) * pi^k against the period
lattice generated by pi^k/k!, where

    q(n, k) = n! * k! * C(2k-1, k) / (n+k)!

The classical degree-1 case (k = 1) is included: the formulas specialize
cleanly and give the familiar order n+1 in pi_1.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import combinatorics
from .combinatorics import RAW_CHECK_MAX_K  # the brute-force budget, re-exported
from .exactarith import (
    DigitLimitError,
    ParameterError,
    as_typed,
    format_rational,
    parse_rational,
    require_positive,
    require_printable_factorial,
    require_printable_power,
    require_weight,
    require_within,
)
from .symbolic import (
    Lattice,
    OrderResult,
    PiGradedValue,
    PolyQ,
    RatFuncQ,
    is_json_int,
    json_object,
    json_terms,
    lattice_member,
    lattice_order,
    on_field,
)

# Upper bound on the terms of the reduced blow-up value, numerator and
# denominator together: (n+k)/g + n/g with g = gcd(n, k).  The digit limit
# bounds the coefficient at large k but never bites at small k, where the
# time and the output grow with the term count alone.  The cap admits every
# k = n-1 query that the digit limit admits (the largest is n = 1558, 4673
# terms, about 0.08 s and 13.5 MB of JSON in process on a 2-core x86-64 box).
MAX_BLOWUP_TERMS = 5000

# The most characters of a descriptor file that ManifoldDescriptor.read
# reads; a longer file is refused, so that a device such as /dev/zero or a
# huge file cannot exhaust the memory.  A file at the limit that holds as many
# JSON values as it can, 5.6 million empty arrays, peaks at about 450 MB in a
# `product` process (CPython 3.11, x86-64).
MAX_DESCRIPTOR_CHARS = 1 << 24

# Structured flag for the one case where the computed order is finite even
# though the infinite-order statement for blow-up classes would cover it.
FINITE_ORDER_AT_TOP_DEGREE = "finite-order-at-k-equals-n"


class SelfCheckError(RuntimeError):
    """Closed form and independent raw evaluation disagree; refuse to answer."""


class CosetValue(NamedTuple):
    """The answer to a query: a morphism value, the period lattice it is
    reduced by, its order in R / lattice, whose `nontrivial` is the verdict,
    and the flags of its report.  `of` decides the order, where it is made."""

    value: PiGradedValue
    lattice: Lattice
    order: OrderResult
    flags: tuple[str, ...] = ()

    @classmethod
    def of(cls, value: PiGradedValue, lattice: Lattice) -> CosetValue:
        return cls(value, lattice, lattice_order(value, lattice))


def cpn_q(n: int, k: int) -> Fraction:
    """q(n, k) = n! k! C(2k-1, k) / (n+k)!: the multiple of pi^k/k! taken by
    the morphism on the standard unitary generator of degree 2k-1."""
    require_within(n, k=k)
    # n!/(n+k)! as 1/perm(n+k, k): n! itself is never formed.
    return Fraction(math.factorial(k) * math.comb(2 * k - 1, k), math.perm(n + k, k))


def cpn_weinstein_raw(n: int, k: int) -> Fraction:
    """The pre-simplification value n!/((n+k)! 2^k) * S(k, k), with S evaluated
    by brute-force enumeration.  Internal oracle for cpn_q."""
    require_within(n, k=k)
    s = combinatorics.moment_sum_bruteforce(k, k)
    return Fraction(1, math.perm(n + k, k) * 2**k) * s


def cpn_lattice(k: int) -> Lattice:
    """Degree-2k period lattice of CP^n: the single generator pi^k/k!."""
    require_positive(k=k)
    return Lattice([(Fraction(1, math.factorial(k)), k, 0)])


def _checked_c(n: int, k: int, cancel: int = 1) -> Fraction:
    """c = q(n, k)/k!, the pi^k coefficient of the CP^n value, through the
    one gate every cpn, blow-up and product value passes, in this order:
    1 <= k <= n; a printable k!, since each value prints its lattice
    generator pi^k/k!; a printable c, whose denominator is at least
    (n+1)^k / C(2k-1, k), tested before perm(n+k, k) is formed; then q
    against the raw multi-index sum whenever k is inside the brute-force
    budget.  A product prints c summed with a class coefficient whose
    denominator `cancel` can cancel at most that factor of den(c), so the
    printable-c test divides its bound by `cancel`."""
    require_within(n, k=k)
    require_printable_factorial(k)
    require_printable_power(n + 1, k, math.comb(2 * k - 1, k) * cancel)
    q = cpn_q(n, k)
    if k <= RAW_CHECK_MAX_K:
        raw = cpn_weinstein_raw(n, k)
        if raw != q:
            raise SelfCheckError(
                f"closed form q({n},{k}) = {q} disagrees with raw multi-index value {raw}"
            )
    return q / math.factorial(k)


def cpn_weinstein(n: int, k: int) -> CosetValue:
    """Morphism value on the degree-(2k-1) unitary generator acting on CP^n:
    (q(n,k)/k!) * pi^k in R / <pi^k/k!>, refused by the gate of _checked_c."""
    value = PiGradedValue.monomial(_checked_c(n, k), k, 0)
    return CosetValue.of(value, cpn_lattice(k))


def _blowup_step(n: int, k: int) -> int:
    """g = gcd(n, k), the exponent step of the reduced blow-up value, once
    1 <= k <= n holds and the value has at most MAX_BLOWUP_TERMS terms."""
    require_within(n, k=k)
    g = math.gcd(n, k)
    terms = (n + k) // g + n // g
    if terms > MAX_BLOWUP_TERMS:
        raise ParameterError(
            f"the reduced value has {terms} terms, more than {MAX_BLOWUP_TERMS}", n=n, k=k
        )
    return g


def blowup_lattice(k: int) -> Lattice:
    """Degree-2k period lattice of the one-point blow-up of CP^n: the CP^n
    lattice plus Z*(pi^k x^k / k!), that is <pi^k/k!, pi^k x^k/k!>."""
    generator = Fraction(1, math.factorial(k))
    return Lattice([(generator, k, 0), (generator, k, k)])


def blowup_weinstein(n: int, k: int) -> CosetValue:
    """Morphism value of the lifted class on the weight-rho blow-up of CP^n.

    The single pi^k component is the reduced rational function

        f_k(x) = c * (1 - x^(n+k)) / (1 - x^n),      c = q(n,k)/k!,  x = rho^2,

    taken against the lattice <pi^k/k!, pi^k x^k/k!>.  It is built in its
    reduced form, with no gcd: since gcd(1 - x^a, 1 - x^b) = 1 - x^gcd(a,b),
    f_k = c * sum_{j < (n+k)/g} x^(jg) / sum_{j < n/g} x^(jg) with
    g = gcd(n, k); verify checks it against the Euclidean reduction, and
    blowup_at_weight evaluates it at a weight.  Setting x = 0 recovers the
    CP^n value.  The order is infinite for every k < n (the reduced
    denominator of f_k survives, since n does not divide n+k).  At k = n the
    correction factor divides exactly, f_n = (1/(2 n!)) (1 + x^n), and the
    computed order is Finite(2), against the infinite-order statement for
    lifted classes at every k <= n: the answer reports it verbatim and
    carries the flag FINITE_ORDER_AT_TOP_DEGREE that marks the conflict.
    """
    g = _blowup_step(n, k)  # the term cap, before any exact work
    c = _checked_c(n, k)
    f = RatFuncQ._of(
        PolyQ._of(dict.fromkeys(range(0, n + k, g), c)),
        PolyQ._of(dict.fromkeys(range(0, n, g), Fraction(1))),
    )
    cv = CosetValue.of(PiGradedValue({k: f}), blowup_lattice(k))
    if k == n and cv.order.is_finite:
        return cv._replace(flags=(FINITE_ORDER_AT_TOP_DEGREE,))
    return cv


def blowup_at_weight(n: int, k: int, rho: Fraction) -> Fraction:
    """f_k(rho^2), the pi^k coefficient of the blow-up value at weight rho,
    from its closed form, for the (n, k) that blowup_weinstein admits: the
    term count, the weight range and the full gate of _checked_c, then
    DigitLimitError, before any power of x = rho^2 is formed, when the
    reduced numerator must exceed the integer string limit."""
    g = _blowup_step(n, k)  # bounds n before the exact work of _checked_c
    require_weight(rho)
    c = _checked_c(n, k)
    x = rho * rho
    # For x = a/b the reduced numerator is at least b^(n+k-g) / den(c).
    require_printable_power(x.denominator, n + k - g, c.denominator)
    return c * (1 - x ** (n + k)) / (1 - x**n)


# ---------------------------------------------------------------------------
# Cartesian products


# The fields of a descriptor, all optional (a missing dimension is refused by its own rule).
DESCRIPTOR_FIELDS = ("dimension", "trivial_odd_homotopy", "periods", "classes")


class NamedClass(NamedTuple):
    """A named morphism value on the descriptor manifold, with its degree.
    Its pi^a components are kept as read, checked but undivided (num, den)
    pairs, so only a class that a query reads costs a division."""

    degree: int
    terms: Mapping[int, tuple[PolyQ, PolyQ]]

    @property
    def value(self) -> PiGradedValue:
        return PiGradedValue.from_terms(self.terms)


class ManifoldDescriptor(NamedTuple):
    """Period data of a closed symplectic manifold of dimension 2m.

    `periods[2j]` lists rational generators of the degree-2j period group
    (as coefficients of pi^0 -- real periods).  `trivial_odd_homotopy` lists
    the odd degrees 2k-1 in which the manifold's homotopy is asserted trivial
    (required for the morphism to be defined).  `classes` optionally names
    known morphism values, in a read-only mapping (empty by default).
    """

    dimension: int
    trivial_odd_homotopy: frozenset[int]
    periods: Mapping[int, tuple[Fraction, ...]]
    classes: Mapping[str, NamedClass] = MappingProxyType({})

    @property
    def half_dimension(self) -> int:
        return self.dimension // 2

    def period_lattice(self, k: int) -> Lattice:
        """Degree-2k periods as a lattice of pi^0 generators (empty if none)."""
        return Lattice((p, 0, 0) for p in self.periods.get(2 * k, ()))

    @classmethod
    def read(cls, path: str) -> ManifoldDescriptor:
        """The descriptor in the UTF-8 JSON file at `path`, of at most
        MAX_DESCRIPTOR_CHARS characters.  A file that cannot be read as one
        is refused with a ParameterError that names `path` as `manifold`."""
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read(MAX_DESCRIPTOR_CHARS + 1)
            if len(text) > MAX_DESCRIPTOR_CHARS:
                raise ValueError(
                    f"manifold descriptor is longer than {MAX_DESCRIPTOR_CHARS} characters"
                )
            doc = json.loads(
                text,
                object_pairs_hook=_distinct_names,
                parse_int=_descriptor_int,
                parse_float=_DescriptorNumber,
            )
        except OSError as exc:  # its text holds the path, which may be long
            message = f"cannot read manifold descriptor: {exc.strerror}"
        except UnicodeDecodeError as exc:  # not a UTF-8 file
            message = f"cannot read manifold descriptor: {exc}"
        except json.JSONDecodeError as exc:
            message = f"manifold descriptor is not valid JSON: {exc}"
        except RecursionError:  # the decoder recurses once per nested array or object
            message = "manifold descriptor nests arrays or objects too deeply to read"
        except ValueError as exc:  # the size limit, _distinct_names or _descriptor_int
            message = str(exc)
        else:
            return cls.from_json(doc)
        raise ParameterError(message, manifold=path)

    @classmethod
    def from_json(cls, doc: dict) -> ManifoldDescriptor:
        """The descriptor in the JSON document `doc`; a FieldError names the
        field at fault by its path from the root."""
        with on_field(""):
            json_object(doc, (), DESCRIPTOR_FIELDS)
        dim = doc.get("dimension")
        with on_field("dimension"):
            if not is_json_int(dim) or dim < 2 or dim % 2:
                shown = as_typed(json.dumps(dim))
                raise ValueError(f"must be a positive even integer, got {shown}")

        toh = doc.get("trivial_odd_homotopy", [])
        with on_field("trivial_odd_homotopy"):
            if not isinstance(toh, list) or not all(
                is_json_int(d) and d >= 1 and d % 2 == 1 for d in toh
            ):
                raise ValueError(f"must be a list of odd degrees, got {as_typed(json.dumps(toh))}")

        periods: dict[int, tuple[Fraction, ...]] = {}
        width = len(str(dim))  # a key with more digits names a degree above dim
        with on_field("periods"):
            groups = json_object(doc.get("periods", {}))
        for key, gens in groups.items():
            with on_field(f"periods.{as_typed(key)}"):
                # ASCII digits with no sign, space, underscore or leading zero: one key per degree.
                plain = key.isascii() and key.isdigit() and len(key) <= width
                degree = int(key) if plain else 0
                if key != str(degree) or degree < 2 or degree % 2 or degree > dim:
                    raise ValueError(
                        f"key must be an even degree 2 <= d <= {dim} in plain digits,"
                        f" got {as_typed(json.dumps(key))}"
                    )
                if not isinstance(gens, list):
                    raise ValueError("generators must be a list")
                periods[degree] = tuple(map(_period, gens))

        classes: dict[str, NamedClass] = {}
        with on_field("classes"):
            entries = json_object(doc.get("classes", {}))
        for name, entry in entries.items():
            with on_field(f"classes.{as_typed(name)}"):
                json_object(entry, ("degree",), ("value",))
                with on_field("degree"):
                    degree = entry["degree"]
                    if not is_json_int(degree) or degree < 1 or degree % 2 == 0:
                        raise ValueError(
                            f"must be a positive odd integer, got {as_typed(json.dumps(degree))}"
                        )
                with on_field("value"):
                    classes[name] = NamedClass(degree, json_terms(entry.get("value", [])))

        return cls(dim, frozenset(toh), periods, MappingProxyType(classes))


def _period(text) -> Fraction:
    """A nonzero rational period as the descriptor writes it; a number
    beyond the integer string limit is refused as such."""
    try:
        period = parse_rational(text)
    except DigitLimitError:
        raise
    except ValueError:
        raise ValueError(
            f"period {as_typed(json.dumps(text))} is not rational; only manifolds with rational"
            f" period groups are supported"
        ) from None
    if period == 0:
        raise ValueError(f"period {as_typed(json.dumps(text))} must be nonzero")
    return period


def _distinct_names(pairs: list[tuple[str, object]]) -> dict:
    """A descriptor object whose names are distinct: RFC 8259 leaves a
    repeated name undefined, and json.load would keep its last value."""
    seen: set[str] = set()
    for name, _ in pairs:
        if name in seen:
            raise ValueError(
                f"manifold descriptor repeats the name {as_typed(json.dumps(name))} in one object"
            )
        seen.add(name)
    return dict(pairs)


def _descriptor_int(digits: str) -> int:
    """A descriptor integer, refused with the limit named when it is longer
    than the integer string limit (int() would point at an interpreter
    setting instead)."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and len(digits.lstrip("-")) > limit:
        raise ValueError(
            f"manifold descriptor has an integer of more than {limit} digits,"
            f" the integer string limit"
        )
    return int(digits)


class _DescriptorNumber(float):
    """A JSON number with a fraction or an exponent.  Its str() is the
    literal as written, so parse_rational reads those digits and not the
    nearest binary float; a diagnostic's json.dumps still shows a number."""

    def __new__(cls, literal: str) -> _DescriptorNumber:
        number = super().__new__(cls, literal)
        number.literal = literal
        return number

    def __str__(self) -> str:
        return self.literal


def product_cpn_lattice(n: int, k: int, m_desc: ManifoldDescriptor) -> Lattice:
    """Degree-2k period lattice of CP^n x M, generated by

        pi^k/k!,  pi^(k-1)/(k-1)! * P_2(M),  ...,  P_2k(M).

    Degrees missing from the descriptor contribute nothing.
    """
    require_within(n, k=k)
    gens: list[tuple[Fraction, int, int]] = [(Fraction(1, math.factorial(k)), k, 0)]
    for j in range(1, k + 1):
        for p in m_desc.periods.get(2 * j, ()):
            gens.append((p / math.factorial(k - j), k - j, 0))
    return Lattice(gens)


def product_value(
    n: int, k: int, descriptor: ManifoldDescriptor, class_name: str | None = None
) -> CosetValue:
    """The answer for the product class on CP^n x M in degree 2k-1: the
    CP^n value plus the descriptor's class `class_name` (the zero class when
    None), taken against the product period lattice, with its order.

    Every rule runs here, in this order: 1 <= k <= n; the descriptor asserts
    trivial homotopy in degree 2k-1; the class exists and lives in that
    degree; k <= m for the descriptor's dimension 2m; a printable k!.  None
    of these reads the class value.  Then the named class, and no other
    class of the descriptor, is decided, once, by one exact division per
    component: its quotient over 1 when the denominator divides the
    numerator, and otherwise the component as given, unreduced, as a/b with
    b monic; that form is the one summed into the printed value.  Then the
    gate of the CP^n value (_checked_c), whose printable-c test allows for the
    denominator of the coefficient of x^deg(b) in a: the printed sum
    (a + c b)/b has the coefficient c + a_j there, and
    den(c + a_j) >= den(c) / den(a_j).  Then the lattices: M's degree-2k
    lattice is built once and serves both the product lattice and the
    containment test below; a lattice generator of more digits than the
    integer string limit, which only the descriptor's periods can give, is
    refused as a DigitLimitError naming the descriptor (`manifold`).  Last,
    the product lattice contains both factor lattices, checked generator by
    generator.  No descriptor can fail the last, so a generator missing from
    the product lattice is a SelfCheckError.  The order is decided once, of
    the sum (CosetValue.of).
    """
    require_within(n, k=k)
    degree = 2 * k - 1
    if degree not in descriptor.trivial_odd_homotopy:
        raise ParameterError(
            f"the descriptor does not assert trivial homotopy in degree 2k-1 = {degree}"
            f" (trivial_odd_homotopy: {as_typed(sorted(descriptor.trivial_odd_homotopy))})",
            k=k,
        )
    named = NamedClass(degree, {})  # the zero class
    if class_name is not None:
        named = descriptor.classes.get(class_name)
        if named is None:
            raise ValueError(
                f"descriptor has no class named {as_typed(repr(class_name))} "
                f"(available: {as_typed(sorted(descriptor.classes))})"
            )
        if named.degree != degree:
            raise ParameterError(
                f"class {as_typed(repr(class_name))} lives in degree {named.degree},"
                f" not in 2k-1 = {degree}",
                k=k,
            )
    if k > descriptor.half_dimension:
        bound = f"half the descriptor dimension {descriptor.dimension}"
        raise ParameterError(f"must be <= {descriptor.half_dimension}, {bound}", k=k)
    require_printable_factorial(k)
    value = named.value
    f = value.components.get(k)
    cancel = f.num.terms.get(f.den.degree, Fraction(0)).denominator if f else 1
    cpn = PiGradedValue.monomial(_checked_c(n, k, cancel), k, 0)
    try:
        own = descriptor.period_lattice(k)
        # The product lattice reads M's degree-2k periods as own's generator,
        # the same group, so the gcd of that cell runs once.
        periods = {**descriptor.periods, 2 * k: tuple(g for g, _, _ in own.generators)}
        full = product_cpn_lattice(n, k, descriptor._replace(periods=periods))
    except DigitLimitError as exc:  # only the descriptor's periods can pass the limit
        raise DigitLimitError(str(exc), manifold=None) from None
    factors = cpn_lattice(k).generators + own.generators
    for coeff, pi_exp, x_exp in factors:
        if not lattice_member(PiGradedValue.monomial(coeff, pi_exp, x_exp), full):
            raise SelfCheckError(
                f"product lattice does not contain the factor generator "
                f"{format_rational(coeff)}*pi^{pi_exp}*x^{x_exp}"
            )
    return CosetValue.of(cpn + value, full)
