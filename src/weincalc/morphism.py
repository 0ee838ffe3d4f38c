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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import combinatorics
from .exactarith import (
    DigitLimitError,
    ParameterError,
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
    json_terms,
    lattice_member,
    lattice_order,
)

# Brute-force self-check budget: the raw multi-index sum for degree k runs
# over C(3k-1, 2k-1) compositions.  Measured on a 2-core x86-64 box (CPython
# 3.11), one cold S(k, k) costs about 0.005 s at k = 7 and 0.04 s at k = 8.
# A budget of 9 would add S(9, 9) (3.1 million compositions, about 0.2 s) to
# every k = 9 query, which costs about 0.1 s without it.  The same bound caps
# `identity --k-max`.
RAW_CHECK_MAX_K = 8

# Upper bound on the terms of the reduced blow-up value, numerator and
# denominator together: (n+k)/g + n/g with g = gcd(n, k).  The digit limit
# bounds the coefficient at large k but never bites at small k, where the
# time and the output grow with the term count alone.  The cap admits every
# k = n-1 query that the digit limit admits (the largest is n = 1558, 4673
# terms, about 0.23 s and 27 MB of JSON in process on a 2-core x86-64 box).
MAX_BLOWUP_TERMS = 5000

# Structured flag for the one case where the computed order is finite even
# though the infinite-order statement for blow-up classes would cover it.
FINITE_ORDER_AT_TOP_DEGREE = "finite-order-at-k-equals-n"


class SelfCheckError(RuntimeError):
    """Closed form and independent raw evaluation disagree; refuse to answer."""


@dataclass(frozen=True)
class CosetValue:
    """A morphism value together with the period lattice it is reduced by."""

    value: PiGradedValue
    lattice: Lattice

    def order(self) -> OrderResult:
        return lattice_order(self.value, self.lattice)


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


def _checked_q(n: int, k: int, alone: bool = True) -> Fraction:
    """q(n, k) with the closed form cross-checked against the raw multi-index
    sum whenever k is inside the brute-force budget.  Every cpn, blow-up and
    product value prints its lattice generator pi^k/k!, so a k whose k! must
    exceed the integer string limit is refused here, before any exact work.
    So is, when c = q(n, k)/k! is printed `alone` (not summed with a class of
    a product), an (n, k) whose c must have a denominator beyond that limit:
    c = C(2k-1, k) / perm(n+k, k), so that denominator is at least
    (n+1)^k / C(2k-1, k), tested before perm(n+k, k) is formed."""
    require_within(n, k=k)
    require_printable_factorial(k)
    if alone:
        require_printable_power(n + 1, k, math.comb(2 * k - 1, k))
    q = cpn_q(n, k)
    if k <= RAW_CHECK_MAX_K:
        raw = cpn_weinstein_raw(n, k)
        if raw != q:
            raise SelfCheckError(
                f"closed form q({n},{k}) = {q} disagrees with raw multi-index value {raw}"
            )
    return q


def cpn_weinstein(n: int, k: int, alone: bool = True) -> CosetValue:
    """Morphism value on the degree-(2k-1) unitary generator acting on CP^n:
    (q(n,k)/k!) * pi^k in R / <pi^k/k!>.  With `alone` false, as in a
    product, where a class can cancel the denominator of q/k!, that
    denominator is not tested against the digit limit."""
    q = _checked_q(n, k, alone)
    value = PiGradedValue.monomial(q / math.factorial(k), k, 0)
    return CosetValue(value, cpn_lattice(k))


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
    computed order is Finite(2); see blowup_flags.
    """
    g = _blowup_step(n, k)  # the term cap, before any exact work
    c = _checked_q(n, k) / math.factorial(k)
    f = RatFuncQ._of(
        PolyQ._of(dict.fromkeys(range(0, n + k, g), c)),
        PolyQ._of(dict.fromkeys(range(0, n, g), Fraction(1))),
    )
    return CosetValue(PiGradedValue({k: f}), blowup_lattice(k))


def blowup_at_weight(n: int, k: int, rho: Fraction) -> Fraction:
    """f_k(rho^2), the pi^k coefficient of the blow-up value at weight rho,
    from its closed form, for the (n, k) that blowup_weinstein admits.
    DigitLimitError, before any power of x = rho^2 is formed, when the
    reduced numerator must exceed the integer string limit."""
    g = _blowup_step(n, k)  # bounds n before the exact work of _checked_q
    require_weight(rho)
    c = _checked_q(n, k, alone=False) / math.factorial(k)  # the weight's factor can cancel den(c)
    x = rho * rho
    # For x = a/b the reduced numerator is at least b^(n+k-g) / den(c).
    require_printable_power(x.denominator, n + k - g, c.denominator)
    return c * (1 - x ** (n + k)) / (1 - x**n)


def blowup_flags(n: int, k: int, order: OrderResult) -> list[str]:
    """Structured flags for the blow-up order report.

    At k = n the computed order is finite although the infinite-order
    statement for lifted classes is asserted for every k in {1, ..., n};
    the computation is reported verbatim and this flag marks the conflict.
    """
    if k == n and order.is_finite:
        return [FINITE_ORDER_AT_TOP_DEGREE]
    return []


# ---------------------------------------------------------------------------
# Cartesian products


# The fields of a descriptor and of one of its classes.
DESCRIPTOR_FIELDS = ("dimension", "trivial_odd_homotopy", "periods", "classes")
CLASS_FIELDS = ("degree", "value")


class DescriptorError(ValueError):
    """Manifold descriptor validation failure, carrying the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname


@dataclass(frozen=True)
class NamedClass:
    """A named morphism value on the descriptor manifold, with its degree.
    Its pi^a components are kept as read, checked but unreduced (num, den)
    pairs, so only a class that a query reads costs a reduction."""

    degree: int
    terms: Mapping[int, tuple[PolyQ, PolyQ]]

    @property
    def value(self) -> PiGradedValue:
        return PiGradedValue.from_terms(self.terms)


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Period data of a closed symplectic manifold of dimension 2m.

    `periods[2j]` lists rational generators of the degree-2j period group
    (as coefficients of pi^0 -- real periods).  `trivial_odd_homotopy` lists
    the odd degrees 2k-1 in which the manifold's homotopy is asserted trivial
    (required for the morphism to be defined).  `classes` optionally names
    known morphism values.
    """

    dimension: int
    trivial_odd_homotopy: frozenset[int]
    periods: Mapping[int, tuple[Fraction, ...]]
    classes: Mapping[str, NamedClass] = field(default_factory=dict)

    @property
    def half_dimension(self) -> int:
        return self.dimension // 2

    def period_lattice(self, k: int) -> Lattice:
        """Degree-2k periods as a lattice of pi^0 generators (empty if none)."""
        return Lattice((p, 0, 0) for p in self.periods.get(2 * k, ()))

    @classmethod
    def read(cls, path: str) -> ManifoldDescriptor:
        """The descriptor in the UTF-8 JSON file at `path`."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh, object_pairs_hook=_distinct_names, parse_int=_descriptor_int)
        except (OSError, UnicodeDecodeError) as exc:  # not a readable UTF-8 file
            raise ValueError(f"cannot read manifold descriptor: {exc}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"manifold descriptor is not valid JSON: {exc}")
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError("manifold descriptor nests arrays or objects too deeply to read")
        return cls.from_json(doc)

    @classmethod
    def from_json(cls, doc: dict) -> ManifoldDescriptor:
        if not isinstance(doc, dict):
            raise DescriptorError("<root>", "descriptor must be a JSON object")
        # A misspelled optional field would be read as absent, and the answer be wrong.
        for name in doc:
            if name not in DESCRIPTOR_FIELDS:
                raise DescriptorError(
                    name, f"unknown field; the known ones are {', '.join(DESCRIPTOR_FIELDS)}"
                )
        dim = doc.get("dimension")
        if not is_json_int(dim) or dim < 2 or dim % 2:
            raise DescriptorError(
                "dimension", f"must be a positive even integer, got {json.dumps(dim)}"
            )

        toh = doc.get("trivial_odd_homotopy", [])
        if not isinstance(toh, list) or not all(
            is_json_int(d) and d >= 1 and d % 2 == 1 for d in toh
        ):
            raise DescriptorError(
                "trivial_odd_homotopy", f"must be a list of odd degrees, got {json.dumps(toh)}"
            )

        periods: dict[int, tuple[Fraction, ...]] = {}
        width = len(str(dim))  # a key with more digits names a degree above dim
        for key, gens in _json_object(doc, "periods").items():
            # ASCII digits with no sign, space, underscore or leading zero: one key per degree.
            plain = key.isascii() and key.isdigit() and len(key) <= width
            degree = int(key) if plain else 0
            if key != str(degree) or degree < 2 or degree % 2 or degree > dim:
                raise DescriptorError(
                    f"periods.{key}",
                    f"key must be an even degree 2 <= d <= {dim} in plain digits,"
                    f" got {json.dumps(key)}",
                )
            if not isinstance(gens, list):
                raise DescriptorError(f"periods.{key}", "generators must be a list")
            parsed = []
            for g in gens:
                try:
                    parsed.append(parse_rational(g))
                except DigitLimitError as exc:
                    raise DescriptorError(f"periods.{key}", str(exc))
                except ValueError:
                    raise DescriptorError(
                        f"periods.{key}",
                        f"period {json.dumps(g)} is not rational; only manifolds with "
                        f"rational period groups are supported",
                    )
                if parsed[-1] == 0:
                    raise DescriptorError(
                        f"periods.{key}", f"period {json.dumps(g)} must be nonzero"
                    )
            periods[degree] = tuple(parsed)

        classes: dict[str, NamedClass] = {}
        for name, entry in _json_object(doc, "classes").items():
            if not isinstance(entry, dict) or "degree" not in entry:
                raise DescriptorError(
                    f"classes.{name}", "must be an object with 'degree' and optionally 'value'"
                )
            for key in entry:
                if key not in CLASS_FIELDS:
                    raise DescriptorError(
                        f"classes.{name}.{key}",
                        f"unknown field; the known ones are {', '.join(CLASS_FIELDS)}",
                    )
            degree = entry["degree"]
            if not is_json_int(degree) or degree < 1 or degree % 2 == 0:
                raise DescriptorError(
                    f"classes.{name}.degree",
                    f"must be a positive odd integer, got {json.dumps(degree)}",
                )
            try:
                terms = json_terms(entry.get("value", []))
            except ValueError as exc:
                raise DescriptorError(f"classes.{name}.value", str(exc))
            classes[name] = NamedClass(degree, terms)

        return cls(dim, frozenset(toh), periods, classes)


def _distinct_names(pairs: list[tuple[str, object]]) -> dict:
    """A descriptor object whose names are distinct: RFC 8259 leaves a
    repeated name undefined, and json.load would keep its last value."""
    seen: set[str] = set()
    for name, _ in pairs:
        if name in seen:
            raise ValueError(
                f"manifold descriptor repeats the name {json.dumps(name)} in one object"
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


def _json_object(doc: dict, fieldname: str) -> dict:
    """The optional field `fieldname` of `doc`, which must be a JSON object."""
    value = doc.get(fieldname, {})
    if not isinstance(value, dict):
        raise DescriptorError(fieldname, f"must be a JSON object, got {json.dumps(value)}")
    return value


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
    """Morphism value of the product class on CP^n x M in degree 2k-1: the
    CP^n value plus the descriptor's class `class_name` (the zero class when
    None), taken against the product period lattice.

    Every rule runs here, in this order: 1 <= k <= n; the descriptor asserts
    trivial homotopy in degree 2k-1; the class exists and lives in that
    degree; k <= m for the descriptor's dimension 2m; the CP^n value, with
    its k! and self-check refusals; and the product lattice contains both
    factor lattices, checked generator by generator.  Only the last two do
    exact work.  The named class is reduced last, after every refusal, and
    no other class of the descriptor is reduced.
    """
    require_within(n, k=k)
    degree = 2 * k - 1
    if degree not in descriptor.trivial_odd_homotopy:
        raise ParameterError(
            f"the descriptor does not assert trivial homotopy in degree 2k-1 = {degree}"
            f" (trivial_odd_homotopy: {sorted(descriptor.trivial_odd_homotopy)})",
            k=k,
        )
    named = NamedClass(degree, {})  # the zero class
    if class_name is not None:
        named = descriptor.classes.get(class_name)
        if named is None:
            raise ValueError(
                f"descriptor has no class named {class_name!r} "
                f"(available: {sorted(descriptor.classes)})"
            )
        if named.degree != degree:
            raise ParameterError(
                f"class {class_name!r} lives in degree {named.degree}, not in 2k-1 = {degree}",
                k=k,
            )
    if k > descriptor.half_dimension:
        bound = f"half the descriptor dimension {descriptor.dimension}"
        raise ParameterError(f"must be <= {descriptor.half_dimension}, {bound}", k=k)
    cv = cpn_weinstein(n, k, alone=False)
    full = product_cpn_lattice(n, k, descriptor)
    for coeff, pi_exp, x_exp in cv.lattice.generators + descriptor.period_lattice(k).generators:
        if not lattice_member(PiGradedValue.monomial(coeff, pi_exp, x_exp), full):
            raise ValueError(
                f"product lattice does not contain the factor generator "
                f"{format_rational(coeff)}*pi^{pi_exp}*x^{x_exp}"
            )
    return CosetValue(cv.value + named.value, full)
