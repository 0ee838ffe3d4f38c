"""Polynomials and rational functions over Q in x = rho^2, pi-graded values,
and period lattices with exact membership and order decision procedures.

Modeling axiom: the monomials pi^a * x^b are treated as linearly independent
over Q.  (pi is transcendental; the blow-up weight rho is assumed
transcendental in (0, 1), and x stands for rho^2.)  Equality of values is
therefore formal equality of coefficients, and membership in a lattice
generated by monomials decomposes into one cyclic-group test per monomial.

Values are added (the sum formula for CP^n x M) and printed, never scaled:
lattice_order reads the order from the coefficients cell by cell.  The
order needs only to know whether each component is a polynomial, so a
RatFuncQ built from a numerator and a denominator, as a named class is,
decides that by one exact division (exact_quotient) and keeps any other
component as given, unreduced.  Every sum has a polynomial side, a
monomial such as the CP^n value, so no sum divides.  No query runs a
polynomial gcd: poly_gcd serves verify's blow-up reference alone.  A
blow-up value shares one large coefficient across all its terms; printing
formats each distinct coefficient once.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .exactarith import (
    DigitLimitError,
    as_typed,
    format_rational,
    parse_rational,
    require_positive,
)


class PolyQ:
    """Sparse univariate polynomial over Q, stored as {exponent: coefficient}.

    No stored coefficient is zero; the zero polynomial is the empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if exp < 0:
                    raise ValueError(f"exponent must be >= 0, got {exp}")
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[int(exp)] = c
        self.terms = clean

    @classmethod
    def _of(cls, terms: dict[int, Fraction]) -> PolyQ:
        """Wrap nonzero Fraction coefficients as they are, unchecked."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def one_minus_x_pow(cls, m: int) -> PolyQ:
        """1 - x^m (the blow-up volume factors are all of this shape)."""
        require_positive(power=m)
        return cls({0: Fraction(1), m: Fraction(-1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return max(self.terms) if self.terms else -1

    def leading_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[self.degree]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: PolyQ) -> PolyQ:
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return PolyQ._of(out)

    def __mul__(self, other: PolyQ | Fraction | int) -> PolyQ:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)  # a zero scalar would store zero coefficients
            return PolyQ._of({e: cc * c for e, cc in self.terms.items()}) if c else PolyQ()
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return PolyQ(out)

    __rmul__ = __mul__

    def __divmod__(self, other: PolyQ) -> tuple[PolyQ, PolyQ]:
        """Euclidean division in Q[x]: self = q*other + r with deg r < deg other."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        quot: dict[int, Fraction] = {}
        rem = dict(self.terms)
        dlead = other.degree
        clead = other.terms[dlead]
        while rem and max(rem) >= dlead:
            e = max(rem)
            factor = rem[e] / clead
            quot[e - dlead] = factor
            for oe, oc in other.terms.items():
                t = e - dlead + oe
                new = rem.get(t, Fraction(0)) - factor * oc
                if new:
                    rem[t] = new
                else:
                    rem.pop(t, None)
        return PolyQ(quot), PolyQ(rem)

    def monic(self) -> PolyQ:
        """Scale so the leading coefficient is 1 (zero stays zero)."""
        if not self.terms:
            return self
        lead = self.leading_coeff()
        return self * (1 / lead)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        fmt = _formatter()
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                parts.append(fmt(c))
            else:
                var = "x" if e == 1 else f"x^{e}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{fmt(c)}*{var}")
        out = [parts[0]]
        for p in parts[1:]:
            out.append(f" - {p[1:]}" if p.startswith("-") else f" + {p}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"PolyQ({self})"


def _formatter():
    """format_rational with a memo for one rendering: each distinct
    coefficient is formatted once.  The key is (numerator, denominator),
    since hashing a Fraction costs a modular inverse of its denominator."""
    memo: dict[tuple[int, int], str] = {}

    def fmt(c: Fraction) -> str:
        key = (c.numerator, c.denominator)
        if key not in memo:
            memo[key] = format_rational(c)
        return memo[key]

    return fmt


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd in Q[x] by the Euclidean algorithm on monic remainders,
    whose coefficients stay far smaller than the raw ones; gcd(0, 0) = 0.
    Only verify's blow-up reference runs it."""
    while b:
        a, b = b, divmod(a, b)[1].monic()
    return a.monic()


def primitive_part(p: PolyQ) -> tuple[Fraction, dict[int, int]]:
    """The content c and the primitive part P of a nonzero p, p = c*P: P has
    integer coefficients with gcd 1 and a positive leading coefficient.  The
    coefficients are reduced, so c = +-gcd(numerators) / lcm(denominators)."""
    coeffs = p.terms.values()
    top = math.gcd(*(c.numerator for c in coeffs))
    bottom = math.lcm(*(c.denominator for c in coeffs))
    if p.leading_coeff() < 0:
        top = -top
    return Fraction(top, bottom), {
        e: c.numerator * (bottom // c.denominator) // top for e, c in p.terms.items()
    }


def exact_quotient(num: PolyQ, den: PolyQ) -> PolyQ | None:
    """num/den when den divides num in Q[x], else None; den is nonzero.

    By Gauss's lemma den | num in Q[x] iff the primitive part B of den
    divides that of num, A, in Z[x], and then the quotient Q lies in Z[x]
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).  So one
    integer long division of A by B decides it, from the top.  It stops at
    the first leading coefficient that lead(B) does not divide, or at the
    first quotient coefficient q_i above C(m, i)*||A||_2, m = deg Q, which
    is Mignotte's bound on a factor of A; neither can happen when B | A.
    Every quotient coefficient is so bounded, and with it the time, which
    the remainders of Euclid over Q are not.
    """
    if not num:
        return PolyQ()
    (ca, a), (cb, b) = primitive_part(num), primitive_part(den)
    da, db = max(a), max(b)
    m, lead, scale = da - db, b.pop(db), ca / cb
    rem = [a.get(e, 0) for e in range(da + 1)]
    norm = math.isqrt(sum(c * c for c in a.values())) + 1  # above ||A||_2
    binom, quot = 1, {}  # binom = C(m, i)
    for i in range(m, -1, -1):  # no step when deg A < deg B
        if rem[i + db]:
            q, left = divmod(rem[i + db], lead)
            if left or abs(q) > binom * norm:
                return None
            quot[i] = q * scale
            for e, c in b.items():
                rem[i + e] -= q * c
        binom = binom * i // (m - i + 1)
    return None if any(rem[:db]) else PolyQ._of(quot)


# The terms of the denominator 1, that of every polynomial RatFuncQ.
_ONE = {0: Fraction(1)}


class RatFuncQ:
    """Rational function num/den over Q with den monic, and den = 1 or den
    not dividing num: is_polynomial is then exact.  It is not reduced, so
    equality compares the stored num and den, as given."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, den: PolyQ):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if den.degree > 0:  # a constant denominator divides every numerator
            quotient = exact_quotient(num, den)
            if quotient is not None:
                num, den = quotient, PolyQ._of(dict(_ONE))
        # Normalize: monic denominator, scale absorbed into the numerator.
        lead = den.leading_coeff()
        if lead != 1:
            scale = 1 / lead
            num, den = num * scale, den * scale
        self.num = num
        self.den = den

    @classmethod
    def _of(cls, num: PolyQ, den: PolyQ) -> RatFuncQ:
        """Wrap a numerator and a monic denominator, 1 or not dividing the
        numerator, unchecked."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @property
    def is_polynomial(self) -> bool:
        return self.den.terms == _ONE

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFuncQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: RatFuncQ) -> RatFuncQ:
        """The sum of a polynomial p and a/b, on either side, which needs no
        division: p + a/b = (a + p b)/b, where b divides a + p b iff it
        divides a, and b stays monic.  Every sum the program forms has a
        polynomial side; two fractions do not add."""
        for p, f in ((self, other), (other, self)):
            if p.is_polynomial:
                scaled = p.num if f.is_polynomial else p.num * f.den
                return RatFuncQ._of(f.num + scaled, f.den)
        return NotImplemented

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFuncQ({self})"


def rational_gcd(values: Iterable[Fraction]) -> Fraction:
    """The positive generator g of the Z-module Z*v_1 + ... + Z*v_r.

    Folded pairwise over the reduced inputs, gcd(a/b, c/d) = gcd(a, c) /
    lcm(b, d), so no numerator is scaled to a common denominator: the
    running numerator only shrinks and the running denominator only grows,
    and each step costs one gcd of it with a small input.  The denominator
    of g is a multiple of the running one, so once that passes the integer
    string limit g can never print, and the fold stops with DigitLimitError,
    naming no parameter: the caller names the input it read.  All inputs
    must be nonzero (an int or a Fraction, each already reduced).
    """
    limit = sys.get_int_max_str_digits()  # 0: no limit
    num, den, cap = 0, 1, None
    for v in values:
        if not v:
            raise ValueError("rational_gcd requires nonzero inputs")
        num = math.gcd(num, v.numerator)
        den = den // math.gcd(den, v.denominator) * v.denominator
        # 10^limit has more than 3 limit bits, so it is formed, once, only
        # for a denominator that long.
        if limit and den.bit_length() > 3 * limit:
            cap = cap or 10**limit
            if den >= cap:
                raise DigitLimitError(
                    f"the lattice generator has a denominator of more than {limit} digits,"
                    f" the integer string limit"
                )
    if not num:
        raise ValueError("rational_gcd of an empty sequence")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# pi-graded values


def is_json_int(value) -> bool:
    """A JSON integer: an int, never a float, string or boolean (JSON true
    and false load as the ints True and False)."""
    return isinstance(value, int) and not isinstance(value, bool)


class FieldError(ValueError):
    """A JSON field refused by its rule: `message` is the rule's text alone and
    `name` the dotted path of the field at fault, or None for the object the
    rule read.  on_field extends the path at each level, up to the root of
    the document; once a field is named, the error prints as `name: message`."""

    def __init__(self, message: str, name: str | None = None):
        super().__init__(message if name is None else f"{name}: {message}")
        self.message = message
        self.name = name


@contextmanager
def on_field(path: str):
    """The one step that names a field: a ValueError raised in the block is
    raised again as a FieldError on the field `path` ("" for the root, named
    <root>), or on the field below `path` that a FieldError already names."""
    try:
        yield
    except ValueError as exc:
        below = exc if isinstance(exc, FieldError) else FieldError(str(exc))
        raise FieldError(below.message, ".".join(filter(None, (path, below.name))) or "<root>")


def json_object(
    value, required: tuple[str, ...] = (), optional: tuple[str, ...] | None = None
) -> dict:
    """`value`, a JSON object that holds every name of `required` and, unless
    `optional` is None, no name outside `required` and `optional`: a
    misspelled optional field would otherwise be read as absent."""
    if not isinstance(value, dict):
        raise FieldError(f"must be a JSON object, got {as_typed(json.dumps(value))}")
    if optional is not None:
        known = required + optional
        for name in value:
            if name not in known:
                known_ones = f"unknown field; the known ones are {', '.join(known)}"
                raise FieldError(known_ones, as_typed(name))
    for name in required:
        if name not in value:
            raise FieldError("required field is missing", name)
    return value


# The largest pi or x exponent a value read from JSON may carry.  It bounds
# the division that decides a component (exact_quotient): at most 1001 steps
# of at most 1001 terms each, on coefficients that Mignotte's bound caps.
MAX_JSON_EXPONENT = 1000


def _json_int(value) -> int:
    """An exponent read from JSON, 0 <= value <= MAX_JSON_EXPONENT."""
    if not is_json_int(value):
        raise ValueError(f"exponent must be an integer, got {as_typed(json.dumps(value))}")
    if value < 0:
        raise ValueError(f"exponent must be >= 0, got {as_typed(value)}")
    if value > MAX_JSON_EXPONENT:
        raise ValueError(f"exponent must be at most {MAX_JSON_EXPONENT}, got {as_typed(value)}")
    return value


def _json_poly(pairs) -> PolyQ:
    """A polynomial read from JSON [exponent, coefficient] pairs; an exponent
    may appear once."""
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError(
            f"terms must be a list of [exponent, coefficient] pairs,"
            f" got {as_typed(json.dumps(pairs))}"
        )
    terms: dict[int, Fraction] = {}
    for e, c in pairs:
        e = _json_int(e)
        if e in terms:
            raise ValueError(f"duplicate term exponent {e}")
        terms[e] = parse_rational(c)
    return PolyQ(terms)


COMPONENT_FIELDS = ("pi_exp", "num", "den")


def json_terms(doc) -> dict[int, tuple[PolyQ, PolyQ]]:
    """The components of a value in the PiGradedValue.to_json shape, as
    pi_exp -> (num, den), each read and checked but none divided.  A
    ValueError names the part that breaks the shape; a component that breaks
    the field rule is a FieldError named by its index."""
    if not isinstance(doc, list):
        raise ValueError(f"must be a list of components, got {as_typed(json.dumps(doc))}")
    terms: dict[int, tuple[PolyQ, PolyQ]] = {}
    for i, entry in enumerate(doc):
        with on_field(str(i)):
            json_object(entry, COMPONENT_FIELDS, ())
        a = _json_int(entry["pi_exp"])
        if a in terms:
            raise ValueError(f"duplicate pi_exp {a}")
        num, den = _json_poly(entry["num"]), _json_poly(entry["den"])
        if not den:
            raise ValueError(f"the den of pi_exp {a} is zero")
        terms[a] = num, den
    return terms


class PiGradedValue:
    """A finite sum  sum_a f_a(x) * pi^a  of rational functions f_a (RatFuncQ).

    Every morphism value and every exact integral in the package is one of
    these; the zero value has no components.
    """

    __slots__ = ("components",)

    def __init__(self, components: Mapping[int, RatFuncQ] | None = None):
        clean: dict[int, RatFuncQ] = {}
        if components:
            for a, f in components.items():
                if a < 0:
                    raise ValueError(f"pi exponent must be >= 0, got {a}")
                if f:
                    clean[int(a)] = f
        self.components = clean

    @classmethod
    def monomial(cls, coeff: Fraction | int, pi_exp: int, x_exp: int = 0) -> PiGradedValue:
        """coeff * pi^pi_exp * x^x_exp, a monomial over 1, a polynomial as
        built: no division runs.  A zero coefficient gives the zero value."""
        if x_exp < 0:
            raise ValueError(f"exponent must be >= 0, got {x_exp}")
        c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        num = PolyQ._of({int(x_exp): c} if c else {})
        return cls({pi_exp: RatFuncQ._of(num, PolyQ._of(dict(_ONE)))})

    def __bool__(self) -> bool:
        return bool(self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiGradedValue):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(frozenset(self.components.items()))

    def __add__(self, other: PiGradedValue) -> PiGradedValue:
        out = dict(self.components)
        for a, f in other.components.items():
            out[a] = out[a] + f if a in out else f
        return PiGradedValue(out)

    def to_json(self) -> list[dict]:
        """Stable JSON shape: per component, term lists [[exp, "p/q"], ...]."""
        fmt = _formatter()
        out = []
        for a in sorted(self.components):
            f = self.components[a]
            out.append(
                {
                    "pi_exp": a,
                    "num": [[e, fmt(f.num.terms[e])] for e in sorted(f.num.terms)],
                    "den": [[e, fmt(f.den.terms[e])] for e in sorted(f.den.terms)],
                }
            )
        return out

    @classmethod
    def from_terms(cls, terms: Mapping[int, tuple[PolyQ, PolyQ]]) -> PiGradedValue:
        """The value sum_a (num_a / den_a) * pi^a, each component decided by
        one exact division (RatFuncQ)."""
        return cls({a: RatFuncQ(num, den) for a, (num, den) in terms.items()})

    def __str__(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for a in sorted(self.components):
            f = self.components[a]
            if a == 0:
                parts.append(f"({f})")
            else:
                pi = "pi" if a == 1 else f"pi^{a}"
                parts.append(f"({f})*{pi}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PiGradedValue({self})"


# ---------------------------------------------------------------------------
# period lattices and the decision procedures


class Lattice:
    """The Z-module spanned by monomial generators coeff * pi^a * x^b.

    Generators sharing a monomial are collapsed eagerly into a single positive
    generator via rational_gcd, so each occupied (pi_exp, x_exp) cell carries a
    cyclic group g*Z and every decision below is one divisibility test per
    cell.  The generator list is canonical: deduplicated, positive, sorted.
    """

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[tuple[Fraction | int, int, int]] = ()):
        cells: dict[tuple[int, int], list[Fraction]] = {}
        for coeff, pi_exp, x_exp in generators:
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c == 0:
                raise ValueError("lattice generator with zero coefficient")
            if pi_exp < 0 or x_exp < 0:
                raise ValueError(
                    f"generator exponents must be >= 0, got ({pi_exp}, {x_exp})"
                )
            cells.setdefault((int(pi_exp), int(x_exp)), []).append(abs(c))
        self.generators = tuple(
            (rational_gcd(coeffs), a, b) for (a, b), coeffs in sorted(cells.items())
        )

    def cell(self, pi_exp: int, x_exp: int) -> Fraction | None:
        """Positive generator at the monomial (pi_exp, x_exp), if occupied."""
        for coeff, a, b in self.generators:
            if (a, b) == (pi_exp, x_exp):
                return coeff
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def to_json(self) -> list[dict]:
        return [
            {"coeff": format_rational(c), "pi_exp": a, "x_exp": b}
            for c, a, b in self.generators
        ]

    def __str__(self) -> str:
        if not self.generators:
            return "<0>"
        gens = []
        for c, a, b in self.generators:
            factors = [] if c == 1 and (a or b) else [format_rational(c)]
            if a:
                factors.append("pi" if a == 1 else f"pi^{a}")
            if b:
                factors.append("x" if b == 1 else f"x^{b}")
            gens.append("*".join(factors) if factors else "1")
        return "<" + ", ".join(gens) + ">"

    def __repr__(self) -> str:
        return f"Lattice({self})"


class OrderResult(NamedTuple):
    """Order of a value in R / lattice: Finite(order) or Infinite (order None).

    For infinite order, `witness` names the obstruction (a non-polynomial
    component or a monomial outside the lattice support).
    """

    order: int | None
    witness: str | None = None

    @classmethod
    def finite(cls, m: int) -> OrderResult:
        return cls(order=m)

    @classmethod
    def infinite(cls, witness: str) -> OrderResult:
        return cls(order=None, witness=witness)

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    @property
    def nontrivial(self) -> bool:
        """The verdict on the value: not Finite(1), so outside the lattice."""
        return self.order != 1

    def to_json(self) -> dict:
        if self.is_finite:
            return {"kind": "finite", "order": self.order}
        return {"kind": "infinite", "witness": self.witness}

    def __str__(self) -> str:
        if self.is_finite:
            return f"Finite({self.order})"
        return f"Infinite ({self.witness})"


def lattice_order(value: PiGradedValue, lattice: Lattice) -> OrderResult:
    """Minimal m >= 1 with m*value in the lattice, or Infinite.

    By the independence axiom a value lies in the lattice iff, monomial by
    monomial, its coefficient is an integer multiple of the cell generator.
    A non-polynomial component or an unsupported monomial can never be
    cleared by an integer multiple, hence infinite order; otherwise the order
    is the lcm of the denominators of coefficient/generator per cell.
    """
    m = 1
    for a in sorted(value.components):
        f = value.components[a]
        if not f.is_polynomial:
            return OrderResult.infinite(
                f"pi^{a} component has a denominator of degree {f.den.degree}"
                f" with {len(f.den.terms)} terms that does not divide its numerator"
            )
        for b in sorted(f.num.terms):
            g = lattice.cell(a, b)
            if g is None:
                return OrderResult.infinite(
                    f"monomial pi^{a}*x^{b} is outside the lattice support"
                )
            m = math.lcm(m, (f.num.terms[b] / g).denominator)
    return OrderResult.finite(m)


def lattice_member(value: PiGradedValue, lattice: Lattice) -> bool:
    """True iff value is an integer combination of the lattice generators."""
    return not lattice_order(value, lattice).nontrivial
