"""Closed-form output checks, written from the formulas alone.

Nothing here imports weincalc: each expected result is rebuilt from the
paper's closed forms with integer and Fraction arithmetic, so a defect in the
program's own helpers cannot hide in its check.  `check(argv, doc)` returns
None when the JSON document is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction


def q_cpn(n: int, k: int) -> Fraction:
    """q(n, k) = n! k! C(2k-1, k) / (n+k)!."""
    return Fraction(
        math.factorial(n) * math.factorial(k) * math.comb(2 * k - 1, k),
        math.factorial(n + k),
    )


def _terms(pairs) -> list[list]:
    return [[e, str(Fraction(c))] for e, c in pairs]


def _component(pi_exp: int, num, den) -> dict:
    return {"pi_exp": pi_exp, "num": _terms(num), "den": _terms(den)}


def _gcd_rational(values: list[Fraction]) -> Fraction:
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(math.gcd(*(abs(v.numerator) * (den // v.denominator) for v in values)), den)


def _lattice(gens: list[tuple[Fraction, int, int]]) -> list[dict]:
    """Generators collapsed to one positive gcd per (pi, x) cell, sorted."""
    cells: dict[tuple[int, int], list[Fraction]] = {}
    for c, a, b in gens:
        cells.setdefault((a, b), []).append(abs(c))
    return [
        {"coeff": str(_gcd_rational(cs)), "pi_exp": a, "x_exp": b}
        for (a, b), cs in sorted(cells.items())
    ]


def _finite(order: int) -> dict:
    return {"kind": "finite", "order": order}


def _expect(doc: dict, field: str, want) -> str | None:
    got = doc.get(field)
    if got != want:
        return f"{field}: expected {_short(want)}, got {_short(got)}"
    return None


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _first_error(*errors: str | None) -> str | None:
    return next((e for e in errors if e), None)


def _opts(argv: list[str]) -> dict[str, str]:
    """--name value pairs of an argv (flags without a value map to "")."""
    out: dict[str, str] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = ""
            i += 1
    return out


def _check_cpn(opts: dict, doc: dict) -> str | None:
    n, k = int(opts["n"]), int(opts["k"])
    q = q_cpn(n, k)
    kf = math.factorial(k)
    return _first_error(
        _expect(doc, "q", str(q)),
        _expect(doc, "multiple_of_pi_k_over_k_factorial", str(q)),
        _expect(doc, "value", [_component(k, [(0, q / kf)], [(0, 1)])]),
        _expect(doc, "lattice", _lattice([(Fraction(1, kf), k, 0)])),
        _expect(doc, "order", _finite(q.denominator)),
        _expect(doc, "nontrivial", q.denominator != 1),
    )


def _check_blowup(opts: dict, doc: dict) -> str | None:
    # f = c (1 - x^(n+k)) / (1 - x^n) with c = q/k!.  Both factors are
    # (1 - x^g) times a geometric sum in x^g, g = gcd(n, k), so the reduced
    # form is c * sum_{j < (n+k)/g} x^(jg) over the monic sum_{j < n/g} x^(jg).
    n, k = int(opts["n"]), int(opts["k"])
    c = q_cpn(n, k) / math.factorial(k)
    g = math.gcd(n, k)
    value = [
        _component(
            k,
            [(j * g, c) for j in range((n + k) // g)],
            [(j * g, 1) for j in range(n // g)],
        )
    ]
    gen = Fraction(1, math.factorial(k))
    errors = [
        _expect(doc, "value", value),
        _expect(doc, "lattice", _lattice([(gen, k, 0), (gen, k, k)])),
    ]
    order = doc.get("order", {})
    if k < n:
        if order.get("kind") != "infinite":
            errors.append(f"order: expected infinite for k < n, got {_short(order)}")
        errors.append(_expect(doc, "flags", []))
    else:
        errors.append(_expect(doc, "order", _finite(2)))
        errors.append(_expect(doc, "flags", ["finite-order-at-k-equals-n"]))
    if "rho" in opts:
        rho = Fraction(opts["rho"])
        x = rho * rho
        coeff = c * (1 - x ** (n + k)) / (1 - x**n)
        at = doc.get("at_rho", {})
        errors.append(_expect(at, "x", str(x)))
        errors.append(_expect(at, "pi_k_coefficient", str(coeff)))
        numeric = float(coeff) * math.pi**k
        if not math.isclose(at.get("value_float", math.nan), numeric, rel_tol=1e-12):
            errors.append(f"at_rho.value_float: expected {numeric!r}")
    return _first_error(*errors)


def _check_product(opts: dict, doc: dict, descriptor: dict) -> str | None:
    # Lattice of CP^n x M in degree 2k: pi^k/k! and pi^(k-j)/(k-j)! * P_2j(M).
    n, k = int(opts["n"]), int(opts["k"])
    q = q_cpn(n, k)
    gens = [(Fraction(1, math.factorial(k)), k, 0)]
    for j in range(1, k + 1):
        for p in descriptor["periods"].get(str(2 * j), []):
            gens.append((Fraction(p) / math.factorial(k - j), k - j, 0))
    value = [_component(k, [(0, q / math.factorial(k))], [(0, 1)])]
    return _first_error(
        _expect(doc, "value", value),
        _expect(doc, "lattice", _lattice(gens)),
        _expect(doc, "order", _finite(q.denominator)),
        _expect(doc, "nontrivial", q.denominator != 1),
    )


def _check_moment(opts: dict, doc: dict) -> str | None:
    # Dirichlet's integral: over the radius-r0 ball in C^n,
    # int (|z_1|^2+...+|z_l|^2)^k = pi^n r0^(2(n+k)) k! C(k+l-1, k) / (n+k)!.
    n, l, k = int(opts["n"]), int(opts["l"]), int(opts["k"])
    r0 = Fraction(opts.get("r0", "1"))
    base = Fraction(math.factorial(k) * math.comb(k + l - 1, k), math.factorial(n + k))
    coeff = r0 ** (2 * (n + k)) * base
    numeric = float(coeff) * math.pi**n
    errors = [
        _expect(doc, "coefficient", str(coeff)),
        _expect(doc, "coefficient_at_r0_1", str(base)),
        _expect(doc, "pi_exp", n),
        _expect(doc, "r0_exp", 2 * (n + k)),
    ]
    if not math.isclose(doc.get("value_float", math.nan), numeric, rel_tol=1e-12):
        errors.append(f"value_float: expected {numeric!r}, got {doc.get('value_float')!r}")
    return _first_error(*errors)


def _check_identity(opts: dict, doc: dict) -> str | None:
    # Diagonal moment sum S(k, k) = 2^k k! C(2k-1, k).
    rows = []
    for k in range(1, int(opts["k-max"]) + 1):
        s = str(2**k * math.factorial(k) * math.comb(2 * k - 1, k))
        rows.append({"k": k, "bruteforce": s, "closed": s, "ok": True})
    return _first_error(_expect(doc, "rows", rows), _expect(doc, "all_ok", True))


def _check_verify(opts: dict, doc: dict) -> str | None:
    checks = doc.get("checks", [])
    failed = [c.get("name") for c in checks if not c.get("passed")]
    if len(checks) != 9 or failed:
        return f"verify: expected 9 passing checks, got {len(checks)} with failures {failed}"
    return None


def check(argv: list[str], doc: dict, descriptor: dict | None = None) -> str | None:
    """None if `doc` (the program's JSON output for `argv`) is correct."""
    command = argv[0]
    opts = _opts(argv)
    error = _first_error(
        _expect(doc, "schema", "weincalc/1"),
        _expect(doc, "command", command),
        _expect(doc, "status", "ok"),
    )
    if error:
        return error
    if command == "cpn":
        return _check_cpn(opts, doc)
    if command == "blowup":
        return _check_blowup(opts, doc)
    if command == "product":
        return _check_product(opts, doc, descriptor or {"periods": {}})
    if command == "moment":
        return _check_moment(opts, doc)
    if command == "identity":
        return _check_identity(opts, doc)
    if command == "verify":
        return _check_verify(opts, doc)
    return f"no oracle for command {command!r}"
