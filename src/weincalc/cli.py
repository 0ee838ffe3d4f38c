"""Command-line interface.

Every subcommand prints a human-readable report by default and a stable JSON
document with --json; both carry the same numeric content.  Exit codes:
0 success, 1 verification failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import combinatorics, verify
from .exactarith import (
    DigitLimitError,
    factorial,
    format_rational,
    parse_rational,
    require_degree,
    require_moment,
    require_radius,
    require_weight,
    times_power,
)
from .montecarlo import mc_ball_moment
from .morphism import (
    RAW_CHECK_MAX_K,
    ManifoldDescriptor,
    SelfCheckError,
    blowup_at_weight,
    blowup_flags,
    blowup_weinstein,
    cpn_weinstein,
    product_value,
)
from .symbolic import OrderResult

SCHEMA = "weincalc/1"

# Upper bound on `moment --mc` work, samples * n: each sample draws 2n
# normals, so the time grows about linearly in samples * n.  It admits
# 10^8 samples at n = 3, 14 s of Monte Carlo (7.3 million samples per second
# on a 2-core x86-64 box), and every sample count up to 10^8 at n <= 3.
# Memory does not grow with it: at any n a Monte Carlo chunk holds at most
# 2 * montecarlo.CHUNK_SIZE normals, then one buffer of at most
# montecarlo.CHUNK_SIZE partial moduli and the powers of one column.
MAX_MC_WORK = 3 * 10**8

# Upper bound on the terms of the reduced blow-up value, numerator and
# denominator together: (n+k)/g + n/g with g = gcd(n, k).  The digit limit
# bounds the coefficient at large k but never bites at small k, where the
# time and the output grow with the term count alone.  The cap admits every
# k = n-1 query that the digit limit admits (the largest is n = 1558, 4673
# terms, about 0.23 s and 27 MB of JSON in process on a 2-core x86-64 box).
MAX_BLOWUP_TERMS = 5000


def _report(args, params: dict, body: dict, lines: list[str], flags=(), ok: bool = True) -> int:
    """Print the JSON document (with --json) or the human lines; return the
    exit code, 0 or 1 for a failed verification."""
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command, "params": params, **body}
        print(json.dumps({**doc, "flags": list(flags), "status": "ok" if ok else "fail"}))
    else:
        print("\n".join(lines))
    return 0 if ok else 1


def _times_pi_power(coeff: Fraction, pi_power: float) -> float:
    """float(coeff) * pi_power, bit for bit wherever both are normal floats,
    with the binary exponent of coeff split off so that a coefficient below
    the float range still gives a normal product.  OverflowError above it."""
    num, den = coeff.numerator, coeff.denominator
    e = num.bit_length() - den.bit_length() + 1
    mantissa = (num << max(-e, 0)) / (den << max(e, 0))  # in (1/4, 1): no overflow
    return math.ldexp(mantissa * pi_power, e)


def _cmd_cpn(args) -> int:
    cv = cpn_weinstein(args.n, args.k)
    generator = cv.lattice.generators[0][0]  # q is the value over pi^k/k!
    q = format_rational(cv.value.components[args.k].num.terms[0] / generator)
    order = cv.order()
    nontrivial = order != OrderResult.finite(1)
    body = {
        "q": q,
        "value": cv.value.to_json(),
        "multiple_of_pi_k_over_k_factorial": q,
        "lattice": cv.lattice.to_json(),
        "order": order.to_json(),
        "nontrivial": nontrivial,
    }
    lines = [
        f"CP^{args.n}, degree 2k-1 = {2 * args.k - 1}",
        f"  value     = {cv.value}  (that is, {q} * pi^{args.k}/{args.k}!)",
        f"  lattice   = {cv.lattice}",
        f"  q         = {q}",
        f"  order     = {order}",
        f"  verdict   = {'nontrivial' if nontrivial else 'trivial'}",
    ]
    return _report(args, {"n": args.n, "k": args.k}, body, lines)


def _cmd_blowup(args) -> int:
    require_degree(args.n, args.k)
    g = math.gcd(args.n, args.k)
    terms = (args.n + args.k) // g + args.n // g
    if terms > MAX_BLOWUP_TERMS:
        raise ValueError(
            f"--n {args.n} --k {args.k}: the reduced value has {terms} terms,"
            f" more than {MAX_BLOWUP_TERMS}"
        )
    at_rho = None
    if args.rho is not None:  # refused before the value is built
        rho = parse_rational(args.rho)
        require_weight(rho)
        try:
            pi_k = math.pi**args.k
        except OverflowError:
            raise ValueError(
                f"--k {args.k}: the value at --rho exceeds the float range"
                f" (pi enters as pi^{args.k})"
            ) from None
        coeff = blowup_at_weight(args.n, args.k, rho)
        at_rho = {
            "rho": format_rational(rho),
            "x": format_rational(rho * rho),
            "pi_k_coefficient": format_rational(coeff),
            "value_float": float(coeff) * pi_k,
        }
    cv = blowup_weinstein(args.n, args.k)
    order = cv.order()
    flags = blowup_flags(args.n, args.k, order)
    f = cv.value.components[args.k]
    weight_function = str(f)  # megabytes at large n: format it once
    multiple = f * factorial(args.k)
    body = {
        "value": cv.value.to_json(),
        "weight_function": weight_function,
        "multiple_of_pi_k_over_k_factorial": str(multiple),
        "lattice": cv.lattice.to_json(),
        "order": order.to_json(),
    }
    lines = [
        f"Blow-up of CP^{args.n}, degree 2k-1 = {2 * args.k - 1}  (x stands for rho^2)",
        f"  value     = ({weight_function}) * pi^{args.k}",
        f"  lattice   = {cv.lattice}",
        f"  order     = {order}",
    ]
    if flags:
        lines.append(
            f"  flag      = {flags[0]}: computed order is finite at k = n; the"
            f" infinite-order statement for lifted classes does not hold here"
        )
    if at_rho is not None:
        body["at_rho"] = at_rho
        lines.append(
            f"  at rho={at_rho['rho']}: value = {at_rho['pi_k_coefficient']} * pi^{args.k}"
            f" = {at_rho['value_float']!r}"
        )
    return _report(args, {"n": args.n, "k": args.k, "rho": args.rho}, body, lines, flags)


def _cmd_moment(args) -> int:
    if args.mc and args.samples < 2:  # one sample has no standard error
        raise ValueError(f"--samples {args.samples}: must be >= 2 with --mc")
    r0 = parse_rational(args.r0)
    require_moment(args.n, args.l, args.k)
    require_radius(r0)
    if args.mc and args.samples * args.n > MAX_MC_WORK:
        raise ValueError(
            f"--samples {args.samples} --n {args.n}: samples * n must be <= {MAX_MC_WORK}"
        )
    try:  # before the exact coefficient, whose size grows with n
        pi_n = math.pi**args.n
    except OverflowError:
        raise ValueError(
            f"--n {args.n}: the moment exceeds the float range (pi enters as pi^{args.n})"
        ) from None
    base_coeff, pi_exp = combinatorics.ball_moment_exact(args.n, args.l, args.k)
    r0_exp = 2 * (args.n + args.k)
    coeff = times_power(base_coeff, r0, r0_exp)
    try:
        numeric = _times_pi_power(coeff, pi_n)
    except OverflowError:
        # At r0 = 1 the coefficient is below 1, so only r0 can overflow the value.
        raise ValueError(
            f"--r0 {args.r0}: the moment exceeds the float range"
            f" (r0 enters as r0^{r0_exp})"
        ) from None
    body = {
        "coefficient": format_rational(coeff),
        "pi_exp": pi_exp,
        "r0_exp": r0_exp,
        "coefficient_at_r0_1": format_rational(base_coeff),
        "value_float": numeric,
    }
    lines = [
        f"integral over B^{2 * args.n}({format_rational(r0)}) of"
        f" (|z_1|^2+...+|z_{args.l}|^2)^{args.k}",
        f"  exact     = {format_rational(coeff)} * pi^{pi_exp}   (r0 enters as r0^{r0_exp})",
        f"  numeric   = {numeric!r}",
    ]
    ok = True
    if args.mc:
        try:
            (est,) = mc_ball_moment(
                args.n, [(args.l, args.k)], float(r0), args.samples, args.seed
            )
        except OverflowError:  # the float ball volume pi^n r0^(2n)/n!
            raise ValueError(
                f"--n {args.n} --r0 {args.r0}: the Monte Carlo ball volume overflows a float"
            ) from None
        row = verify.mc_row({}, est, numeric)
        body["mc"] = {**est.to_json(), "sigma_distance": row["sigma"]}
        ok = row["ok"]
        lines.append(
            f"  mc        = {est.mean!r} +- {est.std_error!r}"
            f"  ({est.samples} samples, seed {est.seed}, {row['sigma']:.2f} sigma)"
        )
    params = {"n": args.n, "l": args.l, "k": args.k, "r0": args.r0}
    return _report(args, params, body, lines, ok=ok)


def _cmd_identity(args) -> int:
    if args.k_max > RAW_CHECK_MAX_K:
        raise ValueError(
            f"--k-max {args.k_max}: must be <= {RAW_CHECK_MAX_K} (the brute-force budget)"
        )
    rows = combinatorics.verify_diagonal_identity(args.k_max)
    all_ok = all(row["ok"] for row in rows)
    lines = [f"{'k':>3}  {'bruteforce':>16}  {'closed':>16}  result"]
    lines += [
        f"{r['k']:>3}  {r['bruteforce']:>16}  {r['closed']:>16}  {'pass' if r['ok'] else 'FAIL'}"
        for r in rows
    ]
    body = {"rows": rows, "all_ok": all_ok}
    return _report(args, {"k_max": args.k_max}, body, lines, ok=all_ok)


def _cmd_product(args) -> int:
    try:
        with open(args.manifold, encoding="utf-8") as fh:
            descriptor_doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read manifold descriptor: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifold descriptor is not valid JSON: {exc}")
    descriptor = ManifoldDescriptor.from_json(descriptor_doc)
    product = product_value(args.n, args.k, descriptor, args.class_name)
    order = product.order()
    nontrivial = order != OrderResult.finite(1)
    body = {
        "value": product.value.to_json(),
        "lattice": product.lattice.to_json(),
        "order": order.to_json(),
        "nontrivial": nontrivial,
    }
    lines = [
        f"CP^{args.n} x M (descriptor {args.manifold}), degree {2 * args.k - 1}",
        f"  value     = {product.value}",
        f"  lattice   = {product.lattice}",
        f"  order     = {order}",
        f"  verdict   = {'nontrivial' if nontrivial else 'trivial'}",
    ]
    params = {"n": args.n, "k": args.k, "manifold": args.manifold, "class": args.class_name}
    return _report(args, params, body, lines)


def _check_summary(details: dict) -> str:
    rows = [
        row
        for key in ("monte_carlo", "rows")
        for row in details.get(key, [])
        if isinstance(row, dict)
    ]
    sigmas = [row["sigma"] for row in rows if "sigma" in row]
    parts = []
    if "rows" in details and not sigmas:
        parts.append(f"{len(details['rows'])} cases")
    if "pairs" in details:
        parts.append(f"{details['pairs']} pairs")
    if "instances" in details:
        parts.append(f"{details['instances']} instances, bound {details['bound']}")
    if "samples" in details:
        parts.append(f"{details['samples']} samples")
    if sigmas:
        parts.append(f"max {max(sigmas):.2f} sigma over {len(sigmas)} estimates")
    if "mismatches" in details and details["mismatches"]:
        parts.append(f"{len(details['mismatches'])} mismatches")
    refused = sum("error" in row for row in rows)
    if refused:
        parts.append(f"{refused} refused by the self-check")
    return ", ".join(parts)


def _cmd_verify(args) -> int:
    results = verify.run_all(quick=args.quick)
    all_ok = all(r.passed for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:22s} {_check_summary(r.details)}".rstrip()
        for r in results
    ]
    lines.append(
        f"{'all checks passed' if all_ok else 'VERIFICATION FAILED'}"
        f" ({sum(r.passed for r in results)}/{len(results)})"
    )
    body = {"checks": [r.to_json() for r in results]}
    return _report(args, {"quick": args.quick}, body, lines, ok=all_ok)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weinstein-calc",
        description="Exact Weinstein-morphism calculator with Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cpn", help="morphism value on CP^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cpn)

    p = sub.add_parser("blowup", help="morphism value on the blow-up of CP^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=str, default=None, help="weight in (0,1), as p/q or decimal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("moment", help="exact ball moment integral, optionally MC-checked")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r0", type=str, default="1", help="radius, as p/q or decimal")
    p.add_argument("--mc", action="store_true")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=verify.BASE_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("identity", help="diagonal moment-sum identity table")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("product", help="morphism value on CP^n x M from a descriptor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--manifold", type=str, required=True, help="descriptor JSON file")
    p.add_argument("--class", dest="class_name", type=str, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes DescriptorError and DigitLimitError
        if isinstance(exc, DigitLimitError):
            given = vars(args)  # the size flags of this subcommand that are set
            flags = [key for key in ("n", "l", "k", "r0", "rho") if given.get(key) is not None]
            sizes = [f"--{key} {given[key]}" for key in flags]
            exc = f"{' '.join(sizes)}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:  # a closed form and its enumeration disagree
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
