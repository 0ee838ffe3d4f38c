"""Command-line interface.

Every subcommand prints a human-readable report by default and a stable JSON
document with --json; both carry the same numeric content.  Exit codes:
0 success, 1 verification failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial

# `identity`, `moment --mc` and `verify` call `verify`, and the parser reads
# its BASE_SEED as the `--seed` default.  Eager also because perfbench's
# trace_child.install wraps what it finds in sys.modules after
# `from weincalc import cli`, and its setup_s times the whole package.
from . import combinatorics, verify
from .exactarith import format_rational, parse_rational, pi_power
from .morphism import (
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


def _report(args, params: dict, body: dict, lines: list[str], flags=(), ok: bool = True) -> int:
    """Print the JSON document (with --json) or the human lines; return the
    exit code, 0 or 1 for a failed verification."""
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command, "params": params, **body}
        print(json.dumps({**doc, "flags": list(flags), "status": "ok" if ok else "fail"}))
    else:
        print("\n".join(lines))
    return 0 if ok else 1


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
    at_rho = None
    if args.rho is not None:  # refused before the value is built
        rho = parse_rational(args.rho)
        coeff = blowup_at_weight(args.n, args.k, rho)
        pi_k = pi_power(k=args.k)
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
    r0 = parse_rational(args.r0)
    coeff, base_coeff, numeric = combinatorics.ball_moment(args.n, args.l, args.k, r0)
    r0_exp = 2 * (args.n + args.k)
    body = {
        "coefficient": format_rational(coeff),
        "pi_exp": args.n,
        "r0_exp": r0_exp,
        "coefficient_at_r0_1": format_rational(base_coeff),
        "value_float": numeric,
    }
    lines = [
        f"integral over B^{2 * args.n}({format_rational(r0)}) of"
        f" (|z_1|^2+...+|z_{args.l}|^2)^{args.k}",
        f"  exact     = {format_rational(coeff)} * pi^{args.n}   (r0 enters as r0^{r0_exp})",
        f"  numeric   = {numeric!r}",
    ]
    ok = True
    if args.mc:
        est, row = verify.check_moment_mc(
            args.n, args.l, args.k, r0, numeric, args.samples, args.seed
        )
        body["mc"] = {**est.to_json(), "sigma_distance": row["sigma"]}
        ok = row["ok"]
        lines.append(
            f"  mc        = {est.mean!r} +- {est.std_error!r}"
            f"  ({est.samples} samples, seed {est.seed}, {row['sigma']:.2f} sigma)"
        )
    params = {"n": args.n, "l": args.l, "k": args.k, "r0": args.r0}
    return _report(args, params, body, lines, ok=ok)


def _cmd_identity(args) -> int:
    result = verify.check_identity_suite(args.k_max)
    rows, all_ok = result.details["rows"], result.passed
    lines = [f"{'k':>3}  {'bruteforce':>16}  {'closed':>16}  result"]
    lines += [
        f"{r['k']:>3}  {r['bruteforce']:>16}  {r['closed']:>16}  {'pass' if r['ok'] else 'FAIL'}"
        for r in rows
    ]
    body = {"rows": rows, "all_ok": all_ok}
    return _report(args, {"k_max": args.k_max}, body, lines, ok=all_ok)


def _cmd_product(args) -> int:
    descriptor = ManifoldDescriptor.read(args.manifold)
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
    """What a check covered and, if it failed, how many of its rows failed:
    a row whose `ok` (a product row's `nontrivial`) is false, and every entry
    of `failures` and `mismatches`."""
    rows = [row for key in ("spots", "monte_carlo", "rows") for row in details.get(key, [])]
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
    failed = sum(not row.get("ok", row.get("nontrivial", True)) for row in rows)
    failed += len(details.get("failures", ())) + len(details.get("mismatches", ()))
    if failed:
        parts.append(f"{failed} failed")
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
    except ValueError as exc:  # includes DescriptorError, ParameterError and DigitLimitError
        # Each parameter at fault that the query sets is named by its flag and
        # its value as typed, so `--r0 1e400` reads 1e400.
        given = vars(args)
        named = [name for name in getattr(exc, "params", ()) if given.get(name) is not None]
        flags = " ".join(f"--{name.replace('_', '-')} {given[name]}" for name in named)
        print(f"error: {flags}: {exc}" if flags else f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:  # a closed form and its enumeration disagree
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:  # exit 1 means only a failed verification
        if exc.name != "numpy":
            raise
        print(
            f"error: {args.command} needs NumPy"
            " (the runtime dependency numpy>=1.24 is not installed)",
            file=sys.stderr,
        )
        return 2


def entry() -> None:
    # weincalc calls no BLAS routine, yet NumPy's OpenBLAS starts its worker
    # threads when NumPy loads, about 75 ms of CPU per process on a 2-core
    # box.  NumPy loads only later, inside the Monte Carlo calls.  A value the
    # user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry()
