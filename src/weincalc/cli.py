"""Command-line interface.

Every subcommand prints a human-readable report by default and a stable JSON
document with --json; both carry the same numeric content.  Exit codes:
0 success, 1 verification failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# Every submodule loads on first use (see the package's __init__), so the
# commands reach them through their module objects at call time: identity
# and exact moment run no other, and moment --mc adds montecarlo alone.
from . import combinatorics, montecarlo, morphism
from .exactarith import (
    as_typed,
    format_rational,
    parse_integer,
    parse_rational,
    pi_power,
)

SCHEMA = "weincalc/1"


def _report(args, params: dict, body: dict, lines: list[str], flags=(), ok: bool = True) -> int:
    """Print the JSON document (with --json) or the human lines, the one
    write of every command; return the exit code, 0 or 1 for a failed
    verification.  A reader that has closed the pipe changes neither: the
    BrokenPipeError of the write is caught here, so no caller of main sees
    it."""
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command, "params": params, **body}
        text = json.dumps({**doc, "flags": list(flags), "status": "ok" if ok else "fail"})
    else:
        text = "\n".join(lines)
    try:
        print(text)
    except BrokenPipeError:
        _discard_stdout()
    return 0 if ok else 1


def _discard_stdout() -> None:
    """Point fd 1 at os.devnull once the reader has closed the pipe
    (`weinstein-calc verify --json | head -c 10`), so that what is still
    buffered, flushed again at exit, writes no BrokenPipeError to stderr."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _cmd_cpn(args) -> int:
    cv = morphism.cpn_weinstein(args.n, args.k)
    generator = cv.lattice.generators[0][0]  # q is the value over pi^k/k!
    q = format_rational(cv.value.components[args.k].num.terms[0] / generator)
    body = {
        "q": q,
        "value": cv.value.to_json(),
        "multiple_of_pi_k_over_k_factorial": q,
        "lattice": cv.lattice.to_json(),
        "order": cv.order.to_json(),
        "nontrivial": cv.order.nontrivial,
    }
    lines = [
        f"CP^{args.n}, degree 2k-1 = {2 * args.k - 1}",
        f"  value     = {cv.value}  (that is, {q} * pi^{args.k}/{args.k}!)",
        f"  lattice   = {cv.lattice}",
        f"  q         = {q}",
        f"  order     = {cv.order}",
        f"  verdict   = {'nontrivial' if cv.order.nontrivial else 'trivial'}",
    ]
    return _report(args, {"n": args.n, "k": args.k}, body, lines)


def _cmd_blowup(args) -> int:
    at_rho = None
    if args.rho is not None:  # refused before the value is built
        rho = parse_rational(args.rho, "rho")
        coeff = morphism.blowup_at_weight(args.n, args.k, rho)
        pi_k = pi_power(k=args.k)
        at_rho = {
            "rho": format_rational(rho),
            "x": format_rational(rho * rho),
            "pi_k_coefficient": format_rational(coeff),
            "value_float": float(coeff) * pi_k,
        }
    cv = morphism.blowup_weinstein(args.n, args.k)
    params = {"n": args.n, "k": args.k, "rho": args.rho}
    # The value prints megabytes at large n, so each report builds only its
    # own rendering of it: the JSON `value` or the human weight function.
    if not args.json:
        return _report(args, params, {}, _blowup_lines(args, cv, at_rho), cv.flags)
    body = {
        "value": cv.value.to_json(),
        "lattice": cv.lattice.to_json(),
        "order": cv.order.to_json(),
    }
    if at_rho is not None:
        body["at_rho"] = at_rho
    return _report(args, params, body, [], cv.flags)


def _blowup_lines(args, cv, at_rho: dict | None) -> list[str]:
    lines = [
        f"Blow-up of CP^{args.n}, degree 2k-1 = {2 * args.k - 1}  (x stands for rho^2)",
        f"  value     = ({cv.value.components[args.k]}) * pi^{args.k}",
        f"  lattice   = {cv.lattice}",
        f"  order     = {cv.order}",
    ]
    if cv.flags:
        lines.append(
            f"  flag      = {cv.flags[0]}: computed order is finite at k = n; the"
            f" infinite-order statement for lifted classes does not hold here"
        )
    if at_rho is not None:
        lines.append(
            f"  at rho={at_rho['rho']}: value = {at_rho['pi_k_coefficient']} * pi^{args.k}"
            f" = {at_rho['value_float']!r}"
        )
    return lines


def _cmd_moment(args) -> int:
    r0 = parse_rational(args.r0, "r0")
    coeff, base_coeff, numeric = combinatorics.ball_moment(args.n, args.l, args.k, r0)
    r0_exp = 2 * (args.n + args.k)
    body = {
        "coefficient": format_rational(coeff),
        "pi_exp": args.n,
        "r0_exp": r0_exp,
        "coefficient_at_r0_1": format_rational(base_coeff),
        "value_float": numeric,
    }
    moduli = "|z_1|^2" if args.l == 1 else f"|z_1|^2+...+|z_{args.l}|^2"
    lines = [
        f"integral over B^{2 * args.n}({format_rational(r0)}) of ({moduli})^{args.k}",
        f"  exact     = {format_rational(coeff)} * pi^{args.n}   (r0 enters as r0^{r0_exp})",
        f"  numeric   = {numeric!r}",
    ]
    ok = True
    if args.mc:
        seed = montecarlo.BASE_SEED if args.seed is None else args.seed
        est, row = montecarlo.check_moment_mc(
            args.n, args.l, args.k, r0, numeric, args.samples, seed
        )
        body["mc"] = {**est.to_json(), "band_distance": row["band_distance"]}
        ok = row["ok"]
        lines.append(
            f"  mc        = {est.mean!r} +- {est.band!r}"
            f"  ({est.samples} samples, seed {est.seed}, {row['band_distance']:.2f} of its band)"
        )
    params = {"n": args.n, "l": args.l, "k": args.k, "r0": args.r0}
    return _report(args, params, body, lines, ok=ok)


def _cmd_identity(args) -> int:
    rows = combinatorics.identity_rows(args.k_max)
    # verify's identity-suite passes on these rows when none of them failed.
    all_ok = all(r["ok"] for r in rows)
    lines = [f"{'k':>3}  {'bruteforce':>16}  {'closed':>16}  result"]
    lines += [
        f"{r['k']:>3}  {r['bruteforce']:>16}  {r['closed']:>16}  {'pass' if r['ok'] else 'FAIL'}"
        for r in rows
    ]
    body = {"rows": rows, "all_ok": all_ok}
    return _report(args, {"k_max": args.k_max}, body, lines, ok=all_ok)


def _cmd_product(args) -> int:
    descriptor = morphism.ManifoldDescriptor.read(args.manifold)
    cv = morphism.product_value(args.n, args.k, descriptor, args.class_name)
    body = {
        "value": cv.value.to_json(),
        "lattice": cv.lattice.to_json(),
        "order": cv.order.to_json(),
        "nontrivial": cv.order.nontrivial,
    }
    lines = [
        f"CP^{args.n} x M (descriptor {args.manifold}), degree {2 * args.k - 1}",
        f"  value     = {cv.value}",
        f"  lattice   = {cv.lattice}",
        f"  order     = {cv.order}",
        f"  verdict   = {'nontrivial' if cv.order.nontrivial else 'trivial'}",
    ]
    params = {"n": args.n, "k": args.k, "manifold": args.manifold, "class": args.class_name}
    return _report(args, params, body, lines)


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(quick=args.quick)
    all_ok = all(r.passed for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:22s} {r.summary()}".rstrip()
        for r in results
    ]
    lines.append(
        f"{'all checks passed' if all_ok else 'VERIFICATION FAILED'}"
        f" ({sum(r.passed for r in results)}/{len(results)})"
    )
    body = {"checks": [r.to_json() for r in results]}
    return _report(args, {"quick": args.quick}, body, lines, ok=all_ok)


class _Parser(argparse.ArgumentParser):
    """The parser of the command line and, through add_subparsers, of each
    command.  Its own usage errors show each argument it read by as_typed,
    so that `invalid choice` or `unrecognized arguments` never echoes a
    megabyte of input."""

    def parse_known_args(self, args=None, namespace=None):
        self.given = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self.given, namespace)

    def error(self, message: str):
        for token in self.given:
            # argparse quotes some arguments by repr, and the value of
            # `--json=<text>` alone.
            for text in (token, token.partition("=")[2]):
                if as_typed(text) != text:
                    message = message.replace(repr(text), repr(as_typed(text)))
                    message = message.replace(text, as_typed(text))
        super().error(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weinstein-calc",
        description="Exact Weinstein-morphism calculator with Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *sizes: str) -> argparse.ArgumentParser:
        """The subcommand `name`, with a required integer flag per size."""
        p = sub.add_parser(name, help=summary)
        for size in sizes:
            p.add_argument(f"--{size}", required=True)
        p.set_defaults(func=func)
        return p

    command("cpn", _cmd_cpn, "morphism value on CP^n", "n", "k")
    p = command("blowup", _cmd_blowup, "morphism value on the blow-up of CP^n", "n", "k")
    p.add_argument("--rho", type=str, default=None, help="weight in (0,1), as p/q or decimal")
    p = command("moment", _cmd_moment, "exact ball moment integral, optionally MC-checked",
                "n", "l", "k")
    p.add_argument("--r0", type=str, default="1", help="radius, as p/q or decimal")
    p.add_argument("--mc", action="store_true")
    p.add_argument("--samples", default=10**6)
    p.add_argument("--seed", default=None)  # None: montecarlo.BASE_SEED
    command("identity", _cmd_identity, "diagonal moment-sum identity table", "k-max")
    p = command("product", _cmd_product, "morphism value on CP^n x M from a descriptor", "n", "k")
    p.add_argument("--manifold", type=str, required=True, help="descriptor JSON file")
    p.add_argument("--class", dest="class_name", type=str, default=None)
    p = command("verify", _cmd_verify, "run the self-verification suite")
    p.add_argument("--quick", action="store_true")
    for p in sub.choices.values():  # --json comes last in every command
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name in ("n", "l", "k", "k_max", "samples", "seed"):  # the integer flags
            if getattr(args, name, None) is not None:
                setattr(args, name, parse_integer(getattr(args, name), name))
        return args.func(args)
    except ValueError as exc:  # includes FieldError, ParameterError and DigitLimitError
        return _refuse(exc, vars(args))
    except morphism.SelfCheckError as exc:  # a closed form and its enumeration disagree
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:  # exit 1 means only a failed verification
        if exc.name != "numpy":
            raise
        missing = "the runtime dependency numpy>=1.24 is not installed"
        return _refuse(ValueError(f"{args.command} needs NumPy ({missing})"), {})


def _refuse(exc: ValueError, given: dict) -> int:
    """Print the refusal, the one writer of the program's own exit-2
    messages; return exit code 2.  Each parameter at fault that the query
    sets is named by its flag and its value as typed, so `--r0 1e400` reads
    1e400."""
    named = [name for name in getattr(exc, "params", ()) if given.get(name) is not None]
    flags = " ".join(f"--{name.replace('_', '-')} {as_typed(given[name])}" for name in named)
    print(f"error: {flags}: {exc}" if flags else f"error: {exc}", file=sys.stderr)
    return 2


def entry() -> None:
    # weincalc calls no BLAS routine, yet NumPy's OpenBLAS starts its worker
    # threads when NumPy loads, about 65 ms of CPU per process on a 2-core
    # box.  NumPy loads only later, inside the Monte Carlo calls.  A value the
    # user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # numpy.random imports `secrets`, whose `hmac` and `hashlib` load
    # OpenSSL's libcrypto through `_hashlib`: about 3.3 MB resident and 2-3 ms
    # of import per NumPy process (same box), for hashes that weincalc never
    # computes, every generator being seeded with an integer.  Blocked, the
    # three modules fall back to CPython's builtin implementations, as on a
    # build without OpenSSL.  A `_hashlib` already loaded wins.
    sys.modules.setdefault("_hashlib", None)
    # What is alive now, and after the command, lives until the process
    # exits, so no collection need walk it: frozen, the import heap is
    # skipped by the full collections of the run and, with NumPy's heap, by
    # the interpreter's collections at shutdown.  Unfrozen, each full
    # collection after `verify --quick` walks about 22k objects in 5-10 ms
    # (2-core x86-64 box, CPython 3.11); frozen, it takes under 0.01 ms.
    gc.freeze()
    try:
        code = main()
        gc.freeze()
    finally:  # argparse's --help and usage errors exit inside main
        try:  # what _report printed, or --help, may sit in the buffer
            sys.stdout.flush()
        except BrokenPipeError:
            _discard_stdout()
    sys.exit(code)


if __name__ == "__main__":
    entry()
