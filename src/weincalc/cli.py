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
# and exact moment never run morphism, symbolic, montecarlo or verify.
from . import combinatorics, morphism, verify
from .exactarith import DigitLimitError, format_rational, parse_integer, parse_rational, pi_power

SCHEMA = "weincalc/1"

# The characters of an over-long flag value that a refusal shows.
SHOWN_PREFIX = 20


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
    body = {
        "value": cv.value.to_json(),
        "lattice": cv.lattice.to_json(),
        "order": cv.order.to_json(),
    }
    if at_rho is not None:
        body["at_rho"] = at_rho
    # The value prints megabytes at large n: --json writes it once, as
    # `value`, and only the human report formats it as a weight function.
    lines = [] if args.json else _blowup_lines(args, cv, at_rho)
    return _report(args, {"n": args.n, "k": args.k, "rho": args.rho}, body, lines, cv.flags)


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
    lines = [
        f"integral over B^{2 * args.n}({format_rational(r0)}) of"
        f" (|z_1|^2+...+|z_{args.l}|^2)^{args.k}",
        f"  exact     = {format_rational(coeff)} * pi^{args.n}   (r0 enters as r0^{r0_exp})",
        f"  numeric   = {numeric!r}",
    ]
    ok = True
    if args.mc:
        seed = verify.BASE_SEED if args.seed is None else args.seed
        est, row = verify.check_moment_mc(
            args.n, args.l, args.k, r0, numeric, args.samples, seed
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weinstein-calc",
        description="Exact Weinstein-morphism calculator with Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *sizes: str) -> argparse.ArgumentParser:
        """The subcommand `name`, with a required integer flag per size."""
        p = sub.add_parser(name, help=summary)
        for size in sizes:
            p.add_argument(f"--{size}", type=_integer(size), required=True)
        p.set_defaults(func=func)
        return p

    command("cpn", _cmd_cpn, "morphism value on CP^n", "n", "k")
    p = command("blowup", _cmd_blowup, "morphism value on the blow-up of CP^n", "n", "k")
    p.add_argument("--rho", type=str, default=None, help="weight in (0,1), as p/q or decimal")
    p = command("moment", _cmd_moment, "exact ball moment integral, optionally MC-checked",
                "n", "l", "k")
    p.add_argument("--r0", type=str, default="1", help="radius, as p/q or decimal")
    p.add_argument("--mc", action="store_true")
    p.add_argument("--samples", type=_integer("samples"), default=10**6)
    p.add_argument("--seed", type=_integer("seed"), default=None)  # None: verify.BASE_SEED
    command("identity", _cmd_identity, "diagonal moment-sum identity table", "k-max")
    p = command("product", _cmd_product, "morphism value on CP^n x M from a descriptor", "n", "k")
    p.add_argument("--manifold", type=str, required=True, help="descriptor JSON file")
    p.add_argument("--class", dest="class_name", type=str, default=None)
    p = command("verify", _cmd_verify, "run the self-verification suite")
    p.add_argument("--quick", action="store_true")
    for p in sub.choices.values():  # --json comes last in every command
        p.add_argument("--json", action="store_true")
    return parser


class _FlagRefused(Exception):
    """A flag value refused while argparse reads it.  It is no ValueError,
    which argparse would report as an invalid value, echoing the literal
    whole."""

    def __init__(self, error: DigitLimitError):
        super().__init__(error)
        self.error = error


def _integer(flag: str):
    """The type of the integer flag `--flag`: a literal longer than the
    integer string limit is refused as an input, like one of --rho."""
    name = flag.replace("-", "_")

    def read(text: str) -> int:
        try:
            return parse_integer(text, name)
        except DigitLimitError as exc:
            raise _FlagRefused(exc) from None

    read.__name__ = "int"  # other text stays argparse's "invalid int value"
    return read


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _FlagRefused as exc:
        return _refuse(exc.error, exc.error.params)
    try:
        return args.func(args)
    except ValueError as exc:  # includes FieldError, ParameterError and DigitLimitError
        return _refuse(exc, vars(args))
    except morphism.SelfCheckError as exc:  # a closed form and its enumeration disagree
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


def _refuse(exc: ValueError, given: dict) -> int:
    """Print the refusal; return exit code 2.  Each parameter at fault that
    the query sets is named by its flag and its value as typed, so
    `--r0 1e400` reads 1e400."""
    named = [name for name in getattr(exc, "params", ()) if given.get(name) is not None]
    flags = " ".join(f"--{name.replace('_', '-')} {_as_typed(given[name])}" for name in named)
    print(f"error: {flags}: {exc}" if flags else f"error: {exc}", file=sys.stderr)
    return 2


def _as_typed(value) -> str:
    """A flag value as typed, or its first SHOWN_PREFIX characters when it is
    longer than the integer string limit, which only a literal too long to
    read can be: its refusal gives the digit count instead."""
    text = str(value)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    return f"{text[:SHOWN_PREFIX]}..." if limit and len(text) > limit else text


class _Stdout:
    """sys.stdout for the console script.  Once the reader has closed the
    pipe (`weinstein-calc verify --json | head -c 10`), the rest of the
    output goes to os.devnull: the command still finishes and exits with its
    own code, and neither it nor the interpreter's exit flush writes a
    BrokenPipeError to stderr."""

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._discard()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._discard()

    def _discard(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)


def entry() -> None:
    # weincalc calls no BLAS routine, yet NumPy's OpenBLAS starts its worker
    # threads when NumPy loads, about 75 ms of CPU per process on a 2-core
    # box.  NumPy loads only later, inside the Monte Carlo calls.  A value the
    # user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # What is alive now, and after the command, lives until the process
    # exits, so no collection need walk it: frozen, the import heap is
    # skipped by the full collections of the run and, with NumPy's heap, by
    # the interpreter's collections at shutdown.  Unfrozen, each full
    # collection after `verify --quick` walks about 22k objects in 5-10 ms
    # (2-core x86-64 box, CPython 3.11); frozen, it takes under 0.01 ms.
    gc.freeze()
    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        code = main()
        gc.freeze()
    finally:  # argparse's --help and usage errors exit inside main
        sys.stdout.flush()
        sys.stdout = stdout
    sys.exit(code)


if __name__ == "__main__":
    entry()
