"""Run one weinstein-calc query with spans around each layer's public calls.

    python3 -X importtime perfbench/trace_child.py SPANS.json ARGV...

Imports weincalc (stderr then carries the interpreter's import-time lines),
wraps the public functions listed in TARGETS at their module boundaries --
including every copy a module made with `from .x import f` -- and calls
`weincalc.cli.main(ARGV)` inside a root span `cli.main`.  Spans are kept in
memory as [name, start, end, parent, info] and written to SPANS.json when
the query ends; the exit code is the program's own.  `aggregate` turns the
span lists of many queries into busy time, self time and counts per name.

exactarith is not wrapped: it is called once per enumerated composition, and
a span per call would cost more than the call.  Its time is self time of the
span that called it (in practice `combinatorics.bruteforce`).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
TARGETS = [
    ("combinatorics", "moment_sum_bruteforce", "combinatorics.bruteforce"),
    ("morphism", "cpn_weinstein", "morphism.cpn_weinstein"),
    ("morphism", "blowup_weinstein", "morphism.blowup_weinstein"),
    ("morphism", "product_value", "morphism.product_value"),
    ("morphism", "cpn_weinstein_raw", "morphism.cpn_weinstein_raw"),
    ("symbolic", "poly_gcd", "symbolic.poly_gcd"),
    ("symbolic", "RatFuncQ.__init__", "symbolic.ratfunc_reduce"),
    ("symbolic", "lattice_order", "symbolic.lattice_order"),
    ("symbolic", "PiGradedValue.to_json", "symbolic.to_json"),
    ("symbolic", "Lattice.to_json", "symbolic.to_json"),
    ("montecarlo", "mc_ball_moment", "montecarlo.mc_ball_moment"),
    ("montecarlo", "mc_cpn_average", "montecarlo.mc_cpn_average"),
    ("montecarlo", "mc_blowup_average", "montecarlo.mc_blowup_average"),
    ("montecarlo", "sample_ball", "montecarlo.sample_ball"),
    ("verify", "brute_force_member", "verify.brute_force_member"),
]
VERIFY_CHECKS = (
    "identity-suite",
    "moment-sums",
    "ball-moments",
    "cpn-exact",
    "cpn-monte-carlo",
    "blowup",
    "product",
    "decision-procedures",
    "mc-determinism",
)
TARGETS += [
    ("verify", "check_" + name.replace("-", "_"), "verify." + name) for name in VERIFY_CHECKS
]


class Tracer:
    """Spans of one process; `parent` is the index of the enclosing span."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        info_of = _info_function(name, fn)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            before = info_of(args, kwargs) if info_of else None
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if info_of and span[4] is None:
                    span[4] = before() if callable(before) else before

        return traced


def _info_function(name: str, fn):
    """What a span of `name` records besides its times, if anything."""
    if name == "combinatorics.bruteforce":
        # Read the lru_cache counters before the call; the returned closure
        # tells a cold call (a miss) from a cache hit after it.
        def info(args, kwargs):
            k, l = args
            misses = fn.cache_info().misses
            return lambda: {"k": k, "l": l, "cold": fn.cache_info().misses > misses}

        return info
    if name.startswith("montecarlo.mc_"):
        signature = inspect.signature(fn)
        return lambda args, kwargs: {
            "samples": signature.bind(*args, **kwargs).arguments["samples"]
        }
    return None


def install(tracer: Tracer) -> None:
    """Wrap every target in its defining module and in every weincalc module
    that holds the same object under an imported name."""
    modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "weincalc"}
    for module_name, attr, span_name in TARGETS:
        owner = modules["weincalc." + module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method)))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(span_name, original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from weincalc import cli

    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", cli.main)
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


# ---------------------------------------------------------------------------
# parent side


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy and weincalc, from -X importtime lines."""
    out = {"numpy": 0.0, "weincalc": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, package = line[len("import time:") :].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        indent = len(package) - len(package.lstrip())
        name = package.strip()
        if name == "numpy" and out["numpy"] == 0.0:
            out["numpy"] = int(cumulative) / 1e6
        elif indent == 1 and (name == "weincalc" or name.startswith("weincalc.")):
            out["weincalc"] += int(cumulative) / 1e6
    return out


def aggregate(spans: list[list], totals: dict) -> None:
    """Add one query's spans into `totals`: per span name the busy time,
    self time, call count and errors; per layer (the name's first component)
    the self time; and the brute-force and Monte Carlo counts the spans
    recorded."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    busy, self_time, calls = totals["busy"], totals["self"], totals["calls"]
    for index, (name, start, end, parent, info) in enumerate(spans):
        duration = end - start
        own = duration - children[index]
        calls[name] += 1
        self_time[name] += own
        totals["layer_self"][name.split(".")[0]] += own
        busy[name] += duration
        info = info or {}
        if "error" in info:
            totals["errors"][f"{name}:{info['error']}"] += 1
        if name == "combinatorics.bruteforce" and info.get("cold"):
            k, l = info["k"], info["l"]
            totals["compositions"] += math.comb(k + 2 * l - 1, 2 * l - 1)
            totals["cold_busy"] += duration
        elif name == "combinatorics.bruteforce" and "k" in info:
            totals["cache_hits"] += 1
        if "samples" in info:
            totals["samples"][name] += info["samples"]
        if name == "morphism.cpn_weinstein_raw" and parent >= 0 and spans[parent][0] in (
            "morphism.cpn_weinstein",
            "morphism.blowup_weinstein",
        ):
            totals["selfcheck_s"] += duration


def new_totals() -> dict:
    return {
        "busy": defaultdict(float),
        "self": defaultdict(float),
        "calls": defaultdict(int),
        "layer_self": defaultdict(float),
        "errors": defaultdict(int),
        "samples": defaultdict(int),
        "compositions": 0,
        "cold_busy": 0.0,
        "cache_hits": 0,
        "selfcheck_s": 0.0,
    }


if __name__ == "__main__":
    raise SystemExit(main())
