"""The reach ledger: every function and method defined in src/weincalc runs
for some command, or stands in ALLOWED with the reason it is kept.

QUERIES is one fixed list of in-process `main()` queries, covering every
command and mode and one refusal of each kind.  They run under
sys.setprofile, which records each Python function entered.  Functions are
found in the source with `ast` and keyed by file and first line (the line of
the first decorator, for a decorated function), the line their code object
starts at.  A helper that only tests call then fails here until it is
deleted or listed; so does an ALLOWED entry that is entered or no longer
exists.
"""

import ast
import json
import runpy
import sys
from pathlib import Path

from weincalc import cli, combinatorics

SRC = Path(cli.__file__).resolve().parent
TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"

PINNED = "wrapped by perfbench/trace_child.py TARGETS; goes with that list's next change"
FRESH = "runs only in a fresh process, which the process tests of test_cli start"
KEPT = "kept on purpose (ROADMAP): "
REPR = "pytest's assertion messages show values by it"

ALLOWED = {
    "montecarlo.mc_cpn_average": PINNED,
    "montecarlo.mc_blowup_average": PINNED,
    "verify.brute_force_member": PINNED,
    "cli.entry": FRESH,
    "cli._discard_stdout": FRESH,
    "weincalc._lazy": "runs at import, before any query",
    "symbolic.PolyQ.__hash__": KEPT + "each class with __eq__ stays hashable",
    "symbolic.RatFuncQ.__hash__": KEPT + "each class with __eq__ stays hashable",
    "symbolic.PiGradedValue.__eq__": KEPT + "values are equal when their coefficients are",
    "symbolic.PiGradedValue.__hash__": KEPT + "each class with __eq__ stays hashable",
    "symbolic.PiGradedValue.__bool__": KEPT + "the zero value is false",
    "symbolic.Lattice.__eq__": KEPT + "lattices are equal when their generators are",
    "symbolic.Lattice.__hash__": KEPT + "each class with __eq__ stays hashable",
    "symbolic.PolyQ.__repr__": REPR,
    "symbolic.RatFuncQ.__repr__": REPR,
    "symbolic.PiGradedValue.__repr__": REPR,
    "symbolic.Lattice.__repr__": REPR,
}

STRING_PERIODS = {"dimension": 4, "trivial_odd_homotopy": [1, 3], "periods": {"2": ["1/2"]}}
NUMBER_PERIOD = '{"dimension": 2, "trivial_odd_homotopy": [1], "periods": {"2": [0.25]}}'
# 1/(1 + x) * pi: its sum with the CP^n monomial keeps a denominator.
CLASS = {"pi_exp": 1, "num": [[0, "1"]], "den": [[0, "1"], [1, "1"]]}
NAMED_CLASS = {
    "dimension": 2, "trivial_odd_homotopy": [1], "classes": {"c": {"degree": 1, "value": [CLASS]}}
}
BAD_FIELD = {"dimension": 3}

# (argv, exit code, the start of stderr, empty for none); a descriptor is named by its
# module-level name and written to a file.
QUERIES = [
    ("cpn --n 3 --k 2", 0, ""),
    ("cpn --n 3 --k 2 --json", 0, ""),
    ("blowup --n 3 --k 3", 0, ""),
    ("blowup --n 3 --k 2 --json", 0, ""),
    ("blowup --n 3 --k 2 --rho 1/3", 0, ""),
    ("moment --n 2 --l 1 --k 2", 0, ""),
    ("moment --n 2 --l 1 --k 1 --mc --samples 1000", 0, ""),
    ("identity --k-max 3", 0, ""),
    ("product --n 2 --k 2 --manifold STRING_PERIODS", 0, ""),
    ("product --n 2 --k 1 --manifold NUMBER_PERIOD --json", 0, ""),
    ("product --n 2 --k 1 --manifold NAMED_CLASS --class c", 0, ""),
    ("verify --quick", 0, ""),
    ("cpn --n 3 --k 5", 2, "error: --k 5 --n 3: must satisfy"),  # ParameterError
    (f"cpn --n 3 --k {'9' * 5000}", 2, "error: --k 99999"),  # DigitLimitError
    ("product --n 2 --k 1 --manifold BAD_FIELD", 2, "error: dimension: "),  # FieldError
    ("cpn --n 3", 2, "usage: "),  # argparse
]


def _functions() -> dict:
    """(file, first line) -> dotted name of every def in src/weincalc."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[path, first] = name
                walk(child, path, name + ".")

    for path in sorted(SRC.glob("*.py")):
        module = ("weincalc" if path.stem == "__init__" else path.stem) + "."
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path), module)
    return found


def _entered(capsys, tmp_path) -> set:
    """(file, first line) of every function the queries entered."""
    for name in ("STRING_PERIODS", "NUMBER_PERIOD", "NAMED_CLASS", "BAD_FIELD"):
        doc = globals()[name]
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    combinatorics.moment_sum_bruteforce.cache_clear()  # so that enumeration runs
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for text, code, stderr in QUERIES:
        argv = [str(tmp_path / t) if t.isupper() else t for t in text.split(" ")]
        sys.setprofile(profile)
        try:
            try:
                got = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                got = exc.code
        finally:
            sys.setprofile(None)
        out, err = capsys.readouterr()
        assert got == code, (text[:40], err[:200])
        assert err.startswith(stderr) and bool(err) == bool(stderr), err[:200]
        assert bool(out) == (code == 0)
    return entered


def test_every_function_runs_for_some_command(capsys, tmp_path):
    functions = _functions()
    entered = _entered(capsys, tmp_path)
    names = set(functions.values())
    assert len(names) == len(functions), "two defs share one dotted name"
    unreached = sorted(name for key, name in functions.items() if key not in entered)
    unlisted = [name for name in unreached if name not in ALLOWED]
    assert unlisted == [], f"no command runs {unlisted}: delete them, or list them in ALLOWED"
    gone = [name for name in ALLOWED if name not in names]
    assert gone == [], f"ALLOWED names {gone}, which src/weincalc no longer defines"
    entered_now = [name for name in ALLOWED if name not in unreached]
    assert entered_now == [], f"ALLOWED names {entered_now}, which a command now runs"


def test_pinned_entries_are_trace_targets():
    # An entry kept only for TARGETS is deleted once the benchmark stops
    # wrapping it.
    targets = runpy.run_path(str(TRACE_CHILD))["TARGETS"]  # compiles, writes nothing
    wrapped = {f"{module}.{attr}" for module, attr, _ in targets}
    pinned = [name for name, reason in ALLOWED.items() if reason == PINNED]
    unpinned = [name for name in pinned if name not in wrapped]
    assert unpinned == [], f"TARGETS no longer wraps {unpinned}: delete them"

