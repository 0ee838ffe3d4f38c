"""The traced benchmark (perfbench/trace_child.py) wraps weincalc functions by
name; a rename or deletion that leaves one of them dangling fails here."""

import importlib
import runpy
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def test_every_trace_target_resolves():
    targets = runpy.run_path(str(TRACE_CHILD))["TARGETS"]  # compiles, writes nothing
    missing = []
    for module, attr, _ in targets:
        owner = importlib.import_module(f"weincalc.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert len(targets) > 20
    assert missing == []
