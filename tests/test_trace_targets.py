"""The traced benchmark (perfbench/trace_child.py) wraps weincalc functions by
name; a rename or deletion that leaves one of them dangling fails here."""

import importlib
import runpy
import sys
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


def test_traced_mc_oracles_see_their_samples(monkeypatch):
    # montecarlo.<oracle>.samples_per_s counts the `samples` argument that the
    # traced spans read from each mc_* call.  verify's three Monte Carlo
    # checks call no oracle: they read one pass, drawn through
    # montecarlo._estimate, that the trace sees as sample_ball spans only,
    # one stream of `samples` points at n = MC_N_MAX for every n.  The oracle
    # spans see the rest of the suite, mc-determinism's two mc_ball_moment
    # calls.
    namespace = runpy.run_path(str(TRACE_CHILD))
    from weincalc import montecarlo, verify

    seen = {}

    def spy(name, original):
        info_of = namespace["_info_function"](f"montecarlo.{name}", original)

        def traced(*args, **kwargs):
            if name == "sample_ball":
                n, size = args[0], args[3]
                seen.setdefault(name, {}).setdefault(n, 0)
                seen[name][n] += size
            else:
                seen.setdefault(name, []).append(info_of(args, kwargs)["samples"])
            return original(*args, **kwargs)

        return traced

    targets = ("mc_ball_moment", "mc_cpn_average", "mc_blowup_average", "sample_ball")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "weincalc"]
    for name in targets:
        original = getattr(montecarlo, name)
        traced = spy(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, traced)
    samples = 200
    mc_pass = verify.draw_mc_pass(samples)
    verify.check_ball_moments(mc_pass)
    verify.check_cpn_monte_carlo(mc_pass)
    verify.check_blowup(mc_pass, n_max=2)
    assert seen == {"sample_ball": {verify.MC_N_MAX: samples}}
    seen.clear()
    verify.check_mc_determinism()
    assert seen.pop("mc_ball_moment") == [verify.MC_DETERMINISM_SAMPLES] * 2
    assert list(seen) == ["sample_ball"]  # its own short draws
