"""weinstein-calc: exact values of the generalized Weinstein morphism on
homotopy groups of Hamiltonian diffeomorphism groups -- complex projective
space, its one-point symplectic blow-up, and Cartesian products -- with
independent brute-force and Monte Carlo verification of every closed form.

Import names from their submodules (`weincalc.morphism.cpn_weinstein`); the
package root re-exports nothing.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The submodule `name`, registered in sys.modules; its body runs on the
    first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every submodule loads on first use.  Without a bytecode cache a process
# compiles each module it runs, so `import weincalc` runs none of them, and a
# command runs only the modules it reaches: exact `moment` and `identity` run
# exactarith and combinatorics; cpn, blowup and product add symbolic and
# morphism; moment --mc adds montecarlo; verify runs all six.  All six are
# in sys.modules from the start, because perfbench's trace_child.install
# looks every traced module up there after `from weincalc import cli`.  `cli`, the
# entry point, is imported as usual: `python -m weincalc.cli` runs it as
# __main__, which a module already in sys.modules would make ambiguous.
combinatorics = _lazy("combinatorics")
exactarith = _lazy("exactarith")
montecarlo = _lazy("montecarlo")
morphism = _lazy("morphism")
symbolic = _lazy("symbolic")
verify = _lazy("verify")

__version__ = "0.1.0"
