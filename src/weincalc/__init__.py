"""weinstein-calc: exact values of the generalized Weinstein morphism on
homotopy groups of Hamiltonian diffeomorphism groups -- complex projective
space, its one-point symplectic blow-up, and Cartesian products -- with
independent brute-force and Monte Carlo verification of every closed form.

Import names from their submodules (`weincalc.morphism.cpn_weinstein`); the
package root re-exports nothing.
"""

# Eager on purpose: perfbench's trace_child.install wraps functions of every
# weincalc module it finds in sys.modules after `from weincalc import cli`,
# and perfbench's setup_s times the import of the whole package.  Only NumPy
# is deferred, to the Monte Carlo calls that draw samples.
from . import combinatorics, exactarith, montecarlo, morphism, symbolic

__version__ = "0.1.0"
