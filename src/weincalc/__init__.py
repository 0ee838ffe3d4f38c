"""weinstein-calc: exact values of the generalized Weinstein morphism on
homotopy groups of Hamiltonian diffeomorphism groups -- complex projective
space, its one-point symplectic blow-up, and Cartesian products -- with
independent brute-force and Monte Carlo verification of every closed form.
"""

from .combinatorics import (
    ball_moment_exact,
    moment_sum_bruteforce,
    moment_sum_closed,
    verify_diagonal_identity,
)
from .exactarith import (
    binomial,
    double_factorial_odd,
    factorial,
    format_rational,
    multinomial,
    parse_rational,
)
from .montecarlo import (
    McEstimate,
    mc_ball_moment,
    mc_blowup_average,
    mc_cpn_average,
    sample_ball,
)
from .morphism import (
    CosetValue,
    DescriptorError,
    ManifoldDescriptor,
    SelfCheckError,
    blowup_flags,
    blowup_lattice,
    blowup_weinstein,
    cpn_lattice,
    cpn_q,
    cpn_weinstein,
    cpn_weinstein_raw,
    product_cpn_lattice,
    product_value,
)
from .symbolic import (
    Lattice,
    OrderResult,
    PiGradedValue,
    PolyQ,
    RatFuncQ,
    divexact,
    lattice_member,
    lattice_order,
    lattice_sum,
    poly_gcd,
    rational_gcd,
)

__version__ = "0.1.0"
