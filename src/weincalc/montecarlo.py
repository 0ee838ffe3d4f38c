"""Monte Carlo oracles, independent of the exact formulas they cross-check.

Every oracle averages integrands scale * (|z_1|^2+...+|z_m|^2)^k times
[|z| > cutoff] over uniform points z of a ball in C^n.  The sampler returns
only the squared moduli these read: |z|^2 = r0^2 U^(1/n), and every partial
one |z_1|^2+...+|z_m|^2 as |z|^2 times the share of the first 2m of 2n
standard normals in their sum of squares (Muller's Gaussian directions, 1959;
rejection sampling is useless in 2n >= 8 dimensions).

Determinism contract: an oracle call takes a grid of integrands at one n and
draws every sample from one generator, numpy.random.default_rng(seed), in
chunks of max(1, CHUNK_SIZE // n) samples that run one after another.  Every
integrand of the grid is evaluated on the same points (common random
numbers), keeps its own sums, reduced in chunk order, and gets its own
standard error; the estimates of one call are therefore correlated.  An
estimate depends only on (n, r0, its integrand, samples, seed), not on the
other integrands of the grid.

Chunk memory does not grow with n (for n <= CHUNK_SIZE): a chunk holds one
C-contiguous (n, size) buffer of at most CHUNK_SIZE partial moduli, one
block of about BLOCK_NORMALS normals while they are drawn, the `size` radii
until they become the last row of the buffer, and while one column m is
read, the powers of it that the grid reads (one array of `size` floats per
degree k), one mask per cutoff and one scratch array of `size` floats.  The
normals are drawn block by block in the order of one (size, 2n) draw, so
the block size changes no bit.

NumPy is imported inside the functions that draw samples, so the exact
commands, which import this module through `cli`, never load it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactarith import (
    ParameterError,
    require_moment,
    require_positive,
    require_radius,
    require_weight,
    require_within,
    times_pi_power,
)

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 1 << 16
BLOCK_NORMALS = 1 << 13

# Upper bound on the work of one oracle call, samples * n: each sample draws
# 2n normals, so the time grows about linearly in samples * n.  It admits
# 10^8 samples at n = 3, 14 s of Monte Carlo (7.3 million samples per second
# on a 2-core x86-64 box), and every sample count up to 10^8 at n <= 3.
# Memory does not grow with it: at any n a chunk holds at most
# 2 * CHUNK_SIZE normals, then one buffer of at most CHUNK_SIZE partial
# moduli and the powers of one column.
MAX_MC_WORK = 3 * 10**8


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate: sample mean, standard error, and provenance."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def sigma_distance(self, exact: float) -> float:
        """|mean - exact| in units of the standard error."""
        diff = abs(self.mean - exact)
        if self.std_error == 0.0:
            return 0.0 if diff == 0.0 else math.inf
        return diff / self.std_error

    def to_json(self) -> dict:
        return asdict(self)


def sample_ball(
    n: int, r0: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(partial, total) for `size` uniform points of the open radius-r0 ball
    in C^n: partial[:, m-1] = |z_1|^2 + ... + |z_m|^2, of shape (size, n), and
    total = |z|^2.  Consumes the rng stream in a fixed order: the (size, 2n)
    normals, then the `size` radii.  `partial` is the transpose of a
    C-contiguous (n, size) array, so each column m is contiguous, and `total`
    is its last column.
    """
    import numpy as np

    require_positive(n=n)
    require_radius(r0)
    # moduli[j] = |z_1|^2 + ... + |z_(j+1)|^2 of the normals, z_j being the
    # real pair 2j-2, 2j-1; the normals of consecutive rows come one block
    # at a time, as one (size, 2n) draw would have filled them.
    moduli = np.empty((n, size))
    rows = max(1, BLOCK_NORMALS // (2 * n))
    block = np.empty((min(rows, size), 2 * n))
    for start in range(0, size, rows):
        squares = block[: size - start]
        rng.standard_normal(out=squares)
        np.square(squares, out=squares)
        np.add(squares[:, 0::2].T, squares[:, 1::2].T, out=moduli[:, start : start + rows])
    del block, squares  # the normals are freed before the radii are drawn
    total = rng.random(size)
    total **= 1.0 / n
    total *= r0 * r0
    for j in range(1, n):  # one contiguous row at a time
        moduli[j] += moduli[j - 1]
    np.divide(total, moduli[-1], out=moduli[-1])  # |z|^2 over the sum of squares
    moduli[:-1] *= moduli[-1]  # the shares times |z|^2
    moduli[-1] = total
    return moduli.T, moduli[-1]


def _estimate(
    n: int,
    r0: float,
    integrands: Sequence[tuple[int, int, float, float]],
    samples: int,
    seed: int,
) -> list[McEstimate]:
    """One estimate per integrand (m, k, cutoff, scale) of the module doc over
    the radius-r0 ball in C^n, all from one default_rng(seed) stream drawn in
    chunks of max(1, CHUNK_SIZE // n) samples, so memory stays bounded as n
    grows.  In each chunk the powers of a column and the mask of a cutoff are
    formed once and shared by the integrands that read them, and an
    integrand's values are the same bits whatever else the grid holds.  The
    sums run over the unscaled integrand, and `scale` multiplies the mean and
    the standard error once, so a tiny scale cannot underflow the sum of
    squares.  At least 2 samples, for a standard error, and at most
    MAX_MC_WORK / n, both refused before any sample is drawn."""
    import numpy as np

    if samples < 2:
        raise ParameterError("must be >= 2", samples=samples)
    if samples * n > MAX_MC_WORK:
        raise ParameterError(f"samples * n must be <= {MAX_MC_WORK}", samples=samples, n=n)
    if seed < 0:
        raise ParameterError("must be >= 0", seed=seed)
    for m, *_ in integrands:
        require_within(n, m=m)
    columns = {}  # m -> {k -> indices of the integrands reading column m ** k}
    for index, (m, k, _, _) in enumerate(integrands):
        columns.setdefault(m, {}).setdefault(k, []).append(index)
    cutoffs = {cutoff for _, _, cutoff, _ in integrands if cutoff}
    rng = np.random.default_rng(seed)
    rows = max(1, CHUNK_SIZE // n)
    sums = [[0.0, 0.0] for _ in integrands]
    for start in range(0, samples, rows):
        size = min(rows, samples - start)
        # The chunk lives only for the call: two chunks are never held at once.
        _accumulate(sums, integrands, columns, cutoffs, *sample_ball(n, r0, rng, size))
    estimates = []
    for (total, total_sq), (*_, scale) in zip(sums, integrands):
        mean = total / samples
        spread = max(total_sq - samples * mean * mean, 0.0)
        std_error = scale * math.sqrt(spread / (samples - 1) / samples)
        estimates.append(McEstimate(scale * mean, std_error, samples, seed))
    return estimates


def _accumulate(sums, integrands, columns, cutoffs, partial, norm_sq) -> None:
    """Add one chunk's sum and sum of squares to the `sums` of each integrand.
    Each column m gets one power per k that its integrands read, and each
    cutoff one mask; the integrands that read them share them."""
    import numpy as np

    outside = {cutoff: norm_sq > cutoff * cutoff for cutoff in cutoffs}
    scratch = np.empty_like(norm_sq)  # the masked values, then the squares
    for m, readers in columns.items():
        column = partial[:, m - 1]
        powers = {1: column}
        for k in sorted(readers):
            power = powers[k] = _power(column, k, powers)
            for index in readers[k]:
                cutoff = integrands[index][2]
                values = np.multiply(power, outside[cutoff], out=scratch) if cutoff else power
                sums[index][0] += float(values.sum())
                sums[index][1] += float(np.square(values, out=scratch).sum())


def _power(column: np.ndarray, k: int, known: dict) -> np.ndarray:
    """column ** k by multiplication alone: column ** (k - 1) times the column
    for odd k, the square of column ** (k / 2) for even k, so k <= 3 is the
    plain chain and a large k takes about 2 log2(k) products, holding two
    arrays at a time.  A power found in `known` was formed by the same
    products, so the bits do not depend on what `known` holds.  A product
    costs about a sixth of NumPy's general `pow`."""
    if k in known:
        return known[k]
    if k % 2:
        return _power(column, k - 1, known) * column
    half = _power(column, k // 2, known)
    return half * half


def mc_ball_moment(
    n: int, terms: Sequence[tuple[int, int]], r0: float, samples: int, seed: int
) -> list[McEstimate]:
    """Estimate, for each (l, k) in `terms`, the ball moment integral of
    (|z_1|^2 + ... + |z_l|^2)^k over the radius-r0 ball in C^n with Lebesgue
    measure: ball volume times the sample mean of the integrand.  A volume
    pi^n r0^(2n) / n! above the float range, or a pi^n above it, is refused."""
    for l, k in terms:
        require_moment(n, l, k)
    require_radius(r0)
    try:
        pi_n = math.pi**n  # refused before n! is formed
        volume = times_pi_power(Fraction(r0) ** (2 * n) / math.factorial(n), pi_n)
    except OverflowError:
        raise ParameterError("the Monte Carlo ball volume overflows a float", n=n, r0=r0) from None
    return _estimate(n, r0, [(l, k, 0.0, volume) for l, k in terms], samples, seed)


def _generator(k: int) -> float:
    """The float of pi^k/k!, the period lattice generator of CP^n."""
    return times_pi_power(Fraction(1, math.factorial(k)), math.pi**k)


def mc_cpn_average(n: int, degrees: Sequence[int], samples: int, seed: int) -> list[McEstimate]:
    """Estimate the morphism value on CP^n for each k in `degrees` by
    averaging (pi^k/k!) (|z_1|^2 + ... + |z_k|^2)^k over the unit ball, whose
    image under z -> w = [z : sqrt(1 - |z|^2)] fills CP^n up to measure zero.
    This is the trace volume (pi^k/k!) (sum_{j<=k} |w_j|^2/|w|^2)^k of the
    embedded point, because that point has |w| = 1.  Expected value:
    q(n,k) pi^k/k!."""
    for k in degrees:
        require_within(n, k=k)
    integrands = [(k, k, 0.0, _generator(k)) for k in degrees]
    return _estimate(n, 1.0, integrands, samples, seed)


def mc_blowup_average(
    n: int, degrees: Sequence[int], rho: float, samples: int, seed: int
) -> list[McEstimate]:
    """Estimate the morphism value on the weight-rho blow-up of CP^n for each
    k in `degrees`.

    Realizes the difference of the full-manifold integral and the integral
    over the removed ball as a single stream over the unit ball with the
    complement indicator, normalized by the blow-up volume
    pi^n (1 - rho^(2n))/n!.  Expected value: f_k(rho^2) * pi^k.
    """
    for k in degrees:
        require_within(n, k=k)
    require_weight(rho)
    volume_share = 1.0 - rho ** (2 * n)
    integrands = [(k, k, rho, _generator(k) / volume_share) for k in degrees]
    return _estimate(n, 1.0, integrands, samples, seed)
