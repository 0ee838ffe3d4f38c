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
other integrands of the grid, and a chunk holds at most 2 * CHUNK_SIZE
normals whatever n (for n <= CHUNK_SIZE).

NumPy is imported inside the functions that draw samples, so the exact
commands, which import this module through `cli`, never load it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .exactarith import (
    require_degree,
    require_moment,
    require_positive,
    require_radius,
    require_weight,
    require_within,
)

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 1 << 16


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
    normals, then the `size` radii.
    """
    import numpy as np

    require_positive(n=n)
    require_radius(r0)
    squares = rng.standard_normal((size, 2 * n))
    total = r0 * r0 * rng.random(size) ** (1.0 / n)
    # In place, so that a chunk holds no array beyond its normals.
    np.square(squares, out=squares)
    partial = squares[:, 0::2]  # z_j is the real pair 2j-2, 2j-1
    partial += squares[:, 1::2]
    np.cumsum(partial, axis=1, out=partial)
    partial /= partial[:, -1:]  # the shares, exactly 1 in the last column
    partial *= total[:, None]
    return partial, total


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
    grows.  The sums run over the unscaled integrand, and `scale` multiplies
    the mean and the standard error once, so a tiny scale cannot underflow
    the sum of squares."""
    import numpy as np

    require_positive(samples=samples)
    for m, *_ in integrands:
        require_within(n, m=m)
    rng = np.random.default_rng(seed)
    rows = max(1, CHUNK_SIZE // n)
    sums = [[0.0, 0.0] for _ in integrands]
    for start in range(0, samples, rows):
        partial, norm_sq = sample_ball(n, r0, rng, min(rows, samples - start))
        for acc, (m, k, cutoff, _) in zip(sums, integrands):
            values = partial[:, m - 1] ** k
            if cutoff:
                values *= norm_sq > cutoff * cutoff
            acc[0] += float(values.sum())
            acc[1] += float(np.square(values).sum())
    estimates = []
    for (total, total_sq), (*_, scale) in zip(sums, integrands):
        mean = total / samples
        spread = max(total_sq - samples * mean * mean, 0.0)
        variance = spread / (samples - 1) if samples > 1 else 0.0
        std_error = scale * math.sqrt(variance / samples)
        estimates.append(McEstimate(scale * mean, std_error, samples, seed))
    return estimates


def mc_ball_moment(
    n: int, terms: Sequence[tuple[int, int]], r0: float, samples: int, seed: int
) -> list[McEstimate]:
    """Estimate, for each (l, k) in `terms`, the ball moment integral of
    (|z_1|^2 + ... + |z_l|^2)^k over the radius-r0 ball in C^n with Lebesgue
    measure: ball volume times the sample mean of the integrand."""
    for l, k in terms:
        require_moment(n, l, k)
    require_radius(r0)
    volume = math.pi**n * r0 ** (2 * n) / math.factorial(n)
    return _estimate(n, r0, [(l, k, 0.0, volume) for l, k in terms], samples, seed)


def mc_cpn_average(n: int, degrees: Sequence[int], samples: int, seed: int) -> list[McEstimate]:
    """Estimate the morphism value on CP^n for each k in `degrees` by
    averaging (pi^k/k!) (|z_1|^2 + ... + |z_k|^2)^k over the unit ball, whose
    image under z -> w = [z : sqrt(1 - |z|^2)] fills CP^n up to measure zero.
    This is the trace volume (pi^k/k!) (sum_{j<=k} |w_j|^2/|w|^2)^k of the
    embedded point, because that point has |w| = 1.  Expected value:
    q(n,k) pi^k/k!."""
    for k in degrees:
        require_degree(n, k)
    integrands = [(k, k, 0.0, math.pi**k / math.factorial(k)) for k in degrees]
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
        require_degree(n, k)
    require_weight(rho)
    volume_share = 1.0 - rho ** (2 * n)
    integrands = [(k, k, rho, math.pi**k / math.factorial(k) / volume_share) for k in degrees]
    return _estimate(n, 1.0, integrands, samples, seed)
