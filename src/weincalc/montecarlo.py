"""Monte Carlo oracles, independent of the exact formulas they cross-check.

Every oracle averages one integrand, scale * (|z_1|^2+...+|z_m|^2)^k times
[|z| > cutoff], over uniform points z of a ball in C^n.  The sampler returns
only these two squared moduli: |z|^2 = r0^2 U^(1/n), and the partial one as
|z|^2 times the share of the first 2m of 2n standard normals in their sum of
squares (Muller's Gaussian directions, 1959; rejection sampling is useless in
2n >= 8 dimensions).

Determinism contract: the sample stream is split into fixed chunks of
65536; chunk i draws from a PCG64 generator seeded with the i-th child of
SeedSequence(seed), and the chunks run one after another, their partial sums
reduced in chunk order.  An estimate therefore depends only on
(parameters, seed).

NumPy is imported inside the functions that draw samples, so the exact
commands, which import this module through `cli`, never load it.
"""

from __future__ import annotations

import math
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
    n: int, m: int, r0: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(|z_1|^2 + ... + |z_m|^2, |z|^2) for `size` uniform points of the open
    radius-r0 ball in C^n.  Consumes the rng stream in a fixed order: the
    (size, 2n) normals, then the `size` radii.
    """
    import numpy as np

    require_within(n, m=m)
    require_radius(r0)
    normals = rng.standard_normal((size, 2 * n))
    total = r0 * r0 * rng.random(size) ** (1.0 / n)
    head = normals[:, : 2 * m]  # z_j is the real pair 2j-2, 2j-1
    part = np.einsum("ij,ij->i", head, head)
    part /= np.einsum("ij,ij->i", normals, normals)
    part *= total
    return part, total


def _estimate(
    n: int, m: int, k: int, r0: float, scale: float, cutoff: float, samples: int, seed: int
) -> McEstimate:
    """The integrand of the module doc over the radius-r0 ball in C^n, in
    chunks reduced in canonical order.  The sums run over the unscaled
    integrand, and `scale` multiplies the mean and the standard error once,
    so a tiny scale cannot underflow the sum of squares."""
    import numpy as np

    require_positive(samples=samples)
    n_chunks = (samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    total = total_sq = 0.0
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        rng = np.random.Generator(np.random.PCG64(child))
        part, norm_sq = sample_ball(n, m, r0, rng, min(CHUNK_SIZE, samples - i * CHUNK_SIZE))
        values = part**k * (norm_sq > cutoff * cutoff)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1) if samples > 1 else 0.0
    return McEstimate(scale * mean, scale * math.sqrt(variance / samples), samples, seed)


def mc_ball_moment(
    n: int, l: int, k: int, r0: float, samples: int, seed: int
) -> McEstimate:
    """Estimate the ball moment integral of (|z_1|^2 + ... + |z_l|^2)^k over
    the radius-r0 ball in C^n with Lebesgue measure: ball volume times the
    sample mean of the integrand."""
    require_moment(n, l, k)
    require_radius(r0)
    volume = math.pi**n * r0 ** (2 * n) / math.factorial(n)
    return _estimate(n, l, k, r0, volume, 0.0, samples, seed)


def mc_cpn_average(n: int, k: int, samples: int, seed: int) -> McEstimate:
    """Estimate the morphism value on CP^n by averaging
    (pi^k/k!) (|z_1|^2 + ... + |z_k|^2)^k over the unit ball, whose image
    under z -> w = [z : sqrt(1 - |z|^2)] fills CP^n up to measure zero.  This
    is the trace volume (pi^k/k!) (sum_{j<=k} |w_j|^2/|w|^2)^k of the embedded
    point, because that point has |w| = 1.  Expected value: q(n,k) pi^k/k!."""
    require_degree(n, k)
    scale = math.pi**k / math.factorial(k)
    return _estimate(n, k, k, 1.0, scale, 0.0, samples, seed)


def mc_blowup_average(n: int, k: int, rho: float, samples: int, seed: int) -> McEstimate:
    """Estimate the morphism value on the weight-rho blow-up of CP^n.

    Realizes the difference of the full-manifold integral and the integral
    over the removed ball as a single stream over the unit ball with the
    complement indicator, normalized by the blow-up volume
    pi^n (1 - rho^(2n))/n!.  Expected value: f_k(rho^2) * pi^k.
    """
    require_degree(n, k)
    require_weight(rho)
    scale = math.pi**k / math.factorial(k) / (1.0 - rho ** (2 * n))
    return _estimate(n, k, k, 1.0, scale, rho, samples, seed)
