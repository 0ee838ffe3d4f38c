"""Monte Carlo oracles, independent of the exact formulas they cross-check.

Sampling is uniform on the open 2n-ball: direction from 2n standard normals
normalized to unit length, radius r0 * U^(1/(2n)).  (Rejection sampling is
useless in 2n >= 8 dimensions, this construction is not.)

Determinism contract: the sample stream is split into fixed chunks of
65536; chunk i draws from a PCG64 generator seeded with the i-th child of
SeedSequence(seed), and the chunks run one after another, their partial sums
reduced in chunk order.  An estimate therefore depends only on
(parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exactarith import (
    require_degree,
    require_moment,
    require_positive,
    require_radius,
    require_weight,
)

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
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
        }


def sample_ball(n: int, r0: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, 2n) array of uniform points in the open ball of radius r0 in
    R^(2n).  Consumes the rng stream in a fixed order (normals, then radii).
    """
    require_positive(n=n)
    require_radius(r0)
    directions = rng.standard_normal((size, 2 * n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = r0 * rng.random(size) ** (1.0 / (2 * n))
    return directions * radii[:, None]


def _estimate(
    samples: int, seed: int, chunk_values: Callable[[np.random.Generator, int], np.ndarray]
) -> McEstimate:
    """Chunked accumulation with canonical reduction order (see module doc)."""
    require_positive(samples=samples)
    n_chunks = (samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    total = 0.0
    total_sq = 0.0
    done = 0
    for child in children:
        count = min(CHUNK_SIZE, samples - done)
        rng = np.random.Generator(np.random.PCG64(child))
        values = chunk_values(rng, count)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
        done += count
    mean = total / samples
    if samples > 1:
        variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    else:
        variance = 0.0
    return McEstimate(
        mean=mean,
        std_error=math.sqrt(variance / samples),
        samples=samples,
        seed=seed,
    )


def mc_ball_moment(
    n: int, l: int, k: int, r0: float, samples: int, seed: int
) -> McEstimate:
    """Estimate the ball moment integral of (|z_1|^2 + ... + |z_l|^2)^k over
    the radius-r0 ball in C^n with Lebesgue measure: ball volume times the
    sample mean of the integrand."""
    require_moment(n, l, k)
    require_radius(r0)
    volume = math.pi**n * r0 ** (2 * n) / math.factorial(n)

    def chunk(rng: np.random.Generator, count: int) -> np.ndarray:
        points = sample_ball(n, r0, rng, count)
        # |z_1|^2 + ... + |z_l|^2 is the sum of the first 2l real squares.
        s = np.square(points[:, : 2 * l]).sum(axis=1)
        return volume * s**k

    return _estimate(samples, seed, chunk)


def mc_cpn_average(n: int, k: int, samples: int, seed: int) -> McEstimate:
    """Estimate the morphism value on CP^n by averaging
    (pi^k/k!) (|z_1|^2 + ... + |z_k|^2)^k over the unit ball, whose image
    under z -> w = [z : sqrt(1 - |z|^2)] fills CP^n up to measure zero.  This
    is the trace volume (pi^k/k!) (sum_{j<=k} |w_j|^2/|w|^2)^k of the embedded
    point, because that point has |w| = 1.  Expected value: q(n,k) pi^k/k!."""
    require_degree(n, k)
    scale = math.pi**k / math.factorial(k)

    def chunk(rng: np.random.Generator, count: int) -> np.ndarray:
        points = sample_ball(n, 1.0, rng, count)
        s = np.square(points[:, : 2 * k]).sum(axis=1)
        return scale * s**k

    return _estimate(samples, seed, chunk)


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
    rho_sq = rho * rho

    def chunk(rng: np.random.Generator, count: int) -> np.ndarray:
        points = sample_ball(n, 1.0, rng, count)
        squares = np.square(points)
        s = squares[:, : 2 * k].sum(axis=1)
        outside = squares.sum(axis=1) > rho_sq
        return scale * s**k * outside

    return _estimate(samples, seed, chunk)
