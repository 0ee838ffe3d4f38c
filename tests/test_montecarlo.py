"""Monte Carlo oracles: distribution sanity, determinism, 4-sigma agreement.

Sample counts here are 10^5 for speed; the acceptance suite runs the full
10^6-sample grid.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from weincalc import montecarlo, verify
from weincalc.combinatorics import ball_moment_exact
from weincalc.montecarlo import (
    CHUNK_SIZE,
    McEstimate,
    mc_ball_moment,
    mc_blowup_average,
    mc_cpn_average,
    sample_ball,
)
from weincalc.morphism import blowup_at_weight, cpn_q
from weincalc.verify import SIGMA_BAND, mc_row

SAMPLES = 10**5


def reference_squared_moduli(n, m, r0, rng, size):
    """The point-matrix construction the sampler replaced: normalized Gaussian
    directions times r0 * U^(1/(2n)), drawn in the same order (normals, then
    radii); returns the squared moduli of the first m coordinates and of the
    whole point."""
    directions = rng.standard_normal((size, 2 * n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = r0 * rng.random(size) ** (1.0 / (2 * n))
    squares = np.square(directions * radii[:, None])
    return squares[:, : 2 * m].sum(axis=1), squares.sum(axis=1)


@pytest.mark.parametrize("n, r0", [(1, 1.0), (2, 1.0), (3, 0.5), (5, 2.0), (6, 1.0)])
def test_sample_ball_matches_point_matrix_reference(n, r0):
    partial, total = sample_ball(n, r0, np.random.Generator(np.random.PCG64(41)), 4096)
    assert partial.shape == (4096, n)
    for m in range(1, n + 1):
        ref_part, ref_total = reference_squared_moduli(
            n, m, r0, np.random.Generator(np.random.PCG64(41)), 4096
        )
        np.testing.assert_allclose(partial[:, m - 1], ref_part, rtol=1e-12, atol=0)
    np.testing.assert_allclose(total, ref_total, rtol=1e-12, atol=0)
    assert np.all(np.diff(partial, axis=1) >= 0)
    np.testing.assert_allclose(partial[:, -1], total, rtol=1e-12, atol=0)


def test_sample_ball_stays_inside():
    rng = np.random.Generator(np.random.PCG64(5))
    for n, r0 in [(1, 1.0), (3, 0.5), (5, 2.0)]:
        partial, total = sample_ball(n, r0, rng, 2000)
        assert partial.shape == (2000, n) and total.shape == (2000,)
        assert partial.T.flags.c_contiguous  # each column m is contiguous
        assert np.all(0 <= partial) and np.all(partial <= total[:, None])
        assert np.all(total < r0 * r0)


def test_sample_ball_fixed_seed_is_bit_identical():
    a = sample_ball(2, 1.0, np.random.Generator(np.random.PCG64(77)), 512)
    b = sample_ball(2, 1.0, np.random.Generator(np.random.PCG64(77)), 512)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_ball_mean_squared_norm():
    # E[|z|^2] over the unit disk: int r^2 * 2 pi r dr / pi = 1/2.
    rng = np.random.Generator(np.random.PCG64(11))
    _, sq = sample_ball(1, 1.0, rng, SAMPLES)
    se = sq.std(ddof=1) / math.sqrt(SAMPLES)
    assert abs(sq.mean() - 0.5) < 4 * se


def test_mc_ball_moment_spot_values():
    for (n, l, k), exact in [
        ((1, 1, 1), math.pi / 2),
        ((2, 1, 1), math.pi**2 / 6),
        ((1, 1, 2), math.pi / 3),
    ]:
        (est,) = mc_ball_moment(n, [(l, k)], 1.0, SAMPLES, 301)
        assert est.sigma_distance(exact) < 4, (n, l, k, est)


def test_mc_ball_moment_matches_exact_general_case():
    coeff, pi_exp = ball_moment_exact(3, 2, 2)
    exact = float(coeff) * math.pi**pi_exp
    (est,) = mc_ball_moment(3, [(2, 2)], 1.0, SAMPLES, 302)
    assert est.sigma_distance(exact) < 4


def test_mc_ball_moment_radius_scaling_same_seed():
    # With identical streams the radius-r0 estimate is exactly the unit
    # estimate times r0^(2(n+k)), up to float rounding.
    (unit,) = mc_ball_moment(2, [(1, 2)], 1.0, SAMPLES, 303)
    (doubled,) = mc_ball_moment(2, [(1, 2)], 2.0, SAMPLES, 303)
    assert math.isclose(doubled.mean, unit.mean * 2 ** (2 * (2 + 2)), rel_tol=1e-9)


def test_mc_ball_moment_radius_scaling_independent_seeds():
    (unit,) = mc_ball_moment(2, [(1, 1)], 1.0, SAMPLES, 304)
    (half,) = mc_ball_moment(2, [(1, 1)], 0.5, SAMPLES, 305)
    scale = 0.5 ** (2 * (2 + 1))
    combined_se = math.hypot(half.std_error, scale * unit.std_error)
    assert abs(half.mean - scale * unit.mean) < 4 * combined_se


def test_mc_cpn_average_agreement():
    for n, k in [(1, 1), (2, 1), (2, 2)]:
        exact = float(cpn_q(n, k)) * math.pi**k / math.factorial(k)
        (est,) = mc_cpn_average(n, [k], SAMPLES, 306)
        assert est.sigma_distance(exact) < 4, (n, k, est)


def test_mc_blowup_small_weight_matches_cpn():
    (cpn,) = mc_cpn_average(2, [1], SAMPLES, 307)
    (blowup,) = mc_blowup_average(2, [1], 0.01, SAMPLES, 308)
    combined_se = math.hypot(cpn.std_error, blowup.std_error)
    assert abs(cpn.mean - blowup.mean) < 4 * combined_se


def test_mc_blowup_agreement_at_half_weight():
    for n, k in [(2, 1), (2, 2)]:
        exact = float(blowup_at_weight(n, k, Fraction(1, 2))) * math.pi**k
        (est,) = mc_blowup_average(n, [k], 0.5, SAMPLES, 309)
        assert est.sigma_distance(exact) < 4, (n, k, est)


def test_estimates_are_deterministic_and_seed_sensitive():
    samples = CHUNK_SIZE // 2 + 17  # n = 2 draws chunks of CHUNK_SIZE // 2: crosses an edge
    a = mc_ball_moment(2, [(2, 1)], 1.0, samples, 310)
    b = mc_ball_moment(2, [(2, 1)], 1.0, samples, 310)
    c = mc_ball_moment(2, [(2, 1)], 1.0, samples, 311)
    assert a == b
    assert a[0].mean != c[0].mean


def test_grid_estimate_equals_its_one_integrand_estimates():
    # Every integrand keeps its own sums, so sharing the stream (and a column
    # of partial moduli) with others changes no bit of its estimate: ball
    # moments, a CP^n average and a blow-up average (the one with a cutoff),
    # across a chunk edge.
    n, samples, seed = 3, CHUNK_SIZE // 3 + 17, 312
    integrands = [
        (1, 3, 0.0, math.pi**3 / 6),
        (2, 2, 0.0, math.pi**2 / 2),
        (1, 1, 0.5, math.pi / (1 - 0.5**6)),
        (2, 1, 0.0, math.pi**3 / 6),
    ]
    grid = montecarlo._estimate(n, 1.0, integrands, samples, seed)
    assert len(grid) == len(integrands)
    for integrand, est in zip(integrands, grid):
        assert montecarlo._estimate(n, 1.0, [integrand], samples, seed) == [est]
    assert len({est.mean for est in grid}) == len(grid)
    assert mc_blowup_average(3, [1, 2, 3], 0.5, samples, seed)[0] == grid[2]
    assert mc_ball_moment(3, [(1, 3), (2, 1)], 1.0, samples, seed) == [grid[0], grid[3]]

    # One column read with k out of order, at one k with and without a
    # cutoff, and two cutoffs: every integrand reads its column's shared
    # powers and its cutoff's shared mask, and still changes no bit.
    integrands = [
        (1, 3, 0.0, 1.0),
        (1, 1, 0.0, 1.0),
        (1, 2, 0.5, 1.0),
        (1, 2, 0.0, 1.0),
        (3, 2, 0.25, 1.0),
        (1, 1, 0.5, 1.0),
    ]
    grid = montecarlo._estimate(n, 1.0, integrands, samples, seed)
    for integrand, est in zip(integrands, grid):
        assert montecarlo._estimate(n, 1.0, [integrand], samples, seed) == [est], integrand
    assert len({est.mean for est in grid}) == len(grid)


def test_high_powers_match_pow_in_bounded_memory():
    # Powers are products alone: they agree with NumPy's pow to rounding, and
    # a high degree holds a few arrays, not one per power.
    samples, seed = 4096, 314  # one chunk at n = 1
    partial, _ = sample_ball(1, 1.0, np.random.default_rng(seed), samples)
    for k in [*range(1, 18), 1000, 30001]:
        (est,) = montecarlo._estimate(1, 1.0, [(1, k, 0.0, 1.0)], samples, seed)
        assert math.isclose(est.mean, float(np.mean(partial[:, 0] ** k)), rel_tol=1e-10), k
    tracemalloc.start()
    try:
        montecarlo._estimate(1, 1.0, [(1, 1000, 0.0, 1.0)], samples, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * samples, peak


def test_chunk_memory_does_not_grow_with_dimension(monkeypatch):
    sizes = []

    def spy(n, r0, rng, size):
        sizes.append(size)
        assert size * 2 * n <= 2 * CHUNK_SIZE, (n, size)
        partial, total = sample_ball(n, r0, rng, size)
        held = partial if partial.base is None else partial.base
        assert held.size <= CHUNK_SIZE, (n, size)
        return partial, total

    monkeypatch.setattr(montecarlo, "sample_ball", spy)
    (est,) = mc_ball_moment(170, [(1, 1)], 1.0, 2000, 1)
    assert sum(sizes) == est.samples == 2000
    assert len(sizes) > 1


@pytest.mark.parametrize(
    "check",
    [
        verify.check_ball_moments,
        verify.check_cpn_monte_carlo,
        lambda samples: verify.check_blowup(n_max=2, samples=samples),
    ],
    ids=["ball-moments", "cpn-monte-carlo", "blowup"],
)
def test_each_mc_check_draws_one_stream_per_dimension(monkeypatch, check):
    draws = {}

    def spy(n, r0, rng, size):
        draws.setdefault(n, {}).setdefault(id(rng), 0)
        draws[n][id(rng)] += size
        return sample_ball(n, r0, rng, size)

    monkeypatch.setattr(montecarlo, "sample_ball", spy)
    samples = 1000
    assert check(samples=samples).passed
    assert {n: list(streams.values()) for n, streams in draws.items()} == {
        n: [samples] for n in range(1, verify.MC_N_MAX + 1)
    }


def test_parameter_validation():
    # The same rules and message texts as the exact routes (combinatorics,
    # morphism and the CLI).
    with pytest.raises(ValueError, match="l must satisfy 1 <= l <= n, got l=2 with n=1"):
        mc_ball_moment(1, [(2, 1)], 1.0, 10, 0)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        mc_ball_moment(1, [(1, 0)], 1.0, 10, 0)
    with pytest.raises(ValueError, match="r0 must be > 0, got 0.0"):
        mc_ball_moment(1, [(1, 1)], 0.0, 10, 0)
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        mc_ball_moment(1, [(1, 1)], 1.0, 0, 0)
    with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\), got 1.0"):
        mc_blowup_average(2, [1], 1.0, 10, 0)
    with pytest.raises(ValueError, match="k must satisfy 1 <= k <= n, got k=3 with n=2"):
        mc_cpn_average(2, [3], 10, 0)
    with pytest.raises(ValueError, match="n must be >= 1, got n=0"):
        mc_blowup_average(0, [1], 0.5, 10, 0)
    with pytest.raises(ValueError, match="l must satisfy 1 <= l <= n, got l=2 with n=1"):
        mc_ball_moment(1, [(1, 1), (2, 1)], 1.0, 10, 0)
    with pytest.raises(ValueError, match="k must satisfy 1 <= k <= n, got k=3 with n=2"):
        mc_blowup_average(2, [1, 3], 0.5, 10, 0)
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= n, got m=3 with n=2"):
        montecarlo._estimate(2, 1.0, [(1, 1, 0.0, 1.0), (3, 1, 0.0, 1.0)], 10, 0)
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= n, got m=0 with n=2"):
        montecarlo._estimate(2, 1.0, [(0, 1, 0.0, 1.0)], 10, 0)
    rng = np.random.Generator(np.random.PCG64(5))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        sample_ball(0, 1.0, rng, 4)
    with pytest.raises(ValueError, match="r0 must be > 0, got -1.0"):
        sample_ball(1, -1.0, rng, 4)


def test_sigma_distance_degenerate_cases():
    est = McEstimate(mean=1.0, std_error=0.0, samples=1, seed=0)
    assert est.sigma_distance(1.0) == 0.0
    assert est.sigma_distance(2.0) == math.inf


def test_mc_row_applies_the_sigma_band():
    est = McEstimate(mean=1.0, std_error=0.25, samples=100, seed=7)
    inside = mc_row({"n": 1}, est, 1.5)
    assert inside == {
        "n": 1, "exact": 1.5, "mean": 1.0, "std_error": 0.25, "seed": 7, "sigma": 2.0, "ok": True
    }
    assert mc_row({}, est, 2.0)["sigma"] == SIGMA_BAND
    assert mc_row({}, est, 2.0)["ok"] is False
