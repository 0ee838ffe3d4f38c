"""Monte Carlo oracles: distribution sanity, determinism, 4-sigma agreement.

Sample counts here are 10^5 for speed; the acceptance suite runs the full
10^6-sample grid.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from weincalc.combinatorics import ball_moment_exact
from weincalc.montecarlo import (
    CHUNK_SIZE,
    McEstimate,
    mc_ball_moment,
    mc_blowup_average,
    mc_cpn_average,
    sample_ball,
)
from weincalc.morphism import blowup_weinstein, cpn_q
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


@pytest.mark.parametrize(
    "n, m, r0", [(1, 1, 1.0), (2, 1, 1.0), (3, 2, 0.5), (5, 3, 2.0), (6, 6, 1.0)]
)
def test_sample_ball_matches_point_matrix_reference(n, m, r0):
    part, total = sample_ball(n, m, r0, np.random.Generator(np.random.PCG64(41)), 4096)
    ref_part, ref_total = reference_squared_moduli(
        n, m, r0, np.random.Generator(np.random.PCG64(41)), 4096
    )
    np.testing.assert_allclose(part, ref_part, rtol=1e-12, atol=0)
    np.testing.assert_allclose(total, ref_total, rtol=1e-12, atol=0)


def test_sample_ball_stays_inside():
    rng = np.random.Generator(np.random.PCG64(5))
    for n, m, r0 in [(1, 1, 1.0), (3, 2, 0.5), (5, 5, 2.0)]:
        part, total = sample_ball(n, m, r0, rng, 2000)
        assert part.shape == total.shape == (2000,)
        assert np.all(0 <= part) and np.all(part <= total)
        assert np.all(total < r0 * r0)


def test_sample_ball_fixed_seed_is_bit_identical():
    a = sample_ball(2, 1, 1.0, np.random.Generator(np.random.PCG64(77)), 512)
    b = sample_ball(2, 1, 1.0, np.random.Generator(np.random.PCG64(77)), 512)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_ball_mean_squared_norm():
    # E[|z|^2] over the unit disk: int r^2 * 2 pi r dr / pi = 1/2.
    rng = np.random.Generator(np.random.PCG64(11))
    _, sq = sample_ball(1, 1, 1.0, rng, SAMPLES)
    se = sq.std(ddof=1) / math.sqrt(SAMPLES)
    assert abs(sq.mean() - 0.5) < 4 * se


def test_mc_ball_moment_spot_values():
    for (n, l, k), exact in [
        ((1, 1, 1), math.pi / 2),
        ((2, 1, 1), math.pi**2 / 6),
        ((1, 1, 2), math.pi / 3),
    ]:
        est = mc_ball_moment(n, l, k, 1.0, SAMPLES, 301)
        assert est.sigma_distance(exact) < 4, (n, l, k, est)


def test_mc_ball_moment_matches_exact_general_case():
    coeff, pi_exp = ball_moment_exact(3, 2, 2)
    exact = float(coeff) * math.pi**pi_exp
    est = mc_ball_moment(3, 2, 2, 1.0, SAMPLES, 302)
    assert est.sigma_distance(exact) < 4


def test_mc_ball_moment_radius_scaling_same_seed():
    # With identical streams the radius-r0 estimate is exactly the unit
    # estimate times r0^(2(n+k)), up to float rounding.
    unit = mc_ball_moment(2, 1, 2, 1.0, SAMPLES, 303)
    doubled = mc_ball_moment(2, 1, 2, 2.0, SAMPLES, 303)
    assert math.isclose(doubled.mean, unit.mean * 2 ** (2 * (2 + 2)), rel_tol=1e-9)


def test_mc_ball_moment_radius_scaling_independent_seeds():
    unit = mc_ball_moment(2, 1, 1, 1.0, SAMPLES, 304)
    half = mc_ball_moment(2, 1, 1, 0.5, SAMPLES, 305)
    scale = 0.5 ** (2 * (2 + 1))
    combined_se = math.hypot(half.std_error, scale * unit.std_error)
    assert abs(half.mean - scale * unit.mean) < 4 * combined_se


def test_mc_cpn_average_agreement():
    for n, k in [(1, 1), (2, 1), (2, 2)]:
        exact = float(cpn_q(n, k)) * math.pi**k / math.factorial(k)
        est = mc_cpn_average(n, k, SAMPLES, 306)
        assert est.sigma_distance(exact) < 4, (n, k, est)


def test_mc_blowup_small_weight_matches_cpn():
    cpn = mc_cpn_average(2, 1, SAMPLES, 307)
    blowup = mc_blowup_average(2, 1, 0.01, SAMPLES, 308)
    combined_se = math.hypot(cpn.std_error, blowup.std_error)
    assert abs(cpn.mean - blowup.mean) < 4 * combined_se


def test_mc_blowup_agreement_at_half_weight():
    for n, k in [(2, 1), (2, 2)]:
        f = blowup_weinstein(n, k).value.components[k]
        exact = float(f.evaluate(Fraction(1, 4))) * math.pi**k
        est = mc_blowup_average(n, k, 0.5, SAMPLES, 309)
        assert est.sigma_distance(exact) < 4, (n, k, est)


def test_estimates_are_deterministic_and_seed_sensitive():
    a = mc_ball_moment(2, 2, 1, 1.0, CHUNK_SIZE + 17, 310)  # crosses a chunk edge
    b = mc_ball_moment(2, 2, 1, 1.0, CHUNK_SIZE + 17, 310)
    c = mc_ball_moment(2, 2, 1, 1.0, CHUNK_SIZE + 17, 311)
    assert a == b
    assert a.mean != c.mean


def test_parameter_validation():
    # The same rules and message texts as the exact routes (combinatorics,
    # morphism and the CLI).
    with pytest.raises(ValueError, match="l must satisfy 1 <= l <= n, got l=2 with n=1"):
        mc_ball_moment(1, 2, 1, 1.0, 10, 0)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        mc_ball_moment(1, 1, 0, 1.0, 10, 0)
    with pytest.raises(ValueError, match="r0 must be > 0, got 0.0"):
        mc_ball_moment(1, 1, 1, 0.0, 10, 0)
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        mc_ball_moment(1, 1, 1, 1.0, 0, 0)
    with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\), got 1.0"):
        mc_blowup_average(2, 1, 1.0, 10, 0)
    with pytest.raises(ValueError, match="k must satisfy 1 <= k <= n, got k=3 with n=2"):
        mc_cpn_average(2, 3, 10, 0)
    with pytest.raises(ValueError, match="n must be >= 1, got n=0"):
        mc_blowup_average(0, 1, 0.5, 10, 0)
    rng = np.random.Generator(np.random.PCG64(5))
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= n, got m=1 with n=0"):
        sample_ball(0, 1, 1.0, rng, 4)
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= n, got m=3 with n=2"):
        sample_ball(2, 3, 1.0, rng, 4)
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= n, got m=0 with n=2"):
        sample_ball(2, 0, 1.0, rng, 4)
    with pytest.raises(ValueError, match="r0 must be > 0, got -1.0"):
        sample_ball(1, 1, -1.0, rng, 4)


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
