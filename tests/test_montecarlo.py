"""Monte Carlo oracles: distribution sanity, determinism, agreement within the band.

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
from weincalc.exactarith import ParameterError, times_pi_power
from weincalc.montecarlo import (
    BLOCK_NORMALS,
    CHUNK_SIZE,
    BAND_DELTA,
    McEstimate,
    mc_ball_moment,
    mc_blowup_average,
    mc_cpn_average,
    mc_row,
    sample_ball,
)
from weincalc.morphism import blowup_at_weight, cpn_q

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


def one_draw_points(n, r0, rng, size):
    """The sampler before its normals came in blocks: one (size, 2n) draw,
    then the radius uniforms U, and the same arithmetic on whole arrays.
    Returns the partial moduli, |z|^2 and U."""
    squares = rng.standard_normal((size, 2 * n))
    uniforms = rng.random(size)
    total = r0 * r0 * uniforms ** (1.0 / n)
    np.square(squares, out=squares)
    moduli = np.add(squares[:, 0::2].T, squares[:, 1::2].T, order="C")
    for j in range(1, n):
        moduli[j] += moduli[j - 1]
    moduli[:-1] *= total / moduli[-1]
    moduli[-1] = total
    return moduli.T, total, uniforms


def one_draw_estimates(n, r0, integrands, samples, seed, dims=None):
    """_estimate's contract with one_draw_points, written out per integrand:
    chunks of CHUNK_SIZE // n samples of the n-ball, the d-ball point nested
    in each (|z|^2_d = r0^2 U^(1/d), the partial moduli m < d scaled by
    |z|^2_d / P_d), the power as the plain product chain (k <= 3), the cutoff
    as a product with the mask, and the sums reduced in chunk order."""
    rng = np.random.default_rng(seed)
    rows = max(1, CHUNK_SIZE // n)
    sums = [[0.0, 0.0] for _ in integrands]
    for start in range(0, samples, rows):
        points = one_draw_points(n, r0, rng, min(rows, samples - start))
        for (m, k, cutoff, _), d, running in zip(integrands, dims or [n] * len(integrands), sums):
            partial, total, uniforms = points
            if d < n:
                total = r0 * r0 * uniforms ** (1.0 / d)
                partial = np.column_stack(
                    [partial[:, j] * (total / partial[:, d - 1]) for j in range(d - 1)] + [total]
                )
            values = partial[:, m - 1]
            for _ in range(k - 1):
                values = values * partial[:, m - 1]
            if cutoff:
                values = values * (total > cutoff * cutoff)
            running[0] += float(values.sum())
            running[1] += float(np.square(values).sum())
    estimates = []
    log_term = math.log(2 / BAND_DELTA)
    for (total, total_sq), (_, k, _, scale) in zip(sums, integrands):
        mean = total / samples
        variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        band = scale * (
            math.sqrt(2 * variance * log_term / samples)
            + 7 * r0 ** (2 * k) * log_term / (3 * (samples - 1))
        )
        estimates.append(McEstimate(
            scale * mean, scale * math.sqrt(variance / samples), band, samples, seed
        ))
    return estimates


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_sample_ball_is_bit_identical_to_one_draw(n):
    # Sizes at a block edge, one whole chunk, and more than a chunk.
    rows = max(1, BLOCK_NORMALS // (2 * n))
    chunk = CHUNK_SIZE // n
    for size in (1, rows - 1, rows, rows + 1, chunk, chunk + rows + 1):
        rng, reference = np.random.default_rng(61), np.random.default_rng(61)
        partial, total = sample_ball(n, 0.75, rng, size)
        want_partial, want_total, _ = one_draw_points(n, 0.75, reference, size)
        assert partial.shape == want_partial.shape == (size, n)
        assert np.array_equal(partial, want_partial), size
        assert np.array_equal(total, want_total), size
        assert rng.random() == reference.random(), size  # the same draws consumed


@pytest.mark.parametrize("n", [1, 3])
def test_estimate_is_bit_identical_to_one_draw_accumulation(n):
    integrands = [(1, 1, 0.5, 2.0), (n, n, 0.5, 1.0), (n, 3, 0.0, 1.0), (1, 2, 0.25, 3.0)]
    samples = 2 * (CHUNK_SIZE // n) + 17  # two whole chunks and a tail
    got = montecarlo._estimate(n, 0.75, integrands, samples, 62)
    assert got == one_draw_estimates(n, 0.75, integrands, samples, 62)


def test_a_stream_holds_about_two_chunks_of_floats():
    # A stream holds its (n, size) moduli, the radii, one block of normals
    # and the accumulation's arrays, where it held three and more chunks'
    # worth before the trim.
    mc_cpn_average(1, [1], 100, 1)  # NumPy's own first-use allocations
    for n in (1, 2, 3, 7):
        for estimate in (
            lambda: mc_cpn_average(n, range(1, n + 1), 3 * CHUNK_SIZE, 63),
            lambda: mc_blowup_average(n, range(1, n + 1), 0.5, 3 * CHUNK_SIZE, 63),
        ):
            tracemalloc.start()
            try:
                estimate()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.75 * 8 * CHUNK_SIZE, (n, peak)


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
        assert mc_row({}, est, exact)["ok"], (n, l, k, est)


def test_mc_ball_moment_matches_exact_general_case():
    coeff, pi_exp = ball_moment_exact(3, 2, 2)
    exact = float(coeff) * math.pi**pi_exp
    (est,) = mc_ball_moment(3, [(2, 2)], 1.0, SAMPLES, 302)
    assert mc_row({}, est, exact)["ok"]


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
        assert mc_row({}, est, exact)["ok"], (n, k, est)


def test_mc_blowup_small_weight_matches_cpn():
    (cpn,) = mc_cpn_average(2, [1], SAMPLES, 307)
    (blowup,) = mc_blowup_average(2, [1], 0.01, SAMPLES, 308)
    combined_se = math.hypot(cpn.std_error, blowup.std_error)
    assert abs(cpn.mean - blowup.mean) < 4 * combined_se


def test_mc_blowup_agreement_at_half_weight():
    for n, k in [(2, 1), (2, 2)]:
        exact = float(blowup_at_weight(n, k, Fraction(1, 2))) * math.pi**k
        (est,) = mc_blowup_average(n, [k], 0.5, SAMPLES, 309)
        assert mc_row({}, est, exact)["ok"], (n, k, est)


def test_cpn_grid_is_the_blowup_grid_with_no_ball_removed():
    # One trace-volume builder: with no weight the cutoff is 0 and the scale
    # the unit-ball volume pi^k/k! of C^k; a weight cuts out its ball and
    # divides by the remaining volume share, nothing else.
    for n in (1, 3, 9):
        degrees = range(1, n + 1)
        cpn = montecarlo.trace_volume_integrands(n, degrees)
        assert cpn == [
            (k, k, 0.0, times_pi_power(Fraction(1, math.factorial(k)), math.pi**k)) for k in degrees
        ]
        share = 1.0 - 0.5 ** (2 * n)
        assert montecarlo.trace_volume_integrands(n, degrees, 0.5) == [
            (k, k, 0.5, scale / share) for k, _, _, scale in cpn
        ]


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
    # cutoff, two cutoffs, and one integrand listed twice at two scales:
    # every integrand reads its column's shared powers, its cutoff's shared
    # mask and, at another scale, the same pair of sums, and still changes
    # no bit.
    integrands = [
        (1, 3, 0.0, 1.0),
        (1, 1, 0.0, 1.0),
        (1, 2, 0.5, 1.0),
        (1, 2, 0.0, 1.0),
        (3, 2, 0.25, 1.0),
        (1, 1, 0.5, 1.0),
        (1, 2, 0.5, 3.0),
    ]
    grid = montecarlo._estimate(n, 1.0, integrands, samples, seed)
    for integrand, est in zip(integrands, grid):
        assert montecarlo._estimate(n, 1.0, [integrand], samples, seed) == [est], integrand
    assert len({est.mean for est in grid}) == len(grid)
    once = grid[2]
    assert grid[-1] == McEstimate(3 * once.mean, 3 * once.std_error, 3 * once.band, samples, seed)


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

    def spy(n, r0, rng, size, *buffers):
        sizes.append(size)
        assert size * 2 * n <= 2 * CHUNK_SIZE, (n, size)
        partial, total = sample_ball(n, r0, rng, size, *buffers)
        held = partial if partial.base is None else partial.base
        assert held.size <= CHUNK_SIZE, (n, size)
        return partial, total

    monkeypatch.setattr(montecarlo, "sample_ball", spy)
    (est,) = mc_ball_moment(170, [(1, 1)], 1.0, 2000, 1)
    assert sum(sizes) == est.samples == 2000
    assert len(sizes) > 1


@pytest.mark.parametrize(
    "suite, samples",
    [
        (lambda: [verify.check_ball_moments(verify.draw_mc_pass(1000))], 1000),
        (lambda: [verify.check_cpn_monte_carlo(verify.draw_mc_pass(1000))], 1000),
        (lambda: [verify.check_blowup(verify.draw_mc_pass(1000), n_max=2)], 1000),
        (lambda: verify.run_all(quick=True), 10**5),
    ],
    ids=["ball-moments", "cpn-monte-carlo", "blowup", "run_all"],
)
def test_each_mc_check_draws_one_stream_per_dimension(monkeypatch, suite, samples):
    # One stream of MC_N_MAX-ball points, seeded BASE_SEED + 100 MC_N_MAX,
    # serves every dimension n <= MC_N_MAX of the three Monte Carlo checks:
    # each reads the pass it is given and draws no stream of its own, and the
    # suite adds only mc-determinism's own repeated streams.
    streams = {}  # id(rng) -> [rng, seed, n, points drawn]; rng kept alive
    default_rng = np.random.default_rng

    def seeded(seed):
        rng = default_rng(seed)
        streams[id(rng)] = [rng, seed, None, 0]
        return rng

    def spy(n, r0, rng, size, *buffers):
        stream = streams[id(rng)]
        assert stream[2] in (None, n)
        stream[2:] = [n, stream[3] + size]
        return sample_ball(n, r0, rng, size, *buffers)

    monkeypatch.setattr(np.random, "default_rng", seeded)
    monkeypatch.setattr(montecarlo, "sample_ball", spy)
    monkeypatch.setattr(verify, "sample_ball", spy)
    results = suite()
    assert all(result.passed for result in results)
    top = verify.MC_N_MAX
    expected = [(top, verify.BASE_SEED + 100 * top, samples)]
    if len(results) > 1:  # mc-determinism: two estimates and two short draws
        expected += [(2, verify.BASE_SEED + 3000, verify.MC_DETERMINISM_SAMPLES)] * 2
        expected += [(3, verify.BASE_SEED + 3000, 64)] * 2
    drawn = [(n, seed, size) for _, seed, n, size in streams.values()]
    assert sorted(drawn) == sorted(expected)


def test_mc_determinism_crosses_one_chunk_boundary(monkeypatch):
    # Each of its two n = 2 estimates draws one full chunk and then one
    # partial chunk into the same buffers, the path where a stale read of a
    # reused buffer would break the repeat; the 64-point draws are direct.
    sizes = []

    def spy(n, r0, rng, size, *buffers):
        sizes.append((n, size, len(buffers[0].radii) if buffers else None))
        return sample_ball(n, r0, rng, size, *buffers)

    monkeypatch.setattr(montecarlo, "sample_ball", spy)
    monkeypatch.setattr(verify, "sample_ball", spy)
    assert verify.check_mc_determinism().passed
    chunk = montecarlo.CHUNK_SIZE // 2
    partial = verify.MC_DETERMINISM_SAMPLES - chunk
    assert 0 < partial < chunk
    assert sizes == [(2, chunk, chunk), (2, partial, chunk)] * 2 + [(3, 64, None)] * 2


def test_shared_pass_equals_the_oracles_at_its_seeds():
    # The pass draws one stream at n = MC_N_MAX and labels each estimate with
    # its row's parameters.  Every row's estimate is, bit for bit, the one
    # computed from those parameters alone: at n = MC_N_MAX by its oracle at
    # seed BASE_SEED + 100 MC_N_MAX, below by the one-draw reference with the
    # n-ball point nested in the top one.  So a mislabelled row fails.
    samples = CHUNK_SIZE // verify.MC_N_MAX + 17  # across a chunk edge
    mc_pass = verify.draw_mc_pass(samples)
    assert mc_pass.samples == samples
    top, seed = verify.MC_N_MAX, verify.BASE_SEED + 100 * verify.MC_N_MAX
    pairs = [(n, k) for n in range(1, top + 1) for k in range(1, n + 1)]
    moments = [(n, l, k) for n in range(1, top + 1) for l in range(1, n + 1)
               for k in range(1, verify.MOMENT_K_MAX + 1)]
    assert [params for params, _ in mc_pass.ball_moments] == [
        {"n": n, "l": l, "k": k} for n, l, k in moments
    ]
    assert [params for params, _ in mc_pass.cpn] == [{"n": n, "k": k} for n, k in pairs]
    assert [params for params, _ in mc_pass.blowup] == [
        {"n": n, "k": k, "rho": "1/2"} for n, k in pairs
    ]

    def rho(params):
        return float(Fraction(params["rho"]))

    routes = {  # check -> (the row's integrands, its oracle)
        "ball_moments": (
            lambda p: montecarlo.ball_moment_integrands(p["n"], [(p["l"], p["k"])], 1.0),
            lambda p: mc_ball_moment(p["n"], [(p["l"], p["k"])], 1.0, samples, seed),
        ),
        "cpn": (
            lambda p: montecarlo.trace_volume_integrands(p["n"], [p["k"]]),
            lambda p: mc_cpn_average(p["n"], [p["k"]], samples, seed),
        ),
        "blowup": (
            lambda p: montecarlo.trace_volume_integrands(p["n"], [p["k"]], rho(p)),
            lambda p: mc_blowup_average(p["n"], [p["k"]], rho(p), samples, seed),
        ),
    }
    for check, (integrands, oracle) in routes.items():
        for params, got in getattr(mc_pass, check):
            n = params["n"]
            if n == top:
                want = oracle(params)
            else:
                want = one_draw_estimates(top, 1.0, integrands(params), samples, seed, [n])
            assert [got] == want, (check, params)


def test_the_pass_forms_one_pair_of_sums_per_distinct_integrand(monkeypatch):
    # Each CP^n row at (n, k) is the ball-moment row at (n, l = k, k) at
    # another scale, so the 30 rows of the pass read 24 pairs of sums.
    pairs = []

    def spy(groups, *args):
        pairs.append(sum(len(cutoffs) for g in groups.values() for ks in g.values()
                         for cutoffs in ks.values()))
        return accumulate(groups, *args)

    accumulate = montecarlo._accumulate
    monkeypatch.setattr(montecarlo, "_accumulate", spy)
    mc_pass = verify.draw_mc_pass(1000)
    assert sum(len(rows) for rows in mc_pass[1:]) == 30
    assert pairs == [24]


def test_each_check_alone_equals_its_share_of_run_all():
    suite = {result.name: result for result in verify.run_all(quick=True)}
    mc_pass = verify.draw_mc_pass(10**5)
    assert verify.check_ball_moments(mc_pass) == suite["ball-moments"]
    assert verify.check_cpn_monte_carlo(mc_pass) == suite["cpn-monte-carlo"]
    assert verify.check_blowup(mc_pass, n_max=4) == suite["blowup"]


def test_estimate_allocates_its_chunk_arrays_once(monkeypatch):
    # The arrays of a chunk are allocated once per call and refilled, so five
    # chunks allocate as many chunk-sized arrays (through np.empty and its
    # kin) as one, for an oracle's grid and for verify's nested pass.
    chunk = CHUNK_SIZE // verify.MC_N_MAX
    integrands = [(1, 1, 0.0, 1.0), (2, 2, 0.5, 1.0), (3, 3, 0.0, 1.0)]
    counts = []
    for samples in (chunk, 5 * chunk):
        allocated = []
        for name in ("empty", "empty_like", "zeros"):

            def counting(*args, _original=getattr(np, name), **kwargs):
                array = _original(*args, **kwargs)
                allocated.append(array.size)
                return array

            monkeypatch.setattr(np, name, counting)
        montecarlo._estimate(verify.MC_N_MAX, 1.0, integrands, samples, 64)
        verify.draw_mc_pass(samples)
        monkeypatch.undo()
        counts.append(sum(size >= chunk for size in allocated))
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_parameter_validation(refuses):
    # The same rules and message texts as the exact routes (combinatorics,
    # morphism and the CLI).
    refuses(lambda: mc_ball_moment(1, [(2, 1)], 1.0, 10, 0), "must satisfy 1 <= l <= n", l=2, n=1)
    refuses(lambda: mc_ball_moment(1, [(1, 0)], 1.0, 10, 0), "must be >= 1", k=0)
    refuses(lambda: mc_ball_moment(1, [(1, 1)], 0.0, 10, 0), "must be > 0", r0=0.0)
    for samples in (0, 1):  # one sample has no standard error
        refuses(lambda: mc_ball_moment(1, [(1, 1)], 1.0, samples, 0), "must be >= 2",
                samples=samples)
    for oracle in (
        lambda seed: mc_ball_moment(1, [(1, 1)], 1.0, 10, seed),
        lambda seed: mc_cpn_average(1, [1], 10, seed),
        lambda seed: mc_blowup_average(1, [1], 0.5, 10, seed),
    ):
        refuses(lambda: oracle(-1), "must be >= 0", seed=-1)
    refuses(lambda: mc_blowup_average(2, [1], 1.0, 10, 0), "must lie in (0, 1)", rho=1.0)
    refuses(lambda: mc_cpn_average(2, [3], 10, 0), "must satisfy 1 <= k <= n", k=3, n=2)
    refuses(lambda: mc_blowup_average(0, [1], 0.5, 10, 0), "must be >= 1", n=0)
    refuses(lambda: mc_ball_moment(1, [(1, 1), (2, 1)], 1.0, 10, 0), "must satisfy 1 <= l <= n",
            l=2, n=1)
    refuses(lambda: mc_blowup_average(2, [1, 3], 0.5, 10, 0), "must satisfy 1 <= k <= n",
            k=3, n=2)
    # pi^k/k! is finite at k = 650, but pi^650 alone is not.
    refuses(lambda: mc_cpn_average(700, [650], 10, 0), "pi^650 exceeds the float range", k=650)
    refuses(lambda: mc_blowup_average(700, [1, 650], 0.5, 10, 0),
            "pi^650 exceeds the float range", k=650)
    for m in (3, 0):
        refuses(lambda: montecarlo._estimate(2, 1.0, [(1, 1, 0.0, 1.0), (m, 1, 0.0, 1.0)], 10, 0),
                "must satisfy 1 <= m <= n", m=m, n=2)
    # A nested ball lies inside the drawn one, and a column inside its ball.
    refuses(lambda: montecarlo._estimate(2, 1.0, [(1, 1, 0.0, 1.0)], 10, 0, [3]),
            "must satisfy 1 <= d <= n", d=3, n=2)
    refuses(lambda: montecarlo._estimate(3, 1.0, [(2, 1, 0.0, 1.0)], 10, 0, [1]),
            "must satisfy 1 <= m <= n", m=2, n=1)
    rng = np.random.Generator(np.random.PCG64(5))
    refuses(lambda: sample_ball(0, 1.0, rng, 4), "must be >= 1", n=0)
    refuses(lambda: sample_ball(1, -1.0, rng, 4), "must be > 0", r0=-1.0)


def test_every_oracle_refuses_work_above_the_cap_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr(montecarlo, "sample_ball", lambda *a: drawn.append(a))
    monkeypatch.setattr(montecarlo, "MAX_MC_WORK", 3000)
    for oracle in (
        lambda: mc_ball_moment(3, [(1, 1)], 1.0, 1001, 0),
        lambda: mc_cpn_average(3, [1], 1001, 0),
        lambda: mc_blowup_average(3, [1], 0.5, 1001, 0),
    ):
        with pytest.raises(ParameterError, match=r"^samples \* n must be <= 3000$") as refused:
            oracle()
        assert refused.value.params == {"samples": 1001, "n": 3}
    assert drawn == []


def test_mc_ball_moment_refuses_an_overflowing_volume(refuses):
    # pi^n r0^(2n) / n! is refused when it leaves the float range, and so is
    # an n whose pi^n does, but not when only n! or r0^(2n) alone would.
    for n, r0 in [(600, 15.2), (100, 1000.0)]:
        refuses(lambda: mc_ball_moment(n, [(1, 1)], r0, 10, 0),
                "the Monte Carlo ball volume overflows a float", n=n, r0=r0)
    refuses(lambda: mc_ball_moment(700, [(1, 1)], 1.0, 10, 0),
            "pi^700 exceeds the float range", n=700)
    for n, r0 in [(171, 1.0), (100, 40.0)]:
        (est,) = mc_ball_moment(n, [(1, 1)], r0, 10, 0)
        assert est.mean > 0


def test_mc_row_applies_the_band():
    # 100 samples of |z|^2 on the unit disk, uniform on [0, 1] (variance
    # about 1/12), at scale 2: L = ln(2 10^4) = 9.9035 and the band is
    # 2 (sqrt(2 V L / 100) + 7 L / (3 99)), about 2 (0.128 + 0.233) = 0.72.
    est = montecarlo._estimate(1, 1.0, [(1, 1, 0.0, 2.0)], 100, 7)[0]
    variance = (est.std_error / 2) ** 2 * 100
    log_term = math.log(20000)
    assert log_term == pytest.approx(9.903488)
    assert variance == pytest.approx(1 / 12, rel=0.3)
    want = 2 * (math.sqrt(2 * variance * log_term / 100) + 7 * log_term / 297)
    assert est.band == pytest.approx(want, rel=1e-12)
    assert est.band == pytest.approx(0.72, rel=0.05)
    assert mc_row({}, est, est.mean + est.band)["ok"] is True
    assert mc_row({}, est, est.mean + 1.01 * est.band)["ok"] is False


def test_band_distance_degenerate_cases():
    # A zero-variance draw (the cutoff r0 masks every sample out) has a zero
    # standard error, but its band keeps the range term 7 R L / (3 (N - 1)),
    # so every distance stays finite at the smallest count, N = 2.
    (est,) = montecarlo._estimate(1, 1.0, [(1, 1, 1.0, 2.0)], 2, 7)
    assert (est.mean, est.std_error) == (0.0, 0.0)
    assert est.band == pytest.approx(2 * 7 * math.log(20000) / 3, rel=1e-12)
    assert mc_row({}, est, 0.0)["band_distance"] == 0.0
    assert mc_row({}, est, 2 * est.band)["band_distance"] == pytest.approx(2.0)
    assert mc_row({}, est, 2 * est.band)["ok"] is False


def test_mc_row_applies_the_band_it_is_given():
    # mc_row applies the band of the estimate it is given, and fails a row
    # whose standard error lies above band / sqrt(2 L), as no estimate of
    # _estimate does (test_every_band_is_wider_than_four_standard_errors).
    by_hand = McEstimate(mean=1.0, std_error=0.1, band=0.5, samples=100, seed=7)
    assert mc_row({"n": 1}, by_hand, 1.25) == {
        "n": 1, "exact": 1.25, "mean": 1.0, "std_error": 0.1, "band": 0.5, "seed": 7,
        "band_distance": 0.5, "ok": True,
    }
    assert mc_row({}, by_hand, 1.5)["band_distance"] == 1.0
    assert mc_row({}, by_hand, 1.5)["ok"] is True  # the edge is inside
    assert mc_row({}, by_hand, 0.25)["ok"] is False
    edge = 0.5 / math.sqrt(2 * math.log(2 / BAND_DELTA))
    assert mc_row({}, by_hand._replace(std_error=edge * (1 - 1e-9)), 1.0)["ok"] is True
    inflated = by_hand._replace(std_error=edge * (1 + 1e-9))
    assert mc_row({}, inflated, 1.0) == {
        "exact": 1.0, "mean": 1.0, "std_error": inflated.std_error, "band": 0.5, "seed": 7,
        "band_distance": 0.0, "ok": False,
    }


def test_every_band_is_wider_than_four_standard_errors():
    # band >= sqrt(2 L) standard errors = 4.45 > 4: each row that the band
    # fails lay outside 4 sigma too, so no row passing the 4-sigma rule fails.
    floor = math.sqrt(2 * math.log(2 / BAND_DELTA))
    assert floor > 4.45
    rows = [est for check in verify.draw_mc_pass(2000)[1:] for _, est in check]
    rows += mc_ball_moment(3, [(1, 8), (3, 1)], 0.5, 500, 3)
    rows += mc_blowup_average(2, [1, 2], 0.5, 300, 4)
    assert len(rows) == 34
    assert all(est.band >= floor * est.std_error for est in rows)
