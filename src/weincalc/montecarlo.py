"""Monte Carlo oracles, independent of the exact formulas they cross-check.

Every oracle averages integrands scale * (|z_1|^2+...+|z_m|^2)^k times
[|z| > cutoff] over uniform points z of a ball in C^n.  The sampler returns
only the squared moduli these read: |z|^2 = r0^2 U^(1/n), and every partial
one |z_1|^2+...+|z_m|^2 as |z|^2 times the share of the first 2m of 2n
standard normals in their sum of squares (Muller's Gaussian directions, 1959;
rejection sampling is useless in 2n >= 8 dimensions).  Each integrand has
one builder, ball_moment_integrands or trace_volume_integrands (CP^n, and its
blow-up given a weight), which its oracles and verify's shared pass call.
An estimate agrees with its exact value within its empirical-Bernstein band
(McEstimate, mc_row), in verify's suite and in check_moment_mc, the
`moment --mc` check.

Determinism contract: an oracle call takes a grid of integrands and draws
every sample from one generator, numpy.random.default_rng(seed), as points
of the ball in C^n, in chunks of max(1, CHUNK_SIZE // n) samples that run
one after another.  An integrand may average over a ball in C^d with
d <= n (verify's pass draws every d <= 3 from one stream at n = 3): its
point is nested in the drawn one, the first 2d normals with the same radius
uniform U, so |z|^2_d = r0^2 U^(1/d) and the partial modulus m is
|z|^2_d S_m / S_d, S_m the sum of squares of the first 2m normals (computed
as P_m |z|^2_d / P_d from the n-ball's partial moduli P).  At d = n that is
the n-ball point itself.  Every integrand of the grid is evaluated on the
same points (common random numbers), with one pair of sums per distinct
(d, m, k, cutoff), reduced in chunk order; integrands that differ only in
scale read the same pair, and each gets its own standard error.  The
estimates of one call are therefore correlated, across d too.  An estimate
depends only on (n, d, r0, its integrand, samples, seed), not on the other
integrands of the grid.

Chunk memory does not grow with n (for n <= CHUNK_SIZE), and a call
allocates it once and refills it in every chunk (_Buffers): one (n, size)
buffer of at most CHUNK_SIZE partial moduli, one block of about
BLOCK_NORMALS normals, the `size` radii (until they become the last row of
the buffer; then the scratch array), the powers of one column that the grid
reads (one array of `size` floats per degree k), one mask per cutoff and,
for d < n, four more arrays of `size` floats.  The normals are drawn block
by block in the order of one (size, 2n) draw, so the block size changes no
bit.

NumPy is imported inside the functions that draw samples, so the exact
commands, which import this module through `cli`, never load it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .exactarith import (
    ParameterError,
    pi_power,
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
# 10^8 samples at n = 3, about 13 s of Monte Carlo (7.8 million samples per
# second at one integrand, one thread of a 2-core x86-64 box), and every
# sample count up to 10^8 at n <= 3.  Memory does not grow with it: a call
# holds one buffer of at most CHUNK_SIZE partial moduli, one block of normals
# and a few arrays of one chunk's floats.
MAX_MC_WORK = 3 * 10**8

# The seed of a `moment --mc` query that names none, and the base of verify's
# seeds.
BASE_SEED = 20250808

# The chance that an expected value lies above, or below, its estimate's band.
BAND_DELTA = 1e-4
_LOG_TERM = math.log(2 / BAND_DELTA)  # L of the McEstimate band

# The largest share of a moment that the range term 7 R L / (3 (N - 1)) of
# its band may take, checked before a `moment --mc` check draws its samples.
RANGE_SHARE_MAX = 0.1


class McEstimate(NamedTuple):
    """Monte Carlo estimate: sample mean, standard error, band and
    provenance.  The band is scale (sqrt(2 V L / N) + 7 R L / (3 (N - 1)))
    for N samples in [0, R] of sample variance V, R = r0^(2k) and
    L = ln(2 / BAND_DELTA): the expected value lies above mean + band, and
    below mean - band, with probability at most BAND_DELTA each, at every N
    (Maurer and Pontil, "Empirical Bernstein bounds and sample variance
    penalization", COLT 2009, Thm. 4)."""

    mean: float
    std_error: float
    band: float
    samples: int
    seed: int

    def to_json(self) -> dict:
        return self._asdict()


class _Buffers:
    """The arrays of one _estimate call, allocated once and refilled with
    out= in every chunk of at most `rows` samples, so that a call maps its
    memory once and not once per chunk: the (n, rows) partial moduli, one
    block of normals, the radii (the accumulation's scratch once a chunk is
    drawn), `powers` arrays for the powers of one column and one mask per
    cutoff.  With `nested`, also the radius uniforms U of the chunk and, for
    a ball of dimension d < n, its squared radii, the share |z|^2_d / P_d and
    one partial modulus."""

    def __init__(self, n: int, rows: int, powers: int = 0, cutoffs=(), nested: bool = False):
        import numpy as np

        self.moduli = np.empty((n, rows))
        self.block = np.empty((min(max(1, BLOCK_NORMALS // (2 * n)), rows), 2 * n))
        self.radii = np.empty(rows)
        self.powers = [np.empty(rows) for _ in range(powers)]
        self.masks = {cutoff: np.empty(rows, dtype=bool) for cutoff in cutoffs}
        self.uniforms, self.nested_radii, self.share, self.column = (
            [np.empty(rows) for _ in range(4)] if nested else [None] * 4
        )


def sample_ball(
    n: int, r0: float, rng: np.random.Generator, size: int, out: _Buffers | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(partial, total) for `size` uniform points of the open radius-r0 ball
    in C^n: partial[:, m-1] = |z_1|^2 + ... + |z_m|^2, of shape (size, n), and
    total = |z|^2.  Consumes the rng stream in a fixed order: the (size, 2n)
    normals, then the `size` radius uniforms.  `partial` is the transpose of
    an (n, size) array whose rows are contiguous, so each column m is
    contiguous, and `total` is its last column.  The arrays are views of
    `out`'s, written over by the next chunk, or of fresh ones; with
    out.uniforms, the uniforms stay there for the nested balls.
    """
    import numpy as np

    require_positive(n=n)
    require_radius(r0)
    if out is None:
        out = _Buffers(n, size)
    # moduli[j] = |z_1|^2 + ... + |z_(j+1)|^2 of the normals, z_j being the
    # real pair 2j-2, 2j-1; the normals of consecutive rows come one block
    # at a time, as one (size, 2n) draw would have filled them.
    moduli = out.moduli[:, :size]
    rows = len(out.block)
    for start in range(0, size, rows):
        squares = out.block[: size - start]
        rng.standard_normal(out=squares)
        np.square(squares, out=squares)
        np.add(squares[:, 0::2].T, squares[:, 1::2].T, out=moduli[:, start : start + rows])
    total = out.radii[:size]
    uniforms = total if out.uniforms is None else out.uniforms[:size]
    rng.random(out=uniforms)
    _squared_radii(uniforms, n, r0, total)
    for j in range(1, n):  # one contiguous row at a time
        moduli[j] += moduli[j - 1]
    np.divide(total, moduli[-1], out=moduli[-1])  # |z|^2 over the sum of squares
    moduli[:-1] *= moduli[-1]  # the shares times |z|^2
    moduli[-1] = total
    return moduli.T, moduli[-1]


def _squared_radii(uniforms: np.ndarray, d: int, r0: float, out: np.ndarray) -> np.ndarray:
    """r0^2 U^(1/d) into `out`, which may be `uniforms`: the squared radii of
    uniform points of the radius-r0 ball in C^d."""
    import numpy as np

    if out is not uniforms:
        np.copyto(out, uniforms)
    out **= 1.0 / d
    out *= r0 * r0
    return out


def _estimate(
    n: int,
    r0: float,
    integrands: Sequence[tuple[int, int, float, float]],
    samples: int,
    seed: int,
    dims: Sequence[int] | None = None,
) -> list[McEstimate]:
    """One estimate per integrand (m, k, cutoff, scale) of the module doc over
    the radius-r0 ball in C^d, d = dims[i] <= n for integrand i (n for all by
    default), all from one default_rng(seed) stream of points of the n-ball
    drawn in chunks of max(1, CHUNK_SIZE // n) samples, so memory stays
    bounded as n grows.  The d-ball point is the nested one of the module
    doc.  The chunk arrays are allocated once per call (_Buffers).  In each
    chunk the powers of a column and the mask of a cutoff are formed once
    and shared by the integrands that read them, and an integrand's values
    are the same bits whatever else the grid holds.  The sums run over the
    unscaled integrand, one pair per distinct (d, m, k, cutoff), and `scale`
    multiplies the mean, the standard error and the band once, so a tiny
    scale cannot underflow the sum of squares.
    The draw's rules (_require_draw) are checked before any sample is drawn,
    and so is the float range of samples r0^(4k), above every sum of squares."""
    _require_draw(n, samples, seed)
    top = max((k for _, k, _, _ in integrands), default=0)
    if math.log(samples) + 4 * top * math.log(r0) > math.log(sys.float_info.max):
        raise ParameterError(
            "the Monte Carlo sum of squares overflows a float", samples=samples, r0=r0, k=top
        )
    dims = [n] * len(integrands) if dims is None else dims
    keys = [(d, m, k, cutoff) for (m, k, cutoff, _), d in zip(integrands, dims, strict=True)]
    for d, m, _, _ in keys:
        require_within(n, d=d)
        require_within(d, m=m)
    # One [sum, sum of squares] per distinct (d, m, k, cutoff), the only
    # inputs of an integrand's values; groups holds the same pairs as
    # d -> {m -> {k -> {cutoff -> pair}}}.
    sums = {key: [0.0, 0.0] for key in keys}
    groups = {}
    for (d, m, k, cutoff), pair in sums.items():
        groups.setdefault(d, {}).setdefault(m, {}).setdefault(k, {})[cutoff] = pair
    import numpy as np

    chunk = max(1, CHUNK_SIZE // n)
    buffers = _Buffers(
        n,
        min(chunk, samples),
        powers=max((len(ks.keys() - {1}) for g in groups.values() for ks in g.values()), default=0),
        cutoffs={cutoff for _, _, cutoff, _ in integrands if cutoff},
        nested=any(d < n for d in groups),
    )
    rng = np.random.default_rng(seed)
    for start in range(0, samples, chunk):
        size = min(chunk, samples - start)
        partial, total = sample_ball(n, r0, rng, size, buffers)
        _accumulate(groups, buffers, r0, partial, total)
    estimates = []
    for key, (_, k, _, scale) in zip(keys, integrands):
        total, total_sq = sums[key]
        mean = total / samples
        variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        std_error = scale * math.sqrt(variance / samples)
        band = scale * (
            math.sqrt(2 * variance * _LOG_TERM / samples)
            + 7 * r0 ** (2 * k) * _LOG_TERM / (3 * (samples - 1))
        )
        estimates.append(McEstimate(scale * mean, std_error, band, samples, seed))
    return estimates


def _require_draw(n: int, samples: int, seed: int) -> None:
    """The rules of a draw, in this order: at least 2 samples, for a sample
    variance, at most MAX_MC_WORK / n, and a seed >= 0."""
    if samples < 2:
        raise ParameterError("must be >= 2", samples=samples)
    if samples * n > MAX_MC_WORK:
        raise ParameterError(f"samples * n must be <= {MAX_MC_WORK}", samples=samples, n=n)
    if seed < 0:
        raise ParameterError("must be >= 0", seed=seed)


def _accumulate(groups, buffers, r0, partial, norm_sq) -> None:
    """Add one chunk's sum and sum of squares to each pair of `groups`
    (_estimate's d -> {m -> {k -> {cutoff -> pair}}}).  For each ball
    dimension d, each column m gets one power per k that its pairs read, and
    each cutoff one mask; the pairs that read them share them.  At d < n the
    columns are those of the nested point: |z|^2_d = r0^2 U^(1/d) and
    P_m |z|^2_d / P_d for m < d."""
    import numpy as np

    size, n = partial.shape
    scratch = buffers.radii[:size]  # free: sample_ball copied the radii to norm_sq
    for d, columns in groups.items():
        radii = norm_sq
        if d < n:
            radii = _squared_radii(buffers.uniforms[:size], d, r0, buffers.nested_radii[:size])
            share = np.divide(radii, partial[:, d - 1], out=buffers.share[:size])
        outside = {
            cutoff: np.greater(radii, cutoff * cutoff, out=mask[:size])
            for cutoff, mask in buffers.masks.items()
        }
        for m, readers in columns.items():
            if d == n:
                column = partial[:, m - 1]
            elif m == d:
                column = radii
            else:
                column = np.multiply(partial[:, m - 1], share, out=buffers.column[:size])
            powers = {1: column}
            spare = iter(buffers.powers)
            for k in sorted(readers):
                if k not in powers:
                    powers[k] = _power(column, k, powers, next(spare)[:size])
                for cutoff, pair in readers[k].items():
                    values = powers[k]
                    if cutoff:
                        values = np.multiply(values, outside[cutoff], out=scratch)
                    pair[0] += float(values.sum())
                    pair[1] += float(np.square(values, out=scratch).sum())


def _power(column: np.ndarray, k: int, known: dict, out: np.ndarray) -> np.ndarray:
    """column ** k by multiplication alone, formed in `out`: column ** (k - 1)
    times the column for odd k, the square of column ** (k / 2) for even k, so
    k <= 3 is the plain chain and a large k takes about 2 log2(k) products in
    place.  A power found in `known` was formed by the same products, so the
    bits do not depend on what `known` holds.  A product costs about a sixth
    of NumPy's general `pow`."""
    import numpy as np

    if k in known:
        return known[k]
    if k % 2:
        return np.multiply(_power(column, k - 1, known, out), column, out=out)
    half = _power(column, k // 2, known, out)
    return np.multiply(half, half, out=out)


def _ball_volume(r0: float, **dimension: int) -> float:
    """The volume pi^d r0^(2d) / d! of the radius-r0 ball in C^d, d the one
    named dimension, formed exactly so that d! alone refuses nothing.  pi^d
    above the float range is refused naming d; the volume, naming d and r0."""
    ((_, d),) = dimension.items()
    pi_d = pi_power(**dimension)  # refused before d! is formed
    try:
        return times_pi_power(Fraction(r0) ** (2 * d) / math.factorial(d), pi_d)
    except OverflowError:
        raise ParameterError(
            "the Monte Carlo ball volume overflows a float", **dimension, r0=r0
        ) from None


def ball_moment_integrands(
    n: int, terms: Sequence[tuple[int, int]], r0: float
) -> list[tuple[int, int, float, float]]:
    """The integrands (l, k, 0, volume) whose estimates are the ball moment
    integrals of (|z_1|^2 + ... + |z_l|^2)^k over the radius-r0 ball in C^n
    with Lebesgue measure, one per (l, k) in `terms`: ball volume times the
    sample mean."""
    for l, k in terms:
        require_moment(n, l, k)
    require_radius(r0)
    volume = _ball_volume(r0, n=n)
    return [(l, k, 0.0, volume) for l, k in terms]


def mc_ball_moment(
    n: int, terms: Sequence[tuple[int, int]], r0: float, samples: int, seed: int
) -> list[McEstimate]:
    """Estimate, for each (l, k) in `terms`, the ball moment integral of
    (|z_1|^2 + ... + |z_l|^2)^k over the radius-r0 ball in C^n."""
    return _estimate(n, r0, ball_moment_integrands(n, terms, r0), samples, seed)


def trace_volume_integrands(
    n: int, degrees: Sequence[int], rho: float | None = None
) -> list[tuple[int, int, float, float]]:
    """The unit-ball integrands (k, k, cutoff, pi^k/k! / share), one per k in
    `degrees`, of the trace volume (pi^k/k!) (|z_1|^2 + ... + |z_k|^2)^k over
    the image [z : sqrt(1 - |z|^2)] of the unit ball, which fills CP^n up to
    measure zero; pi^k/k! is the unit-ball volume in C^k.  With no weight
    nothing is removed (cutoff 0, share 1): expected value q(n,k) pi^k/k!.
    A weight cuts out [|z| <= rho] and renormalizes by the blow-up's volume
    share 1 - rho^(2n): expected value f_k(rho^2) pi^k.  Rules in this order:
    1 <= k <= n, 0 < rho < 1, pi^k inside the float range."""
    for k in degrees:
        require_within(n, k=k)
    cutoff, share = 0.0, 1.0
    if rho is not None:
        require_weight(rho)
        cutoff, share = rho, 1.0 - rho ** (2 * n)
    return [(k, k, cutoff, _ball_volume(1.0, k=k) / share) for k in degrees]


def mc_cpn_average(n: int, degrees: Sequence[int], samples: int, seed: int) -> list[McEstimate]:
    """Estimate the morphism value on CP^n for each k in `degrees`."""
    return _estimate(n, 1.0, trace_volume_integrands(n, degrees), samples, seed)


def mc_blowup_average(
    n: int, degrees: Sequence[int], rho: float, samples: int, seed: int
) -> list[McEstimate]:
    """Estimate the morphism value on the weight-rho blow-up of CP^n for each
    k in `degrees`."""
    return _estimate(n, 1.0, trace_volume_integrands(n, degrees, rho), samples, seed)


def mc_row(params: dict, est: McEstimate, exact: float) -> dict:
    """The parameters, the estimate, its distance to `exact` in bands and
    whether |mean - exact| lies inside the band and the printed standard
    error inside band / sqrt(2 L): the one home of the agreement rule.  The
    band of every estimate _estimate makes is > 0, and exceeds sqrt(2 L)
    standard errors by its range term."""
    distance = abs(est.mean - exact) / est.band
    return {
        **params,
        "exact": exact,
        "mean": est.mean,
        "std_error": est.std_error,
        "band": est.band,
        "seed": est.seed,
        "band_distance": distance,
        "ok": distance <= 1 and est.std_error * math.sqrt(2 * _LOG_TERM) <= est.band,
    }


def _log_unit_moment(n: int, l: int, k: int) -> float:
    """log E[s^k], s = |z_1|^2+...+|z_l|^2 at a uniform point of the unit
    ball in C^n.  E[s^k] = Gamma(l+k) n! / ((l-1)! Gamma(n+1+k)), whose gamma
    ratio telescopes to the n+1-l factors i/(i+k), l <= i <= n: in log space
    a sum of n+1-l logs that stays exact to rounding for every k."""
    return -math.fsum(math.log1p(k / i) for i in range(l, n + 1))


def _require_power(n: int, l: int, k: int, samples: int) -> None:
    """Refuse, before any draw, a sample count whose band cannot resolve one
    ball moment: the range term 7 R L / (3 (N - 1)) of its band must not
    exceed RANGE_SHARE_MAX of the moment, R E[s^k] on the unit ball scaled by
    the same r0^(2k).  The refusal names the count needed, or the cap
    MAX_MC_WORK when no count within it suffices."""
    log_moment = _log_unit_moment(n, l, k)
    log_bound = math.log(7 * _LOG_TERM / (3 * RANGE_SHARE_MAX)) - log_moment  # N - 1 >= e^this
    if log_bound > math.log(MAX_MC_WORK / n):  # above every admitted count
        raise ParameterError(
            f"a Monte Carlo band within {RANGE_SHARE_MAX:.0%} of this moment needs about"
            f" 10^{log_bound / math.log(10):.1f} samples, and samples * n must be"
            f" <= {MAX_MC_WORK} (MAX_MC_WORK)",
            samples=samples, n=n, l=l, k=k,
        )
    needed = math.ceil(math.exp(log_bound)) + 1
    if samples >= needed:
        return
    raise ParameterError(
        f"too few for a Monte Carlo band within {RANGE_SHARE_MAX:.0%} of this moment;"
        f" it needs at least {needed} samples",
        samples=samples,
    )


def check_moment_mc(
    n: int, l: int, k: int, r0: Fraction, exact: float, samples: int, seed: int
) -> tuple[McEstimate, dict]:
    """The Monte Carlo check of one ball moment whose float value is `exact`
    (combinatorics.ball_moment's): its estimate from `samples` points drawn
    with `seed`, and its mc_row.  Refused before any sample is drawn, in this
    order: a moment that underflows a float, since a mean of zeros would
    pass; the rules of the ball volume and of the draw; and a sample count
    whose band cannot resolve the moment (_require_power)."""
    if exact < sys.float_info.min:
        raise ParameterError(
            "the moment underflows a float, so Monte Carlo cannot check it", n=n, l=l, k=k, r0=r0
        )
    integrands = ball_moment_integrands(n, [(l, k)], float(r0))
    _require_draw(n, samples, seed)
    _require_power(n, l, k, samples)
    (est,) = _estimate(n, float(r0), integrands, samples, seed)
    return est, mc_row({}, est, exact)
