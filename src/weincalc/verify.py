"""Self-verification suite.

Every closed-form result in the package is checked here against an
independent route: brute-force enumeration for the combinatorial sums,
frozen quadrature spot values and Monte Carlo for the integrals, and a
bounded exhaustive search over integer coefficient vectors for the lattice
decision procedures.  That search reads only a value's coefficients and
searches one integer table per monomial cell of an instance, built once for
the value and every multiple of it that an order needs, so it runs neither
the arithmetic of `symbolic` nor its lattice code.  The CLI `verify` command
and the acceptance tests both run exactly this suite.

All seeds are fixed so that repeated runs produce identical output.  The
three Monte Carlo checks (ball-moments, cpn-monte-carlo and blowup) share one
pass: one seeded stream of points of the ball in C^MC_N_MAX, on which every
row of all three checks is estimated, a row at n < MC_N_MAX on the n-ball
point nested in each drawn point (draw_mc_pass, montecarlo's module doc).
Each of the three takes the pass it reads, and run_all draws it once,
after the exact checks (identity-suite, moment-sums, cpn-exact, product and
decision-procedures), and hands it to all three; NumPy loads with the pass.
The pass forms one pair of sums per distinct integrand (d, m, k, cutoff), 24
for its 30 rows, since each CP^n row is the ball-moment row at l = k at
another scale.  The pass runs on the calling thread.

Two checks cost the same in both suites.  mc-determinism repeats two n = 2
estimates of MC_DETERMINISM_SAMPLES points, one full chunk and one partial
chunk each, which is where the reused chunk buffers could leak a stale
value, and two 64-point draws.  decision-procedures builds its 200
instances from values that are reduced as written (monomials over 1, and
c x / (1 + x)), so no instance runs a polynomial gcd.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import combinatorics, montecarlo
from .combinatorics import RAW_CHECK_MAX_K
from .exactarith import format_rational, pi_power, times_pi_power
from .montecarlo import (
    BASE_SEED,
    CHUNK_SIZE,
    McEstimate,
    ball_moment_integrands,
    mc_ball_moment,
    mc_row,
    sample_ball,
    trace_volume_integrands,
)
from .morphism import (
    FINITE_ORDER_AT_TOP_DEGREE,
    ManifoldDescriptor,
    SelfCheckError,
    blowup_at_weight,
    blowup_weinstein,
    cpn_q,
    cpn_weinstein,
    cpn_weinstein_raw,
    product_value,
)
from .symbolic import (
    Lattice,
    OrderResult,
    PiGradedValue,
    PolyQ,
    RatFuncQ,
    lattice_member,
    lattice_order,
)

MC_N_MAX = 3
MOMENT_K_MAX = 3
BLOWUP_RHO = Fraction(1, 2)

# The cpn-exact rows above the brute-force budget, RAW_CHECK_MAX_K.
CPN_ABOVE_BUDGET = ((9, 9), (12, 10), (16, 13))

# The named-class product row (n, k, descriptor, class): M of dimension 6
# with period 1 in degree 2 and the class c = pi^2/4 in degree 5.  The value
# pi^3/12 + pi^2/4 has order 2 against pi^3/6 and pi^2/2, since each
# coefficient is half a generator.
PRODUCT_CLASS_ROW = (
    3,
    3,
    {
        "dimension": 6,
        "trivial_odd_homotopy": [5],
        "periods": {"2": ["1"]},
        "classes": {
            "c": {"degree": 5, "value": [{"pi_exp": 2, "num": [[0, "1/4"]], "den": [[0, "1"]]}]}
        },
    },
    "c",
)

# The samples of each mc-determinism estimate, in both suites: one full chunk
# of the n = 2 draw, CHUNK_SIZE // 2 samples, then a partial one of half that
# size, which refills the same buffers, where a stale read would show.
MC_DETERMINISM_SAMPLES = CHUNK_SIZE // 2 + CHUNK_SIZE // 4

DECISION_SEED = BASE_SEED + 4000
DECISION_INSTANCES = 200
DECISION_BOUND = 50

# The three Monte Carlo checks estimate all their rows on one stream.
MC_STREAMS = (
    f"one seed and one sample stream of points of the n = {MC_N_MAX} ball, shared by"
    f" ball-moments, cpn-monte-carlo and blowup: a row at n < {MC_N_MAX} reads the n-ball"
    " point nested in each (its first n coordinates, rescaled to the n-ball radius of the"
    " same uniform), so all rows are correlated"
)

# Frozen spot values for the ball moment integral, each derived from the
# one-dimensional radial quadrature that is independent of the multi-index
# sum: over B^2, int r^2 dA = 2*pi*int_0^1 r^3 dr = pi/2 and
# int r^4 dA = 2*pi*int_0^1 r^5 dr = pi/3; over B^4,
# int |z|^2 = 2*pi^2*int_0^1 r^5 dr = pi^2/3, halved by symmetry for |z_1|^2;
# over the radius-1/2 disc, int r^2 dA = 2*pi*int_0^(1/2) r^3 dr = pi/32.
# Keyed by (n, l, k, r0), in the order printed.
MOMENT_SPOT_VALUES = {
    (1, 1, 1, 1): (Fraction(1, 2), 1),
    (1, 1, 2, 1): (Fraction(1, 3), 1),
    (2, 1, 1, 1): (Fraction(1, 6), 2),
    (1, 1, 1, Fraction(1, 2)): (Fraction(1, 32), 1),
}


class McPass(NamedTuple):
    """The estimates of one Monte Carlo pass of `samples` points, as
    (params, estimate) rows in draw order, n = 1..MC_N_MAX: the ball moments
    {"n", "l", "k"}, the CP^n values {"n", "k"} and the blow-up values
    {"n", "k", "rho"} at weight BLOWUP_RHO."""

    samples: int
    ball_moments: list[tuple[dict, McEstimate]]
    cpn: list[tuple[dict, McEstimate]]
    blowup: list[tuple[dict, McEstimate]]


def draw_mc_pass(samples: int) -> McPass:
    """The one Monte Carlo pass of verify, the one home of its grid: one
    montecarlo estimate over the ball-moment, CP^n and blow-up rows of every
    n <= MC_N_MAX together, drawn from one stream of MC_N_MAX-ball points
    with seed BASE_SEED + 100 MC_N_MAX; a row at n < MC_N_MAX reads the
    nested n-ball points.  An estimate does not depend on the other
    integrands of the pass, so each at n = MC_N_MAX is the one its own oracle
    (mc_ball_moment, mc_cpn_average, mc_blowup_average) gives at that seed."""
    rho = format_rational(BLOWUP_RHO)
    labels, integrands = [], []
    for n in range(1, MC_N_MAX + 1):
        terms = [(l, k) for l in range(1, n + 1) for k in range(1, MOMENT_K_MAX + 1)]
        degrees = range(1, n + 1)
        for check, params, grid in (
            ("ball_moments", [{"n": n, "l": l, "k": k} for l, k in terms],
             ball_moment_integrands(n, terms, 1.0)),
            ("cpn", [{"n": n, "k": k} for k in degrees], trace_volume_integrands(n, degrees)),
            ("blowup", [{"n": n, "k": k, "rho": rho} for k in degrees],
             trace_volume_integrands(n, degrees, float(BLOWUP_RHO))),
        ):
            labels += [(check, row) for row in params]
            integrands += grid
    dims = [row["n"] for _, row in labels]
    seed = BASE_SEED + 100 * MC_N_MAX
    estimates = montecarlo._estimate(MC_N_MAX, 1.0, integrands, samples, seed, dims)
    rows = {check: [] for check in McPass._fields[1:]}
    for (check, params), est in zip(labels, estimates, strict=True):
        rows[check].append((params, est))
    return McPass(samples, **rows)


def _rows(details: dict) -> list[dict]:
    return [row for key in ("spots", "monte_carlo", "rows") for row in details.get(key, [])]


def _failed(details: dict) -> int:
    """The one failed-row rule: a row of `spots`, `monte_carlo` or `rows`
    whose `ok` is false, and every entry of `failures` and `mismatches`."""
    failed = sum(not row["ok"] for row in _rows(details))
    return failed + len(details.get("failures", ())) + len(details.get("mismatches", ()))


class CheckResult(NamedTuple):
    """Outcome of one verification check, with JSON-safe details.  A check
    with rows takes its verdict from them (of_rows); mc-determinism, which
    has none, states its own."""

    name: str
    passed: bool
    details: dict

    @classmethod
    def of_rows(cls, name: str, details: dict) -> CheckResult:
        """The check `name`, passed when none of its rows failed (_failed)."""
        return cls(name, not _failed(details), details)

    def summary(self) -> str:
        """What the check covered and, if it failed, how many of its rows
        failed and how many a self-check refused."""
        details = self.details
        rows = _rows(details)
        distances = [row["band_distance"] for row in rows if "band_distance" in row]
        parts = []
        if "rows" in details and not distances:
            parts.append(f"{len(details['rows'])} cases")
        if "pairs" in details:
            parts.append(f"{details['pairs']} pairs")
        if "instances" in details:
            parts.append(f"{details['instances']} instances, bound {details['bound']}")
        if "samples" in details:
            parts.append(f"{details['samples']} samples")
        if distances:
            parts.append(f"max {max(distances):.2f} of a band over {len(distances)} estimates")
        failed = _failed(details)
        if failed:
            parts.append(f"{failed} failed")
        refused = sum("error" in row for row in rows)
        if refused:
            parts.append(f"{refused} refused by the self-check")
        return ", ".join(parts)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def check_identity_suite(k_max: int = 7) -> CheckResult:
    """The rows of combinatorics.identity_rows, S(k, k) by enumeration
    against its closed form for 1 <= k <= k_max, the rows the `identity`
    command prints."""
    return CheckResult.of_rows(
        "identity-suite", {"k_max": k_max, "rows": combinatorics.identity_rows(k_max)}
    )


def check_moment_sums(k_max: int = 6) -> CheckResult:
    """Brute-force S(k, l) against 2^k k! C(k+l-1, k) for all k, l <= k_max."""
    failures = []
    for k in range(1, k_max + 1):
        for l in range(1, k_max + 1):
            brute = combinatorics.moment_sum_bruteforce(k, l)
            closed = combinatorics.moment_sum_closed(k, l)
            if brute != closed:
                failures.append({"k": k, "l": l, "bruteforce": str(brute), "closed": str(closed)})
    return CheckResult.of_rows(
        "moment-sums",
        {"k_max": k_max, "l_max": k_max, "pairs": k_max * k_max, "failures": failures},
    )


def check_ball_moments(mc_pass: McPass) -> CheckResult:
    """Exact moment formula against frozen quadrature spots, then Monte Carlo
    against the exact value on the (n <= 3, l <= n, k <= 3) grid, read from
    `mc_pass`.  A spot reads the coefficient of the `moment` value,
    ball_moment's, which applies the radius, on ball_moment_exact's power of
    pi; one spot off the unit ball names its r0."""
    spots = []
    for (n, l, k, r0), (coeff, pi_exp) in MOMENT_SPOT_VALUES.items():
        spot = {"n": n, "l": l, "k": k}
        if r0 != 1:
            spot["r0"] = format_rational(r0)
        got = combinatorics.ball_moment(n, l, k, r0)[0], combinatorics.ball_moment_exact(n, l, k)[1]
        spot["expected"] = f"{format_rational(coeff)}*pi^{pi_exp}"
        spot["got"] = f"{format_rational(got[0])}*pi^{got[1]}"
        spot["ok"] = got == (coeff, pi_exp)
        spots.append(spot)
    mc_rows = []
    for params, est in mc_pass.ball_moments:
        coeff, pi_exp = combinatorics.ball_moment_exact(**params)
        mc_rows.append(mc_row(params, est, times_pi_power(coeff, pi_power(n=pi_exp))))
    return CheckResult.of_rows(
        "ball-moments",
        {
            "samples": mc_pass.samples,
            "streams": MC_STREAMS,
            "spots": spots,
            "monte_carlo": mc_rows,
        },
    )


def check_cpn_exact(n_max: int = 8) -> CheckResult:
    """Exact CP^n suite: 0 < q < 1 and nontriviality for all k <= n <= n_max
    and for the (n, k) pairs of CPN_ABOVE_BUDGET, and the two anchors
    q(n, 1) = 1/(n+1) with order n+1, q(n, n) = 1/2 with order 2.  Each q is compared with a
    second route: the raw multi-index value up to the brute-force budget, and
    above it, where enumeration stops, n! M(n, k, k) with M the pi^n
    coefficient of ball_moment_exact(n, k, k), the trace-volume integral over
    the ball of C^n that fills CP^n.  A value refused by its self-check fails
    its row with the message."""
    rows = []
    pairs = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]
    pairs += CPN_ABOVE_BUDGET
    for n, k in pairs:
        q = cpn_q(n, k)
        entry = {"n": n, "k": k, "q": format_rational(q)}
        good = 0 < q < 1
        if k <= RAW_CHECK_MAX_K:
            raw = cpn_weinstein_raw(n, k)
            entry["raw"] = format_rational(raw)
            good &= raw == q
        else:
            moment = math.factorial(n) * combinatorics.ball_moment_exact(n, k, k)[0]
            entry["ball_moment"] = format_rational(moment)
            good &= moment == q
        try:
            order = cpn_weinstein(n, k).order
        except SelfCheckError as exc:
            entry["error"] = str(exc)
            good = False
        else:
            entry["order"] = order.to_json()
            entry["nontrivial"] = order.nontrivial
            good &= order.nontrivial
            if k == 1:
                good &= q == Fraction(1, n + 1) and order == OrderResult.finite(n + 1)
            if k == n:
                good &= q == Fraction(1, 2) and order == OrderResult.finite(2)
        entry["ok"] = good
        rows.append(entry)
    return CheckResult.of_rows(
        "cpn-exact", {"n_max": n_max, "raw_k_max": RAW_CHECK_MAX_K, "rows": rows}
    )


def check_cpn_monte_carlo(mc_pass: McPass) -> CheckResult:
    """Monte Carlo trace-volume average against q(n,k) pi^k/k!, read from
    `mc_pass`."""
    rows = []
    for params, est in mc_pass.cpn:
        k = params["k"]
        exact = times_pi_power(cpn_q(**params) / math.factorial(k), pi_power(k=k))
        rows.append(mc_row(params, est, exact))
    return CheckResult.of_rows(
        "cpn-monte-carlo", {"samples": mc_pass.samples, "streams": MC_STREAMS, "rows": rows}
    )


def check_blowup(mc_pass: McPass, n_max: int = 8) -> CheckResult:
    """Blow-up suite for all k <= n <= n_max: the value against the Euclidean
    reduction of c (1 - x^(n+k)) / (1 - x^n) with c = q(n,k)/k!, infinite
    order for every k < n, the flagged Finite(2) at k = n, the x -> 0
    degeneration to the CP^n value, and Monte Carlo at weight BLOWUP_RHO
    against blowup_at_weight, the closed form `blowup --rho` prints (the exact
    rows tie it to the printed value), read from `mc_pass`.  A self-check
    refusal fails its row."""
    rows = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            try:
                cv = blowup_weinstein(n, k)
            except SelfCheckError as exc:
                rows.append({"n": n, "k": k, "error": str(exc), "ok": False})
                continue
            order, f = cv.order, cv.value.components[k]
            c = cpn_q(n, k) / math.factorial(k)
            den0 = f.den.terms.get(0)
            degenerates = bool(den0) and f.num.terms.get(0, 0) / den0 == c
            reduced = f == RatFuncQ(PolyQ.one_minus_x_pow(n + k) * c, PolyQ.one_minus_x_pow(n))
            if k < n:
                good = not order.is_finite
            else:
                good = order == OrderResult.finite(2) and FINITE_ORDER_AT_TOP_DEGREE in cv.flags
            good &= degenerates and reduced
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "order": order.to_json(),
                    "flags": cv.flags,
                    "x0_matches_cpn": degenerates,
                    "reduced_form_matches": reduced,
                    "ok": good,
                }
            )
    mc_rows = []
    for params, est in mc_pass.blowup:
        n, k, rho = params["n"], params["k"], Fraction(params["rho"])
        try:
            exact = times_pi_power(blowup_at_weight(n, k, rho), pi_power(k=k))
        except SelfCheckError as exc:
            mc_rows.append({**params, "error": str(exc), "ok": False})
            continue
        mc_rows.append(mc_row(params, est, exact))
    return CheckResult.of_rows(
        "blowup",
        {
            "n_max": n_max,
            "samples": mc_pass.samples,
            "streams": MC_STREAMS,
            "rows": rows,
            "monte_carlo": mc_rows,
        },
    )


def check_product(n_max: int = 5) -> CheckResult:
    """Product suite: cpn(n,k) x M for all k <= n <= n_max against a
    descriptor with period 1/2 in every degree, then PRODUCT_CLASS_ROW.  Each
    row's order is confirmed by the box search (_confirm_order) over the
    Kunneth generators of CP^n x M written out here, pi^(k-j)/(k-j)! times
    each degree-2j period of M for j = 0..k (period 1 at j = 0), with no
    lattice code.  A row passes when the value is nontrivial and its order
    confirmed.  The factor-lattice containment is checked generator by
    generator inside product_value; a value refused by a self-check, of q or
    of that containment, fails its row with the message."""
    periodic = ManifoldDescriptor.from_json(
        {
            "dimension": 2 * n_max,
            "trivial_odd_homotopy": [2 * k - 1 for k in range(1, n_max + 1)],
            "periods": {str(2 * j): ["1/2"] for j in range(1, n_max + 1)},
        }
    )
    n, k, doc, name = PRODUCT_CLASS_ROW
    cases = [(n, k, periodic, None) for n in range(1, n_max + 1) for k in range(1, n + 1)]
    cases.append((n, k, ManifoldDescriptor.from_json(doc), name))
    rows = []
    for n, k, descriptor, name in cases:
        row = {"n": n, "k": k} if name is None else {"n": n, "k": k, "class": name}
        try:
            product = product_value(n, k, descriptor, name)
        except SelfCheckError as exc:
            rows.append({**row, "error": str(exc), "ok": False})
            continue
        periods = {0: (Fraction(1),), **descriptor.periods}
        kunneth = [
            (p / math.factorial(k - j), k - j, 0)
            for j in range(k + 1)
            for p in periods.get(2 * j, ())
        ]
        order = product.order
        confirmed = _confirm_order(_multiples_in_box(product.value, kunneth, DECISION_BOUND), order)
        rows.append(
            {
                **row,
                # pi^k/k! and the degree-2k periods of the descriptor
                "generators_checked": 1 + len(descriptor.period_lattice(k).generators),
                "order": order.to_json(),
                "nontrivial": order.nontrivial,
                "order_confirmed": confirmed,
                "ok": order.nontrivial and confirmed,
            }
        )
    return CheckResult.of_rows("product", {"n_max": n_max, "rows": rows})


def check_mc_determinism() -> CheckResult:
    """Identical (parameters, seed) must reproduce estimates bit for bit: two
    n = 2 estimates of MC_DETERMINISM_SAMPLES points, each a full chunk and
    then a partial one into the same buffers, and two 64-point draws of the
    n = 3 stream."""
    import numpy as np

    seed, samples = BASE_SEED + 3000, MC_DETERMINISM_SAMPLES
    (first,) = mc_ball_moment(2, [(1, 1)], 1.0, samples, seed)
    (second,) = mc_ball_moment(2, [(1, 1)], 1.0, samples, seed)
    draws = [sample_ball(3, 1.0, np.random.default_rng(seed), 64) for _ in range(2)]
    stream_equal = all(map(np.array_equal, *draws))
    passed = first == second and stream_equal
    return CheckResult(
        "mc-determinism",
        passed,
        {
            "samples": samples,
            "estimate_repeats_identically": first == second,
            "stream_repeats_identically": stream_equal,
            "mean": first.mean,
        },
    )


# ---------------------------------------------------------------------------
# decision-procedure oracle: bounded exhaustive search over integer vectors


class _BoxTable(NamedTuple):
    """One monomial cell's generators, cleared to integers over their common
    denominator `den` and split for meet in the middle (Horowitz and Sahni,
    1974): the set of every combination of all but the last generator, and
    the set of every multiple of the last, all coefficients in
    [-bound, bound], as `small` and `large` by size.  A cleared target t is
    in the box iff t - s is in `large` for some s in `small`, so three
    generators cost (2 bound + 1)^2 steps, not ^3."""

    den: int
    small: set[int]
    large: set[int]


def _box_table(gens: list[Fraction], bound: int) -> _BoxTable:
    """The table of 0-3 generators; no generator leaves 0 alone in the box."""
    if len(gens) > 3:
        raise ValueError("box search supports at most 3 generators per monomial")
    den = math.lcm(*(g.denominator for g in gens))
    coeffs = range(-bound, bound + 1)
    sums, lasts = {0}, {0}
    if gens:
        *head, last = (g.numerator * (den // g.denominator) for g in gens)
        for g in head:
            sums = {s + c * g for s in sums for c in coeffs}
        lasts = {c * last for c in coeffs}
    return _BoxTable(den, *sorted((sums, lasts), key=len))


def _in_box(table: _BoxTable, num: int, den: int) -> bool:
    """Whether num/den is a combination in `table`'s box: num/den cleared to
    an integer over table.den, if it clears, then looked up."""
    scaled = num * table.den
    if scaled % den:
        return False
    t = scaled // den
    return any(t - s in table.large for s in table.small)


def _multiples_in_box(
    value: PiGradedValue,
    raw_generators: list[tuple[Fraction, int, int]],
    bound: int,
) -> Callable[[int], bool]:
    """The test m -> whether m * value is a combination of the raw generators
    with coefficients in [-bound, bound], for any multiple m >= 1.

    Reads only the value's components: integer combinations of monomial
    generators are polynomial and supported on the generator monomials, so a
    non-polynomial component or a monomial with no generators is out of the
    box at every multiple.  Otherwise each monomial is an independent
    coordinate of the linear system, with one table per occupied cell, built
    once for every multiple; coefficient p/q reaches the box at m iff m p/q
    does in its cell's table.  No multiple of the value is formed."""
    groups: dict[tuple[int, int], list[Fraction]] = {}
    for coeff, a, b in raw_generators:
        groups.setdefault((a, b), []).append(coeff)
    tables: dict[tuple[int, int], _BoxTable] = {}
    targets = []
    for a, f in value.components.items():
        if not f.is_polynomial:
            return lambda m: False
        for b, coeff in f.num.terms.items():
            cell = (a, b)
            if cell not in groups:
                return lambda m: False
            if cell not in tables:
                tables[cell] = _box_table(groups[cell], bound)
            targets.append((tables[cell], coeff.numerator, coeff.denominator))
    return lambda m: all(_in_box(table, m * p, q) for table, p, q in targets)


def brute_force_member(
    value: PiGradedValue,
    raw_generators: list[tuple[Fraction, int, int]],
    bound: int,
) -> bool:
    """Membership by bounded exhaustive search, independent of the lattice
    decision procedures: reads only the value's coefficients, searches one
    integer table per occupied monomial of the raw (uncollapsed) generator
    list, and never touches rational_gcd, the lattice code or the arithmetic
    of `symbolic`."""
    return _multiples_in_box(value, raw_generators, bound)(1)


def _proper_divisors(d: int) -> list[int]:
    return [m for m in range(1, d) if d % m == 0]


def _confirm_order(in_box: Callable[[int], bool], order: OrderResult) -> bool:
    """Confirm an order result against the box search `in_box` of one value
    (_multiples_in_box).

    Finite(d): d*value must be reachable and no proper divisor multiple may
    be (multiples m with m*value in the lattice form a subgroup d'*Z of Z, so
    checking divisors of d suffices for minimality).  Infinite: no multiple
    up to 8 may be reachable.
    """
    if order.is_finite:
        d = order.order
        return in_box(d) and not any(map(in_box, _proper_divisors(d)))
    return not any(map(in_box, range(1, 9)))


def _random_instance(rnd: random.Random, kind: str):
    """One randomized (value, raw generator list) pair of the given kind.

    Values are constructed so that whenever a bounded representation exists
    at all, it exists within the [-50, 50] search box; ground truth never
    comes from the code under test.
    """
    def random_coeff() -> Fraction:
        return Fraction(rnd.randint(1, 20), rnd.randint(1, 20))

    def random_cells(count: int, distinct: bool) -> list[tuple[int, int]]:
        cells = []
        while len(cells) < count:
            cell = (rnd.randint(0, 2), rnd.randint(0, 2))
            if distinct and cell in cells:
                continue
            cells.append(cell)
        return cells

    if kind == "member":
        # Integer combination with small witness coefficients; shared
        # monomials allowed.
        r = rnd.randint(1, 3)
        cells = random_cells(r, distinct=False)
        gens = [(random_coeff(), a, b) for a, b in cells]
        value = PiGradedValue()
        for coeff, a, b in gens:
            value = value + PiGradedValue.monomial(coeff * rnd.randint(-15, 15), a, b)
        return value, gens

    if kind == "fractional":
        # Per-cell coefficients t/s of the generator with small t and s, so
        # any finite order is at most lcm(2,3,4) and every multiple the
        # confirmation needs stays inside the box.
        r = rnd.randint(1, 3)
        cells = random_cells(r, distinct=True)
        gens = [(random_coeff(), a, b) for a, b in cells]
        value = PiGradedValue()
        for coeff, a, b in gens:
            s = rnd.choice([1, 2, 3, 4])
            t = rnd.choice([t for t in range(-4, 5) if t and math.gcd(t, s) == 1])
            value = value + PiGradedValue.monomial(coeff * Fraction(t, s), a, b)
        return value, gens

    if kind == "offsupport":
        # A monomial outside the generator support can never be cleared.
        gens = [(random_coeff(), a, b) for a, b in random_cells(rnd.randint(1, 2), True)]
        occupied = {(a, b) for _, a, b in gens}
        while True:
            cell = (rnd.randint(0, 3), rnd.randint(0, 3))
            if cell not in occupied:
                break
        value = PiGradedValue.monomial(random_coeff(), *cell)
        if gens and rnd.random() < 0.5:
            coeff, a, b = gens[0]
            value = value + PiGradedValue.monomial(coeff * rnd.randint(1, 10), a, b)
        return value, gens

    if kind == "nonpoly":
        # A reduced rational-function component is not an integer combination
        # of monomials, whatever the lattice.
        gens = [(random_coeff(), a, b) for a, b in random_cells(rnd.randint(1, 2), True)]
        # c*x and 1 + x are coprime and 1 + x is monic: no gcd runs.
        f = RatFuncQ._of(
            PolyQ._of({1: Fraction(rnd.randint(1, 5))}),
            PolyQ._of({0: Fraction(1), 1: Fraction(1)}),
        )
        return PiGradedValue({rnd.randint(0, 2): f}), gens

    if kind == "halfgcd":
        # Two generators sharing one monomial; the target is an odd
        # half-multiple of the true span generator, computed with stdlib
        # integer gcd only.  Magnitudes are capped so the minimal Bezout
        # witness for the order-2 confirmation fits in the search box:
        # cleared numerators are at most 8*8 = 64, so the reduced solution
        # has |coefficients| <= 64/2 + 13 < 50.
        cell = (rnd.randint(0, 2), rnd.randint(0, 2))
        g1 = Fraction(rnd.randint(1, 8), rnd.randint(1, 8))
        g2 = Fraction(rnd.randint(1, 8), rnd.randint(1, 8))
        den = math.lcm(g1.denominator, g2.denominator)
        span = Fraction(
            math.gcd(g1.numerator * (den // g1.denominator),
                     g2.numerator * (den // g2.denominator)),
            den,
        )
        value = PiGradedValue.monomial(span * Fraction(2 * rnd.randint(0, 6) + 1, 2), *cell)
        return value, [(g1, *cell), (g2, *cell)]

    raise ValueError(f"unknown instance kind {kind!r}")


def check_decision_procedures() -> CheckResult:
    """lattice_member / lattice_order against the bounded exhaustive search
    on randomized small instances."""
    rnd = random.Random(DECISION_SEED)
    kinds = ["member", "fractional", "offsupport", "nonpoly", "halfgcd"]
    mismatches = []
    counts = {kind: 0 for kind in kinds}
    for i in range(DECISION_INSTANCES):
        kind = kinds[i % len(kinds)]
        counts[kind] += 1
        value, raw_gens = _random_instance(rnd, kind)
        lattice = Lattice(raw_gens)
        member = lattice_member(value, lattice)
        order = lattice_order(value, lattice)
        in_box = _multiples_in_box(value, raw_gens, DECISION_BOUND)
        brute = in_box(1)
        order_ok = _confirm_order(in_box, order)
        if member != brute or not order_ok:
            mismatches.append(
                {
                    "kind": kind,
                    "value": str(value),
                    "generators": [
                        f"{format_rational(c)}*pi^{a}*x^{b}" for c, a, b in raw_gens
                    ],
                    "member": member,
                    "brute_member": brute,
                    "order": order.to_json(),
                    "order_confirmed": order_ok,
                }
            )
    return CheckResult.of_rows(
        "decision-procedures",
        {
            "instances": DECISION_INSTANCES,
            "bound": DECISION_BOUND,
            "seed": DECISION_SEED,
            "kinds": counts,
            "mismatches": mismatches,
        },
    )


def run_all(quick: bool = False) -> list[CheckResult]:
    """The full verification suite, in result order; `quick` caps brute
    force at k <= 4 and Monte Carlo at 10^5 samples.  The exact checks run
    first, then the Monte Carlo pass is drawn once, which loads NumPy, for
    the three checks that read it, and mc-determinism runs last."""
    if quick:
        samples, k_cap, n_cap = 10**5, 4, 4
    else:
        samples, k_cap, n_cap = 10**6, 7, 8
    identity = check_identity_suite(k_max=k_cap)
    sums = check_moment_sums(k_max=min(k_cap, 6))
    cpn = check_cpn_exact(n_max=n_cap)
    product = check_product(n_max=min(n_cap, 5))
    decision = check_decision_procedures()
    mc_pass = draw_mc_pass(samples)
    return [
        identity,
        sums,
        check_ball_moments(mc_pass),
        cpn,
        check_cpn_monte_carlo(mc_pass),
        check_blowup(mc_pass, n_max=n_cap),
        product,
        decision,
        check_mc_determinism(),
    ]
