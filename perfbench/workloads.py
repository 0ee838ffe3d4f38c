"""Seeded query plans for the weinstein-calc benchmark.

A plan is an endless sequence of blocks.  Every block of a workload has the
same strata -- the same number of queries of each cost class -- and the seed
only picks parameters inside a class and the order within the block.  So
medians and tail percentiles stay comparable across seeds, while the inputs
themselves differ.  The program sees only the generated argv and descriptor
files.

Cost classes, measured on a 2-core x86 box with Python 3.11 and NumPy 2.4
(each figure includes about 0.27 s of interpreter start and imports):
cheap exact queries 0.27-0.35 s, k = 6 about 0.4 s, k = 7 about 0.9 s,
`identity --k-max 7` about 1.05 s (the brute-force self-check runs for
k <= 8; k = 8 itself takes about 4.6 s and is left out so that a run holds
100 queries in its time), `blowup` near n = 600 with gcd(n, k) = 1 about
0.6 s and 3 MB of JSON, `verify --quick` 1.1 s, full `verify` 10.5 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("cli-queries", "large-n", "verify")

# Wall seconds of one untraced block on the reference host, set-up probes
# included.  A run's block count follows from these, not from the clock, so
# that every run of a workload has the same strata in the same proportions
# and each percentile falls on the same order statistic of the same stratum.
NOMINAL_BLOCK_S = {"cli-queries": 7.4, "large-n": 7.4, "verify": 15.5}

# Untraced runs hold at least this many blocks: 100 queries on the query
# workloads, so that ten samples lie beyond p90, and two blocks on `verify`,
# so that p90 falls inside the stratum of full `verify` runs.
MIN_BLOCKS = {"cli-queries": 5, "large-n": 5, "verify": 2}

# `blowup --rho` renders pi^k as a float; k above about 620 overflows it.
RHO_MAX_K = 500


@dataclass(frozen=True)
class Query:
    """One program invocation: argv after the program name, plus the manifold
    descriptor the argv refers to as `{descriptor}` (product queries only)."""

    kind: str
    argv: tuple[str, ...]
    descriptor: dict | None = None

    def resolved_argv(self, descriptor_path: str | None) -> list[str]:
        return [descriptor_path if a == "{descriptor}" else a for a in self.argv]


def _rho(rng: random.Random) -> str:
    q = rng.randint(2, 9)
    return f"{rng.randint(1, q - 1)}/{q}"


def _cpn(n: int, k: int) -> Query:
    return Query("cpn", ("cpn", "--n", str(n), "--k", str(k), "--json"))


def _blowup(n: int, k: int, rho: str | None = None) -> Query:
    argv = ("blowup", "--n", str(n), "--k", str(k))
    if rho is not None:
        argv += ("--rho", rho)
    return Query("blowup", argv + ("--json",))


def _identity(k_max: int) -> Query:
    return Query("identity", ("identity", "--k-max", str(k_max), "--json"))


def _moment(rng: random.Random) -> Query:
    n = rng.randint(1, 8)
    l = rng.randint(1, n)
    k = rng.randint(1, 8)
    r0 = str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    return Query(
        "moment",
        ("moment", "--n", str(n), "--l", str(l), "--k", str(k), "--r0", r0, "--json"),
    )


def _descriptor(rng: random.Random, k: int) -> dict:
    """A rational-period manifold of half-dimension m >= k whose homotopy is
    asserted trivial in degree 2k-1; every period is a nonzero rational."""
    m = rng.randint(k, k + 2)
    periods = {}
    for j in range(1, m + 1):
        if j == k or rng.random() < 0.7:
            periods[str(2 * j)] = [
                str(Fraction(rng.randint(1, 12), rng.randint(1, 6)))
                for _ in range(rng.randint(1, 3))
            ]
    odd = sorted({2 * k - 1} | {2 * j - 1 for j in range(1, m + 1) if rng.random() < 0.5})
    return {"dimension": 2 * m, "trivial_odd_homotopy": odd, "periods": periods}


def _product(rng: random.Random, n: int, k: int) -> Query:
    return Query(
        "product",
        ("product", "--n", str(n), "--k", str(k), "--manifold", "{descriptor}", "--json"),
        _descriptor(rng, k),
    )


def _exact_query(rng: random.Random, k: int) -> Query:
    """A cpn, blowup or product query of degree 2k-1 on a small n >= k."""
    n = rng.randint(k, k + 4)
    kind = rng.choice(("cpn", "blowup", "product"))
    if kind == "cpn":
        return _cpn(n, k)
    if kind == "blowup":
        return _blowup(n, k, _rho(rng) if rng.random() < 0.5 else None)
    return _product(rng, n, k)


def _cli_block(rng: random.Random) -> list[Query]:
    block = [
        # cheap: import-dominated, brute force k <= 5 or bypassed (k > 8)
        _cpn(rng.randint(5, 12), rng.randint(1, 5)),
        _cpn(rng.randint(1, 12), 1),
        _cpn(*_pair(rng, 9, 14)),
        _cpn(*_pair(rng, 9, 14)),
        _blowup(rng.randint(5, 10), rng.randint(1, 5)),
        _blowup(rng.randint(2, 10), rng.randint(1, 2), _rho(rng)),
        _blowup(rng.randint(5, 10), rng.randint(1, 5), _rho(rng)),
        _blowup(*_pair(rng, 9, 14), rho=_rho(rng) if rng.random() < 0.5 else None),
        _product(rng, rng.randint(4, 8), rng.randint(1, 4)),
        _product(rng, rng.randint(4, 8), rng.randint(1, 4)),
        _moment(rng),
        _moment(rng),
        _moment(rng),
        _identity(rng.randint(1, 5)),
        # medium: brute force at k = 6
        _exact_query(rng, 6),
        _identity(6) if rng.random() < 0.5 else _exact_query(rng, 6),
        # tail, a fifth of the block so that p90 sits inside it: k = 7
        _cpn(rng.randint(7, 11), 7),
        _blowup(rng.randint(7, 11), 7, _rho(rng) if rng.random() < 0.5 else None),
        _exact_query(rng, 7),
        _identity(7),
    ]
    rng.shuffle(block)
    return block


def _pair(rng: random.Random, k_lo: int, k_hi: int) -> tuple[int, int]:
    k = rng.randint(k_lo, k_hi)
    return k + rng.randint(0, 6), k


def _large_block(rng: random.Random) -> list[Query]:
    block = []
    # tail, a fifth of the block: gcd(n, k) = 1 with k = n-1 gives about
    # 3 MB of JSON per query
    for _ in range(4):
        n = rng.randint(580, 620)
        block.append(_blowup(n, n - 1))
    for _ in range(4):
        n = rng.randint(200, 400)
        block.append(_blowup(n, n - rng.randint(1, 30)))
    n = rng.randint(100, 700)
    block.append(_blowup(n, n))
    n = rng.randint(100, RHO_MAX_K)
    block.append(_blowup(n, n, _rho(rng)))
    for _ in range(3):
        n = rng.randint(100, RHO_MAX_K)
        k = rng.choice((rng.randint(1, 3), n - rng.randint(1, 20)))
        block.append(_blowup(n, k, _rho(rng)))
    for _ in range(3):
        block.append(_blowup(rng.randint(100, 800), rng.randint(1, 3)))
    for _ in range(4):
        n = rng.randint(100, 800)
        block.append(_cpn(n, rng.choice((rng.randint(1, 3), rng.randint(9, n)))))
    rng.shuffle(block)
    return block


def _verify_block(rng: random.Random) -> list[Query]:
    # One full run, a fifth of the block, so that p90 falls inside its stratum
    # and p50 near the middle of the quick runs.
    block = [Query("verify", ("verify", "--json"))]
    block += [Query("verify-quick", ("verify", "--quick", "--json")) for _ in range(4)]
    rng.shuffle(block)
    return block


def blocks(workload: str, seed: int) -> Iterator[list[Query]]:
    """The endless, seed-determined block sequence of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    make = {"cli-queries": _cli_block, "large-n": _large_block, "verify": _verify_block}[workload]
    while True:
        yield make(rng)
