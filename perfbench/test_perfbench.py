"""Smoke test of the benchmark itself:  python3 -m pytest perfbench

Checks that a seed fixes the query plan, that the oracle accepts the
program's outputs and rejects a wrong one, and that a tiny run of each
workload emits every metric BENCHMARK.json names, with no failed query.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _plan(workload: str, seed: int, count: int = 3) -> list:
    gen = workloads.blocks(workload, seed)
    return [next(gen) for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(workload):
    assert _plan(workload, 7) == _plan(workload, 7)


@pytest.mark.parametrize("workload", ["cli-queries", "large-n"])
def test_other_seed_other_queries(workload):
    assert _plan(workload, 7) != _plan(workload, 8)


def test_blocks_keep_their_strata():
    for seed in range(5):
        first, second = _plan("cli-queries", seed, 2)
        assert (len(first), len(second)) == (20, 20)
        assert sum(q.argv[0] == "identity" and q.argv[2] == "7" for q in second) == 1
        big = [q for q in _plan("large-n", seed, 1)[0] if int(q.argv[2]) >= 580 and int(q.argv[4]) == int(q.argv[2]) - 1]
        assert len(big) >= 4


def test_percentiles_fall_inside_one_stratum():
    kinds = [q.kind for q in _plan("verify", 7, 1)[0]]
    assert sorted(kinds) == ["verify"] + ["verify-quick"] * 4
    for workload in workloads.WORKLOADS:
        for seconds in (1, 36, 60):
            assert run.block_count(workload, seconds, False) >= workloads.MIN_BLOCKS[workload]
            assert run.block_count(workload, seconds, True) >= 1
    # Two verify blocks: p90 lies between the two full runs, p50 between quick runs.
    latencies = [1.0, 1.1, 1.2, 1.3, 10.0] * 2
    assert 10.0 <= run.percentile_90(latencies) and statistics.median(latencies) < 2


def test_oracle_rejects_a_wrong_order():
    doc = {
        "schema": "weincalc/1",
        "command": "cpn",
        "status": "ok",
        "q": "1/3",
        "multiple_of_pi_k_over_k_factorial": "1/3",
        "value": [{"pi_exp": 1, "num": [[0, "1/3"]], "den": [[0, "1"]]}],
        "lattice": [{"coeff": "1", "pi_exp": 1, "x_exp": 0}],
        "order": {"kind": "finite", "order": 3},
        "nontrivial": True,
    }
    argv = ["cpn", "--n", "2", "--k", "1", "--json"]
    assert oracle.check(argv, doc) is None
    doc["order"] = {"kind": "finite", "order": 6}
    assert "order" in oracle.check(argv, doc)


def _cheap(query) -> bool:
    if query.argv[0] == "verify":
        return "--quick" in query.argv
    opts = oracle._opts(list(query.argv))
    return int(opts.get("k", opts.get("k-max", 1))) <= 5


def _tiny_run(workload: str, trace: bool) -> run.Run:
    """Three cheap queries of the workload's first block."""
    queries = [q for q in next(workloads.blocks(workload, 3)) if _cheap(q)][:3]
    result = run.Run()
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        for query in queries:
            run._run_query(result, query, run._child_env(), tmp, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.blocks = 1
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload):
    plain = _tiny_run(workload, trace=False)
    metrics, extra = run.end_to_end(plain, run.measure_setup(run._child_env(), 1))
    assert plain.failures == []
    assert extra["error_rate"]["value"] == 0
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())

    traced = _tiny_run(workload, trace=True)
    layer_metrics, design = run.per_layer(traced)
    assert traced.failures == []
    assert set(layer_metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert design["largest_layer"] in run.LAYERS
    for name, metric in layer_metrics.items():
        unit = next(m["unit"] for m in BENCHMARK["per_layer"] if m["name"] == name)
        assert metric["unit"] == unit


def test_aggregate_self_time_subtracts_children():
    from trace_child import aggregate, new_totals

    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["morphism.cpn_weinstein", 1.0, 9.0, 0, None],
        ["combinatorics.bruteforce", 2.0, 8.0, 1, {"k": 2, "l": 2, "cold": True}],
    ]
    totals = new_totals()
    aggregate(spans, totals)
    assert totals["layer_self"] == {"cli": 2.0, "morphism": 2.0, "combinatorics": 6.0}
    assert totals["compositions"] == 10  # C(2+4-1, 3)
