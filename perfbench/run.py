"""End-to-end benchmark of the weinstein-calc command line.

    python3 perfbench/run.py --workload cli-queries --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

Runs from the root of a source checkout and measures the program in
`src/` as users run it: one fresh `weinstein-calc` process per query, in a
closed loop with one client and one query at a time.  Every output is
checked against the closed forms in oracle.py; a wrong result or an
unexpected exit code counts as a failed query.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is the full report (provenance, sample counts and the metrics that
only some workloads have).  With --trace 1 each query runs twice, plain and
under trace_child.py, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import oracle
import trace_child
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
PROGRAM = "from weincalc.cli import entry; entry()"
SETUP_REPEATS = 11
# A run stops starting queries after this long and kills one still running
# then, so that it ends well within the 180 s a run may take.
HARD_LIMIT_S = 150
LAYERS = ("combinatorics", "morphism", "symbolic", "montecarlo", "verify", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _invoke(cmd: list[str], env: dict, timeout: float = HARD_LIMIT_S) -> tuple[float, int, bytes, str]:
    """Run one process to completion: (wall seconds, exit code, stdout, stderr)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return time.perf_counter() - start, -1, exc.stdout or b"", "timeout"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def measure_setup(env: dict, repeats: int) -> list[float]:
    """Wall times of fresh processes that only `import weincalc`."""
    cmd = [sys.executable, "-c", "import weincalc"]
    times = []
    for _ in range(repeats):
        wall, code, _, err = _invoke(cmd, env)
        if code != 0:
            raise RuntimeError(f"import weincalc failed: {err.strip()}")
        times.append(wall)
    return times


class Run:
    """Latencies, failures and trace totals of one benchmark run."""

    def __init__(self):
        self.latency: list[float] = []
        self.latency_by_kind: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.first_verify_stdout: dict[str, bytes] = {}
        self.totals = trace_child.new_totals()
        self.traced_queries = 0
        self.stdout_bytes = 0
        self.imports: dict[str, list[float]] = defaultdict(list)
        self.overhead: dict[str, list[float]] = defaultdict(list)
        self.blocks = 0
        self.deadline = time.perf_counter() + HARD_LIMIT_S

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def record(self, query: workloads.Query, argv: list[str], result, traced: bool) -> None:
        wall, code, stdout, stderr = result
        self.attempted += 1
        if not traced:
            self.latency.append(wall)
            self.latency_by_kind[query.kind].append(wall)
        error = None
        if code != 0:
            error = f"exit code {code}: {stderr.strip()[-200:]}"
        else:
            try:
                error = oracle.check(argv, json.loads(stdout), query.descriptor)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        if error is None and query.argv[0] == "verify":
            first = self.first_verify_stdout.setdefault(query.kind, stdout)
            if stdout != first:
                error = "verify stdout differs from the first run of the same mode"
        if error is not None:
            self.failures.append(f"{' '.join(argv)}: {error}")


def _run_query(run: Run, query: workloads.Query, env: dict, tmp: Path, trace: bool) -> None:
    descriptor_path = None
    if query.descriptor is not None:
        descriptor_path = str(tmp / f"descriptor-{run.attempted}.json")
        Path(descriptor_path).write_text(json.dumps(query.descriptor), encoding="utf-8")
    argv = query.resolved_argv(descriptor_path)
    plain = _invoke([sys.executable, "-c", PROGRAM, *argv], env, run.time_left())
    run.record(query, argv, plain, traced=False)
    if not trace:
        return
    spans_path = tmp / "spans.json"
    cmd = [sys.executable, "-X", "importtime", str(HERE / "trace_child.py"), str(spans_path), *argv]
    traced = _invoke(cmd, env, run.time_left())
    run.record(query, argv, traced, traced=True)
    run.overhead[query.kind].append(traced[0] - plain[0])
    run.stdout_bytes += len(traced[2])
    run.traced_queries += 1
    for name, seconds in trace_child.import_times(traced[3]).items():
        run.imports[name].append(seconds)
    if spans_path.exists():
        trace_child.aggregate(json.loads(spans_path.read_text(encoding="utf-8")), run.totals)
        spans_path.unlink()


def block_count(workload: str, seconds: float, trace: bool) -> int:
    """Blocks in a run: as many as come closest to filling `seconds` on the
    reference host (a traced block runs every query twice), and never fewer
    than the workload's minimum when untraced."""
    nominal = workloads.NOMINAL_BLOCK_S[workload] * (2 if trace else 1)
    least = 1 if trace else workloads.MIN_BLOCKS[workload]
    return max(least, round(seconds / nominal))


def execute(
    workload: str, seed: int, seconds: float, trace: bool, setup: list[float] | None = None
) -> Run:
    """Run `block_count` whole blocks of the workload's plan.  With `setup`,
    also append at least SETUP_REPEATS set-up times to it, spread evenly
    over the queries of every block, so that they sample the whole run."""
    env = _child_env()
    run = Run()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    plan = workloads.blocks(workload, seed)
    count = block_count(workload, seconds, trace)
    probes_per_block = -(-SETUP_REPEATS // count) if setup is not None else 0
    try:
        for _ in range(count):
            block = next(plan)
            probe_at = [i * len(block) // probes_per_block for i in range(probes_per_block)]
            for position, query in enumerate(block):
                if setup is not None:
                    setup += measure_setup(env, probe_at.count(position))
                if run.time_left() <= 0:
                    run.attempted += 1
                    run.failures.append(f"{' '.join(query.argv)}: not started, run past {HARD_LIMIT_S} s")
                    return run
                _run_query(run, query, env, tmp, trace)
            run.blocks += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return run


def percentile_90(values: list[float]) -> float:
    """Inclusive 90th percentile (no extrapolation beyond the sample)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    """(result-line metrics, extra report fields) of an untraced run."""
    lat = run.latency
    p90 = percentile_90(lat)
    values = {
        "setup_s": statistics.median(setup),
        "query_p50_s": statistics.median(lat),
        "query_p90_s": p90,
        "queries_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    extra = {
        "error_rate": {"value": len(run.failures) / run.attempted, "unit": "ratio"},
        "samples": {
            "setup_s": len(setup),
            "query_p50_s": len(lat),
            "query_p90_s": len(lat),
            "beyond_p90": sum(v > p90 for v in lat),
        },
    }
    for kind, name in (("verify", "verify_s"), ("verify-quick", "verify_quick_s")):
        if run.latency_by_kind.get(kind):
            extra[name] = {"value": statistics.median(run.latency_by_kind[kind]), "unit": "s"}
            extra["samples"][name] = len(run.latency_by_kind[kind])
    return metrics, extra


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run) -> tuple[dict, dict]:
    """(result-line metrics, design check) of a traced run.  Times and counts are
    per block of the workload, so runs of different length compare."""
    t = run.totals
    blocks = max(run.blocks, 1)
    busy, calls = t["busy"], t["calls"]
    in_program = busy["cli.main"]
    mc_busy = sum(busy[f"montecarlo.{o}"] for o in ("mc_ball_moment", "mc_cpn_average", "mc_blowup_average"))
    import_s = sum(run.imports["weincalc"])
    overhead = run.overhead.get("verify") or [v for vs in run.overhead.values() for v in vs]
    bf = "combinatorics.bruteforce"
    values: dict[str, tuple[float, str]] = {
        f"{bf}.busy_s": (busy[bf] / blocks, "s"),
        f"{bf}.calls": (calls[bf] / blocks, "count"),
        f"{bf}.compositions": (t["compositions"] / blocks, "count"),
        f"{bf}.compositions_per_s": (_ratio(t["compositions"], t["cold_busy"]), "1/s"),
        f"{bf}.cache_hit_ratio": (_ratio(t["cache_hits"], calls[bf]), "ratio"),
        "morphism.cpn_weinstein.busy_s": (busy["morphism.cpn_weinstein"] / blocks, "s"),
        "morphism.blowup_weinstein.busy_s": (busy["morphism.blowup_weinstein"] / blocks, "s"),
        "morphism.product_value.busy_s": (busy["morphism.product_value"] / blocks, "s"),
        "morphism.selfcheck_share": (_ratio(t["selfcheck_s"], in_program), "ratio"),
        "morphism.selfcheck_errors": (
            sum(v for k, v in t["errors"].items() if k.startswith("morphism.") and k.endswith(":SelfCheckError"))
            / blocks,
            "count",
        ),
        "symbolic.poly_gcd.calls": (calls["symbolic.poly_gcd"] / blocks, "count"),
        "symbolic.poly_gcd.busy_s": (busy["symbolic.poly_gcd"] / blocks, "s"),
        "symbolic.lattice_order.calls": (calls["symbolic.lattice_order"] / blocks, "count"),
        "symbolic.lattice_order.busy_s": (busy["symbolic.lattice_order"] / blocks, "s"),
        "symbolic.to_json.busy_s": (busy["symbolic.to_json"] / blocks, "s"),
        "montecarlo.samples": (sum(t["samples"].values()) / blocks, "count"),
    }
    for oracle_name in ("mc_ball_moment", "mc_cpn_average", "mc_blowup_average"):
        name = f"montecarlo.{oracle_name}"
        values[f"{name}.samples_per_s"] = (_ratio(t["samples"][name], busy[name]), "1/s")
    values["montecarlo.sample_ball.share"] = (_ratio(busy["montecarlo.sample_ball"], mc_busy), "ratio")
    for check in trace_child.VERIFY_CHECKS:
        values[f"verify.{check}.busy_s"] = (busy[f"verify.{check}"] / blocks, "s")
    values["verify.brute_force_member.busy_s"] = (busy["verify.brute_force_member"] / blocks, "s")
    values["cli.main.self_s"] = (t["self"]["cli.main"] / blocks, "s")
    values["cli.stdout_bytes"] = (run.stdout_bytes / blocks, "B")
    values["import.weincalc_s"] = (_ratio(import_s, run.traced_queries), "s")
    values["import.numpy_s"] = (_ratio(sum(run.imports["numpy"]), run.traced_queries), "s")
    shares = {layer: _ratio(t["layer_self"][layer], in_program) for layer in LAYERS}
    for layer, share in shares.items():
        values[f"layer.{layer}.share"] = (share, "ratio")
    values["layer.import.share"] = (_ratio(import_s, import_s + in_program), "ratio")
    values["trace.overhead_s"] = (statistics.median(overhead) if overhead else 0.0, "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    largest = max(shares, key=shares.get)
    design = {
        "largest_layer": largest,
        "largest_share": shares[largest],
        "layer_shares": shares,
        "import_share_of_process": values["layer.import.share"][0],
        "in_program_s_per_block": in_program / blocks,
    }
    return metrics, design


def provenance(workload: str, seed: int, seconds: float, trace: bool, load: tuple) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "plan_rng": f"{workload}:{seed}",
        "seconds": seconds,
        "trace": trace,
        "loadavg_at_start": list(load),
        "clients": 1,
        "loop": "closed",
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, full report) of one run."""
    load = os.getloadavg()
    start = time.perf_counter()
    env = _child_env()
    measure_setup(env, 1)  # untimed: fills the bytecode cache
    setup = None if trace else []
    run = execute(workload, seed, seconds, trace, setup)
    report = {
        "provenance": provenance(workload, seed, seconds, trace, load),
        "blocks": run.blocks,
        "wall_s": time.perf_counter() - start,
        "failures": run.failures[:20],
    }
    if trace:
        metrics, report["design_check"] = per_layer(run)
        report["traced_queries"] = run.traced_queries
    else:
        metrics, extra = end_to_end(run, setup)
        report.update(extra)
    report["metrics"] = metrics
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return result, report


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weincalc" / "__init__.py").is_file():
        print(f"error: no weincalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        # One process per run, so that peak_rss_mb counts only that run's children.
        reports = {}
        for workload in workloads.WORKLOADS:
            for trace in ("0", "1"):
                cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
                cmd += ["--seconds", str(args.seconds), "--trace", trace]
                lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
                print("\n".join(lines[:-2]))
                reports[f"{workload}/{'traced' if trace == '1' else 'untraced'}"] = json.loads(lines[-2])["report"]
        print(json.dumps(reports))
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")
    result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_metrics(f"{args.workload} ({'traced' if args.trace else 'untraced'})", report["metrics"])
    if args.trace:
        dc = report["design_check"]
        print(f"  largest in-program layer: {dc['largest_layer']} ({dc['largest_share']:.1%})")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
