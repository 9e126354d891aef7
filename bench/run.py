#!/usr/bin/env python3
"""Benchmark for ineqforge: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload suite|m6_sweep|means_dense \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in ./src. Every
sample runs in a fresh interpreter (bench/worker.py) with one thread,
INEQFORGE_THREADS unset and a fixed PYTHONHASHSEED, so the package's
module-level caches start cold as they do for a command-line user.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, query_p50_ms,
query_tail_ms and peak_rss_mb. --trace 1 prints the per-layer metrics of
traced rounds, and the tracing overhead against untraced rounds of the same
run. The last line of stdout is the JSON result; the lines before it name
every metric with its unit, the mismatch ratio, the host and a host-speed
reference time. Full results and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("suite", "m6_sweep", "means_dense")
MIN_ROUNDS = 5
MIN_TRACED_ROUNDS = 2
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
OUT_DIR = ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("INEQFORGE_THREADS", None)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(root: Path, env: dict, *args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_loop_ms() -> float:
    """A fixed pure-Python loop; its time tracks the speed of the host."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def host_info(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ineqforge").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_file = root / ".git" / "HEAD"
    if not head_file.is_file():
        return "unknown (not a git checkout)"
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def tail(latencies: list[float], n_min: int) -> tuple[int, float]:
    """The highest listed percentile with at least ten queries beyond it.

    The percentile is chosen from n_min, the fewest queries a run can have,
    so every run of a workload reports the same percentile.
    """
    pct = next((p for p in TAIL_PERCENTILES if n_min * (100 - p) / 100 >= 10), 100)
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return pct, ordered[rank - 1]


def run_rounds(seconds: float, minimum: int, one_round) -> list:
    """Call one_round(i) until the next round would pass the time budget."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(one_round(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(root, env, args, report) -> dict:
    # Host speed drifts within seconds, so set-up samples are spread over the
    # run: a few first, then one before each round plus the round's own.
    run_worker(root, env, "setup")  # compiles bytecode; not a sample
    setup = [run_worker(root, env, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    host_ms = []

    def one_round(i):
        host_ms.append(reference_loop_ms())
        setup.append(run_worker(root, env, "setup")["setup_s"])
        result = run_worker(root, env, "round", args.workload, args.seed, i)
        setup.append(result["setup_s"])
        return result

    rounds = run_rounds(args.seconds, MIN_ROUNDS, one_round)
    latencies = [ms for r in rounds for ms in r["latencies_ms"]]
    pct, tail_ms = tail(latencies, MIN_ROUNDS * len(rounds[0]["latencies_ms"]))
    report.update(rounds=rounds, setup_samples_s=setup, host_ref_ms=host_ms)
    report["tail_percentile"] = pct
    report["queries"] = len(latencies)
    # Host speed switches between a fast and a slow state (see README), so a
    # median over rounds jumps with whichever state held most rounds; the
    # mean over rounds moves smoothly with the share of time in each.
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.fmean(r["wall_s"] for r in rounds), "s"),
        "query_p50_ms": metric(statistics.fmean(statistics.median(r["latencies_ms"]) for r in rounds), "ms"),
        "query_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }


LAYER_UNITS = {
    "catalog.load_s": "s",
    "catalog.m6_build_ms": "ms",
    "constants.solve_ms": "ms",
    "series.tables_ms": "ms",
    "kernels.grid_eval_s": "s",
    "kernels.points": "count",
    "kernels.ns_per_point": "ns",
    "kernels.exp_tcot_grid_ms": "ms",
    "verifier.kernel_chains_s": "s",
    "verifier.mean_chains_s": "s",
    "verifier.probes_s": "s",
    "verifier.monotone_s": "s",
    "verifier.limits_s": "s",
    "verifier.m6_regimes_s": "s",
    "verifier.chain_p50_ms": "ms",
    "verifier.links": "count",
    "verifier.points_evaluated": "count",
    "verifier.refine_evals": "count",
    "verifier.grid_reuse_ratio": "ratio",
    "means.bundle_calls": "count",
    "means.bundle_us": "us",
    "cli.report_json_ms": "ms",
}
COUNTS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "ratio")]


def traced_run(root, env, args, report) -> dict:
    out = root / OUT_DIR
    host_ms = []

    def one_pair(i):
        host_ms.append(reference_loop_ms())
        plain = run_worker(root, env, "round", args.workload, args.seed, i)
        spans = out / f"spans-{args.workload}-seed{args.seed}-round{i}.json"
        traced = run_worker(root, env, "traced", args.workload, args.seed, i, spans)
        return plain, traced

    pairs = run_rounds(args.seconds, MIN_TRACED_ROUNDS, one_pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    layers = [t["layers"] for t in traced]
    repeat = {name: len({lay[name] for lay in layers}) == 1 for name in COUNTS}
    report.update(rounds=plain, traced_rounds=traced, host_ref_ms=host_ms, counts_repeat=repeat)
    # Counts repeat exactly between rounds; times are medians over rounds.
    metrics = {
        name: metric(layers[0][name] if name in COUNTS else statistics.median(lay[name] for lay in layers), unit)
        for name, unit in LAYER_UNITS.items()
    }
    metrics["trace.overhead_s"] = metric(
        statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain),
        "s",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ineqforge" / "__init__.py").is_file():
        print(f"error: no ineqforge sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    env = child_env(root)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host_info(root)}
    try:
        if args.trace:
            metrics = traced_run(root, env, args, report)
        else:
            metrics = untraced_run(root, env, args, report)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = report["rounds"] + report.get("traced_rounds", [])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    report.update(metrics=metrics, attempted=attempted, failed=failed)
    result_path = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    host = report["host"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {len(report['rounds'])} rounds")
    print(
        f"host: nproc {host['nproc']}, cpu {host['cpu']}, python {host['python']}, "
        f"commit {host['commit']}, src sha256 {host['src_sha256'][:16]}"
    )
    print(f"host_ref_ms {statistics.median(report['host_ref_ms']):.2f} ms (reference loop, not gated)")
    for name, m in metrics.items():
        extra = ""
        if name == "query_tail_ms":
            extra = f" (p{report['tail_percentile']} of {report['queries']} queries)"
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    print(f"mismatch_ratio {failed / attempted:.6g} ({failed} of {attempted} checks)")
    unstable = [name for name, same in report.get("counts_repeat", {}).items() if not same]
    if unstable:
        print(f"warning: counts differ between traced rounds: {', '.join(unstable)}")
    for problem in (p for r in rounds for p in r["problems"]):
        print(f"mismatch: {problem}")
    print(f"outcomes: {json.dumps([r['outcomes'] for r in report['rounds']])}")
    print(f"details: {result_path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
