"""Run the benchmark in two source trees, in alternating pairs, and summarize.

Usage: python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR OUT_JSON
           [--pairs N] [--first-seed S] [--parent-commit SHA] [--change-commit SHA]

PARENT_DIR and CHANGE_DIR are checkouts, such as ``git archive`` exports, each
with its own ``bench/`` and ``src/``. Each tree's sources are compiled first
with ``python3 -m compileall -q src``, and every run has
PYTHONDONTWRITEBYTECODE=1, so both sides start from the same bytecode state.
Pair k (k = 1..N, 10 by default) runs every workload at seed S + k - 1 as

    python3 bench/run.py --workload W --seed SEED --seconds T --trace 0

from the root of each tree, the parent first in odd pairs and the change
first in even ones, the workloads interleaved within each pair. The
workloads and T, the run length, are those of the parent's BENCHMARK.json.
Each run's JSON result line is printed to stdout as it lands, and OUT_JSON
gets the summary: per workload and end-to-end metric, both sides' medians,
their interquartile ranges (statistics.quantiles(n=4)), the change in
percent and the pairs the change won and lost, and ``verdicts``: the
benchmark's verdict on each workload and metric, against the bounds of the
parent's BENCHMARK.json ``end_to_end``, which the record keeps as
``bounds``. Lower is better for every metric; a pair is won when the change
reads lower, and a tie counts for neither side. A run that fails is a
RuntimeError naming the tree, the workload and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "wall_s", "query_p50_ms", "query_tail_ms", "peak_rss_mb")
SIDES = ("parent", "change")


def first_side(pair: int) -> str:
    """The side that runs first in pair ``pair``, counted from 1."""
    return "parent" if pair % 2 else "change"


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its JSON result line, with the host line
    that bench/run.py prints, trimmed of the commit and the source hash."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    host = next((line for line in lines if line.startswith("host: ")), "host: unknown")
    return {**json.loads(lines[-1]), "host": host.split(", commit ")[0]}


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: list[dict], seconds: float, parent_commit=None, change_commit=None) -> dict:
    """The BENCH record of ``runs``: dicts with ``workload``, ``seed``,
    ``pair``, ``side`` and ``result``, the result line of run_one. A metric's
    runs are listed in pair order."""
    workloads = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = sorted((r for r in runs if r["workload"] == workload), key=lambda r: r["pair"])
        by_side = {side: [r for r in mine if r["side"] == side] for side in SIDES}
        pairs = sorted({r["pair"] for r in mine})
        if [r["pair"] for r in by_side["parent"]] != pairs or [r["pair"] for r in by_side["change"]] != pairs:
            raise ValueError(f"{workload}: every pair needs one parent and one change run")
        metrics = {}
        for name in METRICS:
            values = {side: [r["result"]["metrics"][name]["value"] for r in by_side[side]] for side in SIDES}
            parent_median = statistics.median(values["parent"])
            change_median = statistics.median(values["change"])
            zipped = list(zip(values["parent"], values["change"]))
            metrics[name] = {
                "unit": by_side["parent"][0]["result"]["metrics"][name]["unit"],
                "parent_median": parent_median,
                "change_median": change_median,
                "change_pct": (change_median - parent_median) / parent_median * 100.0,
                "parent_iqr": _iqr(values["parent"]),
                "change_iqr": _iqr(values["change"]),
                "pairs_won": sum(c < p for p, c in zipped),
                "pairs_lost": sum(c > p for p, c in zipped),
                "parent_runs": values["parent"],
                "change_runs": values["change"],
            }
        workloads[workload] = {
            "seeds": [r["seed"] for r in by_side["parent"]],
            "pairs": len(pairs),
            "host": sorted({r["result"]["host"] for r in mine}),
            "first_side": {str(r["seed"]): first_side(r["pair"]) for r in by_side["parent"]},
            "correct": {side: all(r["result"]["correct"] for r in by_side[side]) for side in SIDES},
            "failed": {side: sum(r["result"]["failed"] for r in by_side[side]) for side in SIDES},
            "attempted": {side: sum(r["result"]["attempted"] for r in by_side[side]) for side in SIDES},
            "metrics": metrics,
        }
    return {
        "description": (
            "Alternating pairs of `python3 bench/run.py --workload W --seed S --seconds "
            f"{seconds:g} --trace 0` on the parent and on the change, made by "
            "tools/bench_pairs.py: parent first in odd pairs and change first in even ones, "
            "workloads interleaved within each pair. Each tree was compiled with "
            "`python3 -m compileall -q src` first and run with PYTHONDONTWRITEBYTECODE=1. "
            "Lower is better for every metric; a pair is won when the change reads lower, "
            "and ties count for neither side. Quartiles are statistics.quantiles(n=4) of "
            "each side's runs."
        ),
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "seconds": seconds,
        "workloads": workloads,
    }


def verdicts(summary: dict, bounds: dict[str, float]) -> dict:
    """The benchmark's verdict on each workload and metric of ``summary``, a
    record of summarize, with ``bounds`` each metric's relative bound. The
    first rule that holds gives the verdict:

    - ``regression``: the change's median is worse than the parent's by more
      than the bound;
    - ``gain``: the change won at least 9 in 10 pairs, and its median is
      better than the parent's by more than the parent's interquartile range;
    - ``unresolved``: the parent's interquartile range exceeds the bound
      relative to its median, and not every change run beats every parent run;
    - ``no_regression`` otherwise.
    """
    result = {}
    for workload, record in summary["workloads"].items():
        result[workload] = {}
        for name, m in record["metrics"].items():
            bound, parent, change = bounds[name], m["parent_median"], m["change_median"]
            if change - parent > bound * parent:
                verdict = "regression"
            elif 10 * m["pairs_won"] >= 9 * record["pairs"] and parent - change > m["parent_iqr"]:
                verdict = "gain"
            elif m["parent_iqr"] > bound * parent and not max(m["change_runs"]) < min(m["parent_runs"]):
                verdict = "unresolved"
            else:
                verdict = "no_regression"
            result[workload][name] = verdict
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--parent-commit")
    parser.add_argument("--change-commit")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    runs = []
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = SIDES if first_side(pair) == "parent" else SIDES[::-1]
        for workload in (w["name"] for w in declared["workloads"]):
            for side in order:
                result = run_one(trees[side], workload, seed, seconds)
                run = {"workload": workload, "seed": seed, "pair": pair, "side": side, "result": result}
                print(json.dumps(run), flush=True)
                runs.append(run)
    summary = summarize(runs, seconds, args.parent_commit, args.change_commit)
    summary["bounds"] = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary["verdicts"] = verdicts(summary, summary["bounds"])
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
