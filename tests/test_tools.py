"""The helper scripts under tools/ run against this tree."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGEST_FAMILIES = [
    ("suite", 1),
    ("chains_probes", 67),
    ("kernels", 23),
    ("m6", 69),
    ("means", 80),
    ("flipped", 165),
    ("flipped_dense", 165),
    ("monotone_flipped", 92),
    ("catalog", 67),
]


def test_report_digest_prints_every_family():
    # Two trees are compared by these lines, so the script must keep running
    # and keep its families; the digests themselves are not pinned here.
    proc = subprocess.run(
        [sys.executable, "tools/report_digest.py", "src"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(name, int(count)) for name, count, _ in lines] == DIGEST_FAMILIES
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, _, digest in lines)


def test_report_digest_compares_a_tree_with_itself():
    proc = subprocess.run(
        [sys.executable, "tools/report_digest.py", "src", "src"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        [name, "same"] for name, _ in DIGEST_FAMILIES
    ]


def test_report_digest_names_a_tree_whose_reports_raise(tmp_path):
    # The error's class lives in the tree's own package, which the parent
    # process cannot import: the child sends it back as text.
    package = tmp_path / "ineqforge"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "kernels.py").write_text("")
    (package / "verifier.py").write_text("VerificationConfig = None\n")
    (package / "catalog.py").write_text(
        "class CatalogError(Exception):\n    pass\n\n\n"
        "def load_catalog():\n    raise CatalogError('no catalog here')\n"
    )
    proc = subprocess.run(
        [sys.executable, "tools/report_digest.py", str(tmp_path), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: tree {tmp_path}: CatalogError: no catalog here"
    ] * 2


def test_report_digest_names_leaves_by_json_path():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import report_digest
    finally:
        sys.path.remove(str(ROOT / "tools"))
    leaves = report_digest._leaves([{"links": [{"min_margin": 0.5}], "note": None}])
    assert leaves == {"$[0].links[0].min_margin": "0.5", "$[0].note": "null"}


def test_report_digest_counts_differing_leaves_by_key_path():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import report_digest
    finally:
        sys.path.remove(str(ROOT / "tools"))
    paths = ["$[0].links[0].min_margin", "$[3].note", "$[1].links[2].min_margin"]
    assert report_digest._key_counts(paths) == "links.min_margin 2, note 1"


def _bench_run(workload, seed, pair, side, value, correct=True):
    """A run record of tools/bench_pairs.py with every metric at ``value``."""
    metrics = {name: {"value": value, "unit": "ms"} for name in
               ("setup_s", "wall_s", "query_p50_ms", "query_tail_ms", "peak_rss_mb")}
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
              "metrics": metrics, "host": "host: nproc 2, cpu X, python 3.11.7"}
    return {"workload": workload, "seed": seed, "pair": pair, "side": side, "result": result}


def test_bench_pairs_summarizes_alternating_pairs():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    parent = [3.0, 1.0, 4.0, 1.5, 5.0]
    change = [2.0, 1.0, 3.0, 2.5, 4.0]  # won 3, tied 1, lost 1
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        seed = 6 + pair
        order = [("parent", p), ("change", c)] if pair % 2 else [("change", c), ("parent", p)]
        runs += [_bench_run("means_dense", seed, pair, side, v, correct=(side, pair) != ("change", 4))
                 for side, v in order]
    summary = bench_pairs.summarize(runs, 30.0, "abc", "def")
    assert (summary["parent_commit"], summary["change_commit"], summary["seconds"]) == ("abc", "def", 30.0)
    w = summary["workloads"]["means_dense"]
    assert w["seeds"] == [7, 8, 9, 10, 11] and w["pairs"] == 5
    assert w["host"] == ["host: nproc 2, cpu X, python 3.11.7"]
    assert w["first_side"] == {"7": "parent", "8": "change", "9": "parent", "10": "change", "11": "parent"}
    assert w["correct"] == {"parent": True, "change": False}
    assert w["failed"] == {"parent": 0, "change": 1}
    assert w["attempted"] == {"parent": 50, "change": 50}
    m = w["metrics"]["query_p50_ms"]
    # quantiles(n=4) of 1, 1.5, 3, 4, 5 are 1.25, 3 and 4.5
    assert (m["parent_median"], m["change_median"], m["parent_iqr"]) == (3.0, 2.5, 3.25)
    assert m["change_pct"] == (2.5 - 3.0) / 3.0 * 100.0
    assert (m["pairs_won"], m["pairs_lost"]) == (3, 1)
    assert (m["parent_runs"], m["change_runs"]) == (parent, change)
    with pytest.raises(ValueError, match="every pair needs one parent and one change run"):
        bench_pairs.summarize(runs[:-1], 30.0)


def test_bench_pairs_verdicts_follow_the_benchmark_rules():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    steady = [1.0] * 10
    spread = [1.0, 2.0] * 5
    cases = {
        # workload: parent runs, change runs
        "slower": (steady, [1.3] * 10),
        "faster": ([1.0 + k / 100 for k in range(10)], [0.5] * 10),
        "noisy": (spread, [1.5] * 10),
        "noisy_but_below": (spread, [0.95] * 10),
        "same": (steady, steady),
        "one_pair_lost": ([1.0 + k / 100 for k in range(10)], [0.5] * 9 + [2.0]),
        "two_pairs_lost": ([1.0 + k / 100 for k in range(10)], [0.5] * 8 + [2.0] * 2),
    }
    runs = []
    for workload, (parent, change) in cases.items():
        for pair, (p, c) in enumerate(zip(parent, change), start=1):
            runs += [_bench_run(workload, pair, pair, "parent", p),
                     _bench_run(workload, pair, pair, "change", c)]
    bounds = dict.fromkeys(bench_pairs.METRICS, 0.25) | {"peak_rss_mb": 0.1}
    verdicts = bench_pairs.verdicts(bench_pairs.summarize(runs, 30.0), bounds)
    assert {w: set(v.values()) for w, v in verdicts.items() if w != "same"} == {
        "slower": {"regression"},
        "faster": {"gain"},
        # the parent's quartiles are 1 and 2: a spread of 100% of its median
        "noisy": {"unresolved"},
        # every change run beats every parent run, by less than the spread
        "noisy_but_below": {"no_regression"},
        "one_pair_lost": {"gain"},
        "two_pairs_lost": {"no_regression"},
    }
    assert set(verdicts["same"].values()) == {"no_regression"}
    # +15% is within the 25% bounds and beyond peak_rss_mb's 10% bound
    runs = [_bench_run("rss", k, k, side, v) for k in range(1, 11)
            for side, v in (("parent", 1.0), ("change", 1.15))]
    verdicts = bench_pairs.verdicts(bench_pairs.summarize(runs, 30.0), bounds)
    assert verdicts["rss"] == dict.fromkeys(bench_pairs.METRICS, "no_regression") | {
        "peak_rss_mb": "regression"
    }
