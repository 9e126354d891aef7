"""One round of each benchmark workload, run as the benchmark runs it.

bench/worker.py drives the package through its public API, for example
VerificationConfig(ratio_samples=..., ratio_max=...), config.endpoint_eps and,
in a traced round, verifier.make_m6_chain, and checks every output of its
round. A change that breaks that API or those outputs fails here, before a
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "mode, workload",
    [
        ("round", "suite"),
        ("round", "m6_sweep"),
        ("round", "means_dense"),
        ("traced", "m6_sweep"),
    ],
)
def test_benchmark_round_runs_without_failures(tmp_path, child_env, mode, workload):
    argv = [sys.executable, "bench/worker.py", mode, workload, "1", "0"]
    if mode == "traced":
        argv.append(str(tmp_path / "spans.json"))
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
