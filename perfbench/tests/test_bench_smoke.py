"""Each workload end to end at one block per SNR point, in a subprocess."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR
from workloads import WORKLOADS

ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
LCHASE_PER_STREAM = {"gate-16qam": 52, "corr-64qam": 232, "long-code-2x2": 6}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert set(LCHASE_PER_STREAM) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        got = result["metrics"]["counters.lchase.per_stream"]["value"]
        assert got == LCHASE_PER_STREAM[workload]
        assert abs(result["metrics"]["trace.unattributed_pct"]["value"]) < 5.0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "gate-16qam", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
