"""Smoke test of the benchmark: every workload once at reduced size.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs with and without tracing; the run must print every
metric ``BENCHMARK.json`` names, with its unit, and every output check
must pass.  A copy of the benchmark without the package must refuse to
run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    assert last["attempted"] >= 1
    assert last["failed"] == 0 and last["correct"], "\n".join(lines[:-1])
    assert any(line.split()[1:2] == ["fail_frac"] for line in lines[:-1])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "scan", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
