"""Smoke test of the benchmark at tiny sizes, with no timing gate.

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload once untraced and once traced, and checks that each
metric BENCHMARK.json names is printed with its unit, that the correctness
checks pass, that one seed always gives the same repository, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import gen_repo  # noqa: E402
from run import TINY  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])
    text = "\n".join(lines[:-1])
    assert "git child processes are excluded" in text
    assert "error_rate: 0/" in text
    if workload != "corpus":
        assert "trace_mismatches: 1 of" in text  # the copied method


def test_one_seed_gives_one_repository(tmp_path):
    spec = TINY["deep-history"][0]
    first = gen_repo.generate(spec, 5, tmp_path / "a")
    second = gen_repo.generate(spec, 5, tmp_path / "b")
    other = gen_repo.generate(spec, 6, tmp_path / "c")
    assert first.head == second.head and first.ledger == second.ledger
    assert other.head != first.head


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("deep-history", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
