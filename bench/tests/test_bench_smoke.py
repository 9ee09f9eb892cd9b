"""Smoke runs of every workload at the smallest size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["polytree", "loopy", "cli"])
def test_smoke_run_prints_every_metric(workload, trace, tmp_path):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--size", "smoke", "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith(workload)
    result = json.loads(lines[-1])
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = manifest["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        dump = json.loads(next(tmp_path.glob(f"trace-{workload}-*.json")).read_text())
        assert dump["spans"] and "trace.overhead_ratio" in dump
    assert not list(tmp_path.glob("cli-*"))


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "polytree", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
