"""Tiny-size runs of the benchmark, started from outside the repository:
each exits 0, prints one result line on stdout that names every metric
of BENCHMARK.json with its unit, and leaves no scratch files or Ray
processes behind.  A copy holding only the benchmark refuses to run."""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, root: Path, workload: str, trace: int, **kwargs):
    cmd = [sys.executable, str(root / SPEC["command"][1]), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          **kwargs)


def _ray_processes() -> dict[str, str]:
    """Running (not zombie) processes whose command line names Ray."""
    found = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            cmd = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode(
                errors="replace")
        except (OSError, IndexError):
            continue
        if state != "Z" and "ray" in cmd.lower():
            found[pid] = cmd
    return found


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_from_outside_the_repo(tmp_path, workload, trace):
    before = _ray_processes()
    proc = _bench(tmp_path, ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    result = json.loads(lines[0])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".bench_run").exists()
    assert {p: c for p, c in _ray_processes().items() if p not in before} == {}


FILE_SIZE_LIMIT = 1 << 30


def _limit_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))


@pytest.mark.slow
def test_tiny_run_under_a_file_size_limit(tmp_path):
    """Ray's object store is one file of its full size; a store larger
    than the file-size limit kills the raylet at start."""
    proc = _bench(tmp_path, ROOT, "crawl", 0, preexec_fn=_limit_file_size)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_object_store_fits_the_file_size_limit(monkeypatch):
    from perfbench import run

    monkeypatch.setattr(run.resource, "getrlimit", lambda r: (run.resource.RLIM_INFINITY,) * 2)
    assert run.object_store_bytes() == run.OBJECT_STORE_BYTES
    monkeypatch.setattr(run.resource, "getrlimit", lambda r: (FILE_SIZE_LIMIT,) * 2)
    assert run.object_store_bytes() == FILE_SIZE_LIMIT // 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, tmp_path, "crawl", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
