"""Regression: the map stages that once built fixed 2-actor pools run
on a 1-CPU Ray.

A ``map_batches(Cls, concurrency=2)`` stage reserves one CPU per actor,
so on a cluster with fewer CPUs than actors it waits forever.  These
queries now run their stages as tasks.  They run here in a fresh
process, because the session fixture owns a 4-CPU Ray, and under a
timeout that kills the whole process group, Ray's own processes too.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"
QUERIES = [
    "text_stats",
    "minmax_quality",
    "model_score",
    "join_semi",
    "bloom_semi_join",
    "zscore_outliers",
    "media_features",
]

SCRIPT = f"""
import pyarrow as pa
import ray
import ray.data

ray.init(address="local", num_cpus=1, object_store_memory=256 * 1024**2,
         include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
import __ray_entry__

qs = __ray_entry__.queries()
for name in {QUERIES!r}:
    out = qs[name]({SF!r})
    rows = out.num_rows if isinstance(out, pa.Table) else len(out.take_all())
    print("DONE", name, rows, flush=True)
ray.shutdown()
"""


def test_former_actor_pool_queries_finish_on_one_cpu():
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail(f"queries hung at num_cpus=1; finished: {_done(out)!r}")
    assert proc.returncode == 0, err[-2000:]
    assert _done(out) == QUERIES


def _done(out: str) -> list[str]:
    # the raylet also writes warnings to the driver's stdout
    return [ln.split()[1] for ln in out.splitlines() if ln.startswith("DONE ")]
