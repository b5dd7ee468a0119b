#!/usr/bin/env python3
"""Benchmark of the crawl, search and operator layers of the engine.

    python3 perfbench/run.py --workload {crawl,search,operators} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

It may be started from any directory: the repository root is the parent
of this file's directory, and Ray workers get it on their PYTHONPATH.
The last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Everything else, Ray's messages included,
goes to standard error.  Scratch files (page stores, Ray's session
directory when its path is short enough) live under ``.bench_run/`` in
the repository root and are removed on exit; traced runs leave their
spans in ``.bench_out/``.  README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "distributed_web_search_engine_crawler_indexing_pagerank__ray"
WORKLOADS = ("crawl", "search", "operators")
# Ray puts AF_UNIX sockets (at most 107 bytes) about 63 bytes below its
# temp dir, so a longer checkout path falls back to Ray's default dir.
RAY_TMP_MAX_LEN = 40
# Ray's object store is one file of its full size, mapped from /dev/shm.
# A fixed size keeps runs alike whatever memory the machine has free.
OBJECT_STORE_BYTES = 2 * 1024 * 1024 * 1024

END_TO_END_UNITS = {"setup_s": "s", "work_s": "s", "p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def process_age_s() -> float:
    """Seconds since the kernel started this process."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the smoke test")
    return p.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _proc_stat(pid: str) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def descendants() -> set[str]:
    """PIDs of every process below this one (Ray's daemons and workers)."""
    children: dict[str, list[str]] = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        st = _proc_stat(pid)
        if st:
            children.setdefault(st[1], []).append(pid)
    out, todo = set(), [str(os.getpid())]
    while todo:
        for c in children.get(todo.pop(), []):
            out.add(c)
            todo.append(c)
    return out


def wait_ended(pids: set[str], timeout_s: float = 30.0) -> None:
    """Wait until each process has exited (gone or a zombie)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        alive = [p for p in pids if (st := _proc_stat(p)) and st[0] != "Z"]
        if not alive:
            return
        time.sleep(0.1)
    print(f"perfbench: processes still running after shutdown: {alive}",
          file=sys.stderr)


def object_store_bytes() -> int:
    """OBJECT_STORE_BYTES, or half the process's file-size limit if that
    is less.  The raylet inherits the limit, and sizing the store's file
    beyond it kills the raylet with SIGXFSZ before it logs anything;
    ``ray.init`` then fails after a 30 s wait for the node."""
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    if limit == resource.RLIM_INFINITY:
        return OBJECT_STORE_BYTES
    return min(OBJECT_STORE_BYTES, limit // 2)


def start_ray(work: Path, trace: bool) -> None:
    import logging

    import ray

    from perfbench.workloads import NUM_CPUS

    env = {"PYTHONPATH": str(ROOT), "TMPDIR": str(work / "tmp")}
    if trace:
        env["CRAWL_STAGE_TIMING"] = "1"
    ray_tmp = work / "ray"
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=object_store_bytes(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env={"env_vars": env},
        _temp_dir=str(ray_tmp) if len(str(ray_tmp)) <= RAY_TMP_MAX_LEN else None,
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    # the driver-side engine code reads both from its own environment
    os.environ.update(env)


def measure(args: argparse.Namespace, work: Path) -> dict:
    import tempfile

    from perfbench import workloads

    (work / "tmp").mkdir(parents=True)
    start_ray(work, bool(args.trace))
    tempfile.tempdir = None  # pick up the TMPDIR set above
    wl = workloads.make(args.workload, args.seed, args.size, work,
                        bool(args.trace))
    wl.setup()
    setup_s = process_age_s()
    t0 = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rounds.append(wl.run_round())
    t1 = time.perf_counter()
    rss_mb = peak_rss_mb()  # before the checks, whose oracles are not measured
    problems = wl.check(rounds)
    print(f"perfbench: setup {setup_s:.1f} s, {len(rounds)} round(s) "
          f"{t1 - t0:.1f} s, checks {time.perf_counter() - t1:.1f} s",
          file=sys.stderr)
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        metrics = wl.layer_metrics(rounds)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"{args.workload}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps(wl.tracer.spans))
    else:
        values = {
            "setup_s": setup_s,
            "work_s": statistics.median(r.work_s for r in rounds),
            "p50_ms": statistics.median(
                ms for r in rounds for ms in r.op_ms
            ),
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / PACKAGE).is_dir() or not (ROOT / "__ray_entry__.py").is_file():
        print(f"perfbench: {ROOT} holds no {PACKAGE} package to measure",
              file=sys.stderr)
        return 2
    # Keep every write but the result off stdout, Ray's own included.
    result_fd = os.dup(1)
    os.dup2(2, 1)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.path[:0] = [str(ROOT)]
    work = ROOT / ".bench_run"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args, work)
    finally:
        import ray

        started = descendants()
        ray.shutdown()
        wait_ended(started)
        shutil.rmtree(work, ignore_errors=True)
    with os.fdopen(result_fd, "w") as out:
        out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
