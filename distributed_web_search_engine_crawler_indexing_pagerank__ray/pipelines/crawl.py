"""Ray-Data-native crawler: the north-rule pipeline.

Replaces the reference's round loop (``src/jobs/Crawler.java:131-438``)
— per-URL synchronous KVS RPCs inside a Flame ``flatMap`` — with
explicit BFS waves, each ONE fused ``ray.data`` execution of ONE merged
stage over hash-partitioned frontier blocks:

    frontier (sharded FrontierShard actors: (url, part) rows with
    part = hash(hostname) % P, assigned inside the PREVIOUS wave's
    tasks; duplicates allowed; the driver holds ONLY the per-part
    count vector — P ints — never a URL)
        ──► driver groups whole partitions into ~equal-count part
            RANGES (a scan over P counts) and submits one one-row
            (lo, hi) spec block per range
        ──► wave_stage (map_batches, stages/fetch.py): range pull from
            the owning FrontierShard(s) → block-local distinct →
            HostShard politeness admission (hash-sharded by hostname;
            robots cache, next-fetch-time walk at virtual t_k, host
            caps) → synthetic fetch → interleaved-span page rows to
            `wave=K/` parquet in-stage → link pipeline + enqueue
            probes against the wave-start seen snapshot → partitioned
            (raw ∪ survivor ∪ redirect) rows PUSHED to the
            FrontierShards (all shard writes fired async and awaited
            at block end — RPC/compute overlap)
        ──► driver barrier: FrontierShard ``commit`` (buffer → next
            frontier, returns per-part counts) + SeenShard
            ``reconcile`` + HostShard ``end_wave``.

Wave semantics are the virtual-time model documented in
``oracle/crawl_oracle.py`` — the engine's per-wave outputs are tested
for exact equality (attempted / fetched / throttled / visited /
enqueued / frontier / final seen set / span sequences) against that
single-threaded oracle.  Determinism under the new partitioning: a
block holds COMPLETE hostname groups by construction (partition key =
hostname hash), and decisions depend only on shard state + complete
host groups + t_k, so block composition cannot change results.

Scale notes (10^10-URL frontier): page payloads never reach the driver
(written to `wave=K/` parquet partitions from inside the stage — the
resumable-output layout); state exchanges are batched actor RPCs
sharded by hash (no all-to-all shuffle in the steady state); frontier
rows move task → FrontierShard → task (the r2 driver-held frontier
table is gone — the per-wave driver allocation is now O(P) counts +
O(tasks) metadata rows).  At 10^10 URLs each FrontierShard additionally
SPILLS its committed slice to its own parquet partition instead of
actor memory (``frontier_spill_rows`` / GRAFT_FRONTIER_SPILL_ROWS;
range pulls read only the covering row groups — see
state/actors.FrontierShard); tests/test_crawl_scenarios.py proves a
spilling crawl is wave-identical to the in-memory one.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.urlnorm import hostname as _hostname
from ..functions.urlnorm import normalize_seed_url
from ..sources.synthetic_web import CrawlParams, SyntheticWeb, WebConfig
from ..state.actors import (
    FrontierShard,
    HostShard,
    SeenShard,
    ref_hash_and_key64,
)
from ..stages.fetch import (
    CONTRIB_SCHEMA,
    PAGE_OUT_SCHEMA,
    make_wave_stage,
    part_of_hostname,
)


class WaveStats(dict):
    """Per-wave lineage record (north rule: per-partition metrics)."""


def _warm_dataset_executor() -> None:
    """The FIRST Dataset execution of a Ray session pays ~1.4 s of
    one-time setup (stats actor, streaming-executor init) that would
    otherwise land inside wave 0's critical path; run a 1-row no-op
    pipeline so wave 0 starts on a warm executor.  Fired on a side
    thread during seeding — it overlaps the seed prep work."""
    try:
        ray.data.from_arrow(pa.table({"x": [0]})).map_batches(
            lambda b: b, batch_format="pyarrow"
        ).materialize()
    except Exception:
        pass  # best-effort: a failed warmup only costs wave-0 latency


@ray.remote(num_cpus=1)
def _seed_stripe(cfg_ref, k0: int, k1: int, step: int) -> pa.Table:
    """One stripe of the seed-candidate grid (i = k*step for k in
    [k0, k1)): applies ``SyntheticWeb.seed_urls``'s own candidate rule
    (countable fetch, i % 23 != 5) and pre-computes the normalized
    form, reference hash, key64 and frontier partition per candidate.
    The driver concatenates stripes in k-order, truncates to n_seeds
    candidates and dedups — bit-identical to the sequential
    ``seed_urls`` + per-URL driver loop it replaces (~1.8 s of driver
    time at the 100k-seed bench scale)."""
    from ..stages.fetch import part_of_hostname, web_for_ref

    web = web_for_ref(cfg_ref)
    n_docs = web.cfg.n_docs
    urls: list[str] = []
    norms: list[str | None] = []
    hashes: list[str] = []
    keys: list[int] = []
    parts: list[int] = []
    for k in range(k0, k1):
        i = k * step
        if i >= n_docs:
            break
        if i % 23 == 5:
            continue
        u = web.url_of(i)
        if not web.is_countable_fetch(u):
            continue
        urls.append(u)
        n = normalize_seed_url(u)
        norms.append(n)
        if n is None:
            hashes.append("")
            keys.append(0)
            parts.append(0)
        else:
            h, key = ref_hash_and_key64(n)
            hashes.append(h)
            keys.append(key)
            parts.append(part_of_hostname(_hostname(n), N_FRONTIER_PARTS))
    return pa.table(
        {
            "norm": pa.array(norms, pa.string()),
            "url_hash": pa.array(hashes, pa.string()),
            "key64": pa.array(keys, pa.uint64()),
            "part": pa.array(parts, pa.int32()),
        }
    )


def _sorted_unique(arr) -> pa.Array:
    """Distinct + ascending sort of a string array (pyarrow kernels —
    the driver never loops Python over frontier rows)."""
    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(list(arr), pa.string())
    u = pc.unique(arr if isinstance(arr, pa.Array) else arr.combine_chunks())
    idx = pc.array_sort_indices(u)
    return u.take(idx)


def spans_fingerprint(pages: pa.Table) -> int:
    """Order-invariant 64-bit fingerprint over (url_hash, span
    sequence): XOR of md5 over one canonical string per page row —
    ``url_hash|kind\\x1ftext\\x1fmedia_ref\\x1foffset;...`` with spans in
    stored order.  The row strings are built with arrow kernels (flat
    per-span join + list re-wrap + per-row join); only the md5 fold is
    a Python loop over final strings.  XOR makes the fold associative,
    so at scale each wave partition fingerprints independently and the
    driver folds one int per block."""
    import hashlib

    if pages.num_rows == 0:
        return 0
    import numpy as np

    spans = pages["spans"].combine_chunks()
    flat = spans.flatten()
    per_span = pc.binary_join_element_wise(
        pc.fill_null(flat.field("kind"), ""),
        pc.fill_null(flat.field("text"), ""),
        pc.fill_null(flat.field("media_ref"), ""),
        pc.cast(flat.field("offset"), pa.string()),
        "\x1f",
    )
    # rebuild 0-based offsets from per-row lengths (robust to sliced /
    # non-zero-offset list arrays, where .offsets would misalign with
    # flatten()'s output)
    offs = pa.array(
        np.concatenate(
            [
                [0],
                np.cumsum(
                    pc.fill_null(pc.list_value_length(spans), 0).to_numpy(
                        zero_copy_only=False
                    )
                ),
            ]
        ).astype(np.int64),
        pa.int32(),
    )
    per_row = pc.binary_join(pa.ListArray.from_arrays(offs, per_span), ";")
    keyed = pc.binary_join_element_wise(
        pages["url_hash"].combine_chunks(), per_row, "|"
    )
    fp = 0
    for s in keyed.to_pylist():
        fp ^= int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")
    return fp


N_FRONTIER_PARTS = 192  # fixed hostname-hash partition count: identical
# partitioning at every parallelism level; blocks = groups of partitions


def _ranges_from_counts(counts, n_blocks: int) -> list[tuple[int, int, int]]:
    """Group the P frontier partitions into ~equal-row contiguous part
    ranges — the driver's ENTIRE per-wave frontier work: a single scan
    over the P-int count vector the FrontierShards returned at commit.
    Returns (lo, hi, rows) triples, largest first (tasks dispatch in
    order, so the straggler tail of each wave shrinks to the smallest
    ranges).  A range of whole partitions holds complete host groups by
    construction; duplicates are counted (blocks dedup themselves)."""
    import numpy as np

    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n == 0:
        return []
    nz = np.nonzero(counts)[0]
    n_blocks = max(1, min(n_blocks, len(nz)))
    target = max(1, n // n_blocks)
    out: list[tuple[int, int, int]] = []
    lo = 0
    acc = 0
    for i, p in enumerate(nz):
        acc += int(counts[p])
        last = i == len(nz) - 1
        if (acc >= target and len(out) < n_blocks - 1) or last:
            hi = int(counts.shape[0] - 1) if last else int(p)
            out.append((lo, hi, acc))
            lo = int(p) + 1
            acc = 0
    return sorted(out, key=lambda r: r[2], reverse=True)


class CrawlEngine:
    def __init__(
        self,
        web_cfg: WebConfig,
        params: CrawlParams,
        *,
        n_host_shards: int = 4,
        n_seen_shards: int = 4,
        n_frontier_shards: int | None = None,  # default: n_seen_shards
        fetch_concurrency: int = 4,  # retained: floor on wave block count
        fetch_batch_size: int = 256,
        actor_num_cpus: float = 0,  # >0 at bench/cluster scale (see actors.py)
        fidelity: str = "reference",
        record_waves: bool = False,
        out_dir: str | None = None,
        checkpoint_dir: str | None = None,
        frontier_spill_rows: int | None = None,  # 0/None-env = in-memory;
        # >0: each FrontierShard spills its committed part-sorted slice
        # to its own parquet partition past this row count (the 10^10-
        # URL path; GRAFT_FRONTIER_SPILL_ROWS sets it fleet-wide)
    ):
        self.web_cfg = web_cfg
        self.params = params
        self.record_waves = record_waves
        self._owns_out_dir = out_dir is None
        self.out_dir = out_dir or tempfile.mkdtemp(prefix="crawl_out_")
        self.checkpoint_dir = checkpoint_dir
        self.fetch_concurrency = fetch_concurrency
        self.fetch_batch_size = fetch_batch_size
        self.cfg_ref = ray.put(web_cfg)
        pd = {"max_pages_per_host": params.max_pages_per_host}
        host_cls = (
            HostShard.options(num_cpus=actor_num_cpus)
            if actor_num_cpus
            else HostShard
        )
        seen_cls = (
            SeenShard.options(num_cpus=actor_num_cpus)
            if actor_num_cpus
            else SeenShard
        )
        self.host_shards = [
            host_cls.remote(i, web_cfg, pd, fidelity) for i in range(n_host_shards)
        ]
        self.n_seen = n_seen_shards
        self.seen_shards = [seen_cls.remote(i) for i in range(n_seen_shards)]
        # frontier shards are BURSTY-idle (one pull burst at wave start,
        # one commit sort at the barrier, cheap push appends in between)
        # — unlike the host/seen shards they never sit on the critical
        # admission path, so they get HALF the shard count and a
        # quarter-CPU reservation: a full num_cpus=1 per shard would
        # eat the map-task slot budget (measured: +8 frontier actors at
        # num_cpus=1 on 32 cpus left 8 task slots and halved pages/s)
        nf = n_frontier_shards or max(2, n_seen_shards // 2)
        front_cls = (
            FrontierShard.options(num_cpus=actor_num_cpus * 0.25)
            if actor_num_cpus
            else FrontierShard
        )
        import os

        spill = (
            frontier_spill_rows
            if frontier_spill_rows is not None
            else int(os.environ.get("GRAFT_FRONTIER_SPILL_ROWS", 0))
        )
        self.frontier_shards = [
            front_cls.remote(i, nf, N_FRONTIER_PARTS, spill) for i in range(nf)
        ]
        self._f_bounds = [
            (s + 1) * N_FRONTIER_PARTS // nf for s in range(nf)
        ]
        self.waves: list[WaveStats] = []
        self.pages_total = 0
        self.wave_idx = 0
        import numpy as np

        self.part_counts = np.zeros(N_FRONTIER_PARTS, dtype=np.int64)
        self.frontier_total = 0
        self.host_counts: dict[str, int] = {}  # committed (wave-start) view
        self._hn_keys: dict[str, int] = {}  # hostname → key64 memo

    @property
    def frontier(self) -> int:
        """Row count of the committed frontier (the URLs themselves
        live in the FrontierShards; truthiness = non-empty)."""
        return self.frontier_total

    def _counts_arrays(self):
        """Wave-start hostname counts as sorted (key64, count) numpy
        arrays — the zero-copy broadcast form (see fetch stage)."""
        import numpy as np

        items = self.host_counts
        if not items:
            return (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        memo = self._hn_keys
        keys = np.empty(len(items), dtype=np.uint64)
        counts = np.empty(len(items), dtype=np.int64)
        for i, (hn, c) in enumerate(items.items()):
            v = memo.get(hn)
            if v is None:
                v = memo[hn] = ref_hash_and_key64(hn)[1]
            keys[i] = v
            counts[i] = c
        order = np.argsort(keys, kind="stable")
        return keys[order], counts[order]

    # -- seeding (C1/C2) -----------------------------------------------------

    def seed(self, seeds: list[str] | None = None) -> list[str]:
        import threading

        import numpy as np

        from ..stages.fetch import warm_worker

        # fire-and-forget worker warmup (package import + web cache)
        # overlapping the seed normalization below; wave 0's map_batches
        # tasks then start on warm processes
        # one-time Ray Data executor setup off wave 0's critical path,
        # overlapping the seed prep below
        warm_exec = threading.Thread(target=_warm_dataset_executor, daemon=True)
        warm_exec.start()
        n_seeds = self.params.n_seeds
        stripe_refs = None
        if seeds is None and n_seeds > 20_000:
            # generated-seed bench path: the candidate grid is striped
            # over ray tasks (the sequential seed_urls + normalize +
            # partition driver loops cost ~1.8 s at 100k seeds — a fixed
            # term the 4N parallelism level pays at the same absolute
            # price as N).  Fired BEFORE the warm_worker fan-out so the
            # stripes don't queue behind 2×concurrency warm tasks.
            step = max(1, self.web_cfg.n_docs // max(1, n_seeds * 2))
            k_max = (self.web_cfg.n_docs + step - 1) // step
            n_stripes = min(16, max(1, k_max // 4096 + 1))
            bounds = [k_max * s // n_stripes for s in range(n_stripes + 1)]
            stripe_refs = [
                _seed_stripe.remote(self.cfg_ref, bounds[s], bounds[s + 1], step)
                for s in range(n_stripes)
            ]
        # fire-and-forget worker warmup (package import + web cache)
        # for the workers the stripes don't touch; wave 0's map_batches
        # tasks then start on warm processes
        self._warm_refs = [
            warm_worker.remote(self.cfg_ref)
            for _ in range(2 * max(2, self.fetch_concurrency))
        ]
        if stripe_refs is not None:
            cand = pa.concat_tables(ray.get(stripe_refs)).slice(0, n_seeds)
            # seed_urls stops at n_seeds candidates — hence the slice
        else:
            raw = (
                seeds
                if seeds is not None
                else SyntheticWeb(self.web_cfg).seed_urls(n_seeds)
            )
            norms = [normalize_seed_url(s) for s in raw]
            hk = [
                ("", 0, 0) if n is None
                else (*ref_hash_and_key64(n),
                      part_of_hostname(_hostname(n), N_FRONTIER_PARTS))
                for n in norms
            ]
            cand = pa.table(
                {
                    "norm": pa.array(norms, pa.string()),
                    "url_hash": pa.array([r[0] for r in hk], pa.string()),
                    "key64": pa.array([r[1] for r in hk], pa.uint64()),
                    "part": pa.array([r[2] for r in hk], pa.int32()),
                }
            )
        # vectorized first-occurrence dedup in candidate order (the
        # reference's insertion-ordered HashSet semantics)
        import pandas as pd

        norm_s = cand["norm"].to_pandas()
        keep = norm_s.notna() & ~norm_s.duplicated(keep="first")
        cand = cand.take(pa.array(np.nonzero(keep.to_numpy())[0]))
        normalized = cand["norm"].to_pylist()
        keys = cand["key64"].to_numpy()
        shard_of = (keys % np.uint64(self.n_seen)).astype(np.int64)
        url_arr = cand["norm"].combine_chunks()
        hash_arr = cand["url_hash"].combine_chunks()
        probes = []
        for s in range(self.n_seen):
            m = shard_of == s
            if not m.any():
                continue
            idx = pa.array(np.nonzero(m)[0])
            probes.append(
                self.seen_shards[s].probe_enqueue_arrays.remote(
                    url_arr.take(idx), hash_arr.take(idx), keys[m]
                )
            )
        ray.get(probes)
        ray.get([s.reconcile.remote() for s in self.seen_shards])
        self._push_frontier_table(
            pa.table({"url": url_arr, "part": cand["part"].combine_chunks()})
        )
        self._commit_frontier()
        warm_exec.join(timeout=30)
        return normalized

    # -- frontier representation ----------------------------------------------

    def _partition_table(self, urls) -> pa.Table:
        """(url, part) table for the cold driver-side paths (seeds,
        legacy checkpoint resume) — the steady state gets parts
        assigned inside the wave tasks."""
        urls = list(urls)
        parts = [
            part_of_hostname(_hostname(u), N_FRONTIER_PARTS) for u in urls
        ]
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "part": pa.array(parts, pa.int32()),
            }
        )

    def _commit_frontier(self) -> None:
        """Barrier half: promote the shards' push buffers to the next
        frontier; the driver keeps only the P-int count vector."""
        import numpy as np

        counts = ray.get(
            [fs.commit.remote() for fs in self.frontier_shards]
        )
        self.part_counts = np.sum(counts, axis=0)
        self.frontier_total = int(self.part_counts.sum())

    def _push_frontier_table(self, tbl: pa.Table) -> None:
        """Route (url, part) rows to their owning shards — one
        vectorized owner assignment — WITHOUT committing."""
        import numpy as np

        parts = tbl["part"].combine_chunks().to_numpy()
        owner = np.searchsorted(self._f_bounds, parts, side="right")
        pushes = []
        for s, fs in enumerate(self.frontier_shards):
            m = owner == s
            if m.any():
                pushes.append(
                    fs.push.remote(tbl.take(pa.array(np.nonzero(m)[0])))
                )
        ray.get(pushes)

    def _set_frontier_from_table(self, tbl: pa.Table) -> None:
        """Cold-path frontier load (seeds, legacy resume): push + commit."""
        self._push_frontier_table(tbl)
        self._commit_frontier()

    def frontier_table(self) -> pa.Table:
        """The committed frontier pulled back to the driver —
        CHECKPOINT/TEST path only (the crawl itself never does this)."""
        return pa.concat_tables(
            ray.get([fs.pull_all.remote() for fs in self.frontier_shards])
        )

    def _n_blocks(self, n_rows: int) -> int:
        cpus = int(ray.cluster_resources().get("CPU", 4))
        slots = max(cpus, self.fetch_concurrency)
        # each block costs one admit-RPC round per shard, so fewer,
        # bigger blocks trade straggler smoothing for RPC waits; wide
        # pools smooth statistically on their own (A/B at sf0.1:
        # 3×@32cpus beats 6× by ~7%, 6×@8cpus beats 3× by ~5%)
        per_slot = int(
            os.environ.get("CRAWL_BLOCKS_PER_SLOT", "0")
        ) or max(3, min(6, 48 // slots))
        return max(
            1,
            min(n_rows // max(64, self.fetch_batch_size) + 1, per_slot * slots),
        )

    # -- one wave ------------------------------------------------------------

    def run_wave(self) -> pa.Table:
        p = self.params
        k = self.wave_idx
        t_k = p.t0_ms + k * p.wave_ms
        stats = WaveStats(wave=k, t_ms=t_k)
        wall0 = time.time()

        import numpy as np

        ranges = _ranges_from_counts(
            self.part_counts, self._n_blocks(self.frontier_total)
        )
        stage = make_wave_stage(
            self.cfg_ref,
            self.host_shards,
            self.seen_shards,
            self.frontier_shards,
            ray.put(self._counts_arrays()),
            p.max_pages_per_host,
            k,
            t_k,
            self.out_dir,
            N_FRONTIER_PARTS,
            record=self.record_waves,
        )
        t_split = time.time()
        contrib_tbl = CONTRIB_SCHEMA.empty_table()
        if ranges:
            specs = [
                pa.table({"lo": pa.array([lo], pa.int32()),
                          "hi": pa.array([hi], pa.int32())})
                for lo, hi, _rows in ranges
            ]
            out_ds = ray.data.from_arrow(specs).map_batches(
                stage, batch_format="pyarrow", batch_size=None
            )
            batches = list(
                out_ds.iter_batches(batch_format="pyarrow", batch_size=None)
            )
            if batches:
                contrib_tbl = pa.concat_tables(batches)
        stats["t_split"] = round(t_split - wall0, 3)
        stats["t_job"] = round(time.time() - t_split, 3)
        t_drv = time.time()
        kind_col = contrib_tbl["kind"]

        def _of(kind: str) -> pa.Array:
            return (
                contrib_tbl.filter(pc.equal(kind_col, kind))["url"].combine_chunks()
            )

        stats["fetched"] = int(
            np.sum([int(v) for v in _of("fetched_n").to_pylist()])
        )
        if os.environ.get("CRAWL_STAGE_TIMING"):
            stats["stage_timings"] = _of("timing").to_pylist()
        stats["t_driver_arrow"] = round(time.time() - t_drv, 3)
        t_bar = time.time()
        # wave barrier: commit buffered state, refresh committed counts;
        # the frontier commit (buffer → next frontier, counts back) runs
        # concurrently with the seen/host barriers
        record = self.record_waves
        commit_refs = [fs.commit.remote() for fs in self.frontier_shards]
        recon_refs = [s.reconcile.remote(record) for s in self.seen_shards]
        end_refs = [s.end_wave.remote() for s in self.host_shards]
        self.part_counts = np.sum(ray.get(commit_refs), axis=0)
        self.frontier_total = int(self.part_counts.sum())
        recon = ray.get(recon_refs)
        ends = ray.get(end_refs)
        stats["throttled"] = 0
        stats["attempted"] = 0
        hc = self.host_counts  # shards return DELTAS (disjoint hostname
        for delta, wstats in ends:  # shards, so plain add is exact)
            for hn, c in delta.items():
                hc[hn] = hc.get(hn, 0) + c
            stats["throttled"] += wstats["throttled"]
            stats["attempted"] += wstats["attempted"]
        self.pages_total = sum(r["saved"] for r in recon)
        stats["visited_added"] = sum(r["new_visited"] for r in recon)
        stats["queue_size"] = sum(r["queue"] for r in recon)
        stats["enqueued"] = sum(r["enqueued_distinct"] for r in recon)
        self._sizes = {
            "visited": sum(r["visited"] for r in recon),
            "queue": sum(r["queue"] for r in recon),
        }
        stats["t_barrier"] = round(time.time() - t_bar, 3)
        if record:
            stats["attempted_urls"] = sorted(
                _sorted_unique(_of("attempted")).to_pylist()
            )
            stats["fetched_urls"] = sorted(_of("fetched").to_pylist())
            stats["throttled_urls"] = sorted(_of("throttle").to_pylist())
            stats["enqueued_urls"] = sorted(
                pc.unique(_of("survivor")).to_pylist()
            )
            stats["frontier_out"] = _sorted_unique(
                self.frontier_table()["url"]
            ).to_pylist()
            stats["visited_added_urls"] = sorted(
                u for r in recon for u in r["new_visited_urls"]
            )
        stats["t_wall"] = round(time.time() - wall0, 3)
        self.waves.append(stats)
        self.wave_idx += 1
        if self.checkpoint_dir:
            self._checkpoint(stats)
        return self.frontier_total

    # -- queue refill / termination (Crawler.java:131-149) --------------------

    def _refill(self) -> int:
        """Queue → frontier refill, STREAMED shard-to-shard: each
        SeenShard builds its (url, part) queue table (hostname hashing
        runs in the actor, parallel across shards) and the table ships
        by object ref straight into every FrontierShard's
        ``push_routed`` — the driver never touches a queue row.  Queues
        are key-sharded so shards hold disjoint URLs; blocks dedup
        themselves, exactly as the r2 driver-side unique allowed."""
        q_refs = [
            s.queue_with_parts.remote(N_FRONTIER_PARTS)
            for s in self.seen_shards
        ]
        ray.get(
            [
                fs.push_routed.remote(qr)
                for qr in q_refs
                for fs in self.frontier_shards
            ]
        )
        self._commit_frontier()
        return self.frontier_total

    def run(self, seeds: list[str] | None = None) -> dict:
        self.seed(seeds)
        while self.wave_idx < self.params.max_waves:
            if self.pages_total >= self.params.target_pages:
                break
            if self.frontier_total == 0:
                if self._refill() == 0:
                    break
            self.run_wave()
        return self.light_summary()

    # -- results -------------------------------------------------------------

    def seen_set(self) -> dict[str, str]:
        tables = ray.get([s.seen_contents.remote() for s in self.seen_shards])
        out: dict[str, str] = {}
        for t in tables:
            out.update(dict(zip(t["url_hash"].to_pylist(), t["url"].to_pylist())))
        return out

    def queue_set(self) -> dict[str, str]:
        tables = ray.get([s.queue_contents.remote() for s in self.seen_shards])
        out: dict[str, str] = {}
        for t in tables:
            out.update(dict(zip(t["url_hash"].to_pylist(), t["url"].to_pylist())))
        return out

    def pages_table(self) -> pa.Table:
        """All fetched page rows; last write wins per url_hash (KVS
        putRow overwrite semantics, waves are ordered partitions)."""
        if not os.path.isdir(self.out_dir) or not os.listdir(self.out_dir):
            return PAGE_OUT_SCHEMA.empty_table()
        parts = []
        for wave_dir in sorted(os.listdir(self.out_dir)):
            full = os.path.join(self.out_dir, wave_dir)
            if os.path.isdir(full):
                for f in sorted(os.listdir(full)):
                    parts.append(pq.read_table(os.path.join(full, f)))
        tbl = pa.concat_tables(parts, promote_options="default")
        # last write per url_hash (KVS putRow overwrite semantics):
        # wave dirs concatenate in ascending order, so keep each key's
        # LAST occurrence — one vectorized duplicated() pass
        import numpy as np
        import pandas as pd

        keep = ~pd.Series(tbl["url_hash"].to_pandas()).duplicated(keep="last")
        return tbl.take(pa.array(np.nonzero(keep.to_numpy())[0]))

    def cleanup(self) -> None:
        """Remove the engine-owned temp page store (page payloads at
        bench scale are tens of GB — callers that only need metrics or
        an in-memory pages_table MUST call this)."""
        import shutil

        if self._owns_out_dir and os.path.isdir(self.out_dir):
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def light_summary(self) -> dict:
        """Counts-only summary — the ``run()`` return value.  The heavy
        :meth:`summary` pulls the ENTIRE seen set to the driver (~2.3 M
        strings at bench scale, seconds of constant cost that the
        4N-parallelism level pays at the same absolute price as N);
        callers that need the actual sets (tests) ask explicitly."""
        sizes = getattr(self, "_sizes", {"visited": 0, "queue": 0})
        return {
            "pages": self.pages_total,
            "visited": sizes["visited"],
            "queue": sizes["queue"],
            "waves": len(self.waves),
            "host_counts": dict(self.host_counts),
            "filter_stats": ray.get(
                [s.get_stats.remote() for s in self.seen_shards]
            ),
        }

    def summary(self) -> dict:
        seen = self.seen_set()
        return {
            "pages": self.pages_total,
            "visited": len(seen),
            "queue": len(self.queue_set()),
            "waves": len(self.waves),
            "seen_set": seen,
            "host_counts": dict(self.host_counts),
            "filter_stats": ray.get(
                [s.get_stats.remote() for s in self.seen_shards]
            ),
        }

    def conformance_row(self, pages: pa.Table | None = None) -> dict:
        """One-row conformance scalar for the north-rule pipeline:
        final seen/queue set fingerprints (per-shard XOR partials
        folded on the driver — the sets never leave the shards), span
        fingerprint over the fetched pages, and the wave/page counts.
        Equality with the reference-semantics oracle's fingerprints is
        asserted in tests/test_crawl_conformance_query.py; the driver
        sees the same values via the ``crawl_conformance`` query."""
        shard_fps = ray.get(
            [s.fingerprints.remote() for s in self.seen_shards]
        )
        visited_fp = queue_fp = 0
        visited_n = queue_n = 0
        for d in shard_fps:
            visited_fp ^= d["visited_fp"]
            queue_fp ^= d["queue_fp"]
            visited_n += d["visited_n"]
            queue_n += d["queue_n"]
        if pages is None:
            pages = self.pages_table()
        return {
            "pages": self.pages_total,
            "waves": len(self.waves),
            "visited": visited_n,
            "queue": queue_n,
            "visited_fp": f"{visited_fp:016x}",
            "queue_fp": f"{queue_fp:016x}",
            "spans_fp": f"{spans_fingerprint(pages):016x}",
        }

    # -- checkpoint / resume (north rule: resumable, lineage) -----------------

    def _checkpoint(self, stats: WaveStats) -> None:
        """Per-wave checkpoint: shard state as per-shard parquet tables
        (scales with state size; a Lance dataset is the drop-in swap)
        plus a small JSON head with scalars, written atomically via a
        temp dir + rename."""
        import shutil

        d = self.checkpoint_dir
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, ".ckpt.tmp")
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        host_tbls = ray.get(
            [s.snapshot_table.remote() for s in self.host_shards]
        )
        count_tbls = ray.get(
            [s.counts_table.remote() for s in self.host_shards]
        )
        seen_tbls = ray.get(
            [s.snapshot_table.remote() for s in self.seen_shards]
        )
        for i, (ht, ct) in enumerate(zip(host_tbls, count_tbls)):
            pq.write_table(ht, os.path.join(tmp, f"hosts-{i:03d}.parquet"))
            pq.write_table(ct, os.path.join(tmp, f"counts-{i:03d}.parquet"))
        for i, st in enumerate(seen_tbls):
            pq.write_table(st, os.path.join(tmp, f"seen-{i:03d}.parquet"))
        # frontier: one parquet per shard slice, streamed shard-by-shard
        # (peak driver memory = one shard's slice, not the frontier)
        for i, fs in enumerate(self.frontier_shards):
            pq.write_table(
                ray.get(fs.pull_all.remote()),
                os.path.join(tmp, f"frontier-{i:03d}.parquet"),
            )
        with open(os.path.join(tmp, "head.json"), "w") as f:
            json.dump(
                {
                    "wave_idx": self.wave_idx,
                    "pages_total": self.pages_total,
                    "n_host_shards": len(self.host_shards),
                    "n_seen_shards": self.n_seen,
                },
                f,
            )
        final = os.path.join(d, "ckpt")
        if os.path.isdir(final):
            old = final + ".old"
            if os.path.isdir(old):  # stale from a crash mid-swap:
                shutil.rmtree(old)  # os.replace can't replace a non-empty dir
            os.replace(final, old)
            os.replace(tmp, final)
            shutil.rmtree(old)
        else:
            os.replace(tmp, final)
        manifest = {
            "wave": stats["wave"],
            "t_ms": stats["t_ms"],
            "attempted": stats["attempted"],
            "fetched": stats["fetched"],
            "throttled": stats["throttled"],
            "enqueued": stats["enqueued"],
            "visited_added": stats["visited_added"],
            "pages_total": self.pages_total,
            "written_at": time.time(),
        }
        with open(os.path.join(d, f"wave-{stats['wave']:05d}.json"), "w") as f:
            json.dump(manifest, f)

    def resume(self) -> bool:
        d = os.path.join(self.checkpoint_dir or "", "ckpt")
        head_path = os.path.join(d, "head.json")
        if not os.path.isfile(head_path):
            return False
        with open(head_path) as f:
            head = json.load(f)
        assert head["n_host_shards"] == len(self.host_shards)
        assert head["n_seen_shards"] == self.n_seen
        self.wave_idx = head["wave_idx"]
        self.pages_total = head["pages_total"]
        shard_files = sorted(
            f for f in os.listdir(d)
            if f.startswith("frontier-") and f.endswith(".parquet")
        )
        if shard_files:
            for f in shard_files:  # streamed: one shard slice at a time
                self._push_frontier_table(pq.read_table(os.path.join(d, f)))
            self._commit_frontier()
        else:  # legacy single-file checkpoint
            ft = pq.read_table(os.path.join(d, "frontier.parquet"))
            self._set_frontier_from_table(
                ft.select(["url", "part"])
                if "part" in ft.schema.names
                else self._partition_table(ft["url"].to_pylist())
            )
        calls = []
        for i, s in enumerate(self.host_shards):
            ht = pq.read_table(os.path.join(d, f"hosts-{i:03d}.parquet"))
            ct = pq.read_table(os.path.join(d, f"counts-{i:03d}.parquet"))
            calls.append(s.restore_tables.remote(ht, ct))
            self.host_counts.update(
                zip(ct["hostname"].to_pylist(), ct["count"].to_pylist())
            )
        for i, s in enumerate(self.seen_shards):
            st = pq.read_table(os.path.join(d, f"seen-{i:03d}.parquet"))
            calls.append(s.restore_table.remote(st))
        ray.get(calls)
        return True

    def run_resumed(self) -> dict:
        """Continue a checkpointed crawl to completion (no re-seeding)."""
        while self.wave_idx < self.params.max_waves:
            if self.pages_total >= self.params.target_pages:
                break
            if self.frontier_total == 0:
                if self._refill() == 0:
                    break
            self.run_wave()
        return self.light_summary()
