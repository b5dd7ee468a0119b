"""Sharded stateful actors: per-host politeness scheduler + URL-seen set.

North-rule components (BASELINE.json): the frontier is hash-partitioned
by hostname; each :class:`HostShard` owns the politeness state (robots
cache, ``lastAccess``/next-fetch-time, per-host page counts) for the
hostnames that hash to it — the *global, exact* version of the
reference's per-worker ``hostCounts`` + shared ``hosts`` KVS table
(``src/jobs/Crawler.java:46-48,676-762``; deviation documented in
SURVEY.md §7.3).  Each :class:`SeenShard` owns a slice of the URL-seen
set (``pt-crawl-visited``) and of the frontier queue
(``pt-crawl-queue``), fronted by a bloom prefilter and a cuckoo filter
with the exact string set as the authority.

Wave protocol (single fused Dataset job per wave, see
``pipelines/crawl.py``):

- ``HostShard.admit_table`` — called once per (block × shard) with
  COMPLETE host groups (the driver splits frontier blocks at host
  boundaries), walks each group in sorted ``(host_key, url_hash)``
  order at virtual instant ``t_k``.  Committed host counts are frozen
  during the wave (reads see wave-start values + the group's own
  increments); deltas commit in ``end_wave``.  Decisions are therefore
  independent of block/actor scheduling order.
- ``SeenShard`` — membership probes during a wave see the wave-start
  visited set; mutations (enqueues, completion deletes, visited adds,
  saved keys) are BUFFERED and applied in ``reconcile`` at the wave
  barrier in a fixed order: enqueues → deletes → visited adds (a
  completion's delete wins over a same-wave re-enqueue).  This is the
  determinization documented in ``oracle/crawl_oracle.py``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import ray

from ..functions.robots import (
    extract_crawl_delay,
    select_rules,
)
from ..sources.synthetic_web import SyntheticWeb, WebConfig
from .filters import ScalableSeenFilters

DEFAULT_DELAY = 1.0

D_HIT = "hit"  # HEAD connects: proceed to fetch stage; completed
D_MISS = "miss"  # HEAD connect failure: completed, no lastAccess touch
D_ROBOTS = "robots"  # robots denied: completed, lastAccess touched
D_THROTTLE = "throttle"  # politeness: stays in queue, no output
D_NOCAP = "nocap"  # per-host page cap exceeded: completed
D_NOHOST = "nohost"  # hostname unresolved: completed

COMPLETED_DECISIONS = (D_HIT, D_MISS, D_ROBOTS, D_NOCAP, D_NOHOST)


def key64(s: str) -> int:
    """First 8 bytes of SHA-1 — companion integer key for the filters."""
    return int.from_bytes(hashlib.sha1(s.encode("utf-8")).digest()[:8], "big")


def shard_of(s: str, n_shards: int) -> int:
    return key64(s) % n_shards


def ref_hash_and_key64(url: str) -> tuple[str, int]:
    """Both derived keys from ONE SHA-1 computation."""
    digest = hashlib.sha1(url.encode("utf-8")).digest()
    from ..functions.hasher import _U2PAIRS  # table lookup, no rehash

    return (
        b"".join([_U2PAIRS[b] for b in digest]).decode("ascii"),
        int.from_bytes(digest[:8], "big"),
    )


@ray.remote
class HostShard:
    """Politeness / robots / host-cap state for one hostname shard.

    Create via ``HostShard.options(num_cpus=...)`` — at bench/cluster
    scale the shards RESERVE a core each so the task pool is sized
    against what is actually left (running Ray actors default to 0
    CPUs, which oversubscribes the node invisibly and anti-scales the
    crawl at high ``num_cpus``); tests use the 0-CPU default."""

    def __init__(self, shard_id: int, web_cfg: WebConfig, params_dict: dict,
                 fidelity: str = "reference"):
        self.shard_id = shard_id
        self.web = SyntheticWeb(web_cfg)
        self.max_pages_per_host = params_dict["max_pages_per_host"]
        self.fidelity = fidelity
        # host_key -> [last_access, robots_fetched, robots_status,
        #              robots_txt, crawl_delay, parsed_rules, delay_ms]
        self.hosts: dict[str, list] = {}
        self.counts: dict[str, int] = {}  # committed hostname counts
        self.wave_delta: dict[str, int] = {}  # this wave's increments
        self.wave_stats = {"throttled": 0, "attempted": 0}

    # -- robots cache (Crawler.java:707-762) ---------------------------------

    def _ensure_robots(self, host_key: str) -> list:
        st = self.hosts.get(host_key)
        if st is None:
            st = [0, False, -1, "", None, None, 1000]
            self.hosts[host_key] = st
        if not st[1]:
            status, body = self.web.robots_for_hostkey(host_key)
            st[1] = True
            st[2] = status
            st[3] = body
            if 200 <= status < 300 and body:
                cd = extract_crawl_delay(body)
                if cd is not None:
                    st[4] = float(cd)
            # parse once per host; per-URL eval is rule-list only
            st[5] = select_rules(status, body)
            d = st[4] if st[4] is not None else DEFAULT_DELAY
            st[6] = int(math.ceil(d * 1000.0))
        return st

    # -- wave admission (the per-host priority-queue walk) -------------------

    def admit_table(self, wave_idx: int, t_k: int, tbl: pa.Table) -> pa.Table:
        """Admission for complete host groups: ``tbl`` holds the
        block's rows for THIS shard, sorted by (host_key, url_hash),
        with columns ``url, url_hash, host_key, hostname, path,
        in_univ, countable`` — all pure derivations precomputed in the
        parallel admit stage so this serial walk touches only shard
        state.  Arrow ships zero-copy (a tuple-list payload pickled at
        ~1 µs/field and queued the tasks on the shards).

        Mirrors the oracle's phase-1 walk: all attempts at ``t_k``,
        lastAccess updates within the group gate later members, cap
        reads = committed counts + this group's own increments.

        Cap-accounting assumption (documented): the in-wave cap delta
        (``in_group``) resets per host_key group, so a hostname
        reachable under TWO host_keys in one wave (http+https, or
        differing explicit ports) could over-admit past the cap within
        that wave.  Accumulating across groups instead would make
        decisions depend on which groups share a block (partition-
        dependent — breaks the determinism contract), so we keep the
        per-group reset and rely on the universe invariant that each
        hostname has exactly one scheme/port (see
        ``sources/synthetic_web.py``: hosts are generated with a single
        canonical origin).  Committed counts still converge globally at
        ``end_wave``."""
        from ..functions.robots import robots_allows_parsed

        reference_mode = self.fidelity == "reference"
        counts = self.counts
        cap = self.max_pages_per_host
        urls = tbl["url"].to_pylist()
        hashes = tbl["url_hash"].to_pylist()
        hks = tbl["host_key"].to_pylist()
        hns = tbl["hostname"].to_pylist()
        paths = tbl["path"].to_pylist()
        in_univs = tbl["in_univ"].to_pylist()
        countables = tbl["countable"].to_pylist()
        dec_out: list[str] = []
        throttled = 0
        cur_hk: str | None = None
        in_group: dict[str, int] = {}
        st = None
        for i in range(len(urls)):
            hk = hks[i]
            if hk != cur_hk:
                for hn_, c in in_group.items():
                    self.wave_delta[hn_] = self.wave_delta.get(hn_, 0) + c
                in_group = {}
                st = None
                cur_hk = hk
            hn = hns[i]
            if hn == "":
                dec = D_NOHOST
            elif counts.get(hn, 0) + in_group.get(hn, 0) >= cap:
                dec = D_NOCAP
            else:
                if st is None:
                    st = self._ensure_robots(hk)
                if (t_k - st[0]) < st[6]:
                    dec = D_THROTTLE
                    throttled += 1
                elif st[5] is not None and not robots_allows_parsed(
                    st[5], paths[i], reference_mode
                ):
                    st[0] = t_k
                    dec = D_ROBOTS
                elif not in_univs[i]:
                    dec = D_MISS
                else:
                    st[0] = t_k
                    dec = D_HIT
                    if countables[i]:
                        in_group[hn] = in_group.get(hn, 0) + 1
            dec_out.append(dec)
        for hn_, c in in_group.items():
            self.wave_delta[hn_] = self.wave_delta.get(hn_, 0) + c
        self.wave_stats["throttled"] += throttled
        self.wave_stats["attempted"] += len(urls)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "url_hash": pa.array(hashes, pa.string()),
                "decision": pa.array(dec_out, pa.string()),
            }
        )

    def end_wave(self) -> tuple[dict, dict]:
        """Commit this wave's count deltas; return (DELTA, stats).

        Only the wave's increments travel to the driver — the full
        committed map (~1 entry per hostname ever fetched) previously
        re-shipped and re-merged every wave, a barrier cost that grows
        with crawl age and is constant across parallelism levels."""
        delta = self.wave_delta
        for hn, c in delta.items():
            self.counts[hn] = self.counts.get(hn, 0) + c
        self.wave_delta = {}
        stats = dict(self.wave_stats)
        self.wave_stats = {"throttled": 0, "attempted": 0}
        return delta, stats

    # -- checkpoint ----------------------------------------------------------

    def snapshot_table(self) -> pa.Table:
        """Host state as an Arrow table (parquet checkpoint form —
        robots rules/delay are re-derived on restore)."""
        keys = sorted(self.hosts)
        return pa.table(
            {
                "host_key": pa.array(keys, pa.string()),
                "last_access": pa.array(
                    [self.hosts[k][0] for k in keys], pa.int64()
                ),
                "robots_fetched": pa.array(
                    [self.hosts[k][1] for k in keys], pa.bool_()
                ),
                "robots_status": pa.array(
                    [self.hosts[k][2] for k in keys], pa.int32()
                ),
                "robots_txt": pa.array(
                    [self.hosts[k][3] for k in keys], pa.string()
                ),
            }
        )

    def counts_table(self) -> pa.Table:
        keys = sorted(self.counts)
        return pa.table(
            {
                "hostname": pa.array(keys, pa.string()),
                "count": pa.array([self.counts[k] for k in keys], pa.int64()),
            }
        )

    def restore_tables(self, hosts_tbl: pa.Table, counts_tbl: pa.Table) -> None:
        self.hosts = {}
        for row in hosts_tbl.to_pylist():
            st = [row["last_access"], False, -1, "", None, None, 1000]
            self.hosts[row["host_key"]] = st
            if row["robots_fetched"]:
                st[1] = True
                st[2] = row["robots_status"]
                st[3] = row["robots_txt"]
                if 200 <= st[2] < 300 and st[3]:
                    cd = extract_crawl_delay(st[3])
                    if cd is not None:
                        st[4] = float(cd)
                st[5] = select_rules(st[2], st[3])
                d = st[4] if st[4] is not None else DEFAULT_DELAY
                st[6] = int(math.ceil(d * 1000.0))
        self.counts = dict(
            zip(counts_tbl["hostname"].to_pylist(), counts_tbl["count"].to_pylist())
        )


@ray.remote
class SeenShard:
    """One shard of the URL-seen set + frontier queue + crawl-key count.

    Reads during a wave see the committed (wave-start) state; writes
    buffer until ``reconcile``."""

    def __init__(self, shard_id: int, n_bloom_bits: int = 1 << 20,
                 n_cuckoo_buckets: int = 1 << 15):
        self.shard_id = shard_id
        self.visited: dict[str, str] = {}  # url_hash -> url (exact authority)
        self.queue: dict[str, str] = {}  # url_hash -> url
        self.saved: set[str] = set()  # pt-crawl keys
        self.filters = ScalableSeenFilters(
            n_bits=n_bloom_bits, n_buckets=n_cuckoo_buckets
        )
        self.stats = {"probes": 0, "bloom_neg": 0, "filter_fp": 0}
        self._buf_enqueue: list[tuple[str, str]] = []  # (hash, url)
        self._buf_complete: list[tuple[str, str, int]] = []  # (hash, url, key64)
        self._buf_saved: list[str] = []

    # -- wave-time operations (buffered writes, snapshot reads) --------------

    def probe_enqueue_arrays(self, urls: pa.Array, hashes: pa.Array,
                             keys64: np.ndarray) -> np.ndarray:
        """C18 membership check against the wave-start visited set;
        True = not seen → survivor, enqueue buffered.  Arrow/numpy
        payloads ship zero-copy (python lists pickled ~2 µs/row both
        ways and queued the fetch tasks on this actor)."""
        u = urls.to_pylist()
        h = hashes.to_pylist()
        keys = keys64.astype(np.uint64)
        maybe = self.filters.contains_many(keys)
        self.stats["probes"] += len(u)
        out = np.zeros(len(u), dtype=bool)
        visited = self.visited
        buf = self._buf_enqueue
        stats = self.stats
        for i in range(len(u)):
            if not maybe[i]:
                stats["bloom_neg"] += 1
                seen = False
            else:
                seen = h[i] in visited
                if not seen:
                    stats["filter_fp"] += 1
            if not seen:
                buf.append((h[i], u[i]))
                out[i] = True
        return out

    def buffer_complete(self, urls: pa.Array, hashes: pa.Array,
                        keys64: np.ndarray) -> int:
        self._buf_complete.extend(
            zip(hashes.to_pylist(), urls.to_pylist(), [int(k) for k in keys64])
        )
        return len(urls)

    def buffer_saved(self, hashes: pa.Array) -> int:
        self._buf_saved.extend(hashes.to_pylist())
        return len(hashes)

    # -- wave barrier ---------------------------------------------------------

    def reconcile(self, record: bool = False) -> dict:
        """Apply the wave's buffered ops: enqueues → completion deletes
        → visited adds → saved keys.  Returns state sizes (+ the newly
        visited URLs when ``record``)."""
        enqueued_distinct = len({h for h, _u in self._buf_enqueue})
        for h, u in self._buf_enqueue:
            self.queue[h] = u
        new_urls: list[str] = []
        add_keys: list[int] = []
        for h, u, k in self._buf_complete:
            self.queue.pop(h, None)
        for h, u, k in self._buf_complete:
            if h not in self.visited:
                self.visited[h] = u
                new_urls.append(u)
                add_keys.append(k)
        self.filters.add_batch(add_keys)
        self.saved.update(self._buf_saved)
        self._buf_enqueue = []
        self._buf_complete = []
        self._buf_saved = []
        out = {
            "visited": len(self.visited),
            "queue": len(self.queue),
            "saved": len(self.saved),
            "new_visited": len(new_urls),
            # distinct survivor URLs this wave (hash-sharded, so the
            # per-shard distinct counts sum to the global distinct)
            "enqueued_distinct": enqueued_distinct,
        }
        if record:
            out["new_visited_urls"] = new_urls
        return out

    def queue_contents(self) -> pa.Table:
        return pa.table({"url_hash": list(self.queue.keys()),
                         "url": list(self.queue.values())})

    def queue_with_parts(self, n_parts: int) -> pa.Table:
        """Queue URLs with their frontier partition id — the streamed
        refill source: the hostname-hash loop runs HERE (parallel
        across shards), and the driver forwards the returned table by
        object ref straight into FrontierShard.push_routed without
        ever touching the rows."""
        from ..functions.urlnorm import hostname as _hostname

        urls = list(self.queue.values())
        memo: dict[str, int] = {}
        parts = []
        for u in urls:
            hn = _hostname(u)
            p = memo.get(hn)
            if p is None:
                p = memo[hn] = ref_hash_and_key64(hn)[1] % n_parts
            parts.append(p)
        return pa.table(
            {"url": pa.array(urls, pa.string()),
             "part": pa.array(parts, pa.int32())}
        )

    def seen_contents(self) -> pa.Table:
        return pa.table({"url_hash": list(self.visited.keys()),
                         "url": list(self.visited.values())})

    def fingerprints(self) -> dict:
        """Order-invariant 64-bit fingerprints of THIS shard's visited
        and queue maps, computed in the actor so the conformance
        scalar costs one small dict per shard instead of shipping the
        full seen set to the driver (2.3 M strings at bench scale)."""
        from ..functions.hasher import xor_fingerprint_pairs

        return {
            "visited_fp": xor_fingerprint_pairs(
                self.visited.keys(), self.visited.values()
            ),
            "visited_n": len(self.visited),
            "queue_fp": xor_fingerprint_pairs(
                self.queue.keys(), self.queue.values()
            ),
            "queue_n": len(self.queue),
        }

    def get_stats(self) -> dict:
        f = self.filters.stats()
        return dict(self.stats, visited=len(self.visited),
                    queue=len(self.queue), saved=len(self.saved),
                    cuckoo_items=self.filters.cuckoo.n_items,
                    filter_rebuilds=self.filters.rebuilds,
                    filter_probes=f["probes"],
                    filter_bloom_maybe=f["bloom_maybe"],
                    filter_cuckoo_maybe=f["cuckoo_maybe"])

    # -- checkpoint ----------------------------------------------------------

    def snapshot_table(self) -> pa.Table:
        """Seen-set + queue + saved keys as ONE Arrow table (the exact
        'sidecar' of the approximate filters; parquet checkpoint form).
        kind ∈ {visited, queue, saved}."""
        kinds, hashes, urls = [], [], []
        for h, u in self.visited.items():
            kinds.append("visited")
            hashes.append(h)
            urls.append(u)
        for h, u in self.queue.items():
            kinds.append("queue")
            hashes.append(h)
            urls.append(u)
        for h in self.saved:
            kinds.append("saved")
            hashes.append(h)
            urls.append("")
        return pa.table(
            {
                "kind": pa.array(kinds, pa.string()),
                "url_hash": pa.array(hashes, pa.string()),
                "url": pa.array(urls, pa.string()),
            }
        )

    def restore_table(self, tbl: pa.Table) -> None:
        self.visited = {}
        self.queue = {}
        self.saved = set()
        for row in tbl.to_pylist():
            if row["kind"] == "visited":
                self.visited[row["url_hash"]] = row["url"]
            elif row["kind"] == "queue":
                self.queue[row["url_hash"]] = row["url"]
            else:
                self.saved.add(row["url_hash"])
        self.filters.add_batch([key64(u) for u in self.visited.values()])


@ray.remote
class FrontierShard:
    """One shard of the BFS frontier — the r2→r3 swap that takes the
    per-wave frontier off the driver (crawl.py module docstring's named
    scale item): wave tasks PUSH their partitioned (url, part)
    contributions here asynchronously (awaited with the block's other
    buffered-write acks), the driver's barrier COMMIT promotes the
    buffer to the pull-able current frontier and returns only a
    per-part COUNT vector (n_parts ints), and the next wave's tasks
    PULL their contiguous part range directly.  Frontier rows therefore
    move task → actor → task; the driver never holds a URL.

    Sharding is by CONTIGUOUS part range (shard s owns parts
    [s·P/S, (s+1)·P/S)), so a block's range pull touches ~1 shard.
    Duplicates survive pushes (blocks dedup themselves, exactly as the
    r2 driver table allowed); commit sorts by part once (vectorized)
    so pulls are O(log n) searchsorted slices.

    SPILL (the 10^10-URL path): when the committed frontier exceeds
    ``spill_threshold`` rows (0 = keep in memory; ``CrawlEngine``
    resolves it from ``GRAFT_FRONTIER_SPILL_ROWS``), the
    part-sorted slice is written to this shard's own parquet partition
    under /tmp and the actor keeps only a (n_parts+1)-int64 offset
    index; a range pull then reads just the row groups covering
    [offsets[lo], offsets[hi+1]) — shard memory is O(n_parts), not
    O(frontier).  The per-shard parquet files double as the
    per-partition frontier lineage a resume can re-push."""

    def __init__(
        self,
        shard_id: int,
        n_shards: int,
        n_parts: int,
        spill_threshold: int,
    ):
        self.shard_id = shard_id
        self.lo = shard_id * n_parts // n_shards
        self.hi = (shard_id + 1) * n_parts // n_shards
        self.n_parts = n_parts
        self.buf: list[pa.Table] = []
        self.cur: pa.Table | None = None
        self.cur_parts = None  # numpy mirror of cur["part"] for slicing
        self.spill_threshold = spill_threshold
        self.spill_dir: str | None = None
        self.spill_path: str | None = None  # set while cur lives on disk
        self.offsets = None  # (n_parts+1,) int64 row offsets when spilled
        self._wave_no = 0

    def push(self, tbl: pa.Table) -> int:
        """Buffer next-wave rows (pre-routed to this shard's range)."""
        if tbl.num_rows:
            self.buf.append(tbl)
        return tbl.num_rows

    def push_routed(self, tbl: pa.Table) -> int:
        """Push from an un-routed source (seeds, queue refill, resume):
        keep only the rows in this shard's part range."""
        import pyarrow.compute as pc

        m = pc.and_(
            pc.greater_equal(tbl["part"], pa.scalar(self.lo)),
            pc.less(tbl["part"], pa.scalar(self.hi)),
        )
        return self.push(tbl.filter(m))

    def commit(self):
        """Wave barrier: promote the buffer to the current frontier,
        return this shard's per-part row counts (len n_parts int64).
        Past ``spill_threshold`` rows the sorted slice goes to this
        shard's parquet partition and only the offset index stays."""
        import numpy as np

        self._drop_spill()
        if self.buf:
            t = pa.concat_tables(self.buf)
            parts = t["part"].combine_chunks().to_numpy()
            order = np.argsort(parts, kind="stable")
            self.cur = t.take(pa.array(order))
            self.cur_parts = parts[order]
        else:
            self.cur = None
            self.cur_parts = None
        self.buf = []
        self._wave_no += 1
        if self.cur is None:
            return np.zeros(self.n_parts, dtype=np.int64)
        counts = np.bincount(self.cur_parts, minlength=self.n_parts).astype(
            np.int64
        )
        if self.spill_threshold and self.cur.num_rows > self.spill_threshold:
            self._spill(counts)
        return counts

    def _spill(self, counts) -> None:
        import os
        import tempfile

        import numpy as np
        import pyarrow.parquet as pq

        if self.spill_dir is None:
            self.spill_dir = tempfile.mkdtemp(
                prefix=f"frontier_shard{self.shard_id}_"
            )
        path = os.path.join(self.spill_dir, f"wave{self._wave_no}.parquet")
        # row groups ≈ a pull's worth, so a range pull reads ~its rows
        pq.write_table(
            self.cur, path,
            row_group_size=max(1024, self.spill_threshold // 4),
        )
        self.offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        self.spill_path = path
        self.cur = None
        self.cur_parts = None

    def _drop_spill(self) -> None:
        import os

        if self.spill_path is not None:
            try:
                os.unlink(self.spill_path)
            except OSError:
                pass
            self.spill_path = None
            self.offsets = None

    def _read_spilled_rows(self, a: int, b: int) -> pa.Table:
        """Rows [a, b) of the spilled part-sorted table, touching only
        the row groups that intersect the range."""
        import pyarrow.parquet as pq

        pf = pq.ParquetFile(self.spill_path)
        md = pf.metadata
        groups, start = [], 0
        first_start = 0
        for g in range(md.num_row_groups):
            n = md.row_group(g).num_rows
            if start < b and start + n > a:
                if not groups:
                    first_start = start
                groups.append(g)
            start += n
        if not groups:
            return pa.table({"url": pa.array([], pa.string()),
                             "part": pa.array([], pa.int32())})
        t = pf.read_row_groups(groups)
        return t.slice(a - first_start, b - a)

    def pull(self, lo: int, hi: int) -> pa.Table:
        """URLs of the committed frontier with lo <= part <= hi (one
        searchsorted slice of the part-sorted table, or a row-group
        range read of the spilled parquet)."""
        import numpy as np

        if self.spill_path is not None:
            a = int(self.offsets[lo])
            b = int(self.offsets[hi + 1])
            return self._read_spilled_rows(a, b).select(["url"])
        if self.cur is None:
            return pa.table({"url": pa.array([], pa.string())})
        a = int(np.searchsorted(self.cur_parts, lo, side="left"))
        b = int(np.searchsorted(self.cur_parts, hi, side="right"))
        return self.cur.slice(a, b - a).select(["url"])

    def pull_all(self) -> pa.Table:
        """(url, part) of the committed frontier — checkpoint/tests."""
        if self.spill_path is not None:
            return self._read_spilled_rows(0, int(self.offsets[-1])).select(
                ["url", "part"]
            )
        if self.cur is None:
            return pa.table(
                {"url": pa.array([], pa.string()),
                 "part": pa.array([], pa.int32())}
            )
        return self.cur.select(["url", "part"])


__all__ = [
    "HostShard", "SeenShard", "FrontierShard", "key64", "shard_of",
    "ref_hash_and_key64",
    "D_HIT", "D_MISS", "D_ROBOTS", "D_THROTTLE", "D_NOCAP", "D_NOHOST",
    "COMPLETED_DECISIONS",
]
