"""Crawl-wave stage bodies (map_batches callables).

One fused Dataset execution per wave, ONE merged stage per block
(SURVEY.md §7.1, tuned twice — per-wave fixed costs gate BFS crawl
throughput):

    frontier blocks (hash-partitioned by hostname — each block holds
    complete hostname groups BY CONSTRUCTION, no driver sort/split)
      → wave_stage : block-local distinct → canonical keys →
                     per-host-group admission via the HostShard
                     politeness actors → synthetic fetch of admitted
                     hits (page rows written to `wave=K/` parquet
                     in-stage) → link pipeline + enqueue probes →
                     frontier contributions (URL strings + their
                     next-wave partition id) out.

    RPC overlap: completion/saved-key routing to the SeenShards is
    fired asynchronously and only AWAITED at the end of the block,
    after the fetch + link compute it overlaps with; the enqueue
    probes (whose results gate the survivor output) are awaited after
    the raw-href dedup work that doesn't depend on them.

All state mutations buffer in the shards and commit at the driver's
``reconcile`` barrier — decisions and final state are independent of
block scheduling (see ``state/actors.py`` wave protocol).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.blacklist import is_skippable_href, should_crawl, unwrap_urldefense
from ..functions.html import build_span_columns
from ..functions.urlnorm import (
    host_key_and_path,
    hostname,
    normalize_and_filter_url,
)
from ..sources.synthetic_web import SyntheticWeb
from ..state.actors import D_HIT, ref_hash_and_key64

SPAN_TYPE = pa.list_(
    pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("offset", pa.int32()),
        ]
    )
)

PAGE_OUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.string()),
        ("response_code", pa.int32()),
        ("content_type", pa.string()),
        ("length", pa.int32()),
        ("page", pa.binary()),
        ("spans", SPAN_TYPE),
        ("wave", pa.int32()),
    ]
)

DECISION_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.string()),
        ("key64", pa.uint64()),
        ("decision", pa.string()),
    ]
)

# metadata/record rows only — frontier rows go task → FrontierShard
CONTRIB_SCHEMA = pa.schema([("url", pa.string()), ("kind", pa.string())])


# Per-worker-process web cache: the config (with the text corpus) is
# ray.get()-deserialized and the SyntheticWeb constructed ONCE per
# worker process, then reused by every task that lands there — the
# stateful-setup-amortized property of an actor pool without paying
# per-wave pool construction (measured: repeated actor-pool startup
# grew to seconds per wave).
_WEB_CACHE: dict[str, SyntheticWeb] = {}


def web_for_ref(cfg_ref) -> SyntheticWeb:
    key = cfg_ref.hex() if hasattr(cfg_ref, "hex") else str(id(cfg_ref))
    web = _WEB_CACHE.get(key)
    if web is None:
        cfg = ray.get(cfg_ref) if hasattr(cfg_ref, "hex") else cfg_ref
        web = _WEB_CACHE[key] = SyntheticWeb(cfg)
    return web


@ray.remote(num_cpus=1)
def warm_worker(cfg_ref) -> int:
    """Pre-import this package and build the per-process web cache in an
    idle Ray worker — fired (and not awaited) during seeding so wave 0's
    tasks land on warm processes instead of each paying import +
    SyntheticWeb construction inside the first wave's critical path."""
    web_for_ref(cfg_ref)
    return os.getpid()


# ---------------------------------------------------------------------------
# hostname partitioning (the next-wave frontier handoff key)
# ---------------------------------------------------------------------------


def part_of_hostname(hn: str, n_parts: int) -> int:
    """Frontier partition id.  Keyed on the hostname so every URL whose
    politeness/cap state is shared (all host_keys of one hostname)
    lands in the same partition — a block built from whole partitions
    therefore holds COMPLETE host groups without any driver-side sort."""
    return ref_hash_and_key64(hn)[1] % n_parts


# ---------------------------------------------------------------------------
# fetch (SURVEY §2.2 'Live HTTP(S) fetcher' mapping)
# ---------------------------------------------------------------------------


def fetch_batch(web: SyntheticWeb, urls: list[str], hashes: list[str]) -> dict:
    """Synthetic fetch of the admitted URLs — per URL one of ``page``
    (200 text/html en → body+spans+raw links), ``redirect`` (HEAD 3xx →
    normalized+filtered target, Crawler.java:249-259), or ``dropped``
    (language / non-HTML / non-200, C8–C11).

    Returns a dict: ``pages`` (pa.Table of the PAGE rows only —
    :data:`PAGE_OUT_SCHEMA` minus ``wave``) plus the Python-side
    ``page_urls`` / ``page_hashes`` / ``raw_links`` / ``redirects`` /
    ``dropped_urls`` lists the wave stage consumes directly.  An
    earlier version shipped everything through one Arrow table with
    kind/redirect/raw_links columns that the caller immediately
    filtered and ``to_pylist()``-ed back — an Arrow⇄Python round trip
    of ~800k strings per bench wave with no consumer in between.

    The span payload is assembled COLUMNAR (flat kind/text/ref/offset
    buffers + per-row counts → one ListArray of StructArray) — the
    previous one-dict-per-span form allocated ~8M Python dicts per
    bench wave just to feed Arrow conversion."""
    import numpy as np

    p_urls: list[str] = []
    p_hashes: list[str] = []
    p_ctypes: list[str] = []
    p_lengths: list[int] = []
    p_pages: list[bytes] = []
    raw_links: list[list[str]] = []
    redirects: list[str] = []
    dropped: list[str] = []
    sp_kinds: list[str] = []
    sp_texts: list[str] = []
    sp_refs: list[str] = []
    sp_offs: list[int] = []
    sp_counts: list[int] = []
    for url, url_hash in zip(urls, hashes):
        meta = web.page_meta(url)
        if meta is not None:
            lang = meta["content_language"]
            media = meta["content_type"].split(";", 1)[0].strip()
            if lang is not None and not lang.lower().startswith("en"):
                pass  # language filter → dropped
            elif meta["status"] in (301, 302, 303, 307, 308):
                target = normalize_and_filter_url(url, meta["location"])
                if target is not None and should_crawl(target):
                    redirects.append(target)
                    continue
            elif meta["status"] == 200 and "text/html" in media.lower():
                body = (web.page_body(url) or b"")[:100_000]
                body_str = body.decode("utf-8", errors="replace")
                k, t, r, o, links = build_span_columns(body_str)
                p_urls.append(url)
                p_hashes.append(url_hash)
                p_ctypes.append(media)
                p_lengths.append(len(body))
                p_pages.append(body)
                sp_counts.append(len(k))
                sp_kinds.extend(k)
                sp_texts.extend(t)
                sp_refs.extend(r)
                sp_offs.extend(o)
                raw_links.append(links)
                continue
        dropped.append(url)

    spans_struct = pa.StructArray.from_arrays(
        [
            pa.array(sp_kinds, pa.string()),
            pa.array(sp_texts, pa.string()),
            pa.array(sp_refs, pa.string()),
            pa.array(sp_offs, pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    sp_offsets = pa.array(
        np.concatenate([[0], np.cumsum(sp_counts)]).astype(np.int32)
    )
    pages = pa.table(
        {
            "url": pa.array(p_urls, pa.string()),
            "url_hash": pa.array(p_hashes, pa.string()),
            "response_code": pa.array(
                np.full(len(p_urls), 200, dtype=np.int32)
            ),
            "content_type": pa.array(p_ctypes, pa.string()),
            "length": pa.array(p_lengths, pa.int32()),
            "page": pa.array(p_pages, pa.binary()),
            "spans": pa.ListArray.from_arrays(sp_offsets, spans_struct),
        }
    )
    return {
        "pages": pages,
        "page_urls": p_urls,
        "page_hashes": p_hashes,
        "raw_links": raw_links,
        "redirects": redirects,
        "dropped_urls": dropped,
    }


def link_candidates(page_urls: list[str], raw_links: list[list[str]]):
    """Per fetched page: raw hrefs → normalized candidates (C13–C17).

    In-page dedup is per page (the reference's ``normalizedUrls``
    HashSet, ``Crawler.java:348-392``); cross-page duplicates survive to
    the idempotent enqueue.  Returns (urls, hashes, keys64, hostnames).
    """
    out_url: list[str] = []
    out_hash: list[str] = []
    out_key: list[int] = []
    out_host: list[str] = []
    for page_url, links in zip(page_urls, raw_links):
        page_seen: set[str] = set()
        for href in links or []:
            if is_skippable_href(href):
                continue
            u = unwrap_urldefense(href)
            if u is None:
                continue
            norm = normalize_and_filter_url(page_url, u)
            if norm is None or norm in page_seen:
                continue
            if not should_crawl(norm):
                continue
            page_seen.add(norm)
            h, k = ref_hash_and_key64(norm)
            out_url.append(norm)
            out_hash.append(h)
            out_key.append(k)
            out_host.append(hostname(norm))
    return out_url, out_hash, out_key, out_host


def make_wave_stage(
    cfg_ref,
    host_shards: list,
    seen_shards: list,
    frontier_shards: list,
    counts_ref,
    max_pages_per_host: int,
    wave_idx: int,
    t_k: int,
    out_dir: str | None,
    n_parts: int,
    record: bool = False,
):
    """The whole wave body for one frontier block: range pull from the
    FrontierShards → block-local distinct → admission → fetch → page
    write → link pipeline → enqueue probes → partitioned frontier
    contributions PUSHED back to the FrontierShards (async, awaited
    with the block's other buffered-write acks).

    The input batch is a one-row (lo, hi) PART-RANGE SPEC, not URL
    rows: the task pulls its committed frontier slice directly from the
    owning shard(s), so frontier rows move task → actor → task and the
    driver holds only the per-part count vector.  A range of whole
    partitions holds complete host groups by construction (partition
    key = hostname hash), and the global frontier distinct is the UNION
    of the per-block ``pc.unique`` calls: dedup runs in the parallel
    tasks, never on the driver.

    RPC overlap: ``buffer_complete`` / ``buffer_saved`` are fired
    without waiting and awaited only at the end of the block (they
    overlap the fetch + link compute); ``probe_enqueue_arrays`` is
    fired before the raw-href dedup work and awaited after it.

    ``counts_ref`` broadcasts the wave-start hostname page counts as a
    sorted (key64, count) numpy pair — zero-copy from the object store
    and probed with a vectorized ``searchsorted`` (a Python dict of
    hostnames cost ~100 ms to deserialize per task at bench scale).
    """

    import numpy as np

    n_host = len(host_shards)
    n_seen = len(seen_shards)
    n_front = len(frontier_shards)
    # shard s owns parts [s*P/S, (s+1)*P/S); owner(p) = first shard
    # whose upper boundary exceeds p
    f_bounds = np.array(
        [(s + 1) * n_parts // n_front for s in range(n_front)], dtype=np.int64
    )

    def _counts_of(hostnames: list[str], ck, cv) -> "np.ndarray":
        if len(ck) == 0 or not hostnames:
            return np.zeros(len(hostnames), dtype=np.int64)
        memo: dict[str, int] = {}
        hk = np.empty(len(hostnames), dtype=np.uint64)
        for i, hn in enumerate(hostnames):
            v = memo.get(hn)
            if v is None:
                v = memo[hn] = ref_hash_and_key64(hn)[1]
            hk[i] = v
        pos = np.minimum(np.searchsorted(ck, hk), len(ck) - 1)
        return np.where(ck[pos] == hk, cv[pos], 0)

    timing = bool(os.environ.get("CRAWL_STAGE_TIMING"))

    def wave_stage(batch: pa.Table) -> pa.Table:
        import time as _time

        _t0 = _time.time()
        # fire the frontier range pull FIRST so the RPC is in flight
        # while the per-process web cache warms
        lo = batch["lo"][0].as_py()
        hi = batch["hi"][0].as_py()
        s0 = int(np.searchsorted(f_bounds, lo, side="right"))
        s1 = int(np.searchsorted(f_bounds, hi, side="right"))
        pull_refs = [
            frontier_shards[s].pull.remote(lo, hi)
            for s in range(s0, min(s1, n_front - 1) + 1)
        ]
        web = web_for_ref(cfg_ref)
        _t_web = _time.time()
        pulled = pa.concat_tables(ray.get(pull_refs))
        _t_pull = _time.time()
        urls = pc.unique(pulled["url"].combine_chunks()).to_pylist()
        if not urls:
            return CONTRIB_SCHEMA.empty_table()

        # ---- admission (C16 projections + universe facts, then the
        # serial per-host walk inside the HostShards) ------------------
        prepared = []
        for u in urls:
            h, k = ref_hash_and_key64(u)
            meta = web.page_meta(u)
            countable = False
            if meta is not None and meta["status"] == 200 and meta["html"]:
                lang = meta["content_language"]
                if "text/html" in meta["content_type"]:
                    countable = lang is None or lang.lower().startswith("en")
            hk, path = host_key_and_path(u)
            prepared.append(
                (u, h, k, hk, hostname(u), path, meta is not None, countable)
            )
        groups: dict[tuple[int, str], list] = {}
        hn_shard_memo: dict[str, int] = {}
        for row in prepared:
            hn = row[4]
            s = hn_shard_memo.get(hn)
            if s is None:
                s = hn_shard_memo[hn] = ref_hash_and_key64(hn)[1] % n_host
            groups.setdefault((s, row[3]), []).append(row)
        per_shard: dict[int, dict[str, list]] = {}
        for (s, hk), rows in groups.items():
            rows.sort(key=lambda r: r[1])  # url_hash order within group
            per_shard.setdefault(s, {})[hk] = rows
        _t_prep = _time.time()
        # arrow-payload admission RPC: flatten each shard's sorted
        # groups into one columnar table (ships zero-copy; the previous
        # tuple-list payload pickled per field and queued tasks on the
        # shard actors while they held their slots)
        admit_calls = []
        for s, hk_groups in sorted(per_shard.items()):
            flat = [r for hk in sorted(hk_groups) for r in hk_groups[hk]]
            shard_tbl = pa.table(
                {
                    "url": pa.array([r[0] for r in flat], pa.string()),
                    "url_hash": pa.array([r[1] for r in flat], pa.string()),
                    "host_key": pa.array([r[3] for r in flat], pa.string()),
                    "hostname": pa.array([r[4] for r in flat], pa.string()),
                    "path": pa.array([r[5] for r in flat], pa.string()),
                    "in_univ": pa.array([r[6] for r in flat], pa.bool_()),
                    "countable": pa.array([r[7] for r in flat], pa.bool_()),
                }
            )
            admit_calls.append(
                host_shards[s].admit_table.remote(wave_idx, t_k, shard_tbl)
            )
        dec_tbl = pa.concat_tables(ray.get(admit_calls))
        _t_admit = _time.time()
        key_by_hash = {r[1]: r[2] for r in prepared}
        dec_hashes = dec_tbl["url_hash"].to_pylist()
        dec_keys = np.array([key_by_hash[h] for h in dec_hashes], np.uint64)
        dec_urls = dec_tbl["url"].to_pylist()
        dec_decisions = dec_tbl["decision"].to_pylist()

        # fire completion routing async; awaited at the end of the block
        pending: list = []
        not_throttle = np.array(
            [d != "throttle" for d in dec_decisions], dtype=bool
        )
        shard_of_key = (dec_keys % np.uint64(n_seen)).astype(np.int64)
        u_arr = dec_tbl["url"].combine_chunks()
        h_arr = dec_tbl["url_hash"].combine_chunks()
        for s in range(n_seen):
            m = not_throttle & (shard_of_key == s)
            if not m.any():
                continue
            idx = pa.array(np.nonzero(m)[0])
            pending.append(
                seen_shards[s].buffer_complete.remote(
                    u_arr.take(idx), h_arr.take(idx), dec_keys[m]
                )
            )

        contrib_urls: list[str] = []
        contrib_kinds: list[str] = []
        part_memo: dict[str, int] = {}
        f_urls: list[str] = []  # next-wave frontier rows (pushed to the
        f_parts: list[int] = []  # FrontierShards, never to the driver)

        def part_of(hn: str) -> int:
            p = part_memo.get(hn)
            if p is None:
                p = part_memo[hn] = ref_hash_and_key64(hn)[1] % n_parts
            return p

        def emit(url: str, kind: str) -> None:
            # metadata/record row — O(tasks + record-mode URLs) only
            contrib_urls.append(url)
            contrib_kinds.append(kind)

        def femit(url: str, hn: str) -> None:
            f_urls.append(url)
            f_parts.append(part_of(hn))

        if record:
            # passthrough rows (record mode only — tests): every
            # attempted URL + its non-hit decision
            for u in urls:
                emit(u, "attempted")
            for u, d in zip(dec_urls, dec_decisions):
                if d != D_HIT:
                    emit(u, d)

        hit_urls = [u for u, d in zip(dec_urls, dec_decisions) if d == D_HIT]
        hit_hashes = [
            h for h, d in zip(dec_hashes, dec_decisions) if d == D_HIT
        ]
        _t_fetch0 = _time.time()
        _t_fetch = _t_links = _t_probe = _t_fetch0
        if hit_urls:
            ck, cv = ray.get(counts_ref)
            # ---- fetch (heavy compute; overlaps the pending RPCs) ----
            ft = fetch_batch(web, hit_urls, hit_hashes)
            _t_fetch = _time.time()
            pages = ft["pages"]
            for t in ft["redirects"]:
                femit(t, hostname(t))
            if record:
                for u in ft["dropped_urls"]:
                    emit(u, "dropped")
            if pages.num_rows:
                out = pages.append_column(
                    "wave", pa.array([wave_idx] * pages.num_rows, pa.int32())
                )
                if out_dir:
                    wave_dir = os.path.join(out_dir, f"wave={wave_idx:05d}")
                    os.makedirs(wave_dir, exist_ok=True)
                    fname = f"part-{pages['url_hash'][0].as_py()}.parquet"
                    pq.write_table(out, os.path.join(wave_dir, fname))
                p_urls = ft["page_urls"]
                p_hashes = ft["page_hashes"]
                p_keys = [key_by_hash[h] for h in p_hashes]
                by_saved: dict[int, list[str]] = {}
                for h, k in zip(p_hashes, p_keys):
                    by_saved.setdefault(k % n_seen, []).append(h)
                pending.extend(
                    seen_shards[s].buffer_saved.remote(pa.array(hs, pa.string()))
                    for s, hs in by_saved.items()
                )
                # link pipeline (C13–C18): checks see wave-start state
                raw = ft["raw_links"]
                c_urls, c_hashes, c_keys, c_hosts = link_candidates(p_urls, raw)
                _t_links = _time.time()
                c_counts = _counts_of(c_hosts, ck, cv)
                ck_arr = np.asarray(c_keys, dtype=np.uint64)
                keep_mask = (
                    np.array([h != "" for h in c_hosts], dtype=bool)
                    & (c_counts < max_pages_per_host)
                )
                probe_shard = (ck_arr % np.uint64(n_seen)).astype(np.int64)
                cu_arr = pa.array(c_urls, pa.string())
                ch_arr = pa.array(c_hashes, pa.string())
                probe_calls, order = [], []
                for s in range(n_seen):
                    m = keep_mask & (probe_shard == s)
                    if not m.any():
                        continue
                    idxs = np.nonzero(m)[0]
                    take = pa.array(idxs)
                    probe_calls.append(
                        seen_shards[s].probe_enqueue_arrays.remote(
                            cu_arr.take(take), ch_arr.take(take), ck_arr[idxs]
                        )
                    )
                    order.append(idxs)
                # work that does NOT depend on the probe results — the
                # fetched rows + raw-href dedup — overlaps the probes
                emit(str(len(p_urls)), "fetched_n")
                if record:
                    for u in p_urls:
                        emit(u, "fetched")
                # raw hrefs repeat heavily across pages (popular link
                # targets) — batch-local dedup before the shard push;
                # the frontier is globally distinct anyway
                raw_seen: set[str] = set()
                for links in raw:
                    for href in links or []:
                        if href in raw_seen:
                            continue
                        raw_seen.add(href)
                        femit(href, hostname(href))
                _t_preprobe = _time.time()
                probe_results = ray.get(probe_calls)
                _t_probe = _time.time()
                _t_probe_extra = _t_probe - _t_preprobe
                surv_seen: set[str] = set()
                for idxs, oks in zip(order, probe_results):
                    for i in idxs[oks]:
                        if c_urls[i] not in surv_seen:
                            surv_seen.add(c_urls[i])
                            femit(c_urls[i], c_hosts[i])
                            if record:
                                emit(c_urls[i], "survivor")
        # push the partitioned next-wave rows to their owning shards —
        # async, awaited below with the other buffered-write acks
        if f_urls:
            fp = np.asarray(f_parts, dtype=np.int64)
            fu = pa.array(f_urls, pa.string())
            owner = np.searchsorted(f_bounds, fp, side="right")
            for s in range(n_front):
                m = owner == s
                if not m.any():
                    continue
                idx = pa.array(np.nonzero(m)[0])
                pending.append(
                    frontier_shards[s].push.remote(
                        pa.table(
                            {"url": fu.take(idx),
                             "part": pa.array(fp[m].astype("int32"))}
                        )
                    )
                )
        if pending:
            ray.get(pending)  # buffered-write acks (overlapped above)
        if timing:
            import json as _json

            _t_end = _time.time()
            contrib_urls.append(_json.dumps({
                "web": round(_t_web - _t0, 3),
                "pull_wait": round(_t_pull - _t_web, 3),
                "prep": round(_t_prep - _t_pull, 3),
                "admit_wait": round(_t_admit - _t_prep, 3),
                "fetch": round(_t_fetch - _t_fetch0, 3),
                "links": round(_t_links - _t_fetch, 3),
                "probe_wait": round(locals().get("_t_probe_extra", 0.0), 3),
                "ack_tail": round(_t_end - _t_probe, 3),
                "t0": round(_t0, 3),
                "t1": round(_t_end, 3),
                "pid": os.getpid(),
                "n_urls": len(urls),
                "n_hits": len(hit_urls),
            }))
            contrib_kinds.append("timing")
        return pa.table(
            {
                "url": pa.array(contrib_urls, pa.string()),
                "kind": pa.array(contrib_kinds, pa.string()),
            }
        )

    return wave_stage
