"""Benchmark driver: headline crawl throughput + per-query timings.

Prints ONE JSON line:
  {"metric": "crawl_wall_sec", "value": N, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N,
   "pages": P, "pages_per_sec": R, ...}

``--scaling`` runs the headline crawl twice in fresh processes
(num_cpus=8 then 32) on the same input and reports both throughputs +
scaling efficiency (the sandbox substitute for the north rule's
N-vs-4N-node criterion; see BASELINE.md §4).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# crawl workload knobs (same input at every parallelism level)
N_DOCS = int(os.environ.get("BENCH_N_DOCS", "6000000"))
N_HOSTS = int(os.environ.get("BENCH_N_HOSTS", "100000"))
TARGET_PAGES = int(os.environ.get("BENCH_TARGET_PAGES", "300000"))
MAX_WAVES = int(os.environ.get("BENCH_MAX_WAVES", "5"))
N_SEEDS = int(os.environ.get("BENCH_N_SEEDS", "100000"))
ZIPF_S = float(os.environ.get("BENCH_ZIPF", "0.3"))
PARAGRAPHS = int(os.environ.get("BENCH_PARAGRAPHS", "120"))
LINKS = int(os.environ.get("BENCH_LINKS", "12"))

# Single-core pure-CPU rate (loops/s of the probe below) measured in a
# HEALTHY burst window on this box (2026-08-18).  run_bench re-measures
# before the crawl and annotates the ratio, so a depleted-VM window is
# visible in the recorded JSON instead of masquerading as a code
# regression (the r3 bench recorded 241 s in a window whose wave-0 was
# ~7x slower than a healthy rerun of identical code).
HEALTHY_PROBE_RATE = float(os.environ.get("BENCH_HEALTHY_PROBE", "6880"))

# Aggregate loops/s across 8 pinned cores in a healthy window.  The
# round-4 A/B found a 158 s crawl (healthy = ~100 s) whose SINGLE-core
# probe read healthy: burst depletion can cap aggregate multi-core
# throughput while one pinned core still runs at full rate.  The
# multi-core canary catches that mode.  (≈ 8 × single-core × the
# ~0.85 measured 1→8 hw ceiling, BASELINE.md §4.)
HEALTHY_PROBE_RATE_MC = float(os.environ.get("BENCH_HEALTHY_PROBE_MC", "46500"))
PROBE_MC_CORES = 8


def _probe_rate(secs: float = 3.0, cores: int = 1) -> float:
    """Aggregate iterations/s of a tiny pure-Python loop on ``cores``
    distinct pinned cores — the window-health canary (no Ray, no IO).
    cores=1 detects per-core frequency throttling; cores>1 additionally
    detects aggregate burst-budget depletion that leaves a lone core
    unaffected.  Pins only to cores this process may run on, so on a
    box with fewer than ``cores`` of them the probe uses all it has."""
    code = (
        "import time\n"
        f"t0=time.time(); n=0\n"
        f"while time.time()-t0 < {secs}:\n"
        "    x=sum(i*i for i in range(2000)); n+=1\n"
        "print(n)"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=(lambda c=c: os.sched_setaffinity(0, {c})),
        )
        for c in sorted(os.sched_getaffinity(0))[:cores]
    ]
    return sum(int(p.communicate()[0]) for p in procs) / secs


def _wait_for_healthy_window() -> tuple[float, float]:
    """Window-health canary BEFORE anything heavy: if the VM's burst
    budget is depleted (either probe < 75% of its healthy rate), wait
    in bounded recovery intervals and re-probe — then the caller
    records whatever we got (annotated) rather than silently shipping
    a depleted number.  Burst credits refill over minutes, so one
    fixed wait often lands still-depleted; up to BENCH_PROBE_MAX_WAITS
    intervals (total ≤ ~6 min by default) buys a much better shot at a
    healthy window while staying bounded for unattended runs."""
    probe = _probe_rate()
    probe_mc = _probe_rate(cores=PROBE_MC_CORES)
    if not os.environ.get("BENCH_NO_PROBE_WAIT"):
        recovery = float(os.environ.get("BENCH_PROBE_RECOVERY_SECS", "120"))
        for _ in range(int(os.environ.get("BENCH_PROBE_MAX_WAITS", "3"))):
            if (
                probe >= 0.75 * HEALTHY_PROBE_RATE
                and probe_mc >= 0.75 * HEALTHY_PROBE_RATE_MC
            ):
                break
            time.sleep(recovery)
            probe = max(probe, _probe_rate())
            probe_mc = max(probe_mc, _probe_rate(cores=PROBE_MC_CORES))
    return probe, probe_mc


QUERY_NAMES = [
    "groupby_fold",
    "filter_project",
    "join_broadcast",
    "join_shuffle",
    "fold_global",
    "distinct",
    "intersection",
    "sample",
    "topk",
    "count",
    "quality",
    "window_sliding",
    "top_users",
    "dedup_embedding",
    "dedup_embedding_lsh",
    "wordcount",
    "inverted_index",
    "tfidf_docs",
    "dedup_exact",
    "dedup_minhash",
    "dedup_simhash",
    "dedup_ngram",
    "dedup_clusters",
    "knn_bruteforce",
    "knn_lsh",
    "knn_ivf",
    "knn_ivf_flat",
    "window_tumbling",
    "sessionize",
    "asof_join",
    "approx_distinct_users",
    "text_stats",
    "anti_join",
    "keep_latest",
    "grouped_quantiles",
    "grouped_topk",
    "quality_filter",
    "mixture_sample",
    "range_join",
    "window_late_data",
    "top_tokens",
    "embedding_stats",
    "contamination_check",
    "repetition_signals",
    "lm_unigram_score",
    "revenue_by_segment",
    "moving_average",
    "pack_sequences",
    "chunk_documents",
    "bm25_scores",
    "join_left",
    "global_rank",
    "rollup_revenue",
    "pivot_revenue",
    "stratified_sample",
    "source_mix",
    "pii_scrub",
    "model_score",
    "join_full",
    "event_deltas",
    "join_semi",
    "except_parts",
    "histogram_prices",
    "monthly_orders",
    "grouped_moments",
    "funnel_conversion",
    "zscore_outliers",
    "props_extract",
    "bigram_counts",
    "embedding_norms",
    "above_avg_orders",
    "distinct_users_by_type",
    "cumulative_revenue",
    "ntile_price",
    "bloom_semi_join",
    "first_last_orders",
    "pareto_parts",
    "mode_event_type",
    "cooccurrence_types",
    "token_budget_cap",
    "event_transitions",
    "activity_histogram",
    "minmax_quality",
    "union_months",
    "mom_change",
    "grouped_regression",
    "cohort_retention",
    "user_streaks",
    "fuzzy_token_join",
    "profile_orders",
    "sliding_distinct_users",
    "pq_encode",
    "time_weighted_value",
    "local_supplier_volume",
    "dup_spans",
    "percent_rank_price",
    "unpivot_revenue",
    "mad_outliers",
    "corr_qty_discount",
    "pricing_summary",
    "split_assign",
    "weighted_sample",
    "range_search",
    "kmeans_embeddings",
    "dedup_semantic",
    "mmr_diversify",
    "forecast_revenue",
    "shipping_priority",
    "promo_revenue",
    "large_orders",
    "dsir_weights",
    "new_users_daily",
    "rare_token_docs",
    "centroid_assign",
    "cdc_chunks",
    "lm_bigram_score",
    "source_divergence",
    "order_count_distribution",
    "returned_items",
    "vocab_head_coverage",
]


def run_bench() -> dict:
    probe, probe_mc = _wait_for_healthy_window()

    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.crawl import (
        CrawlEngine,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.sources.synthetic_web import (
        CrawlParams,
        WebConfig,
    )

    # the sf0.1 corpus is ~1.5 MB — small enough that a per-worker
    # tuple (referenced, not copied, per paragraph) beats the
    # shared-memory TextCorpus form, which pays a slice+decode copy
    # per paragraph; switch to TextCorpus.from_arrow(...) when the
    # corpus is too big to replicate per worker (GB-scale).
    texts = tuple(
        pq.read_table(f"{SF_DIR}/documents.parquet", columns=["text"])["text"]
        .to_pylist()
    )
    cfg = WebConfig(n_docs=N_DOCS, n_hosts=N_HOSTS, texts=texts, zipf_s=ZIPF_S,
                    paragraphs=PARAGRAPHS, links_per_doc=LINKS)
    params = CrawlParams(
        target_pages=TARGET_PAGES, max_waves=MAX_WAVES, n_seeds=N_SEEDS
    )
    shards = max(2, NUM_CPUS // 4)  # actors reserve num_cpus=1 each;
    # half the budget goes to state shards, half to fetch/link tasks
    # page store on tmpfs: per-node DISKS scale with nodes on a real
    # N-vs-4N cluster, but this sandbox has ONE disk (~670 MB/s) that
    # the 4N level would saturate at ~375 MB/s sustained while the N
    # level coasts — tmpfs gives both levels storage that keeps up,
    # like per-node disks would (BASELINE.md §4); ~15 GB, cleaned up
    import shutil

    out_dir = os.environ.get("BENCH_OUT_DIR") or (
        "/dev/shm/bench_crawl_out" if os.path.isdir("/dev/shm") else None
    )
    if out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    eng = CrawlEngine(
        cfg,
        params,
        n_host_shards=shards,
        n_seen_shards=shards,
        fetch_concurrency=max(2, NUM_CPUS // 2),
        fetch_batch_size=512,
        actor_num_cpus=float(os.environ.get("BENCH_ACTOR_CPUS", "1")),
        out_dir=out_dir,
    )
    eng.run()
    crawl_wall = time.time() - t0
    pages = eng.pages_total
    attempts = sum(w["attempted"] for w in eng.waves)

    # downstream search jobs over the crawl corpus (the reference's
    # `pipeline` command chains Indexer → PageRank → TfIdf over the
    # pt-crawl; timing them here catches regressions in the search
    # pipelines, not just the curation queries).  Each job reads the
    # wave=K parquet partitions with its own column subset (the raw
    # wave rows include re-fetches — <1 % of rows — vs the deduped
    # pt-crawl view; throughput-equivalent).  BENCH_DOWNSTREAM=0 skips.
    downstream = {}
    if os.environ.get("BENCH_DOWNSTREAM", "1") != "0":
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
            build_index,
        )
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.pagerank import (
            run_pagerank,
        )
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.tfidf import (
            run_tfidf,
        )

        pages_dir = eng.out_dir
        t0 = time.time()
        idx = build_index(
            ray.data.read_parquet(
                pages_dir, columns=["url", "url_hash", "wave", "page"]
            ),
            total_pages=pages,
        )
        downstream["index_wall_sec"] = round(time.time() - t0, 3)
        downstream["index_words"] = idx.num_rows
        t0 = time.time()
        pr = run_pagerank(
            ray.data.read_parquet(pages_dir, columns=["url", "url_hash", "page"])
        )
        downstream["pagerank_wall_sec"] = round(time.time() - t0, 3)
        downstream["pagerank_rows"] = pr.num_rows
        del pr
        t0 = time.time()
        tf = run_tfidf(
            ray.data.read_parquet(pages_dir, columns=["url", "page"]),
            idx,
            total_docs=pages,
        )
        downstream["tfidf_wall_sec"] = round(time.time() - t0, 3)
        downstream["tfidf_rows"] = tf.num_rows
        del idx, tf

    eng.cleanup()  # page payloads are tens of GB at bench scale
    if out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)

    # query timings (each returns a Dataset/DataFrame; consume fully)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    qtimes = {}
    for name in QUERY_NAMES:
        t0 = time.time()
        res = qs[name](SF_DIR)
        if hasattr(res, "to_pandas"):
            res = res.to_pandas() if not hasattr(res, "count") else res.to_pandas()
        qtimes[name] = round(time.time() - t0, 3)

    ray.shutdown()
    return {
        "metric": "crawl_wall_sec",
        "value": round(crawl_wall, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
        "num_cpus": NUM_CPUS,
        "pages": pages,
        "url_attempts": attempts,
        "waves": len(eng.waves),
        # per-partition lineage counts (BASELINE.md §4): one entry per
        # BFS wave = one output partition directory (wave=K/)
        "per_wave": [
            {
                "wave": i,
                "attempted": w["attempted"],
                "enqueued": w["enqueued"],
                "visited_added": w["visited_added"],
                "throttled": w["throttled"],
                "queue_size": w["queue_size"],
                "wall_sec": w["t_wall"],
                # per-stage attribution rides along when
                # CRAWL_STAGE_TIMING=1 (A/B and drift forensics)
                **(
                    {"stage_timings": w["stage_timings"]}
                    if "stage_timings" in w
                    else {}
                ),
            }
            for i, w in enumerate(eng.waves)
        ],
        "pages_per_sec": round(pages / crawl_wall, 2),
        "attempts_per_sec": round(attempts / crawl_wall, 2),
        # Indexer/PageRank/TfIdf walls over the crawl corpus (named
        # entries so search-pipeline regressions show in the JSON)
        "downstream": downstream,
        # window-health annotation: 1.0 = the healthy-window single-core
        # rate; «0.75 means the VM's burst budget was depleted and the
        # walls above are pessimistic (see HEALTHY_PROBE_RATE)
        "probe_rate": round(probe),
        "window_health": round(probe / HEALTHY_PROBE_RATE, 3),
        # aggregate 8-core canary: catches burst depletion that the
        # single-core probe misses (see HEALTHY_PROBE_RATE_MC)
        "probe_rate_mc": round(probe_mc),
        "window_health_mc": round(probe_mc / HEALTHY_PROBE_RATE_MC, 3),
    }


def hw_scaling_ceiling(lo: int, hi: int, secs: float = 6.0) -> dict:
    """Measure the PLATFORM's own lo→hi scaling ceiling with a pure-CPU,
    zero-communication probe: K identical single-thread Python loops,
    each pinned to its own physical core, no shared state, no IPC, no
    memory traffic beyond L1.  On ideal hardware the aggregate rate
    scales exactly K; any deficit is the machine's (hypervisor power /
    frequency management — /proc/cpuinfo reports nominal MHz only, and
    steal time is ~0.7%, yet a core measurably slows as its neighbors
    load up).  A real N→4N-node cluster has identical per-node clocks
    at both sizes, so the probe's ratio is the correct normalizer for
    single-box two-level measurements (BASELINE.md §4)."""

    # interleave a settle gap so the second level starts from the same
    # thermal state the first did
    r_lo = _probe_rate(secs, cores=lo)
    time.sleep(2)
    r_hi = _probe_rate(secs, cores=hi)
    return {
        "probe_rate_lo": round(r_lo),
        "probe_rate_hi": round(r_hi),
        "hw_ceiling": round((r_hi / r_lo) / (hi / lo), 3),
    }


def run_scaling() -> dict:
    def run_at(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            BENCH_QUERIES_SKIP="1",
            # scaling measures the crawl alone; the downstream jobs
            # would drain ~200 s of burst credits between a pair's two
            # levels and bias whichever level runs second
            BENCH_DOWNSTREAM="0",
        )

        def _pin() -> None:
            # Pin the whole process tree (ray workers inherit the mask)
            # to ncpu PHYSICAL cores.  `ray.init(num_cpus=N)` only
            # limits SCHEDULING — without the mask, the low level's few
            # task processes burst onto all 32 cores through Arrow /
            # parquet / numpy thread pools, inflating its throughput
            # and deflating the measured efficiency.  The mask makes
            # each level an honest N-core machine (the sandbox
            # substitute for an N-node cluster, BASELINE.md §4).
            os.sched_setaffinity(0, set(range(ncpu)))

        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            preexec_fn=_pin,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    # Measurement design for a machine whose speed WANDERS on
    # multi-minute timescales (burstable cloud CPU: an isolated run
    # hits 5.1-5.6k pages/s at 32 cpus, back-to-back runs settle to
    # ~4.6k, and depleted windows drop to ~3.5k — verified with
    # identical binaries).  A sequential lo,lo,lo,hi,hi,hi sweep
    # systematically biases whichever level runs later, so instead:
    #   - levels run in adjacent PAIRS (machine state ~constant within
    #     a pair), alternating pair order across repetitions,
    #   - a fixed idle cooldown precedes every run (restores burst
    #     state; 150 s idle measurably recovers throughput),
    #   - efficiency = MEDIAN of the per-pair ratios; all raw runs are
    #     reported alongside.
    n_rep = int(os.environ.get("BENCH_SCALING_REPEATS", "1"))
    cooldown = float(os.environ.get("BENCH_SCALING_COOLDOWN", "150"))
    lo_runs, hi_runs, pair_effs, pair_ceilings = [], [], [], []
    for rep in range(n_rep):
        order = (lo, hi) if rep % 2 == 0 else (hi, lo)
        # the ceiling is measured ADJACENT to its pair: this box's
        # burstable CPU budget decays over a multi-pair session, and a
        # single start-of-session probe would normalize a depleted
        # pair by a fresh-machine ceiling (observed: a mid-session
        # 32-cpu level collapsing 35% while the probe said 0.83)
        ceiling = hw_scaling_ceiling(lo, hi)
        pair_ceilings.append(ceiling["hw_ceiling"])
        pair: dict[int, dict] = {}
        for level in order:
            time.sleep(cooldown)
            pair[level] = run_at(level)
        lo_runs.append(pair[lo])
        hi_runs.append(pair[hi])
        pair_effs.append(
            (pair[hi]["pages_per_sec"] / pair[lo]["pages_per_sec"]) / (hi / lo)
        )
    norm_effs = [e / c for e, c in zip(pair_effs, pair_ceilings)]
    mid = sorted(pair_effs)[len(pair_effs) // 2]
    mid_norm = sorted(norm_effs)[len(norm_effs) // 2]
    r_lo = max(lo_runs, key=lambda r: r["pages_per_sec"])
    r_hi = max(hi_runs, key=lambda r: r["pages_per_sec"])
    return {
        "metric": "crawl_scaling",
        "unit": "pages_per_sec",
        f"pages_per_sec_{lo}": r_lo["pages_per_sec"],
        f"pages_per_sec_{hi}": r_hi["pages_per_sec"],
        f"wall_sec_{lo}": r_lo["value"],
        f"wall_sec_{hi}": r_hi["value"],
        f"all_pps_{lo}": [r["pages_per_sec"] for r in lo_runs],
        f"all_pps_{hi}": [r["pages_per_sec"] for r in hi_runs],
        "pages": r_hi["pages"],
        "pair_efficiencies": [round(e, 3) for e in pair_effs],
        "scaling_efficiency": round(mid, 3),
        # the platform's own lo→hi ceiling for PERFECTLY parallel
        # pure-CPU work on this box (per-core slowdown under full
        # load), measured per pair, and the crawl's efficiency
        # normalized by its own pair's ceiling — the number comparable
        # to a real N→4N-node criterion where both cluster sizes run
        # identical per-node hardware
        "hw_ceiling_per_pair": pair_ceilings,
        "hw_ceiling": sorted(pair_ceilings)[len(pair_ceilings) // 2],
        "normalized_per_pair": [round(e, 3) for e in norm_effs],
        "efficiency_vs_hw_ceiling": round(mid_norm, 3),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        if os.environ.get("BENCH_QUERIES_SKIP"):
            QUERY_NAMES = []
        print(json.dumps(run_bench()))
