"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs timed rounds of calls
into the engine's public functions, checks the outputs (``checks.py``)
and turns what the engine's layers already count into per-layer
figures.  Nothing here reaches inside the engine: timings are spans
around the calls the benchmark makes, and the counters are the ones the
layers return.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from perfbench import checks

DATA = Path(__file__).resolve().parent / "data" / "sf0.01"
TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()
# crawl_job.py's shard count at 3 CPUs; with num_cpus < 4 x shards the
# shard actors reserve no CPU, so the wave's map tasks keep all three
SHARDS = 2
# Fixed, not read from the machine.  Seven operator queries build
# 2-actor pools and hang below 3 CPUs (CHANGES.md, FOUND).
NUM_CPUS = 3
LINKS_PER_PAGE = 12
ZIPF = 0.3

# Webs per workload and size.  crawl: wide and flat with short pages,
# so admission, URL-seen probes and the frontier do the work.  search:
# text-heavy pages, so extraction, tokenizing and the jobs' exchanges do.
GEOMETRY = {
    "crawl": {
        "full": dict(n_docs=2_000_000, n_hosts=20_000, n_seeds=1_000,
                     max_waves=5, paragraphs=2),
        "tiny": dict(n_docs=3_000, n_hosts=60, n_seeds=20, max_waves=3,
                     paragraphs=2),
    },
    "search": {
        "full": dict(n_docs=200_000, n_hosts=2_000, n_seeds=500,
                     max_waves=4, paragraphs=40),
        "tiny": dict(n_docs=600, n_hosts=16, n_seeds=8, max_waves=4,
                     paragraphs=40),
    },
}
WARMUP_GEOMETRY = dict(n_docs=600, n_hosts=16, n_seeds=8, max_waves=3,
                       paragraphs=2)
SEARCH_QUERIES = {"full": 2_000, "tiny": 50}
# The client sends the query list this many times over, so the latency
# median spans seconds of machine time, not one noisy second.
SEARCH_PASSES = 4
MISSPELL_SHARE = 0.2
# The search_pipeline queries' crawl (crawl_corpus defaults), which the
# operators workload checks against the crawl oracle.
CORPUS_GEOMETRY = dict(n_docs=600, n_hosts=16, target_pages=200,
                       max_waves=8, n_seeds=8)
ROUNDED = 0.51e-8  # half a unit in the 8th digit, for rounded outputs
TINY_QUERIES = ("filter_project", "count", "kmeans_embeddings",
                "crawl_conformance", "search_pagerank")
# The queries with the longest walls on a reference run (README.md).
HEAVY_QUERIES = ("crawl_pages", "dedup_clusters", "bloom_semi_join",
                 "model_score", "text_stats", "zscore_outliers",
                 "media_features", "join_semi")
OP_MODULES = ("relational", "events", "traindata", "dedup", "similarity",
              "textpipe", "multimodal", "search_pipeline")


class Tracer:
    """Spans around the benchmark's calls into the engine, kept in
    memory: name, parent span, start and end (``perf_counter`` s)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter()}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call is one span."""
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call


def dur(span: dict) -> float:
    return span["end"] - span["start"]


@dataclass
class Round:
    """One round of a workload's operations and what it returned."""

    work_s: float
    op_ms: list[float]
    attempted: int
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


# -- per-layer metric names -----------------------------------------------------

LAYER_UNITS = {
    # pipelines/crawl, stages/fetch, state
    "crawl_pages_per_s": "pages/s",
    "crawl.seed_s": "s", "crawl.split_s": "s", "crawl.job_s": "s",
    "crawl.arrow_s": "s", "crawl.barrier_s": "s",
    "crawl.waves": "count", "crawl.attempted": "count",
    "crawl.fetched": "count", "crawl.throttled": "count",
    "crawl.enqueued": "count", "crawl.fetch_yield": "ratio",
    "fetch.web_s": "s", "fetch.prep_s": "s", "fetch.fetch_s": "s",
    "fetch.links_s": "s", "fetch.ack_tail_s": "s", "fetch.blocks": "count",
    "fetch.block_skew": "ratio",
    "state.admit_wait_s": "s", "state.probe_wait_s": "s",
    "state.pull_wait_s": "s", "state.filter_probes": "count",
    "state.filter_rebuilds": "count", "state.visited": "count",
    "state.queue": "count", "state.filter_pass_rate": "ratio",
    # pipelines/index, pagerank, tfidf, query
    "index_s": "s", "index.pages": "count", "index.page_mb": "MB",
    "index.words": "count", "index.postings": "count",
    "index.full_words": "count",
    "pagerank_s": "s", "pagerank.graph_s": "s",
    "pagerank.iterations": "count", "pagerank.iter_s": "s",
    "pagerank.vertices": "count",
    "tfidf_s": "s", "tfidf.rows": "count", "tfidf.rows_per_s": "1/s",
    "serve_load_s": "s", "search_p50_ms": "ms", "search_p99_ms": "ms",
    "serve.correct_us": "us", "serve.candidates_us": "us",
    "serve.candidates_per_query": "count", "serve.dictionary_words": "count",
    # the operator modules
    "queries_s": "s", "query_p50_s": "s",
    **{f"ops.{m}_s": "s" for m in OP_MODULES},
    **{f"q.{n}_s": "s" for n in HEAVY_QUERIES},
}


# -- shared pieces --------------------------------------------------------------


def load_texts() -> tuple[str, ...]:
    return tuple(pq.read_table(DATA / "documents.parquet",
                               columns=["text"])["text"].to_pylist())


def web(geom: dict, seed: int, texts: tuple[str, ...]):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.sources.synthetic_web import (
        CrawlParams,
        WebConfig,
    )

    cfg = WebConfig(n_docs=geom["n_docs"], n_hosts=geom["n_hosts"],
                    texts=texts, zipf_s=ZIPF, paragraphs=geom["paragraphs"],
                    links_per_doc=LINKS_PER_PAGE, seed=seed)
    params = CrawlParams(target_pages=geom.get("target_pages", 10**12),
                         max_waves=geom["max_waves"], n_seeds=geom["n_seeds"])
    return cfg, params


def run_oracle(cfg, params):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle.crawl_oracle import (
        CrawlOracle,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.sources.synthetic_web import (
        SyntheticWeb,
    )

    oracle = CrawlOracle(SyntheticWeb(cfg), params)
    oracle.run()
    return oracle


class CrawlRunner:
    """One crawl with the engine: CrawlEngine construction and ``run()``
    are timed, each ``seed()`` and ``run_wave()`` call is a span."""

    def __init__(self, work: Path, tracer: Tracer) -> None:
        self.work = work
        self.tracer = tracer
        self.n = 0

    def crawl(self, cfg, params):
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.crawl import (
            CrawlEngine,
        )

        self.n += 1
        with self.tracer.span("crawl") as sp:
            eng = CrawlEngine(cfg, params, n_host_shards=SHARDS,
                              n_seen_shards=SHARDS, actor_num_cpus=0,
                              out_dir=str(self.work / f"pages-{self.n}"))
            eng.seed = self.tracer.timed("crawl.seed", eng.seed)
            eng.run_wave = self.tracer.timed("crawl.wave", eng.run_wave)
            summary = eng.run()
        return eng, summary, sp

    def close(self, eng) -> None:
        for a in eng.host_shards + eng.seen_shards + eng.frontier_shards:
            ray.kill(a)
        shutil.rmtree(eng.out_dir, ignore_errors=True)

    def layers(self, eng, summary, crawl_span) -> dict[str, float]:
        """Per-layer figures of one crawl from the counters the engine
        keeps: per-wave stats, fetch-stage timings (traced runs), and
        the seen shards' filter stats."""
        waves = eng.waves
        seed_s = [dur(s) for s in self.tracer.spans
                  if s["name"] == "crawl.seed" and s["parent"] == crawl_span["id"]]
        fetched = sum(w["fetched"] for w in waves)
        attempted = sum(w["attempted"] for w in waves)
        out = {
            "crawl_pages_per_s": summary["pages"] / dur(crawl_span),
            "crawl.seed_s": sum(seed_s),
            "crawl.split_s": sum(w["t_split"] for w in waves),
            "crawl.job_s": sum(w["t_job"] for w in waves),
            "crawl.arrow_s": sum(w["t_driver_arrow"] for w in waves),
            "crawl.barrier_s": sum(w["t_barrier"] for w in waves),
            "crawl.waves": len(waves),
            "crawl.attempted": attempted,
            "crawl.fetched": fetched,
            "crawl.throttled": sum(w["throttled"] for w in waves),
            "crawl.enqueued": sum(w["enqueued"] for w in waves),
            "crawl.fetch_yield": fetched / attempted if attempted else 0.0,
        }
        blocks = [[json.loads(t) for t in w.get("stage_timings", [])]
                  for w in waves]
        flat = [b for wave in blocks for b in wave]
        for metric, key in (("fetch.web_s", "web"), ("fetch.prep_s", "prep"),
                            ("fetch.fetch_s", "fetch"), ("fetch.links_s", "links"),
                            ("fetch.ack_tail_s", "ack_tail"),
                            ("state.admit_wait_s", "admit_wait"),
                            ("state.probe_wait_s", "probe_wait"),
                            ("state.pull_wait_s", "pull_wait")):
            out[metric] = sum(b[key] for b in flat)
        out["fetch.blocks"] = len(flat)
        skews = []
        for wave in blocks:
            walls = [b["t1"] - b["t0"] for b in wave]
            if walls and sum(walls) > 0:
                skews.append(max(walls) / (sum(walls) / len(walls)))
        out["fetch.block_skew"] = statistics.mean(skews) if skews else 0.0
        fs = summary["filter_stats"]
        probes = sum(s["filter_probes"] for s in fs)
        out.update({
            "state.filter_probes": probes,
            "state.filter_rebuilds": sum(s["filter_rebuilds"] for s in fs),
            "state.visited": summary["visited"],
            "state.queue": summary["queue"],
            "state.filter_pass_rate": (
                sum(s["filter_cuckoo_maybe"] for s in fs) / probes if probes else 0.0
            ),
        })
        return out


def warm_up_crawl(work: Path, texts):
    """A small crawl, so that worker processes, the package import and
    Ray Data's executor are warm before the first timed call; returns
    its pages."""
    cfg, params = web(WARMUP_GEOMETRY, 0, texts)
    runner = CrawlRunner(work / "warmup", Tracer())
    eng, _summary, _span = runner.crawl(cfg, params)
    pages = eng.pages_table()
    runner.close(eng)
    return pages


# -- workloads ------------------------------------------------------------------


class Workload:
    def __init__(self, seed: int, size: str, work: Path, trace: bool) -> None:
        self.seed = seed
        self.size = size
        self.work = work
        self.trace = trace
        self.tracer = Tracer()

    def layer_metrics(self, rounds: list[Round]) -> dict:
        """Each per-layer figure as its median over the rounds; figures
        the workload does not produce read 0."""
        return {
            name: {"value": statistics.median(r.layers.get(name, 0.0) for r in rounds),
                   "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }


class CrawlWorkload(Workload):
    """A crawl alone over a wide, flat web with short pages."""

    def setup(self) -> None:
        texts = load_texts()
        self.cfg, self.params = web(GEOMETRY["crawl"][self.size], self.seed, texts)
        self.runner = CrawlRunner(self.work, self.tracer)
        warm_up_crawl(self.work, texts)

    def run_round(self) -> Round:
        eng, summary, sp = self.runner.crawl(self.cfg, self.params)
        waves = [dur(s) * 1e3 for s in self.tracer.spans
                 if s["name"] == "crawl.wave" and s["parent"] == sp["id"]]
        rnd = Round(work_s=dur(sp), op_ms=waves, attempted=len(waves),
                    outputs={"row": eng.conformance_row(),
                             "waves": [dict(w) for w in eng.waves]},
                    layers=self.runner.layers(eng, summary, sp))
        self.runner.close(eng)
        return rnd

    def check(self, rounds: list[Round]) -> list[str]:
        expected = checks.crawl_expected(run_oracle(self.cfg, self.params))
        return [p for r in rounds
                for p in checks.crawl_problems(r.outputs["row"], expected,
                                               r.outputs["waves"])]


def query_stream(seed: int, texts, n: int) -> list[str]:
    """``n`` 1-3 word queries drawn from the corpus paragraphs (words of
    one query come from one paragraph, so they co-occur on pages);
    about ``MISSPELL_SHARE`` of them have one word with a letter
    changed.  Made from the seed and the corpus only."""
    rng = random.Random(seed)
    paras = [re.findall(r"[a-z]{3,}", t.lower()) for t in texts]
    paras = [p for p in paras if len(p) >= 3]
    out = []
    for _ in range(n):
        words = rng.sample(rng.choice(paras), rng.randint(1, 3))
        if rng.random() < MISSPELL_SHARE:
            i = rng.randrange(len(words))
            w = words[i]
            j = rng.randrange(len(w))
            words[i] = w[:j] + rng.choice("bcdfghkmpvwxz".replace(w[j], "")) + w[j + 1:]
        out.append(" ".join(words))
    return out


class SearchWorkload(Workload):
    """A small crawl of text-heavy pages, then Indexer, PageRank and
    TfIdf over its deduplicated page view, then QueryEngine serving a
    closed loop of queries from one client."""

    def setup(self) -> None:
        texts = load_texts()
        self.cfg, self.params = web(GEOMETRY["search"][self.size], self.seed, texts)
        self.stream = query_stream(self.seed, texts, SEARCH_QUERIES[self.size])
        self.runner = CrawlRunner(self.work, self.tracer)
        self._chain(warm_up_crawl(self.work, texts))

    def _chain(self, pages):
        """Indexer → PageRank → TfIdf → QueryEngine over ``pages``."""
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
            build_index,
        )
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.pagerank import (
            build_graph,
            run_pagerank,
        )
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.query import (
            QueryEngine,
        )
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.tfidf import (
            run_tfidf,
        )

        sp = self.tracer.span
        with sp("index"):
            index_tbl = build_index(pages)
        with sp("pagerank"):
            if self.trace:
                with sp("pagerank.graph"):
                    graph = build_graph(pages)
                stamps = [time.perf_counter()]
                pr_tbl = run_pagerank(
                    pages, graph=graph,
                    on_iteration=lambda i, ranks, res: stamps.append(time.perf_counter()),
                )
                self._iteration_stamps = stamps
            else:
                pr_tbl = run_pagerank(pages)
        with sp("tfidf"):
            tf_tbl = run_tfidf(pages, index_tbl)
        with sp("serve.load"):
            qe = QueryEngine(index_tbl, tf_tbl, pr_tbl)
        return index_tbl, pr_tbl, tf_tbl, qe

    def run_round(self) -> Round:
        sp = self.tracer.span
        with sp("round") as rnd_span:
            eng, summary, crawl_span = self.runner.crawl(self.cfg, self.params)
            with sp("crawl.view"):
                pages = eng.pages_table()
            index_tbl, pr_tbl, tf_tbl, qe = self._chain(pages)
            served, unstable, lat = {}, set(), []
            for q in self.stream * SEARCH_PASSES:
                with sp("serve.search") as s:
                    res = qe.search(q)
                lat.append(dur(s) * 1e3)
                urls = [r["url"] for r in res]
                if served.setdefault(q, urls) != urls:
                    unstable.add(q)
        layers = self.runner.layers(eng, summary, crawl_span)
        top = {s["name"]: s for s in self.tracer.spans
               if s["parent"] == rnd_span["id"]}
        layers.update(self._search_layers(top, pages, index_tbl, pr_tbl,
                                          tf_tbl, qe, lat))
        outputs = {"row": eng.conformance_row(pages),
                   "waves": [dict(w) for w in eng.waves],
                   "index": index_tbl, "pagerank": pr_tbl, "tfidf": tf_tbl,
                   "served": served, "unstable": unstable}
        self.runner.close(eng)
        # operations: the crawl's waves, the four jobs and the requests
        return Round(work_s=dur(rnd_span), op_ms=lat,
                     attempted=len(eng.waves) + 4 + len(lat),
                     outputs=outputs, layers=layers)

    def _search_layers(self, top, pages, index_tbl, pr_tbl, tf_tbl, qe, lat):
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.tokenize import (
            query_tokens,
        )

        postings = sum(len(p) for p in index_tbl["postings"].to_pylist())
        out = {
            "index_s": dur(top["index"]),
            "index.pages": pages.num_rows,
            "index.page_mb": pages["page"].nbytes / 1e6,
            "index.words": index_tbl.num_rows,
            "index.postings": postings,
            "index.full_words": sum(index_tbl["full"].to_pylist()),
            "pagerank_s": dur(top["pagerank"]),
            "pagerank.vertices": pr_tbl.num_rows,
            "tfidf_s": dur(top["tfidf"]),
            "tfidf.rows": tf_tbl.num_rows,
            "tfidf.rows_per_s": tf_tbl.num_rows / dur(top["tfidf"]),
            "serve_load_s": dur(top["serve.load"]),
            "search_p50_ms": statistics.median(lat),
            "search_p99_ms": statistics.quantiles(lat, n=100)[98],
            "serve.dictionary_words": len(qe.dictionary),
        }
        if not self.trace:
            return out
        graph = [s for s in self.tracer.spans if s["name"] == "pagerank.graph"
                 and s["parent"] == top["pagerank"]["id"]]
        out["pagerank.graph_s"] = dur(graph[0])
        # call start, then one stamp per iteration's callback; the first
        # interval also holds the edge build
        stamps = self._iteration_stamps
        out["pagerank.iterations"] = len(stamps) - 1
        out["pagerank.iter_s"] = (stamps[-1] - stamps[0]) / max(1, len(stamps) - 1)
        # serving-layer microbenchmarks, outside the round's timing
        misspelled = [w for q in self.stream for w in query_tokens(q)
                      if w not in qe.index]
        t_correct = []
        for w in misspelled:
            t = time.perf_counter()
            qe.correct(w)
            t_correct.append(time.perf_counter() - t)
        t_cand, n_cand = [], []
        for q in self.stream:
            words = [qe.correct(w) for w in query_tokens(q)]
            t = time.perf_counter()
            n_cand.append(len(qe.candidates(words)))
            t_cand.append(time.perf_counter() - t)
        out["serve.correct_us"] = statistics.median(t_correct) * 1e6 if t_correct else 0.0
        out["serve.candidates_us"] = statistics.median(t_cand) * 1e6
        out["serve.candidates_per_query"] = statistics.mean(n_cand)
        return out

    def check(self, rounds: list[Round]) -> list[str]:
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle import (
            downstream_oracle as do,
        )

        oracle = run_oracle(self.cfg, self.params)
        expected = checks.crawl_expected(oracle)
        index = do.build_index_oracle(oracle.crawl)
        ranks = do.pagerank_oracle(oracle.crawl)
        tfidf = do.tfidf_oracle(oracle.crawl, index)
        problems = []
        for r in rounds:
            o = r.outputs
            problems += checks.crawl_problems(o["row"], expected, o["waves"])
            problems += checks.index_problems(checks.index_rows(o["index"]), index)
            problems += checks.pagerank_problems(o["pagerank"], ranks, do.DAMPING)
            problems += checks.tfidf_problems(o["tfidf"], tfidf)
            # Scores that agree with the oracle's to 1e-12 can still order
            # exact ties differently, so the serving oracle ranks with the
            # engine's own tf-idf and PageRank values, checked just above.
            eng_tfidf = {x["key"]: x for x in o["tfidf"].to_pylist()}
            eng_ranks = {x["url_hash"]: x for x in o["pagerank"].to_pylist()}
            results = {
                q: [x["url"] for x in do.query_oracle(q, index, eng_tfidf, eng_ranks)]
                for q in o["served"]
            }
            problems += checks.results_problems(o["served"], results)
            problems += [f"search: {q!r} served different results on repeats"
                         for q in sorted(o["unstable"])]
        return problems


@ray.remote(num_cpus=1)
def _import_operator_modules() -> int:
    import os

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (  # noqa: F401
        dedup,
        events,
        multimodal,
        relational,
        search_pipeline,
        similarity,
        textpipe,
        traindata,
    )

    return os.getpid()


class OperatorsWorkload(Workload):
    """Every entry of ``__ray_entry__.queries()`` on the sf0.01 tables,
    each result consumed in full."""

    def setup(self) -> None:
        import __ray_entry__ as entry

        self.queries = entry.queries()
        if self.size == "tiny":
            self.queries = {n: self.queries[n] for n in TINY_QUERIES}
        self.sql = entry.oracle_sql()
        # start NUM_CPUS workers with the package imported, and run Ray
        # Data's executor once, without touching any query's memo
        ray.get([_import_operator_modules.remote() for _ in range(NUM_CPUS)])
        ray.data.range(8).map_batches(lambda b: b, batch_format="pyarrow").materialize()

    def run_round(self) -> Round:
        sp = self.tracer.span
        outputs, op_ms, failed = {}, [], 0
        with sp("round"):
            for name, fn in self.queries.items():
                with sp("q." + name) as s:
                    try:
                        out = fn(str(DATA))
                        if isinstance(out, ray.data.Dataset):
                            out = out.to_pandas()
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                        failed += 1
                        out = None
                op_ms.append(dur(s) * 1e3)
                if isinstance(out, pa.Table):
                    out = out.to_pandas()
                if out is not None:
                    outputs[name] = out
        walls = dict(zip(self.queries, op_ms))
        layers = {"queries_s": sum(op_ms) / 1e3,
                  "query_p50_s": statistics.median(op_ms) / 1e3}
        for name, fn in self.queries.items():
            key = f"ops.{fn.__module__.rsplit('.', 1)[1]}_s"
            layers[key] = layers.get(key, 0.0) + walls[name] / 1e3
        for name in HEAVY_QUERIES:
            layers[f"q.{name}_s"] = walls.get(name, 0.0) / 1e3
        return Round(work_s=sum(op_ms) / 1e3, op_ms=op_ms,
                     attempted=len(op_ms), failed=failed,
                     outputs=outputs, layers=layers)

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        for r in rounds:
            problems += self._sql_problems(r.outputs)
            problems += self._rows_only_problems(r.outputs)
        return problems

    def _sql_problems(self, outputs: dict) -> list[str]:
        import duckdb

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{DATA / t}.parquet')")
        problems = []
        for name, sql in self.sql.items():
            if name in outputs:
                problems += checks.frame_problems(name, outputs[name], con.execute(sql).df())
        con.close()
        return problems

    def _rows_only_problems(self, outputs: dict) -> list[str]:
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle import (
            downstream_oracle as do,
        )
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
            dedup,
            similarity,
        )
        from distributed_web_search_engine_crawler_indexing_pagerank__ray.sources.synthetic_web import (
            CrawlParams,
            WebConfig,
        )

        problems = []
        if {"crawl_conformance", "crawl_pages", "search_index",
                "search_pagerank", "search_tfidf"} & set(outputs):
            g = CORPUS_GEOMETRY
            texts = tuple(load_texts()[:2000])
            oracle = run_oracle(
                WebConfig(n_docs=g["n_docs"], n_hosts=g["n_hosts"], texts=texts),
                CrawlParams(target_pages=g["target_pages"],
                            max_waves=g["max_waves"], n_seeds=g["n_seeds"]),
            )
            expected = checks.crawl_expected(oracle)
            if "crawl_conformance" in outputs:
                row = outputs["crawl_conformance"].iloc[0].to_dict()
                problems += checks.crawl_problems(row, expected)
            if "crawl_pages" in outputs:
                got = set(outputs["crawl_pages"]["url_hash"])
                if got != set(oracle.crawl) or len(outputs["crawl_pages"]) != len(got):
                    problems.append("crawl_pages: pages differ from the crawl oracle's")
            index = do.build_index_oracle(oracle.crawl)
            # the search_* queries join postings into one string and
            # round scores to 8 digits
            if "search_index" in outputs:
                got = {r["word"]: {"postings": r["postings"], "count": r["cnt"],
                                   "full": r["full"]}
                       for r in outputs["search_index"].to_dict("records")}
                want = {w: dict(e, postings=",".join(e["postings"]))
                        for w, e in index.items()}
                problems += checks.index_problems(got, want)
            if "search_pagerank" in outputs:
                problems += checks.pagerank_problems(
                    pa.Table.from_pandas(outputs["search_pagerank"]),
                    do.pagerank_oracle(oracle.crawl), do.DAMPING, abs_tol=ROUNDED)
            if "search_tfidf" in outputs:
                problems += checks.tfidf_problems(
                    pa.Table.from_pandas(outputs["search_tfidf"]),
                    do.tfidf_oracle(oracle.crawl, index), abs_tol=ROUNDED)
        emb_tbl = pq.read_table(DATA / "embeddings.parquet", columns=["vec_id", "embedding"])
        ids = emb_tbl["vec_id"].to_numpy()
        emb = dict(zip(ids.tolist(), (np.asarray(e) for e in emb_tbl["embedding"].to_pylist())))
        exact = outputs.get("knn_bruteforce")
        if "kmeans_embeddings" in outputs:
            problems += checks.kmeans_problems(outputs["kmeans_embeddings"], ids,
                                               similarity.KMEANS_K)
        if "dedup_semantic" in outputs:
            problems += checks.dedup_semantic_problems(outputs["dedup_semantic"], emb,
                                                       dedup.COSINE_THRESHOLD)
        if exact is not None:
            if "knn_ivf" in outputs:
                problems += checks.knn_ivf_problems(outputs["knn_ivf"], exact, emb,
                                                    similarity.TOP_K)
            if "knn_ivf" in outputs and "knn_ivf_recall" in outputs:
                problems += checks.ivf_recall_problems(outputs["knn_ivf_recall"],
                                                       exact, outputs["knn_ivf"])
            if "mmr_diversify" in outputs:
                problems += checks.mmr_problems(outputs["mmr_diversify"], exact,
                                                similarity.MMR_SELECT)
        return problems


def make(name: str, seed: int, size: str, work: Path, trace: bool) -> Workload:
    cls = {"crawl": CrawlWorkload, "search": SearchWorkload,
           "operators": OperatorsWorkload}[name]
    return cls(seed, size, work, trace)
