"""Job-level resume for the downstream jobs (SURVEY §2.4 I6, §2.5 P9,
§2.6 T6).

Reference behavior: every downstream job checkpoints progress and skips
already-done work on restart — the Indexer keeps a progress marker and
re-enters where it stopped (``ref/src/jobs/Indexer.java:23-55,248-288``),
PageRank stages its rank state so a restart continues from the last
superstep (``ref/src/jobs/PageRank.java:33-107,417-450``), and TfIdf
resumes its scoring scan (``ref/src/jobs/TfIdf.java:30-34,104-111,
254-270``).

Ray-native formulation (reusing the crawl's manifest/atomic-rename
pattern, ``pipelines/crawl.py``): the crawl's pages table is already
partitioned by wave (``wave=K/`` parquet dirs).  The map phase of each
job runs PER PARTITION and lands its partial output atomically at
``<ckpt>/<stage>/wave=K`` (write to a temp dir, ``os.replace``), so a
restart anti-joins the partition list against the done set (directory
presence == done marker — rename is atomic, a crashed partition leaves
only a temp dir) and processes the missing partitions only.  The
reduce phase (the index's combiner, the tf-idf global sort) re-runs
on the driver from the checkpointed partials — orders of magnitude
cheaper than re-parsing the HTML.  PageRank additionally checkpoints
(iteration, ranks, residual) after every round and restarts
mid-iteration-sequence.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from .index import INDEX_SCHEMA, PAIRS_SCHEMA, index_map, reduce_index
from .pagerank import (
    CONVERGENCE,
    DAMPING,
    MAX_ITERATIONS,
    PAGERANK_SCHEMA,
    _graph_batch,
    run_pagerank,
)
from .tfidf import TFIDF_SCHEMA, make_scorer


def _partitions(pages_dir: str) -> list[str]:
    """The stable partition list = the crawl's wave directories."""
    return sorted(
        d for d in os.listdir(pages_dir)
        if d.startswith("wave=") and os.path.isdir(os.path.join(pages_dir, d))
    )


def _done(stage_dir: str) -> set[str]:
    if not os.path.isdir(stage_dir):
        return set()
    return {d for d in os.listdir(stage_dir) if not d.endswith(".tmp")}


def _write_atomic(tbl: pa.Table, dest: str, meta: dict | None = None) -> None:
    tmp = dest + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    pq.write_table(tbl, os.path.join(tmp, "part-0.parquet"))
    if meta is not None:
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
    if os.path.isdir(dest):  # overwrite (ranks state): the crawl's swap
        old = dest + ".old"
        if os.path.isdir(old):
            shutil.rmtree(old)
        os.replace(dest, old)
        os.replace(tmp, dest)
        shutil.rmtree(old)
    else:
        os.replace(tmp, dest)


def _read_stage(stage_dir: str, parts: list[str]) -> pa.Table:
    tables = [
        pq.read_table(os.path.join(stage_dir, p, "part-0.parquet"))
        for p in parts
    ]
    return pa.concat_tables(tables) if tables else None


def _winners(pages_dir: str, parts: list[str]):
    """Last-write-wins dedup map over the immutable pages table: a
    url_hash re-fetched in a later wave supersedes the earlier row (KVS
    putRow overwrite semantics — ``crawl.py:pages_table``).  Column-
    pruned read of (url_hash, wave) only; returns sorted key array +
    winning wave per key (shared zero-copy via ``ray.put``) and the
    deduped doc count N.  Deterministic across runs because the crawl
    output is immutable once the downstream job starts."""
    tables = [
        pq.read_table(os.path.join(pages_dir, p), columns=["url_hash", "wave"])
        for p in parts
    ]
    t = pa.concat_tables(tables)
    if t.num_rows == 0:
        return np.zeros(0, dtype=object), np.zeros(0, np.int64), 0
    keys = t["url_hash"].to_numpy(zero_copy_only=False)
    waves = t["wave"].to_numpy().astype(np.int64)
    order = np.lexsort((waves, keys))
    k, w = keys[order], waves[order]
    last = np.r_[k[1:] != k[:-1], True]  # last (= max wave) per key
    return k[last], w[last], int(last.sum())


def _winner_filter(wkeys_ref, wwave_ref):
    """Per-batch filter keeping only winning (url_hash, wave) rows."""

    def fn(t: pa.Table) -> pa.Table:
        wk = ray.get(wkeys_ref)
        ww = ray.get(wwave_ref)
        h = t["url_hash"].to_numpy(zero_copy_only=False)
        wv = t["wave"].to_numpy().astype(np.int64)
        pos = np.searchsorted(wk, h)
        keep = ww[pos] == wv
        return t.filter(pa.array(keep))

    return fn


# -- I6: resumable Indexer ---------------------------------------------------


def build_index_resumable(pages_dir: str, ckpt_dir: str,
                          max_partitions: int | None = None) -> pa.Table | None:
    """Index over a partitioned pages table with per-partition resume.

    ``max_partitions`` bounds how many NOT-yet-done partitions this run
    processes (the kill-and-resume tests use it to simulate a crash);
    returns None if the map phase is still incomplete after the bound.
    """
    pairs_dir = os.path.join(ckpt_dir, "pairs")
    parts = _partitions(pages_dir)
    wkeys, wwave, n = _winners(pages_dir, parts)
    wkeys_ref, wwave_ref = ray.put(wkeys), ray.put(wwave)
    keep = _winner_filter(wkeys_ref, wwave_ref)
    todo = [p for p in parts if p not in _done(pairs_dir)]
    if max_partitions is not None:
        todo = todo[:max_partitions]
    for p in todo:
        ds = ray.data.read_parquet(
            os.path.join(pages_dir, p),
            columns=["url", "url_hash", "wave", "page"],
        )
        batches = list(
            ds.map_batches(keep, batch_format="pyarrow")
            .map_batches(index_map, fn_kwargs={"n": n}, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
        _write_atomic(
            pa.concat_tables([PAIRS_SCHEMA.empty_table(), *batches]),
            os.path.join(pairs_dir, p),
        )
    if set(_done(pairs_dir)) < set(parts):
        return None  # map phase incomplete (simulated crash)
    all_pairs = _read_stage(pairs_dir, parts)
    if all_pairs is None:
        return INDEX_SCHEMA.empty_table()
    return reduce_index(all_pairs, n)


# -- T6: resumable TfIdf -----------------------------------------------------


def run_tfidf_resumable(pages_dir: str, index_tbl: pa.Table, ckpt_dir: str,
                        max_partitions: int | None = None) -> pa.Table | None:
    """TF-IDF with per-partition resume (scores are per-doc, so each
    partition's output is final the moment it lands)."""
    out_dir = os.path.join(ckpt_dir, "tfidf")
    parts = _partitions(pages_dir)
    wkeys, wwave, n = _winners(pages_dir, parts)
    wkeys_ref, wwave_ref = ray.put(wkeys), ray.put(wwave)
    keep = _winner_filter(wkeys_ref, wwave_ref)
    score = make_scorer(index_tbl, n)
    todo = [p for p in parts if p not in _done(out_dir)]
    if max_partitions is not None:
        todo = todo[:max_partitions]
    for p in todo:
        ds = ray.data.read_parquet(
            os.path.join(pages_dir, p),
            columns=["url", "page", "url_hash", "wave"],
        )
        batches = list(
            ds.map_batches(keep, batch_format="pyarrow")
            .map_batches(score, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
        tbl = (
            pa.concat_tables(batches).cast(TFIDF_SCHEMA)
            if batches
            else TFIDF_SCHEMA.empty_table()
        )
        _write_atomic(tbl, os.path.join(out_dir, p))
    if set(_done(out_dir)) < set(parts):
        return None
    out = _read_stage(out_dir, parts)
    if out is None:
        return TFIDF_SCHEMA.empty_table()
    return out.cast(TFIDF_SCHEMA).sort_by("key")


# -- P9: resumable PageRank --------------------------------------------------


def run_pagerank_resumable(pages_dir: str, ckpt_dir: str,
                           damping: float = DAMPING,
                           max_iterations: int = MAX_ITERATIONS,
                           convergence: float = CONVERGENCE,
                           max_iterations_this_run: int | None = None,
                           max_partitions: int | None = None) -> pa.Table | None:
    """PageRank with (a) per-partition graph-build resume and (b)
    per-iteration rank checkpoints.

    ``max_partitions`` / ``max_iterations_this_run`` simulate crashes
    in the two stages; returns None while incomplete."""
    graph_dir = os.path.join(ckpt_dir, "graph")
    ranks_dir = os.path.join(ckpt_dir, "ranks")
    parts = _partitions(pages_dir)
    wkeys, wwave, _n = _winners(pages_dir, parts)
    wkeys_ref, wwave_ref = ray.put(wkeys), ray.put(wwave)
    keep = _winner_filter(wkeys_ref, wwave_ref)

    # stage 1: graph build, per partition
    todo = [p for p in parts if p not in _done(graph_dir)]
    if max_partitions is not None:
        todo = todo[:max_partitions]
    for p in todo:
        ds = ray.data.read_parquet(
            os.path.join(pages_dir, p),
            columns=["url", "url_hash", "page", "wave"],
        )
        batches = list(
            ds.map_batches(keep, batch_format="pyarrow")
            .map_batches(_graph_batch, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
        tbl = (
            pa.concat_tables(batches)
            if batches
            else pa.schema(
                [("url_hash", pa.string()), ("url", pa.string()),
                 ("title", pa.string()), ("snippet", pa.string()),
                 ("dests", pa.list_(pa.string()))]
            ).empty_table()
        )
        _write_atomic(tbl, os.path.join(graph_dir, p))
    if set(_done(graph_dir)) < set(parts):
        return None
    graph_tbl = _read_stage(graph_dir, parts)
    if graph_tbl is None or graph_tbl.num_rows == 0:
        return PAGERANK_SCHEMA.empty_table()
    graph = ray.data.from_arrow(graph_tbl).materialize()

    # stage 2: iterations with rank checkpoints (kept sorted by vertex
    # key so a resume re-aligns by searchsorted regardless of ordering)
    start_iter, init_ranks = 0, None
    state_path = os.path.join(ranks_dir, "latest")
    if os.path.isdir(state_path):
        st = pq.read_table(os.path.join(state_path, "part-0.parquet"))
        with open(os.path.join(state_path, "meta.json")) as f:
            meta = json.load(f)
        if meta["residual"] >= 0 and meta["residual"] < convergence:
            final = np.asarray(st["rank"].to_numpy())
            keys = st["key"].to_numpy(zero_copy_only=False)
            return _project_from(graph, keys, final)
        start_iter = meta["iteration"] + 1
        # re-align saved ranks to this run's vertex order
        from .pagerank import _vertex_keys

        vkeys = _vertex_keys(graph)
        saved_keys = st["key"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(saved_keys, vkeys)
        init_ranks = np.asarray(st["rank"].to_numpy())[pos]

    from .pagerank import _vertex_keys

    vkeys = _vertex_keys(graph)
    budget = {"left": max_iterations_this_run}

    class _Stop(Exception):
        pass

    def save(i: int, ranks: np.ndarray, residual: float) -> None:
        _write_atomic(
            pa.table({"key": pa.array(list(vkeys), pa.string()),
                      "rank": pa.array(ranks, pa.float64())}),
            state_path,
            {"iteration": i, "residual": residual},
        )
        if budget["left"] is not None:
            budget["left"] -= 1
            if budget["left"] <= 0 and residual >= convergence:
                raise _Stop()

    try:
        return run_pagerank(
            None, damping=damping, max_iterations=max_iterations,
            convergence=convergence, init_ranks=init_ranks,
            start_iteration=start_iter, on_iteration=save, graph=graph,
        )
    except _Stop:
        return None  # simulated crash mid-iteration-sequence


def _project_from(graph, keys: np.ndarray, ranks: np.ndarray) -> pa.Table:
    from .pagerank import _project_ranks

    order = np.argsort(keys)
    return _project_ranks(graph, ray.put(keys[order]), ranks[order])


def tfidf_completion(pages_dir: str, ckpt_dir: str) -> float:
    """Completion ratio of an in-flight resumable TfIdf build — the Q6
    ``tfIdfCompletion`` source (``ResultPageHandler.java:77-80``; the
    reference reads it from its TfIdfStatus progress row,
    ``KVSStorage.java:367``).  1.0 when finished or never started with
    no partitions."""
    parts = _partitions(pages_dir)
    if not parts:
        return 1.0
    done = _done(os.path.join(ckpt_dir, "tfidf")) & set(parts)
    return len(done) / len(parts)
