"""Each correctness check passes the oracle's own output and fails a
deliberately wrong one: a dropped page, a perturbed rank, a changed row."""

from __future__ import annotations

import copy

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.hasher import (
    xor_fingerprint_pairs,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle import (
    downstream_oracle as do,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle.crawl_oracle import (
    CrawlOracle,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.sources.synthetic_web import (
    CrawlParams,
    SyntheticWeb,
    WebConfig,
)
from perfbench import checks


@pytest.fixture(scope="module")
def oracle():
    o = CrawlOracle(SyntheticWeb(WebConfig(n_docs=180, n_hosts=8, paragraphs=4)),
                    CrawlParams(target_pages=60, max_waves=8, n_seeds=5))
    o.run()
    return o


@pytest.fixture(scope="module")
def index(oracle):
    return do.build_index_oracle(oracle.crawl)


def test_scalar_fingerprints_match_the_engine_helper(oracle):
    row = checks.crawl_expected(oracle)["row"]
    want = xor_fingerprint_pairs(oracle.visited.keys(), oracle.visited.values())
    assert row["visited_fp"] == f"{want:016x}"


def test_crawl_check(oracle):
    expected = checks.crawl_expected(oracle)
    row, waves = dict(expected["row"]), copy.deepcopy(expected["waves"])
    assert checks.crawl_problems(row, expected, waves) == []

    dropped = dict(oracle.crawl)
    dropped.pop(next(iter(dropped)))
    short = copy.copy(oracle)
    short.crawl = dropped
    row_short = checks.crawl_expected(short)["row"]
    problems = checks.crawl_problems(row_short, expected)
    assert any("pages" in p for p in problems)
    assert any("spans_fp" in p for p in problems)

    waves[-1]["fetched"] -= 1
    assert checks.crawl_problems(row, expected, waves)


def test_index_check(index):
    got = copy.deepcopy(index)
    assert checks.index_problems(got, index) == []
    word = next(w for w, e in got.items() if len(e["postings"]) > 1)
    got[word]["postings"].pop()
    assert checks.index_problems(got, index)


def _table(rows: dict[str, dict], key: str) -> pa.Table:
    return pa.Table.from_pylist([dict(r, **{key: k}) for k, r in rows.items()])


def test_pagerank_check(oracle):
    ranks = do.pagerank_oracle(oracle.crawl)
    assert checks.pagerank_problems(_table(ranks, "url_hash"), ranks, do.DAMPING) == []

    perturbed = copy.deepcopy(ranks)
    h = next(iter(perturbed))
    perturbed[h]["pagerank"] *= 1 + 1e-6
    assert checks.pagerank_problems(_table(perturbed, "url_hash"), ranks, do.DAMPING)

    tbl = _table(ranks, "url_hash")
    assert checks.pagerank_problems(pa.concat_tables([tbl, tbl.slice(0, 1)]),
                                    ranks, do.DAMPING)

    # ranks that match a scaled oracle still break the bounds
    low = {k: dict(r, pagerank=r["pagerank"] * 0.1) for k, r in ranks.items()}
    problems = checks.pagerank_problems(_table(low, "url_hash"), low, do.DAMPING)
    assert any("sum" in p for p in problems)


def test_tfidf_check(oracle, index):
    tfidf = do.tfidf_oracle(oracle.crawl, index)
    assert checks.tfidf_problems(_table(tfidf, "key"), tfidf) == []

    changed = copy.deepcopy(tfidf)
    k = next(iter(changed))
    changed[k]["tfidf"] *= 1 + 1e-9
    assert checks.tfidf_problems(_table(changed, "key"), tfidf)

    dropped = dict(tfidf)
    dropped.pop(k)
    assert checks.tfidf_problems(_table(dropped, "key"), tfidf)


def test_results_check(oracle, index):
    tfidf = do.tfidf_oracle(oracle.crawl, index)
    ranks = do.pagerank_oracle(oracle.crawl)
    word = next(w for w, e in index.items() if len(e["postings"]) > 1)
    want = {word: [r["url"] for r in do.query_oracle(word, index, tfidf, ranks)]}
    assert checks.results_problems(copy.deepcopy(want), want) == []
    swapped = {word: want[word][::-1]}
    assert checks.results_problems(swapped, want)


def test_frame_check():
    want = pd.DataFrame({"k": [1, 2, 3], "v": [0.1, 0.2, 0.3], "s": ["a", "b", "c"]})
    got = want.sample(frac=1, random_state=0)[["v", "s", "k"]]
    got["v"] += 1e-9
    assert checks.frame_problems("q", got, want) == []
    changed = want.copy()
    changed.loc[1, "s"] = "x"
    assert checks.frame_problems("q", changed, want)
    assert checks.frame_problems("q", want.iloc[:2], want)


def _embeddings(n: int = 40, dim: int = 8) -> dict[int, np.ndarray]:
    rng = np.random.default_rng(0)
    return {i: rng.normal(size=dim) for i in range(n)}


def _cos(emb, a, b) -> float:
    x, y = emb[a], emb[b]
    return round(float(x @ y / np.linalg.norm(x) / np.linalg.norm(y)), 4)


def test_kmeans_check():
    ids = np.arange(40)
    df = pd.DataFrame({"cluster": [0, 1], "n_vecs": [25, 15],
                       "id_sum": [int(ids[:25].sum()), int(ids[25:].sum())]})
    assert checks.kmeans_problems(df, ids, 8) == []
    moved = df.copy()
    moved.loc[0, "id_sum"] -= 1
    assert checks.kmeans_problems(moved, ids, 8)


def test_dedup_semantic_check():
    emb = _embeddings()
    pairs = [(a, b) for a in range(40) for b in range(a + 1, 40)]
    df = pd.DataFrame([(a, b, _cos(emb, a, b)) for a, b in pairs],
                      columns=["vec_a", "vec_b", "cos"])
    df = df[df["cos"] >= 0.35].reset_index(drop=True)
    assert len(df) > 1
    assert checks.dedup_semantic_problems(df, emb, 0.35) == []
    wrong = df.copy()
    wrong.loc[0, "cos"] += 0.01
    assert checks.dedup_semantic_problems(wrong, emb, 0.35)


def _topk(emb, q, k, ids):
    rows = sorted(((_cos(emb, q, v), v) for v in ids), key=lambda t: (-t[0], t[1]))[:k]
    return pd.DataFrame([(q, v, c) for c, v in rows], columns=["query_id", "vec_id", "cos"])


def test_knn_ivf_and_recall_checks():
    emb = _embeddings()
    exact = pd.concat([_topk(emb, q, 5, range(40)) for q in range(3)], ignore_index=True)
    ivf = pd.concat([_topk(emb, q, 5, range(0, 40, 2)) for q in range(3)],
                    ignore_index=True)
    assert checks.knn_ivf_problems(ivf, exact, emb, 5) == []
    # an approximate list that beats the exact one cannot be right
    lowered = exact.copy()
    lowered.loc[lowered["query_id"] == 0, "cos"] -= 0.5
    assert checks.knn_ivf_problems(ivf, lowered, emb, 5)
    wrong = ivf.copy()
    wrong.loc[1, "cos"] = 1.0
    assert checks.knn_ivf_problems(wrong, exact, emb, 5)

    hits = len(set(zip(exact.query_id, exact.vec_id)) & set(zip(ivf.query_id, ivf.vec_id)))
    row = pd.DataFrame({"n_queries": [3], "top_k": [5], "n_expected": [15],
                        "n_hits": [hits], "recall": [round(hits / 15, 6)]})
    assert checks.ivf_recall_problems(row, exact, ivf) == []
    row.loc[0, "n_hits"] += 1
    assert checks.ivf_recall_problems(row, exact, ivf)


def test_mmr_check():
    emb = _embeddings()
    pool = _topk(emb, 0, 10, range(40))
    best = pool.sort_values(["cos", "vec_id"], ascending=[False, True])
    picks = pd.DataFrame({"query_id": 0, "vec_id": best["vec_id"].iloc[[0, 3, 5]].to_numpy(),
                          "rank": [0, 1, 2]})
    assert checks.mmr_problems(picks, pool, 5) == []
    outside = picks.copy()
    outside.loc[2, "vec_id"] = next(v for v in range(40) if v not in set(pool.vec_id))
    assert checks.mmr_problems(outside, pool, 5)
    late_best = picks.copy()
    late_best["vec_id"] = picks["vec_id"].to_numpy()[::-1]
    assert checks.mmr_problems(late_best, pool, 5)
