"""Correctness checks: the engine's outputs against computations made
apart from it (the single-threaded oracles, DuckDB) or against
properties the method must have.

Every check returns a list of problems; an empty list means the output
is correct.  The checks take plain tables and dicts, so the tests feed
them deliberately wrong outputs.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd

# -- crawl ------------------------------------------------------------------

WAVE_COUNTS = ("attempted", "fetched", "throttled", "visited_added", "enqueued")


def _fold_md5(strings) -> str:
    """XOR of the top 64 bits of md5 over ``strings``, as 16 hex digits."""
    fp = 0
    for s in strings:
        fp ^= int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")
    return f"{fp:016x}"


def crawl_expected(oracle) -> dict:
    """The conformance row and per-wave counts of a finished
    ``CrawlOracle``, fingerprints re-derived here in scalar code."""
    spans = (
        key + "|" + ";".join(
            f"{sp['kind']}\x1f{sp['text']}\x1f{sp['media_ref']}\x1f{sp['offset']}"
            for sp in row["spans"]
        )
        for key, row in oracle.crawl.items()
    )
    return {
        "row": {
            "pages": len(oracle.crawl),
            "waves": len(oracle.waves),
            "visited": len(oracle.visited),
            "queue": len(oracle.queue),
            "visited_fp": _fold_md5(f"{h}|{u}" for h, u in oracle.visited.items()),
            "queue_fp": _fold_md5(f"{h}|{u}" for h, u in oracle.queue.items()),
            "spans_fp": _fold_md5(spans),
        },
        "waves": [
            {
                "attempted": len(w.attempted),
                "fetched": len(w.fetched),
                "throttled": len(w.throttled),
                "visited_added": len(w.visited_added),
                "enqueued": len(w.enqueued),
            }
            for w in oracle.waves
        ],
    }


def crawl_problems(row: dict, expected: dict,
                   waves: list[dict] | None = None) -> list[str]:
    """``row``: ``CrawlEngine.conformance_row()``; ``waves``, when
    given: the engine's per-wave stats."""
    out = [
        f"crawl {k}: engine {row.get(k)!r}, oracle {v!r}"
        for k, v in expected["row"].items()
        if row.get(k) != v
    ]
    if waves is None:
        return out
    got = [{k: w.get(k) for k in WAVE_COUNTS} for w in waves]
    if got != expected["waves"]:
        out.append(f"crawl wave counts: engine {got}, oracle {expected['waves']}")
    return out


# -- downstream jobs ----------------------------------------------------------


def index_rows(index_tbl) -> dict[str, dict]:
    """A ``build_index`` table as word → {postings, count, full}."""
    return {
        r["word"]: {"postings": r["postings"], "count": r["count"], "full": r["full"]}
        for r in index_tbl.to_pylist()
    }


def index_problems(got: dict[str, dict], expected: dict[str, dict]) -> list[str]:
    """``got``: the engine's index as word → {postings, count, full};
    ``expected``: ``build_index_oracle``'s."""
    if got == expected:
        return []
    missing = sorted(set(expected) - set(got))[:5]
    extra = sorted(set(got) - set(expected))[:5]
    differ = sorted(w for w in set(got) & set(expected) if got[w] != expected[w])
    return [
        f"index differs from build_index_oracle: {len(differ)} words differ "
        f"(e.g. {differ[:5]}), missing {missing}, extra {extra}"
    ]


def pagerank_problems(pr_tbl, expected: dict[str, dict], damping: float,
                      rel_tol: float = 1e-9, abs_tol: float = 0.0) -> list[str]:
    """``pr_tbl``: the ``run_pagerank`` table; ``expected``:
    ``pagerank_oracle``'s url_hash → {url, title, snippet, pagerank}.
    Also checks the bounds every PageRank must meet: each rank is at
    least (1-d)/N and the ranks sum to between 1-d and 1.  ``abs_tol``
    allows for ranks the output has rounded."""
    out = []
    rows = pr_tbl.to_pylist()
    keys = [r["url_hash"] for r in rows]
    if len(set(keys)) != len(keys):
        out.append(f"pagerank: {len(keys) - len(set(keys))} duplicate url_hash rows")
    got = {r["url_hash"]: r for r in rows}
    if set(got) != set(expected):
        out.append(
            f"pagerank vertices: engine {len(got)}, oracle {len(expected)}, "
            f"{len(set(got) ^ set(expected))} differ"
        )
    bad = [
        h for h in set(got) & set(expected)
        if not math.isclose(got[h]["pagerank"], expected[h]["pagerank"],
                            rel_tol=rel_tol, abs_tol=abs_tol)
        or any(got[h][k] != expected[h][k] for k in ("url", "title", "snippet"))
    ]
    if bad:
        h = sorted(bad)[0]
        out.append(
            f"pagerank: {len(bad)} rows differ from pagerank_oracle, e.g. {h}: "
            f"{got[h]['pagerank']!r} vs {expected[h]['pagerank']!r}"
        )
    n = len(rows)
    if n:
        ranks = [r["pagerank"] for r in rows]
        floor = (1.0 - damping) / n
        if min(ranks) < floor * (1 - 1e-12) - abs_tol:
            out.append(f"pagerank: min rank {min(ranks)!r} below (1-d)/N = {floor!r}")
        total = math.fsum(ranks)
        slack = 1e-9 + n * abs_tol
        if not (1.0 - damping) - slack <= total <= 1.0 + slack:
            out.append(f"pagerank: ranks sum to {total!r}, outside [1-d, 1]")
    return out


def tfidf_problems(tf_tbl, expected: dict[str, dict],
                   rel_tol: float = 1e-12, abs_tol: float = 0.0) -> list[str]:
    """``tf_tbl``: the ``run_tfidf`` table; ``expected``:
    ``tfidf_oracle``'s key → {word, url, tf, idf, tfidf}."""
    got = {r["key"]: r for r in tf_tbl.to_pylist()}
    out = []
    if len(got) != tf_tbl.num_rows:
        out.append(f"tfidf: {tf_tbl.num_rows - len(got)} duplicate keys")
    if set(got) != set(expected):
        out.append(
            f"tfidf keys: engine {len(got)}, oracle {len(expected)}, "
            f"{len(set(got) ^ set(expected))} differ"
        )
    bad = [
        k for k in set(got) & set(expected)
        if got[k]["word"] != expected[k]["word"]
        or got[k]["url"] != expected[k]["url"]
        or not all(
            math.isclose(got[k][c], expected[k][c], rel_tol=rel_tol, abs_tol=abs_tol)
            for c in ("tf", "idf", "tfidf")
        )
    ]
    if bad:
        out.append(f"tfidf: {len(bad)} rows differ from tfidf_oracle, e.g. {sorted(bad)[0]}")
    return out


def results_problems(served: dict[str, list[str]],
                     expected: dict[str, list[str]]) -> list[str]:
    """URL lists served per query against ``query_oracle``'s."""
    bad = sorted(q for q in served if served[q] != expected.get(q))
    if not bad:
        return []
    q = bad[0]
    return [
        f"search: {len(bad)} of {len(served)} queries differ from query_oracle, "
        f"e.g. {q!r}: {served[q][:3]} vs {(expected.get(q) or [])[:3]}"
    ]


# -- operator queries ---------------------------------------------------------


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def frame_problems(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """A query's output against its DuckDB oracle, compared as
    tests/test_sql_oracles.py does: columns sorted by name, floats
    rounded to 6 digits and compared with ``np.allclose``, rows in
    sorted order, everything else compared as strings."""
    a, b = _norm(got), _norm(want)
    if list(a.columns) != list(b.columns):
        return [f"{name}: columns {list(a.columns)} vs oracle {list(b.columns)}"]
    if len(a) != len(b):
        return [f"{name}: {len(a)} rows vs oracle {len(b)}"]
    for c in a.columns:
        if a[c].dtype.kind == "f":
            same = np.allclose(a[c].to_numpy(), b[c].to_numpy().astype(float),
                               equal_nan=True)
        else:
            same = (a[c].astype(str).to_numpy() == b[c].astype(str).to_numpy()).all()
        if not same:
            return [f"{name}: column {c!r} differs from oracle"]
    return []


def _unit_rows(emb: dict[int, np.ndarray], ids) -> np.ndarray:
    m = np.stack([emb[int(i)] for i in ids]).astype(np.float64)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _cosines_problems(name: str, df: pd.DataFrame, a: str, b: str,
                      emb: dict[int, np.ndarray]) -> list[str]:
    """Each reported (4-digit) cosine equals the cosine of its pair."""
    if df.empty:
        return []
    exact = (_unit_rows(emb, df[a]) * _unit_rows(emb, df[b])).sum(axis=1)
    off = np.abs(exact - df["cos"].to_numpy(np.float64)) > 1e-4 + 1e-9
    if off.any():
        r = df[off].iloc[0]
        return [f"{name}: {int(off.sum())} cosines are wrong, e.g. "
                f"({int(r[a])}, {int(r[b])}) = {r['cos']}"]
    return []


def kmeans_problems(df: pd.DataFrame, vec_ids: np.ndarray, k: int) -> list[str]:
    """k-means clusters partition the vectors: every vector in exactly
    one of at most k clusters (n_vecs and id_sum add up)."""
    out = []
    if df["cluster"].duplicated().any() or not df["cluster"].between(0, k - 1).all():
        out.append(f"kmeans_embeddings: clusters {sorted(df['cluster'])} are not distinct ids < {k}")
    if (df["n_vecs"] < 1).any():
        out.append("kmeans_embeddings: an empty cluster is reported")
    if int(df["n_vecs"].sum()) != len(vec_ids) or int(df["id_sum"].sum()) != int(vec_ids.sum()):
        out.append(
            f"kmeans_embeddings: clusters hold {int(df['n_vecs'].sum())} vectors "
            f"(id sum {int(df['id_sum'].sum())}), the table {len(vec_ids)} "
            f"(id sum {int(vec_ids.sum())})"
        )
    return out


def dedup_semantic_problems(df: pd.DataFrame, emb: dict[int, np.ndarray],
                            threshold: float) -> list[str]:
    """Near-duplicate pairs are ordered, distinct, at or above the
    cosine threshold, and carry their true cosine."""
    out = []
    if (df["vec_a"] >= df["vec_b"]).any():
        out.append("dedup_semantic: a pair has vec_a >= vec_b")
    if df.duplicated(["vec_a", "vec_b"]).any():
        out.append("dedup_semantic: a pair is reported twice")
    if (df["cos"] < threshold).any():
        out.append(f"dedup_semantic: a pair has cosine below {threshold}")
    return out + _cosines_problems("dedup_semantic", df, "vec_a", "vec_b", emb)


def knn_ivf_problems(df: pd.DataFrame, exact: pd.DataFrame,
                     emb: dict[int, np.ndarray], top_k: int) -> list[str]:
    """Approximate neighbours: at most k per query, true cosines, and
    the i-th best never beats the exact i-th best (``exact`` is
    knn_bruteforce's output, itself checked against DuckDB)."""
    out = _cosines_problems("knn_ivf", df, "query_id", "vec_id", emb)
    for q, g in df.groupby("query_id"):
        got = np.sort(g["cos"].to_numpy())[::-1]
        best = np.sort(exact.loc[exact["query_id"] == q, "cos"].to_numpy())[::-1]
        if len(got) > top_k or g["vec_id"].duplicated().any():
            out.append(f"knn_ivf: query {q} has {len(got)} rows or repeats a vector")
        elif len(best) < len(got) or (got > best[: len(got)] + 1e-9).any():
            out.append(f"knn_ivf: query {q} beats the exact top-{top_k}")
    return out


def ivf_recall_problems(df: pd.DataFrame, exact: pd.DataFrame,
                        ivf: pd.DataFrame) -> list[str]:
    """The recall row equals |exact ∩ ivf| / |exact| recomputed from the
    two neighbour lists."""
    want_pairs = set(zip(exact["query_id"], exact["vec_id"]))
    hits = len(want_pairs & set(zip(ivf["query_id"], ivf["vec_id"])))
    r = df.iloc[0]
    got = (int(r["n_expected"]), int(r["n_hits"]), round(float(r["recall"]), 6))
    want = (len(want_pairs), hits, round(hits / len(want_pairs), 6))
    if len(df) != 1 or got != want:
        return [f"knn_ivf_recall: (expected, hits, recall) {got} vs {want}"]
    return []


def mmr_problems(df: pd.DataFrame, pool: pd.DataFrame, select: int) -> list[str]:
    """MMR picks at most ``select`` distinct candidates per query from the
    brute-force pool, ranked 0.., and its first pick is the most
    relevant candidate (nothing is picked yet to diversify against)."""
    out = []
    for q, g in df.groupby("query_id"):
        cand = pool[pool["query_id"] == q].sort_values(
            ["cos", "vec_id"], ascending=[False, True]
        )
        g = g.sort_values("rank")
        if (len(g) > select or g["vec_id"].duplicated().any()
                or list(g["rank"]) != list(range(len(g)))):
            out.append(f"mmr_diversify: query {q} ranks {list(g['rank'])} are malformed")
        elif not set(g["vec_id"]) <= set(cand["vec_id"]):
            out.append(f"mmr_diversify: query {q} picks outside its candidate pool")
        elif len(g) and int(g["vec_id"].iloc[0]) != int(cand["vec_id"].iloc[0]):
            out.append(f"mmr_diversify: query {q} does not start from its best candidate")
    return out
