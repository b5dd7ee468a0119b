"""Training-data pipeline operators over the sf0.001 testdata:
dedup family, ANN search (incl. LSH recall vs brute force), text
analysis, windowed events."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "embeddings", "events", "lineitem", "orders",
              "customer", "part"):
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return c


def _raw_tokens(text: str) -> list[str]:
    """traindata's scalar tokenizer: lowercase, split on non-letters,
    keep non-empty tokens of len<=25, no stopword drop."""
    import re

    return [t for t in re.split(r"[^a-z]+", text.lower()) if t and len(t) <= 25]


def _to_df(res):
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()


def _assert_matches_sql(res, con, sql):
    a = _to_df(res)
    b = con.execute(sql).fetchdf()
    assert len(a) == len(b)
    a = a.reindex(sorted(a.columns), axis=1)
    b = b.reindex(sorted(b.columns), axis=1)
    assert list(a.columns) == list(b.columns)
    for c in a.columns:
        av = np.sort(a[c].to_numpy())
        bv = np.sort(b[c].to_numpy())
        if av.dtype.kind == "f":
            assert np.allclose(av.astype(float), bv.astype(float), atol=1e-9)
        else:
            assert (av == bv).all(), c


def test_dedup_exact_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup

    _assert_matches_sql(dedup.q_dedup_exact(SF), con, dedup.SQL_DEDUP_EXACT)


def test_dedup_minhash_finds_real_near_dups():
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.textstats import (
        jaccard,
        shingles,
    )
    import pyarrow.parquet as pq

    out = _to_df(dedup.q_dedup_minhash(SF))
    texts = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .set_index("doc_id")["text"]
    )
    assert len(out) > 0, "fixture should contain near-duplicate docs"
    for _, r in out.iterrows():
        j = jaccard(shingles(texts[r.doc_a], 5), shingles(texts[r.doc_b], 5))
        assert j >= dedup.JACCARD_THRESHOLD
        assert abs(j - r.jac) < 1e-6  # stored value is round(j, 6)


def test_dedup_ngram_sql_parity(con):
    """Prefix-filtered n-gram Jaccard is EXACT: it must equal the
    DuckDB all-pairs threshold join, pair for pair."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup

    _assert_matches_sql(dedup.q_dedup_ngram(SF), con, dedup.SQL_DEDUP_NGRAM)


def test_dedup_ngram_prefix_recall_property():
    """The recall guarantee of the prefix filter, checked directly:
    brute-force all-pairs Jaccard over the fixture == pipeline output."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.textstats import (
        jaccard,
        shingles,
    )
    import pyarrow.parquet as pq

    docs = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
    )
    sh = {r.doc_id: shingles(r.text or "", dedup.NGRAM_K) for r in docs.itertuples()}
    ids = sorted(sh)
    expect = {
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if (sh[a] or sh[b]) and jaccard(sh[a], sh[b]) >= dedup.NGRAM_THRESHOLD
    }
    out = _to_df(dedup.q_dedup_ngram(SF))
    got = set(zip(out["doc_a"], out["doc_b"]))
    assert got == expect
    assert len(expect) > 0, "fixture should contain near-duplicate docs"


def test_dedup_simhash_pairs_are_close():
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.textstats import (
        hamming64,
        simhash,
    )
    import pyarrow.parquet as pq

    out = _to_df(dedup.q_dedup_simhash(SF))
    texts = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .set_index("doc_id")["text"]
    )
    for _, r in out.iterrows():
        d = hamming64(simhash(texts[r.doc_a]), simhash(texts[r.doc_b]))
        assert d == r.hamming <= dedup.SIMHASH_MAX_HAMMING


def test_dedup_embedding_lsh_finds_planted_duplicates(tmp_path):
    """Hyperplane-LSH embedding dedup (no label-bucket assumption):
    exact duplicate vectors have identical integer signatures, so every
    planted dup pair MUST surface (recall 1.0 on exact dups — the
    deterministic subset of the LSH contract), with cos 1.0; and no
    pair below the threshold may appear."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup

    rng = np.random.default_rng(11)
    dim, n_bg, n_dup = 64, 400, 10
    bg = rng.standard_normal((n_bg, dim))
    m = np.vstack([bg, bg[:n_dup]])  # last n_dup rows duplicate the first
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(m)), pa.int64()),
            "embedding": pa.array(list(m), pa.list_(pa.float64())),
            "label": pa.array(np.zeros(len(m), dtype=np.int64)),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))

    out = _to_df(dedup.q_dedup_embedding_lsh(str(tmp_path)))
    got = set(zip(out["vec_a"], out["vec_b"]))
    for i in range(n_dup):
        assert (i, n_bg + i) in got, f"planted dup pair {i} missed"
    assert (out["cos"] >= dedup.COSINE_THRESHOLD).all()


def test_knn_lsh_recall_on_planted_neighbors(tmp_path):
    """LSH's contract is high recall at low scan on ANGULARLY CLUSTERED
    data (the sf fixture embeddings are near-random, where any sublinear
    ANN's recall necessarily tracks its scanned fraction).  Plant 12
    true near-neighbors per query over a random background: mean recall
    must be ≥ 0.8 while the candidate set stays well below the corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    rng = np.random.default_rng(7)
    dim, n_bg = 64, 3000
    qs = rng.standard_normal((similarity.N_QUERIES, dim))
    rows = [qs]  # first N vec_ids are the query set (q_knn_lsh contract)
    for q in qs:
        rows.append(q[None, :] + 0.35 * rng.standard_normal((12, dim)))
    rows.append(rng.standard_normal((n_bg, dim)))
    m = np.vstack(rows)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(m)), pa.int64()),
            "embedding": pa.array(list(m), pa.list_(pa.float64())),
            "label": pa.array(np.zeros(len(m), dtype=np.int64)),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    sf = str(tmp_path)

    exact = _to_df(similarity.q_knn_bruteforce(sf))
    approx = _to_df(similarity.q_knn_lsh(sf))
    recalls = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g["vec_id"])
        got = set(approx[approx.query_id == qid]["vec_id"])
        recalls.append(len(truth & got) / len(truth))
    assert np.mean(recalls) >= 0.8, recalls


def test_knn_lsh_fixture_sanity():
    """On the near-random fixture the approximate result must still be
    a plausible top-k: right shape, scores consistent with brute force
    where ids overlap, and non-trivial recall."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    exact = _to_df(similarity.q_knn_bruteforce(SF))
    approx = _to_df(similarity.q_knn_lsh(SF))
    assert set(approx.columns) == {"query_id", "vec_id", "cos"}
    assert (approx.groupby("query_id").size() <= similarity.TOP_K).all()
    merged = approx.merge(exact, on=["query_id", "vec_id"], suffixes=("_a", "_e"))
    if len(merged):
        assert np.allclose(merged["cos_a"], merged["cos_e"])
    recalls = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g["vec_id"])
        got = set(approx[approx.query_id == qid]["vec_id"])
        recalls.append(len(truth & got) / len(truth))
    assert np.mean(recalls) >= 0.2, recalls


def test_knn_bruteforce_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    _assert_matches_sql(
        similarity.q_knn_bruteforce(SF), con, similarity.sql_knn_bruteforce()
    )


def test_knn_lsh_sql_parity(con):
    """knn_lsh is HASH-EXACT vs DuckDB: integer-quantized projections
    make buckets, probe sequences and the candidate set pure integer
    arithmetic on both sides (same trick as dedup_embedding_lsh)."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    _assert_matches_sql(similarity.q_knn_lsh(SF), con, similarity.sql_knn_lsh())


def test_window_and_sessionize_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events

    _assert_matches_sql(events.q_window_tumbling(SF), con, events.SQL_WINDOW_TUMBLING)
    _assert_matches_sql(events.q_sessionize(SF), con, events.SQL_SESSIONIZE)


def test_text_stats_match_kernels():
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.textstats import (
        fingerprint,
        lang_id,
    )
    import pyarrow.parquet as pq

    out = _to_df(textpipe.q_text_stats(SF)).set_index("doc_id")
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    # NOTE: the testdata `lang` column is a synthetic label unrelated to
    # the text content (all docs share one English-ish vocabulary), so
    # the check is kernel-consistency, not label agreement.
    for _, r in docs.head(50).iterrows():
        assert out.loc[r.doc_id, "lang"] == lang_id(r.text)
        assert int(out.loc[r.doc_id, "fingerprint"]) == fingerprint(r.text)
    # the heuristic marks this vocabulary overwhelmingly as 'en'/'und'
    assert (out["lang"].isin(["en", "und"])).mean() > 0.8


def test_dedup_clusters_match_union_find():
    """Connected components via label propagation equal a plain
    union-find over the same edge set."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup
    import pyarrow.parquet as pq
    import pyarrow as pa

    out = _to_df(dedup.q_dedup_clusters(SF)).set_index("node")["cluster"]

    near = dedup.q_dedup_ngram(SF)
    if not isinstance(near, pa.Table):
        parts = list(near.iter_batches(batch_format="pyarrow", batch_size=None))
        near = pa.concat_tables(parts)
    texts = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    parent = {int(d): int(d) for d in texts["doc_id"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for _, g in texts.groupby("text"):
        ids = sorted(g["doc_id"])
        for m in ids[1:]:
            union(ids[0], m)
    for a, b in zip(near["doc_a"].to_pylist(), near["doc_b"].to_pylist()):
        union(a, b)
    # canonical min-root per component
    roots = {}
    for n in parent:
        r = find(n)
        roots.setdefault(r, []).append(n)
    expect = {}
    for r, members in roots.items():
        m = min(members)
        for n in members:
            expect[n] = m
    got = {int(n): int(c) for n, c in out.items()}
    assert got == expect
    # fixture has non-trivial clusters
    assert any(c != n for n, c in got.items())


def test_hll_sketch_accuracy():
    """HLL estimate within 5% on known cardinalities; merge = union."""
    import numpy as np
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.sketch import (
        HyperLogLog,
    )

    for n in (100, 5_000, 200_000):
        h = HyperLogLog()
        h.add_many(np.arange(1, n + 1, dtype=np.uint64))
        assert abs(h.estimate() - n) / n < 0.05, (n, h.estimate())
    a = HyperLogLog().add_many(np.arange(1, 10_001, dtype=np.uint64))
    b = HyperLogLog().add_many(np.arange(5_000, 15_001, dtype=np.uint64))
    a.merge(b)
    assert abs(a.estimate() - 15_000) / 15_000 < 0.05


def test_approx_distinct_users_close_to_exact(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events

    approx = events.q_approx_distinct_users(SF).to_pandas().set_index("event_type")
    exact = con.execute(
        "SELECT event_type, count(DISTINCT user_id) AS n FROM events GROUP BY 1"
    ).fetchdf().set_index("event_type")
    for ty in exact.index:
        e, a = exact.loc[ty, "n"], approx.loc[ty, "approx_users"]
        assert abs(a - e) / max(1, e) < 0.05, (ty, e, a)


def test_knn_ivf_recall_on_planted_clusters(tmp_path):
    """IVF's contract: on data with angular structure, the nprobe
    nearest cells hold the true neighbors.  Same planted-neighbor
    fixture as the LSH test: mean recall ≥ 0.9 while scanning a strict
    subset of cells."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    rng = np.random.default_rng(7)
    dim, n_bg = 64, 3000
    qs = rng.standard_normal((similarity.N_QUERIES, dim))
    rows = [qs]
    for q in qs:
        rows.append(q[None, :] + 0.35 * rng.standard_normal((12, dim)))
    rows.append(rng.standard_normal((n_bg, dim)))
    m = np.vstack(rows)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(m)), pa.int64()),
            "embedding": pa.array(list(m), pa.list_(pa.float64())),
            "label": pa.array(np.zeros(len(m), dtype=np.int64)),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    sf = str(tmp_path)

    exact = _to_df(similarity.q_knn_bruteforce(sf))
    approx = _to_df(similarity.q_knn_ivf(sf))
    recalls = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g["vec_id"])
        got = set(approx[approx.query_id == qid]["vec_id"])
        recalls.append(len(truth & got) / len(truth))
    assert np.mean(recalls) >= 0.9, recalls


def test_knn_ivf_flat_sql_parity(con):
    """knn_ivf_flat is HASH-EXACT vs DuckDB: hash-sampled centroids,
    integer-quantized dot-product cell assignment and probing are pure
    integer arithmetic, so the oracle recomputes cells, probes, the
    candidate set and the rounded-cosine top-k bit for bit."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    _assert_matches_sql(
        similarity.q_knn_ivf_flat(SF), con, similarity.sql_knn_ivf_flat()
    )


def test_knn_ivf_fixture_sanity():
    """Shape + score consistency on the near-random sf fixture."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    exact = _to_df(similarity.q_knn_bruteforce(SF))
    approx = _to_df(similarity.q_knn_ivf(SF))
    assert set(approx.columns) == {"query_id", "vec_id", "cos"}
    assert (approx.groupby("query_id").size() <= similarity.TOP_K).all()
    merged = approx.merge(exact, on=["query_id", "vec_id"], suffixes=("_a", "_e"))
    if len(merged):
        assert np.allclose(merged["cos_a"], merged["cos_e"])


def test_latest_per_key_kernel_ties_and_edges():
    """keep_latest's shared reduce kernel: max-ts wins, event_id breaks
    ts ties, single-row and empty inputs survive."""
    import pyarrow as pa

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.events import (
        _latest_per_key,
    )

    ts = pa.array([100, 200, 200, 50], pa.timestamp("us"))
    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "event_id": pa.array([7, 3, 9, 4], pa.int64()),
            "ts": ts,
            "event_type": pa.array(["a", "b", "c", "d"], pa.string()),
            "value": pa.array([0.1, 0.2, 0.3, 0.4], pa.float64()),
        }
    )
    out = _latest_per_key(t)
    got = {r["user_id"]: r["event_id"] for r in out.to_pylist()}
    assert got == {1: 9, 2: 4}  # ts tie at 200 → higher event_id wins
    assert out.schema.field("ts").type == pa.timestamp("us")

    empty = _latest_per_key(t.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema == t.schema


def test_keep_latest_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events

    _assert_matches_sql(events.q_keep_latest(SF), con, events.SQL_KEEP_LATEST)


def test_grouped_quantiles_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events

    _assert_matches_sql(
        events.q_grouped_quantiles(SF), con, events.SQL_GROUPED_QUANTILES
    )


def test_anti_join_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    _assert_matches_sql(relational.q_anti_join(SF), con, relational.SQL_ANTI_JOIN)


def test_grouped_topk_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    _assert_matches_sql(relational.q_grouped_topk(SF), con, relational.SQL_GROUPED_TOPK)


def test_quality_filter_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe

    _assert_matches_sql(
        textpipe.q_quality_filter(SF), con, textpipe.SQL_QUALITY_FILTER
    )


def test_mixture_sample_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe

    _assert_matches_sql(
        textpipe.q_mixture_sample(SF), con, textpipe.SQL_MIXTURE_SAMPLE
    )


def test_range_join_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events

    _assert_matches_sql(events.q_range_join(SF), con, events.SQL_RANGE_JOIN)


def test_window_late_data_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events

    _assert_matches_sql(
        events.q_window_late_data(SF), con, events.SQL_WINDOW_LATE_DATA
    )


def test_top_tokens_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe

    _assert_matches_sql(textpipe.q_top_tokens(SF), con, textpipe.SQL_TOP_TOKENS)


def test_misra_gries_survival_guarantee():
    """Any item with true count > total/(k+1) keeps a counter, for an
    adversarial long-tail stream."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.textpipe import (
        _misra_gries,
    )

    counts = {f"t{i}": 1 for i in range(5000)}
    counts["hot"] = 400
    counts["warm"] = 90
    total = sum(counts.values())
    k = 64
    mg = _misra_gries(counts, k)
    assert len(mg) <= k
    for w, c in counts.items():
        if c > total / (k + 1):
            assert w in mg, (w, c, total / (k + 1))


def test_embedding_stats_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    _assert_matches_sql(
        similarity.q_embedding_stats(SF), con, similarity.SQL_EMBEDDING_STATS
    )


def test_dedup_clusters_duplicate_free_corpus(tmp_path):
    """ADVICE r2: a corpus with NO dup edges (no exact, no n-gram
    near-dup) must yield singleton clusters, not crash on the empty
    Dataset.aggregate (returns None in Ray 2.49)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup

    rng = np.random.default_rng(7)
    words = [f"w{int(x):05d}" for x in rng.integers(0, 99999, size=2000)]
    texts = [
        " ".join(words[i * 40 : (i + 1) * 40]) + f" unique{i}token{i}"
        for i in range(50)
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(50), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        tmp_path / "documents.parquet",
    )
    out = _to_df(dedup.q_dedup_clusters(str(tmp_path)))
    assert len(out) == 50
    assert (out["node"].to_numpy() == out["cluster"].to_numpy()).all()


def test_verify_pairs_idset_blowup_fallback(tmp_path, monkeypatch):
    """VERDICT r2 #6: with a duplicate-dominated corpus and the driver
    id cap forced to 0, verification must run WITHOUT the driver id
    materialization (full bucketed-join mode) and produce the identical
    pair set as broadcast mode."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import dedup

    base = ("the quick brown fox jumps over the lazy dog again and "
            "again because repetition dominates this corpus entirely")
    texts = [base + (" tail" if i % 2 else "") for i in range(40)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        tmp_path / "documents.parquet",
    )
    small = _to_df(dedup.q_dedup_minhash(str(tmp_path)))
    monkeypatch.setattr(dedup, "DEDUP_IDSET_DRIVER_MAX", 0)
    large = _to_df(dedup.q_dedup_minhash(str(tmp_path)))
    key = ["doc_a", "doc_b"]
    assert small.sort_values(key).reset_index(drop=True).equals(
        large.sort_values(key).reset_index(drop=True)
    )
    assert len(small) > 100  # duplicate-dominated indeed


def test_hll_small_p_and_mismatched_blob():
    """ADVICE r2: estimate() must not raise for p < 12 (the dyadic
    scale follows the max representable rank), and from_bytes must
    reject a register blob whose length mismatches p."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.sketch import (
        HyperLogLog,
    )

    h = HyperLogLog(p=8).add_many(np.arange(1, 50_001, dtype=np.uint64))
    est = h.estimate()
    assert abs(est - 50_000) / 50_000 < 0.25  # ~1.04/sqrt(256) ≈ 6.5 %
    # p=12 default unchanged (the SQL oracle's constant 53 still holds)
    h12 = HyperLogLog().add_many(np.arange(1, 50_001, dtype=np.uint64))
    assert abs(h12.estimate() - 50_000) / 50_000 < 0.05
    with pytest.raises(ValueError):
        HyperLogLog.from_bytes(h.to_bytes(), p=12)


# -- round-3 training-data curation additions ---------------------------------


def test_contamination_planted(tmp_path):
    """A doc that copies a benchmark doc's text must rank as maximally
    contaminated; an all-unique doc must report zero overlap."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        traindata,
    )

    bench_text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    copy_text = bench_text + " lambda mu"  # shares all benchmark 5-grams
    unique_text = "one two three four five six seven eight nine ten"
    pq.write_table(
        pa.table(
            {
                # doc 0 is the benchmark member (0 % 97 == 0)
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    [bench_text, copy_text, unique_text], pa.string()
                ),
            }
        ),
        tmp_path / "documents.parquet",
    )
    df = _to_df(traindata.q_contamination_check(str(tmp_path)))
    df = df.set_index("doc_id")
    assert 0 not in df.index  # benchmark docs excluded from the report
    # copy doc: 8 grams total, the 6 benchmark grams contaminated
    assert df.loc[1, "n_grams"] == 8
    assert df.loc[1, "n_contaminated"] == 6
    assert df.loc[2, "n_contaminated"] == 0
    assert df.index[0] == 1  # sorted most-contaminated first


def test_moving_average_bruteforce(tmp_path):
    """q_moving_average vs a row-at-a-time pandas reference on a frame
    with ts ties (tie broken by event_id) and users with < window rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        events as ev,
    )

    rng = np.random.default_rng(7)
    n = 400
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 37, n).astype(np.int64),
            "ts": pd.to_datetime("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 50, n), unit="h"),
            "value": np.round(rng.uniform(0.01, 500.0, n), 2),
        }
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "events.parquet")

    out = _to_df(ev.q_moving_average(str(tmp_path))).set_index("user_id")

    ref = df.sort_values(["user_id", "ts", "event_id"])
    ref["v"] = np.floor(ref["value"].to_numpy() * 1e6 + 0.5).astype(np.int64)
    for uid, g in ref.groupby("user_id"):
        v = g["v"].to_numpy()
        w = min(ev.MA_WINDOW, len(v))
        expect = np.floor(v[-w:].sum() / w + 0.5) / 1e6
        assert out.loc[uid, "ma3"] == expect, uid
    assert len(out) == ref["user_id"].nunique()


def test_lm_unigram_score_orders_common_above_rare(tmp_path):
    """A doc made of the corpus's most common words must outscore a doc
    of hapaxes (score = mean corpus-relative frequency of its tokens)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        traindata,
    )

    common = "data " * 50
    rare = "qzx wvu tsr qpo nml kji hgf edc ba z"
    filler = ["data batch merge sort " * 10 for _ in range(8)]
    texts = [common, rare] + filler
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    df = _to_df(traindata.q_lm_unigram_score(str(tmp_path))).set_index("doc_id")
    assert df.loc[0, "lm_score"] > df.loc[1, "lm_score"]
    assert df.loc[0, "n_tokens"] == 50
    assert (df["lm_score"] > 0).all()


def test_pack_chunk_join_left_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        relational,
        traindata,
    )

    _assert_matches_sql(
        traindata.q_pack_sequences(SF), con, traindata.SQL_PACK_SEQUENCES
    )
    _assert_matches_sql(
        traindata.q_chunk_documents(SF), con, traindata.SQL_CHUNK_DOCUMENTS
    )
    _assert_matches_sql(relational.q_join_left(SF), con, relational.SQL_JOIN_LEFT)


def test_pack_sequences_long_docs_cross_pack_boundaries(tmp_path):
    """Fixture docs are short; force multi-pack spans and verify the
    global prefix sum against a driver-side recomputation."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        traindata,
    )

    rng = np.random.default_rng(7)
    n_docs = 64
    texts = [
        " ".join(f"w{rng.integers(0, 50)}" for _ in range(int(rng.integers(1, 1500))))
        for _ in range(n_docs)
    ]
    # scatter doc_ids across prefix buckets to exercise the seed lookup
    ids = (rng.permutation(n_docs) * 997).astype(np.int64)
    pq.write_table(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)}),
        str(tmp_path / "documents.parquet"),
    )
    out = (
        _to_df(traindata.q_pack_sequences(str(tmp_path)))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    order = np.argsort(ids, kind="stable")
    n = np.array(
        [len(_raw_tokens(texts[i])) for i in order], dtype=np.int64
    )
    start = np.concatenate([[0], np.cumsum(n)[:-1]])
    assert (out["doc_id"].to_numpy() == ids[order]).all()
    assert (out["n_tokens"].to_numpy() == n).all()
    assert (out["start_tok"].to_numpy() == start).all()
    assert (out["pack_id"].to_numpy() == start // traindata.SEQ_LEN).all()
    assert (out["pack_offset"].to_numpy() == start % traindata.SEQ_LEN).all()
    assert out["pack_id"].max() > 1  # genuinely spans multiple packs


def test_chunk_documents_multi_chunk_overlap(tmp_path):
    """A 300-token doc must produce 3 chunks with the documented
    stride/overlap geometry; fixture docs are single-chunk."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        traindata,
    )

    # letter-only tokens: the tokenizer splits on [^a-z]+ so digits
    # would collapse every "tok<i>" to the same token "tok"
    toks = ["t" + chr(97 + i // 26) + chr(97 + i % 26) for i in range(300)]
    pq.write_table(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array([" ".join(toks)])}),
        str(tmp_path / "documents.parquet"),
    )
    out = (
        _to_df(traindata.q_chunk_documents(str(tmp_path)))
        .sort_values("chunk_id")
        .reset_index(drop=True)
    )
    C, S = traindata.CHUNK_LEN, traindata.CHUNK_STRIDE
    assert list(out["chunk_id"]) == [0, 1, 2]
    assert list(out["chunk_len"]) == [C, C, 300 - 2 * S]
    for j in range(3):
        lo, hi = j * S, min(j * S + C, 300)
        want = hashlib.md5(" ".join(toks[lo:hi]).encode()).hexdigest()
        assert out["chunk_hash"].iloc[j] == want


def test_bm25_and_global_rank_sql_parity(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        relational,
        traindata,
    )

    _assert_matches_sql(
        traindata.q_bm25_scores(SF), con, traindata.sql_bm25_scores()
    )
    _assert_matches_sql(
        relational.q_global_rank(SF), con, relational.SQL_GLOBAL_RANK
    )


def test_global_rank_is_dense_permutation(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        relational,
    )

    out = _to_df(relational.q_global_rank(SF)).sort_values("rank")
    n = len(out)
    assert list(out["rank"]) == list(range(1, n + 1))
    # rank respects (n_chars DESC, doc_id ASC)
    key = list(zip(-out["n_chars"].to_numpy(), out["doc_id"].to_numpy()))
    assert key == sorted(key)


def test_bm25_monotone_in_term_count(tmp_path):
    """More query-term occurrences at equal length ⇒ strictly higher
    BM25; longer doc at equal counts ⇒ lower (length normalization)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        traindata,
    )

    pad = "zzz "
    texts = [
        "join " * 1 + pad * 19,       # 1 hit, dl 20
        "join " * 5 + pad * 15,       # 5 hits, dl 20
        "join " * 5 + pad * 55,       # 5 hits, dl 60
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array(texts)}),
        str(tmp_path / "documents.parquet"),
    )
    out = _to_df(traindata.q_bm25_scores(str(tmp_path))).set_index("doc_id")
    assert out.loc[2, "bm25"] > out.loc[1, "bm25"]
    assert out.loc[2, "bm25"] > out.loc[3, "bm25"]


# -- round-4 additions: rollup / pivot / stratified sample / mix / scrub ------


def test_rollup_levels_are_consistent():
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    out = _to_df(relational.q_rollup_revenue(SF))
    leaf = out[(out.l_returnflag != "ALL") & (out.l_linestatus != "ALL")]
    lv1 = out[(out.l_returnflag != "ALL") & (out.l_linestatus == "ALL")]
    total = out[(out.l_returnflag == "ALL") & (out.l_linestatus == "ALL")]
    assert len(total) == 1
    assert int(total.n_rows.iloc[0]) == int(leaf.n_rows.sum()) == int(lv1.n_rows.sum())
    # cents-integer sums: levels agree exactly, not just approximately
    assert abs(float(total.sum_revenue.iloc[0]) - float(leaf.sum_revenue.sum())) < 1e-6
    for flag, g in leaf.groupby("l_returnflag"):
        sub = lv1[lv1.l_returnflag == flag]
        assert int(sub.n_rows.iloc[0]) == int(g.n_rows.sum())


def test_pivot_wide_totals_match_orders(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    out = _to_df(relational.q_pivot_revenue(SF))
    rev_cols = [c for c in out.columns if c.startswith("rev_")]
    assert len(rev_cols) == len(relational.PIVOT_YEARS)
    got = float(out[rev_cols].to_numpy().sum())
    want = con.execute(
        "SELECT sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0 "
        "FROM orders"
    ).fetchone()[0]
    assert abs(got - float(want)) < 1e-6
    # every customer nation present exactly once
    assert out.n_name.is_unique


def test_stratified_sample_is_balanced_and_deterministic(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    a = _to_df(relational.q_stratified_sample(SF))
    sizes = con.execute(
        "SELECT c_mktsegment, count(*) AS n FROM customer GROUP BY 1"
    ).fetchdf().set_index("c_mktsegment")["n"]
    per = a.groupby("c_mktsegment").size()
    for seg, n in per.items():
        assert n == min(relational.STRAT_SAMPLE_K, int(sizes[seg])), seg
    b = _to_df(relational.q_stratified_sample(SF))
    pd.testing.assert_frame_equal(
        a.sort_values(["c_mktsegment", "c_custkey"]).reset_index(drop=True),
        b.sort_values(["c_mktsegment", "c_custkey"]).reset_index(drop=True),
    )


def test_source_mix_shares_sum_to_one(con):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe

    out = _to_df(textpipe.q_source_mix(SF))
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert int(out.n_docs.sum()) == n_docs
    assert abs(float(out.doc_share.sum()) - 1.0) < 1e-3  # rounding per cell


def test_pii_scrub_removes_every_match():
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    out = _to_df(ev.q_pii_scrub(SF))
    assert not out.scrubbed.str.contains(r"[0-9]").any()
    # the synthetic props all carry a numeric payload
    assert (out.n_hits >= 1).all()
    assert out.scrubbed.str.contains("#").all()


def test_model_score_batch_split_invariant_and_empty_docs():
    import pyarrow as pa

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.traindata import (
        MODEL_SCORE_MICRO,
        MODEL_WEIGHT_MOD,
        DocScorerModel,
    )

    docs = ["key agg row", "", "scan slow fast scan", "a b zz"]
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "text": pa.array(docs)})
    one = DocScorerModel()(t).to_pandas().set_index("doc_id")
    # same rows scored one batch at a time through ONE actor instance:
    # identical output (the weight memo persists and cannot drift)
    scorer = DocScorerModel()
    split = pd.concat(
        [scorer(t.slice(i, 1)).to_pandas() for i in range(4)]
    ).set_index("doc_id")
    pd.testing.assert_frame_equal(one, split)
    assert len(scorer._memo) > 0  # memo actually populated across calls
    # empty doc → 0 tokens, score 0
    assert one.loc[2, "n_tokens"] == 0 and one.loc[2, "score_micro"] == 0
    # integer fixed-point mean vs an independent per-doc recompute
    import hashlib

    for did, text in zip([1, 3, 4], [docs[0], docs[2], docs[3]]):
        toks = _raw_tokens(text)
        sw = sum(
            int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big")
            % MODEL_WEIGHT_MOD
            for w in toks
        )
        want = (sw * MODEL_SCORE_MICRO) // (MODEL_WEIGHT_MOD * len(toks))
        assert one.loc[did, "score_micro"] == want, did


def test_join_full_preserves_unmatched_on_both_sides(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    # customer 1: high balance, HAS orders   -> 'both'
    # customer 2: high balance, NO orders    -> 'left' (sentinel n=0)
    # customer 3: low balance, HAS orders    -> 'right' (sentinel bal=-1)
    # customer 4: low balance, no orders     -> absent entirely
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
                "c_acctbal": pa.array([9000.0, 8000.0, 100.0, 50.0]),
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array([1, 1, 3], pa.int64()),
                "o_totalprice": pa.array([10.0, 20.0, 30.0]),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = (
        _to_df(relational.q_join_full(str(tmp_path)))
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )
    assert out.c_custkey.tolist() == [1, 2, 3]
    assert out.side.tolist() == ["both", "left", "right"]
    assert out.n_orders.tolist() == [2, 0, 1]
    assert out.acctbal.tolist() == [9000.0, 8000.0, -1.0]


def test_event_deltas_lag_semantics(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    t0 = datetime.datetime(2024, 1, 1)
    us = lambda s: t0 + datetime.timedelta(microseconds=s)
    # user 1: gaps 10, 30 us; user 2: single event (no gap -> absent);
    # user 3: tied timestamps ordered by event_id -> gap 0 then 5
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 10, 20, 21, 22], pa.int64()),
                "ts": pa.array(
                    [us(0), us(10), us(40), us(0), us(7), us(7), us(12)],
                    pa.timestamp("us"),
                ),
                "user_id": pa.array([1, 1, 1, 2, 3, 3, 3], pa.int64()),
                "event_type": pa.array(["x"] * 7),
                "value": pa.array([0.0] * 7),
                "props": pa.array(["{}"] * 7),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_event_deltas(str(tmp_path)))
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out.user_id.tolist() == [1, 3]  # single-event user 2 absent
    assert out.n_gaps.tolist() == [2, 2]
    assert out.max_gap_us.tolist() == [30, 5]
    assert out.mean_gap_us.tolist() == [20, 2]  # (10+30)//2, (0+5)//2


def test_bigram_counts_respect_doc_boundaries(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe

    # doc 1: two bigrams; doc 2: one bigram whose cross-doc pairing with
    # doc 1's tail would forge "baz baz"; doc 3: null text; doc 4: a
    # single token (no bigram); doc 5: punctuation-split pair.
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(
                    ["foo bar baz", "baz foo", None, "solo", "x. y!"],
                    pa.string(),
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = _to_df(textpipe.q_bigram_counts(str(tmp_path)))
    got = dict(zip(out.bigram, out.cnt))
    assert got == {"foo bar": 1, "bar baz": 1, "baz foo": 1, "x y": 1}
    assert "baz baz" not in got  # no cross-document pairing


def test_funnel_conversion_semantics(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    t0 = datetime.datetime(2024, 1, 1)
    ts = lambda s: t0 + datetime.timedelta(seconds=s)
    rows = [  # (user, type, t)
        (1, "view", 0), (1, "purchase", 10),        # converted
        (2, "purchase", 0), (2, "view", 10),        # wrong order
        (3, "view", 5),                             # view only
        (4, "purchase", 5),                         # purchase only
        (5, "view", 7), (5, "purchase", 7),         # tie: strict < fails
        (6, "click", 3),                            # neither step: absent
    ]
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_type": pa.array([r[1] for r in rows], pa.string()),
                "ts": pa.array([ts(r[2]) for r in rows], pa.timestamp("us")),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_funnel_conversion(str(tmp_path)))
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out.user_id.tolist() == [1, 2, 3, 4, 5]
    assert out.converted.tolist() == [1, 0, 0, 0, 0]
    assert out.loc[2, "first_purchase_us"] == -1  # user 3: view only
    assert out.loc[3, "first_view_us"] == -1      # user 4: purchase only


def test_except_parts_set_semantics(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    d = lambda iso: datetime.datetime.fromisoformat(iso)
    # part 1: late only -> kept; part 2: late AND early -> dropped;
    # part 3: early only -> dropped; part 4: mid-window only -> dropped.
    pq.write_table(
        pa.table(
            {
                "l_partkey": pa.array([1, 2, 2, 3, 4], pa.int64()),
                "l_shipdate": pa.array(
                    [d("2001-05-01"), d("2001-06-01"), d("1995-05-01"),
                     d("1995-06-01"), d("1999-01-01")],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    out = _to_df(relational.q_except_parts(str(tmp_path)))
    assert out.partkey.tolist() == [1]


def test_zscore_outliers_flags_only_tails(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    vals = [10.0] * 9 + [100.0]  # z(100) ~ 2.85 > 2; z(10) ~ -0.32
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(1, 11), pa.int64()),
                "event_type": pa.array(["a"] * 10, pa.string()),
                "value": pa.array(vals, pa.float64()),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _to_df(ev.q_zscore_outliers(str(tmp_path)))
    assert out.event_id.tolist() == [10]
    assert out.value.tolist() == [100.0]
    assert (out.z > 2.0).all()


def test_embedding_norms_exact_small(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    emb = pa.array(
        [[0.5, -0.25, 0.0], [1.0, 1.0, 1.0]], pa.list_(pa.float32())
    )
    pq.write_table(
        pa.table({"vec_id": pa.array([7, 8], pa.int64()), "embedding": emb}),
        str(tmp_path / "embeddings.parquet"),
    )
    out = (
        _to_df(similarity.q_embedding_norms(str(tmp_path)))
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert out.dim.tolist() == [3, 3]
    assert out.norm2_q.tolist() == [
        500000**2 + 250000**2, 3 * 1000000**2
    ]


def test_join_semi_keeps_only_matching_orders(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2], pa.int64()),
                "c_acctbal": pa.array([9000.0, 100.0]),
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12], pa.int64()),
                "o_custkey": pa.array([1, 2, 1], pa.int64()),
                "o_totalprice": pa.array([5.0, 6.0, 7.0]),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = (
        _to_df(relational.q_join_semi(str(tmp_path)))
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    assert out.o_orderkey.tolist() == [10, 12]
    assert set(out.o_custkey) == {1}


def test_grouped_moments_exact_small(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    pq.write_table(
        pa.table(
            {
                "l_returnflag": pa.array(["A", "A", "B"], pa.string()),
                "l_quantity": pa.array([2.0, 3.0, 5.0]),
                "l_extendedprice": pa.array([1.50, 2.25, 10.00]),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    out = (
        _to_df(relational.q_grouped_moments(str(tmp_path)))
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    assert out.n.tolist() == [2, 1]
    assert out.sum_qty.tolist() == [5, 5]
    assert out.sum_qty2.tolist() == [13, 25]
    assert out.sum_cents.tolist() == [375, 1000]
    assert out.sum_qty_cents.tolist() == [2 * 150 + 3 * 225, 5 * 1000]


def test_cumulative_revenue_planted(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    d = datetime.datetime
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "o_custkey": pa.array([7, 7, 7, 8, 8], pa.int64()),
                "o_totalprice": pa.array([1.00, 2.50, 0.25, 10.0, 5.0]),
                # order 2 predates order 1; orders 4/5 tie on date → key order
                "o_orderdate": pa.array(
                    [d(1995, 3, 2), d(1995, 3, 1), d(1995, 3, 3),
                     d(1996, 1, 1), d(1996, 1, 1)],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = (
        _to_df(relational.q_cumulative_revenue(str(tmp_path)))
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    # cust 7 ordered by date: 2 (250) → 1 (+100=350) → 3 (+25=375)
    # cust 8 same-date tie by orderkey: 4 (1000) → 5 (+500=1500)
    assert out.cum_spend_cents.tolist() == [350, 250, 375, 1000, 1500]


def test_ntile_uneven_and_fewer_rows_than_tiles(tmp_path, con):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    for n in (3, 7):  # n < k and n % k != 0
        prices = [900.0 + 7 * i for i in range(n)]  # spans several buckets
        pq.write_table(
            pa.table(
                {
                    "p_partkey": pa.array(list(range(n)), pa.int64()),
                    "p_retailprice": pa.array(prices),
                }
            ),
            str(tmp_path / "part.parquet"),
        )
        out = (
            _to_df(relational.q_ntile_price(str(tmp_path)))
            .sort_values("p_partkey")
            .reset_index(drop=True)
        )
        c = duckdb.connect()
        c.execute(
            "CREATE VIEW part AS SELECT * FROM "
            f"read_parquet('{tmp_path}/part.parquet')"
        )
        ref = (
            c.execute(relational.SQL_NTILE_PRICE)
            .df()
            .sort_values("p_partkey")
            .reset_index(drop=True)
        )
        assert out.tile.tolist() == ref.tile.astype(int).tolist(), n


def test_bloom_semi_join_invariant_under_tiny_filter(tmp_path):
    """A collision-saturated Bloom filter changes NOTHING: every false
    positive dies in the exact verify stage (no false negatives exist)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    rng = np.random.default_rng(7)
    n_parts, n_items = 60, 400
    pq.write_table(
        pa.table(
            {
                "p_partkey": pa.array(list(range(n_parts)), pa.int64()),
                "p_size": pa.array(
                    rng.integers(1, 51, n_parts), pa.int32()
                ),
            }
        ),
        str(tmp_path / "part.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(list(range(n_items)), pa.int64()),
                "l_linenumber": pa.array([1] * n_items, pa.int32()),
                "l_partkey": pa.array(
                    rng.integers(0, n_parts * 2, n_items), pa.int64()
                ),  # half the probes miss the build side entirely
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )

    def run(m_bits):
        return (
            _to_df(relational.q_bloom_semi_join(str(tmp_path), m_bits=m_bits))
            .sort_values(["l_orderkey", "l_linenumber"])
            .reset_index(drop=True)
        )

    tiny, default = run(1 << 6), run(None)
    pd.testing.assert_frame_equal(tiny, default)
    # and the result is the true semi join
    parts = pq.read_table(str(tmp_path / "part.parquet")).to_pandas()
    items = pq.read_table(str(tmp_path / "lineitem.parquet")).to_pandas()
    big = set(parts.loc[parts.p_size >= relational.BLOOM_SIZE_MIN, "p_partkey"])
    expect = items[items.l_partkey.isin(big)].sort_values(
        ["l_orderkey", "l_linenumber"]
    )
    assert default.l_orderkey.tolist() == expect.l_orderkey.tolist()


def test_bloom_filter_has_no_false_negatives():
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.relational import (
        _bloom_bits,
        _bloom_maybe,
    )

    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2**62, 500)
    m = 1 << 10  # saturated: plenty of collisions
    bits = _bloom_bits(keys, m)
    assert _bloom_maybe(keys, bits, m).all()  # members always pass
    # at a sane size, most non-members are rejected
    m = 1 << 16
    bits = _bloom_bits(keys, m)
    probe = rng.integers(2**62, 2**63, 2000)
    assert _bloom_maybe(probe, bits, m).mean() < 0.05


def test_pareto_frontier_kernel_vs_bruteforce():
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.relational import _frontier

    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 40))
        # tiny domains force duplicate points and per-price ties
        price = rng.integers(0, 6, n).astype(np.int64)
        size = rng.integers(0, 6, n).astype(np.int64)
        got = _frontier(price, size)
        for i in range(n):
            dominated = any(
                price[j] <= price[i] and size[j] >= size[i]
                and (price[j] < price[i] or size[j] > size[i])
                for j in range(n)
            )
            assert got[i] == (not dominated), (trial, i, price, size)


def test_mode_event_type_lexicographic_tie_break(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
                "event_type": pa.array(
                    ["view", "view", "click", "click", "purchase", "error"]
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_mode_event_type(str(tmp_path)))
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    # user 1: click and view tie at 2 → 'click' (lexicographically first)
    # user 2: error and purchase tie at 1 → 'error'
    assert out.top_type.tolist() == ["click", "error"]
    assert out.n_events.tolist() == [2, 1]


def test_cooccurrence_ignores_repeat_events(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    pq.write_table(
        pa.table(
            {
                # user 1 clicks five times: the (click,view) pair still
                # counts ONCE; user 2 shares no pair; user 3 repeats
                # user 1's pair exactly
                "user_id": pa.array(
                    [1, 1, 1, 1, 1, 1, 2, 3, 3], pa.int64()
                ),
                "event_type": pa.array(
                    ["click"] * 5 + ["view", "signup", "view", "click"]
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_cooccurrence_types(str(tmp_path)))
        .sort_values(["type_a", "type_b"])
        .reset_index(drop=True)
    )
    assert out.type_a.tolist() == ["click"]
    assert out.type_b.tolist() == ["view"]
    assert out.n_users.tolist() == [2]


def test_first_last_orders_same_day_ties(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    d = datetime.datetime(1997, 6, 1)
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([30, 10, 20], pa.int64()),
                "o_custkey": pa.array([5, 5, 5], pa.int64()),
                "o_orderdate": pa.array([d, d, d], pa.timestamp("us")),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = _to_df(relational.q_first_last_orders(str(tmp_path)))
    assert out.n_orders.tolist() == [3]
    assert out.first_orderkey.tolist() == [10]  # smallest key on the tie day
    assert out.last_orderkey.tolist() == [30]


def test_token_budget_cap_greedy_boundary(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import traindata

    # src A: 400 + 300 tokens hit the 700 cap EXACTLY (kept), then a
    # 1-token doc overflows (dropped, and stays dropped — the budget is
    # a prefix, not best-fit).  src B never reaches the cap.
    def words(n):
        return " ".join(["tok"] * n)

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 10, 11], pa.int64()),
                "source": pa.array(["A", "A", "A", "B", "B"]),
                "text": pa.array(
                    [words(400), words(300), words(1), words(5), words(7)]
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = (
        _to_df(traindata.q_token_budget_cap(str(tmp_path)))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.doc_id.tolist() == [1, 2, 10, 11]
    assert out.cum_tokens.tolist() == [400, 700, 5, 12]


def test_event_transitions_order_and_ties(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    d = datetime.datetime
    # user 1 rows arrive OUT of time order; events 3/4 tie on ts and
    # order by event_id: true sequence is view→click→click→purchase
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([4, 1, 3, 2, 9], pa.int64()),
                "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
                "ts": pa.array(
                    [d(2024, 1, 2), d(2024, 1, 1), d(2024, 1, 2),
                     d(2024, 1, 1, 12), d(2024, 1, 1)],
                    pa.timestamp("us"),
                ),
                "event_type": pa.array(
                    ["purchase", "view", "click", "click", "view"]
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_event_transitions(str(tmp_path)))
        .sort_values(["prev_type", "next_type"])
        .reset_index(drop=True)
    )
    assert list(zip(out.prev_type, out.next_type, out.n)) == [
        ("click", "click", 1),
        ("click", "purchase", 1),
        ("view", "click", 1),
    ]


def test_activity_histogram_counts(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    pq.write_table(
        pa.table(
            {"user_id": pa.array([1, 1, 1, 2, 3, 3, 4], pa.int64())}
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_activity_histogram(str(tmp_path)))
        .sort_values("n_events")
        .reset_index(drop=True)
    )
    assert list(zip(out.n_events, out.n_users)) == [(1, 2), (2, 1), (3, 1)]


def test_minmax_quality_constant_group_and_pow2_span(tmp_path):
    """span = 128 is the case where a 6-decimal FLOAT round would split
    an exact .5 differently in numpy (half-even) vs DuckDB (half-up);
    the integer-ppm contract sidesteps it — verify vs DuckDB here."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe

    def words(n):
        return " ".join(["w"] * n)

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "lang": pa.array(["en", "en", "en", "de", "de"]),
                "text": pa.array(
                    [words(1), words(2), words(129), words(9), words(9)]
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = (
        _to_df(textpipe.q_minmax_quality(str(tmp_path)))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # en: lo=1 hi=129, span 128 → ppm = (x-1)*1e6 // 128
    assert out.mm_ppm.tolist() == [0, 1_000_000 // 128, 1_000_000, 0, 0]
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    ref = (
        c.execute(textpipe.SQL_MINMAX_QUALITY)
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.mm_ppm.tolist() == ref.mm_ppm.astype(int).tolist()


def test_union_months_dedups_across_sides(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    d = datetime.datetime
    pq.write_table(
        pa.table(
            {
                "l_shipdate": pa.array(
                    [d(2024, 1, 5), d(2024, 1, 9), d(2024, 3, 1)],
                    pa.timestamp("us"),
                )
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderdate": pa.array(
                    [d(2024, 1, 2), d(2024, 2, 2)], pa.timestamp("us")
                )
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = _to_df(relational.q_union_months(str(tmp_path)))
    # 2024-01 appears on BOTH sides and within one side twice → once
    assert sorted(out.ym) == ["2024-01", "2024-02", "2024-03"]


def test_mom_change_first_month_lags_zero(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    d = datetime.datetime
    pq.write_table(
        pa.table(
            {
                "o_orderdate": pa.array(
                    [d(2024, 1, 1), d(2024, 2, 1), d(2024, 2, 15),
                     d(2024, 4, 1)],
                    pa.timestamp("us"),
                ),
                "o_orderpriority": pa.array(["1-URGENT"] * 4),
                "o_totalprice": pa.array([10.0, 4.0, 6.0, 1.0]),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = (
        _to_df(relational.q_mom_change(str(tmp_path)))
        .sort_values("ym")
        .reset_index(drop=True)
    )
    # first month lags 0; missing month (2024-03) is NOT filled — the
    # lag is over the observed series, matching the SQL window
    assert out.ym.tolist() == ["2024-01", "2024-02", "2024-04"]
    assert out.revenue_cents.tolist() == [1000, 1000, 100]
    assert out.prev_cents.tolist() == [0, 1000, 1000]
    assert out.delta_cents.tolist() == [1000, 0, -900]


def test_grouped_regression_negative_slope_truncates_like_duckdb(tmp_path):
    """Negative numerator is where Python floor (//) and DuckDB
    truncation diverge — the kernel must truncate toward zero.  Planted
    series: y = 30 - 2x exactly ⇒ slope_micro = -2_000_000; plus a
    non-exact group whose slope is a negative non-integer ratio
    (truncation, not floor, must match DuckDB)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    pq.write_table(
        pa.table(
            {
                "l_returnflag": pa.array(["A"] * 3 + ["B"] * 3),
                # A: (x, y) = (0,30), (5,20), (10,10) → slope exactly -2
                # B: (0,10), (5,9), (10,7) → slope -3/10 → -300000
                "l_discount": pa.array([0.0, 0.05, 0.10, 0.0, 0.05, 0.10]),
                "l_quantity": pa.array([30.0, 20.0, 10.0, 10.0, 9.0, 7.0]),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    out = (
        _to_df(relational.q_grouped_regression(str(tmp_path)))
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    assert out.slope_micro.tolist() == [-2_000_000, -300_000]
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW lineitem AS SELECT * FROM "
        f"read_parquet('{tmp_path}/lineitem.parquet')"
    )
    ref = (
        c.execute(relational.SQL_GROUPED_REGRESSION)
        .df()
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    assert out.slope_micro.tolist() == ref.slope_micro.astype(int).tolist()


def test_cohort_retention_matrix(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    d = datetime.datetime
    # u1 joins Jan, active Jan+Feb; u2 joins Jan (twice that month —
    # counted once), active Jan only; u3 joins Feb
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([1, 1, 2, 2, 3], pa.int64()),
                "ts": pa.array(
                    [d(2024, 1, 3), d(2024, 2, 1), d(2024, 1, 5),
                     d(2024, 1, 20), d(2024, 2, 9)],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_cohort_retention(str(tmp_path)))
        .sort_values(["cohort_month", "active_month"])
        .reset_index(drop=True)
    )
    assert list(zip(out.cohort_month, out.active_month, out.n_users)) == [
        ("2024-01", "2024-01", 2),
        ("2024-01", "2024-02", 1),
        ("2024-02", "2024-02", 1),
    ]


def test_user_streaks_islands(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    d = datetime.datetime
    # u1: days 1,2,3 then 7,8 (two islands; day 2 hit twice — once);
    # u2: single day (island of 1); month boundary covered by u3:
    # Jan 31 → Feb 1 is consecutive
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([1, 1, 1, 1, 1, 1, 2, 3, 3], pa.int64()),
                "ts": pa.array(
                    [d(2024, 3, 1), d(2024, 3, 2, 5), d(2024, 3, 2, 9),
                     d(2024, 3, 3), d(2024, 3, 7), d(2024, 3, 8),
                     d(2024, 5, 5), d(2024, 1, 31), d(2024, 2, 1)],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_user_streaks(str(tmp_path)))
        .sort_values(["user_id", "start_day"])
        .reset_index(drop=True)
    )
    assert list(
        zip(out.user_id, out.start_day, out.end_day, out.n_days)
    ) == [
        (1, "2024-03-01", "2024-03-03", 3),
        (1, "2024-03-07", "2024-03-08", 2),
        (2, "2024-05-05", "2024-05-05", 1),
        (3, "2024-01-31", "2024-02-01", 2),
    ]


def test_fuzzy_token_join_blocking_catches_every_edit_kind(tmp_path):
    """Insertion (cat/cart), substitution (cat/bat), deletion covered
    by symmetry, single letters (a/b share the '' key), and the
    distance-2 TRAP: 'abx'/'ayb' share deletion key 'ab' but
    levenshtein = 2 — the verify stage must reject it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["cat cart bat abx q", "ayb r zzzz"]),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = _to_df(textpipe.q_fuzzy_token_join(str(tmp_path)))
    got = sorted(zip(out.tok_a, out.tok_b))
    assert got == [("bat", "cat"), ("cart", "cat"), ("q", "r")]
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    ref = c.execute(textpipe.SQL_FUZZY_TOKEN_JOIN).df()
    assert got == sorted(zip(ref.tok_a, ref.tok_b))


def test_fuzzy_token_join_empty_corpus_keeps_schema(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import textpipe

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["lonely"]),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = _to_df(textpipe.q_fuzzy_token_join(str(tmp_path)))
    assert list(out.columns) == ["tok_a", "tok_b"]
    assert len(out) == 0


def test_profile_orders_numeric_minmax_and_nulls(tmp_path):
    """custkeys 9 vs 10 is the string-ordering trap ('10' < '9'): the
    profiler must compare numerically before stringifying; null
    handling must count nulls and exclude them from min/max/distinct."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    pq.write_table(
        pa.table(
            {
                "o_orderstatus": pa.array(["O", None, "F", "O"]),
                "o_orderpriority": pa.array(
                    ["1-URGENT", "2-HIGH", "1-URGENT", "1-URGENT"]
                ),
                "o_custkey": pa.array([10, 9, None, 10], pa.int64()),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = (
        _to_df(relational.q_profile_orders(str(tmp_path)))
        .sort_values("col_name")
        .reset_index(drop=True)
    )
    row = out[out.col_name == "o_custkey"].iloc[0]
    assert (row.n_rows, row.n_null, row.n_distinct) == (4, 1, 2)
    assert (row.min_s, row.max_s) == ("9", "10")
    row = out[out.col_name == "o_orderstatus"].iloc[0]
    assert (row.n_rows, row.n_null, row.n_distinct) == (4, 1, 2)
    assert (row.min_s, row.max_s) == ("F", "O")
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW orders AS SELECT * FROM "
        f"read_parquet('{tmp_path}/orders.parquet')"
    )
    ref = (
        c.execute(relational.SQL_PROFILE_ORDERS)
        .df()
        .sort_values("col_name")
        .reset_index(drop=True)
    )
    assert out.values.tolist() == ref.values.tolist()


def test_sliding_distinct_users_gaps_and_overlap(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    d = datetime.datetime
    # u1 active hours 0 and 5 of Jan 1 (one window island — counted
    # once per anchor); u2 active hour 0 only; 3-day silence then u1
    # again (zero-count anchors in between must be DROPPED)
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([1, 1, 2, 1], pa.int64()),
                "ts": pa.array(
                    [d(2024, 1, 1, 0, 10), d(2024, 1, 1, 5, 59),
                     d(2024, 1, 1, 0, 30), d(2024, 1, 5, 12)],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = (
        _to_df(ev.q_sliding_distinct_users(str(tmp_path)))
        .sort_values("anchor_hr")
        .reset_index(drop=True)
    )
    # anchors 00:00-23:00 Jan 1 see both users (u1 once despite two
    # active hours); Jan 2 00:00-04:00 still cover u1's hour-5
    # activity; then nothing until Jan 5 12:00
    assert out.anchor_hr.iloc[0] == "2024-01-01T00:00:00"
    assert out.n_users.iloc[0] == 2
    assert (
        out[out.anchor_hr == "2024-01-02T04:00:00"].n_users.iloc[0] == 1
    )
    assert "2024-01-02T06:00:00" not in set(out.anchor_hr)  # window empty
    assert out.anchor_hr.iloc[-1] == "2024-01-05T12:00:00"
    # cross-check the whole series against DuckDB
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{tmp_path}/events.parquet')"
    )
    ref = (
        c.execute(ev.SQL_SLIDING_DISTINCT_USERS)
        .df()
        .sort_values("anchor_hr")
        .reset_index(drop=True)
    )
    assert out.anchor_hr.tolist() == ref.anchor_hr.tolist()
    assert out.n_users.tolist() == ref.n_users.astype(int).tolist()


def test_pq_encode_ties_and_oracle(tmp_path):
    """Vectors equal to a codebook entry must take that entry's code;
    an equidistant vector (tied integer dots) takes the LOWEST code on
    both engines.  Cross-checked against the DuckDB oracle on a tiny
    planted table (dim 16 → 2 subspaces)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity

    dim = 16
    vecs = {
        1: [0.3] * 8 + [0.0] * 8,
        2: [0.0] * 8 + [0.3] * 8,
        3: [0.3] * 16,          # sub0 ties vec1's block, sub1 ties vec2's
        4: [-0.3] * 16,
    }
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(sorted(vecs), pa.int64()),
                "embedding": pa.array(
                    [vecs[k] for k in sorted(vecs)],
                    pa.list_(pa.float64()),
                ),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    out = (
        _to_df(similarity.q_pq_encode(str(tmp_path)))
        .sort_values(["vec_id", "sub"])
        .reset_index(drop=True)
    )
    assert len(out) == 4 * 2  # 4 vectors x 2 subspaces
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{tmp_path}/embeddings.parquet')"
    )
    ref = (
        c.execute(similarity.sql_pq_encode())
        .df()
        .sort_values(["vec_id", "sub"])
        .reset_index(drop=True)
    )
    assert out.code.tolist() == ref.code.astype(int).tolist()
    assert out.vec_id.tolist() == ref.vec_id.astype(int).tolist()


def test_time_weighted_value_holding_durations(tmp_path):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    d = datetime.datetime
    # u1: value 10 held 100 s, then 20 held 50 s, then a terminal event
    # (no successor → contributes no weight): twa = 2000/150 = 13.3...
    # u2: single event → no observed duration → dropped
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 9], pa.int64()),
                "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                "ts": pa.array(
                    [d(2024, 1, 1, 0, 0, 0), d(2024, 1, 1, 0, 1, 40),
                     d(2024, 1, 1, 0, 2, 30), d(2024, 1, 1)],
                    pa.timestamp("us"),
                ),
                "value": pa.array([10.0, 20.0, 999.0, 5.0]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _to_df(ev.q_time_weighted_value(str(tmp_path)))
    assert out.user_id.tolist() == [1]
    assert out.dur_s.tolist() == [150]
    assert out.twa_micro.tolist() == [(10_000_000 * 100 + 20_000_000 * 50) // 150]


def test_local_supplier_volume_same_nation_and_date_bounds(tmp_path):
    """The same-nation constraint must drop cross-nation pairs even
    inside the region, and the date window is [lo, hi) — an order ON
    the hi boundary is excluded."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    d = datetime.datetime
    pq.write_table(
        pa.table({"r_regionkey": pa.array([0, 1], pa.int64()),
                  "r_name": pa.array(["ASIA", "EUROPE"])}),
        str(tmp_path / "region.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "n_nationkey": pa.array([10, 11, 20], pa.int64()),
                "n_name": pa.array(["JAPAN", "INDIA", "FRANCE"]),
                "n_regionkey": pa.array([0, 0, 1], pa.int64()),
            }
        ),
        str(tmp_path / "nation.parquet"),
    )
    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2], pa.int64()),
                  "c_nationkey": pa.array([10, 20], pa.int64())}),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table({"s_suppkey": pa.array([5, 6], pa.int64()),
                  "s_nationkey": pa.array([10, 11], pa.int64())}),
        str(tmp_path / "supplier.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([100, 101, 102], pa.int64()),
                "o_custkey": pa.array([1, 1, 2], pa.int64()),
                "o_orderdate": pa.array(
                    [d(1996, 6, 1), d(1997, 1, 1), d(1996, 6, 1)],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                # o100: JAPAN supplier (match, 10.00) + INDIA supplier
                # (same region, WRONG nation — dropped);
                # o101: in-window? no (1997-01-01 excluded);
                # o102: EUROPE customer — dropped
                "l_orderkey": pa.array([100, 100, 101, 102], pa.int64()),
                "l_suppkey": pa.array([5, 6, 5, 5], pa.int64()),
                "l_extendedprice": pa.array([10.0, 99.0, 50.0, 70.0]),
                "l_discount": pa.array([0.0, 0.0, 0.0, 0.0]),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    out = _to_df(relational.q_local_supplier_volume(str(tmp_path)))
    assert list(zip(out.n_name, out.revenue)) == [("JAPAN", 10.0)]


def test_dup_spans_within_doc_repeat_excluded_and_union(tmp_path):
    """A gram repeated only WITHIN one doc is not a duplicate (needs
    >=2 distinct docs), and overlapping duplicated spans union — they
    never double-count covered tokens."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import traindata

    shared = "alpha beta gamma delta epsilon zeta"  # 6 tokens, 2 grams
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        # doc1: shared 6-token run then filler
                        shared + " one two three four five",
                        # doc2: same run at a different offset
                        "pad " + shared + " six seven eight nine ten",
                        # doc3: a 5-gram repeated twice inside THIS doc
                        # only — must not count as duplicated
                        "q w e r t y q w e r t y",
                    ]
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = _to_df(traindata.q_dup_spans(str(tmp_path))).sort_values(
        "doc_id"
    )
    # docs 1 and 2 each have 2 duplicated gram starts (positions i,
    # i+1) whose spans overlap: union = 6 tokens, not 10; doc 3 absent
    assert out.doc_id.tolist() == [1, 2]
    assert out.dup_starts.tolist() == [2, 2]
    assert out.dup_tokens.tolist() == [6, 6]


def test_percent_rank_ties_share_min_rank(tmp_path):
    """Tied prices take the MIN rank (SQL RANK semantics), including a
    tie group that fills an entire price bucket, and pr spans [0, 1]."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    #            ranks: 1  1  3  4  4  4  7
    prices = [10.0, 10.0, 30.0, 41.0, 41.0, 41.0, 55.0]
    pq.write_table(
        pa.table(
            {
                "p_partkey": pa.array(list(range(7)), pa.int64()),
                "p_retailprice": pa.array(prices),
            }
        ),
        str(tmp_path / "part.parquet"),
    )
    out = (
        _to_df(relational.q_percent_rank_price(str(tmp_path)))
        .sort_values("p_partkey")
        .reset_index(drop=True)
    )
    exp = [(r - 1) / 6 for r in (1, 1, 3, 4, 4, 4, 7)]
    assert out.pr.tolist() == exp
    assert out.pr.min() == 0.0 and out.pr.max() == 1.0


def test_unpivot_keeps_zero_filled_cells(con):
    """Every nation appears with ALL seven year rows — cells the pivot
    zero-filled survive the melt (a plain GROUP BY would drop them)."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    out = _to_df(relational.q_unpivot_revenue(SF))
    per_nation = out.groupby("n_name")["year"].agg(["count", "min", "max"])
    assert (per_nation["count"] == len(relational.PIVOT_YEARS)).all()
    assert (per_nation["min"] == relational.PIVOT_YEARS[0]).all()
    assert (per_nation["max"] == relational.PIVOT_YEARS[-1]).all()
    assert (out["revenue"] == 0).any()  # at least one genuinely empty cell


def test_mad_outliers_planted_even_count_and_dev_collision(tmp_path):
    """Even-count median picks the LOWER element (quantile_disc), and
    deviations from BOTH sides of the median merge before the MAD pick."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    # cents: 100 200 300 400 500 900 → median = lower mid = 300
    # devs:  200 100   0 100 200 600 → sorted 0 100 100 200 200 600
    #                                   MAD = element idx 2 = 100
    # fence = 2 * 100 = 200 → outlier iff dev > 200 → only 900 (dev 600)
    prices = [1.00, 2.00, 3.00, 4.00, 5.00, 9.00]
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(list(range(1, 7)), pa.int64()),
                "o_totalprice": pa.array(prices),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = _to_df(relational.q_mad_outliers(str(tmp_path)))
    assert out.o_orderkey.tolist() == [6]
    assert out.dev_cents.tolist() == [600]


def test_corr_planted_exact_and_zero_variance(tmp_path):
    """Engine float equals the DuckDB oracle BIT-FOR-BIT on a planted
    file, including a zero-variance group: there both engines return
    NULL (NaN through pandas), and the engine divides by no zero, so
    it raises no RuntimeWarning."""
    import warnings

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    pq.write_table(
        pa.table(
            {
                # flag A: anticorrelated-ish; flag B: y CONSTANT
                "l_returnflag": pa.array(["A", "A", "A", "B", "B"]),
                "l_quantity": pa.array([1.0, 2.0, 3.0, 7.0, 9.0]),
                "l_discount": pa.array([0.05, 0.03, 0.01, 0.04, 0.04]),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = relational.q_corr_qty_discount(str(tmp_path))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out = (
        _to_df(res)
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW lineitem AS SELECT * FROM "
        f"read_parquet('{tmp_path}/lineitem.parquet')"
    )
    ref = (
        c.execute(relational.SQL_CORR_QTY_DISCOUNT)
        .df()
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    # bit-identical to the oracle; ≈ −1 up to sqrt(6)·sqrt(6) ≠ 6 ulp
    assert out.r[0] == ref.r[0]
    assert abs(out.r[0] - (-1.0)) < 1e-15
    assert np.isnan(out.r[1]) and np.isnan(ref.r[1])


def test_profile_orders_all_null_int_column(tmp_path):
    """An integer column that is all-NULL in every block must still be
    classified numeric (explicit is_num flag from the arrow type, not a
    sentinel inference) and yield NULL min/max + n_distinct 0, exactly
    like SQL (ADVICE r4)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    pq.write_table(
        pa.table(
            {
                "o_orderstatus": pa.array(["O", "F", "O"]),
                "o_orderpriority": pa.array(["1-URGENT", "2-HIGH", "2-HIGH"]),
                "o_custkey": pa.array([None, None, None], pa.int64()),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = (
        _to_df(relational.q_profile_orders(str(tmp_path)))
        .sort_values("col_name")
        .reset_index(drop=True)
    )
    row = out[out.col_name == "o_custkey"].iloc[0]
    assert (row.n_rows, row.n_null, row.n_distinct) == (3, 3, 0)
    assert row.min_s is None or pd.isna(row.min_s)
    assert row.max_s is None or pd.isna(row.max_s)
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW orders AS SELECT * FROM "
        f"read_parquet('{tmp_path}/orders.parquet')"
    )
    ref = (
        c.execute(relational.SQL_PROFILE_ORDERS)
        .df()
        .sort_values("col_name")
        .reset_index(drop=True)
    )
    assert out.col_name.tolist() == ref.col_name.tolist()
    assert out.n_distinct.tolist() == ref.n_distinct.astype(int).tolist()
    for a, b in zip(out.min_s, ref.min_s):
        assert (pd.isna(a) and pd.isna(b)) or a == b


def test_profile_orders_distinct_sweep_is_bucket_vectorized():
    """The r4 verdict's one weak pipeline: the distinct sweep must never
    pay Ray's per-group dispatch once per distinct VALUE.  Pin the shape:
    no groupby on the raw (col_name, v) pair remains in the source; the
    only exchange is the size-derived hash-bucketed one (``bucketed``)."""
    import inspect

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import relational

    src = inspect.getsource(relational.q_profile_orders)
    assert 'groupby(["col_name", "v"])' not in src
    assert 'bucketed(' in src


def test_time_weighted_value_negative_values(tmp_path):
    """DuckDB ``//`` truncates toward zero while numpy floors — a user
    whose weighted sum is negative must divide sign-magnitude to match
    the oracle exactly (ADVICE r4)."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    d = datetime.datetime
    # u1: value -10 held 100 s, +5 held 40 s → num = -800e6, dur = 140
    #     trunc(-800e6/140) = -5714285 (floor is -5714286: the trap)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3], pa.int64()),
                "user_id": pa.array([1, 1, 1], pa.int64()),
                "ts": pa.array(
                    [d(2024, 1, 1, 0, 0, 0), d(2024, 1, 1, 0, 1, 40),
                     d(2024, 1, 1, 0, 2, 20)],
                    pa.timestamp("us"),
                ),
                "value": pa.array([-10.0, 5.0, 999.0]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _to_df(ev.q_time_weighted_value(str(tmp_path)))
    assert out.user_id.tolist() == [1]
    num = -10_000_000 * 100 + 5_000_000 * 40
    assert out.twa_micro.tolist() == [int(-((-num) // 140))]  # trunc
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{tmp_path}/events.parquet')"
    )
    ref = c.execute(ev.SQL_TIME_WEIGHTED_VALUE).df()
    assert out.twa_micro.tolist() == ref.twa_micro.astype(int).tolist()
    assert out.dur_s.tolist() == ref.dur_s.astype(int).tolist()


def test_sliding_distinct_users_empty_events(tmp_path):
    """An empty events table must return the empty typed result, not
    crash on the bounds aggregate (ADVICE r4)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import events as ev

    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "ts": pa.array([], pa.timestamp("us")),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _to_df(ev.q_sliding_distinct_users(str(tmp_path)))
    assert list(out.columns) == ["anchor_hr", "n_users"]
    assert len(out) == 0


def test_dup_spans_gram_key_is_full_digest():
    """Gram identity must be the full 128-bit md5 (gh + gh2), not the
    top 64 bits alone (ADVICE r4): pin both lanes in the exchange."""
    import inspect

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import traindata

    src = inspect.getsource(traindata.q_dup_spans)
    assert '"gh2"' in src and '["gh", "gh2"]' in src


def test_kmeans_and_semantic_dedup_on_planted_clusters(tmp_path):
    """Deterministic k-means + SemDeDup-shaped dedup: exact duplicate
    vectors quantize identically, so they ALWAYS co-cluster and every
    planted dup pair must surface with cos 1.0 (the deterministic
    subset of the SemDeDup contract); cluster sizes and the id_sum
    fingerprint must partition the input exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        dedup,
        similarity,
    )

    rng = np.random.default_rng(7)
    dim, per, nc = 64, 50, 3
    centers = rng.standard_normal((nc, dim)) * 10.0
    blobs = np.vstack(
        [centers[c] + 0.01 * rng.standard_normal((per, dim)) for c in range(nc)]
    )
    dup_src = [0, per, 2 * per]  # one row per blob
    m = np.vstack([blobs, blobs[dup_src]])
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(m)), pa.int64()),
            "embedding": pa.array(list(m), pa.list_(pa.float64())),
            "label": pa.array(np.zeros(len(m), dtype=np.int64)),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))

    km = _to_df(similarity.q_kmeans_embeddings(str(tmp_path)))
    assert km["n_vecs"].sum() == len(m)
    assert km["id_sum"].sum() == int(np.arange(len(m)).sum())
    assert (km["cluster"] < similarity.KMEANS_K).all()

    out = _to_df(dedup.q_dedup_semantic(str(tmp_path)))
    got = set(zip(out["vec_a"], out["vec_b"]))
    for j, src in enumerate(dup_src):
        assert (src, nc * per + j) in got, f"planted dup {src} missed"
    assert (out["cos"] >= dedup.COSINE_THRESHOLD).all()
    # determinism: a second run (fresh memo key space, same file)
    # reproduces the exact cluster table
    km2 = _to_df(similarity.q_kmeans_embeddings(str(tmp_path)))
    pd.testing.assert_frame_equal(
        km.sort_values("cluster").reset_index(drop=True),
        km2.sort_values("cluster").reset_index(drop=True),
    )


def test_mmr_diversify_matches_scalar_reference():
    """q_mmr_diversify vs an independent scalar MMR implementation
    over the same brute-force top-k pool: identical picks and ranks
    (deterministic rounded cosines, first-max tie break)."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import similarity as S

    got = _to_df(S.q_mmr_diversify(SF))

    pool = S.q_knn_bruteforce(SF)
    rows = S._fetch_rows_by_id(
        SF, np.unique(pool["vec_id"].to_numpy(np.int64))
    ).sort_values("vec_id")
    mat = np.stack(rows["embedding"].to_numpy()).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    emb = {int(v): mat[i] for i, v in enumerate(rows["vec_id"].to_numpy())}

    exp_rows = []
    for qid, g in pool.groupby("query_id", sort=True):
        g = g.sort_values(["cos", "vec_id"], ascending=[False, True])
        cand = [(int(v), float(c)) for v, c in zip(g["vec_id"], g["cos"])]
        picked = []
        for rank in range(S.MMR_SELECT):
            best, best_score = None, None
            for v, rel in cand:
                if v in picked:
                    continue
                red = max(
                    (round(float(emb[v] @ emb[p]), 4) for p in picked),
                    default=0.0,
                )
                sc = S.MMR_LAMBDA * rel - (1 - S.MMR_LAMBDA) * red
                if best_score is None or sc > best_score:
                    best, best_score = v, sc
            picked.append(best)
            exp_rows.append((int(qid), best, rank))
    exp = pd.DataFrame(exp_rows, columns=["query_id", "vec_id", "rank"])
    pd.testing.assert_frame_equal(
        got.sort_values(["query_id", "rank"]).reset_index(drop=True),
        exp.sort_values(["query_id", "rank"]).reset_index(drop=True),
    )
