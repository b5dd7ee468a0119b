"""Training-data-curation operators (round-3 additions): benchmark
contamination check, repetition quality signals, unigram LM scoring,
sequence packing, document chunking.

These extend the reference's text jobs (``src/jobs/Indexer.java``,
``src/jobs/TfIdf.java``) with the curation steps a 100-TB pretraining
pipeline runs between crawl and training.  All three are hash-exact
against DuckDB oracles: float-order-dependence is avoided by doing the
per-doc reductions in integers (counts / count-products) and applying
the identical rounded double division on both sides.

Tokenization here is the raw crawl-side form (lowercase, split
``[^a-z]+``, drop empty and len>25) WITHOUT the stopword drop — a
contamination / repetition signal must see function words too; the
SQL oracles replicate it with ``string_split_regex`` + ``list_filter``.

Scale notes (100 TB):
- every word/gram/doc-keyed exchange here is one
  ``partitioning.bucketed`` call (per-doc partial sums:
  ``partitioning.bucket_sums``), so nothing is broadcast and each
  bucket holds ≤ ~target rows.
- ``contamination_check`` never broadcasts the benchmark gram set: it
  hash-buckets grams and marks membership inside per-bucket vectorized
  merges (same partitioned-hash-join shape as ``q_join_shuffle``).
- ``lm_unigram_score`` joins per-doc word counts to the global
  frequency table per word-hash bucket — no vocabulary broadcast.
- ``repetition_signals`` is embarrassingly parallel (one pass, no
  shuffle).
- ``pack_sequences`` is the distributed prefix-scan shape (same as
  ``events.q_window_late_data``): per-bucket token sums → driver
  prefix-sum over ≤ |buckets| scalars → per-bucket local cumsum.
- ``chunk_documents`` is embarrassingly parallel (flat-map, no
  shuffle).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Sum

from ..sources.tables import read_parquet_clean
from ..functions.partitioning import (
    bucket_count,
    bucket_sums,
    bucketed,
    parquet_token_estimate,
)
from ..functions.tokenize import MAX_WORD_LENGTH, split_az

GRAM_N = 5  # word-level n-gram order for the contamination check
BENCH_MOD = 97  # doc_id % BENCH_MOD == 0 marks the "benchmark" set
# hash buckets for the gram / word partitioned joins are SIZE-DERIVED
# per query (bucket_count over the text column's token estimate), so a
# group holds ≤ ~target gram/word rows at any corpus size; 32 is the
# small-scale floor.  Bucket membership of a gram/word is NB-invariant
# (pure hash), so results don't depend on the derived count.
NB_FLOOR = 32

# shared SQL fragment: raw tokens (no stopword drop), as an ordered list.
# COALESCE(text, '') mirrors the Ray side's ``text or ''`` — without it a
# NULL text yields l = NULL (not []), and e.g. pack_sequences would emit
# n_tokens NULL where the engine emits 0 (latent hash divergence; current
# fixtures have no NULLs but the contract shouldn't depend on that).
_SQL_TOKLIST = f"""
    SELECT doc_id,
           list_filter(string_split_regex(lower(COALESCE(text, '')), '[^a-z]+'),
                       w -> w <> '' AND length(w) <= {MAX_WORD_LENGTH}) AS l
    FROM documents
"""


def _docs(sf_dir: str):
    return read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def _flat_tokens(
    t: pa.Table, with_tokens: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """This module's tokenizer over a block's ``text`` column
    (``functions.tokenize.split_az`` without the stop-word drop, with
    DuckDB's ``lower()`` as in ``_SQL_TOKLIST``).

    Returns ``(parent_row_index int64[n_tokens], tokens
    object[n_tokens] | None)`` in document order; the unchanged SQL
    oracles stay hash-exact (tests/test_sql_oracles.py).
    ``with_tokens=False`` skips materializing the token strings when
    only counts are needed (pack_sequences)."""
    doc, ids, vocab = split_az(t["text"], stop_words=False, sql_lower=True)
    if not with_tokens:
        return doc, None
    return doc, np.asarray(vocab.to_pylist(), dtype=object)[ids]


# -- benchmark contamination check -------------------------------------------


_EMPTY_GRAMS = pa.table(
    {
        "gh": pa.array([], pa.uint64()),
        "doc_id": pa.array([], pa.int64()),
    }
)


def _gram_table(t: pa.Table) -> pa.Table:
    """Per-doc DISTINCT word 5-grams as UINT64 hashes (first 8 bytes of
    the md5, big-endian — what the SQL oracle recomputes with
    ``('0x' || substr(md5(g), 1, 16))::UBIGINT``).
    8-byte keys instead of 32-char hex strings: ~4× smaller gram
    shuffle and integer (not string) group/isin kernels downstream.
    Tokenize + gram construction + per-doc dedup are vectorized
    (shifted object-array joins over the flat token stream, one
    ``drop_duplicates``); only the per-DISTINCT-gram md5 remains a
    Python loop."""
    parents, toks = _flat_tokens(t)
    n = len(toks)
    if n < GRAM_N:
        return _EMPTY_GRAMS
    # gram starts = positions whose (GRAM_N-1)-ahead token is still in
    # the same document (parents is nondecreasing)
    starts = np.flatnonzero(parents[: n - GRAM_N + 1] == parents[GRAM_N - 1 :])
    if len(starts) == 0:
        return _EMPTY_GRAMS
    grams = toks[starts].copy()
    for k in range(1, GRAM_N):
        grams = grams + " " + toks[starts + k]
    all_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    df = pd.DataFrame(
        {"doc_id": all_ids[parents[starts]], "gram": grams}
    ).drop_duplicates()
    digests = b"".join(hashlib.md5(x.encode()).digest() for x in df["gram"])
    gh = (
        np.frombuffer(digests, dtype=">u8").reshape(-1, 2)[:, 0]
        .astype(np.uint64)
    )
    return pa.table(
        {
            "gh": pa.array(gh, pa.uint64()),
            "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        }
    )


def q_contamination_check(sf_dir: str):
    """Benchmark-contamination scan: fraction of each document's
    distinct word 5-grams that also occur in a held-out "benchmark"
    set (docs with ``doc_id % 97 == 0``).  The decontamination step of
    a pretraining pipeline (cf. GPT-3 appendix C n-gram overlap).

    Shape: one gram pass over the corpus → per-bucket membership mark
    (benchmark grams of the bucket vs corpus grams of the bucket, a
    vectorized ``isin`` — never a broadcast of the benchmark set) →
    ``groupby(doc_id).sum``.  Returns the 100 most-contaminated
    non-benchmark docs.  NB is size-derived from the text column's
    token estimate (gram rows ≈ tokens), bounding per-bucket memory."""
    nb = bucket_count(
        parquet_token_estimate(f"{sf_dir}/documents.parquet"),
        min_buckets=NB_FLOOR,
    )
    grams = _docs(sf_dir).map_batches(_gram_table, batch_format="pyarrow")

    def mark_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_bench = g["doc_id"] % BENCH_MOD == 0
        d = g.loc[~is_bench, ["doc_id", "gh"]]
        hit = d["gh"].isin(g.loc[is_bench, "gh"].unique()).astype("int64")
        return (
            pd.DataFrame({"doc_id": d["doc_id"], "n": 1, "hit": hit})
            .groupby("doc_id", as_index=False)
            .sum()
            .astype("int64")
        )

    # second phase: sum the ≤nb per-bucket partials of each doc in
    # doc-hash buckets, not groupby(doc_id).aggregate: Ray's sort-based
    # Aggregate spent ~24 s remote on this tiny (≤ nb·n_docs rows)
    # stream at sf0.1, the bucketed shape ~0.4 s
    per_doc = bucket_sums(
        bucketed(grams, "gh", nb, mark_bucket),
        "doc_id",
        nb,
        {"n_grams": ("n", "sum"), "n_contaminated": ("hit", "sum")},
    )

    def finish(t: pa.Table) -> pa.Table:
        # floor(x*1e6 + 0.5)/1e6, not round(): half-up on both sides
        # (ratios of small ints DO land on exact ties, e.g. 1/128)
        frac = pc.divide(
            pc.floor(
                pc.add(
                    pc.multiply(
                        pc.divide(
                            pc.cast(t["n_contaminated"], pa.float64()),
                            pc.cast(t["n_grams"], pa.float64()),
                        ),
                        pa.scalar(1e6),
                    ),
                    pa.scalar(0.5),
                )
            ),
            pa.scalar(1e6),
        )
        return t.append_column("contamination_frac", frac)

    out = per_doc.map_batches(finish, batch_format="pyarrow")
    return out.sort(
        ["contamination_frac", "doc_id"], descending=[True, False]
    ).limit(100)


SQL_CONTAMINATION_CHECK = f"""
WITH toks AS ({_SQL_TOKLIST}),
grams AS (
    SELECT DISTINCT doc_id,
           ('0x' || substr(md5(array_to_string(l[i:i+{GRAM_N - 1}], ' ')),
                           1, 16))::UBIGINT AS gh
    FROM toks, unnest(generate_series(1, greatest(len(l) - {GRAM_N - 1}, 0))) AS t(i)
),
bench AS (SELECT DISTINCT gh FROM grams WHERE doc_id % {BENCH_MOD} = 0),
agg AS (
    SELECT g.doc_id,
           count(*) AS n_grams,
           count(b.gh) AS n_contaminated
    FROM grams g LEFT JOIN bench b USING (gh)
    WHERE g.doc_id % {BENCH_MOD} <> 0
    GROUP BY g.doc_id
)
SELECT doc_id, n_grams, n_contaminated,
       floor(CAST(n_contaminated AS DOUBLE) / CAST(n_grams AS DOUBLE)
             * 1000000 + 0.5) / 1000000.0 AS contamination_frac
FROM agg
ORDER BY contamination_frac DESC, doc_id
LIMIT 100
"""


# -- repetition quality signals -----------------------------------------------


def q_repetition_signals(sf_dir: str):
    """Gopher-style repetition signals per document: token count,
    duplicate-token fraction (1 - distinct/total) and most-frequent-
    token fraction (max count / total).  High values flag boilerplate
    / degenerate pages for a quality filter.

    One embarrassingly-parallel pass — per-batch Counters, no shuffle;
    the integer counts make the rounded fractions order-independent."""

    def signals(t: pa.Table) -> pa.Table:
        parents, toks = _flat_tokens(t)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "dup_frac": pa.array([], pa.float64()),
                "top_frac": pa.array([], pa.float64()),
            }
        )
        if len(parents) == 0:
            return empty  # token-less docs have no signal row (SQL parity)
        wc = (
            pd.DataFrame({"p": parents, "w": toks})
            .groupby(["p", "w"], sort=False)
            .size()
        )
        per = wc.groupby(level=0).agg(["sum", "count", "max"]).sort_index()
        all_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = per["sum"].to_numpy(dtype=np.float64)

        def r6(x: np.ndarray) -> np.ndarray:
            # half-up like the SQL side (ratios of small ints DO tie)
            return np.floor(x * 1e6 + 0.5) / 1e6

        return pa.table(
            {
                "doc_id": pa.array(all_ids[per.index.to_numpy()], pa.int64()),
                "n_tokens": pa.array(per["sum"].to_numpy(np.int64), pa.int64()),
                "dup_frac": pa.array(
                    r6(1.0 - per["count"].to_numpy(dtype=np.float64) / n),
                    pa.float64(),
                ),
                "top_frac": pa.array(
                    r6(per["max"].to_numpy(dtype=np.float64) / n), pa.float64()
                ),
            }
        )

    return _docs(sf_dir).map_batches(signals, batch_format="pyarrow")


SQL_REPETITION_SIGNALS = f"""
WITH toks AS ({_SQL_TOKLIST}),
words AS (
    SELECT doc_id, unnest(l) AS word FROM toks
),
wc AS (
    SELECT doc_id, word, count(*) AS c FROM words GROUP BY doc_id, word
)
SELECT doc_id,
       CAST(sum(c) AS BIGINT) AS n_tokens,
       floor((1.0 - CAST(count(*) AS DOUBLE) / CAST(sum(c) AS DOUBLE))
             * 1000000 + 0.5) / 1000000.0 AS dup_frac,
       floor(CAST(max(c) AS DOUBLE) / CAST(sum(c) AS DOUBLE)
             * 1000000 + 0.5) / 1000000.0 AS top_frac
FROM wc
GROUP BY doc_id
"""


# -- unigram LM commonness score ----------------------------------------------


def q_lm_unigram_score(sf_dir: str):
    """Unigram language-model scoring of each document against the
    corpus itself: ``score = mean over doc tokens of p(w)`` where
    ``p(w) = corpus_count(w) / total_tokens``.  Low scores flag
    out-of-distribution / garbled docs; the standard cheap LM-quality
    gate before an expensive model-based one.

    Kept hash-exact by staying rational: the per-doc reduction is the
    integer sum of ``c_dw * c_w`` (count products); the only float ops
    are the two final divisions, applied in the same order as the SQL
    oracle.  Shape: per-doc partial counts → global ``groupby(word)``
    frequency table → per-word-bucket join back (no vocab broadcast)
    → ``groupby(doc_id).sum``.  NB size-derived (word-count rows ≤
    token estimate), bounding per-bucket memory at any corpus size."""
    nb = bucket_count(
        parquet_token_estimate(f"{sf_dir}/documents.parquet"),
        min_buckets=NB_FLOOR,
    )

    def doc_counts(t: pa.Table) -> pa.Table:
        # vectorized: flat tokens → one pandas groupby for the per-doc
        # word counts
        parents, toks = _flat_tokens(t)
        if len(parents) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "word": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        wc = (
            pd.DataFrame({"p": parents, "word": toks})
            .groupby(["p", "word"], sort=False)
            .size()
            .reset_index(name="c")
        )
        all_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(all_ids[wc["p"].to_numpy()], pa.int64()),
                "word": pa.array(wc["word"], pa.string()),
                "c": pa.array(wc["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    dc = _docs(sf_dir).map_batches(doc_counts, batch_format="pyarrow")

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # corpus frequency of each word in this bucket = sum over docs
        cw = g.groupby("word")["c"].sum()
        prod = g["c"].to_numpy(dtype=np.int64) * cw.loc[
            g["word"]
        ].to_numpy(dtype=np.int64)
        out = pd.DataFrame(
            {"doc_id": g["doc_id"], "n": g["c"], "prod": prod}
        ).groupby("doc_id", as_index=False).sum()
        return out.astype("int64")

    # per_doc is doc-sized (3 ints per doc) — materializing it is the
    # cheap way to read the global token total off it without a second
    # pass over the word-level stream
    per_doc = bucket_sums(
        bucketed(dc, "word", nb, score_bucket),
        "doc_id",
        nb,
        {"n_tokens": ("n", "sum"), "p": ("prod", "sum")},
    ).materialize()
    total = per_doc.aggregate(Sum("n_tokens", alias_name="s"))["s"] or 0

    def finish(t: pa.Table) -> pa.Table:
        raw = pc.divide(
            pc.divide(
                pc.cast(t["p"], pa.float64()),
                pc.cast(t["n_tokens"], pa.float64()),
            ),
            pa.scalar(float(total)),
        )
        # half-up on both sides (see q_contamination_check)
        score = pc.divide(
            pc.floor(pc.add(pc.multiply(raw, pa.scalar(1e6)), pa.scalar(0.5))),
            pa.scalar(1e6),
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["n_tokens"],
                "lm_score": score,
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


SQL_LM_UNIGRAM_SCORE = f"""
WITH toks AS ({_SQL_TOKLIST}),
words AS (SELECT doc_id, unnest(l) AS word FROM toks),
wc AS (SELECT doc_id, word, count(*) AS c FROM words GROUP BY doc_id, word),
freq AS (SELECT word, CAST(sum(c) AS BIGINT) AS cw FROM wc GROUP BY word),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS t FROM wc),
agg AS (
    SELECT wc.doc_id,
           CAST(sum(wc.c) AS BIGINT) AS n_tokens,
           CAST(sum(wc.c * freq.cw) AS BIGINT) AS p
    FROM wc JOIN freq USING (word)
    GROUP BY wc.doc_id
)
SELECT doc_id, n_tokens,
       floor(CAST(p AS DOUBLE) / CAST(n_tokens AS DOUBLE)
             / CAST((SELECT t FROM tot) AS DOUBLE) * 1000000 + 0.5)
           / 1000000.0 AS lm_score
FROM agg
"""


# -- bigram LM commonness score ------------------------------------------------


def q_lm_bigram_score(sf_dir: str):
    """Bigram language-model scoring of each document against the
    corpus itself: ``score = mean over doc bigrams of q(b)`` where
    ``q(b) = corpus_count(b) / total_bigrams`` — the order-aware
    sibling of :func:`q_lm_unigram_score` (a doc full of common words
    in garbled ORDER scores high on unigrams but low here; the pair of
    scores is the standard cheap fluency gate before a model-based
    one).  Docs with < 2 tokens have no bigrams and are absent from
    the result, exactly like the SQL aggregate.

    Kept hash-exact by staying rational (the unigram discipline): the
    per-doc reduction is the integer sum of ``c_db * C_b``; the only
    float ops are the two final divisions, applied in the SQL oracle's
    order.  Shape: vectorized per-doc bigram counts (shifted flat
    token arrays masked at doc boundaries — no per-doc Python loop) →
    per-BIGRAM-hash bucket ``map_groups`` where every occurrence of a
    bigram is co-located, so one pandas groupby yields the corpus
    count and the additive per-doc ``c·C`` partials → per-DOC-hash
    bucket sum of ≤nb partials.  At 100 TB each exchange moves the
    per-doc distinct-bigram stream (≈ token count), never the corpus
    cross product; nb is size-derived so per-bucket memory is bounded.
    """
    nb = bucket_count(
        parquet_token_estimate(f"{sf_dir}/documents.parquet"),
        min_buckets=NB_FLOOR,
    )

    _empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "bigram": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
        }
    )

    def doc_bigram_counts(t: pa.Table) -> pa.Table:
        parents, toks = _flat_tokens(t)
        if len(parents) < 2:
            return _empty
        # adjacent pairs within one doc: mask the shifted token stream
        # at document boundaries (the q_bigram_counts kernel)
        same = parents[1:] == parents[:-1]
        if not same.any():
            return _empty
        p = parents[:-1][same]
        bg = pd.Series(toks[:-1][same]) + " " + pd.Series(toks[1:][same])
        bc = (
            pd.DataFrame({"p": p, "bigram": bg.to_numpy()})
            .groupby(["p", "bigram"], sort=False)
            .size()
            .reset_index(name="c")
        )
        all_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(all_ids[bc["p"].to_numpy()], pa.int64()),
                "bigram": pa.array(bc["bigram"], pa.string()),
                "c": pa.array(bc["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    dc = _docs(sf_dir).map_batches(doc_bigram_counts, batch_format="pyarrow")

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cb = g.groupby("bigram")["c"].sum()
        prod = g["c"].to_numpy(dtype=np.int64) * cb.loc[
            g["bigram"]
        ].to_numpy(dtype=np.int64)
        out = pd.DataFrame(
            {"doc_id": g["doc_id"], "n": g["c"], "prod": prod}
        ).groupby("doc_id", as_index=False).sum()
        return out.astype("int64")

    per_doc = bucket_sums(
        bucketed(dc, "bigram", nb, score_bucket),
        "doc_id",
        nb,
        {"n_bigrams": ("n", "sum"), "p": ("prod", "sum")},
    ).materialize()
    total = per_doc.aggregate(Sum("n_bigrams", alias_name="s"))["s"] or 0

    def finish(t: pa.Table) -> pa.Table:
        raw = pc.divide(
            pc.divide(
                pc.cast(t["p"], pa.float64()),
                pc.cast(t["n_bigrams"], pa.float64()),
            ),
            pa.scalar(float(total)),
        )
        score = pc.divide(
            pc.floor(pc.add(pc.multiply(raw, pa.scalar(1e6)), pa.scalar(0.5))),
            pa.scalar(1e6),
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bigrams": t["n_bigrams"],
                "lm2_score": score,
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


SQL_LM_BIGRAM_SCORE = f"""
WITH toks AS ({_SQL_TOKLIST}),
pairs AS (
    SELECT doc_id,
           unnest(list_zip(l[1:len(l) - 1], l[2:len(l)])) AS pr
    FROM toks WHERE len(l) >= 2
),
bc AS (
    SELECT doc_id, pr[1] || ' ' || pr[2] AS bigram, count(*) AS c
    FROM pairs GROUP BY doc_id, bigram
),
freq AS (SELECT bigram, CAST(sum(c) AS BIGINT) AS cb FROM bc GROUP BY bigram),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS t FROM bc),
agg AS (
    SELECT bc.doc_id,
           CAST(sum(bc.c) AS BIGINT) AS n_bigrams,
           CAST(sum(bc.c * freq.cb) AS BIGINT) AS p
    FROM bc JOIN freq USING (bigram)
    GROUP BY bc.doc_id
)
SELECT doc_id, n_bigrams,
       floor(CAST(p AS DOUBLE) / CAST(n_bigrams AS DOUBLE)
             / CAST((SELECT t FROM tot) AS DOUBLE) * 1000000 + 0.5)
           / 1000000.0 AS lm2_score
FROM agg
"""


# -- sequence packing (distributed prefix sum) --------------------------------

SEQ_LEN = 2048  # pack capacity in tokens (a typical pretraining context)
PACK_BUCKET = 1024  # doc_ids per prefix-scan partition


def q_pack_sequences(sf_dir: str):
    """Greedy contiguous sequence packing: documents are concatenated
    in doc_id order and cut into fixed ``SEQ_LEN``-token training
    sequences; each doc reports the pack it starts in and its offset
    there — the bookkeeping a pretraining dataloader needs to pack
    short documents without padding waste.

    Distributed shape — a prefix SUM scan, not a global sort (mirrors
    ``events.q_window_late_data``'s prefix-max): tokenize once into a
    doc-sized (bucket, doc_id, n_tokens) intermediate (3 ints per doc;
    bucket = doc_id // 1024 so the bucket index IS doc order); phase 1
    reduces each bucket to one token-count scalar and the driver
    prefix-sums those ≤ |buckets| scalars (kilobytes at any corpus
    size); phase 2 re-walks each bucket seeded with its predecessors'
    prefix — in-bucket cumsum is one vectorized numpy pass.  All
    arithmetic is integer, hence hash-exact vs the SQL window oracle."""
    import ray

    def count_tokens(t: pa.Table) -> pa.Table:
        # counts only — the vectorized tokenizer skips materializing
        # the token strings entirely
        parents, _ = _flat_tokens(t, with_tokens=False)
        ns = np.bincount(parents, minlength=t.num_rows).astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(ids // PACK_BUCKET, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    # tokenize ONCE; the intermediate is 3 ints/doc, cheap to reuse in
    # both phases (the alternative re-tokenizes the corpus in phase 2)
    counts = (
        _docs(sf_dir)
        .map_batches(count_tokens, batch_format="pyarrow")
        .materialize()
    )

    bm = (
        counts.groupby("bucket")
        .aggregate(Sum("n", alias_name="s"))
        .to_pandas()
        .sort_values("bucket")
    )
    buckets = bm["bucket"].to_numpy().astype(np.int64)
    prefix = np.concatenate(
        [[np.int64(0)], np.cumsum(bm["s"].to_numpy().astype(np.int64))[:-1]]
    )
    small = ray.put((buckets, prefix))

    def pack_bucket(g: pd.DataFrame) -> pa.Table:
        bkts, pref = ray.get(small)
        g = g.sort_values("doc_id")
        n = g["n"].to_numpy(dtype=np.int64)
        seed = pref[np.searchsorted(bkts, int(g["bucket"].iloc[0]))]
        start = seed + np.concatenate([[np.int64(0)], np.cumsum(n)[:-1]])
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64)),
                "n_tokens": pa.array(n),
                "start_tok": pa.array(start),
                "pack_id": pa.array(start // SEQ_LEN),
                "pack_offset": pa.array(start % SEQ_LEN),
            }
        )

    return counts.groupby("bucket").map_groups(pack_bucket, batch_format="pandas")


SQL_PACK_SEQUENCES = f"""
WITH toks AS ({_SQL_TOKLIST}),
n AS (SELECT doc_id, CAST(len(l) AS BIGINT) AS n_tokens FROM toks),
c AS (
    SELECT doc_id, n_tokens,
           COALESCE(sum(n_tokens) OVER (
               ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS start_tok
    FROM n
)
SELECT doc_id, n_tokens, CAST(start_tok AS BIGINT) AS start_tok,
       CAST(start_tok // {SEQ_LEN} AS BIGINT) AS pack_id,
       CAST(start_tok % {SEQ_LEN} AS BIGINT) AS pack_offset
FROM c
"""


# -- fixed-stride document chunking -------------------------------------------

CHUNK_LEN = 128  # tokens per chunk (a typical RAG/embedding chunk size)
CHUNK_STRIDE = 96  # stride (CHUNK_LEN - CHUNK_STRIDE = 32 tokens overlap)


def q_chunk_documents(sf_dir: str):
    """Fixed-stride token chunking with overlap: each document becomes
    ``1 + ceil(max(n - 128, 0) / 96)`` chunks of ≤ 128 tokens starting
    every 96 tokens (32-token overlap) — the RAG / embedding-prep
    chunker.  Chunks are identified by the md5 of their joined tokens
    so the expansion is hash-verifiable without shipping chunk text.

    Embarrassingly parallel flat-map (one pass, no shuffle); the
    per-doc loop is over CHUNKS (a handful per doc), with tokenization
    and hashing the per-token work."""

    def chunks(t: pa.Table) -> pa.Table:
        # vectorized tokenize; the remaining loop is over CHUNKS (a
        # handful per doc) with md5 the per-chunk work
        parents, toks = _flat_tokens(t)
        all_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.bincount(parents, minlength=t.num_rows)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        doc_ids, chunk_ids, lens, hashes = [], [], [], []
        for d in np.flatnonzero(counts):
            tl = toks[offsets[d] : offsets[d + 1]]
            n = int(counts[d])
            n_chunks = 1 + max(0, -(-(n - CHUNK_LEN) // CHUNK_STRIDE))
            for j in range(n_chunks):
                lo = j * CHUNK_STRIDE
                hi = min(lo + CHUNK_LEN, n)
                doc_ids.append(all_ids[d])
                chunk_ids.append(j)
                lens.append(hi - lo)
                hashes.append(
                    hashlib.md5(" ".join(tl[lo:hi]).encode()).hexdigest()
                )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "chunk_id": pa.array(chunk_ids, pa.int64()),
                "chunk_len": pa.array(lens, pa.int64()),
                "chunk_hash": pa.array(hashes, pa.string()),
            }
        )

    return _docs(sf_dir).map_batches(chunks, batch_format="pyarrow")


SQL_CHUNK_DOCUMENTS = f"""
WITH toks AS ({_SQL_TOKLIST}),
n AS (SELECT doc_id, l, CAST(len(l) AS BIGINT) AS n FROM toks WHERE len(l) > 0),
ch AS (
    SELECT doc_id, i - 1 AS chunk_id,
           l[(i - 1) * {CHUNK_STRIDE} + 1 :
             (i - 1) * {CHUNK_STRIDE} + {CHUNK_LEN}] AS cl
    FROM n, unnest(generate_series(
        1, 1 + CAST(ceil(greatest(n - {CHUNK_LEN}, 0)
                         / {CHUNK_STRIDE}.0) AS BIGINT))) AS t(i)
)
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
       CAST(len(cl) AS BIGINT) AS chunk_len,
       md5(array_to_string(cl, ' ')) AS chunk_hash
FROM ch
"""


# -- BM25 relevance scoring ---------------------------------------------------

BM25_K1 = 1.2
BM25_B = 0.75
BM25_TERMS = ("filter", "join", "window")  # fixed query, sorted
BM25_GRID = 1_000_000  # contribution quantization grid (order-free sum)


def q_bm25_scores(sf_dir: str):
    """Okapi BM25 scores of every document against a fixed query
    (idf·tf saturation with length normalization, k1=1.2 b=0.75;
    idf = ln(1 + (N − df + 0.5)/(df + 0.5)) — the positive variant) —
    the ranking function the reference's TfIdf job (``src/jobs/
    TfIdf.java:212-226``) approximates, in its modern form.

    Order-exactness: each (doc, term) contribution quantizes to
    integer micro-units with floor(x·1e6 + 0.5) BEFORE the per-doc
    sum, so the reduce is order-free integer addition and the SQL
    oracle hash-matches.  Shape: one tokenize pass to a doc-sized
    (doc_id, dl, c_term…) intermediate; global (N, avgdl, df) reduce
    to a handful of scalars broadcast back; one scoring pass.  No
    shuffle wider than the scalar reduce — the query-term set is a
    compile-time constant, so per-doc term counts need no join."""
    import ray

    terms = list(BM25_TERMS)

    def counts(t: pa.Table) -> pa.Table:
        # vectorized: doc length + per-term counts are bincounts over
        # the flat token stream
        parents, toks = _flat_tokens(t)
        nrows = t.num_rows
        dl = np.bincount(parents, minlength=nrows).astype(np.int64)
        has = dl > 0
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {"doc_id": ids[has], "dl": dl[has]}
        for w in terms:
            cw = np.bincount(
                parents[toks == w], minlength=nrows
            ).astype(np.int64)
            cols[f"c_{w}"] = cw[has]
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in cols.items()}
        )

    per_doc = (
        _docs(sf_dir).map_batches(counts, batch_format="pyarrow").materialize()
    )
    def partial_df(t: pa.Table) -> pa.Table:
        # per-batch: doc count + df partials (docs where c_w > 0)
        out = {"nd": pa.array([t.num_rows], pa.int64())}
        for w in terms:
            out[f"df_{w}"] = pa.array(
                [int(pc.sum(pc.greater(t[f"c_{w}"], 0)).as_py() or 0)], pa.int64()
            )
        out["tot"] = pa.array([int(pc.sum(t["dl"]).as_py() or 0)], pa.int64())
        return pa.table(out)

    g = per_doc.map_batches(partial_df, batch_format="pyarrow").to_pandas().sum()
    N, tot = int(g["nd"]), int(g["tot"])
    avgdl = tot / N if N else 1.0
    df = {w: int(g[f"df_{w}"]) for w in terms}
    idf = {
        w: math.log(1.0 + (N - df[w] + 0.5) / (df[w] + 0.5)) for w in terms
    }
    small = ray.put((idf, avgdl))

    def score(t: pa.Table) -> pa.Table:
        idf_, avgdl_ = ray.get(small)
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        total = np.zeros(t.num_rows, dtype=np.int64)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl_)
        for w in terms:
            c = t[f"c_{w}"].to_numpy(zero_copy_only=False).astype(np.float64)
            contrib = idf_[w] * (c * (BM25_K1 + 1.0)) / (c + norm)
            total += np.floor(contrib * BM25_GRID + 0.5).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "dl": t["dl"],
                "bm25": pa.array(total.astype(np.float64) / BM25_GRID,
                                 pa.float64()),
            }
        )

    return per_doc.map_batches(score, batch_format="pyarrow")


def sql_bm25_scores() -> str:
    terms_vals = ", ".join(f"('{w}')" for w in BM25_TERMS)
    return f"""
WITH toks AS ({_SQL_TOKLIST}),
n AS (SELECT doc_id, l, CAST(len(l) AS BIGINT) AS dl FROM toks WHERE len(l) > 0),
stats AS (
    SELECT count(*) AS nd, sum(dl) AS tot FROM n
),
terms(term) AS (VALUES {terms_vals}),
tc AS (
    SELECT doc_id, dl, term,
           CAST(len(list_filter(l, w -> w = term)) AS BIGINT) AS c
    FROM n, terms
),
dft AS (
    SELECT term, CAST(count(*) FILTER (WHERE c > 0) AS BIGINT) AS df
    FROM tc GROUP BY term
),
contrib AS (
    SELECT tc.doc_id, tc.dl,
           CAST(floor(
               ln(1.0 + (s.nd - d.df + 0.5) / (d.df + 0.5))
               * (tc.c * ({BM25_K1} + 1.0))
               / (tc.c + {BM25_K1} * (1.0 - {BM25_B}
                    + {BM25_B} * tc.dl / (CAST(s.tot AS DOUBLE) / s.nd)))
               * {BM25_GRID} + 0.5) AS BIGINT) AS ci
    FROM tc JOIN dft d USING (term), stats s
)
SELECT doc_id, dl, sum(ci) / {BM25_GRID}.0 AS bm25
FROM contrib GROUP BY doc_id, dl
"""


# -- batched model inference (task stage) -------------------------------------

MODEL_WEIGHT_MOD = 1000  # md5-derived per-word weight domain
MODEL_SCORE_MICRO = 1_000_000  # fixed-point output scale


class DocScorerModel:
    """Batched-inference stage: the "model" is set up in ``__init__``
    (a weight memo that grows across the batches of one task, standing
    in for a real classifier / reward model), and ``__call__`` scores a
    whole Arrow batch vectorized.  The stand-in's setup is free, so an
    INSTANCE is passed to ``map_batches`` and runs as a task fused into
    the read.  An actor pool pays only when per-process setup (a real
    model load) costs more than starting the pool; a real model would
    pass the class with ``concurrency=N``.

    The stand-in model is deterministic and ORACLE-RECOMPUTABLE: each
    word's weight is ``md5(word) % 1000`` (first 8 bytes big-endian),
    a doc's score is the integer fixed-point mean weight
    ``(sum_w * 10^6) // (1000 * n_tokens)`` — all-integer, so the
    distributed result is bit-equal to the SQL no matter the batch
    split.  Swapping in a real model changes ``__init__``/`_weigh`
    only; the Ray plumbing (schema, batching, callable signature) is
    exactly what a real scorer uses."""

    def __init__(self) -> None:
        self._memo: dict[str, int] = {}

    def _weigh(self, words: np.ndarray) -> np.ndarray:
        memo = self._memo
        out = np.empty(len(words), dtype=np.int64)
        for i, w in enumerate(words):
            v = memo.get(w)
            if v is None:
                v = memo[w] = int.from_bytes(
                    hashlib.md5(w.encode()).digest()[:8], "big"
                ) % MODEL_WEIGHT_MOD
            out[i] = v
        return out

    def __call__(self, t: pa.Table) -> pa.Table:
        n_docs = t.num_rows
        pn, toks = _flat_tokens(t)
        sums = np.zeros(n_docs, dtype=np.int64)
        counts = np.bincount(pn, minlength=n_docs).astype(np.int64)
        if len(pn):
            uniq, inv = np.unique(toks, return_inverse=True)
            np.add.at(sums, pn, self._weigh(uniq)[inv])
        score = np.zeros(n_docs, dtype=np.int64)
        nz = counts > 0
        score[nz] = (sums[nz] * MODEL_SCORE_MICRO) // (
            MODEL_WEIGHT_MOD * counts[nz]
        )
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_tokens": pa.array(counts, pa.int64()),
                "score_micro": pa.array(score, pa.int64()),
            }
        )


def q_model_score(sf_dir: str):
    """Score every document with the model stage — shuffle-free,
    embarrassingly parallel; per-stage ``batch_size`` bounds each
    inference call the way a real GPU/CPU scorer would."""
    return _docs(sf_dir).map_batches(
        DocScorerModel(), batch_size=2048, batch_format="pyarrow"
    )


SQL_MODEL_SCORE = f"""
WITH tok AS (
    SELECT doc_id, unnest(l) AS word FROM ({_SQL_TOKLIST})
),
agg AS (
    SELECT doc_id,
           CAST(sum(('0x' || substr(md5(word), 1, 16))::UBIGINT
                    % {MODEL_WEIGHT_MOD}) AS BIGINT) AS sw,
           count(*) AS n
    FROM tok GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(a.n, 0) AS n_tokens,
       coalesce((a.sw * {MODEL_SCORE_MICRO})
                // ({MODEL_WEIGHT_MOD} * a.n), 0) AS score_micro
FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
"""


# -- per-source token budget cap (keyed prefix-scan quota) ---------------------

BUDGET_CAP = 700  # tokens each source may contribute to the mixture
BUDGET_BUCKET = 1024  # doc_ids per range bucket (bucket index IS doc order)


def q_token_budget_cap(sf_dir: str):
    """Per-source token quota: walking each source's documents in
    doc_id order, keep a document only while the source's running
    token total stays within ``BUDGET_CAP`` — the domain-budget verb a
    training-mixture builder runs so no single source dominates
    (the reference's appendCapped is the same greedy-quota idea on a
    KVS row, ``src/kvs/Worker.java`` appendCapped route).

    Distributed shape = ``q_pack_sequences``' prefix scan, PER KEY:
    tokenize once into a (source, range-bucket, doc_id, n) intermediate
    (bucket = doc_id // BUDGET_BUCKET, so bucket order IS doc order);
    phase 1 reduces every (source, bucket) to one token-count scalar
    and the driver prefix-sums them per source (≤ |sources|·|buckets|
    scalars); phase 2 re-walks each (source, bucket) group seeded with
    its predecessors' total — in-group cumsum is one vectorized numpy
    pass, and rows past the cap drop.  All-integer ⇒ hash-exact vs the
    SQL window oracle at any batch split."""
    import ray

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )

    def count_tokens(t: pa.Table) -> pa.Table:
        parents, _ = _flat_tokens(t, with_tokens=False)
        ns = np.bincount(parents, minlength=t.num_rows).astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "source": t["source"],
                "bucket": pa.array(ids // BUDGET_BUCKET, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    counts = docs.map_batches(count_tokens, batch_format="pyarrow").materialize()

    bm = (
        counts.groupby(["source", "bucket"])
        .aggregate(Sum("n", alias_name="s"))
        .to_pandas()
        .sort_values(["source", "bucket"])
    )
    s = bm["s"].to_numpy(np.int64)
    cs = np.cumsum(s)
    src = bm["source"].to_numpy(object)
    first = np.concatenate([[True], src[1:] != src[:-1]])
    # exclusive per-source prefix: global cumsum minus each source's base
    base = np.repeat((cs - s)[first], np.diff(
        np.concatenate([np.flatnonzero(first), [len(s)]])
    ))
    seeds = {
        (str(a), int(b)): int(p)
        for a, b, p in zip(src, bm["bucket"], (cs - s) - base)
    }
    small = ray.put(seeds)

    def cap_group(g: pd.DataFrame) -> pd.DataFrame:
        seed = ray.get(small)[
            (str(g["source"].iloc[0]), int(g["bucket"].iloc[0]))
        ]
        g = g.sort_values("doc_id")
        n = g["n"].to_numpy(np.int64)
        cum = seed + np.cumsum(n)
        keep = cum <= BUDGET_CAP
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64)[keep],
                "source": g["source"].to_numpy(object)[keep],
                "n_tokens": n[keep],
                "cum_tokens": cum[keep],
            }
        )

    return counts.groupby(["source", "bucket"]).map_groups(
        cap_group, batch_format="pandas"
    )


SQL_TOKEN_BUDGET_CAP = f"""
WITH n AS (
    SELECT doc_id, source,
           CAST(len(list_filter(
               string_split_regex(lower(COALESCE(text, '')), '[^a-z]+'),
               w -> w <> '' AND length(w) <= {MAX_WORD_LENGTH})) AS BIGINT)
               AS n_tokens
    FROM documents
),
c AS (
    SELECT doc_id, source, n_tokens,
           CAST(sum(n_tokens) OVER (
               PARTITION BY source ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
           ) AS BIGINT) AS cum_tokens
    FROM n
)
SELECT doc_id, source, n_tokens, cum_tokens
FROM c WHERE cum_tokens <= {BUDGET_CAP}
"""


# -- exact duplicated-substring coverage (Lee et al. 2022 shape) ---------------


def q_dup_spans(sf_dir: str):
    """Exact substring-level self-dedup scan: for every document, how
    much of it is covered by word 5-grams that ALSO occur in at least
    one OTHER document — the corpus-level exact-duplicate-span signal
    of Lee et al. 2022 ("Deduplicating Training Data Makes Language
    Models Better"), at word-gram granularity.  Returns one row per
    document that has at least one cross-document duplicated gram:
    ``dup_starts`` (number of duplicated gram occurrences) and
    ``dup_tokens`` (tokens covered by the union of their ±5 spans —
    the removable mass).

    Shape: one gram-occurrence pass (vectorized tokenize, md5 only per
    DISTINCT gram in the batch, ``factorize`` to map back) → ONE
    gram-hash exchange where each bucket holds every occurrence of its
    grams, so "appears in ≥2 distinct docs" AND the position semi-join
    resolve in the same task — then a doc-hash exchange for the
    per-doc interval-union (sorted-diff kernel, no 5× position
    blow-up).  NB is size-derived from the token estimate (occurrence
    rows ≈ tokens), bounding per-bucket memory at any corpus size.

    Gram identity is the FULL 128-bit md5 (two uint64 lanes, ``gh`` +
    ``gh2``; bucketing uses gh alone, equality uses both) — a top-64-bit
    key alone would merge colliding grams and miscount, while the SQL
    oracle compares real gram strings."""

    nb = bucket_count(
        parquet_token_estimate(f"{sf_dir}/documents.parquet"),
        min_buckets=NB_FLOOR,
    )

    _EMPTY_POS = pa.table(
        {
            "gh": pa.array([], pa.uint64()),
            "gh2": pa.array([], pa.uint64()),
            "doc_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
        }
    )

    def gram_positions(t: pa.Table) -> pa.Table:
        parents, toks = _flat_tokens(t)
        n = len(toks)
        if n < GRAM_N:
            return _EMPTY_POS
        starts = np.flatnonzero(
            parents[: n - GRAM_N + 1] == parents[GRAM_N - 1 :]
        )
        if len(starts) == 0:
            return _EMPTY_POS
        grams = toks[starts].copy()
        for k in range(1, GRAM_N):
            grams = grams + " " + toks[starts + k]
        codes, uniq = pd.factorize(grams)
        digests = b"".join(hashlib.md5(x.encode()).digest() for x in uniq)
        both = np.frombuffer(digests, dtype=">u8").reshape(-1, 2)
        gh = both[:, 0].astype(np.uint64)[codes]
        gh2 = both[:, 1].astype(np.uint64)[codes]
        # doc-relative token position (docs never split across rows)
        first_idx = np.searchsorted(parents, parents, side="left")
        pos = (starts - first_idx[starts]).astype(np.int64)
        all_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "gh": pa.array(gh, pa.uint64()),
                "gh2": pa.array(gh2, pa.uint64()),
                "doc_id": pa.array(all_ids[parents[starts]], pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    occurrences = _docs(sf_dir).map_batches(
        gram_positions, batch_format="pyarrow"
    )

    # per gh-bucket: every occurrence of each gram is here, so the
    # ≥2-distinct-docs test and the position semi-join are one task
    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        # gram key = (gh, gh2) — the full 128-bit digest, not just the
        # bucketing half; a transform-nunique keeps it one vectorized op
        nun = g.groupby(["gh", "gh2"])["doc_id"].transform("nunique")
        return g.loc[nun.to_numpy() >= 2, ["doc_id", "pos"]]

    def cover_doc_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "pos"])
        ids = g["doc_id"].to_numpy(np.int64)
        pos = g["pos"].to_numpy(np.int64)
        # interval-union of fixed-length [pos, pos+5) spans per doc:
        # first span of a doc contributes 5, each next min(gap, 5)
        new_doc = np.r_[True, ids[1:] != ids[:-1]]
        gap = np.r_[np.int64(GRAM_N), pos[1:] - pos[:-1]]
        contrib = np.where(new_doc, GRAM_N, np.minimum(gap, GRAM_N))
        return (
            pd.DataFrame(
                {"doc_id": ids, "dup_starts": 1, "dup_tokens": contrib}
            )
            .groupby("doc_id", as_index=False)
            .sum()
            .astype("int64")
        )

    dups = bucketed(occurrences, "gh", nb, dup_positions)
    return bucketed(dups, "doc_id", nb, cover_doc_bucket)


SQL_DUP_SPANS = f"""
WITH toks AS ({_SQL_TOKLIST}),
g AS (
    SELECT doc_id, i AS pos,
           array_to_string(l[i:i+{GRAM_N - 1}], ' ') AS gram
    FROM toks,
         unnest(generate_series(1, greatest(len(l) - {GRAM_N - 1}, 0)))
             AS t(i)
),
dup AS (
    SELECT gram FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
),
hit AS (
    SELECT doc_id, pos FROM g WHERE gram IN (SELECT gram FROM dup)
),
cov AS (
    SELECT DISTINCT doc_id, pos + o AS p
    FROM hit, unnest(generate_series(0, {GRAM_N - 1})) AS u(o)
),
a AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dup_starts
      FROM hit GROUP BY doc_id),
b AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dup_tokens
      FROM cov GROUP BY doc_id)
SELECT a.doc_id, a.dup_starts, b.dup_tokens
FROM a JOIN b USING (doc_id)
"""


# -- deterministic corpus splits + weighted sampling --------------------------

SPLIT_BOUNDS = (80, 90)  # md5 % 100: <80 train, <90 val, else test
WEIGHTED_SAMPLE_K = 40


def q_split_assign(sf_dir: str):
    """Deterministic train/val/test split assignment by content-stable
    hash: ``md5(doc_id) % 100`` → <80 train, <90 val, else test — the
    standard way to split a training corpus so membership is stable
    under re-runs, re-partitioning and incremental ingest (no global
    sort, no RNG state).  Returns per-split (n_docs, sum_chars,
    id_sum); ``id_sum`` is an order-free exact membership fingerprint,
    so the oracle checks WHICH docs landed in each split, not just how
    many.

    Shape: embarrassingly parallel — each block partial-aggregates to
    ≤ 3 rows; a tiny groupby merges.  md5 runs once per row (linear,
    inside map_batches) — the established md5-parity pattern
    (contamination_check grams)."""
    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    lo, hi = SPLIT_BOUNDS

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pct = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(str(i).encode()).digest()[:4], "big"
                )
                % 100
                for i in ids
            ),
            dtype=np.int64,
            count=len(ids),
        )
        split = np.where(pct < lo, "train", np.where(pct < hi, "val", "test"))
        return (
            pa.table(
                {
                    "split": pa.array(split, pa.string()),
                    "n_docs": pa.array(np.ones(len(ids), np.int64)),
                    "sum_chars": pc.cast(t["n_chars"], pa.int64()),
                    "id_sum": pa.array(ids),
                }
            )
            .group_by("split")
            .aggregate([("n_docs", "sum"), ("sum_chars", "sum"), ("id_sum", "sum")])
            .rename_columns(["split", "n_docs", "sum_chars", "id_sum"])
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "split": [g["split"].iloc[0]],
                "n_docs": [np.int64(g["n_docs"].sum())],
                "sum_chars": [np.int64(g["sum_chars"].sum())],
                "id_sum": [np.int64(g["id_sum"].sum())],
            }
        )

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("split")
        .map_groups(merge, batch_format="pandas")
    )


SQL_SPLIT_ASSIGN = f"""
WITH h AS (
  SELECT doc_id, n_chars,
         ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
         % 100 AS pct
  FROM documents
)
SELECT CASE WHEN pct < {SPLIT_BOUNDS[0]} THEN 'train'
            WHEN pct < {SPLIT_BOUNDS[1]} THEN 'val'
            ELSE 'test' END AS split,
       count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       CAST(sum(doc_id) AS BIGINT) AS id_sum
FROM h
GROUP BY 1
"""


def q_weighted_sample(sf_dir: str):
    """Deterministic weight-proportional sample WITHOUT replacement —
    priority sampling (Duffield–Lund–Thorup 2007): each doc draws a
    deterministic uniform ``u = md5(doc_id)[:8] as uint64`` and gets
    priority ``key = u / w`` with weight ``w = n_chars``; the sample is
    the ``WEIGHTED_SAMPLE_K`` smallest keys.  Longer documents are
    proportionally likelier to be drawn, and the draw is reproducible
    from doc ids alone — the curation sampler for building a
    length-weighted subcorpus with no RNG state to ship.

    Hash-exactness: key is ONE IEEE double division of a deterministic
    uint64 by an integer weight — bit-identical in numpy and DuckDB —
    and ties break on doc_id on both sides.

    Shape: each block reduces to its local K smallest (lexsort +
    slice), the global sort+limit touches ≤ K·blocks rows — no full
    shuffle of the corpus."""
    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    K = WEIGHTED_SAMPLE_K

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.maximum(
            t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64), 1
        )
        u = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(str(i).encode()).digest()[:8], "big"
                )
                for i in ids
            ),
            dtype=np.uint64,
            count=len(ids),
        )
        key = u.astype(np.float64) / w.astype(np.float64)
        keep = np.lexsort((ids, key))[:K]
        return pa.table(
            {
                "key": pa.array(key[keep], pa.float64()),
                "doc_id": pa.array(ids[keep]),
                "n_chars": pa.array(w[keep]),
            }
        )

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .sort(["key", "doc_id"])
        .limit(K)
        .select_columns(["doc_id", "n_chars"])
    )


SQL_WEIGHTED_SAMPLE = f"""
SELECT doc_id, n_chars
FROM (
  SELECT doc_id, GREATEST(n_chars, 1) AS n_chars,
         ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT::DOUBLE
         / GREATEST(n_chars, 1) AS key
  FROM documents
  ORDER BY key, doc_id
  LIMIT {WEIGHTED_SAMPLE_K}
)
"""


# -- DSIR-style importance weights (Xie et al. 2023 shape) --------------------

DSIR_TARGET_LANG = "en"
DSIR_GRID = 1_000_000  # fixed-point grid for the per-word log-ratio


def q_dsir_weights(sf_dir: str):
    """Data Selection with Importance Resampling (DSIR, Xie et al.
    2023) over hashed unigram features: each document's log importance
    weight ``log w(d) = Σ_t c_t(d)·[log p_target(t) − log p_raw(t)]``
    with add-1-smoothed unigram LMs, target = the ``lang = 'en'``
    slice, raw = the whole corpus.  High-weight docs are the ones a
    target-distribution-matched resampler keeps.

    Hash-exactness: the global smoothing terms factor out of the sum —
    ``log w = Σ c·[ln(ct+1) − ln(cr+1)] + n_d·K`` with
    ``K = ln(Nraw+V) − ln(Ntarget+V)`` a single global scalar — so the
    per-word log-ratio quantizes ONCE onto a 1e-6 integer grid (the
    `q_embedding_stats` floor-half-up rule) and everything after is
    exact int64 ``Σ c·q_t`` partials; the only float expression is the
    final per-row ``floor(p + n·K·1e6 + 0.5)/1e6``, applied in the
    same operation order as the SQL oracle.

    Shape (= `q_lm_unigram_score`): per-block (doc, word, count)
    partials with the doc's target flag → word-hash-bucketed
    ``map_groups`` computes ct/cr/q_t per word INSIDE its bucket (no
    vocab broadcast, no second exchange) and reduces to per-doc int
    partials + one bucket vocab-size row → doc-bucketed sum → tiny
    global aggregate for (Nraw, Ntarget, V) → final vectorized map.
    Every stage is bucket-bounded; nothing driver-side exceeds
    O(docs)."""
    nb = bucket_count(
        parquet_token_estimate(f"{sf_dir}/documents.parquet"),
        min_buckets=NB_FLOOR,
    )

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def doc_counts(t: pa.Table) -> pa.Table:
        parents, toks = _flat_tokens(t)
        if len(parents) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "is_t": pa.array([], pa.bool_()),
                    "word": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        wc = (
            pd.DataFrame({"p": parents, "word": toks})
            .groupby(["p", "word"], sort=False)
            .size()
            .reset_index(name="c")
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_t = pc.equal(
            t["lang"], pa.scalar(DSIR_TARGET_LANG)
        ).to_numpy(zero_copy_only=False)
        p = wc["p"].to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids[p], pa.int64()),
                "is_t": pa.array(is_t[p], pa.bool_()),
                "word": pa.array(wc["word"], pa.string()),
                "c": pa.array(wc["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    dc = docs.map_batches(doc_counts, batch_format="pyarrow")

    def weight_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = g["c"].to_numpy(np.int64)
        ct = (
            pd.Series(np.where(g["is_t"].to_numpy(bool), c, 0))
            .groupby(g["word"].to_numpy())
            .sum()
        )
        cr = pd.Series(c).groupby(g["word"].to_numpy()).sum()
        qt = np.floor(
            (np.log(ct.to_numpy(np.float64) + 1.0)
             - np.log(cr.to_numpy(np.float64) + 1.0)) * DSIR_GRID + 0.5
        ).astype(np.int64)
        qmap = pd.Series(qt, index=ct.index)
        prod = c * qmap.loc[g["word"]].to_numpy(np.int64)
        out = (
            pd.DataFrame(
                {
                    "doc_id": g["doc_id"].to_numpy(np.int64),
                    "is_t": g["is_t"].to_numpy(bool),
                    "n": c,
                    "p": prod,
                }
            )
            .groupby("doc_id", as_index=False)
            .agg(is_t=("is_t", "max"), n=("n", "sum"), p=("p", "sum"))
        )
        # one vocab-stats sentinel row per bucket: doc_id = -1 carries
        # this bucket's distinct-word count in ``n``
        sentinel = pd.DataFrame(
            {"doc_id": [-1], "is_t": [False], "n": [len(ct)], "p": [0]}
        )
        return pd.concat([out, sentinel], ignore_index=True)

    per_doc = bucket_sums(
        bucketed(dc, "word", nb, weight_bucket),
        "doc_id",
        nb,
        {"is_t": ("is_t", "max"), "n": ("n", "sum"), "p": ("p", "sum")},
    ).materialize()

    def totals_partial(t: pa.Table) -> pa.Table:
        real = pc.greater_equal(t["doc_id"], pa.scalar(0, pa.int64()))
        n = t["n"]
        return pa.table(
            {
                "nr": pa.array(
                    [pc.sum(pc.filter(n, real)).as_py() or 0], pa.int64()
                ),
                "nt": pa.array(
                    [pc.sum(pc.filter(n, pc.and_(real, t["is_t"]))).as_py()
                     or 0],
                    pa.int64(),
                ),
                "v": pa.array(
                    [pc.sum(pc.filter(n, pc.invert(real))).as_py() or 0],
                    pa.int64(),
                ),
            }
        )

    tot = per_doc.map_batches(totals_partial, batch_format="pyarrow").aggregate(
        Sum("nr", alias_name="nr"),
        Sum("nt", alias_name="nt"),
        Sum("v", alias_name="v"),
    )
    nr, nt, v = (int(tot[k] or 0) for k in ("nr", "nt", "v"))
    k6 = (math.log(nr + v) - math.log(nt + v)) * DSIR_GRID if nr + v else 0.0

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["doc_id"], pa.scalar(0, pa.int64())))
        p = t["p"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.floor(p + n * k6 + 0.5) / DSIR_GRID
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pc.cast(t["n"], pa.int64()),
                "dsir_logw": pa.array(score, pa.float64()),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


SQL_DSIR_WEIGHTS = f"""
WITH toks AS ({_SQL_TOKLIST}),
words AS (SELECT doc_id, unnest(l) AS word FROM toks),
wc0 AS (SELECT doc_id, word, count(*) AS c FROM words GROUP BY doc_id, word),
wc AS (SELECT wc0.doc_id, wc0.word, wc0.c,
              (d.lang = '{DSIR_TARGET_LANG}') AS is_t
       FROM wc0 JOIN documents d ON wc0.doc_id = d.doc_id),
w AS (SELECT word, CAST(sum(c) AS BIGINT) AS cr,
             CAST(sum(CASE WHEN is_t THEN c ELSE 0 END) AS BIGINT) AS ct
      FROM wc GROUP BY word),
q AS (SELECT word,
             CAST(floor((ln(CAST(ct + 1 AS DOUBLE))
                         - ln(CAST(cr + 1 AS DOUBLE)))
                        * {DSIR_GRID} + 0.5) AS BIGINT) AS qt
      FROM w),
tot AS (SELECT CAST(sum(cr) AS BIGINT) AS nr,
               CAST(sum(ct) AS BIGINT) AS nt,
               count(*) AS v
        FROM w),
agg AS (SELECT wc.doc_id,
               CAST(sum(wc.c) AS BIGINT) AS n_tokens,
               CAST(sum(wc.c * q.qt) AS BIGINT) AS p
        FROM wc JOIN q USING (word)
        GROUP BY wc.doc_id)
SELECT doc_id, n_tokens,
       floor(CAST(p AS DOUBLE)
             + CAST(n_tokens AS DOUBLE)
               * ((ln(CAST((SELECT nr FROM tot) + (SELECT v FROM tot)
                           AS DOUBLE))
                   - ln(CAST((SELECT nt FROM tot) + (SELECT v FROM tot)
                             AS DOUBLE))) * {DSIR_GRID})
             + 0.5) / {DSIR_GRID}.0 AS dsir_logw
FROM agg
"""


# -- per-source KL divergence (distribution-drift monitor) ---------------------


def q_source_divergence(sf_dir: str):
    """KL divergence of each source's unigram token distribution from
    the whole-corpus distribution — the mixture-drift monitor a
    training-data pipeline runs per ingest batch (a source whose KL
    jumps has changed character and needs re-weighting; the companion
    to `q_source_mix`'s share table and `q_dsir_weights`' resampler).

    ``KL(p_s ‖ p) = (1/N_s)·Σ_w c_sw·(ln c_sw − ln c_w) + ln N − ln
    N_s`` — the per-(source, word) log-ratio is the only transcendental
    term, so it quantizes ONCE onto the DSIR 1e-6 integer grid and the
    reduction is exact int64 ``Σ c·q`` partials; the final float
    expression applies in the SQL oracle's operation order.

    Shape: per-block (source, word, count) pre-agg (the token stream
    never leaves the block) → word-hash-bucketed ``map_groups`` where
    every occurrence of a word is co-located, so c_w is bucket-local
    and the bucket reduces to ≤|sources| additive (Σc, Σc·q) rows →
    driver merges |sources|×nb scalars.  No vocab broadcast, no
    second exchange; the |sources| domain is small by construction."""
    nb = bucket_count(
        parquet_token_estimate(f"{sf_dir}/documents.parquet"),
        min_buckets=NB_FLOOR,
    )

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["text", "source"]
    )

    def src_counts(t: pa.Table) -> pa.Table:
        parents, toks = _flat_tokens(t)
        if len(parents) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "word": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        srcs = np.asarray(
            t["source"].to_pylist(), dtype=object
        )  # |sources| is tiny; the heavy stream is the tokens
        sw = (
            pd.DataFrame({"source": srcs[parents], "word": toks})
            .groupby(["source", "word"], sort=False, dropna=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "source": pa.array(sw["source"], pa.string()),
                "word": pa.array(sw["word"], pa.string()),
                "c": pa.array(sw["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    sc = docs.map_batches(src_counts, batch_format="pyarrow")

    def kl_bucket(g: pd.DataFrame) -> pa.Table:
        # rows are per-block partial (source, word) counts: merge them
        # before the log, then c_w = corpus count of each word — complete
        # inside this bucket.  dropna=False here and below: a NULL
        # source is one group, as in SQL's GROUP BY
        sw = g.groupby(
            ["source", "word"], as_index=False, sort=False, dropna=False
        )["c"].sum()
        c = sw["c"].to_numpy(np.int64)
        cw = sw.groupby("word")["c"].transform("sum").to_numpy(np.float64)
        lnr = np.log(c.astype(np.float64)) - np.log(cw)
        q = np.floor(lnr * DSIR_GRID + 0.5).astype(np.int64)
        out = (
            pd.DataFrame({"source": sw["source"], "n": c, "p": c * q})
            .groupby("source", as_index=False, dropna=False)
            .sum()
        )
        return pa.table(
            {
                "source": pa.array(out["source"], pa.string()),
                "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
                "p": pa.array(out["p"].to_numpy(np.int64), pa.int64()),
            }
        )

    # ≤ |sources| rows per bucket: a driver-side stitch, not a shuffle
    parts = bucketed(sc, "word", nb, kl_bucket).to_pandas()
    if len(parts) == 0:
        return pa.table(
            {
                "source": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
                "kl": pa.array([], pa.float64()),
            }
        )
    agg = parts.groupby("source", as_index=False, dropna=False)[
        ["n", "p"]
    ].sum()
    total = float(agg["n"].sum())
    ns = agg["n"].to_numpy(np.float64)
    raw = (
        agg["p"].to_numpy(np.float64) / float(DSIR_GRID) / ns
        + np.log(total)
        - np.log(ns)
    )
    kl = np.floor(raw * 1e6 + 0.5) / 1e6
    out = pd.DataFrame(
        {"source": agg["source"], "n_tokens": agg["n"], "kl": kl}
    ).sort_values("source", ignore_index=True)
    return pa.table(
        {
            "source": pa.array(out["source"], pa.string()),
            "n_tokens": pa.array(out["n_tokens"].to_numpy(np.int64)),
            "kl": pa.array(out["kl"].to_numpy(np.float64)),
        }
    )


SQL_SOURCE_DIVERGENCE = f"""
WITH toks AS (
    SELECT source,
           list_filter(string_split_regex(lower(COALESCE(text, '')),
                                          '[^a-z]+'),
                       w -> w <> '' AND length(w) <= {MAX_WORD_LENGTH}) AS l
    FROM documents
),
words AS (SELECT source, unnest(l) AS word FROM toks),
sw AS (SELECT source, word, count(*) AS c FROM words GROUP BY source, word),
wtot AS (SELECT word, CAST(sum(c) AS BIGINT) AS cw FROM sw GROUP BY word),
q AS (
    SELECT sw.source, sw.c,
           CAST(floor((ln(CAST(sw.c AS DOUBLE))
                       - ln(CAST(wtot.cw AS DOUBLE)))
                      * {DSIR_GRID} + 0.5) AS BIGINT) AS qv
    FROM sw JOIN wtot USING (word)
),
agg AS (
    SELECT source,
           CAST(sum(c) AS BIGINT) AS n_tokens,
           CAST(sum(c * qv) AS BIGINT) AS p
    FROM q GROUP BY source
),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS t FROM sw)
SELECT source, n_tokens,
       floor((CAST(p AS DOUBLE) / {DSIR_GRID}.0
                  / CAST(n_tokens AS DOUBLE)
              + ln(CAST((SELECT t FROM tot) AS DOUBLE))
              - ln(CAST(n_tokens AS DOUBLE))) * 1000000 + 0.5)
           / 1000000.0 AS kl
FROM agg
ORDER BY source
"""


# -- exact vocabulary head coverage ---------------------------------------------

HEAD_K = 100


def q_vocab_head_coverage(sf_dir: str):
    """What fraction of all token occurrences the top-{HEAD_K} words
    carry — the Zipf-head census a tokenizer-vocab or stopword-list
    builder runs first (high coverage ⇒ a tiny vocab head dominates
    the corpus).  EXACT, unlike `q_top_tokens`' Misra-Gries bound: a
    global top-K is safe to compute from per-bucket local top-Ks
    because a word's full count lives in one hash bucket, and any
    global winner ranks above all-but-<K words of its own bucket.

    Shape: per-block (word, c) pre-agg → word-hash-bucketed
    ``map_groups`` reduces each bucket to its local top-{HEAD_K}
    (c DESC, word ASC) plus ONE bucket-mass row — buckets×(K+1) rows
    to the driver, never the vocabulary."""
    nb = bucket_count(
        parquet_token_estimate(f"{sf_dir}/documents.parquet"),
        min_buckets=NB_FLOOR,
    )

    def word_partials(t: pa.Table) -> pa.Table:
        parents, toks = _flat_tokens(t)
        if len(parents) == 0:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        wc = (
            pd.DataFrame({"word": toks})
            .groupby("word", sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "word": pa.array(wc["word"], pa.string()),
                "c": pa.array(wc["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    def head_bucket(g: pd.DataFrame) -> pd.DataFrame:
        wc = g.groupby("word", as_index=False)["c"].sum()
        mass = np.int64(wc["c"].sum())
        top = wc.sort_values(
            ["c", "word"], ascending=[False, True]
        ).head(HEAD_K)
        out = pd.DataFrame(
            {
                "word": list(top["word"]) + [""],
                "c": list(top["c"].astype("int64")) + [np.int64(0)],
                "mass": [np.int64(0)] * len(top) + [mass],
            }
        )
        return out.astype({"c": "int64", "mass": "int64"})

    words = _docs(sf_dir).map_batches(word_partials, batch_format="pyarrow")
    parts = bucketed(words, "word", nb, head_bucket).to_pandas()
    total = int(parts["mass"].sum()) if len(parts) else 0
    if total == 0:  # no tokens: SQL's sums over no rows are NULL
        return pa.table(
            {
                "k": pa.array([np.int64(HEAD_K)]),
                "head_mass": pa.nulls(1, pa.int64()),
                "total_tokens": pa.nulls(1, pa.int64()),
                "coverage": pa.nulls(1, pa.float64()),
            }
        )
    cand = parts[parts["word"] != ""].sort_values(
        ["c", "word"], ascending=[False, True]
    ).head(HEAD_K)
    head = int(cand["c"].sum())
    coverage = math.floor(head / total * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            "k": pa.array([np.int64(HEAD_K)]),
            "head_mass": pa.array([np.int64(head)]),
            "total_tokens": pa.array([np.int64(total)]),
            "coverage": pa.array([coverage], pa.float64()),
        }
    )


SQL_VOCAB_HEAD_COVERAGE = f"""
WITH toks AS ({_SQL_TOKLIST}),
words AS (SELECT unnest(l) AS word FROM toks),
wc AS (SELECT word, count(*) AS c FROM words GROUP BY word),
head AS (SELECT c FROM wc ORDER BY c DESC, word LIMIT {HEAD_K}),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS t FROM wc)
SELECT CAST({HEAD_K} AS BIGINT) AS k,
       CAST((SELECT sum(c) FROM head) AS BIGINT) AS head_mass,
       (SELECT t FROM tot) AS total_tokens,
       floor(CAST((SELECT sum(c) FROM head) AS DOUBLE)
             / CAST((SELECT t FROM tot) AS DOUBLE) * 1000000 + 0.5)
           / 1000000.0 AS coverage
"""


# -- content-defined chunking (FastCDC-style gear hash) -----------------------

CDC_MASK = 0xFF     # boundary when (h & mask) == 0 → ~256-byte expected chunk
CDC_MIN = 64        # no cut closer than this to the previous cut
CDC_MAX = 1024      # force a cut at this length if no natural boundary
CDC_WINDOW = 8      # gear window: h_i = Σ_{j<W} GEAR[b_{i-j}] << j
CDC_GEAR_SEED = 9090


def _cdc_gear() -> np.ndarray:
    """The 256-entry random gear table (uint64), fixed seed."""
    rng = np.random.RandomState(CDC_GEAR_SEED)
    lo = rng.randint(0, 1 << 32, size=256, dtype=np.uint64)
    hi = rng.randint(0, 1 << 32, size=256, dtype=np.uint64)
    return (hi << np.uint64(32)) | lo


def cdc_boundaries(data: bytes) -> list[int]:
    """Cut positions (exclusive chunk ends) for one byte string —
    the single-definition rule shared by the distributed kernel and
    the test simulator:

    - candidate cut AFTER byte i (i ≥ W−1) when
      ``(Σ_{j<W} GEAR[b[i−j]] << j) & CDC_MASK == 0`` (uint64 wrap);
    - scanning left to right, a candidate is accepted if the chunk it
      closes is ≥ CDC_MIN bytes; whenever the running chunk would
      exceed CDC_MAX bytes a cut is forced at exactly CDC_MAX;
    - the final partial chunk always ends at ``len(data)``.

    This scalar form is O(n) per doc and exists for tests; the batch
    kernel computes the same candidates vectorized."""
    gear = _cdc_gear()
    n = len(data)
    cuts: list[int] = []
    last = 0
    h = 0
    for i in range(n):
        h = 0
        for j in range(min(CDC_WINDOW, i + 1)):
            h = (h + (int(gear[data[i - j]]) << j)) & 0xFFFFFFFFFFFFFFFF
        # forced max-size cut strictly before this position?
        while i + 1 - last > CDC_MAX:
            last += CDC_MAX
            cuts.append(last)
        if (
            i + 1 - last >= CDC_MIN
            and i >= CDC_WINDOW - 1
            and (h & CDC_MASK) == 0
        ):
            cuts.append(i + 1)
            last = i + 1
    while n - last > CDC_MAX:
        last += CDC_MAX
        cuts.append(last)
    if last < n:
        cuts.append(n)
    return cuts


def cdc_fingerprint(chunk: bytes) -> int:
    """Position-weighted gear fingerprint of one chunk (mod 2^64) —
    ``Σ GEAR[b_i] · (i+1)`` over 1-based in-chunk positions.  Chosen
    because the batch kernel can evaluate it for EVERY chunk of a
    block from two global cumsums (no per-chunk loop)."""
    gear = _cdc_gear()
    fp = 0
    for i, b in enumerate(chunk):
        fp = (fp + int(gear[b]) * (i + 1)) & 0xFFFFFFFFFFFFFFFF
    return fp


def q_cdc_chunks(sf_dir: str):
    """Content-defined chunking of every document's UTF-8 bytes with a
    gear rolling hash (the FastCDC family: Xia et al., USENIX ATC'16)
    — the dedup-storage primitive that keeps chunk boundaries stable
    under insertions, so shifted copies still share chunk
    fingerprints downstream (unlike fixed-size blocks).

    Rows out: (doc_id, chunk_id, start, length, fp) — ``fp`` the
    position-weighted gear fingerprint (`cdc_fingerprint`).

    Shape: ONE shuffle-free ``map_batches``.  Per block, all texts
    concatenate into a single byte buffer; the window hash evaluates
    as ``CDC_WINDOW`` shifted adds over the whole buffer (vectorized
    uint64, wrap-exact), candidates as one mask compare, and every
    chunk fingerprint reads off two global cumsums — the only Python
    iteration left is over the (sparse) candidate list per doc, which
    the min/max rules make inherently sequential.  No state crosses
    blocks; scale is linear."""
    import ray

    gear_ref = ray.put(_cdc_gear())

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def chunk_block(t: pa.Table) -> pa.Table:
        gear = ray.get(gear_ref)
        texts = [
            (s or "").encode("utf-8") for s in t["text"].to_pylist()
        ]
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        buf = np.frombuffer(b"".join(texts), dtype=np.uint8)
        lens = np.array([len(x) for x in texts], dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)])
        g = gear[buf]
        # window hash, vectorized: h[i] = sum_{j<W} g[i-j] << j
        h = g.copy()
        for j in range(1, CDC_WINDOW):
            h[j:] += g[:-j] << np.uint64(j)
        is_cand = (h & np.uint64(CDC_MASK)) == 0
        # position-weighted cumsums for the chunk fingerprints
        s1 = np.cumsum(g)                                   # Σ g
        s2 = np.cumsum(g * (np.arange(len(g), dtype=np.uint64)
                            + np.uint64(1)))                # Σ g·(i+1)
        out_doc, out_cid, out_start, out_len, out_fp = [], [], [], [], []
        for d in range(len(texts)):
            lo, hi_ = int(offs[d]), int(offs[d + 1])
            n = hi_ - lo
            if n == 0:
                continue
            # candidates local to this doc, window fully inside it
            cand = np.nonzero(is_cand[lo:hi_])[0]
            cand = cand[cand >= CDC_WINDOW - 1] + 1  # cut AFTER byte i
            cuts: list[int] = []
            last = 0
            for p in cand.tolist():
                while p - last > CDC_MAX:
                    last += CDC_MAX
                    cuts.append(last)
                if p - last >= CDC_MIN:
                    cuts.append(p)
                    last = p
            while n - last > CDC_MAX:
                last += CDC_MAX
                cuts.append(last)
            if last < n:
                cuts.append(n)
            start = 0
            for ci, end in enumerate(cuts):
                a, b_ = lo + start, lo + end  # global [a, b_)
                with np.errstate(over="ignore"):  # mod-2^64 by design
                    fp = (
                        (s2[b_ - 1] - (s2[a - 1] if a else np.uint64(0)))
                        - np.uint64(a)
                        * (s1[b_ - 1] - (s1[a - 1] if a else np.uint64(0)))
                    )
                out_doc.append(ids[d])
                out_cid.append(ci)
                out_start.append(start)
                out_len.append(end - start)
                out_fp.append(int(fp))
                start = end
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "chunk_id": pa.array(out_cid, pa.int64()),
                "start": pa.array(out_start, pa.int64()),
                "length": pa.array(out_len, pa.int64()),
                "fp": pa.array(
                    np.array(out_fp, dtype=np.uint64), pa.uint64()
                ),
            }
        )

    return docs.map_batches(chunk_block, batch_format="pyarrow")
