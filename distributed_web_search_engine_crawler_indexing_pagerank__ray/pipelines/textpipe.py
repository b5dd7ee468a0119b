"""Text pipelines over the `documents` table: tokenize / index / tf-idf /
quality / language-ID / fingerprinting.

The tokenizer is the reference Indexer's (lowercase, split ``[^a-z]+``,
length ≤ 25, stopword drop — ``src/jobs/Indexer.java:214-241``,
``src/tools/StopWords.java:27-66``); SQL oracles replicate it with
``string_split_regex`` + an inlined stoplist.
"""

from __future__ import annotations

import math

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..sources.tables import read_parquet_clean
from ray.data.aggregate import Count, Sum

from ..functions.textstats import (
    bpe_ish_token_count,
    fingerprint,
    lang_id,
    quality_stats,
)
from ..functions.tokenize import (
    MAX_WORD_LENGTH,
    STOP_WORDS,
    doc_token_counts,
    split_az,
)

_STOPLIST_SQL = ", ".join(
    "'" + w.replace("'", "''") + "'" for w in sorted(STOP_WORDS)
)

# shared SQL fragment: the reference tokenizer over documents.text
SQL_TOK = f"""
    SELECT doc_id, word FROM (
        SELECT doc_id,
               unnest(string_split_regex(lower(text), '[^a-z]+')) AS word
        FROM documents)
    WHERE word <> '' AND length(word) <= {MAX_WORD_LENGTH}
      AND word NOT IN ({_STOPLIST_SQL})
"""


def _docs(sf_dir: str, columns=("doc_id", "text")):
    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=list(columns))


def _flat_words(t: pa.Table):
    """The reference tokenizer over a block's ``text`` column
    (``functions.tokenize.split_az`` with DuckDB's ``lower()``, which
    the SQL oracles use).  Returns ``(parent_row_indices, words)`` as
    arrow arrays in document order."""
    doc, ids, vocab = split_az(t["text"], sql_lower=True)
    return pa.array(doc), vocab.take(pa.array(ids))


def _doc_word_counts(t: pa.Table) -> pa.Table:
    """Per-block ``(doc_id, word, c)`` term counts (``doc_token_counts``
    with DuckDB's ``lower()``) — no per-doc Python loop."""
    wc = doc_token_counts(t["text"], sql_lower=True)
    return pa.table({
        "doc_id": t["doc_id"].take(wc["doc"]).cast(pa.int64()),
        "word": wc["word"],
        "c": wc["c"],
    })


# -- #4 flatMap + #19 foldByKey: word count ----------------------------------


def q_wordcount(sf_dir: str):
    """flatMap(tokenize) → groupby(word).count, pre-aggregated per batch
    (partial combine before the shuffle — SURVEY §4.2 mapping of the
    KVS-put shuffle)."""

    def partial(t: pa.Table) -> pa.Table:
        import numpy as np

        _, words = _flat_words(t)
        return (
            pa.table(
                {"word": words, "c": pa.array(np.ones(len(words), np.int64))}
            )
            .group_by("word")
            .aggregate([("c", "sum")])
            .rename_columns(["word", "c"])
        )

    ds = _docs(sf_dir).map_batches(partial, batch_format="pyarrow")
    out = ds.groupby("word").aggregate(Sum("c", alias_name="cnt"))
    return out.sort(["cnt", "word"], descending=[True, False]).limit(100)


SQL_WORDCOUNT = f"""
SELECT word, count(*) AS cnt
FROM ({SQL_TOK})
GROUP BY word
ORDER BY cnt DESC, word
LIMIT 100
"""


# -- I3–I5: inverted index (posting lists via groupby, replacing
#    appendCapped RPCs — SURVEY §2.1 note on KVSClient.java:284-437) ---------

INDEX_MIN_FREQ = 2  # Indexer.java:233-241
INDEX_CAP = 100  # appendCapped maxCols*cap (Indexer.java:252-267)


def q_inverted_index(sf_dir: str):
    """word → capped ordered posting list + count.

    The reference builds this with per-word locked ``appendCapped`` RPCs
    (arrival order, racy across workers); the Ray formulation is one
    ``groupby(word)`` shuffle with deterministic ``doc_id`` order."""

    def pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        wc = _doc_word_counts(t)  # vectorized tokenize + per-doc counts
        wc = wc.filter(pc.greater_equal(wc["c"], INDEX_MIN_FREQ))
        return wc.select(["word", "doc_id"])

    ds = _docs(sf_dir).map_batches(pairs, batch_format="pyarrow")

    def build(group: pd.DataFrame) -> pd.DataFrame:
        docs = sorted(group["doc_id"].unique())[:INDEX_CAP]
        return pd.DataFrame(
            {
                "word": [group["word"].iloc[0]],
                "postings": [",".join(str(d) for d in docs)],
                "cnt": [len(docs)],
            }
        )

    return ds.groupby("word").map_groups(build, batch_format="pandas")


SQL_INVERTED_INDEX = f"""
WITH tok AS ({SQL_TOK.replace('SELECT doc_id, word FROM (', 'SELECT doc_id, word FROM (')}),
cnt AS (
    SELECT doc_id, word, count(*) AS c FROM tok GROUP BY doc_id, word
    HAVING count(*) >= {INDEX_MIN_FREQ}
),
r AS (
    SELECT word, doc_id,
           row_number() OVER (PARTITION BY word ORDER BY doc_id) AS rn
    FROM cnt
)
SELECT word,
       string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings,
       count(*) AS cnt
FROM r WHERE rn <= {INDEX_CAP}
GROUP BY word
"""


# -- T2–T4: tf-idf over documents -------------------------------------------

TFIDF_TOP_TERMS = 60  # TfIdf.java:38


def q_tfidf_docs(sf_dir: str):
    """Per-doc top-60 terms scored ``tf=1+ln(c)``, ``idf=ln((N+1)/(df+1))``
    (``src/jobs/TfIdf.java:212-226``), deterministic tie-break by term
    (the reference's HashMap order is nondeterministic — SURVEY §7.3).
    df = distinct docs containing the term (min-freq 1 for this
    testdata query; the crawl-corpus TfIdf pipeline uses the capped
    index df, tested against the oracle in tests/)."""
    N = _docs(sf_dir, columns=("doc_id",)).count()

    def top_terms(t: pa.Table) -> pa.Table:
        # vectorized: per-doc counts, then one C-level sort + grouped head
        dfp = _doc_word_counts(t).to_pandas()
        dfp = dfp.sort_values(
            ["doc_id", "c", "word"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = dfp.groupby("doc_id", sort=False).head(TFIDF_TOP_TERMS)
        return pa.table(
            {
                "doc_id": pa.array(top["doc_id"].to_numpy(), pa.int64()),
                "word": pa.array(top["word"].to_numpy(), pa.string()),
                "c": pa.array(top["c"].to_numpy(), pa.int64()),
            }
        )

    terms = _docs(sf_dir).map_batches(top_terms, batch_format="pyarrow").materialize()
    df_tbl = terms.groupby("word").aggregate(Count(alias_name="df")).to_pandas()
    df_ref = ray.put(dict(zip(df_tbl["word"], df_tbl["df"])))

    def score(t: pa.Table) -> pa.Table:
        import numpy as np

        df = ray.get(df_ref)
        words = t["word"].to_numpy(zero_copy_only=False)
        cs = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = np.asarray(
            pd.Index(list(df)).get_indexer(words), np.int64
        )  # vectorized lookup into the broadcast df map
        dfc = np.asarray(list(df.values()), np.float64)[dfv]
        tf = 1.0 + np.log(cs)
        idf = np.log((N + 1) / (dfc + 1))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "word": t["word"],
                "tf": pa.array(np.round(tf, 6), pa.float64()),
                "idf": pa.array(np.round(idf, 6), pa.float64()),
                "tfidf": pa.array(np.round(tf * idf, 6), pa.float64()),
            }
        )

    return terms.map_batches(score, batch_format="pyarrow")


SQL_TFIDF_DOCS = f"""
WITH tok AS ({SQL_TOK}),
cnt AS (SELECT doc_id, word, count(*) AS c FROM tok GROUP BY doc_id, word),
top AS (
    SELECT doc_id, word, c,
           row_number() OVER (PARTITION BY doc_id ORDER BY c DESC, word) AS rn
    FROM cnt
),
kept AS (SELECT doc_id, word, c FROM top WHERE rn <= {TFIDF_TOP_TERMS}),
df AS (SELECT word, count(*) AS df FROM kept GROUP BY word),
n AS (SELECT count(*) AS n FROM documents)
SELECT k.doc_id, k.word,
       round(1 + ln(k.c), 6)                          AS tf,
       round(ln((n.n + 1.0) / (df.df + 1.0)), 6)      AS idf,
       round((1 + ln(k.c)) * ln((n.n + 1.0) / (df.df + 1.0)), 6) AS tfidf
FROM kept k, df, n
WHERE k.word = df.word
"""


# -- text-analysis operators (training-data pipeline additions) --------------


def q_quality(sf_dir: str):
    """Quality scoring: char/token counts per doc (SQL-checkable subset;
    the full stats incl. punct/stopword ratios are in ``q_text_stats``)."""

    def fn(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n_chars = [len(x or "") for x in texts]
        n_tokens = [len((x or "").split()) for x in texts]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_tokens": pa.array(n_tokens, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(fn, batch_format="pyarrow")


# python str.split() ≡ split on whitespace runs, ignoring edges
SQL_QUALITY = r"""
SELECT doc_id,
       length(text) AS n_chars,
       CASE WHEN trim(text) = '' THEN 0
            ELSE len(string_split_regex(trim(text), '\s+')) END AS n_tokens
FROM documents
"""


def sql_text_stats() -> str:
    """DuckDB oracle for q_text_stats — EXACT for ASCII corpora.

    Every kernel is deterministic and recomputed in SQL: language ID
    (marker-token join + argmax with the kernel's lang-ASC tie-break),
    BPE-ish piece count (same regex, leftmost-first in both Python re
    and RE2), the polynomial rolling-hash fingerprint (per-char ord ×
    modpow via a recursive power table — valid because the testdata
    corpus is pure ASCII, so codepoints == UTF-8 bytes; asserted
    nowhere but checked by the driver's value-hash), and the
    stopword/length ratios.  Marker and stopword lists are inlined
    from the Python constants so the two sides can never drift."""
    from ..functions.textstats import _FP_BASE, _FP_MOD, _LANG_MARKERS
    from ..functions.tokenize import STOP_WORDS

    markers_vals = ", ".join(
        f"('{lg}', '{t}')"
        for lg in sorted(_LANG_MARKERS)
        for t in sorted(_LANG_MARKERS[lg])
    )
    q = "'"
    stop_vals = ", ".join(f"('{w.replace(q, q * 2)}')" for w in sorted(STOP_WORDS))
    return rf"""
WITH RECURSIVE markers(lang, mt) AS (VALUES {markers_vals}),
stops(sw) AS (VALUES {stop_vals}),
toks AS (
  SELECT doc_id, text,
         list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS tk
  FROM documents
), norm AS (
  SELECT doc_id, array_to_string(tk, ' ') AS s,
         length(array_to_string(tk, ' ')) AS n
  FROM toks
), maxn(mx) AS (SELECT coalesce(max(n), 0) FROM norm),
pows(k, v) AS (
  SELECT 0, 1::HUGEINT
  UNION ALL
  SELECT k + 1, (v * {_FP_BASE}) % {_FP_MOD} FROM pows WHERE k < (SELECT mx FROM maxn)
),
fpchars AS (
  SELECT doc_id, s, n, unnest(generate_series(1, n)) AS i FROM norm WHERE n > 0
),
fp AS (
  SELECT doc_id,
         (sum(ord(substring(s, i, 1))::HUGEINT * p.v) % {_FP_MOD})::UBIGINT AS fingerprint
  FROM fpchars JOIN pows p ON p.k = n - i
  GROUP BY doc_id
),
langtok AS (
  SELECT doc_id, lower(unnest(tk[1:200])) AS t FROM toks
),
scores AS (
  SELECT doc_id, m.lang, count(*) AS sc
  FROM langtok j JOIN markers m ON j.t = m.mt
  GROUP BY doc_id, m.lang
),
best AS (
  SELECT doc_id, lang FROM scores
  QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY sc DESC, lang ASC) = 1
),
stopcnt AS (
  SELECT t.doc_id, count(s.sw) AS n_stop
  FROM (SELECT doc_id, lower(unnest(tk)) AS tt FROM toks) t
  LEFT JOIN stops s ON t.tt = s.sw
  GROUP BY t.doc_id
),
qual AS (
  SELECT doc_id, len(tk) AS n_tokens,
         CASE WHEN len(tk) = 0 THEN 0.0
              ELSE list_sum(list_transform(tk, x -> length(x)))::DOUBLE / len(tk) END AS avg_token_len
  FROM toks
)
SELECT t.doc_id,
       coalesce(b.lang, 'und') AS lang,
       len(regexp_extract_all(t.text, '[A-Za-z]{{1,4}}|[0-9]|[^A-Za-z0-9\s]'))::BIGINT AS n_bpe_tokens,
       coalesce(f.fingerprint, 0)::UBIGINT AS fingerprint,
       round(CASE WHEN q.n_tokens = 0 THEN 0.0 ELSE sc.n_stop::DOUBLE / q.n_tokens END, 6) AS stop_ratio,
       round(q.avg_token_len, 6) AS avg_token_len
FROM toks t
LEFT JOIN best b USING (doc_id)
LEFT JOIN fp f USING (doc_id)
LEFT JOIN stopcnt sc USING (doc_id)
LEFT JOIN qual q USING (doc_id)
"""


class TextStats:
    """Task stage: full quality metrics + language ID + BPE-ish token
    count + rolling-hash fingerprint.  Stateless (the kernels compile
    their regexes at import), so an instance runs as a plain task."""

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        stats = [quality_stats(x or "") for x in texts]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": pa.array([lang_id(x or "") for x in texts], pa.string()),
                "n_bpe_tokens": pa.array(
                    [bpe_ish_token_count(x or "") for x in texts], pa.int64()
                ),
                "fingerprint": pa.array(
                    [fingerprint(x or "") for x in texts], pa.uint64()
                ),
                "stop_ratio": pa.array(
                    [round(s["stopword_ratio"], 6) for s in stats], pa.float64()
                ),
                "avg_token_len": pa.array(
                    [round(s["avg_token_len"], 6) for s in stats], pa.float64()
                ),
            }
        )


def q_text_stats(sf_dir: str):
    """Language-ID + quality + fingerprint, as a task stage fused into
    the read.  EXACT, and SQL-oracle-checked (sql_text_stats); also
    unit-tested against the pure kernels."""
    return _docs(sf_dir).map_batches(
        TextStats(), batch_format="pyarrow", batch_size=512
    )


# -- percentile-window quality filter ------------------------------------------

QF_LO, QF_HI = 0.05, 0.95


def q_quality_filter(sf_dir: str):
    """Keep documents whose length sits inside the corpus's
    [p5, p95] window — outlier trimming before training.

    This is the two-pass exact-quantile algorithm at its 100-TB shape
    (the scale path q_grouped_quantiles' docstring points to):

    - pass 1: each block reduces to a value→count histogram
      (``n_chars`` is bounded, so a histogram is kilobytes no matter
      the corpus size); a distributed groupby-sum merges them and only
      the ≤|distinct lengths| merged rows reach the driver, which reads
      the exact rank-``ceil(q·n)`` elements (DuckDB ``quantile_disc``'s
      rule) off the cumulative counts;
    - pass 2: the two scalar thresholds broadcast into a vectorized
      arrow filter.
    """
    import numpy as np
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ("doc_id", "n_chars"))

    def hist(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t["n_chars"].combine_chunks())
        return pa.table({"v": vc.field("values"), "c": vc.field("counts")})

    merged = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("c", alias_name="n"))
        .to_pandas()
        .sort_values("v")
    )
    cum = merged["n"].cumsum().to_numpy()
    total = int(cum[-1])
    vals = merged["v"].to_numpy()

    def rank_elem(q: float) -> int:
        rank = max(1, math.ceil(q * total))  # 1-based, quantile_disc rule
        return int(vals[int(np.searchsorted(cum, rank))])

    lo, hi = rank_elem(QF_LO), rank_elem(QF_HI)

    def keep(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(t["n_chars"], pa.scalar(lo)),
            pc.less_equal(t["n_chars"], pa.scalar(hi)),
        )
        return t.filter(m)

    return ds.map_batches(keep, batch_format="pyarrow")


SQL_QUALITY_FILTER = f"""
WITH b AS (SELECT quantile_disc(n_chars, {QF_LO}) AS lo,
                  quantile_disc(n_chars, {QF_HI}) AS hi
           FROM documents)
SELECT d.doc_id, d.n_chars
FROM documents d, b
WHERE d.n_chars BETWEEN b.lo AND b.hi
"""


# -- weighted mixture sampling --------------------------------------------------

MIX_CYCLE = 4  # demo weights: source srcN gets rate (N % 4 + 1) / 4


def q_mixture_sample(sf_dir: str):
    """Weighted mixture sampling — the data-mixing step of a training
    run: each source is downsampled to its own rate.  Decisions are
    per-row deterministic and seedless (the Knuth multiplicative-hash
    permutation of ``doc_id``, same rule as ``relational.q_sample``),
    so reruns and the SQL oracle pick the identical row set.

    Scale shape: the rate table is the SMALL side (one row per source)
    — built once from a distributed ``unique`` and broadcast via
    ``ray.put``; the per-batch keep test is a vectorized
    ``index_in``-coded threshold lookup + one numpy compare, never a
    shuffle.  The demo derives each rate from the source name; a real
    pipeline passes its mixture-weights config instead.
    """
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    M32 = np.uint64(0xFFFFFFFF)
    A = np.uint64(2654435761)

    ds = _docs(sf_dir, ("doc_id", "source"))
    srcs = sorted(set(ds.unique("source")))
    rates = [((int(s[3:]) % MIX_CYCLE) + 1) / MIX_CYCLE for s in srcs]
    thresholds = np.array([int(r * (1 << 32)) for r in rates], np.uint64)
    small = ray.put((pa.array(srcs, pa.string()), thresholds))

    def keep(t: pa.Table) -> pa.Table:
        src_arr, thr = ray.get(small)
        keys = t["doc_id"].to_numpy().astype(np.uint64)
        h = ((keys & M32) * A) & M32
        codes = pc.index_in(t["source"], value_set=src_arr).to_numpy(
            zero_copy_only=False
        )
        return t.filter(pa.array(h < thr[codes.astype(np.int64)]))

    return (
        ds.map_batches(keep, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Count(alias_name="n_sampled"))
    )


SQL_MIXTURE_SAMPLE = f"""
SELECT source, count(*) AS n_sampled
FROM documents
WHERE ((doc_id % 4294967296)::HUGEINT * 2654435761) % 4294967296
      < ((CAST(substr(source, 4, 10) AS INT) % {MIX_CYCLE}) + 1)::HUGEINT
        * {(1 << 32) // MIX_CYCLE}
GROUP BY source
"""


# -- heavy-hitter top tokens (Misra-Gries sketch + exact verify pass) ----------

HH_K = 256   # sketch counters per block
HH_TOP = 25  # exact top-k returned


def _misra_gries(counts: dict, k: int) -> dict:
    """Reduce a word→count map to ≤ k Misra-Gries counters.  Guarantee:
    any word with true weight > total/(k+1) keeps a counter."""
    mg: dict = {}
    for w, c in counts.items():
        if w in mg:
            mg[w] += c
        elif len(mg) < k:
            mg[w] = c
        else:
            d = min(min(mg.values()), c)
            mg = {x: n - d for x, n in mg.items() if n > d}
            if c > d:
                mg[w] = c - d
    return mg


def q_top_tokens(sf_dir: str):
    """Exact top-{HH_TOP} tokens by corpus frequency WITHOUT shuffling
    the vocabulary — the two-pass heavy-hitter pattern for 100-TB
    wordcounts:

    - pass 1: each block reduces its token counts to a {HH_K}-counter
      Misra-Gries sketch (kilobytes); the sketches merge on the driver
      (MG merge = add + re-prune, still a valid sketch of the union).
      Any token with true count > N/({HH_K}+1) is guaranteed to
      survive as a candidate.
    - pass 2: exact counts for the ≤ {HH_K} candidate tokens only
      (broadcast set, per-block filtered partial counts, one tiny
      groupby), then exact top-{HH_TOP} with (count desc, word asc)
      tie-break.

    The result is exact — not approximate — whenever the {HH_TOP}-th
    true count clears the sketch's survival bound; the query CHECKS
    that bound against the exact candidate counts and raises rather
    than silently returning a wrong set (on Zipf-shaped text the bound
    holds by orders of magnitude)."""
    import numpy as np
    import pyarrow.compute as pc

    def block_counts(t: pa.Table, keep=None) -> pa.Table:
        """(word, c) per distinct token of the block, in first-occurrence
        order (a single-threaded ``group_by`` keeps it)."""
        _, words = _flat_words(t)
        if keep is not None:
            words = words.filter(pc.is_in(words, value_set=keep))
        g = pa.table({"word": words}).group_by("word", use_threads=False)
        g = g.aggregate([("word", "count")])
        return pa.table({"word": g["word"], "c": g["word_count"]})

    def sketch(t: pa.Table) -> pa.Table:
        c = block_counts(t)
        total = pc.sum(c["c"]).as_py() or 0
        mg = _misra_gries(dict(zip(c["word"].to_pylist(), c["c"].to_pylist())), HH_K)
        return pa.table(
            {
                "word": pa.array(list(mg.keys()), pa.string()),
                "c": pa.array(list(mg.values()), pa.int64()),
                "total": pa.array([total] + [0] * (len(mg) - 1), pa.int64())
                if mg
                else pa.array([], pa.int64()),
            }
        )

    ds = _docs(sf_dir)
    parts = ds.map_batches(sketch, batch_format="pyarrow").to_pandas()
    n_total = int(parts["total"].sum())
    merged = _misra_gries(
        parts.groupby("word")["c"].sum().to_dict(), HH_K
    )
    cand = pa.array(sorted(merged), pa.string())
    cand_ref = ray.put(cand)

    def exact_counts(t: pa.Table) -> pa.Table:
        return block_counts(t, ray.get(cand_ref))

    exact = (
        ds.map_batches(exact_counts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("c", alias_name="cnt"))
        .sort(["cnt", "word"], descending=[True, False])
        .limit(HH_TOP)
        .to_pandas()
    )
    bound = n_total / (HH_K + 1)
    if len(exact) == HH_TOP and int(exact["cnt"].min()) <= bound:
        raise RuntimeError(
            f"top_tokens: {HH_TOP}-th count {int(exact['cnt'].min())} is "
            f"below the Misra-Gries survival bound {bound:.0f}; raise HH_K"
        )
    return pa.Table.from_pandas(exact, preserve_index=False)


SQL_TOP_TOKENS = f"""
SELECT word, count(*) AS cnt
FROM ({SQL_TOK})
GROUP BY word
ORDER BY cnt DESC, word
LIMIT {HH_TOP}
"""


# -- corpus composition report (dataset-mix accounting) -----------------------


def q_source_mix(sf_dir: str):
    """Corpus composition per (source, lang): doc count, total chars,
    and each cell's share of all docs — the mixture-accounting report a
    training-data pipeline emits before sampling weights are chosen
    (the input `q_mixture_sample`-style reweighting reads).

    Plan: ``map_batches`` pre-aggregates each block to ≤ |sources ×
    langs| partial rows (arrow ``group_by``), one tiny shuffle reduces
    them, and the share denominator is the sum over that bounded-
    cardinality table — never a second pass over the input.  All sums
    are integers, so the reduce is order-independent; only the final
    share division is float (rounded like the oracle)."""
    import numpy as np
    import pyarrow.compute as pc

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "n_chars"]
    )

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "source": t["source"],
                    "lang": t["lang"],
                    "total_chars": pc.cast(t["n_chars"], pa.int64()),
                    "n_docs": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            )
            .group_by(["source", "lang"])
            .aggregate([("total_chars", "sum"), ("n_docs", "sum")])
        )
        return g.rename_columns(["source", "lang", "total_chars", "n_docs"])

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_chars", alias_name="total_chars"),
        )
        .to_pandas()  # bounded by the (source, lang) domain
    )
    total = int(cells["n_docs"].sum())
    return pa.table(
        {
            "source": pa.array(cells["source"], pa.string()),
            "lang": pa.array(cells["lang"], pa.string()),
            "n_docs": pa.array(
                cells["n_docs"].to_numpy(dtype="int64"), pa.int64()
            ),
            "total_chars": pa.array(
                cells["total_chars"].to_numpy(dtype="int64"), pa.int64()
            ),
            "doc_share": pa.array(
                (cells["n_docs"].to_numpy(dtype="int64") / total).round(6),
                pa.float64(),
            ),
        }
    )


SQL_SOURCE_MIX = """
SELECT source, lang,
       count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       round(count(*) * 1.0 / (SELECT count(*) FROM documents), 6)
           AS doc_share
FROM documents
GROUP BY source, lang
"""


# -- bigram counts (order-aware n-gram frequency sweep) ------------------------

BIGRAM_TOPN = 50


def q_bigram_counts(sf_dir: str):
    """Top adjacent word pairs across the corpus — the order-aware
    n-gram frequency sweep (wordcount's unigram sibling) that feeds
    collocation mining and tokenizer-vocab construction.

    Shape: fully vectorized — each block splits its texts into
    non-empty tokens with ``split_az``, pairs each token with its
    successor WITHIN the same
    document (a doc-index vector masks run boundaries — no per-doc
    Python loop), joins pairs with one arrow kernel, and pre-counts
    per block; only ≤ |vocab|² partial rows reach the final
    ``groupby(bigram)`` sum.  Deterministic top-N: full (cnt DESC,
    bigram ASC) tie-break before the limit."""
    import numpy as np
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        doc, ids, vocab = split_az(
            t["text"], stop_words=False, max_len=None, sql_lower=True
        )
        v = vocab.take(pa.array(ids))
        if len(v) < 2:
            return pa.table(
                {"bigram": pa.array([], pa.string()),
                 "c": pa.array([], pa.int64())}
            )
        same = doc[1:] == doc[:-1]
        pairs = pc.binary_join_element_wise(
            v.slice(0, len(v) - 1), v.slice(1), " "
        ).filter(pa.array(same))
        return (
            pa.table(
                {
                    "bigram": pairs,
                    "c": pa.array(np.ones(len(pairs), np.int64)),
                }
            )
            .group_by("bigram")
            .aggregate([("c", "sum")])
            .rename_columns(["bigram", "c"])
        )

    ds = _docs(sf_dir).map_batches(partial, batch_format="pyarrow")
    out = ds.groupby("bigram").aggregate(Sum("c", alias_name="cnt"))
    return out.sort(["cnt", "bigram"], descending=[True, False]).limit(
        BIGRAM_TOPN
    )


SQL_BIGRAM_COUNTS = f"""
WITH t AS (
    SELECT list_filter(string_split_regex(lower(text), '[^a-z]+'),
                       x -> x <> '') AS l
    FROM documents
),
b AS (
    SELECT unnest(list_zip(l[1:len(l) - 1], l[2:len(l)])) AS p
    FROM t WHERE len(l) >= 2
)
SELECT p[1] || ' ' || p[2] AS bigram, count(*) AS cnt
FROM b
GROUP BY 1
ORDER BY cnt DESC, bigram
LIMIT {BIGRAM_TOPN}
"""


# -- per-group min-max normalization (two-pass broadcast join-back) ------------


def q_minmax_quality(sf_dir: str):
    """Per-language min-max normalization of each document's
    whitespace-token count — the feature-scaling verb curation and
    model-input pipelines run before thresholding across groups of
    different scales.

    Two passes, the ``zscore_outliers`` shape: pass 1 reduces blocks to
    per-language (min, max) partials (arrow ``group_by`` per block,
    combinable) and one tiny ``groupby(lang)`` finishes them — the stat
    table is |langs| rows, broadcast once with ``ray.put``; pass 2
    normalizes every block vectorized against the shared dict.
    Exactness: the normalized value is reported in integer
    parts-per-million — ``(x − min) · 10⁶ // (max − min)`` — so both
    sides stay in exact int64 arithmetic end to end (a float ratio
    rounded to 6 decimals would diverge where the two engines'
    rounding modes split an exact .5, e.g. span = 128); a constant
    group (max == min) maps to 0 on both sides."""
    import numpy as np
    import pyarrow.compute as pc

    docs = _docs(sf_dir, columns=("doc_id", "lang", "text"))

    def tok_counts(t: pa.Table) -> pa.Table:
        # whitespace-run token count, == SQL_QUALITY's n_tokens
        stripped = pc.utf8_trim_whitespace(
            pc.coalesce(t["text"].combine_chunks(), pa.scalar(""))
        )
        lists = pc.split_pattern_regex(stripped, pattern=r"\s+")
        n = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        n = np.where(
            pc.equal(stripped, pa.scalar("")).to_numpy(zero_copy_only=False),
            0, n,
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "lang": t["lang"],
                "n_tokens": pa.array(n),
            }
        )

    counts = docs.map_batches(tok_counts, batch_format="pyarrow").materialize()

    def stat_partial(t: pa.Table) -> pa.Table:
        part = (
            pa.table({"lang": t["lang"], "lo": t["n_tokens"],
                      "hi": t["n_tokens"]})
            .group_by("lang")
            .aggregate([("lo", "min"), ("hi", "max")])
        )
        return pa.table(
            {"lang": part["lang"], "lo": part["lo_min"], "hi": part["hi_max"]}
        )

    # blocks × |langs| partial rows — merge on the driver rather than
    # paying a sort-shuffle for a handful of language groups
    stats = (
        counts.map_batches(stat_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("lang", as_index=False)
        .agg(lo=("lo", "min"), hi=("hi", "max"))
    )
    table = {
        r.lang: (np.int64(r.lo), np.int64(r.hi)) for r in stats.itertuples()
    }
    small = ray.put(table)

    def normalize(t: pa.Table) -> pa.Table:
        table = ray.get(small)
        langs = t["lang"].to_pylist()
        lo = np.array([table[x][0] for x in langs], np.int64)
        hi = np.array([table[x][1] for x in langs], np.int64)
        x = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        span = hi - lo
        mm = np.where(
            span > 0,
            (x - lo) * 1_000_000 // np.where(span > 0, span, 1),
            0,
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_tokens": t["n_tokens"],
                "mm_ppm": pa.array(mm),
            }
        )

    return counts.map_batches(normalize, batch_format="pyarrow")


SQL_MINMAX_QUALITY = r"""
WITH n AS (
    SELECT doc_id, lang,
           CASE WHEN trim(text) = '' THEN 0
                ELSE len(string_split_regex(trim(text), '\s+')) END
               AS n_tokens
    FROM documents
),
s AS (
    SELECT lang, min(n_tokens) AS lo, max(n_tokens) AS hi
    FROM n GROUP BY lang
)
SELECT n.doc_id, n.lang, n.n_tokens,
       CAST(CASE WHEN s.hi = s.lo THEN 0
                 ELSE (n.n_tokens - s.lo) * 1000000 // (s.hi - s.lo)
            END AS BIGINT) AS mm_ppm
FROM n JOIN s USING (lang)
"""


# -- fuzzy string join (SymSpell deletion-key blocking + exact verify) ---------


def _edit1(a: str, b: str) -> bool:
    """True iff levenshtein(a, b) == 1 for distinct a, b (the verify
    predicate; candidates arrive pre-blocked so |len diff| <= 1)."""
    la, lb = len(a), len(b)
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la != 1:
        return False
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def q_fuzzy_token_join(sf_dir: str):
    """Fuzzy self-join of the corpus vocabulary: every pair of distinct
    tokens within edit distance 1 — the similarity-string-join verb
    behind spell-normalization and near-key entity resolution, done
    WITHOUT the |V|² cross product.

    Shape (SymSpell deletion blocking): tokens dedup to the vocabulary
    first (per-block ``pc.unique`` partials → one tiny groupby), then
    each vocab word expands to its ≤ len+1 single-deletion keys — the
    expansion loops over character POSITIONS (≤ MAX_WORD_LENGTH arrow
    slice/concat kernels), not over words.  Two words at distance 1
    always share a deletion key (delete the edited position), so a
    ``groupby(key)`` brings every true pair into some tiny bucket;
    the per-bucket all-pairs verify touches only words sharing a key
    (the blocking guarantee — worst bucket = one key's neighborhood,
    never the corpus), and a final pair-groupby dedups pairs that
    share several keys.  The oracle cross-joins the (tiny, already
    reduced) vocabulary with DuckDB's ``levenshtein``."""
    import pandas as pd

    docs = _docs(sf_dir)

    def distinct_words(t: pa.Table) -> pa.Table:
        _, words = _flat_words(t)
        return pa.table({"word": pc.unique(words)})

    def first_word(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"word": [g["word"].iloc[0]]})

    vocab = (
        docs.map_batches(distinct_words, batch_format="pyarrow")
        .groupby("word")
        .map_groups(first_word, batch_format="pandas")
    )

    def expand(t: pa.Table) -> pa.Table:
        w = t["word"].combine_chunks()
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        ln = pc.utf8_length(w)
        max_len = pc.max(ln).as_py() if t.num_rows else None
        keys, words = [w], [w]
        for i in range(int(max_len or 0)):
            m = pc.greater(ln, i)
            wi = pc.filter(w, m)
            pre = pc.utf8_slice_codeunits(wi, 0, i)
            suf = pc.utf8_slice_codeunits(wi, i + 1, 1 << 30)
            keys.append(pc.binary_join_element_wise(pre, suf, ""))
            words.append(wi)
        return pa.table(
            {
                "key": pa.chunked_array(keys, pa.string()),
                "word": pa.chunked_array(words, pa.string()),
            }
        )

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ws = sorted(set(g["word"]))
        out_a, out_b = [], []
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if _edit1(ws[i], ws[j]):
                    out_a.append(ws[i])
                    out_b.append(ws[j])
        return pd.DataFrame(
            {
                "tok_a": pd.Series(out_a, dtype=object),
                "tok_b": pd.Series(out_b, dtype=object),
            }
        )

    def first_pair(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"tok_a": [g["tok_a"].iloc[0]], "tok_b": [g["tok_b"].iloc[0]]}
        )

    out = (
        vocab.map_batches(expand, batch_format="pyarrow")
        .groupby("key")
        .map_groups(verify_bucket, batch_format="pandas")
        .groupby(["tok_a", "tok_b"])
        .map_groups(first_pair, batch_format="pandas")
    ).to_pandas()
    # the deduped pair list is vocab-scale (the reduced small side), so
    # pandas here is a bounded result, not a raw-data materialize; the
    # explicit empty frame keeps (tok_a, tok_b) in the schema when the
    # corpus has no distance-1 pairs (Ray drops all columns on a
    # zero-row to_pandas, which would break the driver compare)
    if out.empty:
        return pd.DataFrame(
            {
                "tok_a": pd.Series(dtype=object),
                "tok_b": pd.Series(dtype=object),
            }
        )
    return out


SQL_FUZZY_TOKEN_JOIN = f"""
WITH tok AS (SELECT DISTINCT word FROM ({SQL_TOK}))
SELECT a.word AS tok_a, b.word AS tok_b
FROM tok a JOIN tok b
  ON a.word < b.word AND levenshtein(a.word, b.word) <= 1
"""


# -- rare-token burden per document (df-tail counting) ------------------------

RARE_DF_DIV = 15  # "rare" = document frequency ≤ |documents| / this


def q_rare_token_docs(sf_dir: str):
    """Per-document count of its DISTINCT rare tokens — tokens whose
    corpus document frequency is in the df tail (≤ 1/``RARE_DF_DIV``
    of the corpus: typos, random identifiers, OCR noise).  The
    threshold is PROPORTIONAL so the operator stays meaningful at any
    corpus size; both sides compare with exact integer arithmetic
    (``df · DIV ≤ n_docs``).  A high rare-token count is the
    complement signal to traindata's `q_lm_unigram_score`
    in-distribution score.

    Scale note: the df tail is most of a Zipfian vocabulary, so the
    rare set must NEVER be broadcast or collected.  Shape (=
    `q_lm_unigram_score`): per-block DISTINCT (doc, word) pairs (docs
    never span blocks, so block-distinct is globally distinct),
    word-hash-bucketed ``map_groups`` — each word lands wholly in one
    bucket, so its df AND the join back to its (doc, word) pairs both
    happen inside the bucket with vectorized pandas — then a
    doc-bucketed sum of the per-bucket per-doc partials."""
    from ..functions.partitioning import (
        bucket_count,
        bucket_sums,
        bucketed,
        parquet_rows,
        parquet_token_estimate,
    )

    nb = bucket_count(
        parquet_token_estimate(f"{sf_dir}/documents.parquet"), min_buckets=32
    )
    n_docs = parquet_rows(f"{sf_dir}/documents.parquet")

    def distinct_pairs(t: pa.Table) -> pa.Table:
        parents, words = _flat_words(t)
        docs = pc.take(t["doc_id"].combine_chunks(), parents)
        return (
            pa.table({"doc_id": pc.cast(docs, pa.int64()), "word": words})
            .group_by(["doc_id", "word"])
            .aggregate([])
        )

    pairs = _docs(sf_dir).map_batches(distinct_pairs, batch_format="pyarrow")

    def rare_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # df per word is COMPLETE within this bucket (word → one bucket)
        df = g.groupby("word")["doc_id"].transform("size")
        rare = g[df.to_numpy() * RARE_DF_DIV <= n_docs]
        return rare.groupby("doc_id", as_index=False).size()

    out = bucket_sums(
        bucketed(pairs, "word", nb, rare_bucket),
        "doc_id",
        nb,
        {"n_rare": ("size", "sum")},
    ).materialize()
    if out.count() == 0:
        # typed empty-schema guard (a df-tail-free corpus yields 0
        # rows, and an empty Dataset loses its column schema)
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_rare": pa.array([], pa.int64()),
            }
        )
    return out


SQL_RARE_TOKEN_DOCS = f"""
WITH tok AS (SELECT DISTINCT doc_id, word FROM ({SQL_TOK})),
f AS (SELECT word, count(*) AS c FROM tok GROUP BY word)
SELECT doc_id, count(*) AS n_rare
FROM tok JOIN f USING (word)
WHERE f.c * {RARE_DF_DIV} <= (SELECT count(*) FROM documents)
GROUP BY doc_id
"""
