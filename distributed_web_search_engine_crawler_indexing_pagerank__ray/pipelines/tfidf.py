"""TF-IDF job (reference TfIdf, SURVEY §2.6 T1–T6).

Per-doc top-60 terms by raw count (tie-break: term ascending — the
reference's HashMap order is nondeterministic, SURVEY §7.3), scored
``tf = 1+ln(c)``, ``idf = ln((N+1)/(df+1))`` with df = the capped
inverted-index posting count (``pt-index.__count``), keep ``tfidf > 0``
(``src/jobs/TfIdf.java:212-226``).

Ray shape: one ``map_batches`` pass over the pages.  Each batch runs
the TfIdf body-text cleaner per page, then tokenizes, counts, picks the
top-K, scores and builds the ``hash(word|url)`` keys for the whole
batch at once.  The index's (word, count) columns are broadcast via
``ray.put`` (replacing the reference's per-worker cached point lookups
into pt-index, ``TfIdf.java:272-291``).  The driver sorts the scored
rows by key.
"""

from __future__ import annotations

import math

import pyarrow as pa
import ray
import ray.data

from ..functions.hasher import ref_hash_array
from ..functions.html import raw_body_text_tfidf
from ..functions.tokenize import doc_token_counts
from ..oracle.downstream_oracle import MAX_HTML_BYTES, TFIDF_MAX_TERMS
from .index import run_positions

TFIDF_SCHEMA = pa.schema(
    [
        ("key", pa.string()),
        ("word", pa.string()),
        ("url", pa.string()),
        ("tf", pa.float64()),
        ("idf", pa.float64()),
        ("tfidf", pa.float64()),
    ]
)


def _math_log(x):
    """``math.log`` of each element of a float64 array.  ``np.log`` can
    differ from it in the last bit, and the oracle's scores use
    ``math.log``; a batch holds few distinct counts and df ratios, so
    the logs are taken once per distinct value."""
    import numpy as np

    uniq, inv = np.unique(x, return_inverse=True)
    return np.array([math.log(v) for v in uniq.tolist()], np.float64)[inv]


def make_scorer(index_tbl: pa.Table, n: int):
    """Per-batch scoring fn (T1–T4) with the index's (word, count)
    columns broadcast once via ``ray.put``; shared by :func:`run_tfidf`
    and the resumable job (T6)."""
    df_ref = ray.put(index_tbl.select(["word", "count"]))

    def score(batch: pa.Table) -> pa.Table:
        """Body text per page; then over the whole batch: counts, top-K
        by one ``np.lexsort`` on (doc, −count, word rank), tf·idf from
        ``math.log`` values (every score equals the oracle's) and the
        ``ref_hash`` keys of ``word|url``."""
        import numpy as np
        import pyarrow.compute as pc

        texts = [
            raw_body_text_tfidf(
                (page or b"")[:MAX_HTML_BYTES].decode("utf-8", errors="replace")
            )
            for page in batch["page"].to_pylist()
        ]
        cnt = doc_token_counts(texts)
        if cnt.num_rows == 0:
            return TFIDF_SCHEMA.empty_table()
        doc = cnt["doc"].to_numpy()
        c = cnt["c"].to_numpy()
        enc = pc.dictionary_encode(cnt["word"]).combine_chunks()
        vocab, wid = enc.dictionary, enc.indices.to_numpy()
        rank = pc.rank(vocab, "ascending").to_numpy()
        order = np.lexsort((rank[wid], -c, doc))
        top = order[run_positions(doc[order]) < TFIDF_MAX_TERMS]
        df = ray.get(df_ref)
        at = pc.fill_null(pc.index_in(vocab, value_set=df["word"]), len(df))
        dfv = np.append(df["count"].to_numpy().astype(np.float64), 0.0)
        dfc = dfv[at.to_numpy()][wid[top]]
        tf = 1.0 + _math_log(c[top].astype(np.float64))
        idf = _math_log((n + 1.0) / (dfc + 1.0))
        s = tf * idf
        keep = s > 0
        rows = pa.array(top[keep])
        words = cnt["word"].take(rows)
        urls = batch["url"].take(cnt["doc"].take(rows))
        return pa.table(
            {
                "key": ref_hash_array(pc.binary_join_element_wise(words, urls, "|")),
                "word": words,
                "url": urls,
                "tf": tf[keep],
                "idf": idf[keep],
                "tfidf": s[keep],
            }
        )

    return score


def run_tfidf(pages, index_tbl: pa.Table, total_docs: int | None = None) -> pa.Table:
    """pages: Dataset or Table of crawl page rows; index_tbl: the
    ``build_index`` output (df source).  Returns pt-tfidf rows."""
    if isinstance(pages, pa.Table):
        ds = ray.data.from_arrow(pages.select(["url", "page"]))
        n = pages.num_rows
    else:
        ds = pages
        n = total_docs if total_docs is not None else ds.count()
    score = make_scorer(index_tbl, n)
    parts = list(
        ds.map_batches(score, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    if not parts:
        return TFIDF_SCHEMA.empty_table()
    return pa.concat_tables(parts).cast(TFIDF_SCHEMA).sort_by("key")
