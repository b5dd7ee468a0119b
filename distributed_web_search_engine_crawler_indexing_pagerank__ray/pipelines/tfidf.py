"""TF-IDF job (reference TfIdf, SURVEY §2.6 T1–T6).

Per-doc top-60 terms by raw count (tie-break: term ascending — the
reference's HashMap order is nondeterministic, SURVEY §7.3), scored
``tf = 1+ln(c)``, ``idf = ln((N+1)/(df+1))`` with df = the capped
inverted-index posting count (``pt-index.__count``), keep ``tfidf > 0``
(``src/jobs/TfIdf.java:212-226``).

Ray shape: one ``map_batches`` pass per doc (tokenize via the richer
TfIdf cleaner + top-k) with the df map broadcast via ``ray.put``
(replacing the reference's per-worker cached point lookups into
pt-index, ``TfIdf.java:272-291``).
"""

from __future__ import annotations

import math

import pyarrow as pa
import ray
import ray.data

from ..functions.hasher import ref_hash
from ..functions.html import extract_body_text_tfidf
from ..functions.tokenize import doc_token_counts
from ..oracle.downstream_oracle import MAX_HTML_BYTES, TFIDF_MAX_TERMS

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
    """Per-batch scoring fn (T1–T4) with the df map broadcast once via
    ``ray.put``; shared by :func:`run_tfidf` and the resumable job (T6)."""
    df_map = dict(
        zip(index_tbl["word"].to_pylist(), index_tbl["count"].to_pylist())
    )
    df_ref = ray.put(df_map)

    def score(batch: pa.Table) -> pa.Table:
        """HTML extraction stays a per-page compiled-regex pass; the
        tokenize/count/top-K/score pipeline runs vectorized over the
        batch (doc_token_counts + one C-level sort + numpy tf·idf over
        ``math.log`` values, so every score equals the oracle's);
        only the ≤``TFIDF_MAX_TERMS``-per-doc ``ref_hash`` keys remain
        a (short) Python loop."""
        import numpy as np
        import pandas as pd

        df = ray.get(df_ref)
        texts, urls = [], []
        for url, page in zip(batch["url"].to_pylist(), batch["page"].to_pylist()):
            html = (page or b"")[:MAX_HTML_BYTES].decode("utf-8", errors="replace")
            texts.append(extract_body_text_tfidf(html))
            urls.append(url)
        empty = pa.table(
            {
                "key": pa.array([], pa.string()),
                "word": pa.array([], pa.string()),
                "url": pa.array([], pa.string()),
                "tf": pa.array([], pa.float64()),
                "idf": pa.array([], pa.float64()),
                "tfidf": pa.array([], pa.float64()),
            }
        )
        if not texts:
            return empty
        cnt = doc_token_counts(texts).to_pandas()
        if len(cnt) == 0:
            return empty
        cnt = cnt.sort_values(
            ["doc", "c", "word"], ascending=[True, False, True],
            kind="mergesort",
        )
        top = cnt.groupby("doc", sort=False).head(TFIDF_MAX_TERMS)
        words = top["word"].to_numpy()
        dfi = pd.Index(list(df)).get_indexer(words)
        dfc = np.concatenate([np.asarray(list(df.values()), np.float64), [0.0]])[dfi]
        tf = 1.0 + _math_log(top["c"].to_numpy(np.float64))
        idf = _math_log((n + 1.0) / (dfc + 1.0))
        s = tf * idf
        keep = s > 0
        top = top[keep]
        urow = [urls[d] for d in top["doc"]]
        keys = [ref_hash(w + "|" + u) for w, u in zip(top["word"], urow)]
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "word": pa.array(top["word"].to_numpy(), pa.string()),
                "url": pa.array(urow, pa.string()),
                "tf": pa.array(tf[keep], pa.float64()),
                "idf": pa.array(idf[keep], pa.float64()),
                "tfidf": pa.array(s[keep], pa.float64()),
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
