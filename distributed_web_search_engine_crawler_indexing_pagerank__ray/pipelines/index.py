"""Inverted-index job (reference Indexer, SURVEY §2.4 I1–I6).

The reference builds posting lists with per-word locked ``appendCapped``
RPCs (arrival order — racy across workers, ``KVSClient.java:284-294``).
Ray-native formulation, with no exchange: each map batch reduces its
(word, url, wave, url_hash) pairs with :func:`combine_pairs` (per word,
each url once at its lowest (wave, url_hash), then the
``doc_frequency_cap`` lowest urls); the driver combines the small
results once more and lists the postings per word (SURVEY §2.1 #I5).
Exact because first-occurrence dedup and the cap commute with a
per-block minimum: a url among a word's first ``cap`` urls overall is
among them in the block that holds its first occurrence.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.html import raw_body_text_index
from ..functions.tokenize import doc_token_counts
from ..oracle.downstream_oracle import (
    MAX_HTML_BYTES,
    MIN_PAGE_BYTES,
    MIN_WORD_FREQ,
    doc_frequency_cap,
)

INDEX_SCHEMA = pa.schema(
    [
        ("word", pa.string()),
        ("postings", pa.list_(pa.string())),
        ("count", pa.int64()),
        ("full", pa.bool_()),
    ]
)

PAIRS_SCHEMA = pa.schema([("word", pa.string()), ("url", pa.string()),
                          ("wave", pa.int32()), ("url_hash", pa.string())])


def _word_pairs(batch: pa.Table) -> pa.Table:
    """page row → (word, url, wave, url_hash) pairs (I1, I3, I4).

    HTML body extraction stays a per-page compiled-regex pass (the
    reference's slicing semantics aren't expressible as one arrow
    kernel); tokenize + per-doc min-freq counting run over the whole
    batch via ``doc_token_counts``."""
    rows, texts = [], []
    for i, page in enumerate(batch["page"].to_pylist()):
        if page is None or len(page) < MIN_PAGE_BYTES:
            continue
        rows.append(i)
        texts.append(raw_body_text_index(
            page[:MAX_HTML_BYTES].decode("utf-8", errors="replace")
        ))
    if not texts:
        return PAIRS_SCHEMA.empty_table()
    counts = doc_token_counts(texts)
    counts = counts.filter(pc.greater_equal(counts["c"], MIN_WORD_FREQ))
    src = pc.take(pa.array(rows, pa.int64()), counts["doc"])
    docs = batch.select(["url", "wave", "url_hash"]).take(src)
    return pa.table(
        [counts["word"], docs["url"], docs["wave"].cast(pa.int32()),
         docs["url_hash"]],
        schema=PAIRS_SCHEMA,
    )


def index_map(batch: pa.Table, n: int) -> pa.Table:
    """The index's map step over a corpus of ``n`` pages: a batch of page
    rows → its combined pairs."""
    return combine_pairs(_word_pairs(batch), doc_frequency_cap(n))


def combine_pairs(pairs: pa.Table, cap: int) -> pa.Table:
    """The index reduce as a combiner: (word, url, wave, url_hash) pairs
    sorted by (word, wave, url_hash), each (word, url) kept at its first
    position, then the first ``cap`` urls per word.  Combining a union
    of combined results equals combining the union of the inputs."""
    if pairs.num_rows == 0:
        return pairs
    t = pairs.take(pc.sort_indices(pairs, sort_keys=[
        ("word", "ascending"), ("wave", "ascending"),
        ("url_hash", "ascending"),
    ])).combine_chunks()
    w = pc.dictionary_encode(t["word"].chunk(0)).indices.to_numpy()
    u = pc.dictionary_encode(t["url"].chunk(0)).indices.to_numpy()
    _, first = np.unique(
        w.astype(np.int64) * (int(u.max()) + 1) + u, return_index=True
    )
    first.sort()
    return t.take(pa.array(first[run_positions(w[first]) < cap]))


def run_positions(keys: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal ``keys``."""
    run = np.arange(len(keys))
    starts = np.r_[True, keys[1:] != keys[:-1]]
    return run - np.maximum.accumulate(np.where(starts, run, 0))


def build_index(pages, total_pages: int | None = None) -> pa.Table:
    """pages: ``ray.data.Dataset`` or ``pa.Table`` of crawl page rows
    (url, url_hash, wave, page).  Returns the index table."""
    if isinstance(pages, pa.Table):
        ds = ray.data.from_arrow(
            pages.select(["url", "url_hash", "wave", "page"])
        )
        n = pages.num_rows
    else:
        ds = pages
        n = total_pages if total_pages is not None else ds.count()
    parts = ds.map_batches(
        index_map, fn_kwargs={"n": n}, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=None)
    return reduce_index(pa.concat_tables([PAIRS_SCHEMA.empty_table(), *parts]), n)


def reduce_index(pairs: pa.Table, n: int) -> pa.Table:
    """(word, url, wave, url_hash) pairs → index table (I5), on the
    driver: :func:`combine_pairs` once more, then each word's urls in
    order as its posting list (a single-threaded ``group_by`` keeps the
    order).  The input may be raw pairs or a union of combined ones;
    the resumable job (I6) feeds its checkpointed partitions here."""
    cap = doc_frequency_cap(n)
    g = combine_pairs(pairs, cap).group_by("word", use_threads=False).aggregate(
        [("url", "list")]
    )
    count = pc.list_value_length(g["url_list"]).cast(pa.int64())
    return pa.table(
        [g["word"], g["url_list"], count, pc.greater_equal(count, cap)],
        schema=INDEX_SCHEMA,
    )


def index_as_dict(index_tbl: pa.Table) -> dict[str, dict]:
    """Oracle-shaped view for tests / the query layer."""
    out = {}
    for i in range(index_tbl.num_rows):
        out[index_tbl["word"][i].as_py()] = {
            "postings": index_tbl["postings"][i].as_py(),
            "count": index_tbl["count"][i].as_py(),
            "full": index_tbl["full"][i].as_py(),
        }
    return out
