"""Tokenization + stopwords, exact to the reference.

Reference:
- stopword list: ``src/tools/StopWords.java:27-66`` (NLTK base + web noise)
- indexer tokenizer: ``src/jobs/Indexer.java:214-241`` (lowercase split
  ``[^a-z]+``, drop len>25, stopwords; keep per-doc freq >= 2)
- tfidf tokenizer: ``src/jobs/TfIdf.java:293-312`` (same, no min-freq)
- query tokenizer: ``src/frontend/handler/ResultPageHandler.java:450-461``
  (lowercase whitespace split, drop stopwords)
"""

from __future__ import annotations

import functools
import re
from collections import Counter

STOP_WORDS = frozenset(
    """a about above after again against ain all am an and any are aren aren't as at be
because been before being below between both but by can couldn couldn't d did didn
didn't do does doesn doesn't doing don don't down during each few for from further had
hadn hadn't has hasn hasn't have haven haven't having he he'd he'll her here hers
herself he's him himself his how i i'd if i'll i'm in into is isn isn't it it'd it'll
it's its itself i've just ll m ma me mightn mightn't more most mustn mustn't my myself
needn needn't no nor not now o of off on once only or other our ours ourselves out over
own re s same shan shan't she she'd she'll she's should shouldn shouldn't should've so
some such t than that that'll the their theirs them themselves then there these they
they'd they'll they're they've this those through to too under until up ve very was wasn
wasn't we we'd we'll we're were weren weren't we've what when where which while who whom
why will with won won't wouldn wouldn't y you you'd you'll your you're yours yourself
yourselves you've
http https www com org net
html htm css js javascript script href src img
json xml utf utf8 iso
page pages site sites homepage home index
nav menu footer header sidebar
login logout signin signup register account
cookie cookies policy policies privacy terms
agreement copyright trademark
click button submit search results filter""".split()
)

MAX_WORD_LENGTH = 25

_NON_AZ_RE = re.compile(r"[^a-z]+")
_WS_SPLIT_RE = re.compile(r"\s+", re.ASCII)


def tokenize_az(text: str) -> list[str]:
    """Lowercase, split on ``[^a-z]+``, keep non-empty tokens of len<=25
    that aren't stopwords (Indexer/TfIdf shared core)."""
    out = []
    for tok in _NON_AZ_RE.split(text.lower()):
        if not tok or len(tok) > MAX_WORD_LENGTH:
            continue
        if tok in STOP_WORDS:
            continue
        out.append(tok)
    return out


def word_counts(text: str) -> Counter:
    """Per-document term counts (``Indexer.java:214-227`` /
    ``TfIdf.java:293-312``)."""
    return Counter(tokenize_az(text))


def index_words(text: str, min_freq: int = 2) -> list[str]:
    """Words a document contributes to the inverted index
    (``Indexer.java:233-241``): per-doc frequency >= min_freq.
    Returned sorted for deterministic downstream order (the reference
    iterates a HashSet — nondeterministic; see SURVEY §7.3)."""
    wc = word_counts(text)
    return sorted(w for w, c in wc.items() if c >= min_freq)


def query_tokens(raw_query: str | None) -> list[str]:
    """``ResultPageHandler.filterStopWords`` (``ResultPageHandler.java:450-461``)."""
    if not raw_query:
        return []
    return [
        w
        for w in _WS_SPLIT_RE.split(raw_query.lower())
        if w and w not in STOP_WORDS
    ]


@functools.cache
def _stop_arr():
    import pyarrow as pa

    return pa.array(sorted(STOP_WORDS), pa.string())


# a-z stay, A-Z map to a-z, every other byte to a space: over
# lowercased UTF-8 this makes the ``[^a-z]+`` split a whitespace split,
# since bytes 0x41-0x5A and 0x61-0x7A never occur inside a multi-byte
# sequence.
_AZ_BYTES = bytes(
    c if 0x61 <= c <= 0x7A else c | 0x20 if 0x41 <= c <= 0x5A else 0x20
    for c in range(256)
)


def split_az(texts, *, stop_words: bool = True,
             max_len: int | None = MAX_WORD_LENGTH, sql_lower: bool = False):
    """:func:`tokenize_az` over a batch of texts (list[str|None] or a
    maybe sliced, chunked or large arrow string array; null reads as
    ""), the stop-word drop and the length cap optional.  Returns
    ``(doc, ids, vocab)`` in document order: per token its int64 batch
    index and index into ``vocab``, the distinct kept words.

    ASCII buffers skip ``utf8_lower``; the length and stop-word filters
    run once per distinct word.  ``sql_lower`` lowercases U+0130 to
    ``i`` as Arrow and DuckDB do (the SQL-checked queries), not to
    ``i̇`` as Python does (the Indexer and TfIdf oracles); no other code
    point lowercases to different ``[a-z]`` tokens."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    txt = pc.coalesce(texts.cast(pa.string()), "")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    offsets, raw = _offsets_bytes(txt)
    if raw.size and raw.max() >= 0x80:
        if not sql_lower:
            txt = pc.replace_substring(txt, "\u0130", "i\u0307")
        offsets, raw = _offsets_bytes(pc.utf8_lower(txt))
    lists = pc.ascii_split_whitespace(pa.StringArray.from_buffers(
        len(txt), pa.py_buffer(offsets - offsets[0]),
        pa.py_buffer(np.frombuffer(_AZ_BYTES, np.uint8)[raw]),
    ))
    enc = pc.dictionary_encode(pc.list_flatten(lists))
    words = enc.dictionary
    ln = pc.binary_length(words)
    ok = pc.greater(ln, 0)
    if max_len is not None:
        ok = pc.and_(ok, pc.less_equal(ln, max_len))
    if stop_words:
        ok = pc.and_(ok, pc.invert(pc.is_in(words, value_set=_stop_arr())))
    ok = ok.to_numpy(zero_copy_only=False)
    ids = enc.indices.to_numpy().astype(np.int64)
    keep = ok[ids]
    doc = pc.list_parent_indices(lists).to_numpy().astype(np.int64)[keep]
    return doc, (np.cumsum(ok) - 1)[ids[keep]], words.filter(pa.array(ok))


def _offsets_bytes(arr):
    """A string array's ``len + 1`` offsets and the bytes they span."""
    import numpy as np

    _, obuf, dbuf = arr.buffers()
    o = np.frombuffer(obuf, np.int32)[arr.offset:arr.offset + len(arr) + 1]
    return o, np.frombuffer(dbuf or b"", np.uint8)[o[0]:o[-1]]


def doc_token_counts(texts, sql_lower: bool = False):
    """Per-document term counts over a batch of texts (as for
    :func:`split_az`) — ``word_counts`` per text, counted with one
    ``np.unique`` over ``doc·|vocab| + word``.  Returns an arrow table
    ``(doc int64, word string, c int64)`` ordered by ``doc``, which
    indexes into the batch."""
    import numpy as np
    import pyarrow as pa

    doc, ids, vocab = split_az(texts, sql_lower=sql_lower)
    nv = max(len(vocab), 1)
    key, c = np.unique(doc * nv + ids, return_counts=True)
    return pa.table(
        {"doc": key // nv, "word": vocab.take(pa.array(key % nv)), "c": c}
    )
