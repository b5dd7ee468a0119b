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


_STOP_ARR_CACHE = None


def _stop_arr():
    global _STOP_ARR_CACHE
    if _STOP_ARR_CACHE is None:
        import pyarrow as pa

        _STOP_ARR_CACHE = pa.array(sorted(STOP_WORDS), pa.string())
    return _STOP_ARR_CACHE


def doc_token_counts(texts):
    """Vectorized per-document term counts over a batch of texts — the
    batched equivalent of ``word_counts`` per text (identical token
    semantics: lowercase ``[^a-z]+`` split, len ≤ 25, stopword drop),
    built from arrow kernels instead of a per-doc Python loop.

    ``texts``: list[str|None] or a pyarrow string array.  Returns an
    arrow table ``(doc int64, word string, c int64)`` where ``doc``
    indexes into the input batch."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    txt = pc.coalesce(texts, pa.scalar("", pa.string()))
    lists = pc.split_pattern_regex(pc.utf8_lower(txt), pattern="[^a-z]+")
    flat = pc.list_flatten(lists)
    parents = pc.list_parent_indices(lists)
    ln = pc.utf8_length(flat)
    keep = pc.and_(
        pc.and_(pc.greater(ln, 0), pc.less_equal(ln, MAX_WORD_LENGTH)),
        pc.invert(pc.is_in(flat, value_set=_stop_arr())),
    )
    flat = pc.filter(flat, keep)
    parents = pc.filter(parents, keep)
    return (
        pa.table(
            {
                "doc": pc.cast(parents, pa.int64()),
                "word": flat,
                "c": pa.array(np.ones(len(flat), np.int64)),
            }
        )
        .group_by(["doc", "word"])
        .aggregate([("c", "sum")])
        .rename_columns(["doc", "word", "c"])
    )
