"""The word/gram/doc-keyed exchanges of the curation operators go
through ``functions/partitioning.bucketed`` (and its ``bucket_sums``
form), not hand-written copies.

Scans the source of ``pipelines/traindata.py`` and
``pipelines/textpipe.py`` for the scaffolding each site used to repeat:
a per-query ``add_doc_bucket`` / ``sum_doc_bucket`` pair, a
``"dbucket"`` exchange column, an md5 ``hexdigest()[:8]`` bucket map,
or a ``& (nb - 1)`` / ``>> 32`` bucket rule.  The bucket rules live in
one place, so a row's bucket cannot drift between operators."""

import re
from pathlib import Path

import pyarrow as pa

PIPES = (
    Path(__file__).resolve().parents[1]
    / "distributed_web_search_engine_crawler_indexing_pagerank__ray"
    / "pipelines"
)
GUARDED = ("traindata.py", "textpipe.py")
HAND_WRITTEN = {
    "doc-bucket helper": r"def (add|sum)_doc_bucket\b",
    "dbucket column": r"""["']dbucket["']""",
    "md5 bucket map": r"hexdigest\(\)\[:8\]",
    "bucket mask": r"&\s*\(nb\s*-\s*1\)",
    "digest bucket shift": r">>\s*np\.uint64\(32\)",
}


def test_no_hand_written_bucket_exchange():
    found = [
        f"{name}: {label}"
        for name in GUARDED
        for label, pat in HAND_WRITTEN.items()
        if re.search(pat, (PIPES / name).read_text())
    ]
    assert not found, f"hand-written bucket scaffolding: {found}"


def test_bucket_rules():
    """One rule per key type, each ``& (nb - 1)``: strings by the top
    32 bits of their md5, uint64 digests by their top 32 bits, integer
    ids by themselves."""
    import hashlib

    import numpy as np

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.partitioning import (
        _bucket_ids,
    )

    words = ["the", "zebra", "", "the"]
    want = [int(hashlib.md5(w.encode()).hexdigest()[:8], 16) & 63
            for w in words]
    assert _bucket_ids(pa.array(words), 64).to_pylist() == want
    gh = np.array([2**64 - 1, 12345 << 32, 7], np.uint64)
    assert _bucket_ids(pa.array(gh), 32).to_pylist() == [31, 12345 & 31, 0]
    assert _bucket_ids(pa.array([-1, 5, 33]), 32).to_pylist() == [31, 5, 1]
    assert _bucket_ids(pa.array([], pa.string()), 32).to_pylist() == []
