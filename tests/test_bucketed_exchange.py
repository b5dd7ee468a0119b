"""The bucketed exchanges of the curation and relational operators go
through ``functions/partitioning.bucketed`` (and its ``bucket_sums``
and two-sided ``cobucketed`` forms), not hand-written copies.

Scans the source of ``pipelines/traindata.py``, ``pipelines/textpipe.py``
and ``pipelines/relational.py`` for the scaffolding each site used to
repeat: a per-query ``add_doc_bucket`` / ``sum_doc_bucket`` pair, a
``"dbucket"`` exchange column, an md5 ``hexdigest()[:8]`` bucket map,
a ``& (nb - 1)`` / ``>> 32`` bucket rule, a ``groupby("bucket")``
exchange, a ``"side"`` tag column over a null-filled union, or the
``_salted_buckets`` split.  The bucket and salt rules live in one
place, so a row's bucket cannot drift between operators."""

import re
from pathlib import Path

import pyarrow as pa

PIPES = (
    Path(__file__).resolve().parents[1]
    / "distributed_web_search_engine_crawler_indexing_pagerank__ray"
    / "pipelines"
)
GUARDED = ("traindata.py", "textpipe.py", "relational.py")
HAND_WRITTEN = {
    "doc-bucket helper": r"def (add|sum)_doc_bucket\b",
    "dbucket column": r"""["']dbucket["']""",
    "md5 bucket map": r"hexdigest\(\)\[:8\]",
    "bucket mask": r"&\s*\(n?b\s*-\s*1\)",
    "scalar bucket mask": r"scalar\(\s*n?b\s*-\s*1\b",
    "digest bucket shift": r">>\s*np\.uint64\(32\)",
}
# the co-group scaffolding of the hand-written joins, gone from the
# modules whose joins moved onto cobucketed
JOINS = ("relational.py",)
HAND_WRITTEN_JOIN = {
    "bucket groupby": r"""groupby\(\s*["']bucket["']\s*\)""",
    "side tag column": r"""["']side["']\s*:\s*pa\.array\(\s*\[""",
    "side filter": r"""\[\s*["']side["']\s*\]\s*==""",
    "null-filled lane": r"pa\.nulls\(",
    "salt split": r"_salted_buckets",
}


def test_no_hand_written_bucket_exchange():
    found = [
        f"{name}: {label}"
        for names, patterns in ((GUARDED, HAND_WRITTEN),
                                (JOINS, HAND_WRITTEN_JOIN))
        for name in names
        for label, pat in patterns.items()
        if re.search(pat, (PIPES / name).read_text(), re.IGNORECASE)
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


def test_cobucketed_sides_keep_their_own_typed_columns(ray_session):
    """Each side reaches the kernel as its own frame: an int64 above
    2^53 arrives unchanged in pandas (no null-filled lane turns it
    float64), and neither frame carries the other side's columns.  A
    side with no rows in a bucket arrives as an empty frame without
    columns; salting replicates the left side into every sub-bucket
    and spreads the right side round-robin."""
    import pandas as pd
    import ray.data

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.partitioning import (
        cobucketed,
    )

    big = 2**53 + 1
    left = ray.data.from_arrow(
        pa.table({"key": pa.array([1, 2], pa.int64()),
                  "n": pa.array([big, 3], pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table({"key": pa.array([1, 1, 1, 7], pa.int64()),
                  "name": pa.array(["a", "b", "c", "d"])})
    )

    def kernel(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
        assert "name" not in lf.columns and "n" not in rf.columns
        if len(lf) == 0:
            assert list(lf.columns) == []
            keys = rf["key"].to_numpy()
        else:
            assert list(lf.columns) == ["key", "n"]
            assert lf["n"].dtype == "int64"
            keys = lf["key"].to_numpy()
        return pd.DataFrame(
            {
                "key": keys[:1],
                "n": lf["n"].to_numpy()[:1] if len(lf) else [-1],
                "rows": [len(rf)],
            }
        )

    for salt in (1, 4):
        out = cobucketed(
            (left, lambda t: t), (right, lambda t: t), "key", 16, kernel,
            salt=salt,
        ).to_pandas()
        got = out.groupby("key").agg(
            n=("n", "max"), rows=("rows", "sum"), groups=("rows", "size")
        )
        assert got.loc[1, "n"] == big and got.loc[2, "n"] == 3
        assert got.loc[7, "n"] == -1  # right-only bucket: left is absent
        assert list(got["rows"]) == [3, 0, 1]
        # left rows land in every salt group; right rows only where sent
        assert got.loc[2, "groups"] == salt
