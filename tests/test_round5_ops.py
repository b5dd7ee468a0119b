"""Edge-case tests for the late-round-5 operators: bigram LM scoring,
per-source KL divergence, and the Q13 order-count distribution.

Each is verified against an independent scalar Python simulator on
planted tmp_path fixtures (the SQL-parity path is covered for all
three by tests/test_sql_oracles.py's full-surface parametrization)."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
    relational,
    traindata,
)


@pytest.fixture(autouse=True)
def _ray(ray_session):
    yield


def _to_df(res):
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()


def _write_docs(tmp_path, rows):
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
            "source": pa.array([r[2] for r in rows], pa.string()),
            "n_chars": pa.array(
                [len(r[1] or "") for r in rows], pa.int64()
            ),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def _toks(text):
    import re

    return [
        w
        for w in re.split(r"[^a-z]+", (text or "").lower())
        if w and len(w) <= 25
    ]


def test_lm_bigram_score_matches_scalar_sim(tmp_path):
    """Planted corpus vs a brute-force scalar simulator; docs with
    fewer than two tokens are absent (no bigrams), like the SQL agg."""
    rows = [
        (0, "a b a b c", "s"),
        (1, "a b", "s"),
        (2, "x", "s"),          # single token: no bigrams -> absent
        (3, "", "s"),           # empty: absent
        (4, "b c b c b c", "s"),
    ]
    sf = _write_docs(tmp_path, rows)

    # scalar sim: per-doc bigram counts, corpus counts, rational score
    from collections import Counter

    per_doc, corpus = {}, Counter()
    for did, text, _ in rows:
        t = _toks(text)
        bg = Counter(
            f"{t[i]} {t[i + 1]}" for i in range(len(t) - 1)
        )
        if bg:
            per_doc[did] = bg
            corpus.update(bg)
    total = sum(corpus.values())
    expect = {
        did: (
            sum(bg.values()),
            math.floor(
                sum(c * corpus[b] for b, c in bg.items())
                / sum(bg.values())
                / total
                * 1e6
                + 0.5
            )
            / 1e6,
        )
        for did, bg in per_doc.items()
    }

    out = _to_df(traindata.q_lm_bigram_score(sf)).set_index("doc_id")
    assert set(out.index) == set(expect)
    for did, (n, score) in expect.items():
        assert int(out.loc[did, "n_bigrams"]) == n
        assert abs(float(out.loc[did, "lm2_score"]) - score) < 1e-9


def test_source_divergence_single_source_is_zero(tmp_path):
    """With one source, p_s == p so KL must be exactly 0 (up to the
    1e-6 quantization grid, which is exact at 0)."""
    sf = _write_docs(
        tmp_path,
        [(0, "a b c a", "only"), (1, "b c d", "only")],
    )
    out = _to_df(traindata.q_source_divergence(sf))
    assert list(out["source"]) == ["only"]
    assert float(out["kl"].iloc[0]) == 0.0
    assert int(out["n_tokens"].iloc[0]) == 7


def test_source_divergence_matches_scalar_sim(tmp_path):
    """Two skewed sources vs a brute-force simulator that applies the
    same 1e-6 log-ratio grid; disjoint-vocab sources maximize KL."""
    rows = [
        (0, "a a b", "s1"),
        (1, "a b b b", "s1"),
        (2, "x y z x", "s2"),
        (3, "z z y", "s2"),
        (4, "a x", "s3"),  # straddles both vocabularies
    ]
    sf = _write_docs(tmp_path, rows)

    from collections import Counter

    sw, corpus = {}, Counter()
    for _, text, src in rows:
        c = Counter(_toks(text))
        sw.setdefault(src, Counter()).update(c)
        corpus.update(c)
    total = sum(corpus.values())
    expect = {}
    for src, c in sw.items():
        ns = sum(c.values())
        p = sum(
            cnt
            * math.floor(
                (math.log(cnt) - math.log(corpus[w])) * 1e6 + 0.5
            )
            for w, cnt in c.items()
        )
        raw = p / 1e6 / ns + math.log(total) - math.log(ns)
        expect[src] = (ns, math.floor(raw * 1e6 + 0.5) / 1e6)

    out = _to_df(traindata.q_source_divergence(sf)).set_index("source")
    assert set(out.index) == set(expect)
    for src, (ns, kl) in expect.items():
        assert int(out.loc[src, "n_tokens"]) == ns
        assert abs(float(out.loc[src, "kl"]) - kl) < 1e-9
        assert float(out.loc[src, "kl"]) >= 0.0  # KL is non-negative


def test_source_divergence_multi_block_matches_duckdb(tmp_path):
    """Input split over several parquet files reaches the bucket stage
    as per-block partial (source, word) counts; they must be merged
    before the log, so the answer equals the SQL oracle's."""
    import duckdb

    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet")
    part_dir = tmp_path / "documents.parquet"
    part_dir.mkdir()
    step = -(-docs.num_rows // 3)
    for i in range(3):
        pq.write_table(docs.slice(i * step, step), str(part_dir / f"part-{i}.parquet"))

    out = _to_df(traindata.q_source_divergence(str(tmp_path)))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{part_dir}/*.parquet')"
    )
    sq = con.execute(traindata.SQL_SOURCE_DIVERGENCE).df()
    a = out.set_index("source").sort_index()
    b = sq.set_index("source").sort_index()
    assert list(a.index) == list(b.index)
    assert (a["n_tokens"].to_numpy() == b["n_tokens"].to_numpy()).all()
    assert np.allclose(a["kl"].to_numpy(), b["kl"].to_numpy(), atol=1e-9)


def _duckdb_rows(sf: str, sql: str) -> list[dict]:
    import duckdb

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    return con.execute(sql).fetch_arrow_table().to_pylist()


def test_source_divergence_null_source_matches_duckdb(tmp_path):
    """A document whose source is NULL forms one NULL-source group, as
    SQL's GROUP BY keeps it; its tokens count toward the corpus."""
    sf = _write_docs(
        tmp_path,
        [
            (0, "a b c a", "s1"),
            (1, "b d d", None),
            (2, "c e e a", "s2"),
            (3, "d", "s1"),
        ],
    )
    key = lambda r: (r["source"] is None, r["source"] or "")  # noqa: E731
    got = sorted(traindata.q_source_divergence(sf).to_pylist(), key=key)
    want = sorted(_duckdb_rows(sf, traindata.SQL_SOURCE_DIVERGENCE), key=key)
    assert [r["source"] for r in got] == [r["source"] for r in want]
    assert [r["source"] for r in got] == ["s1", "s2", None]
    assert [r["n_tokens"] for r in got] == [r["n_tokens"] for r in want]
    assert np.allclose(
        [r["kl"] for r in got], [r["kl"] for r in want], atol=1e-9
    )


def test_vocab_head_coverage_empty_corpus_matches_duckdb(tmp_path):
    """No document has a token: the sums over no words are NULL, as in
    SQL, not 0; ``k`` stays the head size."""
    sf = _write_docs(
        tmp_path, [(0, "", "s1"), (1, None, "s1"), (2, "123 !!", "s2")]
    )
    got = traindata.q_vocab_head_coverage(sf).to_pylist()
    want = _duckdb_rows(sf, traindata.SQL_VOCAB_HEAD_COVERAGE)
    assert got == want
    assert got == [
        {"k": traindata.HEAD_K, "head_mass": None, "total_tokens": None,
         "coverage": None}
    ]


def test_order_count_distribution_zero_bin(tmp_path):
    """Customers with no orders land in the c_count=0 bin; the
    histogram is exact and sorted (custdist DESC, c_count DESC)."""
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "c_name": pa.array([f"c{i}" for i in range(5)]),
                "c_nationkey": pa.array([0] * 5, pa.int64()),
                "c_acctbal": pa.array([0.0] * 5, pa.float64()),
                "c_mktsegment": pa.array(["A"] * 5),
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    # cust 1 -> 3 orders, cust 2 -> 1 order; 3, 4, 5 -> none
    ok = [10, 11, 12, 13]
    ck = [1, 1, 1, 2]
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(ok, pa.int64()),
                "o_custkey": pa.array(ck, pa.int64()),
                "o_orderstatus": pa.array(["O"] * 4),
                "o_totalprice": pa.array([1.0] * 4, pa.float64()),
                "o_orderdate": pa.array(
                    [pd.Timestamp("2024-01-01")] * 4,
                    pa.timestamp("us"),
                ),
                "o_orderpriority": pa.array(["1-URGENT"] * 4),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )

    out = _to_df(relational.q_order_count_distribution(str(tmp_path)))
    got = dict(zip(out["c_count"], out["custdist"]))
    assert got == {0: 3, 1: 1, 3: 1}
    # driver's sort contract
    pairs = list(zip(out["custdist"], out["c_count"]))
    assert pairs == sorted(pairs, key=lambda p: (-p[0], -p[1]))


def test_returned_items_revenue_above_2_53_is_exact(tmp_path):
    """Q10 revenue is an exact int64 lane: a customer whose returned
    revenue is an ODD value above 2^53 (not representable as float64)
    must come back to the last unit, and equal the DuckDB oracle."""
    import duckdb

    # cents odd × (100 − 1 bp) odd ⇒ an odd int64 revenue above 2^53
    cents = [90_981_810_653_951, 12_345]
    price = [c / 100 for c in cents]
    want = {7: cents[0] * 99, 8: cents[1] * 99}
    assert want[7] > 2**53 and want[7] % 2 == 1
    day = pd.Timestamp(relational.Q10_DATE_LO)
    tables = {
        "orders": {
            "o_orderkey": pa.array([1, 2], pa.int64()),
            "o_custkey": pa.array([7, 8], pa.int64()),
            "o_orderdate": pa.array([day, day], pa.timestamp("us")),
        },
        "lineitem": {
            "l_orderkey": pa.array([1, 2], pa.int64()),
            "l_returnflag": pa.array(["R", "R"]),
            "l_extendedprice": pa.array(price, pa.float64()),
            "l_discount": pa.array([0.01, 0.01], pa.float64()),
        },
        "customer": {
            "c_custkey": pa.array([7, 8], pa.int64()),
            "c_name": pa.array(["c7", "c8"]),
            "c_acctbal": pa.array([1.5, 2.5], pa.float64()),
            "c_nationkey": pa.array([0, 0], pa.int32()),
        },
        "nation": {
            "n_nationkey": pa.array([0], pa.int32()),
            "n_name": pa.array(["N0"]),
        },
    }
    con = duckdb.connect()
    for name, cols in tables.items():
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(pa.table(cols), path)
        con.execute(
            f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')"
        )
    out = _to_df(relational.q_returned_items(str(tmp_path)))
    assert dict(zip(out["c_custkey"], out["revenue_e4"])) == want
    ref = con.execute(relational.SQL_RETURNED_ITEMS).df()
    assert dict(zip(ref["c_custkey"], ref["revenue_e4"])) == want


def test_shipping_priority_ranks_revenue_above_2_53_exactly(tmp_path):
    """Q3 ranks by an exact int64 revenue lane: two orders whose totals
    differ by 1 above 2^53 (equal once rounded to float64) must rank as
    DuckDB ranks them, the larger total first."""
    import duckdb

    x = 90_071_992_547_410  # cents; 100·x > 2^53 and x even, so 100·x + 1
    want = {1: 100 * x, 2: 100 * x + 1}  # rounds to 100·x in float64
    assert want[1] > 2**53 and float(want[2]) == float(want[1])
    before = pd.Timestamp(relational.Q3_DATE) - pd.Timedelta(days=1)
    after = pd.Timestamp(relational.Q3_DATE) + pd.Timedelta(days=1)
    tables = {
        "customer": {
            "c_custkey": pa.array([7], pa.int64()),
            "c_mktsegment": pa.array([relational.Q3_SEGMENT]),
        },
        "orders": {
            "o_orderkey": pa.array([1, 2], pa.int64()),
            "o_custkey": pa.array([7, 7], pa.int64()),
            "o_orderdate": pa.array([before, before], pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT", "2-HIGH"]),
        },
        # order 2: (x − 98)·100 + 99·99 = 100·x + 1
        "lineitem": {
            "l_orderkey": pa.array([1, 2, 2], pa.int64()),
            "l_extendedprice": pa.array(
                [x / 100, (x - 98) / 100, 0.99], pa.float64()
            ),
            "l_discount": pa.array([0.0, 0.0, 0.01], pa.float64()),
            "l_shipdate": pa.array([after] * 3, pa.timestamp("us")),
        },
    }
    con = duckdb.connect()
    for name, cols in tables.items():
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(pa.table(cols), path)
        con.execute(
            f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')"
        )
    ref = con.execute(relational.SQL_SHIPPING_PRIORITY).df()
    assert list(ref["l_orderkey"]) == [2, 1]
    out = _to_df(relational.q_shipping_priority(str(tmp_path)))
    assert list(out["l_orderkey"]) == [2, 1]
