"""Scale-adaptive bucketing (functions/partitioning.py) — the r3
verdict's top item: the partitioned map_groups family must derive its
bucket count B from input size (bounded per-group memory, growing
parallelism) and must produce IDENTICAL results for any B / salt level.
"""

from __future__ import annotations

import pandas as pd
import pytest

from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.partitioning import (
    auto_salt_count,
    bucket_count,
    next_pow2,
    parquet_rows,
    parquet_token_estimate,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
    events,
    relational,
    textpipe,
    traindata,
)

SF = "/root/testdata/sf0.001"


def _df(out) -> pd.DataFrame:
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    out = out[sorted(out.columns)]
    return out.sort_values(list(out.columns)).reset_index(drop=True)


# -- the sizing math -----------------------------------------------------------


def test_next_pow2():
    assert [next_pow2(n) for n in (0, 1, 2, 3, 4, 5, 17, 1024)] == [
        1, 1, 2, 4, 4, 8, 32, 1024,
    ]


def test_bucket_count_scales_with_input():
    # the verdict's acceptance bar: forced-small rows-per-bucket must
    # push B well past the old fixed constants (>= 256)
    assert bucket_count(100_000, target_rows_per_bucket=100) >= 256
    assert bucket_count(100_000, target_rows_per_bucket=100) == 1024
    # bounded per-group memory: est_rows / B <= target (pre-clamp)
    for est in (10**6, 10**9, 5 * 10**9):
        b = bucket_count(est, target_rows_per_bucket=500_000)
        assert est / b <= 500_000
        assert b & (b - 1) == 0  # power of two — `key & (B-1)` stays valid
    # small inputs stay at the floor (test-scale behavior unchanged)
    assert bucket_count(1_000) == 16
    assert bucket_count(0, min_buckets=32) == 32


def test_bucket_count_env_knob(monkeypatch):
    monkeypatch.setenv("GRAFT_ROWS_PER_BUCKET", "10")
    assert bucket_count(100_000) >= 256


def test_row_estimates():
    assert parquet_rows(f"{SF}/orders.parquet") > 0
    assert parquet_rows(
        f"{SF}/orders.parquet", f"{SF}/lineitem.parquet"
    ) == parquet_rows(f"{SF}/orders.parquet") + parquet_rows(
        f"{SF}/lineitem.parquet"
    )
    # token estimate at least covers one token per doc
    assert parquet_token_estimate(f"{SF}/documents.parquet") >= parquet_rows(
        f"{SF}/documents.parquet"
    )


def test_salt_count_env(monkeypatch):
    """``GRAFT_JOIN_SALT`` overrides the heavy-hitter probe of
    :func:`auto_salt_count`, rounded up to a power of two; unset, the
    probe decides (salt 1 on sf0.001's near-uniform order keys)."""
    path = f"{SF}/lineitem.parquet"
    monkeypatch.delenv("GRAFT_JOIN_SALT", raising=False)
    assert auto_salt_count(path, "l_orderkey") == 1  # the probe: no hot key
    monkeypatch.setenv("GRAFT_JOIN_SALT", "4")
    assert auto_salt_count(path, "l_orderkey") == 4
    monkeypatch.setenv("GRAFT_JOIN_SALT", "3")
    assert auto_salt_count(path, "l_orderkey") == 4  # rounded up


# -- B-invariance: forced-large B gives bit-identical results ------------------

FORCED = [
    ("join_shuffle", relational.q_join_shuffle),
    ("anti_join", relational.q_anti_join),
    ("join_left", relational.q_join_left),
    ("revenue_by_segment", relational.q_revenue_by_segment),
    ("moving_average", events.q_moving_average),
    ("asof_join", events.q_asof_join),
    ("contamination_check", traindata.q_contamination_check),
    ("lm_unigram_score", traindata.q_lm_unigram_score),
    ("lm_bigram_score", traindata.q_lm_bigram_score),
    ("dsir_weights", traindata.q_dsir_weights),
    ("dup_spans", traindata.q_dup_spans),
    ("source_divergence", traindata.q_source_divergence),
    ("vocab_head_coverage", traindata.q_vocab_head_coverage),
    ("rare_token_docs", textpipe.q_rare_token_docs),
    ("returned_items", relational.q_returned_items),
    ("join_full", relational.q_join_full),
    ("bloom_semi_join", relational.q_bloom_semi_join),
    ("local_supplier_volume", relational.q_local_supplier_volume),
    ("shipping_priority", relational.q_shipping_priority),
    ("except_parts", relational.q_except_parts),
    ("above_avg_orders", relational.q_above_avg_orders),
    ("cumulative_revenue", relational.q_cumulative_revenue),
    ("first_last_orders", relational.q_first_last_orders),
    ("profile_orders", relational.q_profile_orders),
    ("large_orders", relational.q_large_orders),
    ("order_count_distribution", relational.q_order_count_distribution),
]


@pytest.mark.slow
@pytest.mark.parametrize("name,fn", FORCED, ids=[n for n, _ in FORCED])
def test_bucket_count_invariance(ray_session, monkeypatch, name, fn):
    """Tiny rows-per-bucket target => B >= 256 (vs the old fixed 16/32),
    and the result is identical — per-bucket work is a pure partition of
    the key space, so B only changes memory/parallelism, never values."""
    base = _df(fn(SF))
    monkeypatch.setenv("GRAFT_ROWS_PER_BUCKET", "50")
    forced = _df(fn(SF))
    pd.testing.assert_frame_equal(base, forced)


SALTED = [
    relational.q_join_shuffle,
    relational.q_revenue_by_segment,
    relational.q_local_supplier_volume,
    relational.q_shipping_priority,
    relational.q_returned_items,
]


@pytest.mark.slow
def test_salted_join_invariance(ray_session, monkeypatch):
    """GRAFT_JOIN_SALT=4 splits hot keys across sub-buckets on the
    additive-partial joins; results must not change."""
    base = [_df(fn(SF)) for fn in SALTED]
    monkeypatch.setenv("GRAFT_JOIN_SALT", "4")
    for fn, want in zip(SALTED, base):
        pd.testing.assert_frame_equal(want, _df(fn(SF)), obj=fn.__name__)


# -- automatic hot-key salting (r4 verdict #2) ---------------------------------


def _write_zipf_tables(tmp_path, hot_frac=0.5, n=4000):
    """orders/lineitem pair where one orderkey owns ``hot_frac`` of all
    lineitem rows (forced Zipf head)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.RandomState(7)
    n_hot = int(n * hot_frac)
    keys = np.concatenate(
        [np.zeros(n_hot, np.int64),
         rng.randint(1, 500, size=n - n_hot).astype(np.int64)]
    )
    rng.shuffle(keys)
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(keys),
                "l_extendedprice": pa.array(
                    rng.uniform(10, 1000, n).round(2)
                ),
                "l_discount": pa.array(rng.uniform(0, 0.1, n).round(2)),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    okeys = np.arange(0, 500, dtype=np.int64)
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(okeys),
                "o_orderpriority": pa.array(
                    [f"{1 + k % 5}-P" for k in okeys]
                ),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )


def test_auto_salt_detects_forced_zipf(tmp_path, monkeypatch):
    """A key owning half the rows must derive salt > 1 as soon as its
    row mass exceeds the per-bucket target — with NO env flag set."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.partitioning import (
        _HOT_SHARE_CACHE,
        auto_salt_count,
        hot_key_share,
    )

    _write_zipf_tables(tmp_path)
    monkeypatch.delenv("GRAFT_JOIN_SALT", raising=False)
    _HOT_SHARE_CACHE.clear()
    path = str(tmp_path / "lineitem.parquet")
    share = hot_key_share(path, "l_orderkey")
    assert 0.4 <= share <= 0.6  # the planted hot key owns ~half
    # hot key mass 2000 rows, target 100 ⇒ salt ≥ 16 (pow2 of ceil 20)
    s = auto_salt_count(path, "l_orderkey", target_rows_per_bucket=100)
    assert s >= 16
    # uniform-ish tail alone would not trigger: big target ⇒ salt 1
    assert auto_salt_count(
        path, "l_orderkey", target_rows_per_bucket=10_000
    ) == 1
    # explicit env override beats the probe (forced A/B runs)
    monkeypatch.setenv("GRAFT_JOIN_SALT", "4")
    assert auto_salt_count(
        path, "l_orderkey", target_rows_per_bucket=100
    ) == 4


@pytest.mark.slow
def test_auto_salted_join_hashes_unchanged(ray_session, tmp_path,
                                           monkeypatch):
    """q_join_shuffle on the forced-Zipf pair with auto-derived salt > 1
    must equal the DuckDB oracle exactly — salting splits buckets, never
    values — and per-group row mass stays bounded by the salted split."""
    import duckdb

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.partitioning import (
        _HOT_SHARE_CACHE,
        auto_salt_count,
    )

    _write_zipf_tables(tmp_path)
    monkeypatch.delenv("GRAFT_JOIN_SALT", raising=False)
    monkeypatch.setenv("GRAFT_ROWS_PER_BUCKET", "100")
    _HOT_SHARE_CACHE.clear()
    assert auto_salt_count(
        str(tmp_path / "lineitem.parquet"), "l_orderkey"
    ) > 1  # the query below really runs salted
    out = _df(relational.q_join_shuffle(str(tmp_path)))
    c = duckdb.connect()
    for t in ("orders", "lineitem"):
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{tmp_path}/{t}.parquet')"
        )
    ref = _df(c.execute(relational.SQL_JOIN_SHUFFLE).df())
    pd.testing.assert_frame_equal(out, ref, check_dtype=False)
