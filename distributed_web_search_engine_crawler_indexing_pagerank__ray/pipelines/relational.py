"""Generic dataflow operators over the testdata tables.

Each function maps one Flame operator family (SURVEY.md §2.1) onto the
idiomatic Ray Data shape and is paired with an ANSI-SQL oracle in
``__ray_entry__.oracle_sql``.  Column names match the SQL exactly
(driver hashes sorted-by-name columns).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..sources.tables import read_parquet_clean
from ..functions.partitioning import (
    BUCKET,
    auto_salt_count,
    bucket_count,
    bucketed,
    cobucketed,
    next_pow2,
    parquet_rows,
)
from ray.data.aggregate import Count, Mean, Sum


def _read(sf_dir: str, table: str, columns=None, **kwargs):
    return read_parquet_clean(
        f"{sf_dir}/{table}.parquet", columns=columns, **kwargs
    )


# -- #8 filter + #3 projection (vectorized predicate in map_batches) ---------


def q_filter_project(sf_dir: str):
    """lineitem: shipdate < 1995-07-01 → revenue column → top 100 rows.

    Flame: ``rdd.filter`` (``src/flame/Worker.java:892-941``) + fromTable
    projection.  Ray: pyarrow compute inside map_batches; sort+limit for a
    deterministic result set."""

    def fn(t: pa.Table) -> pa.Table:
        import datetime

        cutoff = pa.scalar(datetime.datetime(1995, 7, 1), pa.timestamp("us"))
        t = t.filter(pc.less(t["l_shipdate"], cutoff))
        rev = pc.round(
            pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])),
            ndigits=4,
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "revenue": rev,
            }
        )

    ds = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(fn, batch_format="pyarrow")
    return ds.sort(["revenue", "l_orderkey", "l_linenumber"], descending=[True, False, False]).limit(100)


SQL_FILTER_PROJECT = """
SELECT l_orderkey, l_linenumber,
       round(l_extendedprice * (1 - l_discount), 4) AS revenue
FROM lineitem
WHERE l_shipdate < TIMESTAMP '1995-07-01'
ORDER BY revenue DESC, l_orderkey, l_linenumber
LIMIT 100
"""


# -- #19 foldByKey → groupby().aggregate (the canonical shuffle-reduce) ------


def q_groupby_fold(sf_dir: str):
    """TPC-H-Q1-shaped grouped aggregate (Flame ``pair.foldByKey``,
    ``src/flame/Worker.java:213-293`` → ``groupby().aggregate``)."""

    def add_rev(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("revenue", rev)

    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(add_rev, batch_format="pyarrow")
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("l_quantity", alias_name="sum_qty"),
        Sum("revenue", alias_name="sum_revenue"),
        Mean("l_discount", alias_name="avg_disc"),
        Count(alias_name="n_rows"),
    )

    def round_cols(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": pc.round(t["sum_qty"], ndigits=2),
                "sum_revenue": pc.round(t["sum_revenue"], ndigits=2),
                "avg_disc": pc.round(t["avg_disc"], ndigits=6),
                "n_rows": t["n_rows"],
            }
        )

    return out.map_batches(round_cols, batch_format="pyarrow")


SQL_GROUPBY_FOLD = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2)                          AS sum_qty,
       round(sum(l_extendedprice * (1 - l_discount)), 2)  AS sum_revenue,
       round(avg(l_discount), 6)                          AS avg_disc,
       count(*)                                           AS n_rows
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


# -- #14 global fold (partial per partition + final combine) -----------------


def q_fold_global(sf_dir: str):
    """Global aggregate (Flame ``rdd.fold``, ``src/flame/Worker.java:756-806``):
    partial per-batch sums combined by ``Dataset.aggregate``."""
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    out = ds.aggregate(
        Sum("l_quantity", alias_name="total_qty"),
        Sum("l_extendedprice", alias_name="total_price"),
        Count(alias_name="n_rows"),
    )
    return pa.table(
        {
            "total_qty": pa.array([round(out["total_qty"], 2)], pa.float64()),
            "total_price": pa.array([round(out["total_price"], 2)], pa.float64()),
            "n_rows": pa.array([out["n_rows"]], pa.int64()),
        }
    )


SQL_FOLD_GLOBAL = """
SELECT round(sum(l_quantity), 2)      AS total_qty,
       round(sum(l_extendedprice), 2) AS total_price,
       count(*)                       AS n_rows
FROM lineitem
"""


# -- #10 distinct ------------------------------------------------------------


def q_distinct(sf_dir: str):
    """Exact distinct (Flame ``rdd.distinct`` collapses duplicates via
    KVS row keys, ``src/flame/Worker.java:708-754``; Ray: ``unique``)."""
    vals = sorted(_read(sf_dir, "customer", ["c_mktsegment"]).unique("c_mktsegment"))
    return pa.table({"c_mktsegment": pa.array(vals, pa.string())})


SQL_DISTINCT = "SELECT DISTINCT c_mktsegment FROM customer"


# -- #22 join (broadcast small side — `pair.join` is an index-nested-loop) ---


def q_join_broadcast(sf_dir: str):
    """orders ⋈ customer on custkey (Flame ``pair.join``,
    ``src/flame/Worker.java:808-890``, does per-key point lookups into the
    other table — i.e. an index-nested-loop join).  Ray: the small side is
    broadcast once via ``ray.put`` and each batch does a vectorized
    dictionary lookup — no shuffle."""
    cust_parts = list(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    cust = pa.concat_tables(cust_parts).combine_chunks()
    # broadcast the two columns once; per batch the lookup is a single
    # vectorized pc.index_in + take (no Python dict, no per-row loop)
    lookup_ref = ray.put((cust["c_custkey"], cust["c_mktsegment"]))

    def join_fn(t: pa.Table) -> pa.Table:
        keys, segs = ray.get(lookup_ref)
        idx = pc.index_in(t["o_custkey"], value_set=keys)
        return t.append_column("c_mktsegment", pc.take(segs, idx))

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        join_fn, batch_format="pyarrow"
    )
    out = ds.groupby("c_mktsegment").aggregate(
        Sum("o_totalprice", alias_name="sum_price"),
        Count(alias_name="n_orders"),
    )

    def round_cols(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": t["c_mktsegment"],
                "sum_price": pc.round(t["sum_price"], ndigits=2),
                "n_orders": t["n_orders"],
            }
        )

    return out.map_batches(round_cols, batch_format="pyarrow")


SQL_JOIN_BROADCAST = """
SELECT c.c_mktsegment,
       round(sum(o.o_totalprice), 2) AS sum_price,
       count(*)                      AS n_orders
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


# -- #22 join, large-large variant: partitioned (bucketed) hash join ---------


def _inner_merge(a, b, **kwargs):
    """pandas inner merge of two :func:`cobucketed` sides on ``key``;
    empty when either side has no rows in the bucket (it then has no
    columns to merge on)."""
    import pandas as pd

    if len(a) == 0 or len(b) == 0:
        return pd.DataFrame()
    return a.merge(b, on="key", **kwargs)


def q_join_shuffle(sf_dir: str):
    """orders ⋈ lineitem on orderkey — both sides large, so no
    broadcast: co-bucket both sides on the order key with
    :func:`cobucketed` and hash-join inside each bucket (the explicit
    partitioned hash join of ray_guide 'Joins and lookups').  Aggregates
    to revenue per order priority.

    Scale posture: B is derived from the two tables' parquet row counts
    (≤ ~target rows ⇒ ≤ ~50 MB pandas per group at ~100 B/row, B-way
    parallel).  Hot orderkeys additionally split into ``auto_salt_count()``
    sub-buckets — lineitem rows round-robin across salts, each orders
    row (1 per key) replicated into all of them; the per-bucket output
    is an additive partial sum, so any salt assignment is exact."""
    import pandas as pd

    B = bucket_count(
        parquet_rows(f"{sf_dir}/orders.parquet", f"{sf_dir}/lineitem.parquet")
    )
    S = auto_salt_count(f"{sf_dir}/lineitem.parquet", "l_orderkey")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    lineitem = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def orders_side(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["o_orderkey"], "priority": t["o_orderpriority"]})

    def lineitem_side(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table({"key": t["l_orderkey"], "revenue": rev})

    def join_bucket(o: pd.DataFrame, l: pd.DataFrame):
        m = _inner_merge(l, o)
        if len(m) == 0:
            return pa.schema(
                {"priority": pa.string(), "revenue": pa.float64()}
            ).empty_table()
        return m.groupby("priority", as_index=False)["revenue"].sum()

    partial = cobucketed(
        (orders, orders_side), (lineitem, lineitem_side), "key", B,
        join_bucket, salt=S,
    )
    out = partial.groupby("priority").aggregate(
        Sum("revenue", alias_name="sum_revenue")
    )

    def round_cols(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderpriority": t["priority"],
                "sum_revenue": pc.round(t["sum_revenue"], ndigits=2),
            }
        )

    return out.map_batches(round_cols, batch_format="pyarrow")


SQL_JOIN_SHUFFLE = """
SELECT o.o_orderpriority,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS sum_revenue
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority
"""


# -- #11 intersection (broadcast semi-join) ----------------------------------


def q_intersection(sf_dir: str):
    """Flame ``rdd.intersection`` loads the whole other table into a
    HashSet per worker (``src/flame/Worker.java:295-355``); Ray: broadcast
    the small distinct set, filter + unique."""
    part_keys = pa.array(
        sorted(_read(sf_dir, "part", ["p_partkey"]).unique("p_partkey")),
        pa.int64(),
    )
    keys_ref = ray.put(part_keys)

    def semi(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        hits = pc.filter(t["l_partkey"], pc.is_in(t["l_partkey"], value_set=keys))
        return pa.table({"partkey": pc.unique(hits).cast(pa.int64())})

    ds = _read(sf_dir, "lineitem", ["l_partkey"]).map_batches(
        semi, batch_format="pyarrow"
    )
    vals = sorted(set(ds.unique("partkey")))
    return pa.table({"partkey": pa.array(vals, pa.int64())})


SQL_INTERSECTION = """
SELECT DISTINCT l_partkey AS partkey FROM lineitem
INTERSECT
SELECT DISTINCT p_partkey AS partkey FROM part
"""


# -- #12 sample (deterministic seeded Bernoulli via md5) ---------------------


def q_sample(sf_dir: str):
    """Flame ``rdd.sample`` uses an unseeded Random per partition
    (``src/flame/Worker.java:357-397``) — nondeterministic.  Our engine
    makes sampling reproducible AND vectorized: keep rows where the
    Knuth multiplicative hash of the key, ``(key mod 2^32)·2654435761
    mod 2^32``, falls under p·2^32 (p = 0.1).  The multiplier is odd, so
    the map is a permutation of Z_2^32 — equidistributed over any key
    set — and the identical expression runs in the SQL oracle (one
    numpy multiply per batch; the previous version md5'd every row)."""
    threshold = np.uint64(int(0.1 * (1 << 32)))
    M32 = np.uint64(0xFFFFFFFF)
    A = np.uint64(2654435761)

    def fn(t: pa.Table) -> pa.Table:
        keys = t["o_orderkey"].to_numpy().astype(np.uint64)
        h = ((keys & M32) * A) & M32
        return t.filter(pa.array(h < threshold))

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        fn, batch_format="pyarrow"
    )
    out = ds.aggregate(
        Sum("o_totalprice", alias_name="sum_price"), Count(alias_name="n")
    )
    return pa.table(
        {
            "sum_price": pa.array([round(out["sum_price"] or 0.0, 2)], pa.float64()),
            "n": pa.array([out["n"]], pa.int64()),
        }
    )


SQL_SAMPLE = """
SELECT round(sum(o_totalprice), 2) AS sum_price, count(*) AS n
FROM orders
WHERE ((o_orderkey % 4294967296)::HUGEINT * 2654435761) % 4294967296
      < 429496729
"""


# -- #17 take / Q7 top-k (distributed sort + limit) --------------------------


def q_topk(sf_dir: str):
    """Top-20 orders by totalprice (query-side sort+page, SURVEY §2.7 Q7;
    Ray: ``sort(descending).limit``)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(20)


SQL_TOPK = """
SELECT o_orderkey, o_totalprice, o_orderdate
FROM orders
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 20
"""


# -- #15 count ---------------------------------------------------------------


def q_count(sf_dir: str):
    n = _read(sf_dir, "lineitem", ["l_orderkey"]).count()
    return pa.table({"n": pa.array([n], pa.int64())})


SQL_COUNT = "SELECT count(*) AS n FROM lineitem"


# -- anti join (set difference by key) ----------------------------------------


ANTI_PRIORITY = "1-URGENT"


def q_anti_join(sf_dir: str):
    """customer ANTI JOIN orders on custkey — customers with no URGENT
    order (unfiltered "no orders at all" is empty at every test sf).

    Same co-bucketed shape as :func:`q_join_shuffle` (both sides
    scale, so no broadcast); the probe side is filtered then reduced to
    its per-block DISTINCT keys inside map_batches before the shuffle,
    so the exchange moves at most |distinct custkeys|·blocks probe
    rows.

    Scale posture: B size-derived (see :func:`bucket_count`).  No
    salting — per-key cardinality is bounded by construction (1 build
    row per custkey, ≤ blocks distinct-key probe rows), so group size
    is already B-bounded; splitting a key across salts would drop
    customers whose probe key landed in a different salt."""
    B = bucket_count(
        parquet_rows(f"{sf_dir}/customer.parquet", f"{sf_dir}/orders.parquet")
    )
    customers = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def urgent_side(t: pa.Table) -> pa.Table:
        keys = pc.filter(
            t["o_custkey"], pc.equal(t["o_orderpriority"], ANTI_PRIORITY)
        )
        return pa.table({"c_custkey": pc.unique(keys)})  # per-block combiner

    def anti(cust: pa.Table, urgent: pa.Table) -> pa.Table:
        if cust.num_rows == 0:
            return pa.schema(
                {"c_custkey": pa.int64(), "c_name": pa.string()}
            ).empty_table()
        if urgent.num_rows == 0:
            return cust
        probe = pc.unique(urgent["c_custkey"].combine_chunks())
        return cust.filter(
            pc.invert(pc.is_in(cust["c_custkey"], value_set=probe))
        )

    return cobucketed(
        (customers, lambda t: t), (orders, urgent_side), "c_custkey", B,
        anti, batch_format="pyarrow",
    )


SQL_ANTI_JOIN = f"""
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN
      (SELECT o_custkey FROM orders WHERE o_orderpriority = '{ANTI_PRIORITY}')
"""


# -- grouped top-k -------------------------------------------------------------


TOPK_PER_GROUP = 3


def _topk_per_group(t: pa.Table) -> pa.Table:
    """≤ k best (totalprice desc, orderkey asc) rows per priority, fully
    vectorized: one arrow sort + a numpy run-rank scan."""
    import numpy as np

    idx = pc.sort_indices(
        t,
        sort_keys=[
            ("o_orderpriority", "ascending"),
            ("o_totalprice", "descending"),
            ("o_orderkey", "ascending"),
        ],
    )
    t = t.take(idx)
    pr = np.asarray(t["o_orderpriority"].to_pandas())
    if len(pr) == 0:
        return t
    new = np.concatenate([[True], pr[1:] != pr[:-1]])
    pos = np.arange(len(pr))
    run_start = np.maximum.accumulate(np.where(new, pos, 0))
    rank = pos - run_start
    return t.take(pa.array(np.flatnonzero(rank < TOPK_PER_GROUP), pa.int64()))


def q_grouped_topk(sf_dir: str):
    """Top-3 orders by totalprice per order priority — grouped top-k
    with a per-block combiner: each block first reduces to ≤ k rows per
    priority seen in it, so the groupby shuffles ≤ k·|groups|·blocks
    rows instead of the full table; the per-group reduce re-applies the
    same kernel (:func:`_topk_per_group`)."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"])
    combined = ds.map_batches(_topk_per_group, batch_format="pyarrow")
    return combined.groupby("o_orderpriority").map_groups(
        _topk_per_group, batch_format="pyarrow"
    )


SQL_GROUPED_TOPK = f"""
SELECT o_orderpriority, o_orderkey, o_totalprice
FROM (
    SELECT o_orderpriority, o_orderkey, o_totalprice,
           row_number() OVER (PARTITION BY o_orderpriority
                              ORDER BY o_totalprice DESC, o_orderkey) AS rn
    FROM orders
) WHERE rn <= {TOPK_PER_GROUP}
"""


# -- 3-table star join: broadcast dims + shuffled fact ------------------------


def q_revenue_by_segment(sf_dir: str):
    """customer ⋈ orders ⋈ lineitem → revenue per market segment for
    finished ('F') orders.  The star-join plan for a 100-TB fact table:

    1. the small dimension (customer → segment) is broadcast ONCE via
       ``ray.put`` and applied with vectorized ``pc.index_in`` inside
       ``map_batches`` — no shuffle for the dim join;
    2. the fact table (lineitem) pre-aggregates to one row per orderkey
       per block (revenue in INTEGER cents — ``floor(x*100 + 0.5)`` on
       both sides keeps the sum order-independent and hash-exact);
    3. orders(+segment) and the reduced fact co-locate through
       :func:`cobucketed` on the order key and hash-join per bucket;
    4. a tiny ``groupby(segment)`` finishes.

    The status filter is pushed into the parquet read (only 'F' order
    row groups leave storage).

    Scale posture: B size-derived from the two parquet row counts, so
    per-group memory is bounded by the rows-per-bucket target; hot
    orderkeys split into ``auto_salt_count()`` sub-buckets (orders row
    replicated, pre-aggregated fact partials round-robin) — exact
    because the per-bucket output is an additive cents partial."""
    import pandas as pd
    import pyarrow.dataset as pads

    B = bucket_count(
        parquet_rows(f"{sf_dir}/orders.parquet", f"{sf_dir}/lineitem.parquet")
    )
    S = auto_salt_count(f"{sf_dir}/lineitem.parquet", "l_orderkey")

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cust_tbl = pa.concat_tables(
        [b for b in cust.iter_batches(batch_format="pyarrow")],
        promote_options="default",
    )
    cust_ref = ray.put(
        (cust_tbl["c_custkey"].combine_chunks(), cust_tbl["c_mktsegment"].combine_chunks())
    )

    # the filter column must stay in the projection for the explicit
    # (metadata-free, hashable) schema to be valid; orders_side drops it
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus"],
        filter=pads.field("o_orderstatus") == "F",
    )
    lineitem = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def orders_side(t: pa.Table) -> pa.Table:
        keys, segs = ray.get(cust_ref)
        idx = pc.index_in(t["o_custkey"], value_set=keys)
        return pa.table({"key": t["o_orderkey"], "segment": pc.take(segs, idx)})

    def lineitem_side(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(rev, pa.scalar(100.0)), pa.scalar(0.5))),
            pa.int64(),
        )
        # per-block partial: one row per orderkey seen in the block
        return (
            pa.table({"key": t["l_orderkey"], "cents": cents})
            .group_by("key")
            .aggregate([("cents", "sum")])
            .rename_columns(["key", "cents"])
        )

    def join_bucket(o: "pd.DataFrame", l: "pd.DataFrame"):
        m = _inner_merge(l, o)
        if len(m) == 0:
            return pa.schema(
                {"segment": pa.string(), "cents": pa.int64()}
            ).empty_table()
        out = m.groupby("segment", as_index=False)["cents"].sum()
        return out.astype({"cents": "int64"})

    partial = cobucketed(
        (orders, orders_side), (lineitem, lineitem_side), "key", B,
        join_bucket, salt=S,
    )
    # final merge on the driver: the partial is ≤ B × |segments| additive
    # rows (domain-bounded, NOT data-sized), so a second sort-shuffle
    # for the ≤5-group aggregate would cost more in barrier/scheduling
    # than the whole join — same discipline as q_rollup_revenue's leaf.
    pdf = partial.to_pandas()
    agg = pdf.groupby("segment", as_index=False)["cents"].sum()
    return pa.table(
        {
            "c_mktsegment": pa.array(agg["segment"], pa.string()),
            "revenue": pa.array(
                (agg["cents"].to_numpy(np.int64) / 100.0).round(2),
                pa.float64(),
            ),
        }
    )


SQL_REVENUE_BY_SEGMENT = """
SELECT c.c_mktsegment,
       round(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
                      AS BIGINT)) / 100.0, 2) AS revenue
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE o.o_orderstatus = 'F'
GROUP BY c.c_mktsegment
"""


# -- left outer join (co-bucketed, null-preserving) ---------------------------


def q_join_left(sf_dir: str):
    """customer LEFT JOIN orders: per-customer order count + total
    spend, keeping zero-order customers (count 0, spend 0.00) — the
    null-preserving join variant ``q_join_shuffle`` (inner) and
    ``q_anti_join`` (null-only) bracket.

    Shape: both sides large → co-bucketed on custkey by
    :func:`cobucketed` (the partitioned hash-join of ray_guide 'Joins
    and lookups'); each bucket left-joins in Arrow and aggregates to final
    per-customer rows (custkey is unique per bucket, so no second
    shuffle).  Spend sums INTEGER cents — order-independent, hence
    hash-exact vs the SQL oracle; counts and sums stay int64 up to
    the final division.

    Scale posture: B size-derived, so one group ≤ ~target rows
    (≤ ~50 MB pandas).  No row salting — the group fn aggregates ALL of
    a customer's orders in one place; under a pathologically hot
    custkey the two-phase variant applies instead (salted per-key
    partials + one doc-sized ``groupby(key)`` merge, the shape
    ``q_join_shuffle`` already demonstrates)."""
    B = bucket_count(
        parquet_rows(f"{sf_dir}/customer.parquet", f"{sf_dir}/orders.parquet")
    )
    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def orders_side(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                    pa.scalar(0.5),
                )
            ),
            pa.int64(),
        )
        return pa.table({"c_custkey": t["o_custkey"], "cents": cents})

    def join_bucket(c: pa.Table, o: pa.Table) -> pa.Table:
        if c.num_rows == 0:
            return pa.schema(
                {"c_custkey": pa.int64(), "n_orders": pa.int64(),
                 "total_spent": pa.float64()}
            ).empty_table()
        if o.num_rows == 0:
            o = pa.schema({"c_custkey": pa.int64(), "cents": pa.int64()}).empty_table()
        agg = o.group_by("c_custkey").aggregate([([], "count_all"), ("cents", "sum")])
        m = c.join(agg, "c_custkey")  # left outer
        cents = pc.cast(pc.fill_null(m["cents_sum"], 0), pa.float64())
        return pa.table(
            {
                "c_custkey": m["c_custkey"],
                "n_orders": pc.fill_null(m["count_all"], 0),
                "total_spent": pc.round(
                    pc.divide(cents, pa.scalar(100.0)), ndigits=2
                ),
            }
        )

    return cobucketed(
        (cust, lambda t: t), (orders, orders_side), "c_custkey", B,
        join_bucket, batch_format="pyarrow",
    )


SQL_JOIN_LEFT = """
SELECT c.c_custkey,
       count(o.o_custkey) AS n_orders,
       round(COALESCE(sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)), 0)
             / 100.0, 2) AS total_spent
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY c.c_custkey
"""


# -- full outer join (null-preserving on BOTH sides) ---------------------------

FULL_JOIN_BAL = 5000.0  # high-balance threshold for the left side


def q_join_full(sf_dir: str):
    """High-balance customers FULL OUTER customers-with-orders — the
    last join variant (`join_shuffle` inner / `join_left` / `anti_join`
    bracket the others): unmatched rows survive on BOTH sides
    (high-balance customers with no orders → 'left'; ordering customers
    below the balance cut → 'right').  Nulls are coalesced to sentinels
    (-1.0 / 0) and a ``side`` marker, so the output is null-free and
    hashes stably.

    Shape = ``q_join_left``: the balance filter is pushed into the
    parquet read, orders pre-aggregate per block to (key, n) partials,
    both sides co-bucket on custkey through :func:`cobucketed`, and
    each bucket outer-joins in Arrow — a key lives wholly in its
    bucket, so per-bucket outer semantics are exact and no second
    shuffle is needed, and the int64 counts never pass through
    float64.  B is size-derived (bounded per-group memory,
    input-proportional parallelism)."""
    import pyarrow.dataset as pads

    B = bucket_count(
        parquet_rows(f"{sf_dir}/customer.parquet", f"{sf_dir}/orders.parquet")
    )
    hb = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal"],
        filter=pads.field("c_acctbal") > FULL_JOIN_BAL,
    )
    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust_schema = pa.schema({"key": pa.int64(), "acctbal": pa.float64()})
    count_schema = pa.schema({"key": pa.int64(), "n": pa.int64()})

    def cust_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {"key": t["c_custkey"], "acctbal": pc.cast(t["c_acctbal"], pa.float64())}
        )

    def orders_side(t: pa.Table) -> pa.Table:
        # per-block partial: one (key, n) row per custkey in the block
        return (
            pa.table({"key": t["o_custkey"]})
            .group_by("key")
            .aggregate([([], "count_all")])
            .rename_columns(count_schema.names)
        )

    def join_bucket(c: pa.Table, o: pa.Table) -> pa.Table:
        c = c if c.num_rows else cust_schema.empty_table()
        o = o if o.num_rows else count_schema.empty_table()
        n = o.group_by("key").aggregate([("n", "sum")])
        m = c.join(n, "key", join_type="full outer")
        no_cust = pc.is_null(m["acctbal"])
        side = pc.if_else(
            no_cust, "right", pc.if_else(pc.is_null(m["n_sum"]), "left", "both")
        )
        return pa.table(
            {
                "c_custkey": m["key"],
                "acctbal": pc.fill_null(m["acctbal"], -1.0),
                "n_orders": pc.fill_null(m["n_sum"], 0),
                "side": side,
            }
        )

    return cobucketed(
        (hb, cust_side), (orders, orders_side), "key", B, join_bucket,
        batch_format="pyarrow",
    )


SQL_JOIN_FULL = f"""
WITH hb AS (
    SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > {FULL_JOIN_BAL}
),
o AS (
    SELECT o_custkey AS key, count(*) AS n_orders FROM orders GROUP BY 1
)
SELECT coalesce(hb.c_custkey, o.key) AS c_custkey,
       coalesce(hb.c_acctbal, -1.0) AS acctbal,
       coalesce(o.n_orders, 0) AS n_orders,
       CASE WHEN hb.c_custkey IS NULL THEN 'right'
            WHEN o.key IS NULL THEN 'left' ELSE 'both' END AS side
FROM hb FULL JOIN o ON o.key = hb.c_custkey
"""


# -- global rank via range-partitioned prefix scan ----------------------------


def _range_ranked(tagged, fn, *, descending: bool = False):
    """Rank rows across value-range buckets without a global sort.
    ``tagged`` carries a ``BUCKET`` column that is a monotone function
    of the sort key.  Phase 1 counts each bucket; the driver prefix-sums
    those ≤ |buckets| counts in bucket order (``descending`` for a
    DESC key) and broadcasts them; phase 2 calls ``fn(rows, seed, n)``
    once per bucket, where ``seed`` is the number of rows in earlier
    buckets and ``n`` the grand total.  No stage holds more than one
    bucket; at 100 TB the bucket histogram would come from a sampled
    quantile sketch instead of a fixed width."""
    tagged = tagged.materialize()
    bm = (
        tagged.groupby(BUCKET)
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values(BUCKET, ascending=not descending)
    )
    counts = bm["n"].to_numpy(np.int64)
    prefix = np.concatenate([[np.int64(0)], np.cumsum(counts)[:-1]])
    small = ray.put(
        ({int(b): int(p) for b, p in zip(bm[BUCKET], prefix)}, int(counts.sum()))
    )

    def rank_bucket(g):
        seeds, n = ray.get(small)
        return fn(g, seeds[int(g[BUCKET].iloc[0])], n)

    return tagged.groupby(BUCKET).map_groups(rank_bucket, batch_format="pandas")


RANK_BUCKET_CHARS = 256  # n_chars per range-partition bucket


def q_global_rank(sf_dir: str):
    """Dense global rank of documents by (n_chars DESC, doc_id ASC) —
    total-order assignment WITHOUT a global sort shuffle: the sort key
    range-partitions rows (bucket = n_chars // 256, a value-range
    partition over a bounded column) and :func:`_range_ranked` offsets
    each bucket's local sort by the rows of the buckets before it.  The
    same shape ``traindata.q_pack_sequences`` uses for token offsets."""
    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                BUCKET: pc.cast(
                    pc.divide(t["n_chars"], pa.scalar(RANK_BUCKET_CHARS)),
                    pa.int64(),
                ),
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_chars": pc.cast(t["n_chars"], pa.int64()),
            }
        )

    def rank_bucket(g, seed: int, n: int) -> pa.Table:
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64)),
                "n_chars": pa.array(g["n_chars"].to_numpy(dtype=np.int64)),
                "rank": pa.array(
                    seed + 1 + np.arange(len(g), dtype=np.int64), pa.int64()
                ),
            }
        )

    return _range_ranked(
        docs.map_batches(tag, batch_format="pyarrow"), rank_bucket,
        descending=True,  # rank is n_chars DESC
    )


SQL_GLOBAL_RANK = """
SELECT doc_id, n_chars,
       row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rank
FROM documents
"""


# -- rollup aggregate (grouping-sets from one leaf pass) ----------------------


def q_rollup_revenue(sf_dir: str):
    """``GROUP BY ROLLUP(l_returnflag, l_linestatus)`` — revenue + row
    counts at three levels: (flag, status), (flag), grand total, with
    subtotal labels coalesced to ``'ALL'`` (null-free output, stable
    hashing; the data's flags/statuses are single chars so no
    collision).

    Plan: ONE shuffle total.  ``map_batches`` pre-aggregates each block
    to ≤ |flags × statuses| integer-cent partials (arrow ``group_by``),
    a groupby reduces those to the leaf table — whose cardinality is
    bounded by the domain (a handful of rows at ANY input scale, the
    TPC-H Q1 property) — and both rollup levels are derived from the
    leaf partials with pandas re-aggregation on the driver; no second
    pass over the input.  Integer-cent sums make every level
    order-independent, hence hash-exact vs the SQL oracle."""
    import pandas as pd

    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(rev, pa.scalar(100.0)), pa.scalar(0.5))),
            pa.int64(),
        )
        g = (
            pa.table(
                {
                    "l_returnflag": t["l_returnflag"],
                    "l_linestatus": t["l_linestatus"],
                    "cents": cents,
                    "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            )
            .group_by(["l_returnflag", "l_linestatus"])
            .aggregate([("cents", "sum"), ("n", "sum")])
        )
        return g.rename_columns(["l_returnflag", "l_linestatus", "cents", "n"])

    leaf = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("cents", alias_name="cents"), Sum("n", alias_name="n"))
        .to_pandas()  # bounded by the group domain, not the input size
    )
    lv1 = leaf.groupby("l_returnflag", as_index=False)[["cents", "n"]].sum()
    lv1["l_linestatus"] = "ALL"
    lv0 = pd.DataFrame(
        {
            "l_returnflag": ["ALL"],
            "l_linestatus": ["ALL"],
            "cents": [leaf["cents"].sum()],
            "n": [leaf["n"].sum()],
        }
    )
    out = pd.concat([leaf, lv1, lv0], ignore_index=True)
    return pa.table(
        {
            "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(out["l_linestatus"], pa.string()),
            "sum_revenue": pa.array(
                (out["cents"].to_numpy(dtype=np.int64) / 100.0).round(2),
                pa.float64(),
            ),
            "n_rows": pa.array(out["n"].to_numpy(dtype=np.int64), pa.int64()),
        }
    )


SQL_ROLLUP_REVENUE = """
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       round(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                      AS BIGINT)) / 100.0, 2) AS sum_revenue,
       count(*) AS n_rows
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


# -- pivot (long → wide conditional aggregation) -------------------------------

PIVOT_YEARS = tuple(range(1995, 2002))  # o_orderdate spans 1995-2001


def q_pivot_revenue(sf_dir: str):
    """Order revenue pivoted wide: one row per customer nation, one
    column per order year (``rev_1995 … rev_2001``) — the long→wide
    reshape every reporting layer needs, as conditional aggregation.

    Plan: both dims (customer → nationkey, nation → name) broadcast
    ONCE via ``ray.put`` and applied with vectorized ``pc.index_in``
    (no shuffle for the dim joins); each block pivots its own rows to
    |nations| × |years| integer-cent partials (pandas pivot_table on
    the block only), and the single shuffle is a tiny
    ``groupby(n_name)`` over those partials — additive, so hash-exact.
    Wide columns are FIXED by the year domain, so the schema is stable
    across blocks regardless of which years a block happens to hold."""
    import pandas as pd

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"])
    cust_tbl = pa.concat_tables(
        [b for b in cust.iter_batches(batch_format="pyarrow")],
        promote_options="default",
    )
    nat_tbl = pa.concat_tables(
        [b for b in nation.iter_batches(batch_format="pyarrow")],
        promote_options="default",
    )
    dims = ray.put(
        (
            cust_tbl["c_custkey"].combine_chunks(),
            cust_tbl["c_nationkey"].combine_chunks(),
            nat_tbl["n_nationkey"].combine_chunks(),
            nat_tbl["n_name"].combine_chunks(),
        )
    )
    rev_cols = [f"rev_{y}" for y in PIVOT_YEARS]

    def block_pivot(t: pa.Table) -> pa.Table:
        ck, cn, nk, nn = ray.get(dims)
        nkey = pc.take(cn, pc.index_in(t["o_custkey"], value_set=ck))
        name = pc.take(nn, pc.index_in(nkey, value_set=nk))
        cents = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                    pa.scalar(0.5),
                )
            ),
            pa.int64(),
        )
        df = pd.DataFrame(
            {
                "n_name": name.to_pandas(),
                "year": pc.year(t["o_orderdate"]).to_numpy(),
                "cents": cents.to_numpy(),
            }
        )
        wide = df.pivot_table(
            index="n_name", columns="year", values="cents",
            aggfunc="sum", fill_value=0,
        ).reindex(columns=list(PIVOT_YEARS), fill_value=0)
        out = {"n_name": pa.array(wide.index.to_numpy(), pa.string())}
        for y, c in zip(PIVOT_YEARS, rev_cols):
            out[c] = pa.array(wide[y].to_numpy(dtype=np.int64), pa.int64())
        return pa.table(out)

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderdate"])
    agg = (
        orders.map_batches(block_pivot, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(*[Sum(c, alias_name=c) for c in rev_cols])
    )

    def finish(t: pa.Table) -> pa.Table:
        out = {"n_name": t["n_name"]}
        for c in rev_cols:
            out[c] = pc.round(
                pc.divide(pc.cast(t[c], pa.float64()), pa.scalar(100.0)),
                ndigits=2,
            )
        return pa.table(out)

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_PIVOT_REVENUE = (
    "SELECT n_name,\n"
    + ",\n".join(
        f"  round(coalesce(sum(CASE WHEN year(o_orderdate) = {y} THEN"
        f" CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) END), 0)"
        f" / 100.0, 2) AS rev_{y}"
        for y in PIVOT_YEARS
    )
    + "\nFROM orders o\n"
    "JOIN customer c ON c.c_custkey = o.o_custkey\n"
    "JOIN nation n ON n.n_nationkey = c.c_nationkey\n"
    "GROUP BY n_name"
)


# -- stratified (balanced per-group) sampling ---------------------------------

STRAT_SAMPLE_K = 20


def q_stratified_sample(sf_dir: str):
    """Balanced per-segment customer sample: exactly ≤ k rows per
    mktsegment, selected by deterministic md5 rank — the
    source-balancing step of a training-data mixture (sample each
    stratum down to a common size without a seed file or an RNG whose
    state a resume would have to replay).

    Shape = grouped top-k (``q_grouped_topk``) with the hash as the
    order key: each block first reduces to ≤ k rows per segment seen in
    it (so the shuffle moves ≤ k·|segments|·blocks rows, never the full
    table), then one ``groupby(segment)`` re-applies the same kernel.
    The rank key is the first 8 bytes of ``md5(custkey)`` big-endian —
    chosen so DuckDB can recompute it bit-for-bit
    (``('0x' || substr(md5(CAST(k AS VARCHAR)), 1, 16))::UBIGINT``)."""
    import hashlib

    ds = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])

    def tag(t: pa.Table) -> pa.Table:
        keys = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(str(int(k)).encode()).digest()[:8], "big"
                )
                for k in keys
            ),
            dtype=np.uint64,
            count=len(keys),
        )
        return pa.table(
            {
                "c_custkey": pa.array(keys, pa.int64()),
                "c_mktsegment": t["c_mktsegment"],
                "c_acctbal": t["c_acctbal"],
                "hv": pa.array(hv, pa.uint64()),
            }
        )

    def keep_k(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t,
            sort_keys=[
                ("c_mktsegment", "ascending"),
                ("hv", "ascending"),
                ("c_custkey", "ascending"),
            ],
        )
        t = t.take(idx)
        seg = np.asarray(t["c_mktsegment"].to_pandas())
        if len(seg) == 0:
            return t
        new = np.concatenate([[True], seg[1:] != seg[:-1]])
        pos = np.arange(len(seg))
        run_start = np.maximum.accumulate(np.where(new, pos, 0))
        keep = (pos - run_start) < STRAT_SAMPLE_K
        return t.take(pa.array(np.flatnonzero(keep), pa.int64()))

    sampled = (
        ds.map_batches(tag, batch_format="pyarrow")
        .map_batches(keep_k, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .map_groups(keep_k, batch_format="pyarrow")
    )
    return sampled.drop_columns(["hv"])


SQL_STRATIFIED_SAMPLE = f"""
SELECT c_custkey, c_mktsegment, c_acctbal
FROM (
    SELECT c_custkey, c_mktsegment, c_acctbal,
           row_number() OVER (
               PARTITION BY c_mktsegment
               ORDER BY ('0x' || substr(md5(CAST(c_custkey AS VARCHAR)),
                                        1, 16))::UBIGINT,
                        c_custkey) AS rn
    FROM customer
) WHERE rn <= {STRAT_SAMPLE_K}
"""


# -- semi join (broadcast ids-only small side) --------------------------------

SEMI_BAL = 8000.0  # high-balance cut defining the small side


def q_join_semi(sf_dir: str):
    """Orders placed by high-balance customers — the SEMI JOIN verb
    (``WHERE key IN (small side)``), completing the join family
    (inner `join_shuffle`, `join_left`, `join_full`, anti `anti_join`).

    Shape: the canonical BROADCAST semi join — the build side is
    filtered AT THE PARQUET READ to its ids only (one int64 column),
    pulled once, ``ray.put`` once, and every probe task filters its
    block with a vectorized ``pc.is_in`` against the shared set; the
    probe side never shuffles.  Scale posture: the build side must fit
    in one object-store value (ids only — ~8 bytes/row, so ~10^8 keys
    per GB); past that, flip to the bucketed co-partition shape
    `q_anti_join` uses (:func:`cobucketed`, B size-derived)."""
    import pyarrow.dataset as pads

    hb = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal"],  # filter col must be projected
        filter=pads.field("c_acctbal") > SEMI_BAL,
    )
    keys = np.unique(
        np.concatenate(
            [b["c_custkey"].to_numpy(zero_copy_only=False)
             for b in hb.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, np.int64)]
        )
    )
    keys_ref = ray.put(keys)

    def probe(t: pa.Table) -> pa.Table:
        keep = pc.is_in(pc.cast(t["o_custkey"], pa.int64()),
                        value_set=pa.array(ray.get(keys_ref), pa.int64()))
        t = t.filter(keep)
        return pa.table(
            {
                "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
                "o_totalprice": t["o_totalprice"],
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return orders.map_batches(probe, batch_format="pyarrow")


SQL_JOIN_SEMI = f"""
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
WHERE o_custkey IN
      (SELECT c_custkey FROM customer WHERE c_acctbal > {SEMI_BAL})
"""


# -- set difference (EXCEPT over derived distinct sets) ------------------------

EXCEPT_LATE = "2001-01-01"   # parts sold on/after this ...
EXCEPT_EARLY = "1996-01-01"  # ... that were never sold before this


def q_except_parts(sf_dir: str):
    """Parts first sold late: DISTINCT partkeys shipped on/after
    ``EXCEPT_LATE`` minus partkeys shipped before ``EXCEPT_EARLY`` —
    the EXCEPT set verb (`distinct`/`intersection` cover the other set
    ops).

    Shape: ONE pass over lineitem with the two date windows pushed into
    the parquet read (`(ship >= late) OR (ship < early)`; the years
    between never leave storage); each block reduces to ≤ one
    (partkey, inA, inB) membership partial per key via an arrow
    ``group_by`` max, the partials hash-bucket on the key through a
    size-derived :func:`bucketed` exchange, and a vectorized kernel
    (``np.maximum.reduceat``) merges memberships and keeps
    ``inA & ~inB`` — set semantics without ever shuffling row-level
    data."""
    import datetime

    import pandas as pd
    import pyarrow.dataset as pads

    late = datetime.datetime.fromisoformat(EXCEPT_LATE)
    early = datetime.datetime.fromisoformat(EXCEPT_EARLY)
    B = bucket_count(parquet_rows(f"{sf_dir}/lineitem.parquet"))
    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= late)
        | (pads.field("l_shipdate") < early),
    )

    def partial(t: pa.Table) -> pa.Table:
        in_a = pc.greater_equal(
            t["l_shipdate"], pa.scalar(late, pa.timestamp("us"))
        )
        return (
            pa.table(
                {
                    "key": t["l_partkey"],
                    "in_a": pc.cast(in_a, pa.int8()),
                    "in_b": pc.cast(pc.invert(in_a), pa.int8()),
                }
            )
            .group_by("key")
            .aggregate([("in_a", "max"), ("in_b", "max")])
            .rename_columns(["key", "in_a", "in_b"])
        )

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("key", kind="mergesort")
        k = g["key"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        in_a = np.maximum.reduceat(g["in_a"].to_numpy(np.int8), starts)
        in_b = np.maximum.reduceat(g["in_b"].to_numpy(np.int8), starts)
        keep = (in_a == 1) & (in_b == 0)
        return pd.DataFrame({"partkey": k[starts][keep]})

    return bucketed(
        li.map_batches(partial, batch_format="pyarrow"), "key", B,
        merge_bucket,
    )


SQL_EXCEPT_PARTS = f"""
SELECT partkey FROM (
    SELECT DISTINCT l_partkey AS partkey FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{EXCEPT_LATE}'
    EXCEPT
    SELECT DISTINCT l_partkey FROM lineitem
    WHERE l_shipdate < TIMESTAMP '{EXCEPT_EARLY}'
)
"""


# -- fixed-bin histogram (computed-key groupby with block partials) ------------

HIST_BIN_WIDTH = 25000.0  # o_totalprice per bin (~20 bins over the range)


def q_histogram_prices(sf_dir: str):
    """Order-value histogram: orders binned by
    ``floor(o_totalprice / 25000)`` with count / integer-cents sum /
    min / max per bin — the distribution-profiling pass run before
    picking quality-filter thresholds.

    Shape: the bin key is computed vectorized in the scan, each block
    pre-aggregates to ≤ |bins| partial rows (count/sum combine
    additively, min/max idempotently), and the final combine groups
    ~20 partials — the histogram never shuffles row-level data, the
    exact partial-aggregate discipline every profiling sweep at 100 TB
    needs.  Bin boundaries are IEEE-deterministic: both sides compute
    ``floor(x / width)`` on the same doubles."""
    import pandas as pd

    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        tp = t["o_totalprice"]
        return (
            pa.table(
                {
                    "bin": pc.cast(
                        pc.floor(pc.divide(tp, HIST_BIN_WIDTH)), pa.int64()
                    ),
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                    "sum_cents": pc.cast(
                        pc.round(pc.multiply(tp, 100.0)), pa.int64()
                    ),
                    "min_price": tp,
                    "max_price": tp,
                }
            )
            .group_by("bin")
            .aggregate(
                [("n", "sum"), ("sum_cents", "sum"),
                 ("min_price", "min"), ("max_price", "max")]
            )
            .rename_columns(["bin", "n", "sum_cents", "min_price", "max_price"])
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "bin": [np.int64(g["bin"].iloc[0])],
                "n": [np.int64(g["n"].sum())],
                "sum_cents": [np.int64(g["sum_cents"].sum())],
                "min_price": [g["min_price"].min()],
                "max_price": [g["max_price"].max()],
            }
        )

    return (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .map_groups(merge, batch_format="pandas")
    )


SQL_HISTOGRAM_PRICES = f"""
SELECT CAST(floor(o_totalprice / {HIST_BIN_WIDTH}) AS BIGINT) AS bin,
       count(*) AS n,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_cents,
       min(o_totalprice) AS min_price,
       max(o_totalprice) AS max_price
FROM orders GROUP BY 1
"""


# -- calendar rollup (time-truncated groupby with block partials) --------------


def q_monthly_orders(sf_dir: str):
    """Orders per calendar month with integer-cents revenue — the
    time-series resample every monitoring/reporting pipeline runs.

    Shape: the month key is a vectorized ``strftime`` in the scan,
    blocks pre-aggregate to ≤ |months| partials, and the final combine
    touches only (months × blocks) rows — same discipline as
    `q_histogram_prices`, keyed by calendar bucket instead of value
    range."""
    import pandas as pd

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "ym": pc.strftime(t["o_orderdate"], format="%Y-%m"),
                    "n_orders": pa.array(np.ones(t.num_rows, np.int64)),
                    "revenue_cents": pc.cast(
                        pc.round(pc.multiply(t["o_totalprice"], 100.0)),
                        pa.int64(),
                    ),
                }
            )
            .group_by("ym")
            .aggregate([("n_orders", "sum"), ("revenue_cents", "sum")])
            .rename_columns(["ym", "n_orders", "revenue_cents"])
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "ym": [g["ym"].iloc[0]],
                "n_orders": [np.int64(g["n_orders"].sum())],
                "revenue_cents": [np.int64(g["revenue_cents"].sum())],
            }
        )

    return (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("ym")
        .map_groups(merge, batch_format="pandas")
    )


SQL_MONTHLY_ORDERS = """
SELECT strftime(o_orderdate, '%Y-%m') AS ym,
       count(*) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
FROM orders GROUP BY 1
"""


# -- grouped second moments (exact integer covariance sketch) ------------------


def q_grouped_moments(sf_dir: str):
    """Exact per-group second moments of lineitem (per l_returnflag:
    n, Σqty, Σqty², Σprice-cents, Σqty·price-cents) — the mergeable
    moments sketch from which mean/variance/covariance/correlation all
    derive in one pass.  Emitted as raw INTEGER sums (quantities are
    integer-valued, prices carry exactly 2 decimals) so the result is
    bit-exact under ANY block split or combine order — the
    hash-stable way to ship distribution statistics, where a float
    streaming variance would depend on reduction order.

    Shape: per-block arrow ``group_by`` partials (≤ |flags| rows per
    block) → tiny final combine; the moments never shuffle row-level
    data.  Bounds: Σqty·price_c ≤ 50·10⁷ per row ⇒ int64 holds ~10⁹
    rows per group; past that, split the sum into per-bucket int64
    lanes (or a 128-bit pair) before combining."""
    import pandas as pd

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        cents = pc.cast(
            pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64()
        )
        return (
            pa.table(
                {
                    "l_returnflag": t["l_returnflag"],
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                    "sum_qty": qty,
                    "sum_qty2": pc.multiply(qty, qty),
                    "sum_cents": cents,
                    "sum_qty_cents": pc.multiply(qty, cents),
                }
            )
            .group_by("l_returnflag")
            .aggregate(
                [("n", "sum"), ("sum_qty", "sum"), ("sum_qty2", "sum"),
                 ("sum_cents", "sum"), ("sum_qty_cents", "sum")]
            )
            .rename_columns(
                ["l_returnflag", "n", "sum_qty", "sum_qty2",
                 "sum_cents", "sum_qty_cents"]
            )
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                **{
                    c: [np.int64(g[c].sum())]
                    for c in ("n", "sum_qty", "sum_qty2",
                              "sum_cents", "sum_qty_cents")
                },
            }
        )

    return (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .map_groups(merge, batch_format="pandas")
    )


SQL_GROUPED_MOMENTS = """
SELECT l_returnflag,
       count(*) AS n,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)
                * CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty2,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_cents,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)
                * CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_qty_cents
FROM lineitem GROUP BY l_returnflag
"""


# -- correlated filter (per-key stat join-back, one co-bucketed shuffle) -------


def q_above_avg_orders(sf_dir: str):
    """Orders priced above their own customer's average order value —
    the correlated-subquery verb (``WHERE x > (SELECT avg(..) ...
    correlated)``), the normalize-against-your-group step every
    per-entity quality gate runs.

    Shape: the per-customer stat is as large as the key space, so NO
    broadcast — order rows hash-bucket on custkey through ONE
    size-derived :func:`bucketed` exchange, so every order of a
    customer meets in one bucket; each bucket sums its customers'
    integer cents and counts, then filters its own rows vectorized —
    the `lm_unigram_score` join-back shape on a relational key.
    Exactness: the mean is one IEEE division of exact integers,
    identical on the SQL side, so the `>` boundary is deterministic."""
    import pandas as pd

    B = bucket_count(parquet_rows(f"{sf_dir}/orders.parquet"))
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64())
        return t.append_column("cents", c)

    def filter_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per_cust = g.groupby("o_custkey")["cents"]
        mv = (per_cust.transform("sum").to_numpy(np.float64)
              / per_cust.transform("size").to_numpy(np.float64))
        keep = g["cents"].to_numpy(np.float64) > mv
        rows = g[keep]
        return pd.DataFrame(
            {
                "o_orderkey": rows["o_orderkey"].to_numpy(np.int64),
                "o_custkey": rows["o_custkey"].to_numpy(np.int64),
                "o_totalprice": rows["o_totalprice"].to_numpy(np.float64),
                "avg_cents": np.round(mv[keep], 6),
            }
        )

    return bucketed(
        orders.map_batches(cents, batch_format="pyarrow"), "o_custkey", B,
        filter_bucket,
    )


SQL_ABOVE_AVG_ORDERS = """
WITH a AS (
    SELECT o_custkey,
           count(*) AS n,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS sc
    FROM orders GROUP BY o_custkey
)
SELECT o.o_orderkey, o.o_custkey, o.o_totalprice,
       round(a.sc / a.n, 6) AS avg_cents
FROM orders o JOIN a USING (o_custkey)
WHERE CAST(round(o.o_totalprice * 100) AS BIGINT) > a.sc / a.n
"""


# -- per-key running total (segmented prefix scan, one shuffle) ---------------


def q_cumulative_revenue(sf_dir: str):
    """Per-customer running spend: for every order, the cumulative sum
    of that customer's order totals up to and including it, ordered by
    (o_orderdate, o_orderkey) — the ``SUM(...) OVER (PARTITION BY ...
    ORDER BY ...)`` window verb that lifetime-value and budget-cap
    pipelines run.

    Shape = ``events.q_event_deltas``: customers hash-bucket on custkey
    through ONE size-derived :func:`bucketed` exchange, then each
    bucket sorts its own rows once and computes a SEGMENTED cumulative
    sum fully vectorized (global ``np.cumsum`` minus each run's
    starting offset via ``np.repeat``) — no per-key Python loop.  All
    arithmetic in exact integer cents ⇒ hash-exact vs the SQL window
    oracle at any batch split.

    Scale posture: B size-derived ⇒ bounded per-group memory and
    input-proportional parallelism; no salting — a key's ordered run
    must stay intact (a hot customer sub-partitions by date range
    carrying one cumulative carry-in scalar per boundary)."""
    import pandas as pd

    B = bucket_count(parquet_rows(f"{sf_dir}/orders.parquet"))
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"])

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
                "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "date_us": pc.cast(t["o_orderdate"], pa.int64()),
                "cents": pc.cast(pc.round(pc.multiply(t["o_totalprice"],
                                                      100.0)),
                                 pa.int64()),
            }
        )

    def scan_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "date_us", "o_orderkey"],
                          kind="mergesort")
        k = g["o_custkey"].to_numpy(np.int64)
        v = g["cents"].to_numpy(np.int64)
        cs = np.cumsum(v)
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        counts = np.diff(np.concatenate([starts, [len(k)]]))
        # carry-in for each run = cumsum just before the run start
        seed = cs[starts] - v[starts]
        cum = cs - np.repeat(seed, counts)
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].to_numpy(np.int64),
                "o_custkey": k,
                "cum_spend_cents": cum.astype(np.int64),
            }
        )

    return bucketed(
        orders.map_batches(tag, batch_format="pyarrow"), "o_custkey", B,
        scan_bucket,
    )


SQL_CUMULATIVE_REVENUE = """
SELECT o_orderkey, o_custkey,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS cum_spend_cents
FROM orders
"""


# -- NTILE quartiles (global total order without a global sort shuffle) -------

NTILE_K = 4
NTILE_BUCKET_DOLLARS = 5  # price range per value-range partition


def q_ntile_price(sf_dir: str):
    """NTILE(4) of parts ordered by (p_retailprice, p_partkey) — the
    quartile-assignment verb behind price-banding and balanced binning.

    Shape = ``q_global_rank``: the sort key value-range-partitions rows
    (bucket = floor(price) // NTILE_BUCKET_DOLLARS), and
    :func:`_range_ranked` sorts WITHIN each bucket only and hands it
    the rows before it plus the grand total n, which the tile
    boundaries need.  Each global 0-based rank r maps to its SQL NTILE
    tile: the first ``n % k`` tiles take ``n//k + 1`` rows, the rest
    ``n//k`` — exact integer arithmetic both sides."""
    parts = _read(sf_dir, "part", ["p_partkey", "p_retailprice"])

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                BUCKET: pc.cast(
                    pc.floor(pc.divide(t["p_retailprice"],
                                       pa.scalar(float(NTILE_BUCKET_DOLLARS)))),
                    pa.int64(),
                ),
                "p_partkey": pc.cast(t["p_partkey"], pa.int64()),
                "p_retailprice": t["p_retailprice"],
            }
        )

    def tile_bucket(g, seed: int, n: int) -> pa.Table:
        g = g.sort_values(["p_retailprice", "p_partkey"])
        r = seed + np.arange(len(g), dtype=np.int64)  # 0-based global rank
        q, rem = divmod(n, NTILE_K)
        big = rem * (q + 1)  # rows covered by the (q+1)-sized tiles
        tile = np.where(
            r < big,
            r // (q + 1),
            rem + (r - big) // max(q, 1),
        ) + 1
        return pa.table(
            {
                "p_partkey": pa.array(g["p_partkey"].to_numpy(np.int64)),
                "p_retailprice": pa.array(
                    g["p_retailprice"].to_numpy(np.float64)
                ),
                "tile": pa.array(tile.astype(np.int64), pa.int64()),
            }
        )

    return _range_ranked(parts.map_batches(tag, batch_format="pyarrow"), tile_bucket)


SQL_NTILE_PRICE = f"""
SELECT p_partkey, p_retailprice,
       CAST(ntile({NTILE_K}) OVER (ORDER BY p_retailprice, p_partkey)
            AS BIGINT) AS tile
FROM part
"""


# -- Bloom-prefiltered semi join (sketch broadcast + exact co-partition) ------

BLOOM_SIZE_MIN = 40  # build side: parts at least this large
BLOOM_K = 4          # hash probes per key


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (public splitmix64 constants), vectorized
    over a uint64 array; uint64 arithmetic wraps, which is the point."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _bloom_bits(keys: np.ndarray, m_bits: int) -> np.ndarray:
    """Packed uint64 Bloom bit array of ``keys`` (BLOOM_K probes each)."""
    bits = np.zeros(m_bits // 64, np.uint64)
    h = keys.astype(np.uint64)
    for i in range(BLOOM_K):
        h = _splitmix64(h + np.uint64(i * 0x9E3779B9))
        idx = h & np.uint64(m_bits - 1)
        np.bitwise_or.at(bits, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))
    return bits


def _bloom_maybe(keys: np.ndarray, bits: np.ndarray, m_bits: int) -> np.ndarray:
    """Membership mask: True where the filter MAY contain the key."""
    h = keys.astype(np.uint64)
    keep = np.ones(len(keys), bool)
    for i in range(BLOOM_K):
        h = _splitmix64(h + np.uint64(i * 0x9E3779B9))
        idx = h & np.uint64(m_bits - 1)
        word = bits[(idx >> np.uint64(6)).astype(np.int64)]
        keep &= (word >> (idx & np.uint64(63))) & np.uint64(1) != 0
    return keep


def q_bloom_semi_join(sf_dir: str, m_bits: int | None = None):
    """Lineitems of large parts (p_size ≥ BLOOM_SIZE_MIN) — the same
    SEMI JOIN verb as ``q_join_semi``, but via the BLOOM-PREFILTER
    pattern for when the build side's exact key set is too big to
    broadcast: ship a fixed-size bit sketch instead, let every probe
    task drop the guaranteed-misses locally, and make the result exact
    with a co-partitioned verify over only the SURVIVORS.

    Three stages, all distributed:
      1. build — each build block hashes its keys into a packed
         uint64 Bloom array (BLOOM_K splitmix64 probes); the per-block
         arrays OR together on the driver (the sketch is O(m) = a few
         hundred KB regardless of build rows) and broadcast once with
         ``ray.put``.
      2. probe — every lineitem block tests its partkeys against the
         shared bits vectorized; false positives survive, misses
         (guaranteed correct) are dropped, typically >90 % of rows.
      3. verify — survivors and true build keys co-bucket on the
         partkey through one size-derived :func:`cobucketed` exchange;
         each bucket keeps survivors whose key is actually present
         (``pc.is_in``).  The shuffle moves only survivors, which is
         the entire point of stage 2.

    Exactness: Bloom filters have no false negatives, and stage 3
    removes the false positives, so the result equals the plain SQL
    semi join for ANY m_bits (a unit test forces a tiny, collision-
    heavy filter and checks invariance)."""
    import pyarrow.dataset as pads

    build = read_parquet_clean(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_size"],
        filter=pads.field("p_size") >= BLOOM_SIZE_MIN,
    )
    n_build = max(build.count(), 1)
    if m_bits is None:
        m_bits = max(next_pow2(16 * n_build), 1 << 14)

    def block_bits(t: pa.Table) -> pa.Table:
        bits = _bloom_bits(
            t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64),
            m_bits,
        )
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    merged = np.zeros(m_bits // 64, np.uint64)
    for b in build.map_batches(
        block_bits, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for raw in b["bits"].to_pylist():
            merged |= np.frombuffer(raw, np.uint64)
    bits_ref = ray.put(merged)

    B = bucket_count(parquet_rows(f"{sf_dir}/lineitem.parquet"))

    def survivors(t: pa.Table) -> pa.Table:
        keys = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_bloom_maybe(keys, ray.get(bits_ref), m_bits)))
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": pc.cast(t["l_linenumber"], pa.int64()),
                "l_partkey": t["l_partkey"],
            }
        )

    def verify(built: pa.Table, rows: pa.Table) -> pa.Table:
        if built.num_rows == 0 or rows.num_rows == 0:
            return pa.schema(
                {"l_orderkey": pa.int64(), "l_linenumber": pa.int64(),
                 "l_partkey": pa.int64()}
            ).empty_table()
        present = built["l_partkey"].combine_chunks()
        return rows.filter(pc.is_in(rows["l_partkey"], value_set=present))

    lineitem = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_partkey"]
    )
    return cobucketed(
        (build, lambda t: pa.table({"l_partkey": t["p_partkey"]})),
        (lineitem, survivors), "l_partkey", B, verify,
        batch_format="pyarrow",
    )


SQL_BLOOM_SEMI_JOIN = f"""
SELECT l_orderkey, l_linenumber, l_partkey FROM lineitem
WHERE l_partkey IN
      (SELECT p_partkey FROM part WHERE p_size >= {BLOOM_SIZE_MIN})
"""


# -- per-key first/last (arg-min/arg-max via combinable encoded extremes) -----

_FL_SHIFT = np.int64(1) << np.int64(32)  # orderkey packs below the date


def q_first_last_orders(sf_dir: str):
    """Per customer: order count plus the orderkey of the FIRST and
    LAST order by (o_orderdate, o_orderkey) — the arg-min/arg-max verb
    (SQL ``min_by``/``max_by`` with a deterministic tie-break).

    Shape: the textbook COMBINABLE pre-aggregation — each block packs
    (epoch-day, orderkey) into one int64 (day·2³² + key, exact: day
    < 2²⁰, key < 2³²), reduces per customer to (min, max, count)
    partials inside ``map_batches`` (arrow ``group_by`` per block),
    and ONE size-derived :func:`bucketed` exchange combines partials with
    the SAME min/max/sum, vectorized across the whole bucket (one
    pandas groupby per bucket, not one Python call per customer) —
    associative, so any split of the input yields identical results.  The shuffle carries ≤ |distinct keys|
    rows per block, not the raw table: the pre-agg IS the scale story.
    Decode back to orderkey with a bit mask."""
    import pandas as pd

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    B = bucket_count(parquet_rows(f"{sf_dir}/orders.parquet"))

    def partial(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t["o_orderdate"], pa.int64()),
                        pa.scalar(86_400_000_000))
        ck = pc.add(pc.multiply(day, pa.scalar(int(_FL_SHIFT))),
                    pc.cast(t["o_orderkey"], pa.int64()))
        return (
            pa.table(
                {
                    "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
                    "lo": ck,
                    "hi": ck,
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                }
            )
            .group_by("o_custkey")
            .aggregate([("lo", "min"), ("hi", "max"), ("n", "sum")])
            .rename_columns(["o_custkey", "lo", "hi", "n"])
        )

    def combine_bucket(g: pd.DataFrame) -> pa.Table:
        # VECTORIZED combine over the whole hash bucket — one pandas
        # groupby per ~rows/B customers, not one Python call per group
        gr = g.groupby("o_custkey", as_index=False).agg(
            lo=("lo", "min"), hi=("hi", "max"), n=("n", "sum")
        )
        mask = np.int64(_FL_SHIFT - 1)
        return pa.table(
            {
                "o_custkey": pa.array(gr["o_custkey"].to_numpy(np.int64)),
                "n_orders": pa.array(gr["n"].to_numpy(np.int64)),
                "first_orderkey": pa.array(
                    gr["lo"].to_numpy(np.int64) & mask
                ),
                "last_orderkey": pa.array(
                    gr["hi"].to_numpy(np.int64) & mask
                ),
            }
        )

    return bucketed(
        orders.map_batches(partial, batch_format="pyarrow"), "o_custkey", B,
        combine_bucket,
    )


SQL_FIRST_LAST_ORDERS = f"""
WITH e AS (
    SELECT o_custkey,
           CAST(epoch(o_orderdate) AS BIGINT) // 86400 * {1 << 32}
               + o_orderkey AS ck
    FROM orders
)
SELECT o_custkey,
       count(*) AS n_orders,
       min(ck) % {1 << 32} AS first_orderkey,
       max(ck) % {1 << 32} AS last_orderkey
FROM e GROUP BY o_custkey
"""


# -- Pareto frontier (frontier-of-frontiers combinable reduce) ----------------


def _frontier(price: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Boolean mask of the (min price, max size) Pareto frontier.

    A row survives iff no other row is ≤ in price AND ≥ in size with at
    least one strict.  Vectorized: sort by (price asc, size desc); a row
    is dominated iff the running size-max over STRICTLY cheaper rows
    reaches its size, or an equal-price row has strictly larger size
    (i.e. it is not its price group's max)."""
    order = np.lexsort((-size, price))
    p, s = price[order], size[order]
    # exclusive prefix max of size over strictly-cheaper prices
    run = np.maximum.accumulate(s)
    new_price = np.concatenate([[True], p[1:] != p[:-1]])
    grp = np.cumsum(new_price) - 1  # price-group index per row
    grp_starts = np.flatnonzero(new_price)
    before = np.where(
        grp_starts[grp] > 0, run[np.maximum(grp_starts[grp] - 1, 0)],
        np.iinfo(np.int64).min,
    )
    grp_max = s[grp_starts[grp]]  # sorted size-desc ⇒ group max is first row
    keep_sorted = (s > before) & (s == grp_max)
    keep = np.zeros(len(price), bool)
    keep[order] = keep_sorted
    return keep


def q_pareto_parts(sf_dir: str):
    """Parts on the (cheapest, largest) Pareto frontier — the skyline
    verb product-search and data-curation tradeoff filters run.

    Shape: skylines are COMBINABLE — frontier(A ∪ B) =
    frontier(frontier(A) ∪ frontier(B)) — so each block reduces to its
    local frontier vectorized (sort + running max, no O(n²)), and one
    final pass over the union of the tiny local frontiers (≤ |distinct
    prices| rows each) finishes the job.  The all-pairs work the naive
    SQL does never happens; at 100 TB the final pass is over a few
    thousand rows and the combine tree can add levels if ever needed.
    Ties: duplicate (price, size) points are mutually non-dominating
    and all kept, exactly like the NOT EXISTS oracle."""

    parts = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])

    def local(t: pa.Table) -> pa.Table:
        price = t["p_retailprice"].to_numpy(zero_copy_only=False)
        size = t["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        # exact-decimal prices: compare in integer tenths-of-cents
        p_i = np.round(price * 1000).astype(np.int64)
        keep = _frontier(p_i, size)
        return pa.table(
            {
                "p_partkey": pc.cast(t["p_partkey"], pa.int64()).filter(
                    pa.array(keep)
                ),
                "p_retailprice": t["p_retailprice"].filter(pa.array(keep)),
                "p_size": pc.cast(t["p_size"], pa.int64()).filter(
                    pa.array(keep)
                ),
            }
        )

    return (
        parts.map_batches(local, batch_format="pyarrow")
        .repartition(1)
        # batch_size=None ⇒ the single merged block arrives as ONE batch,
        # so the second pass really is the global frontier
        .map_batches(local, batch_format="pyarrow", batch_size=None)
    )


SQL_PARETO_PARTS = """
SELECT p_partkey, p_retailprice, CAST(p_size AS BIGINT) AS p_size
FROM part p
WHERE NOT EXISTS (
    SELECT 1 FROM part q
    WHERE q.p_retailprice <= p.p_retailprice AND q.p_size >= p.p_size
      AND (q.p_retailprice < p.p_retailprice OR q.p_size > p.p_size)
)
"""


# -- union distinct (completes the set-operation family) -----------------------


def q_union_months(sf_dir: str):
    """UNION (distinct) of the calendar months seen in lineitem
    shipments and in order dates — the set-union verb that completes
    this module's intersection (`q_intersection`) / difference
    (`q_except_parts`) family.

    Shape: each side reduces its blocks to per-block DISTINCT month
    partials (≤ |months| rows per block — the dedup happens before any
    shuffle), the two partial streams concatenate with ``Dataset.union``
    (a metadata-only merge, no data movement), and one tiny
    ``groupby(ym)`` collapses duplicates across blocks AND sides.  At
    100 TB each side ships only blocks×|months| short strings."""
    import pandas as pd

    li = _read(sf_dir, "lineitem", ["l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def months_of(col):
        def part(t: pa.Table) -> pa.Table:
            return pa.table(
                {"ym": pc.unique(pc.strftime(t[col], format="%Y-%m"))}
            )

        return part

    # the partial stream is blocks × |distinct months| rows (domain-
    # bounded: ≤ a few hundred calendar months even at 100 TB), so the
    # final distinct is a driver dedup, not a sort-shuffle
    pdf = (
        li.map_batches(months_of("l_shipdate"), batch_format="pyarrow")
        .union(orders.map_batches(months_of("o_orderdate"),
                                  batch_format="pyarrow"))
        .to_pandas()
    )
    return pa.table(
        {"ym": pa.array(sorted(pdf["ym"].unique()), pa.string())}
    )


SQL_UNION_MONTHS = """
SELECT strftime(l_shipdate, '%Y-%m') AS ym FROM lineitem
UNION
SELECT strftime(o_orderdate, '%Y-%m') AS ym FROM orders
"""


# -- period-over-period delta (lag over an aggregated series) ------------------


def q_mom_change(sf_dir: str):
    """Month-over-month revenue delta per order priority — the
    period-over-period reporting verb (growth dashboards, regression
    alerts).

    Shape: the heavy part is a plain partial-agg (blocks pre-sum to
    ≤ |months|·|priorities| integer-cents partials); the lag itself
    runs INSIDE a per-priority ``map_groups`` over the already-reduced
    series (|months| rows — window-over-aggregate, never
    window-over-raw-rows).  First month lags against 0 (COALESCE on
    both sides) so every column stays exact int64."""
    import pandas as pd

    orders = _read(
        sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"]
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "o_orderpriority": t["o_orderpriority"],
                    "ym": pc.strftime(t["o_orderdate"], format="%Y-%m"),
                    "revenue_cents": pc.cast(
                        pc.round(pc.multiply(t["o_totalprice"], 100.0)),
                        pa.int64(),
                    ),
                }
            )
            .group_by(["o_orderpriority", "ym"])
            .aggregate([("revenue_cents", "sum")])
            .rename_columns(["o_orderpriority", "ym", "revenue_cents"])
        )

    def lag_series(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby("ym", as_index=False)["revenue_cents"]
            .sum()
            .sort_values("ym")
        )
        rev = s["revenue_cents"].to_numpy(np.int64)
        prev = np.concatenate([[np.int64(0)], rev[:-1]])
        return pd.DataFrame(
            {
                "o_orderpriority": g["o_orderpriority"].iloc[0],
                "ym": s["ym"].to_numpy(object),
                "revenue_cents": rev,
                "prev_cents": prev,
                "delta_cents": rev - prev,
            }
        )

    return (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(lag_series, batch_format="pandas")
    )


SQL_MOM_CHANGE = """
WITH m AS (
    SELECT o_orderpriority, strftime(o_orderdate, '%Y-%m') AS ym,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS revenue_cents
    FROM orders GROUP BY 1, 2
)
SELECT o_orderpriority, ym, revenue_cents,
       CAST(COALESCE(lag(revenue_cents) OVER (
           PARTITION BY o_orderpriority ORDER BY ym), 0) AS BIGINT)
           AS prev_cents,
       CAST(revenue_cents - COALESCE(lag(revenue_cents) OVER (
           PARTITION BY o_orderpriority ORDER BY ym), 0) AS BIGINT)
           AS delta_cents
FROM m
"""


# -- grouped linear regression (exact integer moment sums → slope) -------------


def q_grouped_regression(sf_dir: str):
    """Per-group OLS fit: the least-squares slope of quantity on
    discount (in integer percent points) for each l_returnflag — the
    per-key model-fit verb behind feature/label drift checks and
    per-segment trend estimation.

    Shape: identical to `q_grouped_moments` — blocks reduce to the five
    integer moment sums (n, Σx, Σy, Σx², Σxy) per group, which are
    additive under any split; the closed-form slope
    ``(n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)`` is evaluated once per group
    on the merged sums.  Exactness: the division is TRUNCATING toward
    zero in micro-units on both engines (DuckDB ``//`` truncates;
    Python ``//`` floors — they differ on negative numerators, so the
    Ray side applies |num|//den with the numerator's sign).  Python
    ints carry the 10⁶-scaled numerator (can exceed int64); the final
    slope is small.  Bounds note: x ≤ 10, y ≤ 50 keep every SHIPPED
    sum comfortably inside int64 at ~10¹² rows/group."""
    import pandas as pd

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        y = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        x = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)), pa.int64())
        return (
            pa.table(
                {
                    "l_returnflag": t["l_returnflag"],
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                    "sx": x,
                    "sy": y,
                    "sxx": pc.multiply(x, x),
                    "sxy": pc.multiply(x, y),
                }
            )
            .group_by("l_returnflag")
            .aggregate([("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                        ("sxx", "sum"), ("sxy", "sum")])
            .rename_columns(["l_returnflag", "n", "sx", "sy", "sxx", "sxy"])
        )

    def fit(g: pd.DataFrame) -> pd.DataFrame:
        n, sx, sy, sxx, sxy = (
            int(g[c].sum()) for c in ("n", "sx", "sy", "sxx", "sxy")
        )
        num = (n * sxy - sx * sy) * 10**6
        den = n * sxx - sx * sx
        if den == 0:
            slope = 0
        else:
            slope = abs(num) // den * (1 if num >= 0 else -1)
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "n": [np.int64(n)],
                "sx": [np.int64(sx)],
                "sy": [np.int64(sy)],
                "sxx": [np.int64(sxx)],
                "sxy": [np.int64(sxy)],
                "slope_micro": [np.int64(slope)],
            }
        )

    return (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .map_groups(fit, batch_format="pandas")
    )


SQL_GROUPED_REGRESSION = """
WITH s AS (
    SELECT l_returnflag,
           count(*) AS n,
           sum(CAST(round(l_discount * 100) AS BIGINT)) AS sx,
           sum(CAST(round(l_quantity) AS BIGINT)) AS sy,
           sum(CAST(round(l_discount * 100) AS BIGINT)
               * CAST(round(l_discount * 100) AS BIGINT)) AS sxx,
           sum(CAST(round(l_discount * 100) AS BIGINT)
               * CAST(round(l_quantity) AS BIGINT)) AS sxy
    FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag,
       CAST(n AS BIGINT) AS n, CAST(sx AS BIGINT) AS sx,
       CAST(sy AS BIGINT) AS sy, CAST(sxx AS BIGINT) AS sxx,
       CAST(sxy AS BIGINT) AS sxy,
       CAST(CASE WHEN CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx = 0
                 THEN 0
                 ELSE ((CAST(n AS HUGEINT) * sxy
                        - CAST(sx AS HUGEINT) * sy) * 1000000)
                      // (CAST(n AS HUGEINT) * sxx
                          - CAST(sx AS HUGEINT) * sx)
            END AS BIGINT) AS slope_micro
FROM s
"""


# -- table profiling sweep (per-column stats in one pass + distinct reduce) ----

PROFILE_COLS = ("o_orderstatus", "o_orderpriority", "o_custkey")


def q_profile_orders(sf_dir: str):
    """Dataset profiler over `orders`: one row per profiled column with
    (row count, null count, EXACT distinct count, min, max) — the
    schema-quality sweep every ingestion pipeline runs before training
    or serving on a new drop.

    Shape: two partial streams, neither ever ships raw rows twice.
    (1) Stats: each block folds every column to one (col, n, n_null,
    is_num, typed min/max) row — numeric columns keep int64 min/max
    lanes (string min/max of "10" < "9" would be wrong), string columns
    keep string lanes; the numeric/string split is an EXPLICIT per-block
    ``is_num`` flag from the arrow type (inferring it from a sentinel
    would misclassify an all-NULL int column), and an all-NULL column
    yields NULL min/max like SQL; a tiny driver merge finishes.
    (2) Distinct: per-block ``pc.unique`` partials per column (value
    space cast to string — injective for ints, so counts are
    unchanged), then ONE size-derived :func:`bucketed` exchange on v
    where each bucket drop-duplicates (col, v) and emits per-col count
    partials — every (col, v) pair lives in exactly one bucket, so the
    partials are additive and the driver stitches |cols|×B scalars.
    No per-(col,value) map_groups anywhere: the old shape paid Ray's
    ~0.75 ms/group dispatch once per distinct value (linear in data).
    At 100 TB each stream moves blocks×|cols| (stats) and
    Σ|col distincts| (distinct) rows."""
    import pandas as pd

    orders = _read(sf_dir, "orders", list(PROFILE_COLS))
    NB = bucket_count(parquet_rows(f"{sf_dir}/orders.parquet"))
    I64_MIN, I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

    def stat_partial(t: pa.Table) -> pa.Table:
        rows = {
            "col_name": [], "n_rows": [], "n_null": [], "is_num": [],
            "min_i": [], "max_i": [], "min_s": [], "max_s": [],
        }
        for col in PROFILE_COLS:
            a = t[col]
            rows["col_name"].append(col)
            rows["n_rows"].append(len(a))
            rows["n_null"].append(a.null_count)
            rows["is_num"].append(pa.types.is_integer(a.type))
            if pa.types.is_integer(a.type):
                rows["min_i"].append(pc.min(a).as_py()
                                     if len(a) > a.null_count else I64_MAX)
                rows["max_i"].append(pc.max(a).as_py()
                                     if len(a) > a.null_count else I64_MIN)
                rows["min_s"].append(None)
                rows["max_s"].append(None)
            else:
                rows["min_i"].append(I64_MAX)
                rows["max_i"].append(I64_MIN)
                rows["min_s"].append(pc.min(a).as_py())
                rows["max_s"].append(pc.max(a).as_py())
        return pa.table(
            {
                "col_name": pa.array(rows["col_name"], pa.string()),
                "n_rows": pa.array(rows["n_rows"], pa.int64()),
                "n_null": pa.array(rows["n_null"], pa.int64()),
                "is_num": pa.array(rows["is_num"], pa.bool_()),
                "min_i": pa.array(rows["min_i"], pa.int64()),
                "max_i": pa.array(rows["max_i"], pa.int64()),
                "min_s": pa.array(rows["min_s"], pa.string()),
                "max_s": pa.array(rows["max_s"], pa.string()),
            }
        )

    def stat_merge(g: pd.DataFrame) -> pd.DataFrame:
        col = g["col_name"].iloc[0]
        is_num = bool(g["is_num"].iloc[0])
        all_null = int(g["n_rows"].sum()) == int(g["n_null"].sum())
        if all_null:
            mn = mx = None  # SQL min/max of an all-NULL column is NULL
        elif is_num:
            mn, mx = str(int(g["min_i"].min())), str(int(g["max_i"].max()))
        else:
            mn = g["min_s"].dropna().min()
            mx = g["max_s"].dropna().max()
        return pd.DataFrame(
            {
                "col_name": [col],
                "n_rows": [np.int64(g["n_rows"].sum())],
                "n_null": [np.int64(g["n_null"].sum())],
                "min_s": [mn],
                "max_s": [mx],
            }
        )

    # the stats partial stream is blocks × |cols| rows — merge it on
    # the driver instead of paying a sort-shuffle for |cols| groups
    stat_pdf = orders.map_batches(
        stat_partial, batch_format="pyarrow"
    ).to_pandas()
    stats = pd.concat(
        [stat_merge(g) for _, g in stat_pdf.groupby("col_name", sort=False)],
        ignore_index=True,
    )

    def distinct_partial(t: pa.Table) -> pa.Table:
        cols, vals = [], []
        for col in PROFILE_COLS:
            u = pc.unique(pc.drop_null(
                pc.cast(t[col].combine_chunks(), pa.string())
            ))
            cols.append(pa.array([col] * len(u), pa.string()))
            vals.append(u)
        return pa.table(
            {
                "col_name": pa.chunked_array(cols, pa.string()),
                "v": pa.chunked_array(vals, pa.string()),
            }
        )

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # every occurrence of a (col, v) pair is in v's one bucket, so
        # one vectorized drop_duplicates + size() yields additive
        # per-col distinct-count partials — |cols| rows out per bucket,
        # never a per-value Python call
        out = (
            g.drop_duplicates(["col_name", "v"])
            .groupby("col_name", as_index=False)
            .size()
        )
        return pd.DataFrame(
            {"col_name": out["col_name"],
             "n": out["size"].astype(np.int64)}
        )

    dpdf = bucketed(
        orders.map_batches(distinct_partial, batch_format="pyarrow"), "v", NB,
        count_bucket,
    ).to_pandas()
    if len(dpdf) == 0 or "n" not in dpdf.columns:
        # every profiled column all-NULL (or an empty table): no
        # distinct partials exist at all
        distinct = pd.DataFrame(
            {"col_name": pd.Series(dtype=object),
             "n_distinct": pd.Series(dtype="int64")}
        )
    else:
        distinct = (
            dpdf.groupby("col_name", as_index=False)["n"]
            .sum()
            .rename(columns={"n": "n_distinct"})
            .astype({"n_distinct": "int64"})
        )
    # |cols| rows on each side: a driver-side stitch, not a data join.
    # LEFT merge: an all-NULL column emits no distinct partials at all —
    # its n_distinct is 0, not a dropped row
    out = stats.merge(distinct, on="col_name", how="left")
    out["n_distinct"] = (
        out["n_distinct"].fillna(0).astype("int64")
    )
    return out[
        ["col_name", "n_rows", "n_null", "n_distinct", "min_s", "max_s"]
    ]


SQL_PROFILE_ORDERS = "\nUNION ALL\n".join(
    f"""
SELECT '{col}' AS col_name, count(*) AS n_rows,
       CAST(sum(CASE WHEN {col} IS NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_null,
       count(DISTINCT {col}) AS n_distinct,
       CAST(min({col}) AS VARCHAR) AS min_s,
       CAST(max({col}) AS VARCHAR) AS max_s
FROM orders"""
    for col in PROFILE_COLS
)


# -- five-table join (TPC-H Q5 shape: local supplier volume) -------------------

Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1997-01-01"


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape: revenue per nation from orders where the
    CUSTOMER and the LINEITEM's SUPPLIER sit in the same nation of one
    region, within one order-date year — the canonical 5-table join
    (region ⋈ nation ⋈ customer ⋈ orders ⋈ lineitem ⋈ supplier) that
    exercises a multi-hop dimension chain plus a co-partitioned fact
    join (ref full scan+join jobs: `src/jobs/` query pipelines do the
    per-key equivalent on KVS rows).

    Plan for 100 TB: region→nation→(customer, supplier) collapse into
    TWO broadcast int arrays (custkey→nationkey, suppkey→nationkey,
    both pruned to the region before ``ray.put``) — three of the five
    joins never shuffle; the date filter pushes into the orders read;
    the only exchange is the size-derived :func:`cobucketed` orderkey
    co-bucketing of orders (carrying c_nationkey) against per-block
    (orderkey, s_nationkey) integer-cents partials of lineitem; the
    same-nation equality applies inside the bucket and
    a ≤25-row groupby finishes.  Hot orderkeys salt exactly as
    `q_revenue_by_segment` (additive cents partials)."""
    import pandas as pd
    import pyarrow.dataset as pads

    B = bucket_count(
        parquet_rows(f"{sf_dir}/orders.parquet", f"{sf_dir}/lineitem.parquet")
    )
    S = auto_salt_count(f"{sf_dir}/lineitem.parquet", "l_orderkey")

    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    rkeys = set(region[region["r_name"] == Q5_REGION]["r_regionkey"])
    nat = nation[nation["n_regionkey"].isin(rkeys)]
    nat_names = dict(
        zip(nat["n_nationkey"].astype(np.int64), nat["n_name"])
    )
    nat_set = set(nat_names)

    def keyed_nat(table: str, key: str, natcol: str):
        df = _read(sf_dir, table, [key, natcol]).to_pandas()
        df = df[df[natcol].astype(np.int64).isin(nat_set)]
        return (
            pa.array(df[key].to_numpy(np.int64), pa.int64()),
            pa.array(df[natcol].to_numpy(np.int64), pa.int64()),
        )

    cust_ref = ray.put(keyed_nat("customer", "c_custkey", "c_nationkey"))
    supp_ref = ray.put(keyed_nat("supplier", "s_suppkey", "s_nationkey"))

    lo = np.datetime64(Q5_DATE_LO).astype("datetime64[us]").astype(object)
    hi = np.datetime64(Q5_DATE_HI).astype("datetime64[us]").astype(object)
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi),
    )
    lineitem = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def orders_side(t: pa.Table) -> pa.Table:
        keys, nats = ray.get(cust_ref)
        cnat = pc.take(nats, pc.index_in(t["o_custkey"], value_set=keys))
        keep = pc.is_valid(cnat)  # customer outside the region → drop
        return pa.table(
            {"key": pc.filter(t["o_orderkey"], keep), "nat": pc.filter(cnat, keep)}
        )

    def lineitem_side(t: pa.Table) -> pa.Table:
        keys, nats = ray.get(supp_ref)
        idx = pc.index_in(t["l_suppkey"], value_set=keys)
        snat = pc.take(nats, idx)
        keep = pc.is_valid(snat)
        rev = pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"]),
        )
        cents = pc.cast(
            pc.floor(
                pc.add(pc.multiply(rev, pa.scalar(100.0)), pa.scalar(0.5))
            ),
            pa.int64(),
        )
        return (
            pa.table(
                {
                    "key": pc.filter(t["l_orderkey"], keep),
                    "nat": pc.filter(snat, keep),
                    "cents": pc.filter(cents, keep),
                }
            )
            .group_by(["key", "nat"])
            .aggregate([("cents", "sum")])
            .rename_columns(["key", "nat", "cents"])
        )

    def join_bucket(o: pd.DataFrame, l: pd.DataFrame):
        m = _inner_merge(l, o, suffixes=("_s", "_c"))
        if len(m):
            m = m[m["nat_s"] == m["nat_c"]]  # same-nation constraint
        if len(m) == 0:
            return pa.schema({"nat": pa.int64(), "cents": pa.int64()}).empty_table()
        out = m.groupby("nat_s", as_index=False)["cents"].sum()
        return pd.DataFrame(
            {"nat": out["nat_s"].to_numpy(np.int64),
             "cents": out["cents"].to_numpy(np.int64)}
        )

    partial = cobucketed(
        (orders, orders_side), (lineitem, lineitem_side), "key", B,
        join_bucket, salt=S,
    )
    # final merge on the driver: ≤ B × |region nations| additive rows
    # (domain-bounded) — a second sort-shuffle for a ≤25-group
    # aggregate would dominate the query in barrier/scheduling cost.
    pdf = partial.to_pandas()
    agg = pdf.groupby("nat", as_index=False)["cents"].sum()
    return pa.table(
        {
            "n_name": pa.array(
                [nat_names[int(x)] for x in agg["nat"]], pa.string()
            ),
            "revenue": pa.array(
                (agg["cents"].to_numpy(np.int64) / 100.0).round(2),
                pa.float64(),
            ),
        }
    )


SQL_LOCAL_SUPPLIER_VOLUME = f"""
SELECT n_name,
       round(CAST(sum(CAST(floor(
           l_extendedprice * (1 - l_discount) * 100 + 0.5
       ) AS BIGINT)) AS DOUBLE) / 100.0, 2) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '{Q5_REGION}'
  AND o_orderdate >= TIMESTAMP '{Q5_DATE_LO}'
  AND o_orderdate < TIMESTAMP '{Q5_DATE_HI}'
GROUP BY n_name
"""


# -- percent_rank (global CDF rank without a global sort shuffle) -------------

PR_BUCKET_DOLLARS = 5  # price range per value-range partition


def q_percent_rank_price(sf_dir: str):
    """``percent_rank() OVER (ORDER BY p_retailprice)`` for every part —
    the empirical-CDF verb behind percentile features and calibration
    curves, without ever totally sorting the table.

    Shape = ``q_ntile_price``: rows value-range-partition by price band
    (the bucket is a FUNCTION of the sort key, so tied prices can never
    straddle buckets and the min-rank of a tie group is within-bucket
    computable), and :func:`_range_ranked` sorts within each bucket
    only: global RANK (ties → min) = bucket seed + within-bucket
    min-rank, and ``pr = (rank - 1) / (n - 1)`` — both sides divide the
    same exact integers in float64, so the result is IEEE-identical to
    the SQL window."""
    parts = _read(sf_dir, "part", ["p_partkey", "p_retailprice"])

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                BUCKET: pc.cast(
                    pc.floor(pc.divide(t["p_retailprice"],
                                       pa.scalar(float(PR_BUCKET_DOLLARS)))),
                    pa.int64(),
                ),
                "p_partkey": pc.cast(t["p_partkey"], pa.int64()),
                "p_retailprice": t["p_retailprice"],
            }
        )

    def rank_bucket(g, seed: int, n: int) -> pa.Table:
        price = g["p_retailprice"].to_numpy(np.float64)
        order = np.argsort(price, kind="stable")
        sp = price[order]
        # min-rank of each tie group: index of its FIRST occurrence
        first = np.zeros(len(sp), np.int64)
        new_grp = np.flatnonzero(sp[1:] != sp[:-1]) + 1
        first[new_grp] = new_grp
        np.maximum.accumulate(first, out=first)
        rank = np.empty(len(sp), np.int64)
        rank[order] = seed + first + 1
        pr = (rank - 1) / max(n - 1, 1)
        return pa.table(
            {
                "p_partkey": pa.array(g["p_partkey"].to_numpy(np.int64)),
                "p_retailprice": pa.array(price),
                "pr": pa.array(pr, pa.float64()),
            }
        )

    return _range_ranked(parts.map_batches(tag, batch_format="pyarrow"), rank_bucket)


SQL_PERCENT_RANK_PRICE = """
SELECT p_partkey, p_retailprice,
       percent_rank() OVER (ORDER BY p_retailprice) AS pr
FROM part
"""


# -- unpivot (wide → long reshape of the pivot output) -------------------------


def q_unpivot_revenue(sf_dir: str):
    """UNPIVOT of the ``q_pivot_revenue`` wide table back to long form
    (``n_name, year, revenue``) — the wide→long reshape that feeds
    plotting and ML-feature layers, preserving the pivot's explicit
    zero fill for nation×year cells with no orders.

    The melt is a stateless per-block ``map_batches``: each block of
    the wide table (bounded by the nation domain) emits |years| rows
    per input row with vectorized column stacking — no shuffle beyond
    what the pivot itself already did."""
    wide = q_pivot_revenue(sf_dir)
    rev_cols = [f"rev_{y}" for y in PIVOT_YEARS]

    def melt(t: pa.Table) -> pa.Table:
        k = len(PIVOT_YEARS)
        names = pa.concat_arrays(
            [t["n_name"].combine_chunks().cast(pa.string())] * k
        )
        years = pa.array(
            np.repeat(np.array(PIVOT_YEARS, np.int64), t.num_rows)
        )
        revs = pa.concat_arrays(
            [t[c].combine_chunks().cast(pa.float64()) for c in rev_cols]
        )
        return pa.table({"n_name": names, "year": years, "revenue": revs})

    return wide.map_batches(melt, batch_format="pyarrow")


SQL_UNPIVOT_REVENUE = f"""
WITH wide AS ({SQL_PIVOT_REVENUE}),
u AS (UNPIVOT wide ON {", ".join(f"rev_{y}" for y in PIVOT_YEARS)}
      INTO NAME y VALUE revenue)
SELECT n_name, CAST(substr(y, 5) AS BIGINT) AS year, revenue FROM u
"""


# -- robust outliers via exact MAD (median absolute deviation) ----------------

MAD_K = 2  # flag rows with |x - median| > MAD_K * MAD


def q_mad_outliers(sf_dir: str):
    """Orders whose total price sits more than ``MAD_K`` median absolute
    deviations from the median — the robust-statistics sibling of
    ``q_zscore_outliers`` (median/MAD shrug off the heavy tail that
    drags a mean/stddev fence).

    Both medians are EXACT discrete quantiles (``quantile_disc``: the
    element at index ``floor((n-1)/2)`` of the sorted multiset), found
    without sorting rows: blocks reduce to per-distinct-value count
    partials in integer cents, the driver merges them with ONE pandas
    groupby (the transfer is bounded by the price domain × blocks;
    TPC-H prices are near-unique so a Ray ``groupby(cents)`` exchange
    before the driver merge reduced nothing and cost a full sort
    shuffle — measured 2.9 s → 1.0 s removing it), and the driver
    walks cumulative counts to the median element, then re-keys the
    same histogram by |v − median| for the MAD — rows are touched
    exactly twice (histogram pass + final filter), both streaming.
    For an unbounded value domain at 100 TB the same protocol runs
    with two rounds of range-narrowing (count-below partials against
    candidate pivots) instead of a full histogram."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def hist(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                            pa.scalar(0.5))),
            pa.int64(),
        )
        g = (
            pa.table({"cents": cents,
                      "n": pa.array(np.ones(len(cents), np.int64))})
            .group_by("cents")
            .aggregate([("n", "sum")])
        )
        return g.rename_columns(["cents", "n"])

    hdf = (
        orders.map_batches(hist, batch_format="pyarrow")
        .to_pandas()  # ≤ distinct-per-block × blocks partial rows
        .groupby("cents", as_index=False)["n"]
        .sum()
        .sort_values("cents")
    )
    vals = hdf["cents"].to_numpy(np.int64)
    cnts = hdf["n"].to_numpy(np.int64)
    n = int(cnts.sum())

    def disc_median(v: np.ndarray, c: np.ndarray, total: int) -> int:
        idx = (total - 1) // 2  # floor((n-1) * 0.5)
        return int(v[np.searchsorted(np.cumsum(c), idx + 1)])

    med = disc_median(vals, cnts, n)
    dev = np.abs(vals - med)
    order = np.argsort(dev, kind="stable")
    # deviations collide (v below and above the median) — re-merge
    dsorted, start = np.unique(dev[order], return_index=True)
    dcounts = np.add.reduceat(cnts[order], start)
    mad = disc_median(dsorted, dcounts, n)
    fence = ray.put((med, MAD_K * mad))

    def flag(t: pa.Table) -> pa.Table:
        med_, cut = ray.get(fence)
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                            pa.scalar(0.5))),
            pa.int64(),
        )
        dev_ = pc.abs(pc.subtract(cents, pa.scalar(med_, pa.int64())))
        keep = pc.greater(dev_, pa.scalar(cut, pa.int64()))
        return pa.table(
            {
                "o_orderkey": pc.filter(pc.cast(t["o_orderkey"], pa.int64()),
                                        keep),
                "o_totalprice": pc.filter(t["o_totalprice"], keep),
                "dev_cents": pc.filter(dev_, keep),
            }
        )

    return orders.map_batches(flag, batch_format="pyarrow")


SQL_MAD_OUTLIERS = f"""
WITH c AS (
  SELECT o_orderkey, o_totalprice,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
),
m AS (SELECT quantile_disc(cents, 0.5) AS med FROM c),
d AS (SELECT quantile_disc(abs(cents - m.med), 0.5) AS mad FROM c, m)
SELECT o_orderkey, o_totalprice,
       CAST(abs(cents - med) AS BIGINT) AS dev_cents
FROM c, m, d
WHERE abs(cents - med) > {MAD_K} * mad
"""


# -- exact Pearson correlation per group (integer-moment reduce) ---------------


def q_corr_qty_discount(sf_dir: str):
    """Pearson correlation of (quantity, discount%) per return flag —
    the feature-correlation verb of a profiling sweep, computed from
    EXACT integer moments so the float result is bit-identical on both
    engines.

    One streaming pass, ZERO shuffles: each block folds to per-flag
    (n, Σx, Σy, Σx², Σy², Σxy) integer partials (arrow ``group_by``
    per block; x = quantity, y = floor(discount·100 + 0.5), so all
    six sums are exact int64), the blocks × |flags| partial rows merge
    on the driver, and r is evaluated in float64 with the IDENTICAL
    expression tree the SQL oracle uses — exact-int sums first, ONE
    cast to double, same multiply/divide order, so even the sqrt
    arguments match bit for bit.  At extreme scale the int64 moment
    sums are replaced by the same expression over per-partition
    partials cast to double before the final combine (documented
    precision tradeoff) — the dataflow shape is unchanged."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_discount"])

    def moments(t: pa.Table) -> pa.Table:
        x = pc.cast(t["l_quantity"], pa.int64())
        y = pc.cast(
            pc.floor(pc.add(pc.multiply(t["l_discount"], pa.scalar(100.0)),
                            pa.scalar(0.5))),
            pa.int64(),
        )
        g = (
            pa.table(
                {
                    "l_returnflag": t["l_returnflag"],
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                    "sx": x,
                    "sy": y,
                    "sxx": pc.multiply(x, x),
                    "syy": pc.multiply(y, y),
                    "sxy": pc.multiply(x, y),
                }
            )
            .group_by("l_returnflag")
            .aggregate([("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                        ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")])
        )
        return g.rename_columns(
            ["l_returnflag", "n", "sx", "sy", "sxx", "syy", "sxy"]
        )

    pdf = (
        ds.map_batches(moments, batch_format="pyarrow")
        .to_pandas()  # blocks × |flags| additive rows — domain-bounded
        .groupby("l_returnflag", as_index=False)
        .sum()
    )
    n = pdf["n"].to_numpy(np.int64).astype(np.float64)
    sx = pdf["sx"].to_numpy(np.int64).astype(np.float64)
    sy = pdf["sy"].to_numpy(np.int64).astype(np.float64)
    sxx = pdf["sxx"].to_numpy(np.int64).astype(np.float64)
    syy = pdf["syy"].to_numpy(np.int64).astype(np.float64)
    sxy = pdf["sxy"].to_numpy(np.int64).astype(np.float64)
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    # a zero variance term divides by 0: NULL, as SQL's division gives
    null = (vx == 0) | (vy == 0)
    r = np.divide(n * sxy - sx * sy, np.sqrt(vx) * np.sqrt(vy),
                  out=np.zeros_like(n), where=~null)
    return pa.table(
        {
            "l_returnflag": pa.array(pdf["l_returnflag"], pa.string()),
            "r": pa.array(r, pa.float64(), mask=null),
        }
    )


SQL_CORR_QTY_DISCOUNT = """
WITH p AS (
  SELECT l_returnflag,
         CAST(l_quantity AS BIGINT) AS x,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS y
  FROM lineitem
),
s AS (
  SELECT l_returnflag,
         CAST(count(*) AS DOUBLE) AS n,
         CAST(CAST(sum(x) AS BIGINT) AS DOUBLE) AS sx,
         CAST(CAST(sum(y) AS BIGINT) AS DOUBLE) AS sy,
         CAST(CAST(sum(x * x) AS BIGINT) AS DOUBLE) AS sxx,
         CAST(CAST(sum(y * y) AS BIGINT) AS DOUBLE) AS syy,
         CAST(CAST(sum(x * y) AS BIGINT) AS DOUBLE) AS sxy
  FROM p GROUP BY l_returnflag
)
SELECT l_returnflag,
       (n * sxy - sx * sy)
       / (sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy)) AS r
FROM s
"""


# -- TPC-H Q1 pricing summary (the canonical scan-heavy aggregate) ------------

PRICING_CUTOFF = "2000-09-02"  # l_shipdate spans ~1999-2001 in the fixture


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1 pricing summary: per (returnflag, linestatus) sums and
    averages of quantity / base price / discounted price / charge over
    lineitem rows shipped on or before ``PRICING_CUTOFF``.

    All money lanes are EXACT integers so every sum is combine-order
    independent (hash-exact vs SQL at any block split): base price in
    cents, discounted price in 1e-4 dollars (cents × integer
    discount-complement percent), charge in 1e-6 dollars (× integer
    tax percent).  Magnitude bound: price ≤ 1e5 → charge lane ≤ ~1e11
    per row → int64 holds ~9×10⁷ rows per group per block partial and
    the final merge; past that, widen to a two-lane 128-bit carry the
    way q_grouped_moments documents.  The averages divide two exact
    integers as IEEE doubles — bit-identical on both sides with NO
    float rounding step.

    Shape: the date filter is pushed into the parquet scan; each block
    pre-aggregates to ≤ |flag×status| partial rows (arrow group_by);
    one tiny groupby merges — the Q1 property that the result
    cardinality is domain-bounded at any input scale."""
    import datetime

    import pandas as pd
    import pyarrow.dataset as pads

    cutoff = datetime.datetime.fromisoformat(PRICING_CUTOFF)
    li = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity",
         "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
        filter=pads.field("l_shipdate") <= cutoff,
    )

    SUMS = ["sum_qty", "sum_base_price_cents", "sum_disc_price_e4",
            "sum_charge_e6", "sum_disc_pct", "count_order"]

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.less_equal(t["l_shipdate"], pa.scalar(cutoff, pa.timestamp("us")))
        )
        qty = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)), pa.int64())
        tax = pc.cast(pc.round(pc.multiply(t["l_tax"], 100.0)), pa.int64())
        disc_e4 = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), disc))
        charge_e6 = pc.multiply(disc_e4, pc.add(pa.scalar(100, pa.int64()), tax))
        return (
            pa.table(
                {
                    "l_returnflag": t["l_returnflag"],
                    "l_linestatus": t["l_linestatus"],
                    "sum_qty": qty,
                    "sum_base_price_cents": cents,
                    "sum_disc_price_e4": disc_e4,
                    "sum_charge_e6": charge_e6,
                    "sum_disc_pct": disc,
                    "count_order": pa.array(np.ones(t.num_rows, np.int64)),
                }
            )
            .group_by(["l_returnflag", "l_linestatus"])
            .aggregate([(c, "sum") for c in SUMS])
            .rename_columns(["l_returnflag", "l_linestatus"] + SUMS)
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        s = {c: np.int64(g[c].sum()) for c in SUMS}
        n = float(s["count_order"])
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "l_linestatus": [g["l_linestatus"].iloc[0]],
                **{c: [s[c]] for c in SUMS[:4]},
                "avg_qty": [float(s["sum_qty"]) / n],
                "avg_price_cents": [float(s["sum_base_price_cents"]) / n],
                "avg_disc_pct": [float(s["sum_disc_pct"]) / n],
                "count_order": [s["count_order"]],
            }
        )

    return (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .map_groups(merge, batch_format="pandas")
    )


SQL_PRICING_SUMMARY = f"""
WITH t AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_quantity) AS BIGINT) AS q,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS c,
         CAST(round(l_discount * 100) AS BIGINT) AS d,
         CAST(round(l_tax * 100) AS BIGINT) AS x
  FROM lineitem
  WHERE l_shipdate <= TIMESTAMP '{PRICING_CUTOFF}'
)
SELECT l_returnflag, l_linestatus,
       CAST(sum(q) AS BIGINT) AS sum_qty,
       CAST(sum(c) AS BIGINT) AS sum_base_price_cents,
       CAST(sum(c * (100 - d)) AS BIGINT) AS sum_disc_price_e4,
       CAST(sum(c * (100 - d) * (100 + x)) AS BIGINT) AS sum_charge_e6,
       CAST(CAST(sum(q) AS BIGINT) AS DOUBLE) / count(*) AS avg_qty,
       CAST(CAST(sum(c) AS BIGINT) AS DOUBLE) / count(*) AS avg_price_cents,
       CAST(CAST(sum(d) AS BIGINT) AS DOUBLE) / count(*) AS avg_disc_pct,
       count(*) AS count_order
FROM t
GROUP BY l_returnflag, l_linestatus
"""

# -- TPC-H Q6 shape: forecast revenue change (filter → global exact sum) ------

Q6_DATE_LO = "1996-01-01"
Q6_DATE_HI = "1997-01-01"
Q6_DISC_LO_PCT = 5   # l_discount BETWEEN 0.05 AND 0.07, on the integer
Q6_DISC_HI_PCT = 7   # percent grid (exact — discounts are 0.00..0.10)
Q6_QTY_LT = 24


def q_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape: total ``l_extendedprice * l_discount`` over one
    ship-date year, a discount band and a quantity cap — the canonical
    filter-then-global-sum scan (the ref's full-table scan jobs do the
    per-row equivalent over KVS rows, `src/jobs/` scan pipelines).

    The revenue lane is EXACT: cents × integer discount percent is a
    1e-4-dollar int64 per row, so the global sum is combine-order
    independent and the SQL oracle matches bit for bit.  Shape: the
    date range pushes into the parquet scan (row-group pruning at
    100 TB), each block reduces to ONE int64 — the whole exchange is
    ``blocks × 8`` bytes, there is no shuffle at any scale."""
    import datetime

    import pyarrow.dataset as pads

    lo = datetime.datetime.fromisoformat(Q6_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q6_DATE_HI)
    li = _read(
        sf_dir, "lineitem",
        ["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo)
        & (pads.field("l_shipdate") < hi),
    )

    def partial(t: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(lo, pa.timestamp("us"))),
            pc.less(t["l_shipdate"], pa.scalar(hi, pa.timestamp("us"))),
        )
        ok = pc.and_(ok, pc.less(t["l_quantity"], pa.scalar(float(Q6_QTY_LT))))
        dpct = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)), pa.int64())
        ok = pc.and_(ok, pc.greater_equal(dpct, pa.scalar(Q6_DISC_LO_PCT, pa.int64())))
        ok = pc.and_(ok, pc.less_equal(dpct, pa.scalar(Q6_DISC_HI_PCT, pa.int64())))
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
        e4 = pc.sum(pc.multiply(pc.filter(cents, ok), pc.filter(dpct, ok)))
        v = e4.as_py() or 0
        return pa.table({"rev_e4": pa.array([v], pa.int64())})

    total = li.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("rev_e4", alias_name="rev_e4")
    )
    e4 = int(total["rev_e4"] or 0) if total else 0
    return pa.table(
        {"revenue": pa.array([round(e4 / 10000.0, 2)], pa.float64())}
    )


SQL_FORECAST_REVENUE = f"""
WITH t AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS c,
         CAST(round(l_discount * 100) AS BIGINT) AS d
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{Q6_DATE_LO}'
    AND l_shipdate < TIMESTAMP '{Q6_DATE_HI}'
    AND l_quantity < {Q6_QTY_LT}
)
SELECT round(CAST(sum(c * d) AS DOUBLE) / 10000.0, 2) AS revenue
FROM t
WHERE d BETWEEN {Q6_DISC_LO_PCT} AND {Q6_DISC_HI_PCT}
"""


# -- TPC-H Q3 shape: shipping priority (2 broadcasts + 1 co-bucketed join) ----

Q3_SEGMENT = "BUILDING"
Q3_DATE = "1996-07-01"
Q3_TOPN = 10


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: top-10 unshipped orders by discounted revenue for
    one market segment — customer ⋈ orders ⋈ lineitem with a date split
    (orders before D, lineitems shipped after D).

    Plan for 100 TB: customers collapse to a pruned int64 custkey SET
    broadcast once via ``ray.put`` (segment selectivity ~1/5 — ids
    only, no shuffle); orders push the date filter into the scan, drop
    non-segment customers against the broadcast, and co-bucket on the
    orderkey through :func:`cobucketed` carrying (orderdate, priority)
    against lineitem pre-aggregated per block to (orderkey → exact
    1e-4-dollar revenue partial), with hot orderkeys salted by
    `auto_salt_count`.  Each bucket joins and emits only its local
    top-10, so the driver merge touches ≤ B·S·10 rows at any scale."""
    import datetime

    import pandas as pd
    import pyarrow.dataset as pads

    d = datetime.datetime.fromisoformat(Q3_DATE)
    B = bucket_count(
        parquet_rows(f"{sf_dir}/orders.parquet", f"{sf_dir}/lineitem.parquet")
    )
    S = auto_salt_count(f"{sf_dir}/lineitem.parquet", "l_orderkey")

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    ckeys = pa.array(
        cust[cust["c_mktsegment"] == Q3_SEGMENT]["c_custkey"]
        .to_numpy(np.int64),
        pa.int64(),
    )
    cust_ref = ray.put(ckeys)

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=pads.field("o_orderdate") < d,
    )
    lineitem = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=pads.field("l_shipdate") > d,
    )

    def orders_side(t: pa.Table) -> pa.Table:
        keep = pc.is_valid(pc.index_in(t["o_custkey"], value_set=ray.get(cust_ref)))
        t = t.filter(keep)
        return pa.table(
            {"key": t["o_orderkey"], "odate": t["o_orderdate"],
             "prio": t["o_orderpriority"]}
        )

    def lineitem_side(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
        dpct = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)), pa.int64())
        e4 = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), dpct))
        return (
            pa.table({"key": t["l_orderkey"], "rev_e4": e4})
            .group_by("key")
            .aggregate([("rev_e4", "sum")])
            .rename_columns(["key", "rev_e4"])
        )

    def bucket_topn(o: pd.DataFrame, l: pd.DataFrame):
        m = _inner_merge(l, o)
        if len(m) == 0:
            return pa.schema(
                {
                    "l_orderkey": pa.int64(),
                    "rev_e4": pa.int64(),
                    "o_orderdate": pa.timestamp("us"),
                    "o_orderpriority": pa.string(),
                }
            ).empty_table()
        agg = m.groupby(["key", "odate", "prio"], as_index=False)["rev_e4"].sum()
        agg = agg.sort_values(["rev_e4", "key"], ascending=[False, True]).head(Q3_TOPN)
        return pd.DataFrame(
            {
                "l_orderkey": agg["key"].to_numpy(np.int64),
                "rev_e4": agg["rev_e4"].to_numpy(np.int64),
                "o_orderdate": agg["odate"].to_numpy(),
                "o_orderpriority": agg["prio"].to_numpy(),
            }
        )

    partial = cobucketed(
        (orders, orders_side), (lineitem, lineitem_side), "key", B,
        bucket_topn, salt=S,
    )
    # driver merge over ≤ B·S·10 candidate rows (bounded at any scale);
    # salted sub-buckets of one key hold additive partials, so re-sum
    # per (key, odate, prio) before ranking.
    pdf = partial.to_pandas()
    if len(pdf):
        pdf = pdf.groupby(
            ["l_orderkey", "o_orderdate", "o_orderpriority"], as_index=False
        )["rev_e4"].sum()
    top = pdf.sort_values(["rev_e4", "l_orderkey"], ascending=[False, True]).head(
        Q3_TOPN
    )
    return pa.table(
        {
            "l_orderkey": pa.array(top["l_orderkey"].to_numpy(np.int64), pa.int64()),
            "revenue": pa.array(
                (top["rev_e4"].to_numpy(np.int64) / 10000.0).round(2), pa.float64()
            ),
            "o_orderdate": pa.array(top["o_orderdate"], pa.timestamp("us")),
            "o_orderpriority": pa.array(top["o_orderpriority"], pa.string()),
        }
    )


SQL_SHIPPING_PRIORITY = f"""
WITH t AS (
  SELECT l_orderkey,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS e4,
         o_orderdate, o_orderpriority
  FROM customer, orders, lineitem
  WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
    AND c_mktsegment = '{Q3_SEGMENT}'
    AND o_orderdate < TIMESTAMP '{Q3_DATE}'
    AND l_shipdate > TIMESTAMP '{Q3_DATE}'
)
SELECT l_orderkey,
       round(CAST(sum(e4) AS DOUBLE) / 10000.0, 2) AS revenue,
       o_orderdate, o_orderpriority
FROM t
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY sum(e4) DESC, l_orderkey
LIMIT {Q3_TOPN}
"""


# -- TPC-H Q14 shape: promotion revenue share (broadcast flag lookup) ---------

Q14_DATE_LO = "1996-09-01"
Q14_DATE_HI = "1996-10-01"
Q14_PROMO_PREFIX = "PROMO"


def q_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: the share of one ship-month's discounted
    revenue that comes from PROMO-type parts — a fact ⋈ dimension join
    where only ONE BIT of the dimension survives projection.

    Plan for 100 TB: part collapses to (partkey int64[], is_promo
    bool[]) broadcast once via ``ray.put`` — ids + flags only, ~9 bytes
    a part, so even a 100 TB-scale part table (~2×10⁹ keys) is a
    ~18 GB object-store read shared by all tasks, vs re-shuffling a
    30×-larger lineitem; the month filter pushes into the scan; each
    block reduces to TWO exact int64s (promo / total 1e-4-dollar
    lanes), no shuffle.  If part ever outgrew broadcast, the fallback
    is the `q_join_shuffle` co-bucketing — documented, not needed at
    TPC-H fan-ins."""
    import datetime

    import pyarrow.dataset as pads

    lo = datetime.datetime.fromisoformat(Q14_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q14_DATE_HI)

    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    pkeys = pa.array(part["p_partkey"].to_numpy(np.int64), pa.int64())
    promo = pa.array(
        part["p_type"].str.startswith(Q14_PROMO_PREFIX).to_numpy(bool),
        pa.bool_(),
    )
    part_ref = ray.put((pkeys, promo))

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo)
        & (pads.field("l_shipdate") < hi),
    )

    def partial(t: pa.Table) -> pa.Table:
        keys, flags = ray.get(part_ref)
        idx = pc.index_in(t["l_partkey"], value_set=keys)
        isp = pc.take(flags, idx)
        keep = pc.is_valid(isp)  # inner-join semantics on the FK
        t = t.filter(keep)
        isp = pc.filter(isp, keep)
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
        dpct = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)), pa.int64())
        e4 = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), dpct))
        tot = pc.sum(e4).as_py() or 0
        pro = pc.sum(pc.filter(e4, isp)).as_py() or 0
        return pa.table(
            {
                "promo_e4": pa.array([pro], pa.int64()),
                "total_e4": pa.array([tot], pa.int64()),
            }
        )

    agg = li.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("promo_e4", alias_name="promo_e4"),
        Sum("total_e4", alias_name="total_e4"),
    )
    pro = int(agg["promo_e4"] or 0) if agg else 0
    tot = int(agg["total_e4"] or 0) if agg else 0
    ratio = round(100.0 * pro / tot, 4) if tot else None
    return pa.table({"promo_ratio": pa.array([ratio], pa.float64())})


SQL_PROMO_REVENUE = f"""
WITH t AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS e4,
         (p_type LIKE '{Q14_PROMO_PREFIX}%') AS isp
  FROM lineitem, part
  WHERE l_partkey = p_partkey
    AND l_shipdate >= TIMESTAMP '{Q14_DATE_LO}'
    AND l_shipdate < TIMESTAMP '{Q14_DATE_HI}'
)
SELECT round(
    100.0 * CAST(sum(CASE WHEN isp THEN e4 ELSE 0 END) AS DOUBLE)
          / CAST(sum(e4) AS DOUBLE), 4) AS promo_ratio
FROM t
"""


# -- TPC-H Q18 shape: large-volume orders (having-filter then rehydrate) ------

Q18_QTY_GT = 250
Q18_TOPN = 100


def q_large_orders(sf_dir: str):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds a
    threshold, rehydrated with customer name and order header, top-N by
    order value — the classic "aggregate a huge fact, then join only
    the survivors" plan.

    Plan for 100 TB: lineitem pre-aggregates (orderkey → int qty sum)
    per block, hash-buckets on the orderkey through :func:`bucketed`
    (additive partials — salting-safe), and each bucket emits only keys
    over the threshold;
    the survivor set is tiny BY CONSTRUCTION (having-selectivity ~1 %),
    so it broadcasts back via ``ray.put`` and both rehydration joins
    (orders header, customer name) are broadcast-semi scans — the only
    shuffle in the whole query is the one qty exchange."""
    import pandas as pd

    B = bucket_count(parquet_rows(f"{sf_dir}/lineitem.parquet"))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qty_partial(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        return (
            pa.table({"key": t["l_orderkey"], "qty": qty})
            .group_by("key")
            .aggregate([("qty", "sum")])
            .rename_columns(["key", "qty"])
        )

    def bucket_survivors(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("key", as_index=False)["qty"].sum()
        agg = agg[agg["qty"] > Q18_QTY_GT]
        return pd.DataFrame(
            {"o_orderkey": agg["key"].to_numpy(np.int64),
             "sum_qty": agg["qty"].to_numpy(np.int64)}
        )

    surv = bucketed(
        li.map_batches(qty_partial, batch_format="pyarrow"), "key", B,
        bucket_survivors,
    ).to_pandas()
    if len(surv) == 0:
        return pa.table(
            {
                "c_name": pa.array([], pa.string()),
                "c_custkey": pa.array([], pa.int64()),
                "o_orderkey": pa.array([], pa.int64()),
                "o_orderdate": pa.array([], pa.timestamp("us")),
                "o_totalprice": pa.array([], pa.float64()),
                "sum_qty": pa.array([], pa.int64()),
            }
        )
    surv_ref = ray.put(
        pa.array(surv["o_orderkey"].to_numpy(np.int64), pa.int64())
    )

    def orders_hydrate(t: pa.Table) -> pa.Table:
        keep = pc.is_valid(pc.index_in(t["o_orderkey"], value_set=ray.get(surv_ref)))
        return t.filter(keep)

    odf = (
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(orders_hydrate, batch_format="pyarrow")
        .to_pandas()
    )
    ckeys_ref = ray.put(
        pa.array(np.unique(odf["o_custkey"].to_numpy(np.int64)), pa.int64())
    )

    def cust_hydrate(t: pa.Table) -> pa.Table:
        keep = pc.is_valid(pc.index_in(t["c_custkey"], value_set=ray.get(ckeys_ref)))
        return t.filter(keep)

    cdf = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(cust_hydrate, batch_format="pyarrow")
        .to_pandas()
    )
    m = (
        odf.merge(surv, on="o_orderkey")
        .merge(cdf, left_on="o_custkey", right_on="c_custkey")
        .sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        .head(Q18_TOPN)
    )
    return pa.table(
        {
            "c_name": pa.array(m["c_name"], pa.string()),
            "c_custkey": pa.array(m["c_custkey"].to_numpy(np.int64), pa.int64()),
            "o_orderkey": pa.array(m["o_orderkey"].to_numpy(np.int64), pa.int64()),
            "o_orderdate": pa.array(m["o_orderdate"], pa.timestamp("us")),
            "o_totalprice": pa.array(m["o_totalprice"].to_numpy(np.float64), pa.float64()),
            "sum_qty": pa.array(m["sum_qty"].to_numpy(np.int64), pa.int64()),
        }
    )


SQL_LARGE_ORDERS = f"""
WITH s AS (
  SELECT l_orderkey, CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
         AS sum_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING sum(CAST(round(l_quantity) AS BIGINT)) > {Q18_QTY_GT}
)
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum_qty
FROM s, orders, customer
WHERE o_orderkey = l_orderkey AND c_custkey = o_custkey
ORDER BY o_totalprice DESC, o_orderkey
LIMIT {Q18_TOPN}
"""


# -- customer order-count distribution (TPC-H Q13 shape) -----------------------


def q_order_count_distribution(sf_dir: str):
    """TPC-H Q13 shape: the distribution of per-customer order counts
    — how many customers placed 0, 1, 2, … orders.  The classic
    "distribution of counts" double aggregate whose outer GROUP BY is
    a LEFT JOIN (customers with no orders contribute the 0 bin).

    Shape: the fact table never joins — each block pre-aggregates its
    own ``o_custkey`` value_counts (arrow ``group_by``), ONE
    custkey :func:`bucketed` exchange merges the partials into
    exact per-customer counts AND collapses each bucket to its local
    count-histogram (c_count, n) — so the second aggregate's input is
    buckets × |distinct counts| rows, merged on the driver (order
    counts are a tiny bounded domain).  The 0 bin is |customer| −
    |distinct custkeys in orders|: the customer table contributes one
    scalar (its row count; o_custkey ⊆ c_custkey by the TPC-H FK, the
    same invariant `q_revenue_by_segment` relies on).  At 100 TB the
    only exchange moves blocks × |custkeys per block| pre-agg rows."""
    import pandas as pd

    NB = bucket_count(parquet_rows(f"{sf_dir}/orders.parquet"))
    orders = _read(sf_dir, "orders", ["o_custkey"])
    n_customers = parquet_rows(f"{sf_dir}/customer.parquet")

    def partial(t: pa.Table) -> pa.Table:
        return (
            pa.table({"k": t["o_custkey"]})
            .group_by("k")
            .aggregate([([], "count_all")])
            .rename_columns(["k", "c"])
        )

    def hist_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per_cust = g.groupby("k")["c"].sum()
        out = per_cust.value_counts().reset_index()
        out.columns = ["c_count", "n"]
        return out.astype({"c_count": "int64", "n": "int64"})

    parts = bucketed(
        orders.map_batches(partial, batch_format="pyarrow"), "k", NB,
        hist_bucket,
    ).to_pandas()
    if len(parts) == 0:
        hist = pd.DataFrame({"c_count": [np.int64(0)],
                             "custdist": [np.int64(n_customers)]})
    else:
        hist = (
            parts.groupby("c_count", as_index=False)["n"]
            .sum()
            .rename(columns={"n": "custdist"})
        )
        # every ordering customer contributes exactly one unit to one
        # (c_count, n) row, so Σn = |distinct custkeys in orders|
        zero = n_customers - int(parts["n"].sum())
        if zero > 0:
            hist = pd.concat(
                [hist,
                 pd.DataFrame({"c_count": [np.int64(0)],
                               "custdist": [np.int64(zero)]})],
                ignore_index=True,
            )
    hist = hist.sort_values(
        ["custdist", "c_count"], ascending=[False, False],
        ignore_index=True,
    ).astype({"c_count": "int64", "custdist": "int64"})
    return pa.table(
        {
            "c_count": pa.array(hist["c_count"].to_numpy(np.int64)),
            "custdist": pa.array(hist["custdist"].to_numpy(np.int64)),
        }
    )


SQL_ORDER_COUNT_DISTRIBUTION = """
SELECT c_count, count(*) AS custdist
FROM (
    SELECT c.c_custkey, count(o.o_orderkey) AS c_count
    FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
    GROUP BY c.c_custkey
)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


# -- returned-item report (TPC-H Q10 shape) -------------------------------------

Q10_DATE_LO = "1996-10-01"
Q10_DATE_HI = "1997-01-01"
Q10_TOPN = 20


def q_returned_items(sf_dir: str):
    """TPC-H Q10 shape: the top customers by revenue LOST to returned
    items (``l_returnflag = 'R'``) in one order-date quarter — the
    canonical fact⋈fact join + per-customer aggregate + top-N +
    dimension rehydration report.

    Exactness: revenue is the INTEGER ``Σ price_cents·(100 −
    discount_bp)`` (both factors have exactly two decimals, so the
    per-row casts never sit near a .5 — the `q_grouped_moments`
    discipline), making the top-20 cutoff deterministic where a float
    sum's ordering could flip near-ties.  Plan for 100 TB: both date
    and returnflag filters push into the parquet scans; lineitem
    pre-aggregates (orderkey, rev) per block BEFORE the single salted
    orderkey co-bucket exchange against the quarter's orders;
    per-custkey revenue reduces inside custkey-hash buckets to local
    top-20 candidates, the driver merges buckets×20 rows, and ONLY the
    20 winners' dimension rows are fetched back (broadcast `is_in`
    semi-filter on customer; nation is a 25-row driver lookup)."""
    import pandas as pd
    import pyarrow.dataset as pads

    B = bucket_count(
        parquet_rows(f"{sf_dir}/orders.parquet", f"{sf_dir}/lineitem.parquet")
    )
    S = auto_salt_count(f"{sf_dir}/lineitem.parquet", "l_orderkey")

    lo = np.datetime64(Q10_DATE_LO).astype("datetime64[us]").astype(object)
    hi = np.datetime64(Q10_DATE_HI).astype("datetime64[us]").astype(object)
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi),
    )
    lineitem = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
        filter=pads.field("l_returnflag") == "R",
    )

    def orders_side(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["o_orderkey"], "custkey": t["o_custkey"]})

    def lineitem_side(t: pa.Table) -> pa.Table:
        # exact integer revenue lane: cents × (100 − basis points)
        cents = pc.cast(
            pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64()
        )
        bp = pc.cast(
            pc.round(pc.multiply(t["l_discount"], 100.0)), pa.int64()
        )
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), bp))
        # per-block (orderkey, rev) pre-agg before the exchange
        return (
            pa.table({"key": t["l_orderkey"], "rev": rev})
            .group_by("key")
            .aggregate([("rev", "sum")])
            .rename_columns(["key", "rev"])
        )

    def join_bucket(o: pd.DataFrame, l: pd.DataFrame):
        m = _inner_merge(l, o)
        if len(m) == 0:
            return pa.schema({"custkey": pa.int64(), "rev": pa.int64()}).empty_table()
        out = m.groupby("custkey", as_index=False)["rev"].sum()
        return out.astype({"custkey": "int64", "rev": "int64"})

    def top_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("custkey", as_index=False)["rev"].sum()
        return out.sort_values(
            ["rev", "custkey"], ascending=[False, True]
        ).head(Q10_TOPN)

    joined = cobucketed(
        (orders, orders_side), (lineitem, lineitem_side), "key", B,
        join_bucket, salt=S,
    )
    # buckets × 20 candidate rows
    cands = bucketed(joined, "custkey", B, top_bucket).to_pandas()
    if len(cands) == 0:
        return pa.table(
            {
                "c_custkey": pa.array([], pa.int64()),
                "c_name": pa.array([], pa.string()),
                "c_acctbal": pa.array([], pa.float64()),
                "n_name": pa.array([], pa.string()),
                "revenue_e4": pa.array([], pa.int64()),
            }
        )
    top = cands.sort_values(
        ["rev", "custkey"], ascending=[False, True]
    ).head(Q10_TOPN)

    # rehydrate ONLY the winners: broadcast 20 keys, semi-filter customer
    win = pa.array(top["custkey"].to_numpy(np.int64), pa.int64())
    win_ref = ray.put(win)

    def semi(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["c_custkey"], value_set=ray.get(win_ref))
        return t.filter(keep)

    cust = (
        _read(sf_dir, "customer",
              ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
        .map_batches(semi, batch_format="pyarrow")
        .to_pandas()
    )
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    out = (
        top.rename(columns={"custkey": "c_custkey", "rev": "revenue_e4"})
        .merge(cust, on="c_custkey")
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
        .sort_values(["revenue_e4", "c_custkey"],
                     ascending=[False, True], ignore_index=True)
    )
    return pa.table(
        {
            "c_custkey": pa.array(out["c_custkey"].to_numpy(np.int64)),
            "c_name": pa.array(out["c_name"], pa.string()),
            "c_acctbal": pa.array(
                out["c_acctbal"].to_numpy(np.float64), pa.float64()
            ),
            "n_name": pa.array(out["n_name"], pa.string()),
            "revenue_e4": pa.array(out["revenue_e4"].to_numpy(np.int64)),
        }
    )


SQL_RETURNED_ITEMS = f"""
WITH rev AS (
    SELECT o.o_custkey,
           CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                AS BIGINT) AS revenue_e4
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    WHERE l.l_returnflag = 'R'
      AND o.o_orderdate >= DATE '{Q10_DATE_LO}'
      AND o.o_orderdate < DATE '{Q10_DATE_HI}'
    GROUP BY o.o_custkey
)
SELECT c.c_custkey, c.c_name, c.c_acctbal, n.n_name, r.revenue_e4
FROM rev r
JOIN customer c ON c.c_custkey = r.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
ORDER BY r.revenue_e4 DESC, c.c_custkey
LIMIT {Q10_TOPN}
"""
