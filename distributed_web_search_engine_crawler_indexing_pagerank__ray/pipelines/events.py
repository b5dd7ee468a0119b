"""Stream-shaped operators over the `events` table.

The reference has no windows/watermarks (SURVEY §2.8 "streaming-only:
none"); these are the training-pipeline additions expressed the Ray
Data way (ray_guide "Streaming-shaped workloads"): the events table is
an ordered, partitioned log; windows are groupby + in-group pandas.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..sources.tables import read_parquet_clean
from ..functions.partitioning import bucket_count, parquet_rows
from ray.data.aggregate import Count, Sum


def _events(sf_dir: str, columns=None):
    return read_parquet_clean(f"{sf_dir}/events.parquet", columns=columns)


# -- tumbling window aggregate ----------------------------------------------


def q_window_tumbling(sf_dir: str):
    """1-hour tumbling windows per event_type: count + sum(value).
    Window assignment is a vectorized floor inside map_batches; the
    shuffle is the (event_type, window) groupby over pre-windowed rows."""

    def win(t: pa.Table) -> pa.Table:
        ws = pc.cast(
            pc.floor_temporal(t["ts"], unit="hour"), pa.timestamp("us")
        )  # explicit µs so the output schema matches the SQL oracle's
        return pa.table(
            {
                "event_type": t["event_type"],
                "window_start": ws,
                "value": t["value"],
            }
        )

    ds = _events(sf_dir, ["ts", "event_type", "value"]).map_batches(
        win, batch_format="pyarrow"
    )
    out = ds.groupby(["event_type", "window_start"]).aggregate(
        Count(alias_name="n"), Sum("value", alias_name="sum_value")
    )

    def round_cols(t: pa.Table) -> pa.Table:
        t = t.set_column(
            t.schema.get_field_index("sum_value"),
            "sum_value",
            pc.round(t["sum_value"], ndigits=4),
        )
        # the grouped aggregate can downcast the key to timestamp[s];
        # re-cast so the output schema matches the SQL oracle's µs
        return t.set_column(
            t.schema.get_field_index("window_start"),
            "window_start",
            pc.cast(t["window_start"], pa.timestamp("us")),
        )

    return out.map_batches(round_cols, batch_format="pyarrow")


SQL_WINDOW_TUMBLING = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(*) AS n, round(sum(value), 4) AS sum_value
FROM events
GROUP BY event_type, date_trunc('hour', ts)
"""


# -- sessionization (gap-based windows per key) ------------------------------

SESSION_GAP_MIN = 30


def q_sessionize(sf_dir: str):
    """Per-user session stats with a 30-minute inactivity gap.

    Ordering assumption (documented): events of one user are processed
    sorted by (ts, event_id); ties on ts share a session regardless of
    order."""

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        gaps = g["ts"].diff() > pd.Timedelta(minutes=SESSION_GAP_MIN)
        n_sessions = int(gaps.sum()) + 1
        return pd.DataFrame(
            {
                "user_id": [g["user_id"].iloc[0]],
                "n_events": [len(g)],
                "n_sessions": [n_sessions],
            }
        )

    return (
        _events(sf_dir, ["user_id", "event_id", "ts"])
        .groupby("user_id")
        .map_groups(sessions, batch_format="pandas")
    )


SQL_SESSIONIZE = f"""
WITH d AS (
    SELECT user_id, ts,
           lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
    FROM events
)
SELECT user_id, count(*) AS n_events,
       CAST(1 + sum(CASE WHEN prev IS NOT NULL
                          AND ts - prev > INTERVAL {SESSION_GAP_MIN} MINUTE
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM d GROUP BY user_id
"""


# -- approximate distinct (mergeable HLL sketch) -----------------------------


def q_approx_distinct_users(sf_dir: str):
    """Approximate distinct users per event_type via HyperLogLog:
    one serialized sketch per (batch, type) from map_batches, merged in
    a tiny driver combine (the guide's mergeable-sketch shape — at
    scale the merge is a groupby over kilobyte sketches, never a
    shuffle of raw values).

    EXACT, and SQL-oracle-checked (sql_approx_distinct_users): the
    splitmix64 mix, register ranks, and the estimate arithmetic are all
    deterministic, so DuckDB recomputes the identical integer estimate;
    the error bound vs exact distinct is additionally unit-tested."""
    from ..functions.sketch import HyperLogLog

    def sketch_batch(t: pa.Table) -> pa.Table:
        import numpy as np

        types = t["event_type"].to_pylist()
        users = np.asarray(t["user_id"].to_pylist(), dtype=np.uint64)
        out_t, out_s = [], []
        order = np.argsort(types, kind="stable")
        i = 0
        while i < len(order):
            j = i
            ty = types[order[i]]
            while j < len(order) and types[order[j]] == ty:
                j += 1
            hll = HyperLogLog().add_many(users[order[i:j]])
            out_t.append(ty)
            out_s.append(hll.to_bytes())
            i = j
        return pa.table(
            {
                "event_type": pa.array(out_t, pa.string()),
                "sketch": pa.array(out_s, pa.binary()),
            }
        )

    partials = _events(sf_dir, ["event_type", "user_id"]).map_batches(
        sketch_batch, batch_format="pyarrow"
    )
    merged: dict[str, "HyperLogLog"] = {}
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        for ty, s in zip(b["event_type"].to_pylist(), b["sketch"].to_pylist()):
            h = HyperLogLog.from_bytes(s)
            if ty in merged:
                merged[ty].merge(h)
            else:
                merged[ty] = h
    types = sorted(merged)
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            # floor(x+0.5), not round(): Python round() is banker's but
            # the SQL oracle rounds half-up — align on the latter
            "approx_users": pa.array(
                [int(math.floor(merged[t].estimate() + 0.5)) for t in types],
                pa.int64(),
            ),
        }
    )


def sql_approx_distinct_users() -> str:
    """DuckDB oracle for q_approx_distinct_users — EXACT, not a bound.

    Recomputes the HyperLogLog (functions/sketch.py) bit for bit:
    the splitmix64-style mix with its mod-2^64 multiplies done by
    32-bit split in HUGEINT, register rank = leading zeros of the
    suffix (+1) via bit-length, and the estimate from the exact dyadic
    register sum (sum 2^(53-rank) as an integer) so the double division
    is identical to the sketch's.  Register merge order is immaterial
    (element-wise max), so per-batch sketching in the pipeline and
    direct grouping here agree exactly."""
    from ..functions.sketch import HyperLogLog

    hll = HyperLogLog()
    p, m = hll.p, hll.m
    alpha_expr = f"(0.7213 / (1 + 1.079 / {m}.0))"
    assert m >= 128, "alpha formula below assumes m >= 128"
    c1 = 0xBF58476D1CE4E5B9
    c2 = 0x94D049BB133111EB

    def mulmod64(x: str, c: int) -> str:
        # (x * c) mod 2^64 with x < 2^64: split c into 32-bit halves so
        # every HUGEINT intermediate stays < 2^96
        ch, cl = c >> 32, c & 0xFFFFFFFF
        return (
            f"((({x} % 4294967296) * {cl} + "
            f"((({x} // 4294967296) * {cl} + ({x} % 4294967296) * {ch})"
            f" % 4294967296) * 4294967296) % 18446744073709551616)"
        )

    mix1 = mulmod64("xor(x::UBIGINT, (x::UBIGINT >> 30))::HUGEINT", c1)
    mix2 = mulmod64("xor(x::UBIGINT, (x::UBIGINT >> 27))::HUGEINT", c2)
    return f"""
WITH u AS (
  SELECT DISTINCT event_type, user_id::HUGEINT AS x FROM events
), m1 AS (
  SELECT event_type, {mix1} AS x FROM u
), m2 AS (
  SELECT event_type, {mix2} AS x FROM m1
), hh AS (
  SELECT event_type, xor(x::UBIGINT, (x::UBIGINT >> 31)) AS h FROM m2
), rr AS (
  SELECT event_type, (h >> {64 - p})::BIGINT AS idx,
         ((h::HUGEINT % {1 << (64 - p)}) * {1 << p} + {m - 1}) AS rest
  FROM hh
), regs AS (
  SELECT event_type, idx,
         max(64 - length(ltrim(bin(rest::UBIGINT), '0')) + 1) AS rank
  FROM rr GROUP BY event_type, idx
), agg AS (
  SELECT event_type, count(*) AS n_regs,
         sum((1::HUGEINT << (53 - rank))) AS s_present
  FROM regs GROUP BY event_type
), est AS (
  SELECT event_type,
         {alpha_expr} * {m} * {m} * 9007199254740992.0 /
            (s_present + ({m} - n_regs)::HUGEINT * 9007199254740992)::DOUBLE AS raw,
         ({m} - n_regs) AS zeros
  FROM agg
)
SELECT event_type,
       CASE WHEN raw <= 2.5 * {m} AND zeros > 0
            THEN floor({m} * ln({m}.0 / zeros) + 0.5)::BIGINT
            ELSE floor(raw + 0.5)::BIGINT END AS approx_users
FROM est
"""


# -- sliding windows ---------------------------------------------------------

SLIDE_MIN = 15  # windows start every 15 min, length 1 h


def q_window_sliding(sf_dir: str):
    """1-hour windows sliding every 15 min, per event_type: each event
    lands in 4 windows (vectorized expansion in map_batches).  The
    counts are exact integers, so each block pre-aggregates its own
    (type, window) partials before the shuffle — the exchange moves
    blocks × |windows touched| rows, not 4× the raw table — and the
    bucketed merge runs one vectorized pandas groupby per hash bucket
    (Ray's sort-based Aggregate on raw expanded rows costs an order
    more remote time)."""
    import numpy as np

    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))

    STEP_US = SLIDE_MIN * 60 * 1_000_000

    def expand(t: pa.Table) -> pa.Table:
        # fully vectorized 4× expansion: int64 µs floor + shifted
        # copies, arrow concat for the type column (no to_pylist loop)
        ts_us = pc.cast(
            pc.cast(t["ts"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        base = ts_us - ts_us % STEP_US  # epochs non-negative ⇒ floor
        k = 60 // SLIDE_MIN
        ws_all = np.concatenate([base - j * STEP_US for j in range(k)])
        types = t["event_type"].combine_chunks()
        part = (
            pa.table(
                {
                    "event_type": pa.concat_arrays([types] * k),
                    "window_start": pc.cast(
                        pa.array(ws_all, pa.int64()), pa.timestamp("us")
                    ),
                    "n": pa.array(np.ones(len(ws_all), np.int64)),
                }
            )
            .group_by(["event_type", "window_start"])
            .aggregate([("n", "sum")])
        ).rename_columns(["event_type", "window_start", "n"])
        h = np.bitwise_xor(
            part["window_start"].cast(pa.int64()).to_numpy(
                zero_copy_only=False
            ),
            pd.util.hash_array(
                np.asarray(part["event_type"].to_pandas())
            ).astype(np.int64),
        )
        return part.append_column(
            "bucket", pa.array((h & (NB - 1)).astype(np.int32))
        )

    def merge_bucket(g: pa.Table) -> pa.Table:
        m = (
            g.to_pandas()
            .groupby(["event_type", "window_start"], as_index=False)["n"]
            .sum()
        )
        return pa.table(
            {
                "event_type": pa.array(m["event_type"], pa.string()),
                "window_start": pc.cast(
                    pa.Array.from_pandas(m["window_start"]),
                    pa.timestamp("us"),
                ),
                "n": pa.array(m["n"].to_numpy(np.int64)),
            }
        )

    return (
        _events(sf_dir, ["ts", "event_type"])
        .map_batches(expand, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(merge_bucket, batch_format="pyarrow")
    )


SQL_WINDOW_SLIDING = f"""
SELECT event_type,
       time_bucket(INTERVAL {SLIDE_MIN} MINUTE, ts)
         - k.k * INTERVAL {SLIDE_MIN} MINUTE AS window_start,
       count(*) AS n
FROM events, (SELECT unnest(range(4)) AS k) k
GROUP BY event_type, window_start
"""


# -- as-of join (training-pipeline addition; none in the reference) ----------


def q_asof_join(sf_dir: str):
    """For every event: the most recent order of the same customer at
    or before the event time (as-of backward join).  Pattern: co-bucket
    both sides by key with one groupby over the tagged union, then
    ``pd.merge_asof`` inside each group (ray_guide 'As-of / range
    join')."""
    events = _events(sf_dir, ["event_id", "user_id", "ts"])
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )

    # key-hash buckets: the groupby lands BOTH sides of a key in one
    # group, so the reduce is NB vectorized merge_asof(by=key) calls —
    # not one tiny Python call per key.  NB is size-derived (bounded
    # per-group memory ≈ rows-per-bucket target, input-proportional
    # parallelism); no salting — merge_asof needs a key's full ordered
    # history in one group, so a pathologically hot key is instead
    # time-range sub-partitioned with the latest right row before each
    # boundary replicated into the next partition.
    NB = bucket_count(
        parquet_rows(f"{sf_dir}/events.parquet", f"{sf_dir}/orders.parquet")
    )

    def tag_events(t: pa.Table) -> pa.Table:
        k = pc.cast(t["user_id"], pa.int64())
        return pa.table(
            {
                "bucket": pc.cast(pc.bit_wise_and(k, pa.scalar(NB - 1)), pa.int32()),
                "key": k,
                "side": pa.array(["e"] * t.num_rows, pa.string()),
                "event_id": t["event_id"],
                "ts": t["ts"],
            }
        )

    def tag_orders(t: pa.Table) -> pa.Table:
        k = pc.cast(t["o_custkey"], pa.int64())
        return pa.table(
            {
                "bucket": pc.cast(pc.bit_wise_and(k, pa.scalar(NB - 1)), pa.int32()),
                "key": k,
                "side": pa.array(["o"] * t.num_rows, pa.string()),
                "event_id": pa.nulls(t.num_rows, pa.int64()),
                "ts": t["o_orderdate"],
            }
        )

    tagged = events.map_batches(tag_events, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["side"] == "e"][["key", "event_id", "ts"]].sort_values("ts")
        # the tagged union holds null event_id on order rows, so pandas
        # promotes the column to float64 for the whole group; restore the
        # contract dtype after dropping the order side
        ev = ev.assign(event_id=ev["event_id"].astype("int64"))
        od = g[g["side"] == "o"][["key", "ts"]].sort_values("ts")
        if len(ev) == 0:
            return pd.DataFrame(
                {"event_id": pd.Series(dtype="int64"),
                 "last_order_date": pd.Series(dtype="datetime64[us]")}
            )
        m = pd.merge_asof(
            ev, od.rename(columns={"ts": "last_order_date"}),
            left_on="ts", right_on="last_order_date", by="key",
            direction="backward",
        )
        return m[["event_id", "last_order_date"]]

    return tagged.groupby("bucket").map_groups(asof, batch_format="pandas")


SQL_ASOF_JOIN = """
SELECT e.event_id,
       (SELECT max(o.o_orderdate) FROM orders o
        WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts)
       AS last_order_date
FROM events e
"""


# -- top-k by aggregate ------------------------------------------------------


def q_top_users(sf_dir: str):
    """Top-10 users by total event value (sort + limit after a grouped
    aggregate — query-side Q7 shape)."""
    ds = _events(sf_dir, ["user_id", "value"])
    out = ds.groupby("user_id").aggregate(Sum("value", alias_name="total_value"))

    def round_cols(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("total_value"),
            "total_value",
            pc.round(t["total_value"], ndigits=4),
        )

    return (
        out.map_batches(round_cols, batch_format="pyarrow")
        .sort(["total_value", "user_id"], descending=[True, False])
        .limit(10)
    )


SQL_TOP_USERS = """
SELECT user_id, round(sum(value), 4) AS total_value
FROM events
GROUP BY user_id
ORDER BY total_value DESC, user_id
LIMIT 10
"""


# -- range join (time-window self join) ---------------------------------------

RANGE_WINDOW_MIN = 5


def q_range_join(sf_dir: str):
    """click→purchase funnel: pairs of events of the same user where a
    purchase follows a click within {RANGE_WINDOW_MIN} minutes — the
    time-window range join (the third of the custom join family next to
    the as-of join and the windowed aggregates).

    Pattern: both sides pre-filtered to their event type at the read
    (so only funnel rows shuffle), co-bucketed by user-id hash with one
    groupby over the tagged union (same shape as :func:`q_asof_join`),
    and inside each group one vectorized pandas equi-merge on the user
    plus a window filter.  At scale, a user whose history outgrows a
    group gets time-bucketed on top of the key hash (join on
    (user, coarse time bucket) with each left row probing its own and
    the next bucket)."""
    import pandas as pd

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    # size-derived (×2: both filtered copies shuffle); per-group memory
    # is bounded by the rows-per-bucket target — the docstring's
    # time-bucketed sub-split is the hot-user path
    NB = bucket_count(2 * parquet_rows(f"{sf_dir}/events.parquet"))

    def tag(kind: str, typ: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["event_type"], typ))
            k = pc.cast(t["user_id"], pa.int64())
            return pa.table(
                {
                    "bucket": pc.cast(
                        pc.bit_wise_and(k, pa.scalar(NB - 1)), pa.int32()
                    ),
                    "key": k,
                    "side": pa.array([kind] * t.num_rows, pa.string()),
                    "event_id": t["event_id"],
                    "ts": t["ts"],
                }
            )

        return fn

    tagged = ev.map_batches(tag("c", "click"), batch_format="pyarrow").union(
        ev.map_batches(tag("p", "purchase"), batch_format="pyarrow")
    )

    def join_window(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        c = df[df["side"] == "c"][["key", "event_id", "ts"]]
        p = df[df["side"] == "p"][["key", "event_id", "ts"]]
        m = c.merge(p, on="key", suffixes=("_c", "_p"))
        dt = m["ts_p"] - m["ts_c"]
        m = m[(dt > pd.Timedelta(0)) & (dt <= pd.Timedelta(minutes=RANGE_WINDOW_MIN))]
        return pa.table(
            {
                "click_id": pa.array(m["event_id_c"].to_numpy(dtype="int64")),
                "purchase_id": pa.array(m["event_id_p"].to_numpy(dtype="int64")),
            }
        )

    return tagged.groupby("bucket").map_groups(join_window, batch_format="pyarrow")


SQL_RANGE_JOIN = f"""
SELECT a.event_id AS click_id, b.event_id AS purchase_id
FROM events a JOIN events b ON a.user_id = b.user_id
WHERE a.event_type = 'click' AND b.event_type = 'purchase'
  AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL {RANGE_WINDOW_MIN} MINUTE
"""


# -- keep-latest dedup (newest row per key) -----------------------------------


def _latest_per_key(t: pa.Table) -> pa.Table:
    """Reduce an arrow table to its last (ts, event_id)-ordered row per
    user_id, fully vectorized (one sort + one run-boundary scan).
    Arrow-in/arrow-out so `ts` never round-trips through pandas ns."""
    import numpy as np

    idx = pc.sort_indices(
        t,
        sort_keys=[
            ("user_id", "ascending"),
            ("ts", "ascending"),
            ("event_id", "ascending"),
        ],
    )
    t = t.take(idx)
    users = t["user_id"].to_numpy(zero_copy_only=False)
    # last position of each user run
    last = np.flatnonzero(np.diff(users) != 0)
    keep = np.concatenate([last, [len(users) - 1]]) if len(users) else last
    return t.take(pa.array(keep, pa.int64()))


def q_keep_latest(sf_dir: str):
    """Newest event per user (max ts, ties broken by max event_id) —
    the "keep the newest version of each document" dedup every
    training-data refresh runs.

    Scale shape: a vectorized per-block combiner first reduces each
    block to ≤ one row per user seen in it, so the groupby that follows
    shuffles at most |users|·blocks rows instead of the full log; the
    per-group reduce then picks the global winner.  Both reduces share
    one arrow kernel (`_latest_per_key`)."""
    ds = _events(sf_dir, ["user_id", "event_id", "ts", "event_type", "value"])
    combined = ds.map_batches(_latest_per_key, batch_format="pyarrow")
    return combined.groupby("user_id").map_groups(
        _latest_per_key, batch_format="pyarrow"
    )


SQL_KEEP_LATEST = """
SELECT user_id, event_id, ts, event_type, value
FROM (
    SELECT e.*,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY ts DESC, event_id DESC) AS rn
    FROM events e
) WHERE rn = 1
"""


# -- exact grouped quantiles ---------------------------------------------------

QUANTILE_QS = (0.5, 0.95)


def q_grouped_quantiles(sf_dir: str):
    """Exact per-group percentiles (p50/p95 of value per event_type),
    matching DuckDB ``quantile_disc``: the element at 1-based rank
    ``ceil(q*n)`` of the sorted group (verified empirically — no
    interpolation, so the result is an exact input element and
    hash-compares bit-for-bit).

    Exact quantiles inherently co-locate each group's values (one
    sort-shuffle); event_type has few distinct values, so each group is
    one numpy sort.  At 100-TB group sizes swap in a mergeable sketch
    (t-digest / KLL) exactly the way q_approx_distinct_users swaps HLL
    for count(DISTINCT), or run the classic two-pass bucket-count +
    single-bucket-scan exact algorithm."""
    import math as _math

    import numpy as np

    def quant(t: pa.Table) -> pa.Table:
        v = np.sort(t["value"].to_numpy(zero_copy_only=False))
        n = len(v)
        cols = {"event_type": pa.array([t["event_type"][0].as_py()], pa.string())}
        for q in QUANTILE_QS:
            i = max(0, _math.ceil(q * n) - 1)
            cols[f"p{int(q * 100)}"] = pa.array([float(v[i])], pa.float64())
        return pa.table(cols)

    ds = _events(sf_dir, ["event_type", "value"])
    return ds.groupby("event_type").map_groups(quant, batch_format="pyarrow")


SQL_GROUPED_QUANTILES = """
SELECT event_type,
       quantile_disc(value, 0.5)  AS p50,
       quantile_disc(value, 0.95) AS p95
FROM events
GROUP BY event_type
"""


# -- late-data tumbling window (watermark semantics) ---------------------------

LATE_DELAY_S = 7200     # simulated network delay: knuth(event_id) % 2 h
LATE_ALLOWED_S = 1800   # watermark lateness: 30 min
_KNUTH = 2654435761


def q_window_late_data(sf_dir: str):
    """1-hour tumbling counts over an OUT-OF-ORDER stream with a
    watermark: each event arrives at ``ts + delay`` (delay = Knuth hash
    of event_id mod 2 h — a deterministic stand-in for network jitter,
    so reruns and the SQL oracle see the identical stream); the
    watermark trails the maximum event-time seen so far in ARRIVAL
    order by 30 min, and rows arriving behind it are dropped — the
    streaming late-data rule.

    Distributed shape — a prefix scan, not a global sort: arrival time
    range-partitions the stream (partition = arrival hour, so the
    partition index IS arrival order).  Phase 1 reduces each partition
    to one max-event-ts scalar; the driver prefix-maxes those ≤
    |arrival hours| scalars (kilobytes at any corpus size) and
    broadcasts them.  Phase 2 re-walks each partition seeded with its
    predecessors' prefix — in-partition running max + the late filter
    are one vectorized numpy pass — and emits pre-aggregated
    (event_type, window) partials; a final small groupby sums them.
    A hotter stream shrinks the partition to a minute without touching
    the prefix table's scale story."""
    import numpy as np

    US = np.int64(1_000_000)
    HOUR_US = np.int64(3_600) * US
    late_us = np.int64(LATE_ALLOWED_S) * US
    M32 = np.uint64(0xFFFFFFFF)

    def arrival(t: pa.Table):
        ts_us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        delay_s = ((eid & M32) * np.uint64(_KNUTH)) & M32
        delay_us = (delay_s % np.uint64(LATE_DELAY_S)).astype(np.int64) * US
        arr_us = ts_us + delay_us
        return ts_us, arr_us

    ds = _events(sf_dir, ["event_id", "ts", "event_type"])

    # phase 1: per-partition (arrival hour) max event-ts, merged small
    def bucket_max(t: pa.Table) -> pa.Table:
        ts_us, arr_us = arrival(t)
        b = arr_us // HOUR_US
        order = np.argsort(b, kind="stable")
        bs, ts_s = b[order], ts_us[order]
        starts = np.concatenate([[0], np.flatnonzero(bs[1:] != bs[:-1]) + 1])
        return pa.table(
            {
                "bucket": pa.array(bs[starts], pa.int64()),
                "max_ts": pa.array(np.maximum.reduceat(ts_s, starts), pa.int64()),
            }
        )

    from ray.data.aggregate import Max, Sum

    bm = (
        ds.map_batches(bucket_max, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Max("max_ts", alias_name="max_ts"))
        .to_pandas()
        .sort_values("bucket")
    )
    buckets = bm["bucket"].to_numpy()
    # exclusive prefix max over arrival-ordered partitions
    prefix = np.concatenate(
        [[np.int64(-(1 << 62))], np.maximum.accumulate(bm["max_ts"].to_numpy())[:-1]]
    )
    small = ray.put((buckets, prefix))

    def tag_bucket(t: pa.Table) -> pa.Table:
        _, arr_us = arrival(t)
        return t.append_column(
            "bucket", pa.array(arr_us // HOUR_US, pa.int64())
        )

    def walk(g: pa.Table) -> pa.Table:
        bkts, pref = ray.get(small)
        ts_us, arr_us = arrival(g)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, arr_us))  # arrival order, event_id ties
        ts_o = ts_us[order]
        seed = pref[np.searchsorted(bkts, int(arr_us[order[0]] // HOUR_US))]
        wm = np.maximum.accumulate(np.maximum(ts_o, seed))
        keep = ts_o >= wm - late_us
        kept = g.take(pa.array(order[keep], pa.int64()))
        win = pc.cast(
            pc.floor_temporal(kept["ts"], unit="hour"), pa.timestamp("us")
        )
        part = pa.table({"event_type": kept["event_type"], "window_start": win})
        idx = pc.sort_indices(
            part,
            sort_keys=[("event_type", "ascending"), ("window_start", "ascending")],
        )
        part = part.take(idx)
        et = np.asarray(part["event_type"].to_pandas())
        ws = part["window_start"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        if len(et) == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "window_start": pa.array([], pa.timestamp("us")),
                    "n_on_time": pa.array([], pa.int64()),
                }
            )
        new = np.concatenate(
            [[True], (et[1:] != et[:-1]) | (ws[1:] != ws[:-1])]
        )
        starts = np.flatnonzero(new)
        counts = np.diff(np.concatenate([starts, [len(et)]]))
        sel = part.take(pa.array(starts, pa.int64()))
        return pa.table(
            {
                "event_type": sel["event_type"],
                "window_start": sel["window_start"],
                "n_on_time": pa.array(counts, pa.int64()),
            }
        )

    partials = (
        ds.map_batches(tag_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(walk, batch_format="pyarrow")
    )
    out = partials.groupby(["event_type", "window_start"]).aggregate(
        Sum("n_on_time", alias_name="n_on_time")
    )

    def recast(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("window_start"),
            "window_start",
            pc.cast(t["window_start"], pa.timestamp("us")),
        )

    return out.map_batches(recast, batch_format="pyarrow")


SQL_WINDOW_LATE_DATA = f"""
WITH a AS (
    SELECT *,
           ts + (((event_id % 4294967296)::HUGEINT * {_KNUTH})
                 % 4294967296 % {LATE_DELAY_S})::BIGINT
                * INTERVAL 1 SECOND AS arrival_ts
    FROM events),
w AS (
    SELECT *, max(ts) OVER (ORDER BY arrival_ts, event_id
                            ROWS UNBOUNDED PRECEDING) AS wm
    FROM a)
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(*) AS n_on_time
FROM w
WHERE ts >= wm - INTERVAL {LATE_ALLOWED_S} SECOND
GROUP BY event_type, date_trunc('hour', ts)
"""


# -- per-key ordered moving average (rolling window) --------------------------

MA_WINDOW = 3  # trailing rows, current inclusive


def q_moving_average(sf_dir: str):
    """Per-user trailing 3-event moving average of ``value`` (ordered by
    ``(ts, event_id)``), reporting each user's final value — the
    ordered-per-key rolling aggregate Ray Data has no primitive for.

    Shape: bucket users with ``user_id & (B-1)``, one ``groupby(bucket)``
    shuffle, then ONE vectorized kernel per bucket: sort the bucket by
    (user, ts, id), cumulative-sum ``value`` in integer micros, and take
    ``cum[i] - cum[i-w]`` with the window clipped at each user's run
    start (pure numpy — no per-user Python loop, no pandas
    ``groupby.rolling``).  Integer micros (``floor(v*1e6 + 0.5)``) keep
    the 3-term sums order-independent, so the rounded result is
    hash-exact vs the SQL window-function oracle.

    Scale posture: NB size-derived ⇒ one group ≤ ~target rows (a few
    tens of MB pandas) and NB-way parallelism at any input size.  No
    salting — the rolling window needs each user's ordered run intact;
    a hot user sub-partitions by time range instead, carrying the
    trailing W-1 rows across each boundary."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def tag(t: pa.Table) -> pa.Table:
        k = pc.cast(t["user_id"], pa.int64())
        v = pc.cast(
            pc.floor(
                pc.add(pc.multiply(t["value"], pa.scalar(1e6)), pa.scalar(0.5))
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "bucket": pc.cast(pc.bit_wise_and(k, pa.scalar(NB - 1)), pa.int32()),
                "user_id": k,
                "ts": t["ts"],
                "event_id": t["event_id"],
                "v": v,
            }
        )

    def ma_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        v = g["v"].to_numpy(dtype=np.int64)
        n = len(g)
        # positions where a new user's run starts, and each row's offset
        # into its user's run
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = u[1:] != u[:-1]
        pos = np.arange(n)
        run_start = np.maximum.accumulate(np.where(new, pos, 0))
        off = pos - run_start
        csum = np.concatenate([[0], np.cumsum(v)])
        w = np.minimum(off + 1, MA_WINDOW)
        s = csum[pos + 1] - csum[pos + 1 - w]
        # floor(x+0.5) in micro space, not round(): half-up on both
        # sides (numpy round is banker's, the SQL oracle would be
        # half-away) — same belt as the late-data window kernel
        ma = np.floor(s / w + 0.5) / 1e6
        # final row per user = last row of each run
        last = np.empty(n, dtype=bool)
        last[:-1] = new[1:]
        last[-1] = True
        return pd.DataFrame(
            {"user_id": u[last], "ma3": ma[last]}
        ).astype({"user_id": "int64", "ma3": "float64"})

    return (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(ma_bucket, batch_format="pandas")
    )


SQL_MOVING_AVERAGE = f"""
WITH e AS (
    SELECT user_id, ts, event_id,
           CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS v
    FROM events
), w AS (
    SELECT user_id,
           sum(v) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN {MA_WINDOW - 1} PRECEDING AND CURRENT ROW) AS s,
           count(*) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS BETWEEN {MA_WINDOW - 1} PRECEDING AND CURRENT ROW) AS c,
           row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC)
               AS rn
    FROM e
)
SELECT user_id, floor(s / c + 0.5) / 1000000.0 AS ma3
FROM w WHERE rn = 1
"""


# -- PII-style redaction scrub (pure vectorized map, no shuffle) --------------

PII_PATTERN = "[0-9]+"  # digit runs in event props; email/phone regexes
# swap in unchanged at deploy time — both engines (pyarrow and DuckDB)
# run RE2, so any RE2 pattern keeps the oracle bit-exact


def q_pii_scrub(sf_dir: str):
    """Redaction pass over ``events.props``: replace every match of
    ``PII_PATTERN`` with ``#`` and report the per-record hit count —
    the scrub-before-training stage of a data pipeline (emails, phone
    numbers, ids), demonstrated on the digit runs this synthetic data
    actually contains.

    Shape: a single ``map_batches`` with pyarrow's RE2 kernels
    (``replace_substring_regex`` + ``count_substring_regex``) — no
    Python per-row loop, no shuffle, embarrassingly parallel at any
    scale; the model for all regex-scrub stages in this engine."""

    ds = _events(sf_dir, columns=["event_id", "props"])

    def scrub(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "scrubbed": pc.replace_substring_regex(
                    t["props"], pattern=PII_PATTERN, replacement="#"
                ),
                "n_hits": pc.cast(
                    pc.count_substring_regex(t["props"], pattern=PII_PATTERN),
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


SQL_PII_SCRUB = f"""
SELECT event_id,
       regexp_replace(props, '{PII_PATTERN}', '#', 'g') AS scrubbed,
       len(regexp_extract_all(props, '{PII_PATTERN}')) AS n_hits
FROM events
"""


# -- per-key lag / inter-event deltas (ordered window, one shuffle) -----------


def q_event_deltas(sf_dir: str):
    """Per-user inter-event time gaps — the ``lag()`` window shape:
    gap = ts − previous ts within the user's (ts, event_id)-ordered
    run, reported as per-user count / max / floor-mean in integer
    microseconds.  Users with a single event have no gap and are
    absent, like the SQL.

    Shape = ``q_moving_average``: bucket users by ``user_id & (B-1)``,
    ONE ``groupby(bucket)`` shuffle, then one vectorized kernel per
    bucket — sort by (user, ts, id), diff adjacent timestamps, mask out
    run boundaries, and reduce per run with ``np.add/maximum.reduceat``
    (no per-user Python loop).  All-integer microsecond arithmetic ⇒
    hash-exact vs the SQL window-function oracle at any batch split.

    Scale posture: NB size-derived ⇒ bounded per-group memory,
    input-proportional parallelism; no salting — a user's ordered run
    must stay intact (a hot user sub-partitions by time range carrying
    one boundary row, as in q_moving_average)."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "ts", "event_id"])

    def tag(t: pa.Table) -> pa.Table:
        k = pc.cast(t["user_id"], pa.int64())
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(k, pa.scalar(NB - 1)), pa.int32()
                ),
                "user_id": k,
                "ts_us": pc.cast(t["ts"], pa.int64()),  # epoch micros
                "event_id": pc.cast(t["event_id"], pa.int64()),
            }
        )

    def deltas_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(dtype=np.int64)
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        n = len(g)
        if n < 2:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "n_gaps": pd.Series(dtype="int64"),
                    "max_gap_us": pd.Series(dtype="int64"),
                    "mean_gap_us": pd.Series(dtype="int64"),
                }
            )
        same = u[1:] == u[:-1]
        gaps = (ts[1:] - ts[:-1])[same]
        gu = u[1:][same]
        if len(gu) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "n_gaps": pd.Series(dtype="int64"),
                    "max_gap_us": pd.Series(dtype="int64"),
                    "mean_gap_us": pd.Series(dtype="int64"),
                }
            )
        starts = np.flatnonzero(
            np.concatenate([[True], gu[1:] != gu[:-1]])
        )
        counts = np.diff(np.concatenate([starts, [len(gu)]]))
        sums = np.add.reduceat(gaps, starts)
        maxs = np.maximum.reduceat(gaps, starts)
        return pd.DataFrame(
            {
                "user_id": gu[starts],
                "n_gaps": counts.astype(np.int64),
                "max_gap_us": maxs.astype(np.int64),
                "mean_gap_us": (sums // counts).astype(np.int64),
            }
        )

    return (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(deltas_bucket, batch_format="pandas")
    )


SQL_EVENT_DELTAS = """
WITH d AS (
    SELECT user_id,
           epoch_us(ts) - lag(epoch_us(ts)) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
    FROM events
)
SELECT user_id,
       count(*) AS n_gaps,
       CAST(max(gap_us) AS BIGINT) AS max_gap_us,
       CAST(sum(gap_us) AS BIGINT) // count(*) AS mean_gap_us
FROM d WHERE gap_us IS NOT NULL
GROUP BY user_id
"""


# -- conversion funnel (conditional per-key first-touch aggregate) -------------

FUNNEL_FROM = "view"
FUNNEL_TO = "purchase"
_TS_SENTINEL = np.iinfo(np.int64).max


def q_funnel_conversion(sf_dir: str):
    """Two-step conversion funnel: per user, the first ``view`` and the
    first ``purchase`` timestamp, and whether the user converted
    (first view strictly before first purchase) — the classic
    product-analytics funnel expressed as a conditional first-touch
    aggregate.

    Shape: the two event types are filtered at the parquet read; each
    block reduces to ≤ one (user, first_view, first_purchase) partial
    row per user via an arrow ``group_by`` min (sentinel INT64_MAX for
    the missing type — min-combinable), so the shuffle moves per-user
    partials, not events.  Users then co-bucket by ``user_id & (B-1)``
    into one size-derived ``groupby(bucket)`` and a vectorized kernel
    (``np.minimum.reduceat`` per column) finishes the min-merge — no
    per-user Python call.  Missing steps surface as -1 sentinels so the
    output is null-free and hashes stably."""
    import pyarrow.dataset as pads

    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"],
        filter=pads.field("event_type").isin([FUNNEL_FROM, FUNNEL_TO]),
    )

    def partial(t: pa.Table) -> pa.Table:
        u = pc.cast(t["user_id"], pa.int64())
        ts = pc.cast(t["ts"], pa.int64())  # epoch micros
        is_from = pc.equal(t["event_type"], FUNNEL_FROM)
        sent = pa.scalar(int(_TS_SENTINEL), pa.int64())
        part = (
            pa.table(
                {
                    "user_id": u,
                    "v": pc.if_else(is_from, ts, sent),
                    "p": pc.if_else(is_from, sent, ts),
                }
            )
            .group_by("user_id")
            .aggregate([("v", "min"), ("p", "min")])
        )
        k = part["user_id"]
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(k, pa.scalar(NB - 1)), pa.int32()
                ),
                "user_id": k,
                "v": part["v_min"],
                "p": part["p_min"],
            }
        )

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("user_id", kind="mergesort")
        u = g["user_id"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        v = np.minimum.reduceat(g["v"].to_numpy(dtype=np.int64), starts)
        p = np.minimum.reduceat(g["p"].to_numpy(dtype=np.int64), starts)
        has_v, has_p = v != _TS_SENTINEL, p != _TS_SENTINEL
        return pd.DataFrame(
            {
                "user_id": u[starts],
                "first_view_us": np.where(has_v, v, -1),
                "first_purchase_us": np.where(has_p, p, -1),
                "converted": (has_v & has_p & (v < p)).astype(np.int64),
            }
        )

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(merge_bucket, batch_format="pandas")
    )


SQL_FUNNEL_CONVERSION = f"""
WITH f AS (
    SELECT user_id,
           min(CASE WHEN event_type = '{FUNNEL_FROM}' THEN epoch_us(ts) END) AS v,
           min(CASE WHEN event_type = '{FUNNEL_TO}' THEN epoch_us(ts) END) AS p
    FROM events
    WHERE event_type IN ('{FUNNEL_FROM}', '{FUNNEL_TO}')
    GROUP BY user_id
)
SELECT user_id,
       CAST(coalesce(v, -1) AS BIGINT) AS first_view_us,
       CAST(coalesce(p, -1) AS BIGINT) AS first_purchase_us,
       CAST(CASE WHEN v IS NOT NULL AND p IS NOT NULL AND v < p
            THEN 1 ELSE 0 END AS BIGINT) AS converted
FROM f
"""


# -- z-score outliers (two-pass: tiny broadcast stats, then a scan) ------------

ZSCORE_CUT = 2.0


def q_zscore_outliers(sf_dir: str):
    """Events whose value is more than ``ZSCORE_CUT`` standard
    deviations from their event_type's mean — the standard
    quality-filter/outlier pass of a training-data pipeline, shaped as
    the canonical TWO-PASS broadcast plan: pass 1 reduces the stream to
    |event_types| exact integer moment rows (per-block arrow partials →
    one tiny driver combine), the driver derives (mean, std) per type
    from those moments and ``ray.put``s the lookup ONCE, pass 2 is an
    embarrassingly-parallel scan that z-scores each row against the
    broadcast and keeps the tail.

    Hash-exactness: values carry exactly 2 decimals, so the moments are
    summed in integer cents (exact at any block split / reduce order);
    mean/std/z then apply the identical IEEE double formula on both the
    Ray and SQL side, making even the |z| > cut boundary deterministic."""
    ev = _events(sf_dir, ["event_id", "event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t["value"], 100.0)), pa.int64())
        part = (
            pa.table(
                {
                    "event_type": t["event_type"],
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                    "sc": c,
                    "sq": pc.multiply(c, c),
                }
            )
            .group_by("event_type")
            .aggregate([("n", "sum"), ("sc", "sum"), ("sq", "sum")])
        )
        return part.rename_columns(["event_type", "n", "sc", "sq"])

    parts = ev.map_batches(moments, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("event_type", as_index=False).sum()
    stats: dict[str, tuple[float, float]] = {}
    for _, r in agg.iterrows():
        n, sc, sq = int(r["n"]), int(r["sc"]), int(r["sq"])
        if n < 2:
            continue
        mean = sc / n
        var = (sq - mean * sc) / (n - 1)
        stats[str(r["event_type"])] = (mean, math.sqrt(var))
    stats_ref = ray.put(stats)

    def score(t: pa.Table) -> pa.Table:
        stats = ray.get(stats_ref)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        c = np.rint(t["value"].to_numpy(zero_copy_only=False) * 100.0)
        mean = np.array([m for m, _ in stats.values()])
        std = np.array([s for _, s in stats.values()])
        ei = pd.Index(list(stats)).get_indexer(et)  # vectorized
        z = (c - mean[ei]) / std[ei]
        keep = np.abs(z) > ZSCORE_CUT
        return pa.table(
            {
                "event_id": pc.cast(t["event_id"], pa.int64()).filter(
                    pa.array(keep)
                ),
                "event_type": t["event_type"].filter(pa.array(keep)),
                "value": t["value"].filter(pa.array(keep)),
                "z": pa.array(np.round(z[keep], 6), pa.float64()),
            }
        )

    return ev.map_batches(score, batch_format="pyarrow")


SQL_ZSCORE_OUTLIERS = f"""
WITH s AS (
    SELECT event_type,
           count(*) AS n,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sc,
           CAST(sum(CAST(round(value * 100) AS BIGINT)
                    * CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sq
    FROM events GROUP BY event_type
),
z AS (
    SELECT e.event_id, e.event_type, e.value,
           (CAST(round(e.value * 100) AS BIGINT) - s.sc / s.n)
           / sqrt((s.sq - (s.sc / s.n) * s.sc) / (s.n - 1)) AS z
    FROM events e JOIN s USING (event_type)
    WHERE s.n >= 2
)
SELECT event_id, event_type, value, round(z, 6) AS z
FROM z WHERE abs(z) > {ZSCORE_CUT}
"""


# -- semi-structured extraction (regex parse + grouped reduce) -----------------


def q_props_extract(sf_dir: str):
    """Parse the numeric payload out of the semi-structured ``props``
    JSON-ish string and aggregate it per event_type — the
    log-field-extraction stage every event pipeline runs before
    analytics.

    Shape: one ``map_batches`` with pyarrow's RE2 ``extract_regex``
    (vectorized, no per-row Python), pre-aggregated per block to
    ≤ |event_types| partial rows, then a tiny final ``groupby``
    map_groups — the extraction never shuffles row-level data."""
    ev = _events(sf_dir, ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t["props"], pattern=r"(?P<k>[0-9]+)")
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        return (
            pa.table(
                {
                    "event_type": t["event_type"],
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                    "sum_k": k,
                    "max_k": k,
                }
            )
            .group_by("event_type")
            .aggregate([("n", "sum"), ("sum_k", "sum"), ("max_k", "max")])
            .rename_columns(["event_type", "n", "sum_k", "max_k"])
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n": [np.int64(g["n"].sum())],
                "sum_k": [np.int64(g["sum_k"].sum())],
                "max_k": [np.int64(g["max_k"].max())],
            }
        )

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(merge, batch_format="pandas")
    )


SQL_PROPS_EXTRACT = """
SELECT event_type,
       count(*) AS n,
       CAST(sum(CAST(regexp_extract(props, '[0-9]+') AS BIGINT)) AS BIGINT)
           AS sum_k,
       CAST(max(CAST(regexp_extract(props, '[0-9]+') AS BIGINT)) AS BIGINT)
           AS max_k
FROM events GROUP BY event_type
"""


# -- exact grouped count-distinct (two-level distinct reduce) ------------------


def q_distinct_users_by_type(sf_dir: str):
    """Exact ``count(DISTINCT user_id)`` per event_type — the exact
    sibling of `q_approx_distinct_users` (HLL): when the key space fits
    a shuffle, the exact verb is a TWO-LEVEL reduce — each block first
    collapses to its distinct (type, user) pairs (an arrow ``group_by``
    — the pair stream shrinks before it moves), the pairs co-bucket by
    ``user & (B-1)`` so every duplicate pair lands in the same group
    and is counted once, and per-bucket partial counts per type sum to
    the answer.  Scale: the shuffle carries distinct pairs only; at
    cardinalities where even that is too much, `q_approx_distinct_users`
    is the documented swap."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["event_type", "user_id"])

    def pairs(t: pa.Table) -> pa.Table:
        part = (
            pa.table(
                {
                    "event_type": t["event_type"],
                    "user_id": pc.cast(t["user_id"], pa.int64()),
                }
            )
            .group_by(["event_type", "user_id"])
            .aggregate([])
        )
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(part["user_id"], pa.scalar(NB - 1)),
                    pa.int32(),
                ),
                "event_type": part["event_type"],
                "user_id": part["user_id"],
            }
        )

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        out = d.groupby("event_type", as_index=False).size()
        return pd.DataFrame(
            {"event_type": out["event_type"],
             "n": out["size"].astype(np.int64)}
        )

    partials = (
        ev.map_batches(pairs, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(count_bucket, batch_format="pandas")
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n_users": [np.int64(g["n"].sum())],
            }
        )

    return partials.groupby("event_type").map_groups(
        merge, batch_format="pandas"
    )


SQL_DISTINCT_USERS_BY_TYPE = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


# -- per-key mode (argmax over combinable counts, deterministic ties) ----------


def q_mode_event_type(sf_dir: str):
    """Each user's most frequent event type (ties → lexicographically
    smallest type) — the MODE verb behind per-entity profiling.

    Two additive levels, both pre-aggregated: every block reduces to
    (user, type, partial count) with an arrow ``group_by`` (so the
    shuffle carries ≤ |distinct (user,type)| rows per block, not raw
    events), then users co-bucket by ``user_id & (B-1)`` into ONE
    size-derived ``groupby(bucket)`` whose kernel combines partials
    and picks each user's argmax vectorized: sort by (user, count
    DESC, type ASC), keep the first row per user.  Exact integers and
    a total-order tie-break ⇒ hash-exact at any batch split."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        u = pc.cast(t["user_id"], pa.int64())
        part = (
            pa.table(
                {
                    "user_id": u,
                    "event_type": t["event_type"],
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                }
            )
            .group_by(["user_id", "event_type"])
            .aggregate([("n", "sum")])
        )
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(part["user_id"], pa.scalar(NB - 1)),
                    pa.int32(),
                ),
                "user_id": part["user_id"],
                "event_type": part["event_type"],
                "n": part["n_sum"],
            }
        )

    def pick_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        c = c.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        ).drop_duplicates("user_id")
        return pd.DataFrame(
            {
                "user_id": c["user_id"].to_numpy(np.int64),
                "top_type": c["event_type"].to_numpy(object),
                "n_events": c["n"].to_numpy(np.int64),
            }
        )

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pick_bucket, batch_format="pandas")
    )


SQL_MODE_EVENT_TYPE = """
WITH c AS (
    SELECT user_id, event_type, count(*) AS n
    FROM events GROUP BY user_id, event_type
)
SELECT user_id, event_type AS top_type, n AS n_events
FROM c
QUALIFY row_number() OVER (
    PARTITION BY user_id ORDER BY n DESC, event_type) = 1
"""


# -- event-type co-occurrence matrix (distinct reduce + pair expansion) --------


def q_cooccurrence_types(sf_dir: str):
    """For every unordered pair of event types, how many users did
    BOTH — the co-occurrence-matrix verb behind recommender and
    feature-correlation pipelines (normally a self-join of the
    user×type table with itself).

    No self-join shuffle: blocks first reduce to distinct (user, type)
    pairs locally, users then co-bucket by ``user_id & (B-1)`` into
    ONE size-derived ``groupby(bucket)`` whose kernel finishes the
    distinct and expands each user's tiny type set into pairs with a
    pandas self-merge RESTRICTED to that user (types per user ≤ |type
    alphabet|, so the expansion is O(users·t²), never O(rows²)), and
    pre-counts pairs per bucket.  Buckets partition users, so the
    per-bucket pair counts are disjoint and one final small
    ``groupby(type_a, type_b)`` sums them — additive at every level."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "event_type"])

    def distinct_local(t: pa.Table) -> pa.Table:
        u = pc.cast(t["user_id"], pa.int64())
        d = (
            pa.table({"user_id": u, "event_type": t["event_type"]})
            .group_by(["user_id", "event_type"])
            .aggregate([])
        )
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(d["user_id"], pa.scalar(NB - 1)),
                    pa.int32(),
                ),
                "user_id": d["user_id"],
                "event_type": d["event_type"],
            }
        )

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "event_type"])[
            ["user_id", "event_type"]
        ]
        m = d.merge(d, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] < m["event_type_b"]]
        out = m.groupby(["event_type_a", "event_type_b"],
                        as_index=False).size()
        return pd.DataFrame(
            {
                "type_a": out["event_type_a"].to_numpy(object),
                "type_b": out["event_type_b"].to_numpy(object),
                "n": out["size"].to_numpy(np.int64),
            }
        )

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "type_a": [g["type_a"].iloc[0]],
                "type_b": [g["type_b"].iloc[0]],
                "n_users": [np.int64(g["n"].sum())],
            }
        )

    return (
        ev.map_batches(distinct_local, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_bucket, batch_format="pandas")
        .groupby(["type_a", "type_b"])
        .map_groups(merge_counts, batch_format="pandas")
    )


SQL_COOCCURRENCE_TYPES = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       count(*) AS n_users
FROM d a JOIN d b USING (user_id)
WHERE a.event_type < b.event_type
GROUP BY 1, 2
"""


# -- event-type transition counts (Markov matrix over per-key sequences) -------


def q_event_transitions(sf_dir: str):
    """How often one event type immediately follows another within a
    user's (ts, event_id)-ordered stream, summed over all users — the
    Markov-transition-matrix verb behind sequence mining and next-event
    models.

    Shape = ``q_event_deltas`` plus a count reduce: users co-bucket by
    ``user_id & (B-1)`` into ONE size-derived ``groupby(bucket)``; each
    bucket sorts its own rows once, pairs adjacent events with a
    shifted-array mask (no per-user loop), and PRE-COUNTS its
    (prev, next) pairs — so the final ``groupby(prev, next)`` combines
    ≤ |type alphabet|² rows per bucket, additive integers all the way
    down ⇒ hash-exact at any batch split."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "ts", "event_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        k = pc.cast(t["user_id"], pa.int64())
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(k, pa.scalar(NB - 1)), pa.int32()
                ),
                "user_id": k,
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "event_type": t["event_type"],
            }
        )

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ty = g["event_type"].to_numpy(object)
        if len(g) < 2:
            return pd.DataFrame(
                {
                    "prev_type": pd.Series(dtype=object),
                    "next_type": pd.Series(dtype=object),
                    "n": pd.Series(dtype="int64"),
                }
            )
        same = u[1:] == u[:-1]
        out = (
            pd.DataFrame({"prev_type": ty[:-1][same],
                          "next_type": ty[1:][same]})
            .groupby(["prev_type", "next_type"], as_index=False)
            .size()
        )
        return pd.DataFrame(
            {
                "prev_type": out["prev_type"].to_numpy(object),
                "next_type": out["next_type"].to_numpy(object),
                "n": out["size"].to_numpy(np.int64),
            }
        )

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "prev_type": [g["prev_type"].iloc[0]],
                "next_type": [g["next_type"].iloc[0]],
                "n": [np.int64(g["n"].sum())],
            }
        )

    return (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_bucket, batch_format="pandas")
        .groupby(["prev_type", "next_type"])
        .map_groups(merge_counts, batch_format="pandas")
    )


SQL_EVENT_TRANSITIONS = """
WITH s AS (
    SELECT user_id, event_type,
           lag(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
    FROM events
)
SELECT prev_type, event_type AS next_type, count(*) AS n
FROM s WHERE prev_type IS NOT NULL
GROUP BY 1, 2
"""


# -- activity histogram (aggregate of an aggregate, both additive) -------------


def q_activity_histogram(sf_dir: str):
    """How many users produced exactly N events, for every N — the
    histogram-of-a-groupby verb behind engagement distributions and
    power-law checks.

    Two additive levels with NO raw-row shuffle: blocks pre-count per
    user locally (arrow ``group_by``), one size-derived
    ``groupby(bucket)`` combines each user's partials (buckets
    partition users, so per-bucket histograms are disjoint) and
    pre-counts its users per N; the final ``groupby(n_events)`` sums
    ≤ |distinct N| rows per bucket."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        u = pc.cast(t["user_id"], pa.int64())
        part = (
            pa.table({"user_id": u,
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
            .group_by("user_id")
            .aggregate([("n", "sum")])
        )
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(part["user_id"], pa.scalar(NB - 1)),
                    pa.int32(),
                ),
                "user_id": part["user_id"],
                "n": part["n_sum"],
            }
        )

    def hist_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per_user = g.groupby("user_id", as_index=False)["n"].sum()
        out = per_user.groupby("n", as_index=False).size()
        return pd.DataFrame(
            {
                "n_events": out["n"].to_numpy(np.int64),
                "c": out["size"].to_numpy(np.int64),
            }
        )

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_events": [np.int64(g["n_events"].iloc[0])],
                "n_users": [np.int64(g["c"].sum())],
            }
        )

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(hist_bucket, batch_format="pandas")
        .groupby("n_events")
        .map_groups(merge_counts, batch_format="pandas")
    )


SQL_ACTIVITY_HISTOGRAM = """
WITH c AS (SELECT user_id, count(*) AS n_events FROM events GROUP BY user_id)
SELECT n_events, count(*) AS n_users FROM c GROUP BY n_events
"""


# -- cohort retention matrix (first-touch cohort × active-period counts) -------


def q_cohort_retention(sf_dir: str):
    """Cohort retention: users are assigned to the calendar month of
    their FIRST event (their cohort) and counted once in every month
    they were active — the cohort × period matrix behind every
    retention curve.

    Shape: blocks reduce to DISTINCT ``(user_id, month)`` partials
    (arrow ``group_by`` — per-block dedup before any shuffle); ONE
    size-derived ``groupby(bucket)`` co-locates each user's months
    (bucket = ``user_id & (B-1)``), where the cohort is simply the
    lexicographic MIN month (``%Y-%m`` sorts chronologically) and the
    bucket pre-counts its (cohort, month) pairs; the final
    ``groupby(cohort_month, active_month)`` sums ≤ |months|² rows per
    bucket.  Additive integers end to end ⇒ hash-exact at any split."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "ts"])

    def distinct_months(t: pa.Table) -> pa.Table:
        part = (
            pa.table(
                {
                    "user_id": pc.cast(t["user_id"], pa.int64()),
                    "ym": pc.strftime(t["ts"], format="%Y-%m"),
                }
            )
            .group_by(["user_id", "ym"])
            .aggregate([])
        )
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(part["user_id"], pa.scalar(NB - 1)),
                    pa.int32(),
                ),
                "user_id": part["user_id"],
                "ym": part["ym"],
            }
        )

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "ym"])
        cohort = d.groupby("user_id")["ym"].min().rename("cohort_month")
        out = (
            d.join(cohort, on="user_id")
            .groupby(["cohort_month", "ym"], as_index=False)
            .size()
        )
        return pd.DataFrame(
            {
                "cohort_month": out["cohort_month"].to_numpy(object),
                "active_month": out["ym"].to_numpy(object),
                "n": out["size"].to_numpy(np.int64),
            }
        )

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "cohort_month": [g["cohort_month"].iloc[0]],
                "active_month": [g["active_month"].iloc[0]],
                "n_users": [np.int64(g["n"].sum())],
            }
        )

    return (
        ev.map_batches(distinct_months, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_bucket, batch_format="pandas")
        .groupby(["cohort_month", "active_month"])
        .map_groups(merge_counts, batch_format="pandas")
    )


SQL_COHORT_RETENTION = """
WITH a AS (
    SELECT DISTINCT user_id, strftime(ts, '%Y-%m') AS active_month
    FROM events
),
f AS (
    SELECT user_id, min(active_month) AS cohort_month FROM a GROUP BY user_id
)
SELECT f.cohort_month, a.active_month, count(*) AS n_users
FROM a JOIN f USING (user_id)
GROUP BY 1, 2
"""


# -- gaps-and-islands (consecutive-day activity streaks per user) --------------


def q_user_streaks(sf_dir: str):
    """Consecutive-day activity streaks: each user's distinct active
    days collapse into maximal runs of adjacent days (one row per
    "island": start, end, length) — the gaps-and-islands verb behind
    streak features and uptime/session-coverage reports.

    Shape: blocks reduce to DISTINCT ``(user_id, epoch-day)`` integer
    partials; ONE size-derived ``groupby(bucket)`` co-locates each
    user's days (buckets partition users, so no island can span two
    groups), and the in-bucket pass is a sort + ONE vectorized
    boundary mask (``user changed OR day-gap ≠ 1``) + cumsum island
    ids + a tiny groupby — no per-user loop.  Day keys ride as int64
    epoch days; the ISO strings are rendered only on the final ≤
    |islands| rows."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "ts"])

    def distinct_days(t: pa.Table) -> pa.Table:
        day = pc.divide(
            pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.int64()),
            pa.scalar(86_400_000_000),
        )
        part = (
            pa.table(
                {"user_id": pc.cast(t["user_id"], pa.int64()), "day": day}
            )
            .group_by(["user_id", "day"])
            .aggregate([])
        )
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(part["user_id"], pa.scalar(NB - 1)),
                    pa.int32(),
                ),
                "user_id": part["user_id"],
                "day": part["day"],
            }
        )

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"]
        )
        u = d["user_id"].to_numpy(np.int64)
        day = d["day"].to_numpy(np.int64)
        new = np.concatenate(
            [[True], (u[1:] != u[:-1]) | (day[1:] - day[:-1] != 1)]
        )
        isl = np.cumsum(new) - 1
        out = (
            pd.DataFrame({"user_id": u, "day": day, "isl": isl})
            .groupby("isl")
            .agg(
                user_id=("user_id", "first"),
                lo=("day", "min"),
                hi=("day", "max"),
                n_days=("day", "size"),
            )
        )

        def iso(days: np.ndarray) -> np.ndarray:
            return np.datetime_as_string(
                days.astype("datetime64[D]"), unit="D"
            ).astype(object)

        return pd.DataFrame(
            {
                "user_id": out["user_id"].to_numpy(np.int64),
                "start_day": iso(out["lo"].to_numpy(np.int64)),
                "end_day": iso(out["hi"].to_numpy(np.int64)),
                "n_days": out["n_days"].to_numpy(np.int64),
            }
        )

    return (
        ev.map_batches(distinct_days, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(islands, batch_format="pandas")
    )


SQL_USER_STREAKS = """
WITH d AS (
    SELECT DISTINCT user_id, CAST(ts AS DATE) AS day FROM events
),
r AS (
    SELECT user_id, day,
           row_number() OVER (PARTITION BY user_id ORDER BY day) AS rn
    FROM d
)
SELECT user_id,
       strftime(min(day), '%Y-%m-%d') AS start_day,
       strftime(max(day), '%Y-%m-%d') AS end_day,
       count(*) AS n_days
FROM r GROUP BY user_id, day - CAST(rn AS INTEGER)
"""


# -- sliding-window DISTINCT count (interval-union diff array) -----------------

SLIDE_HOURS = 24  # window length: anchor hour h covers [h-23, h]


def q_sliding_distinct_users(sf_dir: str):
    """Distinct users per sliding 24-hour window (one window anchored
    at every hour between the first and last active hour) — the
    sliding-DAU verb.  Unlike a sliding SUM, distinct counts canNOT be
    combined from tumbling partials (a user active in 3 hours of one
    window still counts once), which is what makes this its own verb.

    Shape: blocks reduce to DISTINCT ``(user_id, hour)`` partials; ONE
    size-derived ``groupby(bucket)`` co-locates each user's hours,
    where a user's covered anchors form the interval union of
    ``[h, h+23]`` per active hour — merged with one vectorized
    boundary mask (gap > 23 starts a new island) and emitted as a
    ±1 DIFF ARRAY (2 rows per island, pre-summed per bucket), never
    as per-anchor rows (a 24× blowup at scale); the finish is a
    single prefix-sum over the ≤ |hours|·2 merged deltas.  The global
    anchor domain [min hour, max hour] comes from a scalar aggregate
    on the same materialized pair set."""
    from ray.data.aggregate import Max, Min

    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "ts"])

    def distinct_hours(t: pa.Table) -> pa.Table:
        hr = pc.divide(
            pc.cast(pc.floor_temporal(t["ts"], unit="hour"), pa.int64()),
            pa.scalar(3_600_000_000),
        )
        part = (
            pa.table(
                {"user_id": pc.cast(t["user_id"], pa.int64()), "hr": hr}
            )
            .group_by(["user_id", "hr"])
            .aggregate([])
        )
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(part["user_id"], pa.scalar(NB - 1)),
                    pa.int32(),
                ),
                "user_id": part["user_id"],
                "hr": part["hr"],
            }
        )

    pairs = ev.map_batches(
        distinct_hours, batch_format="pyarrow"
    ).materialize()
    bounds = pairs.aggregate(Min("hr"), Max("hr"))
    if not bounds or bounds.get("min(hr)") is None:
        # empty events table: the oracle's window join yields no rows —
        # return a TYPED empty pandas frame (Ray's to_pandas() on a
        # zero-row Dataset drops all columns) instead of int(None)
        return pd.DataFrame(
            {
                "anchor_hr": pd.Series(dtype=object),
                "n_users": pd.Series(dtype="int64"),
            }
        )
    lo_hr, hi_hr = int(bounds["min(hr)"]), int(bounds["max(hr)"])

    def deltas(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "hr"]).sort_values(
            ["user_id", "hr"]
        )
        u = d["user_id"].to_numpy(np.int64)
        h = d["hr"].to_numpy(np.int64)
        new = np.concatenate(
            [[True],
             (u[1:] != u[:-1]) | (h[1:] - h[:-1] > SLIDE_HOURS - 1)]
        )
        isl = np.cumsum(new) - 1
        starts = h[new]  # first hour of each island ⇒ anchors from here
        last = np.concatenate([new[1:], [True]])
        ends = h[last] + SLIDE_HOURS - 1  # last covered anchor
        out = (
            pd.DataFrame(
                {
                    "hr": np.concatenate([starts, ends + 1]),
                    "delta": np.concatenate(
                        [np.ones(len(starts), np.int64),
                         -np.ones(len(ends), np.int64)]
                    ),
                }
            )
            .groupby("hr", as_index=False)["delta"]
            .sum()
        )
        return out[out["delta"] != 0]

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby("hr", as_index=False)["delta"].sum()
        df = df.sort_values("hr")
        hrs = df["hr"].to_numpy(np.int64)
        run = np.cumsum(df["delta"].to_numpy(np.int64))
        # expand the step function over [lo_hr, hi_hr], drop zeros (the
        # SQL inner join has no row for an empty window)
        anchors = np.arange(lo_hr, hi_hr + 1, dtype=np.int64)
        counts = run[
            np.clip(np.searchsorted(hrs, anchors, side="right") - 1,
                    0, len(hrs) - 1)
        ]
        counts = np.where(anchors < hrs[0], 0, counts)
        keep = counts > 0
        ts = (anchors[keep] * 3600).astype("datetime64[s]")
        return pa.table(
            {
                "anchor_hr": pa.array(
                    np.datetime_as_string(ts, unit="s")
                    .astype(object),
                ).cast(pa.string()),
                "n_users": pa.array(counts[keep], pa.int64()),
            }
        )

    return (
        pairs.groupby("bucket")
        .map_groups(deltas, batch_format="pandas")
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


SQL_SLIDING_DISTINCT_USERS = f"""
WITH h AS (
    SELECT DISTINCT user_id, date_trunc('hour', ts) AS hr FROM events
),
b AS (SELECT min(hr) AS lo, max(hr) AS hi FROM h),
w AS (
    SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS anchor
    FROM b
)
SELECT strftime(w.anchor, '%Y-%m-%dT%H:%M:%S') AS anchor_hr,
       count(DISTINCT e.user_id) AS n_users
FROM w JOIN h e
  ON e.hr BETWEEN w.anchor - INTERVAL {SLIDE_HOURS - 1} HOUR AND w.anchor
GROUP BY 1
"""


# -- time-weighted mean (step-function integral per key) -----------------------


def q_time_weighted_value(sf_dir: str):
    """Per-user TIME-weighted mean of `value`: each event's value holds
    until the user's next event, so the mean weights by holding
    duration, not by event count — the step-function-integral verb
    behind billing meters, position-weighted P&L and sensor rollups
    (a plain AVG over-counts bursts).

    Shape = ``q_event_deltas``: users co-bucket by ``user_id & (B-1)``
    into ONE size-derived ``groupby(bucket)``; each bucket sorts once,
    pairs each event with its successor via a shifted mask (no per-user
    loop), and reduces to per-user integer sums.  Exactness: value in
    micro-units × duration in whole SECONDS (the µs→s truncation is
    floor on both engines — epochs are non-negative), numerator ≤
    5·10⁸·Δspan_s ⇒ int64 holds ~600-year spans; the final division
    TRUNCATES toward zero on both engines — DuckDB's ``//`` truncates
    while numpy's floors, so the kernel divides sign-magnitude
    (``sign(num) · (|num| // dur)``), exact for any value sign.  Users
    with
    no successor pair (single event) have zero observed duration and
    drop, mirroring the SQL's NOT NULL lead filter."""
    NB = bucket_count(parquet_rows(f"{sf_dir}/events.parquet"))
    ev = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def tag(t: pa.Table) -> pa.Table:
        k = pc.cast(t["user_id"], pa.int64())
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(k, pa.scalar(NB - 1)), pa.int32()
                ),
                "user_id": k,
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "v_micro": pc.cast(
                    pc.round(pc.multiply(t["value"], 1_000_000.0)),
                    pa.int64(),
                ),
            }
        )

    def twa_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        t_s = g["ts_us"].to_numpy(np.int64) // 1_000_000
        v = g["v_micro"].to_numpy(np.int64)
        if len(g) < 2:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "twa_micro": pd.Series(dtype="int64"),
                    "dur_s": pd.Series(dtype="int64"),
                }
            )
        same = u[1:] == u[:-1]
        dt = (t_s[1:] - t_s[:-1])[same]
        agg = (
            pd.DataFrame(
                {"user_id": u[:-1][same], "num": v[:-1][same] * dt,
                 "dur_s": dt}
            )
            .groupby("user_id", as_index=False)
            .sum()
        )
        dur = agg["dur_s"].to_numpy(np.int64)
        num = agg["num"].to_numpy(np.int64)
        # DuckDB // truncates toward zero; numpy // floors — divide
        # sign-magnitude so a negative weighted sum matches the oracle
        q = np.sign(num) * (np.abs(num) // np.maximum(dur, 1))
        return pd.DataFrame(
            {
                "user_id": agg["user_id"].to_numpy(np.int64),
                "twa_micro": np.where(dur > 0, q, 0).astype(np.int64),
                "dur_s": dur,
            }
        )

    return (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(twa_bucket, batch_format="pandas")
    )


SQL_TIME_WEIGHTED_VALUE = """
WITH s AS (
    SELECT user_id,
           CAST(round(value * 1000000) AS BIGINT) AS v_micro,
           epoch_us(ts) // 1000000 AS t_s,
           lead(epoch_us(ts) // 1000000) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS nxt_s
    FROM events
)
SELECT user_id,
       CAST(CASE WHEN sum(nxt_s - t_s) > 0
                 THEN sum(v_micro * (nxt_s - t_s)) // sum(nxt_s - t_s)
                 ELSE 0 END AS BIGINT) AS twa_micro,
       CAST(sum(nxt_s - t_s) AS BIGINT) AS dur_s
FROM s WHERE nxt_s IS NOT NULL
GROUP BY user_id
"""


# -- daily new-user acquisition curve (first-touch attribution) ---------------


def q_new_users_daily(sf_dir: str):
    """New users per calendar day (the day of each user's FIRST event)
    plus the running cumulative total — the acquisition curve every
    growth dashboard starts from.

    Shape: each block pre-reduces to (user → min ts) with one arrow
    ``group_by`` (≤ users-in-block rows leave the block), a
    ``groupby(user_id).min`` merges the partials — the only shuffle,
    keyed on user exactly like `q_keep_latest` — then first-days
    re-reduce per block to a ≤ |days| histogram and the driver merges
    domain-bounded (day, count) partials and takes the cumulative sum
    over the sorted ≤ |days| rows.  Nothing driver-side grows with the
    user count."""
    from ray.data.aggregate import Min

    ev = _events(sf_dir, ["user_id", "ts"])

    def first_partial(t: pa.Table) -> pa.Table:
        return (
            pa.table({"user_id": t["user_id"], "ts": t["ts"]})
            .group_by("user_id")
            .aggregate([("ts", "min")])
            .rename_columns(["user_id", "ts"])
        )

    firsts = (
        ev.map_batches(first_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("ts", alias_name="first_ts"))
    )

    def day_partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["first_ts"], unit="day")
        return (
            pa.table(
                {
                    "day": day,
                    "c": pa.array(np.ones(t.num_rows, np.int64)),
                }
            )
            .group_by("day")
            .aggregate([("c", "sum")])
            .rename_columns(["day", "c"])
        )

    # ≤ blocks × |days| partial rows; |days| is domain-bounded (the
    # table's time extent), so the driver merge is O(days)
    pdf = (
        firsts.map_batches(day_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("day", as_index=False)["c"]
        .sum()
        .sort_values("day")
    )
    cum = pdf["c"].to_numpy(np.int64).cumsum()
    return pa.table(
        {
            "day": pa.array(pdf["day"], pa.timestamp("us")),
            "new_users": pa.array(pdf["c"].to_numpy(np.int64), pa.int64()),
            "cum_users": pa.array(cum, pa.int64()),
        }
    )


SQL_NEW_USERS_DAILY = """
WITH f AS (SELECT user_id, min(ts) AS first_ts FROM events GROUP BY user_id),
d AS (SELECT CAST(date_trunc('day', first_ts) AS TIMESTAMP) AS day,
             count(*) AS new_users
      FROM f GROUP BY 1)
SELECT day, new_users,
       CAST(sum(new_users) OVER (ORDER BY day) AS BIGINT) AS cum_users
FROM d
"""
