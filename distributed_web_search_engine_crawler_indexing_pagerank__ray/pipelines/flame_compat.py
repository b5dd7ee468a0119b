"""Flame-operator compatibility layer (SURVEY §2.1 #1–#25).

The reference's generic dataflow API is ``FlameRDD`` (a table of
strings) and ``FlamePairRDD`` (string pairs), executed as HTTP fan-out
over KVS tables (``src/flame/FlameRDDImpl.java`` /
``FlamePairRDDImpl.java`` / ``Worker.java``).  This module gives a user
of that API the same 25 operations over ``ray.data`` so existing job
logic ports mechanically, while each operator body is the idiomatic Ray
shape (map_batches / groupby / broadcast) rather than a translation of
the KVS machinery.

Element model: an RDD is a Dataset with a single ``value: string``
column; a PairRDD is a Dataset with ``key: string, value: string``
columns (the reference's entire type system, SURVEY §1.2).

Per-operator semantics notes (exactness vs the reference):
- ``filter`` keys output rows by ``hash(value)`` in the reference, so
  equal values collapse — reproduced via ``distinct_values`` after the
  predicate (#8).
- ``distinct`` collapses by value (#10) — ``groupby(value)``.
- ``intersection`` loads the whole other table per worker (#11) —
  broadcast semi-join here.
- ``sample`` is nondeterministic in the reference (#12); here seeded.
- ``fold`` merges per-partition accumulators in partition order (#14);
  Ray: per-batch partials + driver-side combine in block order.
- ``pair.join`` (#22) is an index-nested-loop inner equi-join producing
  the cross product of both sides' values per key, joined with ','.
- ``pair.saveAsTable`` (#23) collapses multiple values per key to the
  last write; our deterministic order = sorted(value), last wins.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable

import pandas as pd
import pyarrow as pa
import ray
import ray.data


def _strings_ds(values: Iterable[str]):
    return ray.data.from_arrow(
        pa.table({"value": pa.array(list(values), pa.string())})
    )


# -- context operators (#1–#3) ----------------------------------------------


def parallelize(values: list[str]):
    """#1 ``context.parallelize`` (FlameContextImpl.java:39-57)."""
    return _strings_ds(values)


def parallelize_to_pt(values: list[str], path: str):
    """#2 durable variant: write the parallelized list as parquet."""
    ds = _strings_ds(values)
    ds.write_parquet(path)
    return ds


def from_table(ds, project: Callable[[dict], str | None]):
    """#3 ``context.fromTable`` — project rows to strings, drop nulls
    (FlameContextImpl.java:428-443)."""

    def fn(batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            v = project(row)
            if v is not None:
                out.append(v)
        return pa.table({"value": pa.array(out, pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


# -- RDD operators (#4–#18) --------------------------------------------------


def flat_map(ds, fn: Callable[[str], Iterable[str]]):
    """#4 (Worker.java:48-110)."""

    def body(batch: pa.Table) -> pa.Table:
        out = []
        for v in batch["value"].to_pylist():
            out.extend(fn(v))
        return pa.table({"value": pa.array(out, pa.string())})

    return ds.map_batches(body, batch_format="pyarrow")


def map_to_pair(ds, fn: Callable[[str], tuple[str, str] | None]):
    """#6 (Worker.java:150-211)."""

    def body(batch: pa.Table) -> pa.Table:
        ks, vs = [], []
        for v in batch["value"].to_pylist():
            p = fn(v)
            if p is not None:
                ks.append(p[0])
                vs.append(p[1])
        return pa.table(
            {"key": pa.array(ks, pa.string()), "value": pa.array(vs, pa.string())}
        )

    return ds.map_batches(body, batch_format="pyarrow")


def flat_map_to_pair(ds, fn: Callable[[str], Iterable[tuple[str, str]]]):
    """#7 (Worker.java:501-566)."""

    def body(batch: pa.Table) -> pa.Table:
        ks, vs = [], []
        for v in batch["value"].to_pylist():
            for k, val in fn(v):
                ks.append(k)
                vs.append(val)
        return pa.table(
            {"key": pa.array(ks, pa.string()), "value": pa.array(vs, pa.string())}
        )

    return ds.map_batches(body, batch_format="pyarrow")


def filter_rdd(ds, pred: Callable[[str], bool]):
    """#8 — keep matching values; the reference keys output by
    hash(value), implicitly deduplicating equal values
    (Worker.java:892-941)."""

    def body(batch: pa.Table) -> pa.Table:
        out = [v for v in batch["value"].to_pylist() if pred(v)]
        return pa.table({"value": pa.array(out, pa.string())})

    return distinct(ds.map_batches(body, batch_format="pyarrow"))


def distinct(ds):
    """#10 (Worker.java:708-754): value-keyed collapse."""

    def first(g: pd.DataFrame) -> pd.DataFrame:
        return g.head(1)

    return ds.groupby("value").map_groups(first, batch_format="pandas")


def intersection(ds, other):
    """#11 (Worker.java:295-355): broadcast-small-side semi-join with
    value dedup.

    COMPAT-ONLY SCALE WARNING: like the reference (which loads the
    whole other table into a HashSet per worker), this materializes
    ``other``'s distinct values on the driver and broadcasts them —
    faithful to Flame semantics and fine for compat tests, but the
    idiomatic large-scale path is ``relational.q_intersection`` (and a
    bucketed co-group when BOTH sides are large)."""
    other_values = set(other.unique("value"))
    ref = ray.put(other_values)

    def body(batch: pa.Table) -> pa.Table:
        keep = ray.get(ref)
        out = sorted({v for v in batch["value"].to_pylist() if v in keep})
        return pa.table({"value": pa.array(out, pa.string())})

    return distinct(ds.map_batches(body, batch_format="pyarrow"))


def sample(ds, fraction: float, seed: int = 42):
    """#12 (Worker.java:357-397) — made deterministic: keep rows whose
    md5(value, seed) falls under fraction·2^32."""
    threshold = int(fraction * (1 << 32))

    def body(batch: pa.Table) -> pa.Table:
        out = [
            v
            for v in batch["value"].to_pylist()
            if int(
                hashlib.md5(f"{seed}:{v}".encode()).hexdigest()[:8], 16
            ) < threshold
        ]
        return pa.table({"value": pa.array(out, pa.string())})

    return ds.map_batches(body, batch_format="pyarrow")


def group_by(ds, key_fn: Callable[[str], str]):
    """#13 (Worker.java:399-442): key → comma-joined sorted members
    (the reference stores one column per member; deterministic order
    here)."""
    pairs = map_to_pair(ds, lambda v: (key_fn(v), v))

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": [g["key"].iloc[0]],
                "value": [",".join(sorted(g["value"]))],
            }
        )

    return pairs.groupby("key").map_groups(agg, batch_format="pandas")


def fold(ds, zero: str, fn: Callable[[str, str], str]) -> str:
    """#14 (Worker.java:756-806): per-partition fold then driver merge
    in partition order."""
    def body(batch: pa.Table) -> pa.Table:
        acc = zero
        for v in batch["value"].to_pylist():
            acc = fn(acc, v)
        return pa.table({"value": pa.array([acc], pa.string())})

    partials = [
        v
        for b in ds.map_batches(body, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
        for v in b["value"].to_pylist()
    ]
    acc = zero
    for p in partials:
        acc = fn(acc, p)
    return acc


def count(ds) -> int:
    """#15."""
    return ds.count()


def collect(ds) -> list[str]:
    """#16.

    COMPAT-ONLY SCALE WARNING: ``take_all`` materializes the dataset on
    the driver — the Flame ``collect`` contract.  Pipelines must
    consume with ``iter_batches``/``write_parquet``/aggregates
    instead."""
    return [r["value"] for r in ds.take_all()]


def take(ds, n: int) -> list[str]:
    """#17 — first n in scan order."""
    return [r["value"] for r in ds.take(n)]


def save_as_table(ds, path: str):
    """#18 — durable write; 'rename' is an atomic directory swap in the
    parquet layout (FlameRDDImpl.java:152-157 mapping)."""
    ds.write_parquet(path)
    return path


# -- PairRDD operators (#19–#25) ---------------------------------------------


def fold_by_key(pairs, zero: str, fn: Callable[[str, str], str]):
    """#19 (Worker.java:213-293): deterministic fold order = sorted
    values (reference order is column arrival — nondeterministic)."""

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        acc = zero
        for v in sorted(g["value"]):
            acc = fn(acc, v)
        return pd.DataFrame({"key": [g["key"].iloc[0]], "value": [acc]})

    return pairs.groupby("key").map_groups(agg, batch_format="pandas")


def pair_flat_map(pairs, fn: Callable[[str, str], Iterable[str]]):
    """#20."""

    def body(batch: pa.Table) -> pa.Table:
        out = []
        for k, v in zip(batch["key"].to_pylist(), batch["value"].to_pylist()):
            out.extend(fn(k, v))
        return pa.table({"value": pa.array(out, pa.string())})

    return pairs.map_batches(body, batch_format="pyarrow")


def pair_flat_map_to_pair(pairs, fn: Callable[[str, str], Iterable[tuple[str, str]]]):
    """#21."""

    def body(batch: pa.Table) -> pa.Table:
        ks, vs = [], []
        for k, v in zip(batch["key"].to_pylist(), batch["value"].to_pylist()):
            for k2, v2 in fn(k, v):
                ks.append(k2)
                vs.append(v2)
        return pa.table(
            {"key": pa.array(ks, pa.string()), "value": pa.array(vs, pa.string())}
        )

    return pairs.map_batches(body, batch_format="pyarrow")


def join(pairs, other):
    """#22 (Worker.java:808-890): inner equi-join, cross product of
    both sides' values per key, ``v1 + "," + v2``.  Implemented as a
    broadcast hash join on the (small) right side — the reference does
    per-key point lookups into the other table, i.e. the same
    small-side assumption."""
    right: dict[str, list[str]] = {}
    for r in other.take_all():
        right.setdefault(r["key"], []).append(r["value"])
    ref = ray.put({k: sorted(v) for k, v in right.items()})

    def body(batch: pa.Table) -> pa.Table:
        rv = ray.get(ref)
        ks, vs = [], []
        for k, v in zip(batch["key"].to_pylist(), batch["value"].to_pylist()):
            for v2 in rv.get(k, []):
                ks.append(k)
                vs.append(v + "," + v2)
        return pa.table(
            {"key": pa.array(ks, pa.string()), "value": pa.array(vs, pa.string())}
        )

    return pairs.map_batches(body, batch_format="pyarrow")


def pair_save_as_table(pairs, path: str):
    """#23: multiple values per key collapse to the last write —
    deterministic order = sorted(value), so max(value) survives."""

    def last(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"key": [g["key"].iloc[0]], "value": [sorted(g["value"])[-1]]}
        )

    out = pairs.groupby("key").map_groups(last, batch_format="pandas")
    out.write_parquet(path)
    return path


def pair_collect(pairs) -> list[tuple[str, str]]:
    """#25."""
    return [(r["key"], r["value"]) for r in pairs.take_all()]
