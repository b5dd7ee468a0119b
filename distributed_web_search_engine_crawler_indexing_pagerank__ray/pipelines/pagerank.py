"""PageRank job (reference PageRank, SURVEY §2.5 P1–P9).

Reference semantics kept exactly: vertices = crawled pages; per-page
out-links ≤30 (first-found, self-excluded, PageRank's *own* URL
normalizer — ``pagerank_normalize_url``, NOT the crawler's);
contributions scatter to DISTINCT dest hashes (including non-vertex
dests, whose mass leaks — ``PageRank.java:325-379``); dangling mass
redistributed; ``new = (1-d)/N + d·inbound + d·danglingSum/N``;
residual = max|Δ| < 0.001, ≤20 iterations.

Ray-native execution replaces the reference's sequential
coordinator-side rank update (``PageRank.java:294-322``, the driver
bottleneck) with:

- graph build: one ``map_batches`` pass over page rows → metadata +
  edge pairs with dense vertex ids.  Id mapping is a vectorized
  ``np.searchsorted`` against the sorted vertex-key array shared
  through the object store (``ray.put`` of a numpy array is a
  ZERO-COPY read per node — no per-task dict deserialization);
- per iteration: ONE fused Dataset execution — ``map_batches`` over
  edge blocks emits SPARSE (dst, partial_sum) pairs (sort+reduceat
  local combine, memory O(E/block) — never a dense length-V array),
  ``groupby(dst).sum`` is the shuffle (SURVEY §2.5 P5), and the driver
  applies the O(V) vectorized rank update + residual check.  Dangling
  mass rides the same shuffle as dst = -2 rows.

Scale limit: the driver holds the O(V) rank vector and sorted key
array (8–80 B/vertex — the same order as the reference's coordinator
state), so the graph size is bounded by one process's memory: about
10^9 vertices on a large driver.  Only the update is O(V) on the driver;
the gather stays sparse and distributed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.hasher import ref_hash
from ..functions.html import extract_links_pagerank, extract_title, generate_snippet
from ..oracle.downstream_oracle import (
    CONVERGENCE,
    DAMPING,
    MAX_HTML_BYTES,
    MAX_ITERATIONS,
)

PAGERANK_SCHEMA = pa.schema(
    [
        ("url_hash", pa.string()),
        ("url", pa.string()),
        ("title", pa.string()),
        ("snippet", pa.string()),
        ("pagerank", pa.float64()),
    ]
)


def _graph_batch(batch: pa.Table) -> pa.Table:
    """page row → metadata + distinct out-dest hashes (P1)."""
    hashes, urls, titles, snippets, dests = [], [], [], [], []
    for url, url_hash, page in zip(
        batch["url"].to_pylist(),
        batch["url_hash"].to_pylist(),
        batch["page"].to_pylist(),
    ):
        html = (page or b"")[:MAX_HTML_BYTES].decode("utf-8", errors="replace")
        title = extract_title(html) or url
        snippet = generate_snippet(html)
        links = extract_links_pagerank(url, html)
        seen: set[str] = set()
        dd: list[str] = []
        for link in links:
            dh = ref_hash(link)
            if dh not in seen:
                seen.add(dh)
                dd.append(dh)
        hashes.append(url_hash)
        urls.append(url)
        titles.append(title)
        snippets.append(snippet)
        dests.append(dd)
    return pa.table(
        {
            "url_hash": pa.array(hashes, pa.string()),
            "url": pa.array(urls, pa.string()),
            "title": pa.array(titles, pa.string()),
            "snippet": pa.array(snippets, pa.string()),
            "dests": pa.array(dests, pa.list_(pa.string())),
        }
    )


def _vertex_keys(graph) -> np.ndarray:
    """Sorted vertex-key array: vertex id = searchsorted rank.  The only
    per-vertex driver state is this key array + the rank/outdeg vectors
    (O(V) — the coordinator floor; see module docstring)."""
    key_parts = [
        b["url_hash"].to_numpy(zero_copy_only=False)
        for b in graph.select_columns(["url_hash"]).iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    ]
    if not key_parts:
        return np.zeros(0, dtype=object)
    return np.sort(np.concatenate(key_parts))


def _build_edges(graph, vkeys_ref, n: int):
    """Sparse edge pairs per block, ids resolved by vectorized
    searchsorted against the shared key array.
    dst = -1: non-vertex dest (mass leaks, reference behavior);
    dst = -2: dangling-source sentinel row (rank → dangling sum)."""

    def edges_batch(t: pa.Table) -> pa.Table:
        keys = ray.get(vkeys_ref)
        src_h = t["url_hash"].to_numpy(zero_copy_only=False)
        sid = np.searchsorted(keys, src_h).astype(np.int64)
        dests = t["dests"].combine_chunks()
        flat = dests.flatten().to_numpy(zero_copy_only=False)
        counts = np.asarray(dests.value_lengths(), dtype=np.int64)
        src_rep = np.repeat(sid, counts)
        if len(flat):
            pos = np.searchsorted(keys, flat)
            pos_c = np.clip(pos, 0, n - 1)
            did = np.where(keys[pos_c] == flat, pos_c, -1).astype(np.int64)
        else:
            did = np.zeros(0, dtype=np.int64)
        dang = sid[counts == 0]
        return pa.table(
            {
                "src": pa.array(np.concatenate([src_rep, dang]), pa.int64()),
                "dst": pa.array(
                    np.concatenate([did, np.full(len(dang), -2, np.int64)]),
                    pa.int64(),
                ),
                "outdeg": pa.array(
                    np.concatenate(
                        [np.repeat(counts, counts), np.zeros(len(dang), np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )

    return graph.map_batches(edges_batch, batch_format="pyarrow").materialize()


def _one_iteration(edges, ranks: np.ndarray, n: int, damping: float):
    """One scatter/gather round; returns (new_ranks, residual)."""
    from ray.data.aggregate import Sum

    ranks_ref = ray.put(ranks)  # float64 numpy: zero-copy per node

    def partial(t: pa.Table) -> pa.Table:
            """edge block → SPARSE (dst, partial) pairs: local sort +
            reduceat combine, O(E/block) memory — the partial/combiner
            before the groupby(dst) shuffle.  Dangling mass is emitted
            through the same shuffle as dst = -2."""
            r = ray.get(ranks_ref)
            src = t["src"].to_numpy()
            dst = t["dst"].to_numpy()
            od = t["outdeg"].to_numpy()
            out_d: list[np.ndarray] = []
            out_p: list[np.ndarray] = []
            dangle_mask = dst == -2
            if dangle_mask.any():
                out_d.append(np.array([-2], np.int64))
                out_p.append(np.array([float(r[src[dangle_mask]].sum())]))
            edge_mask = dst >= 0  # dst == -1: counted in outdeg, no scatter
            if edge_mask.any():
                d = dst[edge_mask]
                c = r[src[edge_mask]] / od[edge_mask]
                order = np.argsort(d, kind="stable")
                ds_, cs = d[order], c[order]
                uniq, idx = np.unique(ds_, return_index=True)
                out_d.append(uniq)
                out_p.append(np.add.reduceat(cs, idx))
            if not out_d:
                return pa.table(
                    {"dst": pa.array([], pa.int64()),
                     "partial": pa.array([], pa.float64())}
                )
            return pa.table(
                {
                    "dst": pa.array(np.concatenate(out_d), pa.int64()),
                    "partial": pa.array(np.concatenate(out_p), pa.float64()),
                }
            )

    gathered = (
        edges.map_batches(partial, batch_format="pyarrow")
        .groupby("dst")
        .aggregate(Sum("partial", alias_name="inbound"))
    )
    contrib = np.zeros(n)
    dangling = 0.0
    for t in gathered.iter_batches(batch_format="pyarrow", batch_size=None):
        d = t["dst"].to_numpy()
        s = t["inbound"].to_numpy()
        dm = d == -2
        if dm.any():
            dangling += float(s[dm].sum())
        vm = d >= 0
        contrib[d[vm]] = s[vm]
    new = (1.0 - damping) / n + damping * contrib + damping * dangling / n
    residual = float(np.max(np.abs(new - ranks))) if n else 0.0
    return new, residual


def _project_ranks(graph, vkeys_ref, ranks: np.ndarray) -> pa.Table:
    """Final projection: ranks shared back to the graph rows (this is
    the result table the caller persists)."""
    final_ref = ray.put(ranks)

    def project(t: pa.Table) -> pa.Table:
        keys = ray.get(vkeys_ref)
        r = ray.get(final_ref)
        ids = np.searchsorted(keys, t["url_hash"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "url_hash": t["url_hash"],
                "url": t["url"],
                "title": t["title"],
                "snippet": t["snippet"],
                "pagerank": pa.array(r[ids], pa.float64()),
            }
        )

    parts = list(
        graph.map_batches(project, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return pa.concat_tables(parts).cast(PAGERANK_SCHEMA)


def build_graph(pages):
    """pages (Dataset or Table) → materialized graph Dataset (P1)."""
    if isinstance(pages, pa.Table):
        ds = ray.data.from_arrow(pages.select(["url", "url_hash", "page"]))
    else:
        ds = pages
    return ds.map_batches(_graph_batch, batch_format="pyarrow").materialize()


def run_pagerank(pages, damping: float = DAMPING,
                 max_iterations: int = MAX_ITERATIONS,
                 convergence: float = CONVERGENCE,
                 init_ranks: np.ndarray | None = None,
                 start_iteration: int = 0,
                 on_iteration=None,
                 graph=None) -> pa.Table:
    """pages: Dataset or Table of crawl page rows → pt-pageranks table.

    Resume hooks (P9): ``graph`` reuses a pre-built graph Dataset,
    ``init_ranks``/``start_iteration`` continue from a checkpointed
    iteration, ``on_iteration(i, ranks, residual)`` is called after
    every round (the resumable job persists ranks there — matching the
    reference's staged PageRank state saves,
    ``ref/src/jobs/PageRank.java:417-450``)."""
    if graph is None:
        graph = build_graph(pages)
    vkeys = _vertex_keys(graph)
    n = len(vkeys)
    if n == 0:
        return PAGERANK_SCHEMA.empty_table()
    vkeys_ref = ray.put(vkeys)  # numpy object array: one copy per node
    edges = _build_edges(graph, vkeys_ref, n)
    ranks = np.full(n, 1.0 / n) if init_ranks is None else init_ranks
    for i in range(start_iteration, max_iterations):
        ranks, residual = _one_iteration(edges, ranks, n, damping)
        if on_iteration is not None:
            on_iteration(i, ranks, residual)
        if residual < convergence:
            break

    return _project_ranks(graph, vkeys_ref, ranks)
