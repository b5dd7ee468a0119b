"""Downstream jobs (index / pagerank / tfidf / query) vs their oracles,
run over the conformance crawl corpus."""

import math

import pytest

from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle.crawl_oracle import (
    CrawlOracle,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle.downstream_oracle import (
    build_index_oracle,
    pagerank_oracle,
    query_oracle,
    tfidf_oracle,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.sources.synthetic_web import (
    CrawlParams,
    SyntheticWeb,
    WebConfig,
)

CFG = WebConfig(n_docs=180, n_hosts=8)
PARAMS = CrawlParams(target_pages=60, max_waves=8, n_seeds=5)


@pytest.fixture(scope="module")
def oracle_run():
    o = CrawlOracle(SyntheticWeb(CFG), PARAMS)
    o.run()
    index = build_index_oracle(o.crawl)
    ranks = pagerank_oracle(o.crawl)
    tfidf = tfidf_oracle(o.crawl, index)
    return o, index, ranks, tfidf


@pytest.fixture(scope="module")
def engine_pages(ray_session):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.crawl import (
        CrawlEngine,
    )

    eng = CrawlEngine(CFG, PARAMS, n_host_shards=2, n_seen_shards=2)
    eng.run()
    return eng.pages_table()


def test_index_matches_oracle(oracle_run, engine_pages, ray_session):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
        index_as_dict,
    )

    _, oindex, _, _ = oracle_run
    eindex = index_as_dict(build_index(engine_pages))
    assert set(eindex) == set(oindex)
    for w, ent in oindex.items():
        assert eindex[w]["postings"] == ent["postings"], w
        assert eindex[w]["count"] == ent["count"], w
        assert eindex[w]["full"] == ent["full"], w


def test_pagerank_matches_oracle(oracle_run, engine_pages, ray_session):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.pagerank import (
        run_pagerank,
    )

    _, _, oranks, _ = oracle_run
    tbl = run_pagerank(engine_pages)
    assert tbl.num_rows == len(oranks)
    for i in range(tbl.num_rows):
        h = tbl["url_hash"][i].as_py()
        o = oranks[h]
        assert tbl["url"][i].as_py() == o["url"]
        assert tbl["title"][i].as_py() == o["title"]
        assert tbl["snippet"][i].as_py() == o["snippet"]
        assert math.isclose(
            tbl["pagerank"][i].as_py(), o["pagerank"], rel_tol=1e-12, abs_tol=1e-15
        ), h


def test_tfidf_matches_oracle(oracle_run, engine_pages, ray_session):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.tfidf import (
        run_tfidf,
    )

    _, _, _, otfidf = oracle_run
    index_tbl = build_index(engine_pages)
    tbl = run_tfidf(engine_pages, index_tbl)
    assert tbl.num_rows == len(otfidf)
    for i in range(tbl.num_rows):
        key = tbl["key"][i].as_py()
        o = otfidf[key]
        assert tbl["word"][i].as_py() == o["word"], key
        assert tbl["url"][i].as_py() == o["url"], key
        assert math.isclose(tbl["tfidf"][i].as_py(), o["tfidf"], rel_tol=1e-12)


def test_tfidf_equals_oracle_bitwise(oracle_run, engine_pages, ray_session):
    """tf, idf and tf-idf are the oracle's ``math.log`` values exactly, so
    serving cannot order exact score ties differently from the oracle."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.tfidf import (
        run_tfidf,
    )

    _, _, _, otfidf = oracle_run
    rows = run_tfidf(engine_pages, build_index(engine_pages)).to_pylist()
    assert len(rows) == len(otfidf)
    for r in rows:
        o = otfidf[r["key"]]
        assert (r["tf"], r["idf"], r["tfidf"]) == (o["tf"], o["idf"], o["tfidf"]), r["key"]


def test_query_matches_oracle(oracle_run, engine_pages, ray_session):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.pagerank import (
        run_pagerank,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.query import (
        QueryEngine,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.tfidf import (
        run_tfidf,
    )

    o, oindex, oranks, otfidf = oracle_run
    index_tbl = build_index(engine_pages)
    ranks_tbl = run_pagerank(engine_pages)
    tfidf_tbl = run_tfidf(engine_pages, index_tbl)
    qe = QueryEngine(index_tbl, tfidf_tbl, ranks_tbl)

    # pick query terms actually present in the index
    words = sorted(oindex)[:6]
    queries = [words[0], " ".join(words[:2]), " ".join(words[2:4]), "zzzz " + words[0]]
    for q in queries:
        eres = qe.search(q)
        ores = query_oracle(q, oindex, otfidf, oranks)
        assert [r["url"] for r in eres] == [r["url"] for r in ores], q
        for a, b in zip(eres, ores):
            assert math.isclose(a["score"], b["score"], rel_tol=1e-12), q


def _serving_tables(index_tbl, tfidf_tbl, ranks_tbl):
    """The engine's job tables plus rows for serving cases the crawl
    lacks: a posting whose url is over 120 characters, one with no
    PageRank row, a word with no postings, titles and snippets naming
    New York, and a repeated tf-idf key and PageRank url_hash whose
    last row must win."""
    import pyarrow as pa

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.hasher import (
        ref_hash,
    )

    long_url = "http://long.example/" + "p" * 130
    bare_url = "http://nometa.example/page"
    idx = index_tbl.to_pylist()
    w0 = idx[0]["word"]
    idx[0]["postings"] = idx[0]["postings"] + [long_url, bare_url]
    idx.append({"word": "nopostings", "postings": [], "count": 0, "full": False})
    tf = tfidf_tbl.to_pylist()
    for url, score in ((long_url, 2.5), (bare_url, 0.75)):
        tf.append({"key": ref_hash(w0 + "|" + url), "word": w0, "url": url,
                   "tf": 1.0, "idf": score, "tfidf": score})
    posted = {(r["word"], u) for r in idx for u in r["postings"]}
    dup = next(r for r in tf if (r["word"], r["url"]) in posted)
    tf.append(dict(dup, tfidf=dup["tfidf"] * 3.0))
    pr = ranks_tbl.to_pylist()
    for r in pr[::7]:
        r["snippet"] = "open late in New York " + (r["snippet"] or "")
    pr[1]["title"] = "New York " + (pr[1]["title"] or "")
    pr.append({"url_hash": ref_hash(long_url), "url": long_url,
               "title": "Long page", "snippet": "", "pagerank": 0.01})
    pr.append(dict(pr[0], title="Replaced title", pagerank=pr[0]["pagerank"] * 2.0))
    return (pa.Table.from_pylist(idx, index_tbl.schema),
            pa.Table.from_pylist(tf, tfidf_tbl.schema),
            pa.Table.from_pylist(pr, ranks_tbl.schema))


def _misspell(word: str, edits: int) -> str:
    head, tail = word[:-edits], word[-edits:]
    return head + "".join("x" if c != "x" else "y" for c in tail)


def test_serving_equals_oracle_bitwise(engine_pages, ray_session, monkeypatch):
    """QueryEngine.search equals query_oracle over the same tables, URLs,
    titles and float scores compared with ``==``: single words, adjacent
    pairs and triples, 1- and 2-edit typos, a word with no postings,
    empty and stop-word-only queries, a url over 120 characters, a New
    York coordinate and a half-built tf-idf.  No ref_hash runs per
    request."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        query,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.pagerank import (
        run_pagerank,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.tfidf import (
        run_tfidf,
    )

    built = build_index(engine_pages)
    index_tbl, tfidf_tbl, ranks_tbl = _serving_tables(
        built, run_tfidf(engine_pages, built), run_pagerank(engine_pages)
    )
    index = {r["word"]: r for r in index_tbl.to_pylist()}
    tfidf = {r["key"]: r for r in tfidf_tbl.to_pylist()}
    ranks = {r["url_hash"]: r for r in ranks_tbl.to_pylist()}
    full = query.QueryEngine(index_tbl, tfidf_tbl, ranks_tbl)
    half = query.QueryEngine(index_tbl, tfidf_tbl, ranks_tbl, tfidf_completion=0.5)

    def no_hash(x):
        raise AssertionError(f"ref_hash({x!r}) on the request path")

    monkeypatch.setattr(query, "ref_hash", no_hash)
    words = full.dictionary
    queries = (
        list(words)
        + [" ".join(words[i:i + 2]) for i in range(len(words) - 1)]
        + [" ".join(words[i:i + 3]) for i in range(len(words) - 2)]
        + [_misspell(w, k) for w in words for k in (1, 2) if len(w) > k]
        + ["", "the", "the and of", "zzzzzzzzzz " + words[0]]
    )
    ny = {"lat": 40.7, "lon": -74.0}
    cases = (
        [(full, q, {}) for q in queries]
        + [(full, w, ny) for w in words]
        + [(half, w, {}) for w in words]
        + [(full, words[0], {"page_size": 50})]
    )
    served = {}
    for qe, q, kw in cases:
        got = qe.search(q, **kw)
        okw = dict(kw, tfidf_completion=qe.tfidf_completion)
        assert got == query_oracle(q, index, tfidf, ranks, **okw), (q, okw)
        served[qe is half, q, tuple(kw)] = got
    assert sum(map(bool, served.values())) > 2 * len(words)
    urls = [r["url"] for r in served[False, words[0], ("page_size",)]]
    assert "http://nometa.example/page" in urls
    assert any(len(u) > 120 for u in urls)
    plain = {w: served[False, w, ()] for w in words}
    assert any(served[False, w, ("lat", "lon")] != plain[w] for w in words)
    assert any(served[True, w, ()] != plain[w] for w in words)


def test_autocomplete_and_spellcheck(oracle_run, engine_pages, ray_session):
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.pagerank import (
        run_pagerank,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.query import (
        QueryEngine,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.tfidf import (
        run_tfidf,
    )

    _, oindex, _, _ = oracle_run
    index_tbl = build_index(engine_pages)
    qe = QueryEngine(
        index_tbl, run_tfidf(engine_pages, index_tbl), run_pagerank(engine_pages)
    )
    some = sorted(oindex)[0]
    assert qe.suggest(some[:2])  # prefix yields suggestions
    assert all(w.startswith(some[:2]) for w in qe.suggest(some[:2]))
    # a 1-edit typo corrects back to a dictionary word
    typo = some[:-1] + ("x" if some[-1] != "x" else "y")
    assert qe.correct(typo) in oindex or qe.correct(typo) == typo


def test_cached_page_q8():
    """Q8: the page body stored under the url's hash; a miss is None and
    a repeated url_hash resolves to its last row."""
    import pyarrow as pa

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.hasher import (
        ref_hash,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.query import (
        QueryEngine,
    )

    qe = QueryEngine(
        pa.table({"word": pa.array([], pa.string()),
                  "postings": pa.array([], pa.list_(pa.string()))}),
        pa.table({"key": pa.array([], pa.string()),
                  "tfidf": pa.array([], pa.float64())}),
        pa.table({"url_hash": pa.array([], pa.string()),
                  "title": pa.array([], pa.string()),
                  "snippet": pa.array([], pa.string()),
                  "pagerank": pa.array([], pa.float64())}),
    )
    a, b = "http://a.test/1", "http://b.test/2"
    pages = pa.table({
        "url_hash": [ref_hash(a), ref_hash(b), ref_hash(b), ref_hash("x")],
        "page": [b"<p>a</p>", b"<p>b old</p>", b"<p>b new</p>", None],
    })
    assert qe.cached_page(pages, a) == b"<p>a</p>"
    assert qe.cached_page(pages, b) == b"<p>b new</p>"
    assert qe.cached_page(pages, "http://missing.test/") is None
    assert qe.search("anything") == []


def test_q9_geo_boost_pure_parts():
    """Q9 offline parts: bounding-box city inference
    (ResultPageHandler.java:329-363, first box wins) and the match
    boost (:366-385) with the x1.2 score multiplier (:175-177).  The
    Nominatim HTTP path stays excluded (external API)."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.query import (
        compute_geo_boost,
        infer_city_keyword,
    )

    assert infer_city_keyword(40.7, -74.0) == "New York"
    assert infer_city_keyword(34.05, -118.25) == "Los Angeles"
    # SF box is checked before Oakland's overlapping one
    assert infer_city_keyword(37.78, -122.42) == "San Francisco"
    assert infer_city_keyword(37.80, -122.20) == "Oakland"
    assert infer_city_keyword(37.33, -121.90) == "San Jose"
    assert infer_city_keyword(40.0, -75.1) == "Philadelphia"
    assert infer_city_keyword(51.5, -0.1) is None  # outside every box
    assert infer_city_keyword(None, -74.0) is None
    assert infer_city_keyword(float("nan"), -74.0) is None

    assert compute_geo_boost("new york", "visit new york now", "", "") == 1.0
    assert compute_geo_boost("new york", "", "http://newyork.example/new york", "") == 1.0
    assert compute_geo_boost("new york", "", "", "snippet about new york") == 1.0
    assert compute_geo_boost("new york", "boston", "http://x/", "nothing") == 0.0
    assert compute_geo_boost(None, "new york", "", "") == 0.0
