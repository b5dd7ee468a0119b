"""The Indexer and TfIdf text path: the byte-level ``[^a-z]+`` tokenizer
(``functions.tokenize.split_az``), the raw body-text extractors the jobs
tokenize, the Indexer's per-block combiner, the array form of
``ref_hash``, and the DuckDB lowercase of the SQL-checked text queries.
Each is checked against its scalar, single-threaded or SQL oracle."""

import ast
import re
from pathlib import Path

import duckdb
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.hasher import (
    ref_hash,
    ref_hash_array,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.html import (
    extract_body_text_index,
    extract_body_text_tfidf,
    raw_body_text_index,
    raw_body_text_tfidf,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.functions.tokenize import (
    STOP_WORDS,
    doc_token_counts,
    split_az,
    word_counts,
)
from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle.downstream_oracle import (
    build_index_oracle,
    doc_frequency_cap,
    tfidf_oracle,
)

PKG = (
    Path(__file__).resolve().parents[1]
    / "distributed_web_search_engine_crawler_indexing_pagerank__ray"
)


def _counts_per_doc(tbl, n):
    df = tbl.to_pandas()
    return [
        dict(zip(df.word[df.doc == i], (int(c) for c in df.c[df.doc == i])))
        for i in range(n)
    ]


def _assert_matches_word_counts(texts, arr=None):
    got = _counts_per_doc(doc_token_counts(texts if arr is None else arr), len(texts))
    for i, t in enumerate(texts):
        assert got[i] == dict(word_counts(t or "")), (i, t)


# -- the tokenizer kernel ------------------------------------------------------


def _every_code_point_texts():
    """Each code point (surrogates aside) inside and between letters."""
    cps = [c for c in range(0x110000) if not 0xD800 <= c < 0xE000]
    return [
        "".join(f"q{chr(c)}k{chr(c)}{chr(c)}x " for c in cps[i:i + 512])
        for i in range(0, len(cps), 512)
    ]


def test_split_az_equals_python_lower_on_every_code_point():
    """Python-lowercase mode equals ``word_counts`` for every code point:
    the special-casing ones (U+0130 İ, U+212A Kelvin sign, U+017F long
    s, ß, ligatures, final sigma) among them."""
    _assert_matches_word_counts(_every_code_point_texts())


def test_split_az_sql_lower_equals_duckdb_on_every_code_point():
    """DuckDB-lowercase mode gives DuckDB's ``string_split_regex(lower())``
    tokens, in order, for every code point (U+0130 lowercases to ``i``)."""
    texts = _every_code_point_texts()
    doc, ids, vocab = split_az(
        texts, stop_words=False, max_len=None, sql_lower=True
    )
    got = np.asarray(vocab.to_pylist(), dtype=object)[ids].tolist()
    rows = duckdb.connect().execute(
        "SELECT i, unnest(list_filter(string_split_regex(lower(t), '[^a-z]+'),"
        " w -> w <> '')) FROM (SELECT unnest(?) AS t,"
        " generate_subscripts(?, 1) AS i) ORDER BY i",
        [texts, texts],
    ).fetchall()
    assert got == [w for _, w in rows]
    assert doc.tolist() == [i - 1 for i, _ in rows]


def test_split_az_edge_texts():
    texts = [
        "İstanbul İSTANBUL istanbul",
        "Kelvin ſome STRASSE straße",
        "nul\x00byte sep\x1cfile\x1dgroup\x1erecord\x1funit",
        "a" * 25 + " " + "b" * 26 + " " + "c" * 25 + "Z",
        None,
        "",
        " ".join(sorted(STOP_WORDS)),
        "Mixed CASE words, words; WORDS!",
    ]
    _assert_matches_word_counts(texts)
    assert doc_token_counts([None, "", "the and of"]).num_rows == 0
    assert doc_token_counts([]).num_rows == 0


def test_split_az_sliced_large_and_chunked_arrays():
    texts = ["pad Pad", "alpha beta alpha", None, "Gamma İx gamma", "tail"]
    for arr in (
        pa.array(texts, pa.string()).slice(1, 3),
        pa.array(texts, pa.large_string()).slice(1, 3),
        pa.chunked_array([pa.array(texts[1:2]), pa.array(texts[2:4])]),
    ):
        _assert_matches_word_counts(texts[1:4], arr)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=120)), max_size=12))
def test_split_az_properties(texts):
    """Token order is document order: the tokens of each text, joined,
    are its scalar tokens."""
    doc, ids, vocab = split_az(texts, stop_words=False, max_len=None)
    words = np.asarray(vocab.to_pylist(), dtype=object)[ids]
    for i, t in enumerate(texts):
        want = [w for w in re.split(r"[^a-z]+", (t or "").lower()) if w]
        assert words[doc == i].tolist() == want


def test_az_pattern_lives_in_the_tokenizer_only():
    """The ``[^a-z]+`` split is one kernel: package code outside
    ``functions/tokenize.py`` calls it instead of splitting on the
    pattern itself (SQL oracle text aside)."""
    found = []
    for path in PKG.rglob("*.py"):
        if path.relative_to(PKG).as_posix() == "functions/tokenize.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value == "[^a-z]+":
                found.append(f"{path.relative_to(PKG)}:{node.lineno}")
    assert not found, found


# -- raw body text ------------------------------------------------------------

CRAFTED = [
    "<html><body><p>Caf&amp;nbsp;e &nbsp;bar&amp;baz &lt;tag&gt; q&gt;r"
    "</p></body></html>",
    "<html><body><script type='x'>\nvar hidden = 1;\n</script>\n"
    "<p>Visible\n\n words</p><style>\n.c { x: y }\n</style></body></html>",
    "<body>sep\x1cfile\x1dgroup\x1erecord\x1funit \t\r\n\f\vend</body>",
    "<html><head><title>T</title></head><BODY class=a><nav>menu links</nav>"
    "<main>Main text İstanbul</main><footer>foot</footer></BODY></html>",
    "no tags at all, just  text with spaces",
    "",
]


def _fixture_pages():
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.oracle.crawl_oracle import (
        CrawlOracle,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.sources.synthetic_web import (
        CrawlParams,
        SyntheticWeb,
        WebConfig,
    )

    o = CrawlOracle(
        SyntheticWeb(WebConfig(n_docs=180, n_hosts=8)),
        CrawlParams(target_pages=60, max_waves=8, n_seeds=5),
    )
    o.run()
    return [
        (r["page"] or b"").decode("utf-8", errors="replace")
        for r in o.crawl.values()
    ]


def test_raw_body_text_tokenizes_like_the_collapsed_text():
    for html in _fixture_pages() + CRAFTED:
        assert word_counts(raw_body_text_index(html)) == word_counts(
            extract_body_text_index(html)
        ), html
        assert word_counts(raw_body_text_tfidf(html)) == word_counts(
            extract_body_text_tfidf(html)
        ), html
    assert extract_body_text_index(None) == raw_body_text_index(None) == ""
    assert extract_body_text_tfidf(None) == raw_body_text_tfidf(None) == ""


# -- the jobs against their oracles -------------------------------------------


def _page(words: str) -> bytes:
    return f"<html><body><p>{words}</p></body></html>".encode().ljust(120)


def _crawl(rows):
    """rows: (url, wave, body words) → a crawl dict and its page table."""
    crawl = {}
    for i, (url, wave, words) in enumerate(rows):
        crawl[i] = {"url": url, "url_hash": ref_hash(url), "wave": wave,
                    "page": _page(words)}
    tbl = pa.table({
        "url": [r["url"] for r in crawl.values()],
        "url_hash": [r["url_hash"] for r in crawl.values()],
        "wave": pa.array([r["wave"] for r in crawl.values()], pa.int32()),
        "page": pa.array([r["page"] for r in crawl.values()], pa.binary()),
    })
    return crawl, tbl


def test_jobs_follow_python_lowercase_of_dotted_capital_i(ray_session):
    """Python (and Java) lowercase İ to ``i̇``, so the oracles index
    "İstanbul İstanbul" under ``stanbul``; Arrow's ``utf8_lower`` alone
    would give ``istanbul``."""
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
        index_as_dict,
    )
    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.tfidf import (
        run_tfidf,
    )

    crawl, tbl = _crawl([
        ("http://a.test/1", 0, "İstanbul İstanbul bridge bridge"),
        ("http://a.test/2", 0, "istanbul istanbul ferry ferry"),
        ("http://a.test/3", 1, "ferry ferry bridge bridge harbour harbour"),
    ])
    want = build_index_oracle(crawl)
    assert "stanbul" in want
    index_tbl = build_index(tbl)
    assert index_as_dict(index_tbl) == want
    rows = {r.pop("key"): r for r in run_tfidf(tbl, index_tbl).to_pylist()}
    assert rows == tfidf_oracle(crawl, want)


def test_build_index_multi_block_equals_oracle_at_cap(ray_session):
    """One url fetched in two waves, its rows in two blocks: the per-block
    combiner keeps its earlier wave, and the word's cap boundary falls
    on it, so a wrong per-block minimum would change the postings."""
    import ray.data

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
        index_as_dict,
    )

    rows = [(f"http://h{i % 3}.test/p{i}", 2, "filler filler other other")
            for i in range(14)]
    rows += [(f"http://h{i}.test/w", 1, "target target") for i in range(2)]
    rows += [("http://dup.test/x", 3, "target target"),  # second block
             ("http://late.test/y", 1, "target target"),
             ("http://dup.test/x", 0, "target target"),  # third block
             ("http://more.test/z", 2, "target target")]
    crawl, tbl = _crawl(rows)
    n = len(crawl)
    assert doc_frequency_cap(n) == 3
    want = build_index_oracle(crawl)
    assert want["target"]["postings"][0] == "http://dup.test/x"
    assert want["target"]["full"]
    blocks = [tbl.slice(0, 16), tbl.slice(16, 2), tbl.slice(18, 1),
              tbl.slice(19, 1)]
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() == 4
    assert index_as_dict(build_index(ds, total_pages=n)) == want


def test_build_index_is_one_execution_without_an_exchange(
    ray_session, monkeypatch
):
    """``build_index`` runs one Ray Data execution, and its plan holds no
    all-to-all operator: the per-block combiner replaced the
    ``groupby(word)`` exchange."""
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )
    from ray.data._internal.execution.operators.hash_shuffle import (
        HashShufflingOperatorBase,
    )
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines.index import (
        build_index,
    )

    plans = []
    execute = StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        ops, todo = [], [dag]
        while todo:
            op = todo.pop()
            ops.append(op)
            todo.extend(op.input_dependencies)
        plans.append(ops)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    _, tbl = _crawl([(f"http://h.test/{i}", i % 2, "alpha alpha beta beta")
                     for i in range(8)])
    assert build_index(tbl).num_rows == 2
    assert len(plans) == 1
    exchanges = [
        type(op).__name__ for op in plans[0]
        if isinstance(op, (AllToAllOperator, HashShufflingOperatorBase))
    ]
    assert exchanges == []


# -- ref_hash over arrays -----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=20))
def test_ref_hash_array_equals_scalar(strings):
    got = ref_hash_array(pa.array(strings, pa.string()))
    assert got.to_pylist() == [ref_hash(s) for s in strings]


@pytest.mark.parametrize("strings", [
    [],
    [""],
    ["", "word|http://a.test/", "İstanbul|http://ü.test/ß", "\x00", "😀" * 9],
])
def test_ref_hash_array_edge_strings(strings):
    for arr in (pa.array(strings, pa.string()),
                pa.chunked_array([pa.array(strings, pa.string())])):
        got = ref_hash_array(arr)
        assert got.type == pa.string()
        assert got.to_pylist() == [ref_hash(s) for s in strings]


def test_top_tokens_lowercases_like_its_sql_oracle(ray_session, tmp_path):
    """``top_tokens`` tokenizes with DuckDB's ``lower()``, as its SQL
    oracle does: "İstanbul" counts as ``istanbul``, not ``stanbul``."""
    import pyarrow.parquet as pq

    from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
        textpipe,
    )

    texts = ["İstanbul İstanbul ferry", "İstanbul bridge ferry", None, ""]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{tmp_path / 'documents.parquet'}')")
    want = con.execute(textpipe.SQL_TOP_TOKENS).fetchall()
    assert ("istanbul", 3) in want
    got = textpipe.q_top_tokens(str(tmp_path)).to_pylist()
    assert [(r["word"], r["cnt"]) for r in got] == want
