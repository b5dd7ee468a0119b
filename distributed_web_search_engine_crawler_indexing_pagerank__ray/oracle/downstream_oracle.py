"""Single-threaded oracles for the downstream jobs (no Ray).

Inputs are the crawl oracle's page rows (``CrawlOracle.crawl`` values:
url_hash, url, page bytes, wave).  Each oracle transliterates the
reference job's semantics with the documented determinizations
(SURVEY.md §7.3): posting-list order = (wave, url_hash); tf-idf top-60
tie-break = term ascending.
"""

from __future__ import annotations

import math

from ..functions.hasher import ref_hash
from ..functions.html import (
    extract_body_text_index,
    extract_body_text_tfidf,
    extract_links_pagerank,
    extract_title,
    generate_snippet,
)
from ..functions.textstats import idf as idf_fn
from ..functions.textstats import levenshtein
from ..functions.textstats import tf as tf_fn
from ..functions.tokenize import index_words, query_tokens, word_counts

# Indexer constants (src/jobs/Indexer.java:17-22,84-89)
MAX_URLS_PER_WORD = 100
MAX_DOC_FRACTION = 0.15
MIN_WORD_FREQ = 2
MAX_HTML_BYTES = 20_000
MIN_PAGE_BYTES = 100

# PageRank constants (src/jobs/PageRank.java:22-25)
DAMPING = 0.85
MAX_ITERATIONS = 20
CONVERGENCE = 0.001

# TfIdf constants (src/jobs/TfIdf.java:36-39)
TFIDF_MAX_TERMS = 60


def doc_frequency_cap(total_pages: int) -> int:
    """``Indexer.java:84-89``."""
    cap = int(math.floor(total_pages * MAX_DOC_FRACTION))
    if cap <= 0:
        cap = MAX_URLS_PER_WORD
    return max(1, min(MAX_URLS_PER_WORD, cap))


def _sorted_pages(crawl: dict) -> list[dict]:
    """Deterministic doc order: (wave, url_hash) — the engine's
    replacement for the reference's nondeterministic arrival order."""
    return sorted(crawl.values(), key=lambda r: (r["wave"], r["url_hash"]))


def build_index_oracle(crawl: dict) -> dict[str, dict]:
    """pt-index: word → {postings: [url...], count, full}
    (``Indexer.java`` I1–I5 semantics; order (wave, url_hash))."""
    pages = _sorted_pages(crawl)
    total = len(crawl)
    cap = doc_frequency_cap(total)
    index: dict[str, dict] = {}
    for row in pages:
        body = row["page"]
        if body is None or len(body) < MIN_PAGE_BYTES:
            continue
        html = body[:MAX_HTML_BYTES].decode("utf-8", errors="replace")
        text = extract_body_text_index(html)
        for word in index_words(text, MIN_WORD_FREQ):
            ent = index.setdefault(word, {"postings": [], "count": 0, "full": False})
            if ent["full"]:
                continue
            if row["url"] in ent["postings"]:
                continue
            ent["postings"].append(row["url"])
            ent["count"] += 1
            if ent["count"] >= cap:
                ent["full"] = True
    return index


def pagerank_oracle(crawl: dict) -> dict[str, dict]:
    """pt-pageranks: url_hash → {url, title, snippet, pagerank}
    (``PageRank.java`` P1–P8: vertices = crawled pages; contributions
    to non-vertex dests leak; dangling mass redistributed)."""
    import numpy as np

    pages = _sorted_pages(crawl)
    meta: dict[str, dict] = {}
    adj: dict[str, list[str]] = {}
    for row in pages:
        html = (row["page"] or b"")[:MAX_HTML_BYTES].decode("utf-8", errors="replace")
        title = extract_title(html) or row["url"]
        snippet = generate_snippet(html)
        links = extract_links_pagerank(row["url"], html)
        h = row["url_hash"]
        meta[h] = {"url": row["url"], "title": title, "snippet": snippet}
        # distinct dest hashes (ContributionMapper uses a Set)
        dests: list[str] = []
        seen = set()
        for link in links:
            dh = ref_hash(link)
            if dh not in seen:
                seen.add(dh)
                dests.append(dh)
        adj[h] = dests
    n = len(meta)
    if n == 0:
        return {}
    vids = {h: i for i, h in enumerate(sorted(meta))}
    ranks = np.full(n, 1.0 / n)
    for _ in range(MAX_ITERATIONS):
        contrib = np.zeros(n)
        dangling = 0.0
        for h, dests in adj.items():
            r = ranks[vids[h]]
            if not dests:
                dangling += r
                continue
            share = r / len(dests)
            for d in dests:
                i = vids.get(d)
                if i is not None:
                    contrib[i] += share  # non-vertex dests leak (by design)
        new = (1.0 - DAMPING) / n + DAMPING * contrib + DAMPING * dangling / n
        residual = float(np.max(np.abs(new - ranks)))
        ranks = new
        if residual < CONVERGENCE:
            break
    out = {}
    for h, m in meta.items():
        out[h] = dict(m, pagerank=float(ranks[vids[h]]))
    return out


def tfidf_oracle(crawl: dict, index: dict[str, dict]) -> dict[str, dict]:
    """pt-tfidf: hash(word|url) → {word, url, tf, idf, tfidf}
    (``TfIdf.java`` T1–T5; df = index __count; top-60 terms/doc with
    term-ascending tie-break)."""
    pages = _sorted_pages(crawl)
    n = len(crawl)
    out: dict[str, dict] = {}
    for row in pages:
        html = (row["page"] or b"")[:MAX_HTML_BYTES].decode("utf-8", errors="replace")
        text = extract_body_text_tfidf(html)
        wc = word_counts(text)
        top = sorted(wc.items(), key=lambda kv: (-kv[1], kv[0]))[:TFIDF_MAX_TERMS]
        for word, c in top:
            df = index.get(word, {}).get("count", 0)
            tf = tf_fn(c)
            idf = idf_fn(n, df)
            score = tf * idf
            if score > 0:
                key = ref_hash(word + "|" + row["url"])
                out[key] = {
                    "word": word,
                    "url": row["url"],
                    "tf": tf,
                    "idf": idf,
                    "tfidf": score,
                }
    return out


def query_oracle(
    query: str,
    index: dict[str, dict],
    tfidf: dict[str, dict],
    pageranks: dict[str, dict],
    page_size: int = 10,
    tfidf_completion: float = 1.0,
    lat: float | None = None,
    lon: float | None = None,
) -> list[dict]:
    """Q1–Q7 and Q9 serving-path oracle (``ResultPageHandler.java:95-223``):
    tokenize → spellcheck → AND-intersect postings → score (tf part
    scaled by an in-flight build's completion, geo boost by the
    bounding-box city of ``lat``/``lon``) → sort → title-dedup → first
    page."""
    from ..pipelines.query import compute_geo_boost, infer_city_keyword

    city = infer_city_keyword(lat, lon)
    city_kw = city.lower() if city else None
    words = query_tokens(query)
    dictionary = sorted(index)
    corrected = []
    for w in words:
        if w in index:
            corrected.append(w)
            continue
        best, best_d = w, 3
        for cand in dictionary:
            d = levenshtein(w, cand, best_d)
            if d < best_d:
                best, best_d = cand, d
        corrected.append(best if best_d <= 2 else w)
    words = corrected
    if not words:
        return []
    # AND intersection in first-word posting order (Q5)
    first = index.get(words[0], {}).get("postings", [])
    urls = [u for u in first]
    for w in words[1:]:
        postings = set(index.get(w, {}).get("postings", []))
        urls = [u for u in urls if u in postings]
    results = []
    for url in urls:
        scores = [
            tfidf.get(ref_hash(w + "|" + url), {}).get("tfidf", 0.0) for w in words
        ]
        tf_avg = sum(scores) / len(words)
        m = pageranks.get(ref_hash(url))
        pr = m["pagerank"] if m else 0.1
        title = (m["title"] if m else url) or url
        snippet = m["snippet"] if m else "..."
        pr_score = math.log(1.0 + max(pr, 0.0))
        tf_part = max(tf_avg, 0.0)
        if tfidf_completion < 1.0:  # Q6, ResultPageHandler.java:128-131
            tf_part *= tfidf_completion
        lt, lu = title.lower(), url.lower()
        tmatch = sum(1 for w in words if w in lt) / len(words)
        umatch = sum(1 for w in words if w in lu) / len(words)
        score = 0.45 * pr_score + 0.45 * tf_part + 0.07 * tmatch + 0.03 * umatch
        if city_kw is not None:  # Q9, ResultPageHandler.java:175-177
            gb = compute_geo_boost(city_kw, lt, lu, (snippet or "").lower())
            if gb > 0.0:
                score *= 1.0 + 0.2 * gb
        if len(url) > 120:
            score *= 1.0 / (1.0 + (len(url) - 120) / 60.0)
        results.append({"url": url, "title": title, "score": score})
    results.sort(key=lambda r: (-r["score"], r["url"]))
    # title dedup keep best (Q7)
    seen_titles = set()
    deduped = []
    for r in results:
        key = " ".join(r["title"].lower().split())
        if key in seen_titles:
            continue
        seen_titles.add(key)
        deduped.append(r)
    return deduped[:page_size]
