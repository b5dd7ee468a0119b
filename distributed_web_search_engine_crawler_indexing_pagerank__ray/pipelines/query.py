"""Query-serving operators (SURVEY §2.7 Q1–Q8) over the job outputs.

The reference serves queries from a webapp doing synchronous KVS point
reads (``ResultPageHandler.java``, ``KVSStorage.java``); here the same
operators are library functions over the index / tfidf / pageranks
tables, packaged in a :class:`QueryEngine` that mirrors the serving
actor (dictionary built once = the spellcheck cache,
``SpellChecker.java:21-39``).

The reference looks up each candidate's tf-idf by ``Hasher.hash(word|url)``
and its PageRank row by ``Hasher.hash(url)`` on every request
(``ResultPageHandler.java:95-223``).  :class:`QueryEngine` makes those
lookups once, at load, for every posting of the index: a request runs
no hashing and no per-candidate string work.  This is exact because
every (word, url) pair a request scores has the word in the index and
the url in that word's postings: ``correct`` returns a dictionary word
or a word with no postings, and ``candidates`` is empty as soon as one
word has no postings.  The stored values are the ones the per-request
lookups return, duplicate keys included (the last row wins), and the
score adds them in the same order, so results are bit-identical to
``downstream_oracle.query_oracle`` over the same tables.
"""

from __future__ import annotations

import bisect
import math

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hasher import ref_hash
from ..functions.textstats import levenshtein
from ..functions.tokenize import query_tokens

RESULTS_PER_PAGE = 10  # ResultPageHandler.RESULTS_PER_PAGE
SPELL_MAX_DISTANCE = 2  # SpellChecker.java Levenshtein cap
SUGGEST_LIMIT = 8  # SuggestHandler.java:16-36

# Q9 geo boost, offline parts.  The reverse-geocoding HTTP call
# (Nominatim, ResultPageHandler.java:265-299) stays excluded — external
# API — but its pure fallback chain is kept exactly: bounding boxes
# (``inferCityKeywordFromLocation``, :329-363) and the match boost
# (``computeGeoBoost``, :366-385) applied as score ×= (1 + 0.2·boost)
# (:175-177).
_CITY_BOXES = [  # (lat_lo, lat_hi, lon_lo, lon_hi, city)
    (40.3, 41.1, -74.5, -73.3, "New York"),
    (33.7, 34.4, -119.0, -117.5, "Los Angeles"),
    (37.70, 37.83, -122.53, -122.35, "San Francisco"),
    (37.70, 37.90, -122.30, -122.10, "Oakland"),
    (37.20, 37.45, -122.05, -121.75, "San Jose"),
    (39.8, 40.2, -75.3, -74.8, "Philadelphia"),
]


def infer_city_keyword(lat: float | None, lon: float | None) -> str | None:
    """Bounding-box city fallback (first matching box wins — the
    reference checks them in this order, so the overlapping SF/Oakland
    boxes resolve to San Francisco)."""
    if lat is None or lon is None or math.isnan(lat) or math.isnan(lon):
        return None
    for lat_lo, lat_hi, lon_lo, lon_hi, city in _CITY_BOXES:
        if lat_lo < lat < lat_hi and lon_lo < lon < lon_hi:
            return city
    return None


def compute_geo_boost(city_keyword: str | None, lower_title: str,
                      lower_url: str, lower_snippet: str) -> float:
    """1.0 on a city-name match in title, url, or snippet; else 0."""
    if not city_keyword:
        return 0.0
    if city_keyword in (lower_title or ""):
        return 1.0
    if city_keyword in (lower_url or ""):
        return 1.0
    if city_keyword in (lower_snippet or ""):
        return 1.0
    return 0.0


def _rows_by_key(tbl: pa.Table, key_col: str, keys, cols: list[str]) -> dict:
    """``key -> (values of cols)`` for the rows of ``tbl`` whose
    ``key_col`` is one of ``keys``.  Where a key repeats, the last row
    wins, as in a dict built over every row in table order; only the
    matching rows reach Python."""
    wanted = pa.array(list(keys), pa.string())
    sub = tbl.select([key_col, *cols]).filter(pc.is_in(tbl[key_col], value_set=wanted))
    return dict(zip(sub[key_col].to_pylist(),
                    zip(*(sub[c].to_pylist() for c in cols))))


class QueryEngine:
    """Serving-side state: one instance per serving actor/process.

    The constructor does every query-independent step of Q4–Q7 once:
    ``_postings[word][url]`` holds the posting's tf-idf and whether the
    word occurs in the page's lowered title and url; ``_pages[url]``
    holds the page's Q6 inputs and its title-dedup key."""

    def __init__(self, index_tbl: pa.Table, tfidf_tbl: pa.Table,
                 pageranks_tbl: pa.Table, tfidf_completion: float = 1.0):
        # Q6 tfIdfCompletion (ResultPageHandler.java:77-80,128-131):
        # while a TfIdf build is in flight its partial scores are scaled
        # by the job's completion ratio; 1.0 (finished build) leaves
        # scores untouched.  Source of the ratio here: the resumable
        # job's checkpoint (resume.tfidf_completion).
        self.tfidf_completion = float(tfidf_completion)
        self.index: dict[str, list[str]] = dict(
            zip(index_tbl["word"].to_pylist(), index_tbl["postings"].to_pylist())
        )
        self.dictionary = sorted(self.index)  # Q2/Q3 cache
        pair_key = {(w, u): ref_hash(w + "|" + u)
                    for w, urls in self.index.items() for u in urls}
        url_key = {u: ref_hash(u) for u in dict.fromkeys(
            u for urls in self.index.values() for u in urls)}
        tfidf = _rows_by_key(tfidf_tbl, "key", pair_key.values(), ["tfidf"])
        meta = _rows_by_key(pageranks_tbl, "url_hash", url_key.values(),
                            ["title", "snippet", "pagerank"])
        # url -> (pr_score, length penalty or None, title, dedup key,
        #         lowered title, lowered url, snippet)
        self._pages: dict[str, tuple] = {}
        for url, h in url_key.items():
            m = meta.get(h)
            if m is not None:
                title, snippet, pr = m
                title = title or url
            else:
                title, snippet, pr = url, "...", 0.1  # metadata fallback
            lt = title.lower()
            shrink = (1.0 / (1.0 + (len(url) - 120) / 60.0)
                      if len(url) > 120 else None)
            self._pages[url] = (math.log(1.0 + max(pr, 0.0)), shrink, title,
                                " ".join(lt.split()), lt, url.lower(), snippet)
        # word -> url -> (tf-idf, word in lowered title, word in lowered url)
        self._postings: dict[str, dict[str, tuple[float, bool, bool]]] = {}
        for w, urls in self.index.items():
            post = self._postings[w] = {}
            for u in urls:
                *_, lt, lu, _ = self._pages[u]
                post[u] = (tfidf.get(pair_key[w, u], (0.0,))[0], w in lt, w in lu)

    # -- Q2: spellcheck (Levenshtein ≤ 2, early-exit DP) ---------------------

    def correct(self, word: str) -> str:
        if word in self.index:
            return word
        best, best_d = word, SPELL_MAX_DISTANCE + 1
        n = len(word)
        for cand in self.dictionary:
            # the distance is at least the length difference
            if abs(len(cand) - n) >= best_d:
                continue
            d = levenshtein(word, cand, best_d)
            if d < best_d:
                best, best_d = cand, d
        return best if best_d <= SPELL_MAX_DISTANCE else word

    # -- Q3: autocomplete (first N dictionary words with prefix) -------------

    def suggest(self, prefix: str, limit: int = SUGGEST_LIMIT) -> list[str]:
        lo = bisect.bisect_left(self.dictionary, prefix)
        out = []
        for w in self.dictionary[lo : lo + 4 * limit]:
            if not w.startswith(prefix):
                break
            out.append(w)
            if len(out) >= limit:
                break
        return out

    # -- Q4/Q5: posting lookup + AND intersection ----------------------------

    def candidates(self, words: list[str]) -> list[str]:
        if not words:
            return []
        urls = list(self.index.get(words[0], []))
        for w in words[1:]:
            postings = self._postings.get(w, {})
            urls = [u for u in urls if u in postings]
        return urls

    # -- Q6/Q7: scoring + sort + title-dedup + page --------------------------

    def search(self, raw_query: str, page_size: int = RESULTS_PER_PAGE,
               lat: float | None = None, lon: float | None = None) -> list[dict]:
        words = [self.correct(w) for w in query_tokens(raw_query)]
        urls = self.candidates(words)
        if not urls:
            return []
        # every word has postings here, and every url is in each of them
        posts = [self._postings[w] for w in words]
        n = len(words)
        city = infer_city_keyword(lat, lon)
        city_kw = city.lower() if city else None
        scored = []
        for url in urls:
            tfs, in_title, in_url = zip(*[p[url] for p in posts])
            pr_score, shrink, _, _, lt, lu, snippet = self._pages[url]
            tf_avg = max(sum(tfs) / n, 0.0)
            if self.tfidf_completion < 1.0:  # ResultPageHandler.java:128-131
                tf_avg *= self.tfidf_completion
            score = (
                0.45 * pr_score
                + 0.45 * tf_avg
                + 0.07 * (sum(in_title) / n)
                + 0.03 * (sum(in_url) / n)
            )
            if city_kw is not None:  # Q9: ResultPageHandler.java:175-177
                gb = compute_geo_boost(city_kw, lt, lu, (snippet or "").lower())
                if gb > 0.0:
                    score *= 1.0 + 0.2 * gb
            if shrink is not None:
                score *= shrink
            scored.append((-score, url))
        scored.sort()
        seen_titles: set[str] = set()
        out = []
        for neg, url in scored:
            _, _, title, key = self._pages[url][:4]
            if key in seen_titles:
                continue
            seen_titles.add(key)
            out.append({"url": url, "title": title, "score": -neg})
            if len(out) == page_size:
                break
        return out[:page_size]

    def cached_page(self, pages_tbl: pa.Table, url: str) -> bytes | None:
        """Q8: point lookup of the stored page body (the last row with
        the url's hash wins)."""
        rows = pc.indices_nonzero(pc.equal(pages_tbl["url_hash"], ref_hash(url)))
        if len(rows) == 0:
            return None
        return pages_tbl["page"][rows[-1].as_py()].as_py()
