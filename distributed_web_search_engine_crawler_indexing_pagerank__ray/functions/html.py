"""HTML extraction kernels, transliterated from the reference jobs.

Reference:
- link scan:                ``src/jobs/Crawler.java:444-493`` (``extract_urls``)
- title:                    ``src/jobs/PageRank.java:503-524``
- snippet:                  ``src/jobs/PageRank.java:527-556`` (+ meta/semantic helpers 559-705)
- indexer body text:        ``src/jobs/Indexer.java:124-151`` (``extract_body_text_index``)
- pagerank body text:       ``src/jobs/PageRank.java:669-697``
- tfidf body text:          ``src/jobs/TfIdf.java:323-351``
- pagerank out-links:       ``src/jobs/PageRank.java:708-783`` (``extract_links_pagerank``)

Regex fidelity notes: the Java patterns use ``(?is)`` (DOTALL) in the
PageRank/TfIdf cleaners but only ``(?i)`` (no DOTALL) in the Indexer
cleaner — reproduced exactly.  ``\\s`` in Java regex is ASCII-only, so
Python patterns use ``re.ASCII`` where the reference relies on it.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# Link scan (Crawler.java:444-493) — returns (href, offset) pairs so the
# same single scan feeds both the crawler frontier and the `spans` payload.
# ---------------------------------------------------------------------------


def extract_urls_with_offsets(body: str | None) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    if not body:
        return out
    lower = body.lower()
    i = 0
    n = len(body)
    while True:
        i = lower.find("<a", i)
        if i == -1:
            break
        tag_end = lower.find(">", i)
        if tag_end == -1:
            break
        href_pos = lower.find("href=", i)
        if href_pos == -1 or href_pos > tag_end:
            i = tag_end + 1
            continue
        val_start = href_pos + 5
        if val_start >= n:
            i = tag_end + 1
            continue
        first = body[val_start]
        if first in ('"', "'"):
            url_start = val_start + 1
            url_end = body.find(first, url_start)
            if url_end == -1 or url_end > tag_end:
                i = tag_end + 1
                continue
        else:
            url_start = val_start
            sp = body.find(" ", url_start)
            gt = body.find(">", url_start)
            url_end = gt if sp == -1 else (sp if gt == -1 else min(sp, gt))
            if url_end == -1 or url_end > tag_end:
                url_end = tag_end
        if url_start >= 0 and url_end > url_start:
            u = body[url_start:url_end].strip()
            if u:
                out.append((u, url_start))
        i = tag_end + 1
    return out


def extract_urls(body: str | None) -> list[str]:
    """``Crawler.extractUrls`` — raw hrefs in document order."""
    return [u for u, _ in extract_urls_with_offsets(body)]


# ---------------------------------------------------------------------------
# Media scan (engine addition for the interleaved-span payload; same
# within-tag scanning discipline as the reference's link scan).
# ---------------------------------------------------------------------------


def extract_media_with_offsets(body: str | None) -> list[tuple[str, int]]:
    """``(src, offset)`` for ``<img``/``<video``/``<audio``/``<source`` tags."""
    out: list[tuple[str, int]] = []
    if not body:
        return out
    lower = body.lower()
    for tag in ("<img", "<video", "<audio", "<source"):
        i = 0
        while True:
            i = lower.find(tag, i)
            if i == -1:
                break
            tag_end = lower.find(">", i)
            if tag_end == -1:
                break
            src_pos = lower.find("src=", i)
            if src_pos == -1 or src_pos > tag_end:
                i = tag_end + 1
                continue
            val_start = src_pos + 4
            if val_start >= len(body):
                i = tag_end + 1
                continue
            first = body[val_start]
            if first in ('"', "'"):
                url_start = val_start + 1
                url_end = body.find(first, url_start)
                if url_end == -1 or url_end > tag_end:
                    i = tag_end + 1
                    continue
            else:
                url_start = val_start
                sp = body.find(" ", url_start)
                gt = body.find(">", url_start)
                url_end = gt if sp == -1 else (sp if gt == -1 else min(sp, gt))
                if url_end == -1 or url_end > tag_end:
                    url_end = tag_end
            if url_end > url_start:
                u = body[url_start:url_end].strip()
                if u:
                    out.append((u, url_start))
            i = tag_end + 1
    out.sort(key=lambda t: t[1])
    return out


# ---------------------------------------------------------------------------
# Title / snippet (PageRank.java:503-705)
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<[^>]+>")
_WS_RE = re.compile(r"\s+", re.ASCII)


def _collapse_ws_strip(s: str) -> str:
    """``_WS_RE.sub(" ", s).strip()`` with a fast path: for pure-ASCII
    text without the \\x1c–\\x1f separators, ``" ".join(s.split())`` is
    byte-identical (str.split's extra whitespace set is exactly unicode
    ws + those four separators) and ~3.5× faster than the per-match
    regex sub — this collapse was the single hottest kernel of the
    crawl's span build (1.0 of 2.0 ms/page).  Non-ASCII input falls
    back to the reference-exact regex."""
    if s.isascii() and "\x1c" not in s and "\x1d" not in s \
            and "\x1e" not in s and "\x1f" not in s:
        return " ".join(s.split())
    return _WS_RE.sub(" ", s).strip()


def clean_text(text: str | None) -> str:
    """``PageRank.cleanText`` (``PageRank.java:700-705``)."""
    if text is None:
        return ""
    t = _TAG_RE.sub(" ", text)
    return _collapse_ws_strip(t)


def extract_title(html: str | None) -> str:
    """``PageRank.extractTitle`` (``PageRank.java:504-524``)."""
    if html is None:
        return ""
    lower = html.lower()
    start = lower.find("<title")
    if start == -1:
        return ""
    start = html.find(">", start)
    if start == -1:
        return ""
    start += 1
    end = lower.find("</title>", start)
    if end == -1 or end <= start:
        return ""
    title = clean_text(html[start:end].strip())
    if len(title) > 120:
        title = title[:120] + "..."
    return title


def _extract_meta_tag(html: str, lower: str, attribute: str, value: str) -> str | None:
    """``PageRank.extractMetaTag`` (``PageRank.java:585-628``)."""
    pos = 0
    while True:
        pos = lower.find("<meta", pos)
        if pos == -1:
            return None
        tag_end = lower.find(">", pos)
        if tag_end == -1:
            return None
        tag_content = html[pos : tag_end + 1]
        tag_lower = tag_content.lower()
        attr_dq = attribute + '="' + value + '"'
        attr_sq = attribute + "='" + value + "'"
        if attr_dq in tag_lower or attr_sq in tag_lower:
            content_pos = tag_lower.find("content=")
            if content_pos != -1:
                content_start = content_pos + 8
                if content_start < len(tag_content):
                    quote = tag_content[content_start]
                    if quote in ('"', "'"):
                        content_end = tag_content.find(quote, content_start + 1)
                        if content_end != -1:
                            content = tag_content[content_start + 1 : content_end]
                            content = (
                                content.replace("&nbsp;", " ")
                                .replace("&amp;", "&")
                                .replace("&lt;", "<")
                                .replace("&gt;", ">")
                                .replace("&quot;", '"')
                                .replace("&#39;", "'")
                            )
                            return content.strip()
        pos = tag_end + 1


def extract_meta_description(html: str | None) -> str | None:
    """``PageRank.extractMetaDescription`` (``PageRank.java:559-582``)."""
    if html is None:
        return None
    lower = html.lower()
    for attr, val in (
        ("property", "og:description"),
        ("name", "description"),
        ("name", "twitter:description"),
    ):
        found = _extract_meta_tag(html, lower, attr, val)
        if found:
            return found
    return None


def extract_semantic_content(html: str | None) -> str | None:
    """``PageRank.extractSemanticContent`` (``PageRank.java:631-666``)."""
    if html is None:
        return None
    lower = html.lower()
    for tag in ("main", "article", "section"):
        start = lower.find("<" + tag)
        if start != -1:
            end = lower.find("</" + tag + ">", start)
            if end != -1:
                content_start = html.find(">", start) + 1
                return html[content_start:end]
    return None


_PR_SCRIPT_RE = re.compile(r"(?is)<script[^>]*>.*?</script>")
_PR_STYLE_RE = re.compile(r"(?is)<style[^>]*>.*?</style>")
_PR_COMMENT_RE = re.compile(r"(?is)<!--.*?-->")
_PR_HEAD_RE = re.compile(r"(?is)<head[^>]*>.*?</head>")
_PR_NAV_RE = re.compile(r"(?is)<nav[^>]*>.*?</nav>")
_PR_HEADER_RE = re.compile(r"(?is)<header[^>]*>.*?</header>")
_PR_FOOTER_RE = re.compile(r"(?is)<footer[^>]*>.*?</footer>")
_PR_ASIDE_RE = re.compile(r"(?is)<aside[^>]*>.*?</aside>")
_PR_TAG_RE = re.compile(r"(?is)<[^>]+>")


def extract_body_text_pagerank(html: str | None) -> str:
    """``PageRank.extractBodyText`` (``PageRank.java:669-697``)."""
    if html is None:
        return ""
    text = html
    text = _PR_SCRIPT_RE.sub(" ", text)
    text = _PR_STYLE_RE.sub(" ", text)
    text = _PR_COMMENT_RE.sub(" ", text)
    text = _PR_HEAD_RE.sub(" ", text)
    text = _PR_NAV_RE.sub(" ", text)
    text = _PR_HEADER_RE.sub(" ", text)
    text = _PR_FOOTER_RE.sub(" ", text)
    text = _PR_ASIDE_RE.sub(" ", text)
    text = _PR_TAG_RE.sub(" ", text)
    text = (
        text.replace("&nbsp;", " ")
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&#39;", "'")
    )
    return _collapse_ws_strip(text)


def generate_snippet(html: str | None) -> str:
    """``PageRank.generateSnippet`` (``PageRank.java:527-556``)."""
    meta = extract_meta_description(html)
    if meta:
        if len(meta) > 200:
            return meta[:200] + "..."
        return meta
    semantic = extract_semantic_content(html)
    if semantic is not None:
        plain = clean_text(semantic)
    else:
        body = extract_body_text_pagerank(html)
        if len(body) > 300:
            body = body[300:]
        plain = clean_text(body)
    if len(plain) > 200:
        return plain[:200] + "..."
    return plain


# ---------------------------------------------------------------------------
# Indexer body text (Indexer.java:124-151) — note: (?i) but NOT DOTALL,
# so multi-line <script>/<style> blocks survive tag-stripping (quirk kept).
# ---------------------------------------------------------------------------

_IX_SCRIPT_RE = re.compile(r"(?i)<script[^>]*>.*?</script>")
_IX_STYLE_RE = re.compile(r"(?i)<style[^>]*>.*?</style>")
_IX_TAG_RE = re.compile(r"<[^>]+>")
_IX_BODY_OPEN_RE = re.compile(r"<body", re.I)
_IX_BODY_CLOSE_RE = re.compile(r"</body>", re.I)


def extract_body_text_index(html: str | None) -> str:
    """``Indexer.extractBodyText`` (``Indexer.java:124-151``)."""
    return _collapse_ws_strip(raw_body_text_index(html))


def raw_body_text_index(html: str | None) -> str:
    """:func:`extract_body_text_index` before its whitespace collapse,
    which the Indexer job's ``[^a-z]+`` tokenizer makes redundant."""
    if html is None:
        return ""
    html = _IX_SCRIPT_RE.sub(" ", html)
    html = _IX_STYLE_RE.sub(" ", html)
    m = _IX_BODY_OPEN_RE.search(html)  # case-insensitive search — no
    if m is not None:  # full .lower() copies of the page
        closing = html.find(">", m.start())
        if closing != -1 and closing < len(html) - 1:
            body_start = closing + 1
            m2 = _IX_BODY_CLOSE_RE.search(html, body_start)
            if m2 is not None:
                html = html[body_start:m2.start()]
    html = _IX_TAG_RE.sub(" ", html)
    return (
        html.replace("&nbsp;", " ")
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )


# ---------------------------------------------------------------------------
# TfIdf body text (TfIdf.java:323-351)
# ---------------------------------------------------------------------------

_TF_NAVBLOCK_RE = re.compile(r"(?is)<(nav|header|footer|aside)[^>]*>.*?</\1>")


def extract_body_text_tfidf(html: str | None) -> str:
    """``TfIdf.extractBodyText`` (``TfIdf.java:323-351``)."""
    return _collapse_ws_strip(raw_body_text_tfidf(html))


def raw_body_text_tfidf(html: str | None) -> str:
    """:func:`extract_body_text_tfidf` before its whitespace collapse,
    which the TfIdf job's ``[^a-z]+`` tokenizer makes redundant."""
    if not html:
        return ""
    cleaned = _PR_SCRIPT_RE.sub(" ", html)
    cleaned = _PR_STYLE_RE.sub(" ", cleaned)
    cleaned = _PR_COMMENT_RE.sub(" ", cleaned)
    body_start = cleaned.lower().find("<body")
    if body_start >= 0:
        close = cleaned.find(">", body_start)
        if close >= 0:
            body_end = cleaned.lower().find("</body>", close + 1)
            if body_end > close:
                cleaned = cleaned[close + 1 : body_end]
    cleaned = _TF_NAVBLOCK_RE.sub(" ", cleaned)
    cleaned = _IX_TAG_RE.sub(" ", cleaned)
    return (
        cleaned.replace("&nbsp;", " ")
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )


# ---------------------------------------------------------------------------
# PageRank out-link extraction (PageRank.java:708-783).
# Returns at most MAX_OUT_LINKS normalized links (set semantics; the
# reference uses a HashSet, we keep first-found insertion order and
# document the deterministic choice — see SURVEY §7.3).
# ---------------------------------------------------------------------------

MAX_OUT_LINKS = 30

from .urlnorm import pagerank_normalize_url  # noqa: E402


def extract_links_pagerank(source_url: str | None, html: str | None) -> list[str]:
    links: list[str] = []
    seen: set[str] = set()
    if html is None or source_url is None:
        return links
    lower = html.lower()
    pos = 0
    n = len(html)
    while True:
        pos = lower.find("<a", pos)
        if pos == -1:
            break
        tag_end = lower.find(">", pos)
        if tag_end == -1:
            break
        href_pos = lower.find("href=", pos)
        if href_pos == -1 or href_pos > tag_end:
            pos = tag_end + 1
            continue
        start = href_pos + 5
        if start >= n:
            pos = tag_end + 1
            continue
        first = html[start]
        if first in ('"', "'"):
            url_start = start + 1
            url_end = html.find(first, url_start)
            if url_end == -1 or url_end > tag_end:
                pos = tag_end + 1
                continue
        else:
            url_start = start
            space = html.find(" ", url_start)
            gt = html.find(">", url_start)
            url_end = gt if space == -1 else (space if gt == -1 else min(space, gt))
            if url_end == -1 or url_end > tag_end:
                url_end = tag_end
        if url_start >= url_end:
            pos = tag_end + 1
            continue
        href = html[url_start:url_end].strip()
        if not href:
            pos = tag_end + 1
            continue
        lh = href.lower()
        if lh.startswith(("#", "mailto:", "javascript:", "tel:", "data:", "ftp:")):
            pos = tag_end + 1
            continue
        normalized = pagerank_normalize_url(href, source_url)
        if normalized is not None and normalized != source_url:
            if normalized not in seen:
                seen.add(normalized)
                links.append(normalized)
                if len(links) >= MAX_OUT_LINKS:
                    break
        pos = tag_end + 1
    return links


# ---------------------------------------------------------------------------
# Interleaved span payload (BASELINE.json input_hint):
# spans: list<struct<kind: string, text: string, media_ref: string, offset: int32>>
# kind ∈ {"title","text","link","media"}; offsets strictly increasing.
# ---------------------------------------------------------------------------


def build_span_columns(html: str | None):
    """Columnar form of :func:`build_spans`: four parallel lists
    ``(kinds, texts, media_refs, offsets)`` sorted by (offset, kind),
    plus the raw hrefs in document-scan order (= the link-span texts
    before sorting — the fetch stage previously ran the link scan a
    second time for them).  The hot fetch path builds Arrow arrays
    straight from these lists instead of materializing one Python dict
    per span (~135 dicts/page × 60k pages/wave at bench scale)."""
    if html is None:
        return [], [], [], [], []
    rows: list[tuple[int, str, str, str]] = []  # (offset, kind, text, ref)
    lower = html.lower()

    title = extract_title(html)
    if title:
        rows.append((max(lower.find("<title"), 0), "title", title, ""))

    text = extract_body_text_index(html)
    if text:
        b_off = lower.find("<body")
        if b_off != -1:
            close = html.find(">", b_off)
            b_off = close + 1 if close != -1 else b_off
        rows.append((max(b_off, 0), "text", text, ""))

    link_rows = extract_urls_with_offsets(html)
    raw_links = [u for u, _ in link_rows]
    for href, off in link_rows:
        rows.append((off, "link", href, ""))
    for src, off in extract_media_with_offsets(html):
        rows.append((off, "media", "", src))

    rows.sort(key=lambda r: (r[0], r[1]))
    return (
        [r[1] for r in rows],
        [r[2] for r in rows],
        [r[3] for r in rows],
        [r[0] for r in rows],
        raw_links,
    )


def build_spans(html: str | None) -> list[dict]:
    """Render a fetched page into the interleaved text+media span list.

    - one ``title`` span (reference title semantics) at the offset of
      ``<title`` (if a non-empty title exists);
    - one ``link`` span per raw href from the reference link scan, text
      = raw href exactly as written, offset = href value start;
    - one ``media`` span per media ``src``, media_ref = src value;
    - one ``text`` span with the Indexer-cleaned body text at the
      offset of the body content (or 0).

    Spans are sorted by offset (ties: title < text < link < media by
    construction of distinct offsets in the fixtures).
    """
    kinds, texts, refs, offs, _raw = build_span_columns(html)
    return [
        {"kind": k, "text": t, "media_ref": r, "offset": o}
        for k, t, r, o in zip(kinds, texts, refs, offs)
    ]
