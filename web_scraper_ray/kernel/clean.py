"""HTML cleaning pipeline — reproduces ``contxt.scraper.Scraper._clean_html``
(`/root/reference/contxt/scraper.py:263-405`) on the stdlib DOM.

Order of operations (as in the reference):

1. OpenGraph metadata extraction (pre-cleaning copy)  — ``scraper.py:277,324-343``
2. boilerplate element removal                         — ``scraper.py:279-285``
3. HTML comment removal                                — ``scraper.py:287-289``
4. attribute pruning to {href, src, alt}               — ``scraper.py:291-297``
5. within-document ``<li>`` dedup (first-wins)         — ``scraper.py:345-363``
6. adjacent-``<span>`` concatenation                   — ``scraper.py:365-405``
7. text-node normalization (svg strip, ws collapse)    — ``scraper.py:305-320``

Fidelity note on step 2: the reference passes CSS-ish strings like
``"[class*='menu']"`` into ``soup([...])`` which does *tag-name*
matching — those strings match no tag name, so the *effective* behavior
(reproduced here, per SURVEY.md §2.3 M6) is removal of the literal tag
list only.
"""

from __future__ import annotations

import re
from typing import Tuple

from ..dom import CommentNode, Document, Node, parse

# scraper.py:280-284 — only the real tag names take effect (see module
# doc). frozenset: name-membership is what bs4's name-list matching
# reduces to, and set lookup beats the reference's 20-entry list scan.
BOILERPLATE_TAGS = frozenset(
    [
        "script", "style", "header", "footer", "nav", "noscript",
        "form", "button", "input", "iframe", "aside", "svg",
        "[class*='menu']", "[class*='nav']", "[class*='footer']",
        "[class*='header']", "[id*='menu']", "[id*='nav']",
        "[id*='footer']", "[id*='header']",
    ]
)

ALLOWED_ATTRS = ("href", "src", "alt")  # scraper.py:293

_SVG_RE = re.compile(r"<svg.*?</svg>\s*", re.DOTALL)  # scraper.py:315
_WS_RE = re.compile(r"\s+")  # scraper.py:317


#: og ``property`` → record key (``scraper.py:324-343``)
_OG_KEYS = {"og:title": "og_title", "og:description": "og_description",
            "og:image": "og_image"}


def extract_og_metadata(doc: Document) -> dict:
    """OpenGraph metadata → dict (``scraper.py:324-343``). Only keys with
    truthy ``content`` are present, exactly like the reference.

    The reference runs one ``find`` per property; each takes the first
    ``meta`` with that property in document order. One pass over the
    index's metas records the same first match per property."""
    first: dict = {}
    for el in doc.elements:
        if el.name == "meta":
            key = _OG_KEYS.get(el.attrs.get("property"))
            if key is not None and key not in first:
                first[key] = el.attrs.get("content")
    return {key: first[key] for key in _OG_KEYS.values() if first.get(key)}


def _remove_boilerplate(doc: Document) -> None:
    """A listed element inside an already removed subtree is decomposed
    out of its detached parent, which the live tree never sees."""
    for element in doc.elements:
        if element.name in BOILERPLATE_TAGS:
            element.decompose()


def deduplicate_list_items(doc: Node) -> None:
    """Two-phase ``<li>`` dedup on ``get_text(strip=True)``, first
    occurrence in document order wins (``scraper.py:345-363``)."""
    _dedup_lis(doc.find_all("li"))


def concatenate_spans(doc: Node) -> None:
    """Merge adjacent sibling ``<span>`` pairs into the *second* span and
    drop the first (``scraper.py:365-405``). Adjacency is over the raw
    child list — an intervening text node (even whitespace) breaks it,
    exactly as in the reference. Chained runs fold left-to-right because
    the merged text is written into the next span before it is visited.

    Reference shape note: ``find_all(lambda tag: tag.find('span'))`` —
    every element with a span DESCENDANT, in document order
    (scraper.py:371). A literal port rescans descendants per element
    (O(n²)); ``_concat_spans_from`` instead climbs each span's ancestor
    chain and emits the same set in one document-order pass — identical
    result, linear time."""
    _concat_spans_from(doc, doc.find_all("span"))


def normalize_text_nodes(doc: Node) -> None:
    """Strip inline ``<svg…</svg>`` remnants and collapse whitespace in
    every text node (``scraper.py:305-320``). Without ``<svg`` the two
    regexes reduce to ``" ".join(s.split())``: ``re``'s ``\\s`` and
    ``str.split()`` agree on every code point (tests/test_kernel_golden.py
    checks all of them)."""
    for node in doc.find_all(string=True):
        if node.parent is not None and not isinstance(node, CommentNode):
            s = node.text
            if s:
                if "<svg" in s:
                    cleaned = _WS_RE.sub(" ", _SVG_RE.sub("", s)).strip()
                else:
                    cleaned = " ".join(s.split())
                if cleaned != s:
                    node.replace_with(cleaned)


def _dedup_lis(lis: list[Node]) -> None:
    """The two-phase loop of :func:`deduplicate_list_items` over an
    already-collected document-order li list."""
    seen: set[str] = set()
    to_remove = []
    for li in lis:
        text = li.get_text(strip=True)
        if text in seen:
            to_remove.append(li)
        else:
            seen.add(text)
    for li in to_remove:
        li.decompose()


def _concat_spans_from(doc: Document, spans: list[Node]) -> None:
    """:func:`concatenate_spans` body over a pre-collected span list.
    The parents are taken in index order, which is document order. A
    span inside a since-removed subtree makes its detached ancestors
    parents too: merging spans there only edits nodes the live tree no
    longer holds, so the live tree ends as if they had been skipped."""
    ancestor_set: set[int] = set()
    for span in spans:
        node = span.parent
        while node is not None and node is not doc:
            ancestor_set.add(id(node))
            node = node.parent
    if not ancestor_set:
        return
    parents = [n for n in doc.elements if id(n) in ancestor_set]
    for parent in parents:
        children = list(parent.children)
        spans_to_remove = []
        i = 0
        while i < len(children) - 1:
            current = children[i]
            next_elem = children[i + 1]
            if current.name == "span" and next_elem.name == "span":
                current_text = current.get_text(strip=True)
                next_text = next_elem.get_text(strip=True)
                if current_text and next_text:
                    merged = f"{current_text} {next_text}"
                    if next_elem.string:
                        next_elem.string = merged
                    else:
                        next_elem.clear()
                        next_elem.append(merged)
                    spans_to_remove.append(current)
            i += 1
        for span in spans_to_remove:
            span.decompose()


def clean_document(doc: Document) -> Tuple[Document, dict]:
    """Run the full cleaning pipeline in place; returns ``(doc, og)``.

    Steps 3-6 read the parse index instead of walking the tree: attrs
    are pruned and li/span elements collected in one pass over
    ``doc.elements``, comments come from ``doc.comments``, then each
    step runs in the reference's order. Nodes inside removed subtrees
    are listed too. Pruning their attrs, extracting their comments and
    merging their spans edits only detached nodes. An li is the one
    exception: its text feeds the first-wins set, so only lis the
    document still holds take part, exactly the lis the sequential
    pipeline would find (the byte-parity golden gate pins this)."""
    og_metadata = extract_og_metadata(doc)
    _remove_boilerplate(doc)

    lis: list[Node] = []
    spans: list[Node] = []
    for node in doc.elements:
        if node.attrs:
            node.attrs = {k: v for k, v in node.attrs.items()
                          if k in ALLOWED_ATTRS}
        name = node.name
        if name == "li":
            if doc.holds(node):
                lis.append(node)
        elif name == "span":
            spans.append(node)

    for c in doc.comments:
        c.extract()
    _dedup_lis(lis)
    _concat_spans_from(doc, spans)
    normalize_text_nodes(doc)
    return doc, og_metadata


def clean_html(html: str) -> Tuple[str, dict]:
    """Parse → clean → serialize. Equivalent to the reference's
    ``_clean_html`` + ``str(soup_copy)`` round trip (``scraper.py:274``
    reparses the serialized soup, which our parse-once achieves because
    the corpus HTML is produced by this same serializer)."""
    doc = parse(html)
    doc, og = clean_document(doc)
    return doc.serialize(), og
