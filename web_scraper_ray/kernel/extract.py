"""Per-page extraction kernel — the single pure function applied to every
page. Reconstructs the record contract of the reference's (missing)
``Scraper._scrape`` core from its consumers (SURVEY.md §0 fact 1, §1.1):

    html bytes → {title, content_html, text, og_metadata, images, links,
                  token_count}

Pipeline per page:
1. parse HTML (stdlib DOM, ``dom.py``) into a ``Document``, whose
   preorder ``elements``/``comments`` index steps 2-5 and the markdown
   main-content pick read instead of walking the tree
2. title  = first ``<title>`` text (consumed by ``base_formatter.py:54``)
3. images = every ``<img[src]>`` with urljoin + alt + width/height,
   extracted **pre-cleaning** so the dimension attributes survive
   (``scraper.py:237-261``; cleaning would prune width/height,
   ``scraper.py:291-297``)
4. links  = every ``<a[href]>`` urljoin'd, document order — the frontier
   expansion edge set (same extraction shape as images, SURVEY.md M13)
5. clean  = ``clean_document`` (``scraper.py:263-405``) → content_html
   (serialized cleaned doc) + og struct
6. text   = ``html_to_markdown(content_html)``
   (``markdown_formatter.py:85-129``) — the byte-identical parity column
7. token_count = ``count_tokens(content_html)`` (``scraper.py:407-426``)
8. release the tree (``Document.release``), so reference counting, not
   the cyclic GC, frees it

Whole-tree walks per page: four, down from about twelve. They are
``normalize_text_nodes``'s text-node scan, ``serialize``,
``merge_adjacent_text`` and the markdown traversal of the main content
(whose handled elements also read their own subtrees with ``get_text``).
Every step that only looks for nodes (title, images, anchors, og,
boilerplate, the attr/li/span/comment pass, span parents, main content)
reads the parse index instead.
"""

from __future__ import annotations

from ..dom import Document, merge_adjacent_text, parse
from ..functions.urls import resolve_link
from .clean import clean_document
from .markdown import markdown_from_doc
from .tokens import count_tokens


def extract_images(doc: Document, base_url: str) -> list[dict]:
    """scraper.py:237-261 — flat dicts (width/height as strings, only
    present keys emitted there; here always-present empty-string columns
    so the Arrow schema is fixed). Like the title, link and anchor
    readers below it reads ``doc``'s index, so ``doc`` must be as
    ``parse`` returned it."""
    images = []
    for img in doc.elements:
        if img.name != "img":
            continue
        src = img.get("src")
        if src:
            images.append(
                {
                    "url": resolve_link(base_url, src),
                    "alt": img.get("alt", "") or "",
                    "width": img.get("width", "") or "",
                    "height": img.get("height", "") or "",
                }
            )
    return images


def extract_links(doc: Document, base_url: str) -> list[str]:
    """Document-order absolute URLs of all ``<a href>`` (the link-
    extraction twin of ``_extract_images``, SURVEY.md M13)."""
    links = []
    for a in doc.elements:
        if a.name != "a":
            continue
        href = a.get("href")
        if href:
            links.append(resolve_link(base_url, href))
    return links


def extract_anchors(doc: Document, base_url: str) -> list[dict]:
    """Document-order (url, text) pairs of all ``<a href>`` — the link
    targets WITH their anchor text, emitted in the SAME kernel walk so
    the link graph and the anchor-text corpus derive from the crawl's
    one extraction pass instead of a second full-corpus DOM parse
    (ops/graph.py:edges_from_output / anchors_from_output)."""
    anchors = []
    for a in doc.elements:
        if a.name != "a":
            continue
        href = a.get("href")
        if href:
            anchors.append({"url": resolve_link(base_url, href),
                            "text": a.get_text()})
    return anchors


def extract_title(doc: Document) -> str:
    for t in doc.elements:
        if t.name == "title":
            return t.get_text(strip=True)
    return ""


def extract_page(html: bytes | str, url: str) -> dict:
    """The full kernel (see module docstring). Pure and deterministic."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    doc = parse(html)
    try:
        title = extract_title(doc)
        images = extract_images(doc, url)
        anchors = extract_anchors(doc, url)
        # same pass, same filter: links IS anchors' url column (one read
        # of the index feeds both the frontier edge set and the anchors)
        links = [a["url"] for a in anchors]
        cleaned, og = clean_document(doc)  # mutates doc in place
        content_html = cleaned.serialize()
        # Equivalent to html_to_markdown(content_html) — the reference
        # reparses the serialized soup (markdown_formatter.py:95); the
        # only tree-level effect of that round trip is adjacent-text
        # merging + empty-text dropping, applied directly here
        # (dom.merge_adjacent_text, equivalence locked by
        # test_markdown_roundtrip_equivalence).
        merge_adjacent_text(cleaned)
        text = markdown_from_doc(cleaned)
    finally:
        doc.release()
    return {
        "url": url,
        "title": title,
        "content_html": content_html,
        "text": text,
        "og_title": og.get("og_title", ""),
        "og_description": og.get("og_description", ""),
        "og_image": og.get("og_image", ""),
        "images": images,
        "links": links,
        "anchors": anchors,
        "token_count": count_tokens(content_html),
    }
