"""HTML → Markdown conversion — reproduces
``contxt.formatters.markdown_formatter.MarkdownFormatter``
(`/root/reference/contxt/formatters/markdown_formatter.py:85-283`) on the
stdlib DOM, including its traversal quirks (they define the byte-level
output contract):

* The reference seeds its worklist ``[(root, 0)]``, takes from the front
  with ``pop(0)`` and pushes children to the *front* in reversed order
  (``markdown_formatter.py:141,276-283``) — i.e. depth-first preorder.
  Here the front is the list's end (``pop()``, children pushed in
  reverse), the same visit order without the O(n²) front inserts; the
  unused depth is dropped.
* Handled elements (h1-h6, p, a, img, strong/em/code, hr, br) do **not**
  skip their children, so their text nodes are emitted a second time as
  raw text — only ``pre/blockquote/ul/ol/table`` subtrees are skipped
  (``markdown_formatter.py:281``). Reproduced verbatim.
* Main-content selection chain ``main / article / div#content /
  div.content / div[role=main] / body / document``
  (``markdown_formatter.py:104-114``).
* Post-processing: collapse 3+ newlines, force a blank line before
  headings (``markdown_formatter.py:120-126``).
"""

from __future__ import annotations

import re
from typing import Optional

from ..dom import Document, Node, TextNode, parse

_MULTI_NL_RE = re.compile(r"\n{3,}")  # markdown_formatter.py:123
_HEADING_GAP_RE = re.compile(r"([^\n])\n(#{1,6} )")  # markdown_formatter.py:126


def _class_list(tag: Optional[Node]) -> list[str]:
    """bs4 treats ``class`` as a multi-valued (whitespace-split) attribute;
    our DOM stores the raw string, so split here."""
    if tag is None:
        return []
    raw = tag.get("class")
    if not raw:
        return []
    return raw.split()


def find_main_content(doc: Document) -> Node:
    """markdown_formatter.py:104-114 (same chain in html_formatter.py:220-228).

    One pass over the parse index recording the first match of each
    rung of the fallback chain — identical result to six sequential
    ``find`` scans (each ``find`` returns the first match in document
    order). The index keeps elements the caller has since removed, so a
    candidate counts only while ``doc`` still holds it."""
    first: dict[int, Node] = {}
    holds = doc.holds
    for node in doc.elements:
        name = node.name
        if name == "main":
            if holds(node):
                return node  # highest priority; nothing can beat it
        elif name == "article":
            if 1 not in first and holds(node):
                first[1] = node
        elif name == "div":
            attrs = node.attrs
            if not attrs:
                continue
            if 2 not in first and attrs.get("id") == "content" and holds(node):
                first[2] = node
            if (3 not in first and "content" in (attrs.get("class") or "").split()
                    and holds(node)):
                first[3] = node
            if 4 not in first and attrs.get("role") == "main" and holds(node):
                first[4] = node
        elif name == "body":
            if 5 not in first and holds(node):
                first[5] = node
    for rank in (1, 2, 3, 4, 5):
        if rank in first:
            return first[rank]
    return doc


def _process_element_iteratively(root: Node, out: list[str]) -> None:
    """markdown_formatter.py:131-283, faithfully (see module docstring)."""
    stack = [root]
    while stack:
        element = stack.pop()

        if element.name is None and isinstance(element, TextNode):
            text = element.string.strip()
            if text:
                out.append(text)
            continue
        if element.name is None:  # pragma: no cover - parity with reference
            continue

        name = element.name
        if name in ("h1", "h2", "h3", "h4", "h5", "h6"):
            level = int(name[1])
            text = element.get_text(strip=True)
            out.append(f"\n{'#' * level} {text}\n")

        elif name == "p":
            text = element.get_text(strip=True)
            if text:
                out.append(f"{text}\n\n")

        elif name == "a":
            href = element.get("href", "")
            text = element.get_text(strip=True) or href
            out.append(f"[{text}]({href})")

        elif name == "img":
            src = element.get("src", "")
            alt = element.get("alt", "") or "Image"
            if src:
                out.append(f"![{alt}]({src})")

        elif name in ("strong", "b"):
            text = element.get_text(strip=True)
            if text:
                out.append(f"**{text}**")

        elif name in ("em", "i"):
            text = element.get_text(strip=True)
            if text:
                out.append(f"*{text}*")

        elif name == "code":
            code = element.get_text()
            if "`" in code:
                out.append(f"``{code}``")
            else:
                out.append(f"`{code}`")

        elif name == "pre":
            code = element.get_text()
            code_element = element.find("code")
            if code_element is not None:
                code = code_element.get_text()
            lang = ""
            for tag in (element, code_element):
                if tag is not None and _class_list(tag):
                    for cls in _class_list(tag):
                        if cls.startswith("language-"):
                            lang = cls[9:]
                            break
            out.append(f"```{lang}\n{code}\n```\n\n")
            continue  # children skipped

        elif name == "blockquote":
            text = element.get_text(strip=True)
            lines = text.split("\n")
            quoted = [f"> {line}" if line.strip() else ">" for line in lines]
            out.append("\n".join(quoted) + "\n\n")
            continue  # children skipped

        elif name in ("ul", "ol"):
            is_ordered = name == "ol"
            items = []
            for i, li in enumerate(element.find_all("li", recursive=False)):
                marker = f"{i + 1}." if is_ordered else "-"
                items.append(f"{marker} {li.get_text(strip=True)}")
            if items:
                out.append("\n".join(items) + "\n\n")
            continue  # children skipped

        elif name == "table":
            table_rows = []
            header_row = element.find("tr")
            if header_row is not None:
                headers, separators = [], []
                for th in header_row.find_all(["th", "td"]):
                    header_text = th.get_text(strip=True)
                    headers.append(header_text)
                    separators.append("-" * max(3, len(header_text)))
                if headers:
                    table_rows.append("| " + " | ".join(headers) + " |")
                    table_rows.append("| " + " | ".join(separators) + " |")
            rows = element.find_all("tr")
            for i, row in enumerate(rows):
                if i == 0 and header_row is not None:
                    continue
                cells = [c.get_text(strip=True) for c in row.find_all(["td", "th"])]
                if cells:
                    table_rows.append("| " + " | ".join(cells) + " |")
            if table_rows:
                out.append("\n".join(table_rows) + "\n\n")
            continue  # children skipped

        elif name == "hr":
            out.append("---\n\n")

        elif name == "br":
            out.append("\n")

        if name not in ("pre", "blockquote", "ul", "ol", "table"):
            stack.extend(reversed(element.children))


def markdown_from_doc(doc: Document) -> str:
    """Traverse an already-parsed document. The caller must ensure the
    tree is at its serialize→parse fixed point (``dom.merge_adjacent_text``)
    if it was not freshly parsed — the reference always converts from a
    serialized string (markdown_formatter.py:95), so adjacent text nodes
    arrive merged."""
    main_content = find_main_content(doc)
    out: list[str] = []
    _process_element_iteratively(main_content, out)
    raw = "\n".join(out)
    clean = _MULTI_NL_RE.sub("\n\n", raw)
    clean = _HEADING_GAP_RE.sub(r"\1\n\n\2", clean)
    return clean


def html_to_markdown(html: str) -> str:
    """markdown_formatter.py:85-129 — parse, select main content, traverse,
    post-process."""
    if not html:
        return ""
    return markdown_from_doc(parse(html))


def format_markdown(
    record: dict,
    include_images: bool = False,
    image_map: Optional[dict] = None,
    add_frontmatter: bool = True,
    include_source_link: bool = True,
) -> str:
    """Full markdown document envelope — ``markdown_formatter.py:27-83``.

    ``record`` is the per-URL record (SURVEY.md §1.1): keys ``content`` /
    ``content_html``, ``title``, ``url``, ``date``, ``og_metadata``,
    ``images``.
    """
    image_map = image_map or {}
    if not record.get("content"):
        return (
            f"# Error: {record.get('title', 'Unknown')}\n\n"
            f"Failed to fetch content from {record.get('url', 'Unknown URL')}"
        )

    # base_formatter.py:43-59 extract_metadata
    title = record.get("title", "")
    url = record.get("url", "")
    result = []
    if add_frontmatter:
        result.append("---")
        escaped_title = title.replace('"', '\\"')
        result.append(f'title: "{escaped_title}"')
        result.append(f'source: "{url}"')
        result.append(f'date: "{record.get("date", "")}"')
        og_metadata = record.get("og_metadata") or {}
        if og_metadata and "og_description" in og_metadata:
            escaped_desc = og_metadata["og_description"].replace('"', '\\"')
            result.append(f'description: "{escaped_desc}"')
        result.append("---\n")

    result.append(f"# {title}\n")
    if include_source_link:
        result.append(f"Source: [{url}]({url})\n")

    content_html = record.get("content_html", record.get("content", ""))
    result.append(html_to_markdown(content_html))

    if include_images and record.get("images"):
        result.append("\n## Images\n")
        for img in record["images"]:
            img_url = img["url"]
            img_alt = img.get("alt", "") or "Image"
            result.append(f"![{img_alt}]({image_map.get(img_url, img_url)})")

    return "\n".join(result)
