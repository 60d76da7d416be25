"""Adversarial-input robustness: the kernel and the extraction stage
must survive arbitrary byte garbage (a crawler cannot die on a bad
page)."""

import re

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from web_scraper_ray.dom import parse
from web_scraper_ray.kernel.extract import extract_page

from test_dom import node_stream, reference_tree


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=400))
def test_extract_page_never_raises_on_text(payload):
    rec = extract_page(payload, "https://f.example/x")
    assert isinstance(rec["text"], str)
    assert isinstance(rec["links"], list)


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=400))
def test_extract_page_never_raises_on_bytes(payload):
    rec = extract_page(payload, "https://f.example/x")
    assert isinstance(rec["text"], str)


def test_extract_page_html_ish_garbage():
    nasties = [
        "<div><p>unclosed",
        "<<<<>>>>",
        "<a href='>broken",
        "<!-- unterminated",
        "&#x110000; &notanentity; &#;",
        "<p>" * 2000,          # deep nesting
        "</p>" * 50 + "<div>x</div>",
        "\x00\x01 control <b>chars</b>",
        "<script>alert('<div>')</script><p>after</p>",
        "<html><body><main>" + "ok " * 10,
        "<div>" * 100_000,     # deeper than any recursion limit
    ]
    for html in nasties:
        rec = extract_page(html, "https://n.example/")
        assert isinstance(rec["text"], str)
        tree = parse(html)
        assert node_stream(tree) == node_stream(reference_tree(html))
        assert tree.serialize()


def test_extract_batch_contains_per_row_failures(ray_session, monkeypatch):
    """A kernel exception on one row becomes extract_ok=False; the other
    rows in the batch still extract."""
    import web_scraper_ray.stages.extract_stage as es

    real = es.extract_page

    def bomb(html, url):
        if "poison" in url:
            raise ValueError("boom")
        return real(html, url)

    monkeypatch.setattr(es, "extract_page", bomb)
    batch = pa.table(
        {
            "url": pa.array(
                ["https://ok.example/a", "https://poison.example/b",
                 "https://ok.example/c"],
                pa.string(),
            ),
            "html": pa.array([b"<p>one</p>", b"<p>two</p>", b"<p>three</p>"],
                             pa.binary()),
        }
    )
    out = es.extract_batch(batch)
    oks = out["extract_ok"].to_pylist()
    assert oks == [True, False, True]
    errs = out["extract_error"].to_pylist()
    assert "ValueError: boom" in errs[1]
    assert out["text"].to_pylist()[1] == ""
    assert "three" in out["text"].to_pylist()[2]


def test_extract_page_leaves_no_cyclic_garbage():
    """``extract_page`` releases each page's tree, so with the cyclic GC
    off, 200 corpus pages leave nothing for ``gc.collect`` to find."""
    import gc

    from web_scraper_ray.corpus import build_page_rows

    rows = build_page_rows(seed=5, lo=0, hi=200, n_pages=200, n_hosts=20)
    pages = list(zip(rows["url"].to_pylist(), rows["html"].to_pylist()))
    gc.collect()
    gc.disable()
    try:
        for url, html in pages:
            extract_page(html, url)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_markdown(doc):
    """The reference worklist (markdown_formatter.py:141,276-283), cut
    down to the text and ``<p>`` handlers: ``pop(0)``, with children
    inserted at the front."""
    from web_scraper_ray.dom import TextNode

    out, stack = [], [(doc, 0)]
    while stack:
        node, depth = stack.pop(0)
        if isinstance(node, TextNode):
            if node.text.strip():
                out.append(node.text.strip())
            continue
        if node.name == "p" and node.get_text(strip=True):
            out.append(f"{node.get_text(strip=True)}\n\n")
        for child in reversed(list(node.children)):
            stack.insert(0, (child, depth + 1))
    return re.sub(r"\n{3,}", "\n\n", "\n".join(out))


def test_markdown_worklist_keeps_the_reference_order():
    """The markdown traversal emits what the reference worklist emits:
    on small nested pages against the reference itself, and on 20,000
    sibling paragraphs, where the reference's front inserts are
    quadratic in the sibling count, quickly."""
    import time

    from web_scraper_ray.kernel.markdown import html_to_markdown

    for n in (0, 1, 2, 5, 40):
        html = "<body>" + "".join(f"<p>p{i}</p>t{i}<div>u{i}<p>d{i}</p>e{i}</div>"
                                  for i in range(n)) + "</body>"
        assert html_to_markdown(html) == _reference_markdown(parse(html))
    n = 20_000
    html = "<body>" + "<p>x</p>" * n + "</body>"
    t0 = time.perf_counter()
    md = html_to_markdown(html)
    assert time.perf_counter() - t0 < 5.0
    assert md == _reference_markdown(parse(html))


def test_extract_page_releases_the_tree_when_it_raises(monkeypatch):
    """A kernel step that raises partway still leaves the page's tree
    released, and ``extract_batch`` turns the error into that row's
    ``extract_ok=False``."""
    import web_scraper_ray.kernel.extract as ex
    import web_scraper_ray.stages.extract_stage as es

    docs = []
    real_parse, real_markdown = ex.parse, ex.markdown_from_doc

    def spy_parse(html):
        doc = real_parse(html)
        docs.append((doc, list(doc.elements)))
        return doc

    def bomb(doc):
        if "poison" in doc.find("p").get_text():
            raise ValueError("boom")
        return real_markdown(doc)

    monkeypatch.setattr(ex, "parse", spy_parse)
    monkeypatch.setattr(ex, "markdown_from_doc", bomb)
    with pytest.raises(ValueError, match="boom"):
        extract_page("<div><p>poison <b>x</b></p></div>", "https://p.example/")
    doc, elements = docs.pop()
    assert len(elements) == 3
    assert doc.children == [] and doc.elements == [] and doc.comments == []
    assert all(el.children == [] for el in elements)

    batch = pa.table({"url": ["https://ok.example/a", "https://p.example/b"],
                      "html": [b"<p>fine</p>", b"<p>poison</p>"]})
    out = es.extract_batch(batch)
    assert out["extract_ok"].to_pylist() == [True, False]
    assert out["extract_error"].to_pylist()[1] == "ValueError: boom"
    assert "fine" in out["text"].to_pylist()[0]
    assert all(d.elements == [] and d.children == [] for d, _els in docs)
