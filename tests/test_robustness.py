"""Adversarial-input robustness: the kernel and the extraction stage
must survive arbitrary byte garbage (a crawler cannot die on a bad
page)."""

import pyarrow as pa
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
