"""DOM layer unit tests (web_scraper_ray/dom.py)."""

import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from web_scraper_ray.dom import (CommentNode, Document, Node, TextNode, _scan,
                                 _TreeBuilder, parse)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def node_stream(root):
    """Preorder (kind, name, attr items in order, text) tuples, with a
    close marker per element, so equal streams mean equal trees."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(("close", node))
        elif isinstance(node, CommentNode):
            out.append(("comment", node.text))
        elif isinstance(node, TextNode):
            out.append(("text", node.text))
        else:
            out.append(("open", node.name, tuple(node.attrs.items())))
            stack.append(node.name)
            stack.extend(reversed(node.children))
    return out


def reference_tree(html):
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def test_parse_basic_tree():
    doc = parse("<div><p>hello <b>world</b></p></div>")
    div = doc.find("div")
    assert div is not None
    p = div.find("p")
    assert p.get_text() == "hello world"


def test_get_text_strip_matches_bs4_semantics():
    # bs4 get_text(strip=True) strips each string and drops empties,
    # joining with '' — "a " + "b" -> "ab"
    doc = parse("<p>a <b>b</b></p>")
    assert doc.find("p").get_text(strip=True) == "ab"
    assert doc.find("p").get_text() == "a b"


def test_void_elements_do_not_nest():
    doc = parse("<p>one<br>two<img src='x.png'>three</p>")
    p = doc.find("p")
    assert p.get_text() == "onetwothree"
    assert [c.name for c in p.children if c.name] == ["br", "img"]


def test_comments_are_text_subclass_like_bs4():
    doc = parse("<div><!-- note -->text</div>")
    comments = [n for n in doc.find_all(string=True) if isinstance(n, CommentNode)]
    assert len(comments) == 1
    assert comments[0].text == " note "
    # comments excluded from get_text (bs4 behavior)
    assert doc.find("div").get_text() == "text"


def test_entity_decoding_and_minimal_reescape():
    doc = parse("<p>a &amp; b &lt;c&gt;</p>")
    assert doc.find("p").get_text() == "a & b <c>"
    assert "a &amp; b &lt;c&gt;" in doc.serialize()


def test_attr_handling_and_class_multivalue():
    doc = parse('<div class="content box" id="main" data-x="1">t</div>')
    d = doc.find("div", {"class": "content"})
    assert d is not None
    assert doc.find("div", {"class": "box"}) is not None
    assert doc.find("div", {"class": "content box"}) is None  # token match only
    assert doc.find("div", {"id": "main"}) is d


def test_find_recursive_false():
    doc = parse("<ul><li>a<ul><li>nested</li></ul></li><li>b</li></ul>")
    ul = doc.find("ul")
    direct = ul.find_all("li", recursive=False)
    assert [li.get_text(strip=True).startswith(p) for li, p in zip(direct, ("a", "b"))]
    assert len(direct) == 2
    assert len(ul.find_all("li")) == 3


def test_decompose_and_replace_with():
    doc = parse("<div><span>x</span><p>keep</p></div>")
    doc.find("span").decompose()
    assert doc.find("span") is None
    doc.find("p").replace_with("plain")
    assert doc.find("div").get_text() == "plain"


def test_string_property_forwarding():
    doc = parse("<p><b>only</b></p>")
    assert doc.find("p").string == "only"
    doc2 = parse("<p>a<b>b</b></p>")
    assert doc2.find("p").string is None


def test_string_setter_replaces_children():
    doc = parse("<span><i>a</i>b</span>")
    span = doc.find("span")
    span.string = "new"
    assert span.get_text() == "new"
    assert len(span.children) == 1


def test_mismatched_end_tag_ignored():
    doc = parse("<div>a</span>b</div>")
    assert doc.find("div").get_text() == "ab"


def test_serialize_roundtrip_stable():
    html = '<div alt="a&quot;b"><p>x &amp; y</p><br/><img src="i.png" alt="z"/></div>'
    once = parse(html).serialize()
    twice = parse(once).serialize()
    assert once == twice


def test_valueless_attrs_normalize_to_empty_string():
    # bs4's html.parser builder stores <a href> as href="" (html.parser
    # itself yields None); the markdown kernel then renders [click]()
    doc = parse("<body><a href>click</a></body>")
    a = doc.find("a")
    assert a.get("href", "") == ""
    assert 'href=""' in doc.serialize()
    from web_scraper_ray.kernel.markdown import html_to_markdown

    assert "[click]()" in html_to_markdown("<body><p>x</p><a href>click</a></body>")


def test_text_replace_with_detaches_the_old_node():
    doc = parse("<p>old<b>x</b></p>")
    old = doc.find("p").children[0]
    old.replace_with("new")
    assert old.parent is None
    assert old.extract() is old  # detached: a no-op, not a ValueError
    assert doc.find("p").get_text() == "newx"


# -- the fast scanner and its html.parser fallback -----------------------

SOUP = [
    "<", ">", "/", "=", '"', "'", " ", "\n", "\r\n", "\t", "\x0b", "\xa0", "-",
    "text", "a", "B", "é", "\x00", "&", "&amp;", "&copy", "&#x110000;", "&#1;",
    "&lt", ";", "<a", "<A", "<a>", "</a>", "</A>", "<b>", "</b>", "<I>", "</i>",
    "<p>", "</p>", "<DIV", "</div>", "<br>", "</br>", "<br/>", "<img src=x>",
    "<x-y>", "</x-y>", "<script>",
    "</script>", "<SCRIPT>", "<script/>", "<style>", "</STYLE>", "</style>",
    "<!--", "-->", "--!>", "<!--->", "<!-->", "<!", "<?php ?>", "<?",
    "<!DOCTYPE html>", "<!doctype", " b", " b=c", " b=c/", ' b="v"', " b='v w'",
    " B=x", " b=&amp;", " c d", "/>", "<a b=c/>", "</ p>", "</>",
]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SOUP), max_size=24).map("".join))
def test_parse_equals_tree_builder_on_tag_soup(html):
    """Whichever path ran, parse builds html.parser's tree."""
    assert node_stream(parse(html)) == node_stream(reference_tree(html))


@pytest.mark.parametrize("html,fast", [
    ("<DIV Class=A>x</DIV>y", True),
    ("<a><b><i>x</a>y</b>z", True),
    ("<STYLE>p{}</style>", True),
    ("<a b=c />", True),
    ("<a href=http://x/ >t</a>", True),
    ('<a b=1 b=2 c B=3>', True),
    ("<p\r\nclass='a'\n>x\r\n</p>", True),
    ("x &copy &#x110000; &#1;", True),
    ("</br><x-y>z</x-y><script/>x", True),
    ("<!DOCTYPE html><!-- c -- d --><p>", True),
    ("<a b=c/>", False),
    ("a < b", False),
    ("<?php ?>", False),
    ("<!x>", False),
    ("<!--->", False),
    ("<!--a--!>b-->", False),
    ("<div", False),
    ("<!-- open", False),
    ("<script>a</div></script>", False),
    ("<script>x", False),
])
def test_scan_subset_boundary(html, fast):
    assert (_scan(html) is not None) == fast
    assert node_stream(parse(html)) == node_stream(reference_tree(html))


def test_corpus_and_fixture_pages_take_the_fast_path():
    """The speedup must not silently move to the fallback: every golden
    fixture, its committed content_html (what the htmlfmt, xmlfmt and
    markdown renderers re-parse) and every page of a small synthetic
    corpus stay inside the scanner's subset."""
    from web_scraper_ray.corpus import build_page_rows
    from web_scraper_ray.kernel.extract import extract_page

    docs = []
    for path in sorted(glob.glob(f"{FIXTURE_DIR}/*.html")):
        with open(path, encoding="utf-8") as f:
            docs.append(f.read())
        with open(path[:-5] + ".json", encoding="utf-8") as f:
            docs.append(json.load(f)["content_html"])
    rows = build_page_rows(seed=11, lo=0, hi=40, n_pages=40, n_hosts=5)
    for raw in rows["html"].to_pylist():
        html = raw.decode("utf-8")
        docs += [html, extract_page(html, "https://c.example/")["content_html"]]
    assert len(docs) == 90
    for html in docs:
        tree = _scan(html)
        assert tree is not None, html[:200]
        assert node_stream(tree) == node_stream(reference_tree(html))


# -- the document index --------------------------------------------------

def _same_nodes(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SOUP), max_size=24).map("".join))
def test_index_lists_the_fresh_tree_in_preorder(html):
    """On both parse paths ``elements`` is ``find_all(True)`` and
    ``comments`` the comment nodes, node for node, in document order."""
    docs = [reference_tree(html)]
    if _scan(html) is not None:
        docs.append(_scan(html))
    for doc in docs:
        assert isinstance(doc, Document)
        assert _same_nodes(doc.elements, doc.find_all(True))
        assert _same_nodes(doc.comments, [n for n in doc.find_all(string=True)
                                          if isinstance(n, CommentNode)])


def test_holds_follows_removals():
    doc = parse("<div><ul><li>a</li></ul><p>b<!--c--></p></div><i>d</i>")
    div, ul, li, p, i = doc.elements
    assert all(doc.holds(n) for n in doc.elements + doc.comments)
    ul.decompose()
    p.children[0].replace_with("e")
    assert [doc.holds(n) for n in doc.elements] == [True, False, False, True, True]
    assert doc.holds(doc.comments[0])
    doc.comments[0].extract()
    assert not doc.holds(doc.comments[0])
    assert _same_nodes([n for n in doc.elements if doc.holds(n)], doc.find_all(True))


def test_release_empties_the_tree():
    doc = parse("<div><p>a<b>b</b></p><!--c--></div>tail")
    els = list(doc.elements)
    doc.release()
    assert doc.children == [] and doc.elements == [] and doc.comments == []
    assert all(el.children == [] for el in els)
