"""Golden extraction tests — one case per cleaning rule (FIXTURES.md §4,
SURVEY.md §5.1). Each cites the reference rule it locks in."""

from hypothesis import given, settings
from hypothesis import strategies as st

from web_scraper_ray.dom import parse
from web_scraper_ray.kernel.clean import (
    BOILERPLATE_TAGS,
    clean_html,
    concatenate_spans,
    deduplicate_list_items,
    extract_og_metadata,
    normalize_text_nodes,
)
from web_scraper_ray.kernel.extract import extract_images, extract_page
from web_scraper_ray.kernel.tokens import count_tokens
from web_scraper_ray.functions.urls import sanitize_filename


def test_boilerplate_tags_removed():  # scraper.py:279-285
    html = (
        "<body><script>x</script><style>y</style><header>h</header>"
        "<footer>f</footer><nav>n</nav><noscript>ns</noscript>"
        "<form>fo</form><button>b</button><input><iframe>i</iframe>"
        "<aside>a</aside><svg>s</svg><p>keep</p></body>"
    )
    cleaned, _ = clean_html(html)
    assert "<p>keep</p>" in cleaned
    for tag in ("script", "style", "header", "footer", "nav", "noscript",
                "form", "button", "input", "iframe", "aside", "svg"):
        assert f"<{tag}" not in cleaned


def test_class_selector_strings_are_inert():  # SURVEY M6 effective behavior
    html = '<body><div class="menu">menu-div stays</div><p>x</p></body>'
    cleaned, _ = clean_html(html)
    assert "menu-div stays" in cleaned


def test_html_comments_removed():  # scraper.py:287-289
    cleaned, _ = clean_html("<body><p>a</p><!-- secret --><p>b</p></body>")
    assert "secret" not in cleaned


def test_attr_prune_keeps_href_src_alt():  # scraper.py:291-297
    html = '<body><a href="u" class="x" id="y" title="t">l</a><img src="s" alt="a" width="9"></body>'
    cleaned, _ = clean_html(html)
    assert 'href="u"' in cleaned and 'src="s"' in cleaned and 'alt="a"' in cleaned
    for gone in ('class="x"', 'id="y"', 'title="t"', 'width="9"'):
        assert gone not in cleaned


def test_li_dedup_first_wins_order_preserved():  # scraper.py:345-363
    doc = parse("<ul><li>A</li><li>B</li></ul><ul><li>A</li><li>C</li></ul>")
    deduplicate_list_items(doc)
    texts = [li.get_text(strip=True) for li in doc.find_all("li")]
    assert texts == ["A", "B", "C"]


def test_li_dedup_matches_on_stripped_text():
    doc = parse("<ul><li> A </li><li>A</li></ul>")
    deduplicate_list_items(doc)
    assert len(doc.find_all("li")) == 1


def test_span_concat_merges_into_second():  # scraper.py:365-405
    doc = parse("<p><span>one</span><span>two</span></p>")
    concatenate_spans(doc)
    spans = doc.find_all("span")
    assert len(spans) == 1
    assert spans[0].get_text() == "one two"


def test_span_concat_chains_left_to_right():
    doc = parse("<p><span>a</span><span>b</span><span>c</span></p>")
    concatenate_spans(doc)
    spans = doc.find_all("span")
    assert len(spans) == 1
    assert spans[0].get_text() == "a b c"


def test_span_concat_broken_by_text_node():
    # whitespace between spans breaks adjacency (children list includes text nodes)
    doc = parse("<p><span>a</span> <span>b</span></p>")
    concatenate_spans(doc)
    assert len(doc.find_all("span")) == 2


def test_span_concat_skips_empty_spans():
    doc = parse("<p><span></span><span>b</span></p>")
    concatenate_spans(doc)
    assert len(doc.find_all("span")) == 2


def test_whitespace_collapse_and_svg_strip():  # scraper.py:305-320
    doc = parse("<p>  a \n\n b  </p>")
    normalize_text_nodes(doc)
    assert doc.find("p").get_text() == "a b"
    doc2 = parse("<p>&lt;svg&gt;junk&lt;/svg&gt; after</p>")
    normalize_text_nodes(doc2)
    # the reference regex targets literal '<svg...</svg>' inside text nodes
    assert doc2.find("p").get_text() == "after"


def test_og_metadata_extracted_pre_cleaning():  # scraper.py:324-343,277
    html = (
        '<head><meta property="og:title" content="T">'
        '<meta property="og:description" content="D">'
        '<meta property="og:image" content="I">'
        '<meta property="og:missing" content=""></head><body><p>x</p></body>'
    )
    og = extract_og_metadata(parse(html))
    assert og == {"og_title": "T", "og_description": "D", "og_image": "I"}


def test_og_empty_content_skipped():
    og = extract_og_metadata(parse('<meta property="og:title" content="">'))
    assert og == {}


def test_images_relative_resolved_with_dimensions():  # scraper.py:237-261
    doc = parse('<body><img src="/i.png" alt="pic" width="10" height="20"><img alt="nosrc"></body>')
    images = extract_images(doc, "https://ex.com/page/1")
    assert images == [
        {"url": "https://ex.com/i.png", "alt": "pic", "width": "10", "height": "20"}
    ]


def test_token_fallback_len_div_4():  # scraper.py:426
    assert count_tokens("x" * 41) in (41 // 4, count_tokens("x" * 41))
    # without tiktoken installed the estimator is exact:
    from web_scraper_ray.kernel.tokens import HAVE_TIKTOKEN
    if not HAVE_TIKTOKEN:
        assert count_tokens("abcd" * 10) == 10


def test_filename_sanitize():  # utils.py:15-24
    assert sanitize_filename('a/b\\c*d?e:f"g<h>i|j') == "abcdefghij"
    assert sanitize_filename("a  b\tc") == "a_b_c"
    assert len(sanitize_filename("x" * 300)) == 100


def test_extract_page_full_record():
    html = (
        "<html><head><title>T1</title>"
        '<meta property="og:title" content="OT"></head>'
        "<body><main><h1>H</h1><p>body text</p>"
        '<a href="/next">n</a></main></body></html>'
    )
    rec = extract_page(html.encode(), "https://h.example/a/b")
    assert rec["title"] == "T1"
    assert rec["og_title"] == "OT"
    assert rec["links"] == ["https://h.example/next"]
    assert "# H" in rec["text"]
    assert rec["token_count"] == len(rec["content_html"]) // 4 or rec["token_count"] > 0


# -- the parse index against the live tree --------------------------------
# Each consumer that reads ``doc.elements``/``doc.comments`` is checked
# against its find_all form over the live tree, after every clean step.

KERNEL_SOUP = [
    "<li>", "</li>", "<li>A</li>", "<li> A </li>", "<ul>", "</ul>", "<ol>", "</ol>",
    "<span>", "</span>", "<span>x</span>", "<span>y</span>", "<span></span>",
    "<nav>", "</nav>", "<header>", "</header>", "<footer>", "</footer>",
    "<script>s</script>", "<aside>", "</aside>", "<svg>", "</svg>",
    "<main>", "</main>", "<article>", "</article>", '<div id="content">',
    '<div class="a content">', '<div role="main">', "<div>", "</div>",
    "<body>", "</body>", "<p>", "</p>", "<!-- c -->", "<!--x-->",
    '<meta property="og:title" content="T">', '<meta property="og:title" content="">',
    '<meta property="og:image" content="I">', '<meta property="og:description" content="D">',
    '<img src="/i.png" alt="a" width="3">', '<img alt="n">', '<a href="/x">l</a>',
    "<a href>e</a>", '<a href="q" class="k">', "</a>", "<title>T</title>", "<title> U </title>",
    " ", "\n", "  w  x ", "text", "&lt;svg&gt;j&lt;/svg&gt; k", "a < b",
]


def _find_all_og(doc):
    og = {}
    for prop, key in (("og:title", "og_title"), ("og:description", "og_description"),
                      ("og:image", "og_image")):
        m = doc.find("meta", {"property": prop})
        if m is not None and m.get("content"):
            og[key] = m.get("content")
    return og


def _find_all_main(doc):
    for name, attrs in (("main", None), ("article", None), ("div", {"id": "content"}),
                        ("div", {"class": "content"}), ("div", {"role": "main"}),
                        ("body", None)):
        found = doc.find(name, attrs)
        if found is not None:
            return found
    return doc


def _span_parents(doc, spans):
    """``_concat_spans_from``'s parent list, from ``doc``'s live tree."""
    anc = set()
    for span in spans:
        node = span.parent
        while node is not None and node is not doc:
            anc.add(id(node))
            node = node.parent
    return anc


def _check_index(doc):
    from web_scraper_ray.dom import CommentNode
    from web_scraper_ray.kernel.markdown import find_main_content

    held = [n for n in doc.elements if doc.holds(n)]
    live = doc.find_all(True)
    assert len(held) == len(live) and all(a is b for a, b in zip(held, live))
    comments = [c for c in doc.comments if doc.holds(c)]
    assert comments == [n for n in doc.find_all(string=True) if isinstance(n, CommentNode)]
    assert find_main_content(doc) is _find_all_main(doc)
    anc = _span_parents(doc, doc.find_all("span"))
    assert ([n for n in doc.elements if id(n) in anc and doc.holds(n)]
            == [n for n in doc.find_all(True) if id(n) in anc])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(KERNEL_SOUP), max_size=60).map("".join))
def test_index_consumers_equal_find_all_after_each_clean_step(html):
    from web_scraper_ray.dom import merge_adjacent_text
    from web_scraper_ray.functions.urls import resolve_link
    from web_scraper_ray.kernel import clean
    from web_scraper_ray.kernel.extract import extract_anchors, extract_title

    doc = parse(html)
    title = doc.find("title")
    assert extract_title(doc) == (title.get_text(strip=True) if title else "")
    base = "https://s.example/p"
    assert [i["url"] for i in extract_images(doc, base)] == [
        resolve_link(base, img.get("src")) for img in doc.find_all("img") if img.get("src")]
    assert [(a["url"], a["text"]) for a in extract_anchors(doc, base)] == [
        (resolve_link(base, a.get("href")), a.get_text())
        for a in doc.find_all("a") if a.get("href")]
    assert extract_og_metadata(doc) == _find_all_og(doc)
    _check_index(doc)

    boiler = doc.find_all(BOILERPLATE_TAGS)
    clean._remove_boilerplate(doc)
    assert all(not doc.holds(n) for n in boiler)
    _check_index(doc)
    lis = [n for n in doc.elements if n.name == "li" and doc.holds(n)]
    assert lis == doc.find_all("li")
    for c in doc.comments:
        c.extract()
    _check_index(doc)
    clean._dedup_lis(lis)
    _check_index(doc)
    clean._concat_spans_from(doc, [n for n in doc.elements if n.name == "span"])
    _check_index(doc)
    clean.normalize_text_nodes(doc)
    _check_index(doc)
    merge_adjacent_text(doc)
    _check_index(doc)


def _find_all_clean(doc):
    """The cleaning pipeline in its find_all form: every step collects
    its nodes from the live tree as the reference does."""
    from web_scraper_ray.dom import CommentNode

    og = _find_all_og(doc)
    for el in doc.find_all(BOILERPLATE_TAGS):
        el.decompose()
    for c in [n for n in doc.find_all(string=True) if isinstance(n, CommentNode)]:
        c.extract()
    for el in doc.find_all(True):
        el.attrs = {k: v for k, v in el.attrs.items() if k in ("href", "src", "alt")}
    deduplicate_list_items(doc)
    anc = _span_parents(doc, doc.find_all("span"))
    for parent in [n for n in doc.find_all(True) if id(n) in anc]:
        kids, gone = list(parent.children), []
        for cur, nxt in zip(kids, kids[1:]):
            if cur.name == "span" and nxt.name == "span":
                a, b = cur.get_text(strip=True), nxt.get_text(strip=True)
                if a and b:
                    if nxt.string:
                        nxt.string = f"{a} {b}"
                    else:
                        nxt.clear()
                        nxt.append(f"{a} {b}")
                    gone.append(cur)
        for span in gone:
            span.decompose()
    normalize_text_nodes(doc)
    return doc.serialize(), og


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(KERNEL_SOUP), max_size=60).map("".join))
def test_clean_document_equals_its_find_all_form(html):
    from web_scraper_ray.kernel.clean import clean_document

    doc, og = clean_document(parse(html))
    assert (doc.serialize(), og) == _find_all_clean(parse(html))


def test_ws_split_equals_ws_regex_on_every_code_point():
    """``normalize_text_nodes`` collapses a text without ``<svg`` with
    ``" ".join(s.split())`` in place of the reference's ``\\s+`` regex
    and ``strip``: both treat exactly the same code points as space."""
    import re

    ws = re.compile(r"\s+")
    chars = [chr(cp) for cp in range(0x110000)]
    assert [c for c in chars if (ws.fullmatch(c) is not None) != c.isspace()] == []
    s = "".join(f"x{c}{c}" for c in chars) + "　 "
    for text in (s, " " + s, "\t\n" + s[::-1]):
        assert ws.sub(" ", text).strip() == " ".join(text.split())


def test_removed_nodes_stay_out_of_the_live_tree():
    """Index entries the tree no longer holds: an li inside removed
    boilerplate must not dedup a live li, and a main-content candidate
    inside a removed subtree must not be picked."""
    from web_scraper_ray.kernel.htmlfmt import _clean_and_format
    from web_scraper_ray.kernel.markdown import find_main_content

    cleaned, _ = clean_html("<nav><ul><li>A</li></ul></nav><ul><li>A</li><li>A</li></ul>")
    assert cleaned == "<ul><li>A</li></ul>"
    doc = parse("<nav><main>m</main></nav><div><article>a</article></div>")
    doc.elements[0].decompose()
    assert find_main_content(doc).name == "article"
    assert (_clean_and_format("<p>p</p><object><main>m</main></object>")
            == _clean_and_format("<p>p</p>"))
