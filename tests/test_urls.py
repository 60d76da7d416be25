"""URL function tests incl. property-based canonicalization checks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from web_scraper_ray.functions.urls import (
    canonicalize_url,
    domain_path_filename,
    extract_host,
    is_valid_url,
    matches_ignore_patterns,
    path_prefix,
    resolve_link,
    url_hash64,
)


def test_is_valid_url():  # utils.py:7-13
    assert is_valid_url("https://a.b/c")
    assert is_valid_url("http://a.b")
    assert not is_valid_url("not-a-url")
    assert not is_valid_url("/relative/only")
    assert not is_valid_url("")


def test_canonicalize_rules():
    assert canonicalize_url("HTTPS://Host.Example:443/p") == "https://host.example/p"
    assert canonicalize_url("http://h.e:80/") == "http://h.e/"
    assert canonicalize_url("https://h.e") == "https://h.e/"
    assert canonicalize_url("https://h.e/p#frag") == "https://h.e/p"
    assert canonicalize_url("https://h.e/p?a=1#f") == "https://h.e/p?a=1"
    # non-default port preserved
    assert canonicalize_url("https://h.e:8443/p") == "https://h.e:8443/p"


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        lambda scheme, host, port, path, q: f"{scheme}://{host}{port}/{path}" + (f"?{q}" if q else ""),
        st.sampled_from(["http", "https", "HTTP", "Https"]),
        st.from_regex(r"[a-zA-Z][a-zA-Z0-9.-]{0,20}", fullmatch=True),
        st.sampled_from(["", ":80", ":443", ":8080"]),
        st.from_regex(r"[a-zA-Z0-9/._-]{0,30}", fullmatch=True),
        st.from_regex(r"[a-z0-9=&]{0,10}", fullmatch=True),
    )
)
def test_canonicalize_idempotent(url):  # SURVEY.md §5.4
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once


def test_extract_host():
    assert extract_host("https://Host.E:443/p") == "host.e"
    assert extract_host("http://h.e:8080/p") == "h.e:8080"


def test_ignore_patterns():  # config.py:21, README.md:74-75
    pats = ("/tags/", "/categories/")
    assert matches_ignore_patterns("https://h.e/tags/x", pats)
    assert not matches_ignore_patterns("https://h.e/blog/x", pats)


def test_domain_path_filename():  # outputs.py:102-113
    assert domain_path_filename("https://d.e/a/b/") == "d.e_a_b"
    assert domain_path_filename("https://d.e/") == "d.e_index"
    assert domain_path_filename("https://d.e") == "d.e_index"


def test_path_prefix_grouping():
    assert path_prefix("https://d.e/a/b/c") == "d.e/a"
    assert path_prefix("https://d.e/a/b/c", depth=2) == "d.e/a/b"
    assert path_prefix("https://d.e/") == "d.e/"


def test_url_hash64_stable():
    assert url_hash64("https://a.b/") == url_hash64("https://a.b/")
    assert url_hash64("https://a.b/") != url_hash64("https://a.b/x")


_LINK_HEADS = ["http://", "https://", "HTTP://", "Https://", " http://",
               "https:///", "http:", "//", "/", "", "ftp://", "http://[",
               "https://a]", "\thttps://", "javascript:"]
_LINK_CHARS = ("abcXYZ019-._~%/:@!$&'()*+,=" + "?#;[]" + " \t\n\r\x00\x01\x1f\x7f"
               + "\\\"<>^`{|}" + "é①ｄ＃／\u2100\uff1f")


def _join_outcome(fn, base, href):
    try:
        return "ok", fn(base, href)
    except Exception as e:  # which inputs raise must agree too
        return "raises", type(e)


def _draw_link(rng, heads):
    tail = "".join(rng.choice(_LINK_CHARS) for _ in range(rng.randrange(12)))
    return rng.choice(heads) + tail


def test_resolve_link_equals_urljoin_on_random_draws(monkeypatch):
    """The absolute-href fast path of ``resolve_link`` returns exactly
    what ``urljoin`` returns, and raises where it raises: 30,000 seeded
    draws of hrefs and bases mixing upper/lowercase schemes, whitespace,
    ``https:///x``, brackets, ``?#;``, non-ASCII (NFKC-folding too) and
    C0 characters, over 500 of them on the fast path (no ``urljoin``
    call)."""
    import random
    from urllib.parse import urljoin

    from web_scraper_ray.functions import urls

    joined = []
    monkeypatch.setattr(urls, "urljoin", lambda b, h: joined.append(1) or urljoin(b, h))
    rng = random.Random(1405)
    n = 30_000
    for _ in range(n):
        base = _draw_link(rng, _LINK_HEADS + ["https://h.example/a/b"])
        href = _draw_link(rng, _LINK_HEADS + ["https://b.example/", "http://c.example"] * 3)
        assert (_join_outcome(resolve_link, base, href)
                == _join_outcome(urljoin, base, href)), (base, href)
    assert n - len(joined) > 500


def test_resolve_link_cases():
    assert resolve_link("https://a.example/x/y", "https://b.example/p") == "https://b.example/p"
    assert resolve_link("https://a.example/x/y", "z") == "https://a.example/x/z"
    assert resolve_link("https://a.example/x/y", "HTTPS://B.example/p") == "https://B.example/p"
    assert resolve_link("https://a.example/", "https:///x") == "https://a.example/x"
    assert resolve_link("", "https://b.example/p") == "https://b.example/p"
