"""Sitemap parsing + fetch stage plumbing."""

import pytest

from web_scraper_ray.crawl.sitemap import (
    parse_sitemap,
    render_sitemap,
    render_sitemap_index,
)


def test_sitemap_roundtrip():
    urls = [
        {"url": "https://h.e/a", "lastmod": "2025-03-28", "priority": 0.8},
        {"url": "https://h.e/b", "lastmod": "", "priority": 0.2},
    ]
    xml = render_sitemap(urls)
    parsed = parse_sitemap(xml)
    assert parsed["kind"] == "urlset"
    assert [e["url"] for e in parsed["entries"]] == ["https://h.e/a", "https://h.e/b"]
    assert parsed["entries"][0]["lastmod"] == "2025-03-28"
    assert parsed["entries"][0]["priority"] == 0.8


def test_sitemap_index():
    xml = render_sitemap_index(["https://h.e/sm1.xml", "https://h.e/sm2.xml"])
    parsed = parse_sitemap(xml)
    assert parsed["kind"] == "sitemapindex"
    assert len(parsed["entries"]) == 2


def test_sitemap_malformed():
    assert parse_sitemap(b"<not xml") == {"kind": "urlset", "entries": []}
    assert parse_sitemap("<urlset><url></url></urlset>")["entries"] == []


def test_sitemap_no_namespace():
    xml = "<urlset><url><loc>https://h.e/x</loc></url></urlset>"
    assert parse_sitemap(xml)["entries"][0]["url"] == "https://h.e/x"


def test_sitemap_seeds_ds(ray_session):
    import ray.data
    from web_scraper_ray.crawl.sitemap import sitemap_seeds_ds

    xml = render_sitemap(
        [{"url": "https://h.e/a", "priority": 1.0}, {"url": "https://h.e/b", "priority": 0.0}]
    )
    ds = ray.data.from_items([{"sitemap_url": "https://h.e/sitemap.xml", "xml": xml.encode()}])
    seeds = sitemap_seeds_ds(ds).to_pandas()
    assert list(seeds["url"]) == ["https://h.e/a", "https://h.e/b"]
    assert list(seeds["priority"]) == [0, 10]  # high sitemap pri → low int
    assert seeds["seed_index"].is_unique


def test_corpus_fetcher(ray_session, small_corpus):
    import glob

    import pyarrow.parquet as pq
    import ray.data
    from web_scraper_ray.stages.fetch import CorpusFetcher, fetch_stage

    urls = pq.read_table(
        sorted(glob.glob(f"{small_corpus}/pages/*.parquet"))[0], columns=["url"]
    )["url"].to_pylist()[:5]
    ds = ray.data.from_items(
        [{"url": u} for u in urls] + [{"url": "https://off.example/x"}]
    )
    out = fetch_stage(ds, CorpusFetcher, concurrency=1,
                      pages_path=f"{small_corpus}/pages").to_pandas()
    assert (out[out["url"].isin(urls)]["status"] == "fetched").all()
    assert (out[out["url"] == "https://off.example/x"]["status"] == "miss").all()
    assert out[out["status"] == "fetched"]["html"].map(len).gt(100).all()


def test_fetch_pool_reserves_no_cpu(ray_session):
    """``fetch_stage``'s actor pool asks for 0 CPUs: its actors wait on
    the network, so a CPU held by one would only keep other operators
    (and, after the pool finishes, its last actor) from running."""
    import ray.data
    from web_scraper_ray.stages.fetch import CorpusFetcher, fetch_stage

    ds = fetch_stage(ray.data.from_items([{"url": "https://a.example/"}]),
                     CorpusFetcher, concurrency=2, pages_path="unused")
    op = ds._logical_plan.dag
    assert op._ray_remote_args["num_cpus"] == 0


def test_http_fetcher_offline_fallback(small_corpus):
    from web_scraper_ray.stages.fetch import BrowserFetcher, HttpFetcher

    try:
        import requests  # noqa: F401

        have_requests = True
    except ImportError:
        have_requests = False

    if not have_requests:
        with pytest.raises(NotImplementedError):
            HttpFetcher()
        f = HttpFetcher(fallback_corpus=f"{small_corpus}/pages")
        assert f.fallback is not None
    with pytest.raises(NotImplementedError):
        BrowserFetcher("advanced")
    with pytest.raises(ValueError):
        BrowserFetcher("warp-speed", fallback_corpus=f"{small_corpus}/pages")
