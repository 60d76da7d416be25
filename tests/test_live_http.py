"""A live crawl over real HTTP: ``HttpFetcher`` against a loopback
server on 127.0.0.1 equals the corpus-join crawl of the same
pages, and the paced fetch asks for each url exactly once, spaced by
the host's crawl delay."""

import collections
import glob
import http.server
import os
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq

from web_scraper_ray.crawl.config import CrawlConfig

#: path -> links of a small graph; /gone is linked but answers 404
GRAPH = {
    "/": ["/a", "/b", "/gone"],
    "/a": ["/c", "/b", "/"],
    "/b": ["/d", "/gone"],
    "/c": ["/e", "/a"],
    "/d": ["/e", "/f"],
    "/e": ["/"],
    "/f": ["/c"],
}


def _html(path: str) -> bytes:
    links = "".join(f'<li><a href="{p}">link to {p}</a></li>' for p in GRAPH[path])
    return (f"<html><head><title>Page {path}</title></head><body><main>"
            f"<h1>Page {path}</h1><p>This is the page at {path}, with a few "
            f"sentences of text so that extraction keeps it.</p>"
            f"<ul>{links}</ul></main></body></html>").encode()


class _Handler(http.server.BaseHTTPRequestHandler):
    requested: list = []

    def do_GET(self):
        self.requested.append((self.path, time.monotonic()))
        if self.path in GRAPH:
            body = _html(self.path)
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


def _texts(ckpt: str) -> dict:
    files = sorted(glob.glob(os.path.join(ckpt, "output_*", "part-*.parquet")))
    t = pa.concat_tables(pq.read_table(f, columns=["url", "text"]) for f in files)
    return dict(zip(t["url"].to_pylist(), t["text"].to_pylist()))


def test_http_crawl_equals_range_join(ray_session, tmp_path):
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl
    from web_scraper_ray.stages.fetch import HttpFetcher

    _Handler.requested = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host = f"127.0.0.1:{server.server_address[1]}"
        base = f"http://{host}"
        os.makedirs(tmp_path / "pages")
        pq.write_table(pa.table({"url": [base + p for p in GRAPH],
                                 "html": [_html(p) for p in GRAPH]}),
                       tmp_path / "pages" / "part-0.parquet")
        pq.write_table(pa.table({"url": [base + "/"], "seed_index": [0]}),
                       tmp_path / "seeds.parquet")
        pq.write_table(pa.table({
            "host": [host],
            "disallow_prefixes": pa.array([[]], pa.list_(pa.string())),
            "crawl_delay_ms": pa.array([20], pa.int64())}),
            tmp_path / "robots.parquet")
        cfg = CrawlConfig(max_depth=3, fetch_concurrency=2)
        args = (str(tmp_path / "pages"), str(tmp_path / "seeds.parquet"))
        kw = dict(robots_path=str(tmp_path / "robots.parquet"), config=cfg)
        ckpt_rj, ckpt_http = str(tmp_path / "ckpt_rj"), str(tmp_path / "ckpt_http")
        res_rj = run_crawl(*args, ckpt_rj, **kw)
        res_http = run_crawl(*args, ckpt_http, fetcher_cls=HttpFetcher, **kw)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()

    order_rj, order_http = load_crawl_order(ckpt_rj), load_crawl_order(ckpt_http)
    rows = ["round", "url", "vt"]
    assert order_http[rows].values.tolist() == order_rj[rows].values.tolist()
    assert res_http.seen.snapshot() == res_rj.seen.snapshot()
    assert res_http.n_fetched == res_rj.n_fetched == len(GRAPH)
    assert _texts(ckpt_http) == _texts(ckpt_rj)

    # one request per admitted url, the 404 included, and it is recorded;
    # requests arrive at least the host's 20 ms crawl delay apart
    paths = [p for p, _ in _Handler.requested]
    assert collections.Counter(paths) == collections.Counter(
        u[len(base):] for u in order_http["url"])
    assert "/gone" in paths and len(set(order_http["round"])) > 1
    times = sorted(t for _, t in _Handler.requested)
    assert all(b - a >= 0.02 for a, b in zip(times, times[1:]))
    errors = pa.concat_tables(
        pq.read_table(f) for f in glob.glob(os.path.join(ckpt_http, "output_*",
                                                         "errors", "*.parquet")))
    assert errors["url"].to_pylist() == [base + "/gone"]
    assert errors["status"].to_pylist() == ["error"]
