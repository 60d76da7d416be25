"""The four workloads. Each ``run`` makes one closed-loop call into the
program and times it until the output is durable and complete; each
``check`` compares that output with a reference computed outside every
timing and cached per input.

* ``extract``: ``extract_pipeline`` with a Parquet sink; the text of
  every url must equal the corpus ``text`` oracle.
* ``crawl`` / ``crawl-dense``: BFS ``run_crawl`` (broadcast fetch-join);
  the crawl order and seen set must equal ``sequential_crawl``.
* ``curate``: sharded ``strip_boilerplate`` then sharded
  ``paragraph_dedup`` keyed by a 63-bit blake2b hash of the url; both
  outputs must equal their DuckDB twins in ``__ray_entry__.oracle_sql``.
  (``vhash.hash64_str`` would be the vectorized choice, but it collides
  on about one pair of this corpus's urls per 1500, which merges two
  documents; the traced run counts those collisions.)
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from .trace import Tracer

#: boilerplate lines must repeat on this many pages of a host
MIN_PAGES = 3


@dataclass
class Outcome:
    wall_s: float
    pages: int  # output pages (extracted, fetched+extracted, or cleaned)
    urls: int  # admitted frontier urls (crawl) or input url rows
    counts: dict = field(default_factory=dict)  # must repeat exactly
    parts: dict = field(default_factory=dict)  # sub-call seconds
    peak_rss_mb: float = 0.0  # set by the untraced measuring loop
    handle: object = None  # what ``check`` needs beyond the files


def digest(rows) -> str:
    """sha256 over rows of plain values, order-sensitive."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(tuple(row)).encode("utf-8", "surrogatepass"))
        h.update(b"\n")
    return h.hexdigest()


def flip(s: str) -> str:
    """``s`` with one byte changed: the injected fault of the self-test."""
    return (s[:-1] + chr(ord(s[-1]) ^ 1)) if s else "\x01"


class Extract:
    name = "extract"
    shape = "default"
    why = "flagship extract_pipeline with a Parquet sink: kernel and Ray Data read/write work, no crawl or keyed state"
    batch_size = 128

    def __init__(self, cpus: int):
        self.cpus = cpus

    def prepare(self, inp) -> None:
        pass

    def run(self, inp, out_dir: str, tracer: Tracer) -> Outcome:
        from web_scraper_ray.pipelines.flagship import extract_pipeline

        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with tracer.span("pipelines.extract_pipeline"):
            ds = extract_pipeline(inp.pages, out_dir=out_dir, batch_size=self.batch_size)
        wall = time.perf_counter() - t0
        n = inp.shape.n_pages
        return Outcome(wall, n, n, {"pages": n}, handle=ds)

    def check(self, inp, out: Outcome, out_dir: str, fault: bool) -> bool:
        got = pq.read_table(out_dir, columns=["url", "text", "extract_ok"])
        want = pq.read_table(inp.pages, columns=["url", "text"])
        texts = got["text"].to_pylist()
        if fault:
            texts[0] = flip(texts[0])
        return (got.num_rows == want.num_rows == out.pages
                and all(got["extract_ok"].to_pylist())
                and dict(zip(got["url"].to_pylist(), texts))
                == dict(zip(want["url"].to_pylist(), want["text"].to_pylist())))


class Crawl:
    name = "crawl"
    shape = "default"
    why = "BFS run_crawl, depth 2, seeds = pages/3, 6 links/page: corpus scan and extraction of admitted pages dominate"
    max_depth = 2

    def __init__(self, cpus: int):
        self.cpus = cpus

    def config(self):
        from web_scraper_ray.crawl import CrawlConfig

        return CrawlConfig(max_depth=self.max_depth, seen_shards=2 * self.cpus)

    def model_ref(self, inp) -> dict:
        from web_scraper_ray.crawl.model import sequential_crawl
        from web_scraper_ray.crawl.robots import RobotsRules

        cfg = self.config()
        robots = RobotsRules.from_parquet(inp.robots, cfg.default_crawl_delay_ms)
        order, seen = sequential_crawl(inp.pages, inp.seeds, robots, cfg)
        return {"order": digest((r["round"], r["url"], r["vt"]) for r in order),
                "seen": digest((u,) for u in sorted(seen)),
                "admitted": len(order),
                "fetched": sum(r["status"] == "fetched" for r in order)}

    def prepare(self, inp) -> None:
        inp.ref(f"model_depth{self.max_depth}", lambda: self.model_ref(inp))

    def run(self, inp, out_dir: str, tracer: Tracer) -> Outcome:
        from web_scraper_ray.crawl import run_crawl

        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with tracer.span("crawl.run_crawl"):
            res = run_crawl(inp.pages, inp.seeds, out_dir, robots_path=inp.robots,
                            config=self.config())
        wall = time.perf_counter() - t0
        return Outcome(wall, res.n_fetched, res.n_admitted,
                       {"admitted": res.n_admitted, "fetched": res.n_fetched,
                        "rounds": res.rounds}, handle=res)

    def check(self, inp, out: Outcome, out_dir: str, fault: bool) -> bool:
        import ray

        from web_scraper_ray.crawl.frontier import load_crawl_order

        ref = inp.ref(f"model_depth{self.max_depth}", lambda: self.model_ref(inp))
        order = load_crawl_order(out_dir)
        urls = order["url"].tolist()
        if fault and urls:
            urls[0] = flip(urls[0])
        seen = out.handle.seen
        got_seen = seen.snapshot()
        for h in seen.shard_handles():
            ray.kill(h)
        return (digest(zip(order["round"].tolist(), urls, order["vt"].tolist())) == ref["order"]
                and digest((u,) for u in sorted(got_seen)) == ref["seen"]
                and out.urls == ref["admitted"] and out.pages == ref["fetched"])


class CrawlDense(Crawl):
    name = "crawl-dense"
    shape = "dense"
    why = "24 links/page, few seeds, depth 3: most out-links are seen-set hits or misses, so discovery and admission dominate"
    max_depth = 3


def doc_ids(urls) -> pa.Array:
    from web_scraper_ray.functions.urls import url_hash64

    return pa.array([url_hash64(u) >> 1 for u in urls], pa.int64())


def _with_doc_ids(batch: pa.Table) -> pa.Table:
    return pa.table({"doc_id": doc_ids(batch["url"].to_pylist()), "text": batch["text"]})


class Curate:
    name = "curate"
    shape = "default"
    why = "sharded strip_boilerplate then sharded paragraph_dedup: the hash-sharded keyed-state actors do all the work"

    def __init__(self, cpus: int):
        self.cpus = cpus
        # 16 buckets per CPU → the library's sharded regimes start
        # max(4, n_buckets // 4) key actors, sized to the machine
        self.n_buckets = 16 * cpus

    def oracle_ref(self, inp) -> dict:
        """DuckDB twins of both steps over the same corpus."""
        import duckdb

        import __ray_entry__ as entry

        pinned = entry._round0_corpus
        entry._round0_corpus = lambda: inp.dir  # the twins read this corpus
        try:
            strip_sql = entry._strip_boilerplate_sql()
            para_sql = entry._para_dedup_sql()
        finally:
            entry._round0_corpus = pinned
        con = duckdb.connect()
        try:
            con.execute("SET threads=1")
            strip = con.execute(strip_sql).arrow()
            docs = pa.table({"doc_id": doc_ids(strip["url"].to_pylist()),
                             "text": strip["text"]})
            con.register("documents", docs)
            para = con.execute(para_sql).arrow()
        finally:
            con.close()
        return {"strip": self.strip_digest(strip), "para": self.para_digest(para),
                "lines_dropped": sum(strip["n_dropped"].to_pylist())}

    @staticmethod
    def strip_digest(tbl: pa.Table) -> str:
        return digest(sorted(zip(tbl["url"].to_pylist(), tbl["text"].to_pylist(),
                                 tbl["n_dropped"].to_pylist())))

    @staticmethod
    def para_digest(tbl: pa.Table, fault: bool = False) -> str:
        rows = sorted(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
        if fault and rows:
            rows[0] = (rows[0][0], flip(rows[0][1]))
        return digest(rows)

    def prepare(self, inp) -> None:
        inp.ref("curate_oracle", lambda: self.oracle_ref(inp))

    def run(self, inp, out_dir: str, tracer: Tracer) -> Outcome:
        import ray.data

        from web_scraper_ray.ops.boilerplate import strip_boilerplate
        from web_scraper_ray.ops.dedup import paragraph_dedup

        shutil.rmtree(out_dir, ignore_errors=True)
        pages = ray.data.read_parquet(inp.pages, columns=["url", "text"])
        t0 = time.perf_counter()
        with tracer.span("ops.strip_boilerplate", mode="sharded"):
            stripped = strip_boilerplate(pages, min_pages=MIN_PAGES, mode="sharded",
                                         n_buckets=self.n_buckets).materialize()
        t1 = time.perf_counter()
        with tracer.span("ops.paragraph_dedup", mode="sharded"):
            deduped = paragraph_dedup(stripped.map_batches(_with_doc_ids, batch_format="pyarrow"),
                                      mode="sharded", n_buckets=self.n_buckets).materialize()
        t2 = time.perf_counter()
        with tracer.span("sink.write_parquet"):
            deduped.write_parquet(out_dir)
        t3 = time.perf_counter()
        n = deduped.count()
        dropped = sum(int(b["n_dropped"].to_numpy().sum())
                      for b in stripped.iter_batches(batch_format="pyarrow", batch_size=None))
        return Outcome(t3 - t0, n, n, {"lines_dropped": dropped, "docs": n},
                       parts={"strip_s": t1 - t0, "para_s": t2 - t1, "write_s": t3 - t2},
                       handle={"stripped": stripped, "deduped": deduped})

    def check(self, inp, out: Outcome, out_dir: str, fault: bool) -> bool:
        ref = inp.ref("curate_oracle", lambda: self.oracle_ref(inp))
        stripped = pa.concat_tables(
            out.handle["stripped"].iter_batches(batch_format="pyarrow", batch_size=None))
        got = pq.read_table(out_dir, columns=["doc_id", "text"])
        return (self.strip_digest(stripped) == ref["strip"]
                and self.para_digest(got, fault) == ref["para"]
                and out.counts["lines_dropped"] == ref["lines_dropped"])


WORKLOADS = {w.name: w for w in (Extract, Crawl, CrawlDense, Curate)}
