"""Per-layer metrics of a traced run, measured over the workload's
corpus from the benchmark's own files (nothing in the program is
instrumented).

Every traced run reports every layer. A layer the workload calls is
read from the workload's own traced call; a layer it does not call is
driven once by the workload that does (``extract``, ``crawl`` or
``curate``) over the same corpus, so each name means the same thing on
every workload.

* ``kernel``: ``extract_page``'s steps, timed one by one in a single
  process over a fixed page sample; the assembled text must equal
  ``extract_page``'s.
* ``stages``: ``extract_batch`` over the same sample, and its share of
  time outside the kernel.
* ``flagship``: the extract pipeline's wall time beyond what
  ``extract_batch`` alone would need for the corpus.
* ``crawl``: round manifests and Parquet outputs of the crawl, the
  discovery filters recounted with the public url and robots functions,
  and the single-threaded ``sequential_crawl`` as the baseline.
* ``seen``: the crawl's screened candidate stream replayed round by
  round through a fresh ``SeenSet``; the urls it reports new must equal
  each round's admitted frontier.
* ``urls`` / ``vhash``: the filter chain and the two hashes over the
  crawl's out-links, and the ``hash64_str`` collisions among the
  corpus urls.
* ``ops``: the sharded boilerplate strip and paragraph dedup of the
  curate call, the boilerplate decision pass, and the broadcast strip
  (whose output must equal the sharded one).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from .workloads import MIN_PAGES, Crawl, Curate, Extract

KERNEL_SAMPLE = 200
REPEATS = 5
SEEN_BATCH = 1024

UNITS = {
    "kernel.parse_ms": "ms", "kernel.clean_ms": "ms", "kernel.markdown_ms": "ms",
    "kernel.tokens_ms": "ms", "kernel.pages_per_s": "pages/s",
    "stages.extract_batch_pages_per_s": "pages/s", "stages.arrow_overhead_frac": "ratio",
    "flagship.overhead_s": "s",
    "crawl.seed_s": "s", "crawl.round0_s": "s", "crawl.round1_s": "s",
    "crawl.round2_s": "s", "crawl.rounds_s": "s",
    "crawl.candidates": "count", "crawl.filtered": "count", "crawl.admitted": "count",
    "crawl.fetched": "count", "crawl.admit_ratio": "ratio", "crawl.fetch_ratio": "ratio",
    "crawl.scan_useful_ratio": "ratio", "crawl.model_s": "s",
    "crawl.engine_over_single": "ratio",
    "seen.check_and_add_urls_per_s": "urls/s", "seen.hit_ratio": "ratio",
    "seen.commit_s": "s", "seen.add_urls_per_s": "urls/s",
    "urls.filter_us_per_link": "us", "urls.url_hash64_per_s": "urls/s",
    "vhash.hash64_str_per_s": "urls/s", "vhash.url_collisions": "count",
    "boilerplate.decide_s": "s", "boilerplate.strip_sharded_s": "s",
    "boilerplate.strip_broadcast_s": "s", "boilerplate.lines_dropped": "count",
    "dedup.para_sharded_s": "s", "dedup.para_losers": "count",
}


@dataclass
class Ledger:
    metrics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    dataset_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _timed(fn, repeats: int = REPEATS) -> float:
    """Median seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def op_stats(ds) -> list[dict]:
    """Per-operator wall and CPU seconds of an executed Dataset."""
    try:
        todo = [ds._get_stats_summary()]
    except Exception as e:  # stats are optional detail; never fail the run
        return [{"error": repr(e)}]
    out = []
    while todo:
        s = todo.pop()
        for op in s.operators_stats:
            out.append({"operator": op.operator_name, "wall_s": op.wall_time.get("sum"),
                        "cpu_s": op.cpu_time.get("sum")})
        todo.extend(s.parents)
    return out


# -- kernel and stages -----------------------------------------------------

def _kernel_split(html, url: str):
    """``extract_page``'s steps in its order; returns the text and the
    seconds of parse (with the title/image/anchor walks), clean +
    serialize, merge + markdown, and tokens."""
    from web_scraper_ray.dom import merge_adjacent_text, parse
    from web_scraper_ray.kernel.clean import clean_document
    from web_scraper_ray.kernel.extract import extract_anchors, extract_images, extract_title
    from web_scraper_ray.kernel.markdown import markdown_from_doc
    from web_scraper_ray.kernel.tokens import count_tokens

    t0 = time.perf_counter()
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    doc = parse(html)
    extract_title(doc)
    extract_images(doc, url)
    extract_anchors(doc, url)
    t1 = time.perf_counter()
    cleaned, _og = clean_document(doc)
    content_html = cleaned.serialize()
    t2 = time.perf_counter()
    merge_adjacent_text(cleaned)
    text = markdown_from_doc(cleaned)
    t3 = time.perf_counter()
    count_tokens(content_html)
    t4 = time.perf_counter()
    return text, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)


def kernel_and_stages(inp, led: Ledger) -> None:
    from web_scraper_ray.kernel.extract import extract_page
    from web_scraper_ray.stages.extract_stage import extract_batch

    sample = pq.read_table(inp.pages, columns=["url", "html", "text"]).sort_by("url")
    sample = sample.slice(0, KERNEL_SAMPLE)
    rows = list(zip(sample["url"].to_pylist(), sample["html"].to_pylist(),
                    sample["text"].to_pylist()))
    n = len(rows)
    passes = []
    same = True
    for _ in range(REPEATS):
        tot = [0.0, 0.0, 0.0, 0.0]
        for url, html, want in rows:
            text, parts = _kernel_split(html, url)
            same = same and text == want == extract_page(html, url)["text"]
            tot = [a + b for a, b in zip(tot, parts)]
        passes.append(tot)
    led.checks["kernel_split_equals_extract_page"] = same
    med = [statistics.median(p[i] for p in passes) for i in range(4)]
    for name, s in zip(("parse", "clean", "markdown", "tokens"), med):
        led.metrics[f"kernel.{name}_ms"] = 1e3 * s / n
    led.metrics["kernel.pages_per_s"] = n / statistics.median(sum(p) for p in passes)

    batch = sample.select(["url", "html"])
    t_batch = _timed(lambda: extract_batch(batch))
    t_kernel = _timed(lambda: [extract_page(h, u) for u, h, _t in rows])
    led.metrics["stages.extract_batch_pages_per_s"] = n / t_batch
    led.metrics["stages.arrow_overhead_frac"] = 1.0 - t_kernel / t_batch


# -- crawl, seen set, urls -------------------------------------------------

def _screen(links, cfg, robots):
    """The discovery filters, in the engine's order."""
    from web_scraper_ray.functions.urls import (
        canonicalize_url, is_valid_url, matches_ignore_patterns)

    out = []
    for link in links:
        if not is_valid_url(link):
            continue
        canon = canonicalize_url(link)
        if matches_ignore_patterns(canon, cfg.ignore_patterns):
            continue
        if cfg.respect_robots and not robots.is_allowed(canon):
            continue
        out.append(canon)
    return out


def crawl_layers(inp, cw: Crawl, out, ckpt: str, led: Ledger) -> None:
    import ray

    from web_scraper_ray.crawl.model import sequential_crawl
    from web_scraper_ray.crawl.robots import RobotsRules
    from web_scraper_ray.crawl.seen import SeenSet
    from web_scraper_ray.functions.urls import url_hash64
    from web_scraper_ray.vhash import hash64_str

    m = led.metrics
    cfg = cw.config()
    manifests = []
    for r in range(out.counts["rounds"]):
        with open(os.path.join(ckpt, f"manifest_{r:04d}.json")) as f:
            manifests.append(json.load(f))
    elapsed = [mf["elapsed_s"] for mf in manifests]
    m["crawl.rounds_s"] = sum(elapsed)
    m["crawl.seed_s"] = out.wall_s - sum(elapsed)
    for r in range(3):
        m[f"crawl.round{r}_s"] = elapsed[r] if r < len(elapsed) else 0.0

    # candidate stream per round: the seeds, then the out-links of each
    # expanding round's fetched pages
    robots = RobotsRules.from_parquet(inp.robots, cfg.default_crawl_delay_ms)
    seeds = pq.read_table(inp.seeds).sort_by("seed_index")["url"].to_pylist()
    raw = [seeds]
    for r in range(min(len(manifests), cfg.max_depth)):
        out_links = pq.read_table(os.path.join(ckpt, f"output_{r:04d}"), columns=["links"])
        raw.append([u for ls in out_links["links"].to_pylist() for u in (ls or ())])
    links = [u for part in raw[1:] for u in part]
    t0 = time.perf_counter()
    _screen(links, cfg, robots)
    m["urls.filter_us_per_link"] = 1e6 * (time.perf_counter() - t0) / max(1, len(links))
    screened = [_screen(part, cfg, robots) for part in raw]
    n_cand = sum(len(p) for p in raw)
    n_screened = sum(len(p) for p in screened)
    admitted = sum(mf["n_admitted"] for mf in manifests)
    fetched = sum(mf["n_fetched"] for mf in manifests)
    m["crawl.candidates"] = n_cand
    m["crawl.filtered"] = n_cand - n_screened
    m["crawl.admitted"] = admitted
    m["crawl.fetched"] = fetched
    m["crawl.admit_ratio"] = admitted / n_cand
    m["crawl.fetch_ratio"] = fetched / admitted
    corpus_rows = sum(pq.read_metadata(os.path.join(inp.pages, f)).num_rows
                      for f in os.listdir(inp.pages) if f.endswith(".parquet"))
    m["crawl.scan_useful_ratio"] = fetched / (corpus_rows * len(manifests))
    led.checks["crawl_counts_match_run"] = (admitted, fetched) == (out.urls, out.pages)

    canon = [u for p in screened for u in p]
    m["urls.url_hash64_per_s"] = len(canon) / _timed(lambda: [url_hash64(u) for u in canon])
    m["vhash.hash64_str_per_s"] = len(canon) / _timed(lambda: hash64_str(canon))
    corpus_urls = pq.read_table(inp.pages, columns=["url"])["url"]
    m["vhash.url_collisions"] = len(corpus_urls) - len(set(hash64_str(corpus_urls).tolist()))

    # seen set: replay the screened stream round by round
    seen = SeenSet(cfg.seen_shards)
    bulk = SeenSet(cfg.seen_shards)
    try:
        seen.size()
        bulk.size()  # actors up before timing
        hits = 0
        t_add = t_commit = 0.0
        new_per_round = []
        everything: list[str] = []
        for part in screened:
            new: set[str] = set()
            for i in range(0, len(part), SEEN_BATCH):
                chunk = part[i:i + SEEN_BATCH]
                t0 = time.perf_counter()
                res = seen.check_and_add(chunk)
                t_add += time.perf_counter() - t0
                hits += res.count(False)
                new.update(u for u, is_new in zip(chunk, res) if is_new)
            t0 = time.perf_counter()
            seen.commit_round()
            t_commit += time.perf_counter() - t0
            new_per_round.append(len(new))
            everything.extend(sorted(new))
        m["seen.check_and_add_urls_per_s"] = n_screened / t_add
        m["seen.hit_ratio"] = hits / n_screened
        m["seen.commit_s"] = t_commit
        t0 = time.perf_counter()
        bulk.add(everything)
        m["seen.add_urls_per_s"] = len(everything) / (time.perf_counter() - t0)
        want = [mf["n_admitted"] for mf in manifests]
        led.checks["seen_replay_equals_frontiers"] = (
            new_per_round[:len(want)] == want and not any(new_per_round[len(want):]))
    finally:
        for h in seen.shard_handles() + bulk.shard_handles():
            ray.kill(h)

    t0 = time.perf_counter()
    sequential_crawl(inp.pages, inp.seeds, robots, cfg)
    m["crawl.model_s"] = time.perf_counter() - t0
    m["crawl.engine_over_single"] = out.wall_s / m["crawl.model_s"]


# -- ops ---------------------------------------------------------------------

def ops_layers(inp, out, led: Ledger) -> None:
    import ray.data

    from web_scraper_ray.ops.boilerplate import host_boilerplate_lines, strip_boilerplate

    m = led.metrics
    m["boilerplate.strip_sharded_s"] = out.parts["strip_s"]
    m["dedup.para_sharded_s"] = out.parts["para_s"]
    m["boilerplate.lines_dropped"] = out.counts["lines_dropped"]
    stripped = pa.concat_tables(
        out.handle["stripped"].iter_batches(batch_format="pyarrow", batch_size=None))
    paras = [p for t in stripped["text"].to_pylist() for p in (t or "").split("\n\n")]
    m["dedup.para_losers"] = len(paras) - len(set(paras))
    led.dataset_stats["strip_sharded"] = op_stats(out.handle["stripped"])
    led.dataset_stats["para_sharded"] = op_stats(out.handle["deduped"])

    pages = ray.data.read_parquet(inp.pages, columns=["url", "text"])
    t0 = time.perf_counter()
    decided = host_boilerplate_lines(pages, min_pages=MIN_PAGES).materialize()
    m["boilerplate.decide_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    broadcast = strip_boilerplate(pages, min_pages=MIN_PAGES, mode="broadcast").materialize()
    m["boilerplate.strip_broadcast_s"] = time.perf_counter() - t0
    led.dataset_stats["decide"] = op_stats(decided)
    led.dataset_stats["strip_broadcast"] = op_stats(broadcast)
    led.checks["strip_regimes_agree"] = Curate.strip_digest(stripped) == Curate.strip_digest(
        pa.concat_tables(broadcast.iter_batches(batch_format="pyarrow", batch_size=None)))


# -- the whole ledger -------------------------------------------------------

def _own_or_probe(wl, cls, inp, traced, tracer, work_dir, led: Ledger):
    """The traced workload's outcome if it is a ``cls`` workload, else
    one checked probe call of ``cls`` over the same corpus."""
    if isinstance(wl, cls):
        return wl, traced, os.path.join(work_dir, "out", wl.name)
    probe = cls(wl.cpus)
    probe.prepare(inp)
    out_dir = os.path.join(work_dir, "out", f"probe-{probe.name}")
    with tracer.span(f"probe.{probe.name}"):
        out = probe.run(inp, out_dir, tracer)
    led.checks[f"probe_{probe.name}_correct"] = probe.check(inp, out, out_dir, False)
    return probe, out, out_dir


def measure(wl, inp, traced, tracer, work_dir: str) -> Ledger:
    led = Ledger()
    with tracer.span("layer.kernel_stages"):
        kernel_and_stages(inp, led)

    _, ext, _ = _own_or_probe(wl, Extract, inp, traced, tracer, work_dir, led)
    led.metrics["flagship.overhead_s"] = (
        ext.wall_s - ext.pages / led.metrics["stages.extract_batch_pages_per_s"])
    led.dataset_stats["extract"] = op_stats(ext.handle)

    cw, cr, ckpt = _own_or_probe(wl, Crawl, inp, traced, tracer, work_dir, led)
    with tracer.span("layer.crawl_seen_urls"):
        crawl_layers(inp, cw, cr, ckpt, led)

    _, cu, _ = _own_or_probe(wl, Curate, inp, traced, tracer, work_dir, led)
    with tracer.span("layer.ops"):
        ops_layers(inp, cu, led)

    missing = set(UNITS) - set(led.metrics)
    led.checks["every_layer_metric_measured"] = not missing
    return led
