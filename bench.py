"""Benchmark harness — prints ONE JSON line:

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...per-stage sec...}, "sf": ..., "num_cpus": N,
     "urls_per_sec": ...}

Headline pipeline = the north-star workload: frontier crawl
(seen-set + politeness + robots + fetch-join + extraction, 3 BFS
rounds) over the deterministic synthetic Common-Crawl-style corpus,
sized by $GRAFT_SF_DIR (default /root/testdata/sf0.1 → 200k pages),
plus a full-corpus extraction pass and representative ops over the
testdata tables.

``--scaling``: runs the same bench in FOUR fresh subprocesses
(RAY_GRAFT_CPUS = 4, 16, 8, 32) on the same cached page-warm input and
reports both N-vs-4N pairs (4v16 — neither leg saturates the box, the
honest independent-node proxy; 8v32 — the saturated pair) plus their
scaling efficiencies (the sandbox evidence for the north rule's
two-cluster-size criterion). With the best-of-2 headline legs each
subprocess runs crawl and extract twice.

Corpus generation is cached (corpus._DONE stamp) and excluded from all
timings.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_PAGES = {"sf0.001": 2_000, "sf0.01": 20_000, "sf0.1": 200_000}


def _sf_tag(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


def run_bench() -> dict:
    import ray

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    tag = _sf_tag(sf_dir)
    n_pages = SF_PAGES.get(tag, 20_000)

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,  # keep stdout = exactly one JSON line
    )
    try:
        from web_scraper_ray.corpus import build_corpus
        from web_scraper_ray.crawl import CrawlConfig, run_crawl
        from web_scraper_ray.pipelines.flagship import extract_pipeline
        from web_scraper_ray.ops import relational as rel

        corpus = f"/tmp/wsr_bench_{tag}"
        build_corpus(
            corpus,
            n_pages=n_pages,
            n_hosts=max(16, n_pages // 400),
            seed=42,
            n_seeds=max(50, n_pages // 3),  # large rounds: the workload, not barriers
            links_per_page=6,
            shard_rows=5_000,
            use_ray=True,
        )
        # warm the page cache so both scaling runs measure compute+shuffle
        for root, _, files in os.walk(os.path.join(corpus, "pages")):
            for f in files:
                with open(os.path.join(root, f), "rb") as fh:
                    while fh.read(1 << 22):
                        pass

        # warm the worker pool (untimed): spin up every worker process
        # and pay the heavy imports once, so the timed sections measure
        # steady-state throughput, not cold start — on a real cluster
        # workers outlive jobs. One task per core, each touching the
        # extraction kernel.
        import ray.data as _rd

        def _warm(batch):
            from web_scraper_ray.kernel.extract import extract_page

            extract_page("<html><body><p>warm</p></body></html>", "https://w.example/")
            return batch

        _rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
            _warm, batch_size=1
        ).count()

        queries: dict[str, float] = {}

        def best2(fn) -> float:
            # slow (>5s) op entries use best-of-2 like the headline
            # legs: on this shared box a single draw measures the
            # host's +-50% oscillation, not the engine (BASELINE.md
            # round-5: one webtext_clean draw printed 34.6s vs a
            # repeatable 11.8-13.2s)
            reps = []
            for _ in range(2):
                t0 = time.time()
                fn()
                reps.append(round(time.time() - t0, 3))
            return min(reps)

        # --- headline: frontier crawl (fetch+extract) ---
        # best of 2 runs: this shared box oscillates +-50% between
        # minutes (noisy neighbors); two back-to-back runs of identical
        # code regularly differ 1.5-2x, so a single draw measures the
        # host, not the engine. Same protocol at every CPU count keeps
        # the scaling ratios fair.
        crawl_reps = []
        for rep in range(2):
            ckpt = f"/tmp/wsr_bench_ckpt_{tag}_{num_cpus}"
            shutil.rmtree(ckpt, ignore_errors=True)
            t0 = time.time()
            res = run_crawl(
                f"{corpus}/pages",
                f"{corpus}/seeds.parquet",
                ckpt,
                robots_path=f"{corpus}/robots.parquet",
                config=CrawlConfig(max_depth=2, seen_shards=max(8, num_cpus // 2)),
            )
            crawl_reps.append(round(time.time() - t0, 3))
        crawl_sec = min(crawl_reps)
        queries["crawl_frontier"] = crawl_sec
        urls_per_sec = res.n_admitted / crawl_sec if crawl_sec else 0.0

        # --- full-corpus extraction throughput (best of 2, as above) ---
        extract_reps = []
        for rep in range(2):
            t0 = time.time()
            out_dir = f"/tmp/wsr_bench_extract_{tag}_{num_cpus}"
            shutil.rmtree(out_dir, ignore_errors=True)
            extract_pipeline(f"{corpus}/pages", out_dir=out_dir, batch_size=128)
            extract_reps.append(round(time.time() - t0, 3))
        queries["extract_full"] = min(extract_reps)

        # --- representative ops over the testdata tables ---
        t0 = time.time()
        rel.pricing_summary(sf_dir).to_pandas()
        queries["pricing_summary"] = round(time.time() - t0, 3)

        t0 = time.time()
        import ray.data
        from web_scraper_ray.ops import sized_read_parquet
        from web_scraper_ray.ops.text import text_stats_batch

        docs = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"])
        docs.map_batches(text_stats_batch, batch_format="pandas").count()
        queries["text_stats"] = round(time.time() - t0, 3)

        t0 = time.time()
        import numpy as np
        import pyarrow.parquet as pq
        from web_scraper_ray.ops.similarity import brute_force_topk

        q = np.array(
            pq.read_table(f"{sf_dir}/embeddings.parquet")["embedding"].to_pylist()[0],
            dtype=np.float64,
        )
        emb = sized_read_parquet(f"{sf_dir}/embeddings.parquet")
        brute_force_topk(emb, q, k=10).to_pandas()
        queries["similarity_topk"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.dedup import remove_near_duplicates

        docs2 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                      columns=["doc_id", "text"])
        remove_near_duplicates(docs2, jaccard_threshold=0.5).count()
        queries["near_dedup"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.dedup import paragraph_dedup

        docs3 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
        paragraph_dedup(docs3).count()
        queries["para_dedup"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.spans import duplicate_span_stats

        docs4 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
        duplicate_span_stats(docs4, n=8).count()
        queries["dup_spans"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.retrieval import bm25_topk

        docs5 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
        bm25_topk(docs5, "dup merge window", k=10).count()
        queries["bm25_topk"] = round(time.time() - t0, 3)

        # --- link-graph off the crawl's round outputs (the production
        # path: the crawl's extraction pass already materialized every
        # page's links/anchors columns, so edges are a slim column read
        # + explode — NO second full-corpus DOM parse; parity with the
        # page-derived path is pinned by
        # tests/test_graph.py:test_graph_from_crawl_output_parity).
        # pagerank runs the BROADCAST regime — bench-corpus node counts
        # sit far below max_broadcast_nodes — so the timing covers the
        # 2-shuffle setup plus zero-shuffle iterations; the bucketed
        # regime is measured separately in BASELINE.md ---
        t0 = time.time()
        from web_scraper_ray.ops.graph import (
            anchors_from_output, edges_from_output, pagerank,
        )

        edges = edges_from_output(ckpt).materialize()
        queries["link_edges"] = round(time.time() - t0, 3)
        queries["pagerank"] = best2(
            lambda: pagerank(edges, iters=4).count())
        queries["anchor_texts"] = best2(
            lambda: anchors_from_output(ckpt).count())

        t0 = time.time()
        from web_scraper_ray.ops.lines import line_filter_stats

        docs6 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
        line_filter_stats(docs6).count()
        queries["c4_line_filter"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.shuffle import pack_sequences

        docs7 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "n_chars"])
        pack_sequences(docs7, seqlen=512, weight_col="n_chars").count()
        queries["pack_sequences"] = round(time.time() - t0, 3)

        # --- sparse point-lookup regime: 1000 scattered urls out of
        # the full pages corpus via the hash-sorted row-group index
        # (build is one-time, stamp-cached across rounds and excluded
        # like corpus generation; the lookup is the steady-state op) ---
        import glob as _glob

        import pyarrow.parquet as _pq

        from web_scraper_ray.sources.hashindex import (
            build_hash_index, hash_lookup,
        )

        pfiles = sorted(_glob.glob(f"{corpus}/pages/*.parquet"))
        lk_urls = (_pq.read_table(pfiles[0], columns=["url"])
                   .column("url").to_pylist()[:500]
                   + _pq.read_table(pfiles[-1], columns=["url"])
                   .column("url").to_pylist()[:500])
        idx_dir = build_hash_index(f"{corpus}/pages", "url",
                                   f"{corpus}/pages_hidx",
                                   columns=["url", "html"])
        t0 = time.time()
        hash_lookup(idx_dir, lk_urls, "url").count()
        queries["indexed_fetch"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.lm import surprisal_filter

        docs8 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text", "lang"])
        target = docs8.map_batches(
            lambda df: df.loc[df["lang"] == "en", ["text"]],
            batch_format="pandas")
        surprisal_filter(docs8, target, max_mean_bits_e2=413).count()
        queries["lm_filter"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.similarity import quantized_topk

        quantized_topk(emb, q, k=10).to_pandas()
        queries["quantized_topk"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.text import chunk_documents

        docs9 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
        chunk_documents(docs9, window=32, stride=24).count()
        queries["chunk_docs"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.classifier import nb_filter

        docs10 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                    columns=["doc_id", "text", "lang",
                                             "source"])
        pos10 = docs10.map_batches(
            lambda df: df.loc[(df["lang"] == "en")
                              & df["source"].isin(
                                  ("src0", "src1", "src2", "src3",
                                   "src4")), ["text"]],
            batch_format="pandas")
        neg10 = docs10.map_batches(
            lambda df: df.loc[df["source"].isin(
                ("src15", "src16", "src17", "src18", "src19")),
                ["text"]],
            batch_format="pandas")
        nb_filter(docs10, pos10, neg10, min_margin_e2=-18).count()
        queries["nb_gate"] = round(time.time() - t0, 3)

        t0 = time.time()
        from web_scraper_ray.ops.sketch import heavy_hitters

        docs11 = sized_read_parquet(f"{sf_dir}/documents.parquet",
                                    columns=["text"])
        heavy_hitters(docs11, min_frac_e4=100).count()
        queries["heavy_tokens"] = round(time.time() - t0, 3)

        # URL pre-fetch gate over the full pages frontier (the
        # crawl-scale input — one vectorized scan, no shuffle)
        t0 = time.time()
        import ray.data

        from web_scraper_ray.ops.urlgate import url_gate

        frontier_urls = ray.data.read_parquet(
            f"{corpus}/pages", columns=["url"])
        url_gate(frontier_urls).count()
        queries["url_gate"] = round(time.time() - t0, 3)

        # host-boilerplate strip over the full pages corpus (decision
        # shuffle of slim (host,line,url) triples + broadcast rebuild)
        from web_scraper_ray.ops.boilerplate import strip_boilerplate

        pages_txt = ray.data.read_parquet(
            f"{corpus}/pages", columns=["url", "text"])
        queries["strip_boilerplate"] = best2(
            lambda: strip_boilerplate(pages_txt, min_pages=3).count())

        # the same strip under the SHARDED rebuild regime — the
        # 10^8-host path mode="auto" selects: the slim key table
        # partitioned into actors by host hash, corpus streamed in
        # place, NO text all-to-all
        queries["strip_boilerplate_sharded"] = best2(
            lambda: strip_boilerplate(
                pages_txt, min_pages=3, mode="sharded").count())

        # the full webtext cleaning composite (boilerplate strip →
        # C4 line filter) — the round-4 weak entry, now recorded
        from web_scraper_ray.ops.lines import line_filter_stats

        queries["webtext_clean"] = best2(
            lambda: line_filter_stats(
                strip_boilerplate(pages_txt, min_pages=3),
                text_col="text", id_col="url", min_words=3,
                terminal='.!?")').count())

        # canonical URL dedup over the pages frontier (vectorized
        # canonicalizer + one slim decision shuffle)
        t0 = time.time()
        from web_scraper_ray.ops.urldedup import canonical_dedup

        # url-only scan: block by row count, not file bytes — the
        # default read splits the (html-sized) files into 200 blocks
        # of 1k urls and per-block overhead dominates a tiny column
        canonical_dedup(ray.data.read_parquet(
            f"{corpus}/pages", columns=["url"],
            override_num_blocks=2 * num_cpus)).count()
        queries["canonical_dedup"] = round(time.time() - t0, 3)

        headline = queries["crawl_frontier"] + queries["extract_full"]
        return {
            "metric": "frontier URLs processed/sec (fetch+extract) — headline sec = crawl + full extraction",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": queries,
            "sf": tag,
            "num_cpus": num_cpus,
            "n_pages": n_pages,
            "crawl_admitted": res.n_admitted,
            "crawl_fetched": res.n_fetched,
            "crawl_reps": crawl_reps,
            "extract_reps": extract_reps,
            "urls_per_sec": round(urls_per_sec, 1),
            "extract_pages_per_sec": round(n_pages / queries["extract_full"], 1),
        }
    finally:
        ray.shutdown()


def run_scaling() -> dict:
    """Same bench at two N-vs-4N pairs in fresh processes (north-rule
    two-cluster-size evidence): 4v16 (both legs below full-box
    saturation — the cleaner analog of independent nodes) and 8v32
    (the 4N leg saturates every core of this one machine; see
    BASELINE.md for the ceiling analysis)."""
    results = {}
    for ncpu in (4, 16, 8, 32):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        results[ncpu] = json.loads(out.strip().splitlines()[-1])

    def pair(lo, hi):
        t_lo, t_hi = results[lo]["value"], results[hi]["value"]
        return {
            f"sec_{lo}": t_lo,
            f"sec_{hi}": t_hi,
            f"urls_per_sec_{lo}": results[lo]["urls_per_sec"],
            f"urls_per_sec_{hi}": results[hi]["urls_per_sec"],
            f"extract_pages_per_sec_{lo}": results[lo]["extract_pages_per_sec"],
            f"extract_pages_per_sec_{hi}": results[hi]["extract_pages_per_sec"],
            "scaling_efficiency": round((t_lo / t_hi) / (hi / lo), 3),
        }

    return {
        "pair_4v16": pair(4, 16),
        "pair_8v32": pair(8, 32),
        "scaling_efficiency": pair(4, 16)["scaling_efficiency"],
        "scaling_efficiency_8v32": pair(8, 32)["scaling_efficiency"],
        "sf": results[32]["sf"],
    }


if __name__ == "__main__":
    # Ray's raylet pushes warnings through a driver-side listener thread
    # that writes to sys.stdout (log_to_driver=False does not cover it).
    # Route everything printed during the run to stderr and emit the
    # single JSON contract line on the REAL stdout at the end.
    real_stdout = sys.stdout
    sys.stdout = sys.stderr
    try:
        result = run_scaling() if "--scaling" in sys.argv else run_bench()
    finally:
        sys.stdout = real_stdout
    print(json.dumps(result))
