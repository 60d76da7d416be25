"""Crawl configuration.

The reference's crawl capability exists only as config stubs
(``contxt/config.py:20-21`` ``max_depth``/``ignore_patterns``,
``TODO.md:7`` sitemap+depth). This dataclass is the real version:
the shared parameter set consumed by both the sequential model
(``model.py`` — the executable spec) and the Ray frontier engine
(``frontier.py``)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CrawlConfig:
    max_depth: int = 2  # config.py:20 default ("max_depth: 1  # For future website crawling")
    ignore_patterns: tuple[str, ...] = ("/tags/", "/categories/")  # config.py:21
    default_crawl_delay_ms: int = 100
    max_pages: int | None = None  # global cap on fetched pages (by crawl order)
    # shard count of a standalone crawl.seen.SeenSet only: run_crawl's
    # seen set is its frontier runs and starts no shard actors
    seen_shards: int = 8
    respect_robots: bool = True
    # where the fetch-join's hash-sorted corpus layout lives
    # (sources/hashindex.py; default: a pages_hidx sibling of the pages
    # dir). Built once per corpus, in a directory named by the digest
    # of the corpus files, so it is reused until the corpus changes.
    index_dir: str | None = None
    # run_crawl's fetcher_cls replaces the corpus join with paced
    # fetch tasks, one per frontier run: how many run at once
    fetch_concurrency: int = 4
    # URL pre-fetch quality gate (ops/urlgate.py — RefinedWeb §3.1):
    # kwargs for url_gate_frame (blocked_hosts / banned_tokens /
    # max_len / max_depth / max_digit_pct), applied to every CANDIDATE
    # url before admission — i.e. before the seen set, the politeness
    # scan, and the fetch, where a dropped url is cheapest. None = off
    # (the default keeps the sequential-model parity contract).
    url_gate: dict | None = None
