"""Fetch stages — the live analogs of the reference's fetch modes
(SURVEY.md §2.1 S2-S4).

The reference's shared fetch core is missing from the snapshot
(``_scrape`` — SURVEY.md §0 fact 1); its mode wrappers survive
(``contxt/scraper.py:96-124``: basic=requests, advanced/super=selenium
with 5s/15s waits). Here each mode is an actor-pool ``map_batches``
class: the session/browser is constructed ONCE per actor (the reference
creates and destroys a WebDriver per URL and documents the cost,
``scraper.py:126-132`` — the actor pool is precisely the fix), work
happens per batch, failures become an ``error`` column instead of
exceptions (a thrown exception would poison the whole batch,
SURVEY.md §4.1 retries row).

No network exists in this environment: ``requests`` / ``selenium`` are
imported lazily; without them the actor falls back to the deterministic
``CorpusFetcher`` behavior or raises at construction in strict mode.
``CorpusFetcher`` — fetch-join against a Parquet pages corpus — is the
offline stand-in used by the frontier engine and tests.

Per-host politeness is not a fetcher concern: a live crawl wraps any
of these classes in its paced per-run fetch task
(``crawl/frontier.py:_PacedFetcher``), which spaces each host's
fetches by the robots crawl delay the frontier's virtual times use.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

FETCH_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("status", pa.string()),  # fetched | miss | error
        ("html", pa.large_binary()),
        ("error", pa.string()),
    ]
)


def _fetch_table(urls: list, status: list, htmls: list, errors: list) -> pa.Table:
    return pa.Table.from_pydict(dict(zip(FETCH_SCHEMA.names, (urls, status, htmls, errors))),
                                schema=FETCH_SCHEMA)


class CorpusFetcher:
    """Offline fetcher: one actor holds a url→html map for its corpus
    shard (loaded once in ``__init__``). Used directly in tests and as
    the frontier engine's offline ``fetcher_cls``; without one the engine
    joins each frontier run with the corpus instead (frontier.py), so
    the full corpus is never resident."""

    def __init__(self, pages_path: str):
        import pyarrow.parquet as pq

        tbl = pq.read_table(pages_path, columns=["url", "html"])
        self.corpus = dict(zip(tbl["url"].to_pylist(), tbl["html"].to_pylist()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = [self.corpus.get(u) for u in urls]
        return _fetch_table(urls, ["miss" if h is None else "fetched" for h in htmls],
                            [b"" if h is None else bytes(h) for h in htmls], [""] * len(urls))


class HttpFetcher:
    """Live basic-mode fetcher (S2 — requests). One ``requests.Session``
    per actor with the politeness headers; per-URL errors land in the
    ``error`` column. Construction fails fast when requests is absent
    unless a fallback corpus is given."""

    def __init__(self, timeout_s: float = 10.0, user_agent: str = "web-scraper-ray/0.1",
                 fallback_corpus: Optional[str] = None):
        self.timeout_s = timeout_s
        self.session = None
        self.fallback = None
        try:
            import requests  # type: ignore

            self.session = requests.Session()
            self.session.headers["User-Agent"] = user_agent
        except ImportError:
            if fallback_corpus is None:
                raise NotImplementedError(
                    "requests not available and no fallback_corpus given "
                    "(offline environment — use CorpusFetcher)"
                )
            self.fallback = CorpusFetcher(fallback_corpus)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.fallback is not None:
            return self.fallback(batch)
        urls = batch["url"].to_pylist()
        status, htmls, errors = [], [], []
        for u in urls:
            try:
                resp = self.session.get(u, timeout=self.timeout_s)
                resp.raise_for_status()
                status.append("fetched")
                htmls.append(resp.content)
                errors.append("")
            except Exception as e:
                status.append("error")
                htmls.append(b"")
                errors.append(str(e)[:200])
        return _fetch_table(urls, status, htmls, errors)


class BrowserFetcher:
    """Rendered-fetch modes (S3 — selenium advanced/super,
    ``scraper.py:106-124``): wait_time 5s headless (advanced) or 15s
    headed (super). The browser would be created once per actor — the
    distributed fix for the reference's per-URL driver lifecycle
    (``scraper.py:126-132``). STUB here: selenium/Chrome are not in this
    container, so construction raises unless given a fallback corpus
    (then it behaves as CorpusFetcher — plumbing testable end to end)."""

    WAITS = {"advanced": (5, True), "super": (15, False)}

    def __init__(self, mode: str = "advanced", fallback_corpus: Optional[str] = None):
        if mode not in self.WAITS:
            raise ValueError(f"unknown browser mode: {mode}")
        self.wait_time, self.headless = self.WAITS[mode]
        self.fallback = None
        try:
            import selenium  # type: ignore # noqa: F401

            raise NotImplementedError(
                "live browser fetch requires a Chrome/driver install; "
                "wire _create_driver analog here (scraper.py:135-235)"
            )
        except ImportError:
            if fallback_corpus is None:
                raise NotImplementedError(
                    "selenium not available and no fallback_corpus given"
                )
            self.fallback = CorpusFetcher(fallback_corpus)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.fallback(batch)


def _keep_wanted(batch: pa.Table, wanted_ref) -> pa.Table:
    import pyarrow.compute as pc

    import ray

    wanted, mult = ray.get(wanted_ref)
    sel = batch.filter(pc.is_valid(pc.index_in(batch["url"], value_set=wanted)))
    # duplicate-seed multiplicity: repeat each matched row k times
    reps = [mult[u] for u in sel["url"].to_pylist()]
    if any(r != 1 for r in reps):
        sel = sel.take([i for i, r in enumerate(reps) for _ in range(r)])
    k = sel.num_rows
    return pa.table({"url": sel["url"], "status": pa.array(["fetched"] * k, pa.string()),
                     "html": pc.cast(sel["html"], pa.large_binary()),
                     "error": pa.array([""] * k, pa.string())}, schema=FETCH_SCHEMA)


def corpus_scan_fetch(urls: list[str], pages_path: str) -> "ray.data.Dataset":
    """Offline fetch of an explicit (small) URL list as ONE streaming
    corpus scan. The URL set is small by contract, so it broadcasts via
    ``ray.put`` (the crawl's frontier is not: each run joins a
    crawl-key-sorted corpus layout, ``crawl/frontier.py:_join_run``);
    the local corpus is scanned once, column-pruned, in the
    footer-planned read of ``sources/planned.py``, with a vectorized
    ``index_in`` filter per slice of at most 1,024 rows — no actor ever
    holds a url→html dict of the whole corpus. URLs absent from the
    corpus simply never appear (the caller's fetched-status filter drops
    misses either way). A URL listed k times emits k identical rows —
    same multiplicity as fetching each seed row separately (the
    reference's per-URL loop)."""
    import functools
    from collections import Counter

    import ray
    import ray.data

    from ..sources.planned import local_parquet_files, plan_read, planned_read

    counts = Counter(urls)
    wanted_ref = ray.put((pa.array(sorted(counts), pa.string()), dict(counts)))
    ds = planned_read(plan_read(local_parquet_files(pages_path), 1024), ["url", "html"],
                      functools.partial(_keep_wanted, wanted_ref=wanted_ref))
    return ds if ds is not None else ray.data.from_arrow(FETCH_SCHEMA.empty_table())


def fetch_stage(ds, fetcher_cls=CorpusFetcher, concurrency: int = 4,
                batch_size: int = 64, **fetcher_kwargs):
    """Attach a fetch actor pool to a Dataset of url rows. Mirrors the
    mode-dispatch strategy surface (``scraper.py:73-84``) with the
    advanced→basic fallback expressed as per-row error statuses rather
    than exception control flow. Hosts are not paced here (see the
    module doc). The actors reserve no CPU: they wait on the network,
    and a finished pool's last actor keeps what it reserved until the
    driver's cyclic GC frees its handle."""
    return ds.map_batches(
        fetcher_cls,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=0,
        fn_constructor_kwargs=fetcher_kwargs,
    )
