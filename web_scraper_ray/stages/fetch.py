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
"""

from __future__ import annotations

import time
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


class CorpusFetcher:
    """Offline fetcher: one actor holds a url→html map for its corpus
    shard (loaded once in ``__init__``). Used directly in tests and as
    the frontier engine's offline ``fetcher_cls``; without one the engine
    range-joins the corpus instead (frontier.py), so the full corpus is
    never resident."""

    def __init__(self, pages_path: str):
        import pyarrow.parquet as pq

        tbl = pq.read_table(pages_path, columns=["url", "html"])
        self.corpus = dict(zip(tbl["url"].to_pylist(), tbl["html"].to_pylist()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        status, htmls, errors = [], [], []
        for u in urls:
            html = self.corpus.get(u)
            if html is None:
                status.append("miss")
                htmls.append(b"")
                errors.append("")
            else:
                status.append("fetched")
                htmls.append(bytes(html))
                errors.append("")
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "status": pa.array(status, pa.string()),
                "html": pa.array(htmls, pa.large_binary()),
                "error": pa.array(errors, pa.string()),
            },
            schema=FETCH_SCHEMA,
        )


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
        for u in urls:  # pragma: no cover - requires network
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
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "status": pa.array(status, pa.string()),
                "html": pa.array(htmls, pa.large_binary()),
                "error": pa.array(errors, pa.string()),
            },
            schema=FETCH_SCHEMA,
        )


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


class ThrottledFetcher:
    """Politeness-bound fetch: binds the sharded token-bucket
    ``RateLimiter`` (``crawl/ratelimit.py``) to any fetcher class — the
    live-mode complement of the frontier engine's virtual-time
    politeness (the reference has no rate limiting at all; its
    sequential loop is accidentally polite, ``contxt/cli.py:276-307``).

    Per batch it runs admission WAVES: acquire one token per row's
    host; granted rows fetch NOW through the inner fetcher, throttled
    rows wait for the earliest token accrual and re-enter the next
    wave (the ready/deferred split of ``throttled_fetch_plan``, bounded
    to one batch). Output rows return in input order. The limiter's
    bucket shards are Ray actors shared by the WHOLE fetch pool, so
    per-host spacing holds across actors, not per actor.

    ``sleep`` / the limiter's clock are injectable (deterministic
    tests); with ``stamp_grants=True`` a ``granted_at`` float column
    (seconds of intra-batch wait before the row's fetch) is appended
    for inspection.

    ``defer=True`` switches to NON-BLOCKING admission: one acquire
    wave per batch, granted rows fetch now, throttled rows return
    immediately with ``status='deferred'`` and a ``retry_after``
    seconds column (0.0 on fetched rows) instead of being slept on —
    so one slow host never idles the actor or stalls co-resident
    hosts. :func:`fetch_with_requeue` is the round loop that
    re-circulates deferred rows."""

    def __init__(self, inner_cls=None, limiter=None, sleep=None,
                 stamp_grants: bool = False, defer: bool = False,
                 **inner_kwargs):
        assert inner_cls is not None and limiter is not None
        self.inner = inner_cls(**inner_kwargs)
        self.limiter = limiter  # actor handles — serialize fine
        self.sleep = sleep if sleep is not None else time.sleep
        self.stamp_grants = stamp_grants
        self.defer = defer

    def _call_defer(self, batch: pa.Table) -> pa.Table:
        from ..functions.urls import extract_host

        urls = batch["url"].to_pylist()
        waits = self.limiter.acquire([extract_host(u) for u in urls])
        ready = [i for i, w in enumerate(waits) if w == 0.0]
        fetched = self.inner(batch.take(ready)) if ready else None
        status, htmls, errors, retry = [], [], [], []
        cursor = 0
        for i, w in enumerate(waits):
            if w == 0.0:
                status.append(fetched["status"][cursor].as_py())
                htmls.append(fetched["html"][cursor].as_py())
                errors.append(fetched["error"][cursor].as_py())
                retry.append(0.0)
                cursor += 1
            else:
                status.append("deferred")
                htmls.append(b"")
                errors.append("")
                retry.append(float(w))
        out = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "status": pa.array(status, pa.string()),
                "html": pa.array(htmls, pa.large_binary()),
                "error": pa.array(errors, pa.string()),
            },
            schema=FETCH_SCHEMA,
        )
        return out.append_column("retry_after", pa.array(retry, pa.float64()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.urls import extract_host

        if self.defer:
            return self._call_defer(batch)
        n = batch.num_rows
        if n == 0:
            out = self.inner(batch)
            if self.stamp_grants:
                out = out.append_column("granted_at", pa.array([], pa.float64()))
            return out
        hosts = [extract_host(u) for u in batch["url"].to_pylist()]
        pending = list(range(n))
        waited = 0.0
        pieces: list[tuple[list[int], pa.Table, float]] = []
        while pending:
            waits = self.limiter.acquire([hosts[i] for i in pending])
            ready = [i for i, w in zip(pending, waits) if w == 0.0]
            if ready:
                pieces.append((ready, self.inner(batch.take(ready)), waited))
            pending = [i for i, w in zip(pending, waits) if w > 0.0]
            if pending:
                # floor the wait: an epsilon-sized dt (float residue of
                # the bucket's refill arithmetic) would advance the
                # clock by an amount that rounds away — no progress
                dt = max(min(w for w in waits if w > 0.0), 1e-6)
                self.sleep(dt)
                waited += dt
        merged = pa.concat_tables(t for _, t, _ in pieces)
        order = [i for idxs, _, _ in pieces for i in idxs]
        inv = sorted(range(len(order)), key=order.__getitem__)
        out = merged.take(inv)
        if self.stamp_grants:
            grants = [0.0] * n
            for idxs, _, at in pieces:
                for i in idxs:
                    grants[i] = at
            out = out.append_column("granted_at", pa.array(grants, pa.float64()))
        return out


def fetch_with_requeue(
    ds,
    fetcher_cls=CorpusFetcher,
    limiter=None,
    sleep=None,
    concurrency: int = 4,
    batch_size: int = 64,
    max_rounds: int = 10_000,
    **fetcher_kwargs,
):
    """Non-blocking politeness-bound fetch of a url Dataset: each round
    runs the pool in ``defer`` mode (granted rows fetch, throttled rows
    come back with ``status='deferred'`` + ``retry_after``), then the
    loop sleeps only until the EARLIEST deferred token accrues and
    re-queues just those rows. Hosts drain independently — a host with
    a 10 s crawl delay never delays another host's rows or idles a
    fetch actor (the blocking in-batch wave loop it replaces slept the
    whole actor until its slowest host finished).

    Returns ``(fetched, rounds)``: the union of per-round fetched
    outputs (FETCH_SCHEMA + retry_after + ``fetch_round``, arbitrary
    order — politeness ordering is the frontier engine's job, not the
    live fetcher's) and the number of admission rounds taken. ``sleep``
    is injectable (VirtualClock tests); per-round results materialize
    so re-queued rounds never re-fetch granted rows."""
    import pyarrow.compute as pc

    import ray.data

    assert limiter is not None
    sleep = sleep if sleep is not None else time.sleep
    done_parts = []
    pending = ds
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        out = pending.map_batches(
            ThrottledFetcher,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs=dict(
                inner_cls=fetcher_cls, limiter=limiter, defer=True,
                **fetcher_kwargs,
            ),
        ).materialize()
        rnd = rounds

        def keep_fetched(t: pa.Table, _r=rnd) -> pa.Table:
            sel = t.filter(pc.not_equal(t["status"], "deferred"))
            return sel.append_column(
                "fetch_round", pa.array([_r] * sel.num_rows, pa.int64())
            )

        fetched = out.map_batches(
            keep_fetched, batch_format="pyarrow"
        ).materialize()
        if fetched.count():
            done_parts.append(fetched)
        deferred = out.map_batches(
            lambda t: t.filter(pc.equal(t["status"], "deferred")),
            batch_format="pyarrow",
        ).materialize()
        if deferred.count() == 0:
            break
        # wait only for the earliest token accrual anywhere, then
        # re-admit — other hosts' rows were already fetched this round
        wait = float(deferred.min("retry_after") or 0.0)
        sleep(max(wait, 1e-6))
        pending = deferred.select_columns(["url"])
    else:
        raise RuntimeError(
            f"fetch_with_requeue did not drain in {max_rounds} rounds "
            "(token accrual stalled?)"
        )
    if not done_parts:
        empty = (
            pa.Table.from_pylist([], schema=FETCH_SCHEMA)
            .append_column("retry_after", pa.array([], pa.float64()))
            .append_column("fetch_round", pa.array([], pa.int64()))
        )
        return ray.data.from_arrow(empty), rounds
    result = done_parts[0]
    for part in done_parts[1:]:
        result = result.union(part)
    return result, rounds


def corpus_scan_fetch(urls: list[str], pages_path: str) -> "ray.data.Dataset":
    """Offline fetch of an explicit (small) URL list as ONE streaming
    corpus scan. The URL set is small by contract, so it broadcasts via
    ``ray.put`` (the crawl's frontier is not: it range-joins a
    hash-sorted corpus layout, ``crawl/frontier.py:_range_fetch_join``);
    the corpus is scanned once, column-pruned, with a vectorized
    ``index_in`` filter per batch — no actor ever holds a url→html dict
    of the whole corpus
    (the ``CorpusFetcher``-per-actor materialization this replaces).
    URLs absent from the corpus simply never appear (the caller's
    fetched-status filter drops misses either way). A URL listed k
    times emits k identical rows — same multiplicity as fetching each
    seed row separately (the reference's per-URL loop)."""
    from collections import Counter

    import pyarrow.compute as pc

    import ray
    import ray.data

    from ..pipelines.flagship import _default_blocks

    counts = Counter(urls)
    wanted_ref = ray.put(
        (pa.array(sorted(counts), pa.string()), dict(counts))
    )
    pages = ray.data.read_parquet(pages_path, columns=["url", "html"],
                                  override_num_blocks=_default_blocks())

    def keep(batch: pa.Table) -> pa.Table:
        wanted, mult = ray.get(wanted_ref)
        sel = batch.filter(pc.is_valid(pc.index_in(batch["url"], value_set=wanted)))
        # duplicate-seed multiplicity: repeat each matched row k times
        reps = [mult[u] for u in sel["url"].to_pylist()]
        if any(r != 1 for r in reps):
            idx = [i for i, r in enumerate(reps) for _ in range(r)]
            sel = sel.take(idx)
        k = sel.num_rows
        return pa.table(
            {
                "url": sel["url"],
                "status": pa.array(["fetched"] * k, pa.string()),
                "html": pc.cast(sel["html"], pa.large_binary()),
                "error": pa.array([""] * k, pa.string()),
            },
            schema=FETCH_SCHEMA,
        )

    return pages.map_batches(keep, batch_format="pyarrow")


def fetch_stage(ds, fetcher_cls=CorpusFetcher, concurrency: int = 4,
                batch_size: int = 64, limiter=None, sleep=None,
                stamp_grants: bool = False, **fetcher_kwargs):
    """Attach a fetch actor pool to a Dataset of url rows. Mirrors the
    mode-dispatch strategy surface (``scraper.py:73-84``) with the
    advanced→basic fallback expressed as per-row error statuses rather
    than exception control flow. With ``limiter`` (a
    ``crawl.ratelimit.RateLimiter``) every fetcher is wrapped in
    :class:`ThrottledFetcher` so live fetches honor per-host politeness
    across the whole pool."""
    if limiter is not None:
        return ds.map_batches(
            ThrottledFetcher,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs=dict(
                inner_cls=fetcher_cls, limiter=limiter, sleep=sleep,
                stamp_grants=stamp_grants, **fetcher_kwargs,
            ),
        )
    return ds.map_batches(
        fetcher_cls,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs=fetcher_kwargs,
    )
