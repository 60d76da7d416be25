"""Crawl parity: the Ray frontier engine must reproduce the sequential
reference model exactly — crawl order, seen set, fetched set — and
resume from checkpoint without divergence (SURVEY.md §5.3, §5.6)."""

import dataclasses
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from web_scraper_ray.crawl.config import CrawlConfig
from web_scraper_ray.crawl.model import sequential_crawl
from web_scraper_ray.crawl.robots import RobotsRules

CFG = CrawlConfig(max_depth=2, seen_shards=4)


@pytest.fixture(scope="module")
def model_result(small_corpus):
    robots = RobotsRules.from_parquet(f"{small_corpus}/robots.parquet",
                                      CFG.default_crawl_delay_ms)
    return sequential_crawl(
        f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", robots, CFG
    )


def test_model_sane(model_result):
    order, seen = model_result
    assert len(order) >= 15
    # every crawled url is in seen, no duplicates in order
    urls = [r["url"] for r in order]
    assert len(set(urls)) == len(urls)
    assert set(urls) <= seen
    # depth monotone across rounds
    depths = [r["depth"] for r in order]
    assert depths == sorted(depths)
    # vt nondecreasing within (round, host)
    byhost = {}
    for r in order:
        key = (r["round"], r["host"])
        assert byhost.get(key, -1.0) <= r["vt"]
        byhost[key] = r["vt"]


def test_model_deterministic(small_corpus, model_result):
    robots = RobotsRules.from_parquet(f"{small_corpus}/robots.parquet",
                                      CFG.default_crawl_delay_ms)
    order2, seen2 = sequential_crawl(
        f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", robots, CFG
    )
    assert order2 == model_result[0]
    assert seen2 == model_result[1]


def test_model_respects_filters(model_result, small_corpus):
    order, seen = model_result
    for r in order:
        assert "/tags/" not in r["url"] and "/categories/" not in r["url"]
    # robots: every 7th host disallows /category/
    for u in seen:
        host = u.split("/")[2]
        if host.startswith("host") and int(host[4:8]) % 7 == 0:
            assert "/category/" not in u


@pytest.fixture(scope="module")
def engine_result(ray_session, small_corpus, tmp_path_factory):
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    ckpt = str(tmp_path_factory.mktemp("ckpt"))
    res = run_crawl(
        f"{small_corpus}/pages",
        f"{small_corpus}/seeds.parquet",
        ckpt,
        robots_path=f"{small_corpus}/robots.parquet",
        config=CFG,
    )
    return res, load_crawl_order(ckpt)


def test_engine_matches_model_order(engine_result, model_result):
    res, order_df = engine_result
    model_order, model_seen = model_result
    got = list(zip(order_df["round"], order_df["url"], order_df["vt"]))
    want = [(r["round"], r["url"], r["vt"]) for r in model_order]
    assert got == want


def test_engine_matches_model_seen(engine_result, model_result):
    res, _ = engine_result
    assert res.seen.snapshot() == model_result[1]


def test_engine_fetched_counts(engine_result, model_result):
    res, _ = engine_result
    n_fetched_model = sum(1 for r in model_result[0] if r["status"] == "fetched")
    assert res.n_fetched == n_fetched_model
    assert res.n_admitted == len(model_result[0])


def _copy_round0(src: str, dst: str) -> None:
    """A checkpoint "killed" after round 0: only round 0's files."""
    for name in os.listdir(src):
        if name.startswith(("frontier_0000", "frontier_0001", "output_0000",
                            "manifest_0000")):
            s, d = os.path.join(src, name), os.path.join(dst, name)
            if os.path.isdir(s):
                shutil.copytree(s, d)
            else:
                shutil.copy(s, d)


def test_engine_resume_equivalence(ray_session, small_corpus, tmp_path_factory,
                                   engine_result, model_result):
    """Kill after round 0 (simulated by copying its checkpoint files),
    resume, and get the identical crawl (SURVEY.md §5.6)."""
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    res_full, order_full = engine_result
    src = res_full.checkpoint_dir
    dst = str(tmp_path_factory.mktemp("ckpt_resume"))
    _copy_round0(src, dst)

    res2 = run_crawl(
        f"{small_corpus}/pages",
        f"{small_corpus}/seeds.parquet",
        dst,
        robots_path=f"{small_corpus}/robots.parquet",
        config=CFG,
        resume=True,
    )
    order2 = load_crawl_order(dst)
    assert list(zip(order2["round"], order2["url"], order2["vt"])) == list(
        zip(order_full["round"], order_full["url"], order_full["vt"])
    )
    assert res2.seen.snapshot() == model_result[1]


def test_engine_resume_in_live_mode(ray_session, small_corpus, tmp_path_factory,
                                    engine_result, model_result):
    """Resume is fetch-mode-agnostic: interrupt after round 0 and
    CONTINUE IN LIVE MODE — the checkpoint layout (frontier/output/
    manifest) carries everything, and the live actor-pool fetch resumes
    to the byte-identical crawl."""
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    res_full, order_full = engine_result
    src = res_full.checkpoint_dir
    dst = str(tmp_path_factory.mktemp("ckpt_resume_live"))
    _copy_round0(src, dst)

    from web_scraper_ray.stages.fetch import CorpusFetcher

    cfg_live = CrawlConfig(max_depth=CFG.max_depth, seen_shards=CFG.seen_shards,
                           fetch_concurrency=2)
    res2 = run_crawl(
        f"{small_corpus}/pages",
        f"{small_corpus}/seeds.parquet",
        dst,
        robots_path=f"{small_corpus}/robots.parquet",
        config=cfg_live,
        resume=True,
        fetcher_cls=CorpusFetcher,
        fetcher_kwargs={"pages_path": f"{small_corpus}/pages"},
    )
    order2 = load_crawl_order(dst)
    assert list(zip(order2["round"], order2["url"], order2["vt"])) == list(
        zip(order_full["round"], order_full["url"], order_full["vt"])
    )
    assert res2.seen.snapshot() == model_result[1]


def test_engine_max_pages_budget(ray_session, small_corpus, tmp_path_factory,
                                 model_result):
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl
    from web_scraper_ray.crawl.model import sequential_crawl

    cfg = CrawlConfig(max_depth=2, seen_shards=4, max_pages=15)
    robots = RobotsRules.from_parquet(f"{small_corpus}/robots.parquet",
                                      cfg.default_crawl_delay_ms)
    m_order, m_seen = sequential_crawl(
        f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", robots, cfg
    )
    ckpt = str(tmp_path_factory.mktemp("ckpt_budget"))
    res = run_crawl(
        f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", ckpt,
        robots_path=f"{small_corpus}/robots.parquet", config=cfg,
    )
    order_df = load_crawl_order(ckpt)
    assert len(order_df) == len(m_order) <= 15
    assert list(order_df["url"]) == [r["url"] for r in m_order]
    assert res.seen.snapshot() == m_seen


BUDGET_CFG = CrawlConfig(max_depth=2, seen_shards=4, max_pages=12)


@pytest.fixture(scope="module")
def budget_model(small_corpus):
    robots = RobotsRules.from_parquet(f"{small_corpus}/robots.parquet",
                                      BUDGET_CFG.default_crawl_delay_ms)
    return sequential_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                            robots, BUDGET_CFG)


@pytest.fixture(scope="module")
def budget_result(ray_session, small_corpus, tmp_path_factory):
    """The corpus-join crawl under ``BUDGET_CFG``: round 1 is cut."""
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    ckpt = str(tmp_path_factory.mktemp("ckpt_budget12"))
    res = run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                    ckpt, robots_path=f"{small_corpus}/robots.parquet",
                    config=BUDGET_CFG)
    return res, load_crawl_order(ckpt)


def _order_rows(order):
    return list(zip(order["round"], order["url"], order["vt"]))


def test_budget_cut_counts_only_admitted_rows(small_corpus, budget_result,
                                              budget_model):
    """max_pages=12 cuts round 1 (round 0 admits 6 urls, round 1 has 9):
    all of round 1's urls stay seen, but the next frontier's politeness
    bases count only its admitted rows, those up to the manifest's
    cutoff."""
    import json

    import pyarrow.parquet as pq

    res, order = budget_result
    m_order, m_seen = budget_model
    robots = RobotsRules.from_parquet(f"{small_corpus}/robots.parquet",
                                      BUDGET_CFG.default_crawl_delay_ms)
    ckpt = res.checkpoint_dir
    assert list(order["url"]) == [r["url"] for r in m_order]
    assert res.seen.snapshot() == m_seen
    with open(os.path.join(ckpt, "manifest_0001.json")) as f:
        cutoff = json.load(f)["cutoff"]
    last = order.iloc[-1]
    assert cutoff == [last[c] for c in ("vt", "priority", "pvt", "pli", "url")]
    nxt = pq.read_table(os.path.join(ckpt, "frontier_0002")).to_pandas()
    nxt = nxt.sort_values(["host", "priority", "pvt", "pli", "url"])
    base = nxt["host"].map(order["host"].value_counts()).fillna(0)
    rank = nxt.groupby("host").cumcount()
    assert len(nxt) and list(nxt["vt"]) == list(
        ((base + rank) * nxt["host"].map(robots.delay_ms)).astype(float))


def test_budget_cut_resume(ray_session, small_corpus, tmp_path, budget_result,
                           budget_model):
    """Resume a budget crawl from a checkpoint whose round 1 was cut
    (copied through manifest_0001; the cutoff lives only in the
    manifest), and from one after round 0 (the resumed run makes the
    cut): both equal the uninterrupted crawl and the model. A stale
    ``admitted_0001/`` of an older checkpoint format, here holding all of
    frontier 1, is ignored."""
    import pyarrow.parquet as pq

    from web_scraper_ray.crawl.frontier import (FRONTIER_COLUMNS, load_crawl_order,
                                                run_crawl)

    res_full, order_full = budget_result
    m_order, m_seen = budget_model
    src = res_full.checkpoint_dir
    assert not [n for n in os.listdir(src) if n.startswith("admitted_")]
    prefixes = {"cut": ("frontier_0000", "frontier_0001", "frontier_0002",
                        "output_0000", "output_0001", "manifest_0000",
                        "manifest_0001"),
                "round0": ("frontier_0000", "frontier_0001", "output_0000",
                           "manifest_0000")}
    for name, keep in prefixes.items():
        dst = tmp_path / name
        os.makedirs(dst)
        for entry in os.listdir(src):
            if entry.startswith(keep):
                (shutil.copytree if os.path.isdir(os.path.join(src, entry))
                 else shutil.copy)(os.path.join(src, entry), dst / entry)
        for stale in (False, True):
            if stale:
                os.makedirs(dst / "admitted_0001")
                pq.write_table(pq.read_table(dst / "frontier_0001",
                                             columns=FRONTIER_COLUMNS),
                               dst / "admitted_0001" / "part-0.parquet")
            res = run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                            str(dst), robots_path=f"{small_corpus}/robots.parquet",
                            config=BUDGET_CFG, resume=True)
            order = load_crawl_order(str(dst))
            assert _order_rows(order) == _order_rows(order_full), (name, stale)
            assert _order_rows(order) == [(r["round"], r["url"], r["vt"])
                                          for r in m_order]
            assert res.seen.snapshot() == m_seen


def test_crawl_empty_and_invalid_seeds(ray_session, small_corpus, tmp_path):
    """All-invalid seed lists must terminate cleanly with zero rounds."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    seeds = pa.table({
        "seed_index": pa.array([0, 1], pa.int64()),
        "url": pa.array(["not-a-url", "/relative"], pa.string()),
    })
    for name, t in (("bad", seeds), ("empty", seeds.slice(0, 0))):
        sp = str(tmp_path / f"{name}_seeds.parquet")
        pq.write_table(t, sp)
        res = run_crawl(f"{small_corpus}/pages", sp, str(tmp_path / f"ckpt_{name}"),
                        config=CFG)
        assert res.n_admitted == 0 and res.n_fetched == 0
        assert len(load_crawl_order(str(tmp_path / f"ckpt_{name}"))) == 0


def test_crawl_robots_block_all(ray_session, small_corpus, tmp_path):
    """A robots table disallowing / on every host admits nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from web_scraper_ray.crawl.frontier import run_crawl

    hosts = [f"host{h:04d}.example" for h in range(12)]
    robots = pa.table({
        "host": pa.array(hosts, pa.string()),
        "disallow_prefixes": pa.array([["/"]] * len(hosts), pa.list_(pa.string())),
        "crawl_delay_ms": pa.array([100] * len(hosts), pa.int64()),
    })
    rp = str(tmp_path / "robots_all.parquet")
    pq.write_table(robots, rp)
    res = run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                    str(tmp_path / "ckpt2"), robots_path=rp, config=CFG)
    assert res.n_admitted == 0


def test_crawl_depth_zero(ray_session, small_corpus, tmp_path, model_result):
    """max_depth=0 fetches exactly the admitted seeds, no expansion."""
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl
    from web_scraper_ray.crawl.model import sequential_crawl

    cfg0 = CrawlConfig(max_depth=0, seen_shards=2)
    robots = RobotsRules.from_parquet(f"{small_corpus}/robots.parquet",
                                      cfg0.default_crawl_delay_ms)
    m_order, m_seen = sequential_crawl(
        f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", robots, cfg0
    )
    res = run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                    str(tmp_path / "ckpt3"),
                    robots_path=f"{small_corpus}/robots.parquet", config=cfg0)
    order = load_crawl_order(str(tmp_path / "ckpt3"))
    assert list(order["url"]) == [r["url"] for r in m_order]
    assert res.seen.snapshot() == m_seen
    assert (order["round"] == 0).all()


def test_giant_host_spanning_blocks(ray_session, small_corpus, tmp_path):
    """One host with 20,000 seed urls (plus 300 on five small hosts,
    mixed priorities) is read as several blocks, yet admission ranks it
    in one bucket task: the crawl equals the sequential model in order,
    vt and seen set."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    from web_scraper_ray.crawl.frontier import (_n_buckets, _seed_candidates,
                                                load_crawl_order, run_crawl)

    urls = [f"https://giant.example/p/{i}" for i in range(20_000)]
    urls += [f"https://small{h}.example/q/{i}" for h in range(5)
             for i in range(60)]
    seeds = pa.table({
        "seed_index": pa.array(range(len(urls)), pa.int64()),
        "url": pa.array(urls, pa.string()),
        "priority": pa.array([(i * 7) % 3 for i in range(len(urls))],
                             pa.int64()),
    })
    sp = str(tmp_path / "giant_seeds.parquet")
    pq.write_table(seeds, sp, row_group_size=4096)
    cfg = CrawlConfig(max_depth=0)
    robots = RobotsRules.empty(cfg.default_crawl_delay_ms)
    n_blocks = _seed_candidates(sp, ray.put(robots), cfg,
                                _n_buckets()).materialize().num_blocks()
    assert n_blocks >= 2  # the giant host really spans read blocks

    m_order, m_seen = sequential_crawl(f"{small_corpus}/pages", sp, robots, cfg)
    ckpt = str(tmp_path / "ckpt_giant")
    res = run_crawl(f"{small_corpus}/pages", sp, ckpt, config=cfg)
    order = load_crawl_order(ckpt)
    assert list(zip(order["round"], order["url"], order["vt"])) == [
        (r["round"], r["url"], r["vt"]) for r in m_order
    ]
    assert res.seen.snapshot() == m_seen
    assert len(m_order) == len(urls)


def test_giant_host_fetch(ray_session, tmp_path, monkeypatch):
    """Fetch-side twin of test_giant_host_spanning_blocks: one host with
    3,000 pages in the corpus (plus 300 on five small hosts) is one
    bucket's run, joined with a layout of 16-row groups (about 190 of
    them hold the host). The join still splits by admitted rows: no
    join task takes more than a few JOIN_ROWS rows, so the host's pages
    spread over many tasks. The crawl equals the sequential model in
    order, vt and seen set, and fetches every page."""
    import collections

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from web_scraper_ray.crawl import frontier
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    urls = [f"https://giant.example/p/{i}" for i in range(3000)]
    urls += [f"https://small{h}.example/q/{i}" for h in range(5) for i in range(60)]
    # each page links to another corpus page, so round 1 finds only seen urls
    html = [f"<html><head><title>t{i}</title></head><body><p>page {i}</p>"
            f"<a href=\"{urls[(7 * i + 1) % len(urls)]}\">next</a></body></html>".encode()
            for i in range(len(urls))]
    os.makedirs(tmp_path / "pages")
    pq.write_table(pa.table({"url": urls, "html": pa.array(html, pa.binary())}),
                   tmp_path / "pages" / "part-0.parquet", row_group_size=1000)
    sp = str(tmp_path / "seeds.parquet")
    pq.write_table(pa.table({
        "seed_index": pa.array(range(len(urls)), pa.int64()),
        "url": pa.array(urls, pa.string()),
        "priority": pa.array([(i * 7) % 3 for i in range(len(urls))], pa.int64()),
    }), sp)
    monkeypatch.setattr(frontier, "LAYOUT_GROUP_ROWS", 16)
    log = str(tmp_path / "joins.txt")
    real = frontier._join_run

    def logged(layout, adm):  # one line per join call: its task and rows
        with open(log, "a") as f:
            f.write(f"{ray.get_runtime_context().get_task_id()} {adm.num_rows}\n")
        yield from real(layout, adm)

    monkeypatch.setattr(frontier, "_join_run", logged)
    cfg = CrawlConfig(max_depth=1, index_dir=str(tmp_path / "hidx"))
    robots = RobotsRules.empty(cfg.default_crawl_delay_ms)
    m_order, m_seen = sequential_crawl(str(tmp_path / "pages"), sp, robots, cfg)
    ckpt = str(tmp_path / "ckpt")
    res = run_crawl(str(tmp_path / "pages"), sp, ckpt, config=cfg)
    runs = frontier._parquet_files(frontier._frontier_dir(ckpt, 0))
    giant = [f for f in runs if "giant.example" in pq.read_table(f, columns=["host"])[
        "host"].to_pylist()]
    assert len(giant) == 1 and pq.read_metadata(giant[0]).num_rows >= 3000
    per_task = collections.Counter()
    with open(log) as f:
        for line in f:
            task, n = line.split()
            per_task[task] += int(n)
    assert sum(per_task.values()) == len(urls)
    assert max(per_task.values()) <= 3 * frontier.JOIN_ROWS
    order = load_crawl_order(ckpt)
    assert list(zip(order["round"], order["url"], order["vt"])) == [
        (r["round"], r["url"], r["vt"]) for r in m_order
    ]
    assert res.seen.snapshot() == m_seen
    assert res.n_fetched == res.n_admitted == len(urls)


def test_unbudgeted_crawl_is_one_execution(ray_session, small_corpus, tmp_path,
                                          monkeypatch, engine_result):
    """Over an already-built layout, an unbudgeted depth-2 crawl runs
    exactly ONE Ray Data execution (counted at
    ``StreamingExecutor.execute``), seeds to last round, and writes the
    uninterrupted crawl's three manifests and runs. A live crawl plans
    one round per execution, after the seed admission's, so a round's
    fetch actors start with its round."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl
    from web_scraper_ray.stages.fetch import CorpusFetcher

    res_full, order_full = engine_result
    calls = []
    real = StreamingExecutor.execute
    monkeypatch.setattr(StreamingExecutor, "execute",
                        lambda self, *a, **kw: calls.append(1) or real(self, *a, **kw))
    res = run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                    str(tmp_path), robots_path=f"{small_corpus}/robots.parquet",
                    config=CFG)
    assert len(calls) == 1
    assert res.rounds == 3
    assert load_crawl_order(str(tmp_path)).equals(order_full)
    assert _runs(str(tmp_path)) == _runs(res_full.checkpoint_dir)
    calls.clear()
    live = run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                     str(tmp_path / "live"),
                     config=CrawlConfig(max_depth=1, default_crawl_delay_ms=1),
                     fetcher_cls=CorpusFetcher,
                     fetcher_kwargs={"pages_path": f"{small_corpus}/pages"})
    assert live.rounds == 2 and len(calls) == 3


@pytest.mark.parametrize("where", ["round1_extract", "frontier2_admission"])
def test_crash_inside_the_execution_then_resume(ray_session, small_corpus, tmp_path,
                                                monkeypatch, where, engine_result,
                                                model_result):
    """A UDF raises once inside the crawl's single execution: in round
    1's extraction (frontier 1 may be partial: resume restarts from
    frontier 0's runs), or in the admission of frontier 2 right after a
    bucket wrote its run (that run proves round 0 complete: resume
    folds its manifest and restarts from frontier 1's runs). The
    resumed crawl equals the uninterrupted one in order, vt, runs and
    seen set."""
    from web_scraper_ray.crawl import frontier
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    ckpt = str(tmp_path / "ckpt")
    flag = str(tmp_path / "raised")
    if where == "round1_extract":
        real = frontier._extract_with_meta

        def crash_once(batch):
            # round 0's rows are seeds (pvt = -1.0); round 1's come first after
            if min(batch["pvt"].to_pylist()) >= 0 and not os.path.exists(flag):
                open(flag, "w").close()
                raise RuntimeError("injected failure")
            return real(batch)

        monkeypatch.setattr(frontier, "_extract_with_meta", crash_once)
    else:
        real = frontier._admit_bucket

        def crash_once(g, ckpt_dir, k, cutoffs, robots):
            out = real(g, ckpt_dir, k, cutoffs, robots)
            # the first frontier-2 task that writes a run fails after it
            if k == 2 and out.num_rows and not os.path.exists(flag):
                open(flag, "w").close()
                raise RuntimeError("injected failure")
            return out

        monkeypatch.setattr(frontier, "_admit_bucket", crash_once)

    def crawl(resume):
        return run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", ckpt,
                         robots_path=f"{small_corpus}/robots.parquet", config=CFG,
                         resume=resume)

    def stamps(d):
        return {f: os.stat(f).st_mtime_ns for f in frontier._parquet_files(d)}

    with pytest.raises(Exception, match="injected failure"):
        crawl(False)
    assert os.path.exists(flag)
    assert not os.path.exists(os.path.join(ckpt, "manifest_0000.json"))
    out0 = stamps(os.path.join(ckpt, "output_0000"))
    res = crawl(True)
    # round 0 is redone only when no frontier-2 run proves it complete
    assert (stamps(os.path.join(ckpt, "output_0000")) == out0) == (
        where == "frontier2_admission")
    res_full, order_full = engine_result
    assert load_crawl_order(ckpt).equals(order_full)
    assert _runs(ckpt) == _runs(res_full.checkpoint_dir)
    assert res.seen.snapshot() == model_result[1]
    assert (res.rounds, res.n_admitted, res.n_fetched) == (
        res_full.rounds, res_full.n_admitted, res_full.n_fetched)


def test_seed_read_plans_row_slices(ray_session, tmp_path):
    """The seed read is planned from the footer: a single-row-group
    file of 20,000 seeds is cut into row slices, so at 4 CPUs it yields
    >= 2 blocks, and exactly the candidate rows that one
    ``read_parquet`` of the whole file yields."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    from web_scraper_ray.crawl import frontier
    from web_scraper_ray.functions.urls import canonicalize_url, is_valid_url

    urls = [f"https://h{i % 37}.example/p/{i}" for i in range(20_000)]
    urls[5], urls[9], urls[19_999] = "not-a-url", urls[8], "/relative"
    seeds = pa.table({"seed_index": pa.array(range(len(urls)), pa.int64()),
                      "url": urls,
                      "priority": pa.array([(i * 5) % 3 for i in range(len(urls))],
                                           pa.int64())})
    sp = str(tmp_path / "seeds.parquet")
    pq.write_table(seeds, sp)
    assert pq.ParquetFile(sp).metadata.num_row_groups == 1
    cfg = CrawlConfig()
    ds = frontier._seed_candidates(
        sp, ray.put(RobotsRules.empty(cfg.default_crawl_delay_ms)), cfg, 64).materialize()
    assert ds.num_blocks() >= 2

    rows = frontier._new_rows()
    for r in ray.data.read_parquet(sp).take_all():
        if is_valid_url(r["url"]):
            frontier._push_candidate(rows, canonicalize_url(r["url"]), r["priority"],
                                     -1.0, r["seed_index"], 0, -1.0, 0, "")
    want = frontier._candidate_table(rows, 64)
    assert want.num_rows == len(urls) - 2

    def key(r):
        return tuple(r.values())

    assert sorted(ds.take_all(), key=key) == sorted(want.to_pylist(), key=key)


def test_crawl_order_ds_matches_dataframe(engine_result, budget_result):
    """The distributed crawl-order Dataset equals the driver-side
    DataFrame helper row for row, also on a checkpoint whose round 1 a
    budget cut."""
    from web_scraper_ray.crawl.frontier import crawl_order_ds

    for res, order_df in (engine_result, budget_result):
        ds = crawl_order_ds(res.checkpoint_dir)
        got = ds.to_pandas()
        assert list(got["url"]) == list(order_df["url"])
        assert list(got["vt"]) == list(order_df["vt"])
        assert list(got["round"]) == list(order_df["round"])
    assert len(budget_result[1]) == BUDGET_CFG.max_pages


def _run_join_crawl(small_corpus, ckpt, idx_dir):
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    cfg = CrawlConfig(max_depth=2, seen_shards=4, index_dir=idx_dir)
    res = run_crawl(
        f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", ckpt,
        robots_path=f"{small_corpus}/robots.parquet", config=cfg,
    )
    (layout,) = os.listdir(idx_dir)
    return res, load_crawl_order(ckpt), os.path.join(idx_dir, layout)


def _join_reads(monkeypatch):
    """Record the row-group lists ``_join_run`` reads, one per file read."""
    import pyarrow.parquet as pq

    reads = []
    real = pq.ParquetFile.read_row_groups
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups",
                        lambda self, rgs, **kw: reads.append(list(rgs)) or real(self, rgs, **kw))
    return reads


def test_run_join_one_group_per_file(ray_session, small_corpus,
                                     tmp_path_factory, engine_result,
                                     model_result):
    """The corpus join over a layout whose files each hold one
    row group (the benchmark corpus shape) produces the model's crawl.
    The crawl's layout is ordered by the crawl key: its key column is
    ``crawl_key(url)`` and its lineage names that hash."""
    import glob
    import json

    import pyarrow.parquet as pq

    from web_scraper_ray.crawl.frontier import crawl_key

    res, order, layout = _run_join_crawl(
        small_corpus, str(tmp_path_factory.mktemp("ckpt_one_group")),
        str(tmp_path_factory.mktemp("hidx_one_group")))
    files = glob.glob(f"{layout}/data/*.parquet")
    assert len(files) > 1
    assert all(pq.ParquetFile(f).metadata.num_row_groups == 1 for f in files)
    with open(f"{layout}/lineage.json") as f:
        assert json.load(f)["hash"] == "web_scraper_ray.crawl.frontier.crawl_key"
    data = pq.read_table(files)
    assert data["__key_h"].to_pylist() == crawl_key(data["url"]).tolist()
    _, order_bc = engine_result
    assert list(zip(order["round"], order["url"], order["vt"])) == list(
        zip(order_bc["round"], order_bc["url"], order_bc["vt"])
    )
    assert res.seen.snapshot() == model_result[1]


def test_run_join_many_groups_per_file(ray_session, small_corpus,
                                       tmp_path_factory, monkeypatch,
                                       engine_result, model_result):
    """With 16-row layout row groups some files hold several groups, and
    one join of a run's rows reads several groups of one file: still
    the model's crawl."""
    import collections

    import pyarrow.parquet as pq

    from web_scraper_ray.crawl import frontier

    monkeypatch.setattr(frontier, "LAYOUT_GROUP_ROWS", 16)
    res, order, layout = _run_join_crawl(
        small_corpus, str(tmp_path_factory.mktemp("ckpt_many_groups")),
        str(tmp_path_factory.mktemp("hidx_many_groups")))
    idx = pq.read_table(f"{layout}/index.parquet")
    assert max(idx["n"].to_pylist()) <= 16
    assert len(set(idx["file"].to_pylist())) < idx.num_rows
    # a run holding every url of the layout file with the most groups
    # reads all of that file's groups in one read, and gets every row
    n_groups = collections.Counter(idx["file"].to_pylist())
    name, n = n_groups.most_common(1)[0]
    assert n > 1
    urls = pq.read_table(f"{layout}/data/{name}", columns=["url"])["url"].to_pylist()
    ckpt = str(tmp_path_factory.mktemp("ckpt_one_file"))
    os.makedirs(frontier._frontier_dir(ckpt, 0))
    adm = frontier._write_run(_run_table(urls), ckpt, 0, 0)
    reads = _join_reads(monkeypatch)
    got = [u for t in frontier._join_run(layout, adm) for u in t["url"].to_pylist()]
    assert reads == [list(range(n))]
    assert sorted(got) == sorted(urls)
    _, order_bc = engine_result
    assert list(zip(order["round"], order["url"], order["vt"])) == list(
        zip(order_bc["round"], order_bc["url"], order_bc["vt"])
    )
    assert res.seen.snapshot() == model_result[1]


def test_sparse_round_reads_few_layout_groups(ray_session, small_corpus,
                                              tmp_path, monkeypatch):
    """Runs that admit 3 urls read strictly fewer layout row groups than
    exist, and return exactly the rows an exact-url filter of the corpus
    returns, with the frontier's META_COLUMNS attached."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from web_scraper_ray.crawl import frontier
    from web_scraper_ray.sources.hashindex import build_hash_index

    layout = build_hash_index(f"{small_corpus}/pages", "url", str(tmp_path / "hidx"),
                              columns=["url", "html"], rows_per_group=16,
                              key_hash=frontier.crawl_key)
    pages = pq.read_table(f"{small_corpus}/pages", columns=["url", "html"]).to_pandas()
    want = sorted(pages["url"])[5:50:20]
    ckpt = str(tmp_path / "ckpt")
    os.makedirs(frontier._frontier_dir(ckpt, 0))
    adm = pd.DataFrame({"url": want, "host": [u.split("/")[2] for u in want],
                        "priority": [0, 1, 2], "pvt": [-1.0] * 3, "pli": [7, 8, 9],
                        "vt": [0.0, 100.0, 200.0]})
    adm = pa.Table.from_pandas(adm, preserve_index=False)
    parts = [frontier._write_run(adm.slice(0, 2), ckpt, 0, 0),  # two bucket runs
             frontier._write_run(adm.slice(2), ckpt, 0, 1)]
    runs = frontier._parquet_files(frontier._frontier_dir(ckpt, 0))

    reads = _join_reads(monkeypatch)
    got = pd.concat([t.to_pandas() for part in parts
                     for t in frontier._join_run(layout, part)])
    total = pq.read_table(f"{layout}/index.parquet").num_rows
    assert 0 < sum(map(len, reads)) < total
    exact = pages[pages["url"].isin(want)]
    got = got.sort_values("url").reset_index(drop=True)
    assert list(got["url"]) == list(exact.sort_values("url")["url"])
    assert list(got["html"]) == list(exact.sort_values("url")["html"])
    assert list(got["pli"]) == [7, 8, 9] and list(got["vt"]) == [0.0, 100.0, 200.0]
    # the Ray Data path (the runs' read, the join, then extraction and
    # the output write) returns the same rows
    out = frontier._fetch_and_extract(
        frontier._read_runs(runs, frontier.JOIN_COLUMNS, None), ckpt, 0, layout,
        None, None, CrawlConfig()).to_pandas()
    assert sorted(out["url"]) == want


def test_run_join_confirms_urls_on_key_collisions(ray_session, small_corpus,
                                                  tmp_path, monkeypatch):
    """With the url part of the crawl key cut to 3 bits in both the
    layout and the run, every admitted key collides with other corpus
    rows; the url string confirm still returns exactly the admitted
    urls' rows."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_scraper_ray.crawl import frontier
    from web_scraper_ray.sources import hashindex

    real = frontier.crawl_key

    def cut(urls, hosts=None):
        ck = real(urls, hosts)
        return (ck >> frontier.CK_URL_BITS << frontier.CK_URL_BITS) | (ck & 7)

    monkeypatch.setattr(frontier, "crawl_key", cut)
    layout = hashindex.build_hash_index(f"{small_corpus}/pages", "url",
                                        str(tmp_path / "hidx"),
                                        columns=["url", "html"], rows_per_group=16,
                                        key_hash=cut)
    keys = pq.read_table(f"{layout}/data", columns=["__key_h"])["__key_h"].to_numpy()
    assert (keys & ((1 << frontier.CK_URL_BITS) - 1)).max() <= 7
    pages = pq.read_table(f"{small_corpus}/pages", columns=["url"]).to_pandas()
    want = sorted(pages["url"])[3:60:19]
    ckpt = str(tmp_path / "ckpt")
    os.makedirs(frontier._frontier_dir(ckpt, 0))
    adm = frontier._write_run(pa.Table.from_pandas(pd.DataFrame({
        "url": want, "host": [u.split("/")[2] for u in want], "priority": 0,
        "pvt": -1.0, "pli": range(len(want)), "vt": 0.0}), preserve_index=False),
        ckpt, 0, 0)
    (run,) = frontier._parquet_files(frontier._frontier_dir(ckpt, 0))
    assert np.isin(keys, pq.read_table(run)["ck"].to_numpy()).sum() > 2 * len(want)
    got = pd.concat([t.to_pandas() for t in frontier._join_run(layout, adm)])
    assert sorted(got["url"]) == want
    assert list(got.sort_values("url")["pli"]) == list(range(len(want)))


def test_hash_index_prunes_row_groups(ray_session, small_corpus, tmp_path):
    """Direct contract of sources/hashindex.py: lookups return exactly
    the matching rows and a sparse lookup touches a strict subset of
    row groups."""
    import glob

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from web_scraper_ray.sources.hashindex import (
        _fold_keys, _plan_fragments, build_hash_index, hash_lookup,
    )

    idx = build_hash_index(f"{small_corpus}/pages", "url",
                           str(tmp_path / "hidx"), columns=["url", "html"],
                           rows_per_group=16)
    pages = pd.concat([pd.read_parquet(f, columns=["url"])
                       for f in glob.glob(f"{small_corpus}/pages/*.parquet")])
    want = sorted(pages["url"])[::7]  # every 7th url, deterministic
    got = hash_lookup(idx, want, "url", columns=["url"]).to_pandas()
    assert sorted(got["url"]) == sorted(want)
    # sparse 3-key lookup touches < all row groups
    total = sum(pq.ParquetFile(f).metadata.num_row_groups
                for f in glob.glob(f"{idx}/data/*.parquet"))
    h, _ = _fold_keys.remote(pa.table({"url": pa.array(want[:3])}))
    runs = ray.get(_plan_fragments.remote(idx, h))
    assert 0 < sum(len(r["rgs"]) for r in runs) < total
    # misses return nothing
    assert hash_lookup(idx, ["http://nosuch.example/x"], "url").count() == 0
    # a re-build of the same source is cached: same directory, and the
    # data files must be UNTOUCHED (path equality alone would also hold
    # after a silent full rebuild)
    import os

    def stamps(layout):
        return {f: os.stat(os.path.join(layout, "data", f)).st_mtime_ns
                for f in os.listdir(os.path.join(layout, "data"))}

    before = stamps(idx)
    assert build_hash_index(f"{small_corpus}/pages", "url",
                            str(tmp_path / "hidx"), columns=["url", "html"],
                            rows_per_group=16) == idx
    assert stamps(idx) == before
    # another source, and the same source with other columns, under the
    # same parent get their own layouts; no tmp build directory is left
    # behind
    src_file = sorted(glob.glob(f"{small_corpus}/pages/*.parquet"))[0]
    os.makedirs(tmp_path / "other")
    pq.write_table(pq.read_table(src_file).slice(0, 50),
                   tmp_path / "other" / os.path.basename(src_file))
    other = build_hash_index(str(tmp_path / "other"), "url", str(tmp_path / "hidx"),
                             columns=["url", "html"], rows_per_group=16)
    urls_only = build_hash_index(f"{small_corpus}/pages", "url",
                                 str(tmp_path / "hidx"), columns=["url"],
                                 rows_per_group=16)
    assert len({idx, other, urls_only}) == 3
    assert sorted(os.listdir(tmp_path / "hidx")) == sorted(
        os.path.basename(p) for p in (idx, other, urls_only))
    # an in-place SOURCE rewrite (same names/sizes, new mtime) names a
    # new layout, which is built and supersedes the old one: one layout
    # is left for that source, and the other layouts survive untouched
    os.utime(src_file)
    rebuilt = build_hash_index(f"{small_corpus}/pages", "url",
                               str(tmp_path / "hidx"), columns=["url", "html"],
                               rows_per_group=16)
    assert rebuilt != idx and not os.path.exists(idx)
    assert min(stamps(rebuilt).values()) > max(before.values())
    got = hash_lookup(rebuilt, want, "url", columns=["url"]).to_pandas()
    assert sorted(got["url"]) == sorted(want)
    assert sorted(os.listdir(tmp_path / "hidx")) == sorted(
        os.path.basename(p) for p in (rebuilt, other, urls_only))


def _live_crawl(small_corpus, ckpt, cfg, fetcher_cls=None, **fetcher_kwargs):
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl
    from web_scraper_ray.stages.fetch import CorpusFetcher

    res = run_crawl(
        f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", ckpt,
        robots_path=f"{small_corpus}/robots.parquet", config=cfg,
        fetcher_cls=fetcher_cls or CorpusFetcher,
        fetcher_kwargs={"pages_path": f"{small_corpus}/pages", **fetcher_kwargs},
    )
    assert not [n for n in os.listdir(ckpt) if n.startswith("admitted_")]
    return res, load_crawl_order(ckpt)


def test_live_fetch_mode_parity(ray_session, small_corpus, tmp_path_factory,
                                engine_result, model_result, budget_result,
                                budget_model):
    """A ``fetcher_cls`` (actor-pool fetcher, NO corpus join — the real
    deployment shape) with the deterministic corpus-backed fetcher
    produces the identical crawl to the corpus join, unbounded and
    under ``max_pages=12`` (it fetches only the cut round's rows up to
    the cutoff). No checkpoint holds an ``admitted_*`` copy."""
    for cfg, (res_rj, order_rj), (_, m_seen) in (
            (CFG, engine_result, model_result),
            (BUDGET_CFG, budget_result, budget_model)):
        cfg = dataclasses.replace(cfg, fetch_concurrency=2)
        ckpt = str(tmp_path_factory.mktemp(f"ckpt_live_{cfg.max_pages}"))
        res, order = _live_crawl(small_corpus, ckpt, cfg)
        assert _order_rows(order) == _order_rows(order_rj), cfg.max_pages
        assert res.seen.snapshot() == m_seen
        assert (res.n_admitted, res.n_fetched) == (res_rj.n_admitted,
                                                   res_rj.n_fetched)


def test_live_requeue_mode_parity(ray_session, small_corpus, tmp_path_factory,
                                  engine_result, model_result, budget_result,
                                  budget_model):
    """A live crawl is paced by the robots crawl delays on the real
    clock: a recording ``CorpusFetcher`` sees each host's fetches start
    at least ``delay_h`` apart, within a round and across rounds. And
    the crawl is still the corpus-join crawl, unbounded and under
    ``max_pages=12``: pacing binds at fetch time, vt ordering is
    admission-side."""
    import time

    from web_scraper_ray.functions.urls import extract_host
    from web_scraper_ray.stages.fetch import CorpusFetcher

    class RecordingFetcher(CorpusFetcher):
        """Appends ``(url, monotonic time)`` per fetched row, one file
        per process (the pacer's default clock is ``time.monotonic``)."""

        def __init__(self, pages_path, log_dir):
            super().__init__(pages_path)
            self.log = os.path.join(log_dir, f"{os.getpid()}.tsv")

        def __call__(self, batch):
            t = time.monotonic()
            with open(self.log, "a") as f:
                f.writelines(f"{u}\t{t!r}\n" for u in batch["url"].to_pylist())
            return super().__call__(batch)

    robots = RobotsRules.from_parquet(f"{small_corpus}/robots.parquet",
                                      CFG.default_crawl_delay_ms)
    for cfg, (res_rj, order_rj), (_, m_seen) in (
            (CFG, engine_result, model_result),
            (BUDGET_CFG, budget_result, budget_model)):
        cfg = dataclasses.replace(cfg, fetch_concurrency=2)
        ckpt = str(tmp_path_factory.mktemp(f"ckpt_live_paced_{cfg.max_pages}"))
        log_dir = str(tmp_path_factory.mktemp(f"fetch_log_{cfg.max_pages}"))
        res, order = _live_crawl(small_corpus, ckpt, cfg, RecordingFetcher,
                                 log_dir=log_dir)
        assert _order_rows(order) == _order_rows(order_rj), cfg.max_pages
        assert res.seen.snapshot() == m_seen
        assert (res.n_admitted, res.n_fetched) == (res_rj.n_admitted,
                                                   res_rj.n_fetched)

        # every admitted row is fetched once; each host's starts, over
        # the whole crawl, are at least its delay apart
        starts, urls = {}, []
        for name in os.listdir(log_dir):
            with open(os.path.join(log_dir, name)) as f:
                for line in f:
                    url, t = line.rstrip("\n").split("\t")
                    urls.append(url)
                    starts.setdefault(extract_host(url), []).append(float(t))
        assert sorted(urls) == sorted(order["url"])
        for host, ts in starts.items():
            ts.sort()
            d = robots.delay_ms(host) / 1000
            assert all(b - a >= d for a, b in zip(ts, ts[1:])), host
        # both cases occur: a paced host with two rows in one round,
        # and one fetched in two rounds
        per_round = order.assign(host=order["url"].map(extract_host)).groupby(
            "host")["round"].agg(["size", "nunique"])
        paced = per_round[[robots.delay_ms(h) > 0 for h in per_round.index]]
        assert (paced["size"] > paced["nunique"]).any()
        assert (paced["nunique"] > 1).any()


def test_budget_cut_matches_in_memory_sort(ray_session, tmp_path):
    """``_budget_cut`` over 16 runs read as several blocks returns the
    k-th smallest ORDER_KEYS tuple, for k from 1 to all rows but one."""
    import pyarrow as pa

    from web_scraper_ray.crawl import frontier

    n = 20_800
    t = pa.table({"url": [f"https://h{i % 23}.example/{i}" for i in range(n)],
                  "host": [f"h{i % 23}.example" for i in range(n)],
                  "priority": [i % 3 for i in range(n)],
                  "pvt": [float(i % 5) for i in range(n)],
                  "pli": [i % 7 for i in range(n)],
                  "vt": [100.0 * (i % 11) for i in range(n)]})
    ckpt = str(tmp_path)
    os.makedirs(frontier._frontier_dir(ckpt, 0))
    for b in range(16):
        frontier._write_run(t.slice(b * n // 16, n // 16), ckpt, 0, b)
    runs = frontier._parquet_files(frontier._frontier_dir(ckpt, 0))
    assert frontier._read_runs(runs, frontier.ORDER_KEYS, None
                               ).materialize().num_blocks() >= 2
    order = sorted(zip(*(t[c].to_pylist() for c in frontier.ORDER_KEYS)))
    for k in (1, 7, 9_000, n - 1):
        assert frontier._budget_cut(runs, k) == list(order[k - 1]), k


def test_url_gate_screens_all_rounds(ray_session, small_corpus,
                                     tmp_path_factory, engine_result):
    """CrawlConfig.url_gate: every admitted url in every round passes
    the gate (both discovery sites feed through it), gated-out hosts
    never appear, and the gate only ever REMOVES urls relative to the
    ungated crawl."""
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl
    from web_scraper_ray.ops.urlgate import url_gate_frame

    _, order_bc = engine_result
    blocked = sorted({h for h in order_bc["host"]})[0]
    gate = dict(blocked_hosts=frozenset({blocked}), banned_tokens=())
    cfg = CrawlConfig(max_depth=2, seen_shards=4, url_gate=gate)
    ckpt = str(tmp_path_factory.mktemp("ckpt_gated"))
    run_crawl(
        f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet", ckpt,
        robots_path=f"{small_corpus}/robots.parquet", config=cfg,
    )
    order = load_crawl_order(ckpt)
    assert len(order) > 0
    assert blocked not in set(order["host"])
    verdict = url_gate_frame(order[["url"]].copy(), **gate)
    assert (verdict["kept"] == 1).all()
    # the gate is a pure filter on the discovered url universe
    assert set(order["url"]) <= set(order_bc["url"])


def _runs(ckpt: str) -> dict:
    """Every frontier run file of a checkpoint, by relative path → bytes."""
    out = {}
    for name in sorted(os.listdir(ckpt)):
        if name.startswith("frontier_"):
            for f in sorted(os.listdir(os.path.join(ckpt, name))):
                if f.endswith(".parquet"):
                    with open(os.path.join(ckpt, name, f), "rb") as fh:
                        out[f"{name}/{f}"] = fh.read()
    return out


def _resume(small_corpus, ckpt):
    from web_scraper_ray.crawl.frontier import load_crawl_order, run_crawl

    res = run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                    ckpt, robots_path=f"{small_corpus}/robots.parquet",
                    config=CFG, resume=True)
    return res, load_crawl_order(ckpt)


def test_resume_reuses_recorded_bucket_count(ray_session, small_corpus,
                                             tmp_path, monkeypatch,
                                             engine_result, model_result):
    """Runs are keyed by bucket: a resume on a cluster whose size gives
    another bucket count must keep the recorded one and reproduce the
    uninterrupted crawl byte for byte."""
    import json

    from web_scraper_ray.crawl import frontier

    res_full, order_full = engine_result
    with open(os.path.join(res_full.checkpoint_dir, "manifest_0000.json")) as f:
        recorded = json.load(f)["n_buckets"]
    monkeypatch.setattr(frontier, "_n_buckets", lambda: recorded + 7)
    _copy_round0(res_full.checkpoint_dir, str(tmp_path))
    res, order = _resume(small_corpus, str(tmp_path))
    assert order.equals(order_full)
    assert _runs(str(tmp_path)) == _runs(res_full.checkpoint_dir)
    assert res.seen.snapshot() == model_result[1]


def test_resume_ignores_crashed_admission(ray_session, small_corpus, tmp_path,
                                          engine_result, model_result):
    """A crashed round-1 admission left a stray ``*.tmp`` beside a complete
    run and a partial ``frontier_0002`` (one real run plus a torn file):
    resume rewrites frontier_0002 and the crawl is byte-identical."""
    res_full, order_full = engine_result
    src, dst = res_full.checkpoint_dir, str(tmp_path)
    _copy_round0(src, dst)
    with open(os.path.join(dst, "frontier_0001", "part-00000.parquet.4242.tmp"), "wb") as f:
        f.write(b"PAR1 torn")
    os.makedirs(os.path.join(dst, "frontier_0002"))
    first = sorted(os.listdir(os.path.join(src, "frontier_0002")))[0]
    shutil.copy(os.path.join(src, "frontier_0002", first),
                os.path.join(dst, "frontier_0002", first))
    with open(os.path.join(dst, "frontier_0002", "part-99999.parquet"), "wb") as f:
        f.write(b"PAR1 torn")
    res, order = _resume(small_corpus, dst)
    assert order.equals(order_full)
    assert _runs(dst) == _runs(src)
    assert res.seen.snapshot() == model_result[1]


def _run_table(urls, priority=0):
    """Frontier rows (FRONTIER_COLUMNS) of ``urls``, one run."""
    import pyarrow as pa

    return pa.table({"url": urls, "host": [u.split("/")[2] for u in urls],
                     "priority": [priority] * len(urls), "pvt": [-1.0] * len(urls),
                     "pli": list(range(len(urls))),
                     "vt": [100.0 * i for i in range(len(urls))]})


def _candidates(rows):
    """CANDIDATE_SCHEMA table of ``(url, priority, pvt, pli, w_pri, w_pvt,
    w_pli, w_canon)`` rows, all in bucket 3."""
    import pyarrow as pa

    from web_scraper_ray.crawl.frontier import CANDIDATE_SCHEMA

    cols = list(zip(*rows)) if rows else [()] * 8
    names = ["url", "priority", "pvt", "pli", "w_pri", "w_pvt", "w_pli", "w_canon"]
    data = dict(zip(names, map(list, cols)))
    data["host"] = [u.split("/")[2] for u in data["url"]]
    data["bucket"] = [3] * len(rows)
    return pa.table({n: pa.array(data[n], CANDIDATE_SCHEMA.field(n).type)
                     for n in CANDIDATE_SCHEMA.names})


def test_seen_probe_confirms_hash_hits(tmp_path, monkeypatch):
    """With the url hash cut to 3 bits, every candidate of a bucket
    collides with some history url. ``_admit_bucket``, run in-process so
    the cut hash really reaches the probe and the run writer, still
    drops exactly the seen urls and writes the rows the full hash
    writes: only the string confirm tells a collision from a hit."""
    import pyarrow.parquet as pq

    from web_scraper_ray.crawl import frontier
    from web_scraper_ray.vhash import hash64_str

    def cut(v):
        return hash64_str(v) & 7

    robots = RobotsRules({}, {"b.example": 250}, 100)
    hist = [[f"https://a.example/{i}" for i in range(0, 40, 2)],
            [f"https://b.example/{i}" for i in range(30)]]
    seen = {u for urls in hist for u in urls}
    urls = ["https://a.example/4", "https://a.example/5", "https://a.example/7",
            "https://a.example/22", "https://b.example/3", "https://b.example/30",
            "https://c.example/0", "https://a.example/5"]
    cands = _candidates([(u, i % 2, -1.0, i, 0, -1.0, 0, "")
                         for i, u in enumerate(urls)])
    assert set(cut(urls)) <= set(cut(sorted(seen)))  # every candidate collides

    def admit(hash_fn):
        monkeypatch.setattr(frontier, "hash64_str", hash_fn)
        ckpt = str(tmp_path / hash_fn.__name__)
        for k, run in enumerate(hist):
            os.makedirs(frontier._frontier_dir(ckpt, k))
            frontier._write_run(_run_table(run), ckpt, k, 3)
        os.makedirs(frontier._frontier_dir(ckpt, 2))
        frontier._admit_bucket(cands, ckpt, 2, {}, robots)
        return pq.read_table(frontier._run_path(ckpt, 2, 3))

    full = admit(hash64_str)
    collided = admit(cut)
    assert collided.num_rows == full.num_rows == 4
    assert max(collided["ck"].to_pylist()) <= 7  # the writer saw the cut hash
    cols = ["url", "host", "priority", "pvt", "pli", "vt"]
    assert (collided.select(cols).sort_by("url").to_pylist()
            == full.select(cols).sort_by("url").to_pylist())
    assert set(full["url"].to_pylist()) == set(urls) - seen
    # bases 20 (a) and 30 (b, delay 250); a.example/5 wins its dup with
    # pli 1 and ranks after a.example/7 (priority 1 > 0)
    assert sorted(zip(*(full[c].to_pylist() for c in ("url", "pli", "vt")))) == [
        ("https://a.example/5", 1, 2100.0), ("https://a.example/7", 2, 2000.0),
        ("https://b.example/30", 5, 7500.0), ("https://c.example/0", 6, 0.0)]


_SPEC_URLS = [f"https://{h}.example/{i}" for h in "abcd" for i in range(6)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.sampled_from(_SPEC_URLS),
                               st.sampled_from([-1.0, 0.0, 100.0]),
                               st.integers(0, 2), st.sampled_from([-1.0, 0.0]),
                               st.integers(0, 1),
                               st.sampled_from(["", "https://p.example/a"]),
                               st.integers(0, 3)), min_size=1, max_size=40),
       split=st.integers(0, 40),
       hist=st.tuples(*[st.lists(st.sampled_from(_SPEC_URLS), unique=True,
                                 max_size=12)] * 2),
       cut_at=st.one_of(st.none(), st.integers(0, 11)))
def test_admit_bucket_matches_spec(rows, split, hist, cut_at):
    """Differential check of the Arrow admission against a pure-Python
    spec. The candidates (many duplicate urls with tied keys,
    ``pvt = -1.0``, four hosts, one of them missing from robots) go
    through ``_precombine`` in two batches, then ``_admit_bucket``
    against two history runs, the second maybe cut by a budget. The run
    must hold the min ``_DEDUP_SORT`` row per url minus the history
    urls, ranked per host by ``(priority, pvt, pli, url)`` with
    ``vt = (base + rank) * delay``, bases counting history rows only up
    to the cutoff; and it must be sorted by ``(ck, url)``."""
    import collections
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_scraper_ray.crawl import frontier

    # priority == w_pri, as for every discovered link: rows that tie on
    # the whole _DEDUP_SORT key are then identical
    cand_rows = [(u, w_pri, pvt, pli, w_pri, w_pvt, w_pli, w_canon)
                 for u, pvt, w_pri, w_pvt, w_pli, w_canon, pli in rows]
    robots = RobotsRules({}, {"a.example": 300, "b.example": 0, "c.example": 70}, 100)
    runs = [_run_table(hist[0]), _run_table([u for u in hist[1] if u not in hist[0]])]
    order = sorted(zip(*(runs[1][c].to_pylist() for c in frontier.ORDER_KEYS)))
    cutoffs = {1: list(order[cut_at])} if cut_at is not None and cut_at < len(order) else {}

    # the spec
    best = {}
    for r in rows:
        best[r[0]] = min(best.get(r[0], r), r)
    bases = collections.Counter(u.split("/")[2] for u in hist[0])
    bases.update(t[-1].split("/")[2] for t in order
                 if 1 not in cutoffs or list(t) <= cutoffs[1])
    seen = set(hist[0]) | set(hist[1])
    by_host = collections.defaultdict(list)
    for u, pvt, w_pri, _, _, _, pli in best.values():
        if u not in seen:
            by_host[u.split("/")[2]].append((w_pri, pvt, pli, u))
    want = sorted((u, h, pri, pvt, pli, float((bases[h] + rank) * robots.delay_ms(h)))
                  for h, keys in by_host.items()
                  for rank, (pri, pvt, pli, u) in enumerate(sorted(keys)))

    cands = _candidates(cand_rows)
    g = pa.concat_tables([frontier._precombine(cands.slice(0, split)),
                          frontier._precombine(cands.slice(split))])
    with tempfile.TemporaryDirectory() as ckpt:
        for k, run in enumerate(runs):
            os.makedirs(frontier._frontier_dir(ckpt, k))
            frontier._write_run(run, ckpt, k, 3)
        os.makedirs(frontier._frontier_dir(ckpt, 2))
        adm = frontier._admit_bucket(g, ckpt, 2, cutoffs, robots)
        path = frontier._run_path(ckpt, 2, 3)
        got = pq.read_table(path) if os.path.exists(path) else None
    if not want:
        assert got is None and adm.num_rows == 0
        return
    # it returns the run's JOIN_COLUMNS, in the run's order
    assert adm.to_pylist() == got.select(frontier.JOIN_COLUMNS).to_pylist()
    assert got.schema.remove_metadata() == frontier.RUN_SCHEMA
    assert sorted(zip(*(got[c].to_pylist() for c in frontier.FRONTIER_COLUMNS))) == want
    ck, urls = got["ck"].to_pylist(), got["url"].to_pylist()
    assert ck == frontier.crawl_key(urls).tolist()
    assert list(zip(ck, urls)) == sorted(zip(ck, urls))


def test_manifests_hold_scalars_only(engine_result):
    """No per-host state in any manifest: its size is independent of the
    host count (the budget cutoff is one ORDER_KEYS tuple)."""
    import glob
    import json

    res, _ = engine_result
    paths = sorted(glob.glob(os.path.join(res.checkpoint_dir, "manifest_*.json")))
    assert len(paths) == res.rounds == 3
    for p in paths:
        with open(p) as f:
            m = json.load(f)
        assert "host_counts" not in m
        cutoff = m.pop("cutoff")
        assert cutoff is None or len(cutoff) == 5
        assert all(isinstance(v, (int, float)) for v in m.values()), m


def test_seen_probe_hashes_only_candidates(tmp_path, monkeypatch):
    """The admission probe binary-searches the candidates' keys in the
    runs' stored ``ck``: ``crawl_key`` sees the candidate urls and never
    a history url. With the hash cut to 3 bits every run row collides,
    and the string confirm still returns the exact seen mask."""
    import numpy as np
    import pyarrow as pa

    from web_scraper_ray.crawl import frontier
    from web_scraper_ray.vhash import hash64_str

    hist = [[f"https://a.example/{i}" for i in range(0, 40, 2)],
            [f"https://b.example/{i}" for i in range(30)]]
    cands = np.array(["https://a.example/4", "https://a.example/5",
                      "https://b.example/29", "https://b.example/30",
                      "https://c.example/0"], dtype=object)
    for cut_hash in (False, True):
        if cut_hash:
            monkeypatch.setattr(frontier, "hash64_str", lambda v: hash64_str(v) & 7)
        ckpt = str(tmp_path / f"ckpt_{cut_hash}")
        for k, urls in enumerate(hist):
            os.makedirs(frontier._frontier_dir(ckpt, k))
            frontier._write_run(_run_table(urls), ckpt, k, 3)
        seen_calls = []
        keyed = frontier.crawl_key
        monkeypatch.setattr(frontier, "crawl_key",
                            lambda v, h=None: seen_calls.append(v.to_pylist()) or keyed(v, h))
        dup, bases = frontier._probe_runs(
            pa.array(cands), [(k, frontier._run_path(ckpt, k, 3)) for k in range(3)], {})
        monkeypatch.setattr(frontier, "crawl_key", keyed)
        assert seen_calls == [list(cands)]
        assert list(dup) == [True, False, True, False, False]
        assert bases == {"a.example": 20, "b.example": 30}


def test_probe_host_counts_over_cut_runs(tmp_path):
    """The politeness bases ``_probe_runs`` returns count, per host, every
    row of an uncut run and the rows of a budget-cut run up to its
    cutoff. Each run's host column is its own chunk of the counted
    array; the counts equal a Counter model."""
    from collections import Counter

    import pyarrow as pa

    from web_scraper_ray.crawl import frontier

    hosts = ["a.example", "b.example", "c.example"]
    hist = [[f"https://{hosts[i % 3]}/{k}/{i}" for i in range(70 + k)] for k in range(3)]
    ckpt = str(tmp_path)
    runs = []
    for k, urls in enumerate(hist):
        os.makedirs(frontier._frontier_dir(ckpt, k))
        frontier._write_run(_run_table(urls), ckpt, k, 3)
        runs.append((k, frontier._run_path(ckpt, k, 3)))
    # round 1 was cut by the budget after its 41st row in ORDER_KEYS order
    rows1 = sorted(_run_table(hist[1]).to_pylist(),
                   key=lambda r: [r[c] for c in frontier.ORDER_KEYS])
    cut = [rows1[40][c] for c in frontier.ORDER_KEYS]
    _dup, bases = frontier._probe_runs(pa.array(["https://d.example/0"]), runs, {1: cut})
    model = Counter(u.split("/")[2] for u in hist[0] + hist[2])
    model.update(r["host"] for r in rows1[:41])
    assert bases == dict(model)
    assert sum(bases.values()) == 70 + 41 + 72


def test_resume_from_old_run_format_fails_loudly(ray_session, small_corpus,
                                                 tmp_path, engine_result):
    """A checkpoint whose frontier runs have no ``ck`` column (written
    before the crawl-key run format) cannot resume: run_crawl raises
    StaleCheckpointError naming the run file instead of failing inside
    a worker."""
    import pyarrow.parquet as pq

    from web_scraper_ray.crawl.frontier import (FRONTIER_COLUMNS,
                                                StaleCheckpointError, run_crawl)

    res_full, _ = engine_result
    _copy_round0(res_full.checkpoint_dir, str(tmp_path))
    old = sorted(os.listdir(tmp_path / "frontier_0001"))[0]
    path = str(tmp_path / "frontier_0001" / old)
    pq.write_table(pq.read_table(path, columns=FRONTIER_COLUMNS), path)
    with pytest.raises(StaleCheckpointError, match=f"{old}.*predates the hash-sorted"):
        run_crawl(f"{small_corpus}/pages", f"{small_corpus}/seeds.parquet",
                  str(tmp_path), robots_path=f"{small_corpus}/robots.parquet",
                  config=CFG, resume=True)
