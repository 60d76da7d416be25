"""Host-level boilerplate removal (ops/boilerplate.py): hand-built
semantics + broadcast/sharded regime parity. The DuckDB value parity
at sf-scale is pinned by test_queries_oracle.py (host_boilerplate /
strip_boilerplate entries)."""

import pandas as pd
import pytest


def _toy_pages():
    import ray.data

    rows = []
    # host a: "NAV" on 3 pages (boilerplate at min_pages=3), "rare" on 1
    for i in range(3):
        rows.append({
            "url": f"https://a.example/p{i}",
            "text": f"NAV\n\nbody {i}\nNAV",  # repeated in-page too
        })
    rows.append({"url": "https://a.example/p3", "text": "rare\nbody 3"})
    # host b: same "NAV" line but only 2 pages → NOT boilerplate for b
    for i in range(2):
        rows.append({"url": f"https://b.example/q{i}",
                     "text": f"NAV\nother {i}"})
    return ray.data.from_items(rows)


def test_host_boilerplate_inventory(ray_session):
    from web_scraper_ray.ops.boilerplate import host_boilerplate_lines

    inv = host_boilerplate_lines(_toy_pages(), min_pages=3).to_pandas()
    assert len(inv) == 1
    row = inv.iloc[0]
    # in-page repeats count once: n_pages is DISTINCT pages
    assert (row["host"], row["line"], row["n_pages"]) == ("a.example", "NAV", 3)


def test_strip_boilerplate_semantics(ray_session):
    from web_scraper_ray.ops.boilerplate import strip_boilerplate

    out = (strip_boilerplate(_toy_pages(), min_pages=3, mode="broadcast")
           .to_pandas().set_index("url"))
    # both NAV occurrences dropped, empty line kept (layout preserved)
    assert out.loc["https://a.example/p0", "text"] == "\nbody 0"
    assert out.loc["https://a.example/p0", "n_dropped"] == 2
    # non-boilerplate page untouched
    assert out.loc["https://a.example/p3", "text"] == "rare\nbody 3"
    assert out.loc["https://a.example/p3", "n_dropped"] == 0
    # host b keeps its NAV: the decision is per-host
    assert out.loc["https://b.example/q0", "text"] == "NAV\nother 0"


def test_strip_boilerplate_regime_parity(ray_session):
    """broadcast and sharded rebuilds are bit-identical on the real
    synthetic crawl corpus."""
    import ray.data

    from web_scraper_ray.corpus import build_corpus
    from web_scraper_ray.ops.boilerplate import strip_boilerplate

    corpus = build_corpus("/tmp/wsr_corpus_round0", n_pages=400, n_hosts=24,
                          seed=42, n_seeds=40, links_per_page=6,
                          use_ray=False)

    def run(mode):
        ds = ray.data.read_parquet(f"{corpus}/pages",
                                   columns=["url", "text"])
        return (strip_boilerplate(ds, min_pages=3, mode=mode)
                .to_pandas().sort_values("url").reset_index(drop=True))

    pd.testing.assert_frame_equal(run("broadcast"), run("sharded"))


def _model_strip(rows, min_pages):
    """Pure-python oracle of strip_boilerplate (module-doc rules)."""
    from collections import defaultdict

    host_of = lambda u: u.split("://", 1)[1].split("/", 1)[0] if "://" in u else ""  # noqa: E731
    pages_per = defaultdict(set)
    for r in rows:
        h = host_of(r["url"])
        for ln in set(r["text"].split("\n")):
            if ln != "":
                pages_per[(h, ln)].add(r["url"])
    bp = {k for k, urls in pages_per.items() if len(urls) >= min_pages}
    out = {}
    for r in rows:
        h = host_of(r["url"])
        kept, dropped = [], 0
        for ln in r["text"].split("\n"):
            if ln != "" and (h, ln) in bp:
                dropped += 1
            else:
                kept.append(ln)
        out[r["url"]] = ("\n".join(kept), dropped)
    return out


def test_strip_boilerplate_fuzz_model_parity(ray_session):
    """Random small corpora: both regimes equal the pure-python model
    (explode/rejoin edge cases — empty texts, whitespace lines,
    single-page hosts, shared lines across hosts)."""
    import random

    import ray.data

    from web_scraper_ray.ops.boilerplate import strip_boilerplate

    rng = random.Random(7)
    lines_pool = ["NAV", "", " ", "tail", "a b c.", "| x |", "x\t",
                  "longer prose line here.", "```"]
    for trial in range(3):
        rows = []
        for i in range(rng.randrange(4, 18)):
            host = f"h{rng.randrange(3)}.ex"
            text = "\n".join(rng.choice(lines_pool)
                             for _ in range(rng.randrange(0, 7)))
            rows.append({"url": f"https://{host}/p{i}", "text": text})
        want = _model_strip(rows, min_pages=2)
        for mode in ("broadcast", "sharded"):
            got = (strip_boilerplate(ray.data.from_items(rows),
                                     min_pages=2, mode=mode, n_buckets=4)
                   .to_pandas())
            assert len(got) == len(rows), (trial, mode)
            for _, r in got.iterrows():
                wtext, wdrop = want[r["url"]]
                assert r["text"] == wtext, (trial, mode, r["url"])
                assert r["n_dropped"] == wdrop, (trial, mode, r["url"])


def test_strip_boilerplate_keeps_unique_line_with_near_twin(ray_session):
    """Two lines that differ only in a few digits must key apart: the
    unique line on p3 is not boilerplate even though its near twin is
    on three pages (the line-key hash once collided on exactly this
    pair and stripped it)."""
    import ray.data

    from web_scraper_ray.ops.boilerplate import strip_boilerplate

    rows = [{"url": f"https://a.example/p{i}",
             "text": f"line number 116 of the footer 95\nbody {i}"}
            for i in range(3)]
    rows.append({"url": "https://a.example/p3",
                 "text": "line number 111 of the footer 40\nbody 3"})
    want = _model_strip(rows, min_pages=3)
    for mode in ("broadcast", "sharded"):
        got = strip_boilerplate(ray.data.from_items(rows), min_pages=3,
                                mode=mode).to_pandas()
        assert {r.url: (r.text, r.n_dropped)
                for r in got.itertuples()} == want, mode


def test_strip_boilerplate_bad_mode(ray_session):
    from web_scraper_ray.ops.boilerplate import strip_boilerplate

    with pytest.raises(ValueError):
        strip_boilerplate(_toy_pages(), mode="nope").to_pandas()


def test_strip_boilerplate_all_null_url_block(ray_session):
    """A block whose urls are all null is typed Arrow ``null``; both ops
    take it, and a null url is host '' (its rows' shared lines count
    toward host '')."""
    import pyarrow as pa
    import ray.data

    from web_scraper_ray.ops.boilerplate import (host_boilerplate_lines,
                                                 strip_boilerplate)

    rows = [{"url": None, "text": "NAV\nx"}, {"url": None, "text": "NAV\ny"},
            {"url": "https://a.example/p0", "text": "NAV\nz"},
            {"url": "https://a.example/p1", "text": "NAV\nw"}]
    ds = ray.data.from_items(rows, override_num_blocks=2)
    types = [b["url"].type for b in ds.iter_batches(batch_format="pyarrow",
                                                    batch_size=None)]
    assert pa.null() in types
    want = [(None, "x", 1), (None, "y", 1),
            ("https://a.example/p0", "z", 1), ("https://a.example/p1", "w", 1)]
    for mode in ("broadcast", "sharded"):
        got = strip_boilerplate(ds, min_pages=2, mode=mode,
                                n_buckets=4).take_all()
        assert sorted(((r["url"], r["text"], r["n_dropped"]) for r in got),
                      key=lambda r: (r[0] or "", r[1])) == want, mode
    inv = host_boilerplate_lines(ds, min_pages=2, n_buckets=4).take_all()
    assert sorted((r["host"], r["line"], r["n_pages"]) for r in inv) == [
        ("", "NAV", 2), ("a.example", "NAV", 2)]
