"""Link-graph analytics over crawled pages: edge extraction, degree
statistics, and PageRank — the classic crawl-side signal (priority
scoring for the frontier, authority weighting for corpus curation).

Ray-Data shape:

  * EDGES: one stateless ``map_batches`` pass over (url, html) reusing
    the extraction kernel's ``<a href>`` walk (kernel/extract.py:52,
    the same pass the frontier expands from — reference analog:
    the link-following mode of ``contxt/scraper.py``). Because an edge
    (src, dst) can only originate from the page ``src`` itself,
    per-page dedup IS global dedup — distinct edges need no shuffle.
  * DEGREES / NODES: one bucketed groupby each (coarse ``__bkt`` key,
    never the raw URL — vocabulary-cardinality groupbys shatter into
    tiny partitions at web scale).
  * PAGERANK: per iteration, two message-passing shuffles — (A) ranks
    join edges on a src-hash bucket and emit per-edge contributions
    pre-combined per (bucket, dst); (B) contributions join the node
    table on a dst-hash bucket and fold into next-round ranks — plus
    one O(1)-per-block scalar aggregate for the dangling mass. The
    only thing materialized between iterations is the rank state
    (one short row per node, never page text): the standard bounded
    checkpoint of an iterative algorithm, linear in node count and
    object-store-resident, not driver-resident.

Exact-arithmetic discipline (what makes an ITERATIVE algorithm
hash-checkable against a DuckDB oracle): ranks are int64 fixed-point
(``scale`` units of total mass), per-edge shares are floor divisions
``rank // outdeg``, damping is integer ``dp * x // 100``, and the
dangling redistribution is ``dangling_sum // n`` — every step replays
bit-exactly in SQL (see ``__ray_entry__._pagerank_sql``), so the
driver's value-hash check covers all iterations, not just the shape.

Internal bucket hashes use ``pandas.util.hash_array`` (deterministic,
vectorized, fixed key) — they only pick shuffle partitions and never
appear in results, so they need no SQL twin.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from . import bucket_of as _bkt
from . import sized_read_parquet
from ..sources.planned import cluster_cpus


def link_edges(pages_path: str) -> ray.data.Dataset:
    """Distinct (src, dst) out-link edges of a pages table, absolute
    URLs, via the extraction kernel's DOM walk. Column-pruned read
    (url + html only); no shuffle (see module doc)."""
    from ..dom import parse
    from ..kernel.extract import extract_links

    def edges_of(df: pd.DataFrame) -> pd.DataFrame:
        srcs: list[str] = []
        dsts: list[str] = []
        for url, html in zip(df["url"], df["html"]):
            if isinstance(html, (bytes, bytearray, memoryview)):
                html = bytes(html).decode("utf-8", errors="replace")
            seen: set[str] = set()
            for link in extract_links(parse(html), url):
                if link not in seen:
                    seen.add(link)
                    srcs.append(url)
                    dsts.append(link)
        return pd.DataFrame({"src": srcs, "dst": dsts})

    return sized_read_parquet(pages_path, columns=["url", "html"]).map_batches(
        edges_of, batch_format="pandas", batch_size=256)


def _crawl_output_files(checkpoint_dir: str) -> list[str]:
    """Every completed round's output parquet files of a crawl
    checkpoint (round completeness = its manifest exists)."""
    import os

    from ..crawl.frontier import _complete_rounds, _parquet_files

    return [f for r in _complete_rounds(checkpoint_dir)
            for f in _parquet_files(
                os.path.join(checkpoint_dir, f"output_{r:04d}"))]


def edges_from_output(checkpoint_dir: str) -> ray.data.Dataset:
    """Distinct (src, dst) edges read off a crawl checkpoint's round
    outputs — the production path: the crawl's extraction pass already
    materialized every page's ``links`` column
    (crawl/frontier.py:_write_and_slim_stage), so the link graph costs
    one SLIM column read + explode instead of a second full-corpus DOM
    parse (the single largest avoidable cost of the standalone
    :func:`link_edges` at 100 TB). Per-page first-seen dedup == global
    dedup, exactly as in :func:`link_edges` (a url is fetched at most
    once per crawl — the seen-set contract)."""
    files = _crawl_output_files(checkpoint_dir)
    if not files:
        return ray.data.from_arrow(
            __import__("pyarrow").table(
                {"src": [], "dst": []}))

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        srcs: list[str] = []
        dsts: list[str] = []
        for url, links in zip(df["url"], df["links"]):
            seen: set[str] = set()
            for link in links if links is not None else ():
                if link not in seen:
                    seen.add(link)
                    srcs.append(url)
                    dsts.append(link)
        return pd.DataFrame({"src": srcs, "dst": dsts})

    return ray.data.read_parquet(files, columns=["url", "links"]).map_batches(
        explode, batch_format="pandas")


def _coalesce_for_iteration(ds: ray.data.Dataset,
                            per_cpu: int = 2) -> ray.data.Dataset:
    """Re-block a materialized dataset that iterative algorithms will
    scan repeatedly. Crawl round outputs (and bucketed folds) can
    leave hundreds of tiny blocks; pagerank/hits pay per-block task
    dispatch × iterations, so one cheap repartition (no shuffle —
    blocks are just concatenated) amortizes immediately. Measured:
    bench pagerank over checkpoint-derived edges 12.7s → ~5s at 200
    input blocks, bit-identical output."""
    cap = max(16, per_cpu * (cluster_cpus() or 8))
    if ds.num_blocks() > 2 * cap:
        return ds.repartition(cap).materialize()
    return ds


def edges_with_outdeg(edges: ray.data.Dataset,
                      n_buckets: int = 32) -> ray.data.Dataset:
    """(src, dst, outdeg) — each edge annotated with its source's
    out-degree, in ONE bucketed shuffle (count and attach inside the
    same group; no separate degree table or join)."""
    def add_bkt(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bkt"] = _bkt(df["src"], n_buckets)
        return df

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"src": pd.Series([], dtype=object),
                                 "dst": pd.Series([], dtype=object),
                                 "outdeg": pd.Series([], dtype="int64")})
        out = g.drop(columns=["__bkt"]).copy()
        out["outdeg"] = out.groupby("src", sort=False)["src"].transform(
            "size").astype("int64")
        return out

    return (edges.map_batches(add_bkt, batch_format="pandas")
            .groupby("__bkt").map_groups(attach, batch_format="pandas"))


def graph_nodes(edges_deg: ray.data.Dataset,
                n_buckets: int = 32) -> ray.data.Dataset:
    """(node, outdeg) for every distinct endpoint; dst-only nodes
    (the crawl frontier's unfetched leaves — off-site links, ignored
    sections) carry outdeg 0. One bucketed shuffle over slim
    (node, deg) pairs — page text never rides it."""
    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        # per-batch pre-combine: distinct srcs with their outdeg,
        # distinct dsts at 0 — the combiner halves shuffle rows
        s = df[["src", "outdeg"]].drop_duplicates("src")
        out = pd.concat([
            pd.DataFrame({"node": s["src"], "deg": s["outdeg"]}),
            pd.DataFrame({"node": df["dst"].unique(), "deg": 0}),
        ], ignore_index=True)
        out["deg"] = out["deg"].astype("int64")
        out["__bkt"] = _bkt(out["node"], n_buckets)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "outdeg": pd.Series([], dtype="int64")})
        agg = g.groupby("node", sort=False)["deg"].max()
        return pd.DataFrame({"node": agg.index.to_numpy(),
                             "outdeg": agg.to_numpy().astype("int64")})

    return (edges_deg.map_batches(endpoints, batch_format="pandas")
            .groupby("__bkt").map_groups(fold, batch_format="pandas"))


@ray.remote(num_cpus=0)
def _fold_node_table(*tabs):
    """One-task fold of the nodes dataset into sorted numpy arrays
    (names as fixed-width unicode so searchsorted is a C binary
    search). O(nodes) in ONE worker — the explicitly-bounded state of
    broadcast mode, never the driver's."""
    names = np.concatenate([
        t.column("node").to_numpy(zero_copy_only=False).astype("U")
        for t in tabs if t.num_rows]) if tabs else np.array([], dtype="U1")
    degs = np.concatenate([
        t.column("outdeg").to_numpy(zero_copy_only=False)
        for t in tabs if t.num_rows]) if tabs else np.array([], dtype=np.int64)
    order = np.argsort(names, kind="stable")
    return names[order], degs[order].astype(np.int64)


@ray.remote(num_cpus=0)
def _fold_incoming(n: int, *tabs) -> np.ndarray:
    """One-task fold of per-batch contribution partials into the dense
    incoming-sum vector."""
    inc = np.zeros(n, dtype=np.int64)
    for t in tabs:
        if t.num_rows:
            np.add.at(inc, t.column("di").to_numpy(zero_copy_only=False),
                      t.column("c").to_numpy(zero_copy_only=False))
    return inc


@ray.remote(num_cpus=0)
def _dangling_mask(setup) -> np.ndarray:
    return setup[1] == 0


@ray.remote(num_cpus=0)
def _named_ranks(setup, rank: np.ndarray):
    import pyarrow as pa

    return pa.table({"node": pa.array(setup[0].astype(object)),
                     "pr": pa.array(rank, pa.int64())})


def _pagerank_broadcast(edges_deg: ray.data.Dataset,
                        nodes: ray.data.Dataset, n: int, iters: int,
                        dp: int, scale: int) -> ray.data.Dataset:
    """Small/medium-graph regime: the sorted (node, outdeg) table rides
    the object store (built by a one-task fold, fetched by workers,
    never by the driver — node names can be hundreds of bytes each);
    the driver holds only the dense int64 rank vector and a bool
    dangling mask (9 B/node). Each iteration is ONE map_batches
    execution over the materialized edges (vectorized binary-search
    lookups, per-batch combiner) plus one O(n) fold task — no shuffle
    at all. The same broadcast-vs-bucketed regime split the crawl
    frontier's fetch-join uses (crawl/frontier.py)."""
    setup_ref = _fold_node_table.remote(*nodes.to_arrow_refs())
    dangling = ray.get(_dangling_mask.remote(setup_ref))
    base = (100 - dp) * scale // (100 * n)
    rank = np.full(n, scale // n, dtype=np.int64)

    for _ in range(iters):
        dang_share = int(rank[dangling].sum()) // n
        rank_ref = ray.put(rank)

        def contrib(df: pd.DataFrame,
                    _rank_ref=rank_ref) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame({"di": pd.Series([], dtype="int64"),
                                     "c": pd.Series([], dtype="int64")})
            nm, _ = ray.get(setup_ref)
            r = ray.get(_rank_ref)
            si = np.searchsorted(nm, np.asarray(df["src"], dtype="U"))
            di = np.searchsorted(nm, np.asarray(df["dst"], dtype="U"))
            share = r[si] // df["outdeg"].to_numpy(dtype=np.int64)
            agg = pd.Series(share, index=di).groupby(level=0).sum()
            return pd.DataFrame({"di": agg.index.to_numpy(dtype=np.int64),
                                 "c": agg.to_numpy(dtype=np.int64)})

        parts = edges_deg.map_batches(
            contrib, batch_format="pandas").to_arrow_refs()
        inc = ray.get(_fold_incoming.remote(n, *parts))
        rank = base + dp * (inc + dang_share) // 100

    return ray.data.from_arrow_refs(
        [_named_ranks.remote(setup_ref, rank)])


def pagerank(edges: ray.data.Dataset, iters: int = 4,
             damping_pct: int = 85, scale: int = 10**12,
             n_buckets: int = 32, mode: str = "auto",
             max_broadcast_nodes: int = 2_000_000) -> ray.data.Dataset:
    """Fixed-point integer PageRank over distinct (src, dst) edges.

    Per iteration (see module doc for the exact arithmetic):
      rank'(v) = base + dp * (incoming(v) + dangling_sum // n) // 100
      base     = (100 - dp) * scale // (100 * n)
      incoming(v) = sum over edges (u, v) of rank(u) // outdeg(u)

    Dangling mass (nodes with no out-links — at web scale, 30-50% of
    discovered URLs are never fetched) is redistributed uniformly, so
    total mass stays ~``scale`` instead of leaking each round.

    Two execution regimes with identical (bit-exact) results:
      * ``broadcast`` (node state fits the object store — default up to
        ``max_broadcast_nodes``): no shuffle, one map pass + one fold
        task per iteration; see :func:`_pagerank_broadcast`.
      * ``bucketed`` (the 100-TB path): node state never assembles in
        one place — two bucketed message-passing shuffles per
        iteration, rank state materialized as a Dataset between rounds.

    Returns (node, pr) with pr in ``scale`` fixed-point units."""
    dp = int(damping_pct)
    edges_deg = _coalesce_for_iteration(
        edges_with_outdeg(edges, n_buckets).materialize())
    nodes = graph_nodes(edges_deg, n_buckets).materialize()
    n = nodes.count()
    if n == 0:
        return nodes.map_batches(
            lambda df: pd.DataFrame({"node": df["node"],
                                     "pr": df["outdeg"]}),
            batch_format="pandas")
    if mode == "auto":
        mode = "broadcast" if n <= max_broadcast_nodes else "bucketed"
    if mode == "broadcast":
        return _pagerank_broadcast(edges_deg, nodes, n, iters, dp, scale)
    base = (100 - dp) * scale // (100 * n)

    def tag_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df["src"], "dst": df["dst"],
            "val": np.int64(0), "outdeg": df["outdeg"].astype("int64"),
            "side": "e", "__bkt": _bkt(df["src"], n_buckets)})

    edges_tagged = edges_deg.map_batches(
        tag_edges, batch_format="pandas").materialize()

    def init_ranks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"],
                             "rank": np.int64(scale // n),
                             "outdeg": df["outdeg"].astype("int64")})

    ranks = nodes.map_batches(init_ranks,
                              batch_format="pandas").materialize()

    _EMPTY_CONTRIB = pd.DataFrame({"dst": pd.Series([], dtype=object),
                                   "contrib": pd.Series([], dtype="int64")})
    _EMPTY_RANKS = pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "rank": pd.Series([], dtype="int64"),
                                 "outdeg": pd.Series([], dtype="int64")})

    def contrib_group(g: pd.DataFrame) -> pd.DataFrame:
        e = g.loc[g["side"] == "e", ["key", "dst", "outdeg"]]
        r = g.loc[g["side"] == "r", ["key", "val"]]
        if not len(e) or not len(r):
            return _EMPTY_CONTRIB
        m = e.merge(r, on="key", how="inner")
        if not len(m):
            return _EMPTY_CONTRIB
        share = m["val"].to_numpy() // m["outdeg"].to_numpy()
        # pre-combine per dst before the second shuffle
        agg = pd.Series(share, index=m["dst"]).groupby(level=0,
                                                       sort=False).sum()
        return pd.DataFrame({"dst": agg.index.to_numpy(),
                             "contrib": agg.to_numpy().astype("int64")})

    for _ in range(iters):
        dang = ranks.map_batches(
            lambda df: pd.DataFrame({"d": [int(
                df.loc[df["outdeg"] == 0, "rank"].sum())]}),
            batch_format="pandas").sum("d")
        dang_share = int(dang or 0) // n

        def tag_ranks(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": df["node"], "dst": "",
                "val": df["rank"].astype("int64"),
                "outdeg": np.int64(0), "side": "r",
                "__bkt": _bkt(df["node"], n_buckets)})

        contrib = (edges_tagged.union(
            ranks.map_batches(tag_ranks, batch_format="pandas"))
            .groupby("__bkt")
            .map_groups(contrib_group, batch_format="pandas"))

        def tag_contrib(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": df["dst"], "val": df["contrib"].astype("int64"),
                "outdeg": np.int64(0), "side": "c",
                "__bkt": _bkt(df["dst"], n_buckets)})

        def tag_nodes(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": df["node"], "val": np.int64(0),
                "outdeg": df["outdeg"].astype("int64"), "side": "n",
                "__bkt": _bkt(df["node"], n_buckets)})

        def fold_ranks(g: pd.DataFrame,
                       _dang_share: int = dang_share) -> pd.DataFrame:
            nrows = g.loc[g["side"] == "n", ["key", "outdeg"]]
            if not len(nrows):
                return _EMPTY_RANKS
            c = g.loc[g["side"] == "c"]
            insum = (pd.Series(c["val"].to_numpy(), index=c["key"])
                     .groupby(level=0, sort=False).sum())
            # indexer lookup, NOT .map().fillna(): a missing key turns
            # the column float64 and int64 sums above 2^53 would round,
            # breaking bit-exactness with the broadcast regime / oracle
            pos = insum.index.get_indexer(nrows["key"])
            iv = insum.to_numpy(dtype=np.int64) if len(insum) else (
                np.zeros(1, dtype=np.int64))
            inc = np.where(pos >= 0, iv[np.clip(pos, 0, None)],
                           np.int64(0))
            rank = base + dp * (inc + _dang_share) // 100
            return pd.DataFrame({"node": nrows["key"].to_numpy(),
                                 "rank": rank.astype("int64"),
                                 "outdeg": nrows["outdeg"].to_numpy()})

        ranks = (contrib.map_batches(tag_contrib, batch_format="pandas")
                 .union(nodes.map_batches(tag_nodes, batch_format="pandas"))
                 .groupby("__bkt")
                 .map_groups(fold_ranks, batch_format="pandas")
                 ).materialize()

    return ranks.map_batches(
        lambda df: pd.DataFrame({"node": df["node"],
                                 "pr": df["rank"].astype("int64")}),
        batch_format="pandas")


def _hits_bucketed(edges_m: ray.data.Dataset, nodes: ray.data.Dataset,
                   n: int, iters: int, scale: int,
                   n_buckets: int) -> ray.data.Dataset:
    """100-TB HITS regime: (auth, hub) node state never assembles in
    one place — each half-iteration is the pagerank bucketed
    message-passing shape (state meets edges in one src/dst-bucketed
    group, contributions pre-combined per target, then fold back into
    state in a second bucketed group). Normalization totals are single
    int64 scalars (Σ state ≈ scale), folded by a Dataset sum; the
    per-node ``raw * scale // total`` runs in exact Python ints inside
    each group — identical arithmetic to the broadcast regime, so
    results are bit-equal (pinned by test_graph)."""
    by_src = edges_m.map_batches(
        lambda df: pd.DataFrame({
            "key": df["src"], "other": df["dst"],
            "val": np.int64(0), "side": "e",
            "__bkt": _bkt(df["src"], n_buckets)}),
        batch_format="pandas").materialize()
    by_dst = edges_m.map_batches(
        lambda df: pd.DataFrame({
            "key": df["dst"], "other": df["src"],
            "val": np.int64(0), "side": "e",
            "__bkt": _bkt(df["dst"], n_buckets)}),
        batch_format="pandas").materialize()

    state = nodes.map_batches(
        lambda df: pd.DataFrame({"node": df["node"],
                                 "auth": np.int64(scale // n),
                                 "hub": np.int64(scale // n)}),
        batch_format="pandas").materialize()

    _EMPTY_MSG = pd.DataFrame({"dst": pd.Series([], dtype=object),
                               "contrib": pd.Series([], dtype="int64")})

    def push_group(g: pd.DataFrame) -> pd.DataFrame:
        e = g.loc[g["side"] == "e", ["key", "other"]]
        s = g.loc[g["side"] == "s", ["key", "val"]]
        if not len(e) or not len(s):
            return _EMPTY_MSG
        m = e.merge(s, on="key", how="inner")
        if not len(m):
            return _EMPTY_MSG
        agg = (pd.Series(m["val"].to_numpy(), index=m["other"])
               .groupby(level=0, sort=False).sum())
        return pd.DataFrame({"dst": agg.index.to_numpy(),
                             "contrib": agg.to_numpy().astype("int64")})

    def half_step(edges_tagged, state, src_field: str,
                  out_field: str) -> ray.data.Dataset:
        """state[src_field] pushed along edges_tagged; returns new
        state with out_field replaced by the normalized raw sums."""
        def tag_state(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": df["node"], "other": "",
                "val": df[src_field].astype("int64"), "side": "s",
                "__bkt": _bkt(df["node"], n_buckets)})

        msgs = (edges_tagged.union(
            state.map_batches(tag_state, batch_format="pandas"))
            .groupby("__bkt")
            .map_groups(push_group, batch_format="pandas")).materialize()
        total = int(msgs.sum("contrib") or 0)

        def tag_msgs(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": df["dst"], "val": df["contrib"].astype("int64"),
                "side": "c", "aux": np.int64(0),
                "__bkt": _bkt(df["dst"], n_buckets)})

        keep_field = "hub" if out_field == "auth" else "auth"

        def tag_state2(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": df["node"], "val": np.int64(0), "side": "n",
                "aux": df[keep_field].astype("int64"),
                "__bkt": _bkt(df["node"], n_buckets)})

        def fold_state(g: pd.DataFrame, _total: int = total
                       ) -> pd.DataFrame:
            nrows = g.loc[g["side"] == "n", ["key", "aux"]]
            if not len(nrows):
                return pd.DataFrame({
                    "node": pd.Series([], dtype=object),
                    "auth": pd.Series([], dtype="int64"),
                    "hub": pd.Series([], dtype="int64")})
            c = g.loc[g["side"] == "c"]
            raw = (pd.Series(c["val"].to_numpy(), index=c["key"])
                   .groupby(level=0, sort=False).sum())
            pos = raw.index.get_indexer(nrows["key"])
            rv = raw.to_numpy(dtype=np.int64) if len(raw) else (
                np.zeros(1, dtype=np.int64))
            raw_n = np.where(pos >= 0, rv[np.clip(pos, 0, None)],
                             np.int64(0))
            if _total == 0:
                new = np.zeros(len(raw_n), dtype=np.int64)
            else:
                # raw * scale exceeds int64 — exact Python ints, the
                # broadcast regime's arithmetic verbatim
                new = np.fromiter(
                    (int(x) * scale // _total for x in raw_n),
                    dtype=np.int64, count=len(raw_n))
            out = {"node": nrows["key"].to_numpy(),
                   out_field: new,
                   keep_field: nrows["aux"].to_numpy()}
            return pd.DataFrame(out)[["node", "auth", "hub"]]

        return (msgs.map_batches(tag_msgs, batch_format="pandas")
                .union(state.map_batches(tag_state2,
                                         batch_format="pandas"))
                .groupby("__bkt")
                .map_groups(fold_state, batch_format="pandas")
                ).materialize()

    for _ in range(iters):
        state = half_step(by_src, state, "hub", "auth")
        state = half_step(by_dst, state, "auth", "hub")
    return state


def hits(edges: ray.data.Dataset, iters: int = 4, scale: int = 10**12,
         n_buckets: int = 32, mode: str = "auto",
         max_broadcast_nodes: int = 2_000_000) -> ray.data.Dataset:
    """HITS hubs-and-authorities over (src, dst) edges — the
    complementary link signal to :func:`pagerank` (authorities =
    heavily-referenced content, hubs = good link collections; both are
    crawl-priority and curation features).

    Fixed-point integer arithmetic, hash-checkable like pagerank:
      a_raw(v) = Σ over in-edges (u, v) of hub(u)
      a(v)     = a_raw(v) * scale // Σ a_raw      (L1 normalization)
      h_raw(u) = Σ over out-edges (u, v) of a(v)
      h(u)     = h_raw(u) * scale // Σ h_raw
    both vectors init to scale // n. ``a_raw * scale`` exceeds int64,
    so the normalize step runs in exact Python ints (O(n) driver work
    on two already-driver-resident vectors); the DuckDB twin uses
    native HUGEINT.

    Two execution regimes with identical (bit-exact) results, exactly
    as :func:`pagerank`: ``broadcast`` (object-store node table, zero
    shuffles per iteration) up to ``max_broadcast_nodes``, and
    ``bucketed`` (the 100-TB path — :func:`_hits_bucketed` message
    passing; (auth, hub) state never assembles in one place).

    Returns (node, auth, hub)."""
    # HITS never uses out-degree: skip edges_with_outdeg's shuffle and
    # build the node table from bare endpoints (zero-outdeg rows feed
    # graph_nodes' endpoints fold)
    edges_m = _coalesce_for_iteration(edges.materialize())
    with_zero = edges_m.map_batches(
        lambda df: df.assign(outdeg=np.int64(0)), batch_format="pandas")
    nodes = graph_nodes(with_zero, n_buckets).materialize()
    n = nodes.count()
    if n == 0:
        return nodes.map_batches(
            lambda df: pd.DataFrame({"node": df["node"],
                                     "auth": df["outdeg"],
                                     "hub": df["outdeg"]}),
            batch_format="pandas")
    if mode == "auto":
        mode = "broadcast" if n <= max_broadcast_nodes else "bucketed"
    if mode == "bucketed":
        return _hits_bucketed(edges_m, nodes, n, iters, scale, n_buckets)
    if mode != "broadcast":
        raise ValueError(f"unknown hits mode: {mode}")
    setup_ref = _fold_node_table.remote(*nodes.to_arrow_refs())

    def _norm(raw: np.ndarray) -> np.ndarray:
        total = int(raw.sum())
        if total == 0:
            return np.zeros_like(raw)
        return np.fromiter((int(x) * scale // total for x in raw),
                           dtype=np.int64, count=len(raw))

    def _push(vec: np.ndarray, group_on: str, emit: str) -> np.ndarray:
        """Σ of vec over edges, grouped by ``emit``'s node index."""
        vec_ref = ray.put(vec)

        def part(df: pd.DataFrame, _vec_ref=vec_ref) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame({"di": pd.Series([], dtype="int64"),
                                     "c": pd.Series([], dtype="int64")})
            nm, _ = ray.get(setup_ref)
            v = ray.get(_vec_ref)
            gi = np.searchsorted(nm, np.asarray(df[group_on], dtype="U"))
            ei = np.searchsorted(nm, np.asarray(df[emit], dtype="U"))
            agg = pd.Series(v[gi], index=ei).groupby(level=0).sum()
            return pd.DataFrame({"di": agg.index.to_numpy(dtype=np.int64),
                                 "c": agg.to_numpy(dtype=np.int64)})

        parts = edges_m.map_batches(
            part, batch_format="pandas").to_arrow_refs()
        return ray.get(_fold_incoming.remote(n, *parts))

    hub = np.full(n, scale // n, dtype=np.int64)
    auth = np.full(n, scale // n, dtype=np.int64)
    for _ in range(iters):
        auth = _norm(_push(hub, "src", "dst"))
        hub = _norm(_push(auth, "dst", "src"))

    @ray.remote(num_cpus=0)
    def named(setup, a, h):
        import pyarrow as pa

        return pa.table({"node": pa.array(setup[0].astype(object)),
                         "auth": pa.array(a, pa.int64()),
                         "hub": pa.array(h, pa.int64())})

    return ray.data.from_arrow_refs([named.remote(setup_ref, auth, hub)])


def anchor_texts(pages_path: str, n_buckets: int = 32,
                 sep: str = "\n") -> ray.data.Dataset:
    """Per-target anchor-text aggregation — the classic web-corpus
    signal (every link text pointing at a URL, the target's
    description written by OTHER pages; query-document pairs for
    retrieval training). Returns (dst, n_anchors, anchors) where
    ``anchors`` concatenates every anchor text in deterministic
    (src, in-page position) order.

    One DOM pass over (url, html) emitting slim (src, pos, dst, txt)
    rows — page HTML never rides the shuffle — then one bucketed
    groupby folding each target's anchors in order. Multi-edges kept:
    anchor-text FREQUENCY is part of the signal."""
    from ..dom import parse
    from ..kernel.extract import extract_anchors

    def anchors_of(df: pd.DataFrame) -> pd.DataFrame:
        srcs, poss, dsts, txts = [], [], [], []
        for url, html in zip(df["url"], df["html"]):
            if isinstance(html, (bytes, bytearray, memoryview)):
                html = bytes(html).decode("utf-8", errors="replace")
            for pos, a in enumerate(extract_anchors(parse(html), url)):
                srcs.append(url)
                poss.append(pos)
                dsts.append(a["url"])
                txts.append(a["text"])
        out = pd.DataFrame({"src": pd.Series(srcs, dtype=object),
                            "pos": pd.Series(poss, dtype="int64"),
                            "dst": pd.Series(dsts, dtype=object),
                            "txt": pd.Series(txts, dtype=object)})
        out["__bkt"] = _bkt(out["dst"], n_buckets)
        return out

    return (sized_read_parquet(pages_path, columns=["url", "html"])
            .map_batches(anchors_of, batch_format="pandas",
                         batch_size=256)
            .groupby("__bkt").map_groups(_anchor_fold(sep),
                                         batch_format="pandas"))


_EMPTY_ANCHORS = pd.DataFrame({"dst": pd.Series([], dtype=object),
                               "n_anchors": pd.Series([], dtype="int64"),
                               "anchors": pd.Series([], dtype=object)})


def _anchor_fold(sep: str):
    """Per-bucket fold: each dst's anchor texts concatenated in
    deterministic (src, in-page position) order, with the count."""
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return _EMPTY_ANCHORS
        g = g.sort_values(["dst", "src", "pos"], kind="mergesort")
        agg = g.groupby("dst", sort=False)["txt"].agg(
            n_anchors="size", anchors=sep.join)
        return pd.DataFrame({
            "dst": agg.index.to_numpy(),
            "n_anchors": agg["n_anchors"].to_numpy(dtype=np.int64),
            "anchors": agg["anchors"].to_numpy(dtype=object)})

    return fold


def anchors_from_output(checkpoint_dir: str, n_buckets: int = 32,
                        sep: str = "\n") -> ray.data.Dataset:
    """:func:`anchor_texts` off a crawl checkpoint's round outputs —
    the (url, text) pairs were emitted by the crawl's OWN extraction
    walk (stages/extract_stage.py ``anchors`` column), so the anchor
    corpus costs one slim column read + explode + one bucketed fold;
    no second DOM parse. Same output contract as :func:`anchor_texts`
    restricted to fetched pages."""
    files = _crawl_output_files(checkpoint_dir)
    if not files:
        return ray.data.from_arrow(
            __import__("pyarrow").table(
                {"dst": [], "n_anchors": [], "anchors": []}))

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        srcs, poss, dsts, txts = [], [], [], []
        for url, anchors in zip(df["url"], df["anchors"]):
            for pos, a in enumerate(anchors if anchors is not None
                                    else ()):
                srcs.append(url)
                poss.append(pos)
                dsts.append(a["url"])
                txts.append(a["text"])
        out = pd.DataFrame({"src": pd.Series(srcs, dtype=object),
                            "pos": pd.Series(poss, dtype="int64"),
                            "dst": pd.Series(dsts, dtype=object),
                            "txt": pd.Series(txts, dtype=object)})
        out["__bkt"] = _bkt(out["dst"], n_buckets)
        return out

    return (ray.data.read_parquet(files, columns=["url", "anchors"])
            .map_batches(explode, batch_format="pandas")
            .groupby("__bkt").map_groups(_anchor_fold(sep),
                                         batch_format="pandas"))


def _host_of(series: pd.Series) -> pd.Series:
    """netloc of an absolute URL (scheme://host/...)."""
    return series.str.split("/").str[2]


def _hid(series: pd.Series) -> np.ndarray:
    """Positive-int63 md5 id of a host string — the canonical node id
    for component labeling; its DuckDB twin is
    ``('0x' || substr(md5(h), 1, 16))::UBIGINT >> 1``."""
    import hashlib

    return np.fromiter(
        (int.from_bytes(hashlib.md5(str(h).encode()).digest()[:8],
                        "big") >> 1 for h in series),
        dtype=np.int64, count=len(series))


def host_components(edges: ray.data.Dataset,
                    n_buckets: int = 32) -> ray.data.Dataset:
    """Connected components of the HOST graph (two hosts connect when
    any page links across them) — the site-clustering signal (mirror
    detection, domain families, crawl sharding). Returns
    (host, component) for every distinct host, where ``component`` is
    the host with the minimal md5 id in its component (a canonical
    representative both sides can compute).

    Shape: hosts get int63 md5 ids; cross-host edges feed
    :func:`web_scraper_ray.ops.dedup.components_min_label` (one-task
    union-find under the cutoff, iterative min-label shuffles above
    it); two slim bucketed groupby joins map ids back to host strings
    and default edge-less hosts to their own component. Host rows are
    tiny — nothing here ever carries page text."""
    from .dedup import components_min_label

    def hpairs(df: pd.DataFrame) -> pd.DataFrame:
        ha, hb = _host_of(df["src"]), _host_of(df["dst"])
        m = (ha != hb).to_numpy(dtype=bool)
        sub = pd.DataFrame({"a": ha[m].to_numpy(),
                            "b": hb[m].to_numpy()}).drop_duplicates()
        return pd.DataFrame({"id_a": _hid(sub["a"]),
                             "id_b": _hid(sub["b"])})

    def hmap(df: pd.DataFrame) -> pd.DataFrame:
        hosts = pd.unique(pd.concat([_host_of(df["src"]),
                                     _host_of(df["dst"])],
                                    ignore_index=True))
        hosts = pd.Series(hosts, dtype=object)
        return pd.DataFrame({"k": _hid(hosts), "host": hosts.to_numpy()})

    comp = components_min_label(edges.map_batches(
        hpairs, batch_format="pandas"))
    # pinned once: feeds both resolve passes (and the edge scan
    # shouldn't run twice)
    maps = edges.map_batches(hmap, batch_format="pandas").materialize()

    def add_bkt(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bkt"] = df["k"].to_numpy() % n_buckets
        return df

    def tag_comp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": df["node"].to_numpy(dtype=np.int64),
                             "host": "", "lab": df["label"].to_numpy(),
                             "side": "c"})

    def tag_map(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": df["k"].to_numpy(dtype=np.int64),
                             "host": df["host"].to_numpy(),
                             "lab": np.int64(0), "side": "m"})

    _EMPTY2 = pd.DataFrame({"host": pd.Series([], dtype=object),
                            "lab": pd.Series([], dtype="int64")})

    def resolve_nodes(g: pd.DataFrame) -> pd.DataFrame:
        """host of every node id; edge-less hosts label themselves."""
        m = (g.loc[g["side"] == "m", ["k", "host"]]
             .drop_duplicates("k").set_index("k")["host"])
        if not len(m):
            return _EMPTY2
        c = (g.loc[g["side"] == "c", ["k", "lab"]]
             .drop_duplicates("k").set_index("k")["lab"])
        idx = m.index.to_numpy(dtype=np.int64)
        # indexer-based lookup, NOT reindex: reindex widens int64
        # labels to float64 and md5 ids exceed 2^53
        pos = c.index.get_indexer(idx)
        cv = c.to_numpy(dtype=np.int64) if len(c) else np.zeros(
            1, dtype=np.int64)
        lab = np.where(pos >= 0, cv[np.clip(pos, 0, None)], idx)
        return pd.DataFrame({"host": m.to_numpy(),
                             "lab": lab.astype(np.int64)})

    hosts_lab = (comp.map_batches(tag_comp, batch_format="pandas")
                 .union(maps.map_batches(tag_map, batch_format="pandas"))
                 .map_batches(add_bkt, batch_format="pandas")
                 .groupby("__bkt")
                 .map_groups(resolve_nodes, batch_format="pandas"))

    _EMPTY3 = pd.DataFrame({"host": pd.Series([], dtype=object),
                            "component": pd.Series([], dtype=object)})

    def tag_pending(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": df["lab"].to_numpy(dtype=np.int64),
                             "host": df["host"].to_numpy(),
                             "lab": np.int64(0), "side": "p"})

    def resolve_labels(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.loc[g["side"] == "m", ["k", "host"]]
             .drop_duplicates("k").set_index("k")["host"])
        p = g.loc[g["side"] == "p"]
        if not len(p):
            return _EMPTY3
        return pd.DataFrame({
            "host": p["host"].to_numpy(),
            "component": p["k"].map(m).to_numpy(dtype=object)})

    return (hosts_lab.map_batches(tag_pending, batch_format="pandas")
            .union(maps.map_batches(tag_map, batch_format="pandas"))
            .map_batches(add_bkt, batch_format="pandas")
            .groupby("__bkt")
            .map_groups(resolve_labels, batch_format="pandas"))


def top_indegree(edges: ray.data.Dataset, k: int = 20,
                 n_buckets: int = 32) -> ray.data.Dataset:
    """Top-k nodes by in-degree (ties broken by node asc — a total
    order, so results are parallelism-stable). Per-batch pre-combine,
    one bucketed shuffle over (node, partial-count), then a k-bounded
    sort: only n_buckets * k rows reach the final limit."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby("dst", sort=False)["dst"].size()
        out = pd.DataFrame({"node": cnt.index.to_numpy(),
                            "c": cnt.to_numpy().astype("int64")})
        out["__bkt"] = _bkt(out["node"], n_buckets)
        return out

    def local_topk(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "indegree": pd.Series([], dtype="int64")})
        agg = g.groupby("node", sort=False)["c"].sum()
        out = pd.DataFrame({"node": agg.index.to_numpy(),
                            "indegree": agg.to_numpy().astype("int64")})
        return out.sort_values(["indegree", "node"],
                               ascending=[False, True],
                               kind="mergesort").head(k)

    return (edges.map_batches(partial, batch_format="pandas")
            .groupby("__bkt").map_groups(local_topk, batch_format="pandas")
            .sort(["indegree", "node"], descending=[True, False])
            .limit(k))
