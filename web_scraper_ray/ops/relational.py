"""Relational / windowed operators proving the general engine on the
TPC-H-ish testdata tables — each has a DuckDB oracle in
``__ray_entry__.oracle_sql``.

Float discipline for oracle hash-matching: monetary aggregates are
rounded to integer cents PER ROW before summation (integer sums are
exact and order-independent; float sums are not associative). Both the
Ray pipeline and the SQL oracle apply the identical per-row rounding.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..sources.planned import cluster_cpus


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1 analog over lineitem (groupby shuffle with per-batch
    partial pre-aggregation done by Ray's aggregate implementation)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                "l_discount"])

    def derive(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"]
        disc = batch["l_discount"]
        disc_price = pc.multiply(price, pc.subtract(pa.scalar(1.0), disc))
        # floor(x+0.5) == round-half-away-from-zero for positive values,
        # matching DuckDB round(); Arrow's default is half-to-even
        cents = pc.cast(pc.floor(pc.add(pc.multiply(price, pa.scalar(100.0)),
                                        pa.scalar(0.5))), pa.int64())
        disc_cents = pc.cast(pc.floor(pc.add(pc.multiply(disc_price, pa.scalar(100.0)),
                                             pa.scalar(0.5))), pa.int64())
        qty = pc.cast(batch["l_quantity"], pa.int64())
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": qty,
                "base_cents": cents,
                "disc_cents": disc_cents,
            }
        )

    return (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty", alias_name="sum_qty"),
            Sum("base_cents", alias_name="sum_base_cents"),
            Sum("disc_cents", alias_name="sum_disc_cents"),
            Count(alias_name="count_order"),
        )
    )


def top_orders(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Global top-k by total price (sort shuffle + limit); pass-through
    doubles are bit-stable, ties broken by orderkey."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(k)


def grouped_topk(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    k: int,
    tie_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Top-k rows PER GROUP by ``order_col`` desc (ties broken by
    ``tie_col`` asc), with a rank column ``rk`` (1-based). The scale
    shape: a per-batch PARTIAL top-k per group prunes each batch to at
    most k rows per group BEFORE the shuffle — only candidate rows
    cross the wire, never the corpus — then a coarse-bucket groupby
    (``hash(group) % n_buckets``, the corpus-cardinality-groupby rule)
    finishes each group exactly. Deterministic at any parallelism:
    the final in-group sort is total (order desc, tie asc)."""
    import pandas as pd

    cols = [group_col, order_col, tie_col]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[cols].sort_values(
            [order_col, tie_col], ascending=[False, True],
            kind="mergesort")
        out = df.groupby(group_col, sort=False).head(k).copy()
        from ..vhash import hash64_str

        # bucketing only: any stable hash of the group value will do,
        # so int/other group columns hash their string form
        out["__bkt"] = hash64_str(out[group_col].astype(str)) % n_buckets
        return out

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [group_col, order_col, tie_col],
            ascending=[True, False, True], kind="mergesort")
        g = g.groupby(group_col, sort=False).head(k).copy()
        g["rk"] = g.groupby(group_col, sort=False).cumcount() + 1
        return g[cols + ["rk"]]

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("__bkt")
            .map_groups(finish, batch_format="pandas"))


@ray.remote(num_cpus=0)
def _dim_lookup_task(*tables):
    """Fold (int key, value) dimension blocks into custkey-sorted numpy
    arrays in the OBJECT STORE — a Ray task, so the driver never holds
    the dimension (the ``keyed.KeyTable`` broadcast / ``graph.
    _fold_node_table`` pattern); probe tasks ``ray.get`` it zero-copy
    and binary-search."""
    live = [t for t in tables if t.num_rows]
    if not live:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=object))
    t = pa.concat_tables(live)
    keys = t.column(0).to_numpy(zero_copy_only=False).astype(np.int64)
    vals = t.column(1).to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def segment_revenue(sf_dir: str,
                    broadcast_limit: int = 2_000_000) -> ray.data.Dataset:
    """orders ⋈ customer revenue per market segment. TPC-H customer
    SCALES with sf (it is not a fixed dimension like nation), so two
    regimes, switched on the dimension's parquet FOOTER row count:

    * broadcast (≤ ``broadcast_limit`` rows): a Ray task folds the
      (c_custkey, c_mktsegment) blocks into custkey-sorted arrays in
      the object store — the driver never materializes the table —
      and each orders batch does one vectorized ``searchsorted``
      probe. No shuffle of orders.
    * native hash join above the limit (the ``nation_revenue`` shape):
      both sides hash-partition; nothing holds the dimension whole."""
    import pyarrow.parquet as pq

    n_cust = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    if n_cust > broadcast_limit:
        cpus = cluster_cpus() or 4
        joined = orders.join(cust, join_type="inner",
                             num_partitions=max(2, min(32, cpus)),
                             on=("o_custkey",), right_on=("c_custkey",))

        def derive(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "c_mktsegment": df["c_mktsegment"],
                "price_cents": np.floor(
                    df["o_totalprice"] * 100.0 + 0.5).astype("int64"),
            })

        probed = joined.map_batches(derive, batch_format="pandas")
    else:
        lookup_ref = _dim_lookup_task.remote(*cust.to_arrow_refs())

        def join_batch(df: pd.DataFrame) -> pd.DataFrame:
            keys, vals = ray.get(lookup_ref)  # zero-copy plasma read
            k = df["o_custkey"].to_numpy(dtype=np.int64)
            if len(keys) == 0:
                return pd.DataFrame({
                    "c_mktsegment": pd.Series([], dtype=object),
                    "price_cents": pd.Series([], dtype="int64")})
            pos = np.clip(np.searchsorted(keys, k), 0, len(keys) - 1)
            # inner-join semantics (match the oracle's JOIN): an order
            # whose custkey has no customer row is dropped
            hit = keys[pos] == k
            return pd.DataFrame({
                "c_mktsegment": vals[pos[hit]],
                "price_cents": np.floor(
                    df["o_totalprice"].to_numpy()[hit] * 100.0 + 0.5
                ).astype("int64"),
            })

        probed = orders.map_batches(join_batch, batch_format="pandas")

    return (
        probed.groupby("c_mktsegment")
        .aggregate(
            Sum("price_cents", alias_name="revenue_cents"),
            Count(alias_name="n_orders"),
        )
    )


def events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling-window aggregate: per (event_type, hour) count + exact
    integer value sum (stream-shaped analog; guide 'Streaming-shaped
    workloads')."""
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hour"] = df["ts"].dt.floor("h")
        df["value_e4"] = np.floor(df["value"] * 10000.0 + 0.5).astype("int64")
        return df[["event_type", "hour", "value_e4"]]

    return (
        ev.map_batches(derive, batch_format="pandas")
        .groupby(["event_type", "hour"])
        .aggregate(Sum("value_e4", alias_name="sum_value_e4"),
                   Count(alias_name="n_events"))
    )


def last_purchase_asof(sf_dir: str, n_buckets: int = 32) -> ray.data.Dataset:
    """As-of join analog of the reference's transcript→chapter
    assignment (``contxt/youtube_handler.py:72-113``: each line joins
    the last chapter with start_time <= t): each event is annotated with
    the timestamp of the same user's most recent purchase event at or
    before it (ordered by (ts, event_id) — the deterministic total
    order the chapter cursor requires, SURVEY.md §2.5 J2).

    Shuffle key is a coarse user-hash bucket; within a bucket the scan
    is a vectorized per-user cummax over the sorted frame."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bucket"] = df["user_id"].astype("int64") % n_buckets
        return df

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort").copy()
        marker = g["ts"].where(g["event_type"] == "purchase")
        # grouped forward-fill = "last marker at or before t" (pandas
        # cumulative ops preserve NaN positions, so cummax would not
        # propagate — ffill is the correct as-of semantics)
        g["last_purchase_ts"] = marker.groupby(g["user_id"]).ffill()
        return g[["event_id", "user_id", "ts", "event_type", "last_purchase_ts"]]

    return (
        ev.map_batches(bucket, batch_format="pandas")
        .groupby("bucket")
        .map_groups(asof, batch_format="pandas")
    )


def source_concat(sf_dir: str) -> ray.data.Dataset:
    """Ordered per-group concatenation — the analog of the reference's
    per-playlist combined transcript (``contxt/scraper.py:577-622``:
    ``Video {i+1}: title`` headers joined with ``"="*40`` separators,
    SURVEY.md §2.6 G3), applied per document source with doc_id order."""

    def concat(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        parts = [f"Doc {i + 1}: {t}" for i, t in enumerate(g["text"])]
        sep = "\n\n" + "=" * 40 + "\n\n"
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "combined": [sep.join(parts)],
                "n_docs": [len(g)],
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "source", "text"])
        .groupby("source")
        .map_groups(concat, batch_format="pandas")
    )


def session_windows(sf_dir: str, gap_minutes: int = 60, n_buckets: int = 32) -> ray.data.Dataset:
    """Gap-based session windows per user (stream-shaped, SURVEY.md
    §2.9): a new session starts when the gap since the user's previous
    event exceeds ``gap_minutes``. Emits one row per session with
    event count and span. Deterministic order key (ts, event_id)."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bucket"] = df["user_id"].astype("int64") % n_buckets
        return df

    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = g["user_id"] != g["user_id"].shift()
        gap_break = (g["ts"] - g["ts"].shift()) > gap
        g = g.copy()
        g["session_no"] = (new_user | gap_break).cumsum()
        out = g.groupby(["user_id", "session_no"], sort=False).agg(
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("event_id", "count"),
        ).reset_index()
        # per-user session index (1-based), deterministic
        out["session_idx"] = out.groupby("user_id", sort=False).cumcount() + 1
        return out[["user_id", "session_idx", "session_start", "session_end", "n_events"]]

    return (
        ev.map_batches(bucket, batch_format="pandas")
        .groupby("bucket")
        .map_groups(sessions, batch_format="pandas")
    )


def lang_counts(sf_dir: str) -> ray.data.Dataset:
    return (
        _read(sf_dir, "documents", ["lang"]).groupby("lang").aggregate(Count(alias_name="n_docs"))
    )


def source_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-source document stats (count, min/max/sum of n_chars)."""
    return (
        _read(sf_dir, "documents", ["source", "n_chars"])
        .groupby("source")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
            Min("n_chars", alias_name="min_chars"),
            Max("n_chars", alias_name="max_chars"),
        )
    )


# ---------------------------------------------------------------------------
# interval (range) join — an operator Ray Data has no native form of

@ray.remote(num_cpus=0)
def _fold_frame(*tables) -> pd.DataFrame:
    """Concatenate Arrow blocks into ONE pandas frame in the object
    store (runs as a task — the driver never holds it)."""
    live = [t for t in tables if t.num_rows]
    if live:
        return pa.concat_tables(live).to_pandas()
    for t in tables:  # all empty: keep the column schema if any block has one
        if t.schema.names:
            return t.to_pandas()
    return pd.DataFrame()


def interval_join(
    ds: ray.data.Dataset,
    intervals: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    start_col: str,
    end_col: str,
    mode: str = "auto",
    n_buckets: int = 32,
    broadcast_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Range join: every ``ds`` row pairs with EVERY ``intervals`` row
    sharing its ``key_col`` whose ``[start_col, end_col]`` contains
    ``ts_col`` (closed on both ends, many-to-many). Ray Data has no
    native range join; this is the documented composition:

    * ``broadcast`` (interval set ≤ ``broadcast_limit`` rows — the
      dimension-table regime): the interval table is folded into ONE
      object-store frame by a Ray task; each batch does a vectorized
      pandas merge on ``key_col`` + a range mask. No shuffle of ``ds``.
    * ``bucketed``: both sides co-locate by ``key_col % n_buckets``
      and the merge runs per group — the interval side is shuffled
      once, ``ds`` once, and no process holds either whole. Skewed
      keys (one user owning millions of rows) are the caveat shared
      with every key-partitioned join here; salt such keys upstream.

    Column collisions: interval columns other than ``key_col`` must
    not collide with ``ds`` columns (callers rename upfront — explicit
    beats silent suffixing)."""
    overlap = (set(intervals.schema().names)
               & set(ds.schema().names)) - {key_col}
    if overlap:
        raise ValueError(f"interval columns collide with ds: {overlap}")

    intervals = intervals.materialize()
    if mode == "auto":
        mode = ("broadcast" if intervals.count() <= broadcast_limit
                else "bucketed")

    if mode == "broadcast":
        ref = _fold_frame.remote(*intervals.to_arrow_refs())

        def probe(df: pd.DataFrame) -> pd.DataFrame:
            win = ray.get(ref)
            if not len(win.columns):  # degenerate schema-less intervals
                return df.head(0)
            m = df.merge(win, on=key_col, how="inner")
            return m.loc[(m[ts_col] >= m[start_col])
                         & (m[ts_col] <= m[end_col])]

        return ds.map_batches(probe, batch_format="pandas")

    if mode != "bucketed":
        raise ValueError(f"unknown interval_join mode: {mode}")

    # the union the bucketed groupby rides on needs ONE schema: route
    # both sides through Arrow (typed schemas even after pandas
    # stages), null-pad each to the column superset, and restore the
    # null-promoted int/bool dtypes after the per-group merge — the
    # subtract_ids discipline (ops/dedup.py)
    def to_arrow(ds_):
        sch = ds_.schema().base_schema
        if not isinstance(sch, pa.Schema):
            ds_ = ds_.map_batches(lambda t: t, batch_format="pyarrow")
            sch = ds_.schema().base_schema
        return ds_, sch

    ds, l_schema = to_arrow(ds)
    intervals, r_schema = to_arrow(intervals)
    left_cols = list(l_schema.names)
    right_cols = [c for c in r_schema.names if c != key_col]
    all_fields = list(l_schema) + [r_schema.field(c) for c in right_cols]

    restore = {}
    for field in all_fields:
        if pa.types.is_integer(field.type):
            restore[field.name] = ("uint64" if pa.types.is_unsigned_integer(
                field.type) else "int64")
        elif pa.types.is_boolean(field.type):
            restore[field.name] = "bool"

    def tag(side: str, own_fields):
        own = {f.name for f in own_fields}

        def fn(batch: "pa.Table") -> "pa.Table":
            keys = batch[key_col].to_numpy(zero_copy_only=False)
            cols = {}
            for f in all_fields:
                cols[f.name] = (batch[f.name] if f.name in own
                                else pa.nulls(batch.num_rows, f.type))
            out = pa.table(cols)
            return out.append_column(
                "__side", pa.array([side] * batch.num_rows, pa.string())
            ).append_column(
                "__bkt",
                pa.array(keys.astype(np.int64) % n_buckets, pa.int64()))

        return fn

    both = ds.map_batches(tag("l", l_schema), batch_format="pyarrow").union(
        intervals.map_batches(tag("r", r_schema), batch_format="pyarrow"))

    def join_group(g: pd.DataFrame) -> pd.DataFrame:
        l = g.loc[g["__side"] == "l", left_cols]
        r = g.loc[g["__side"] == "r", [key_col, *right_cols]]
        m = l.merge(r, on=key_col, how="inner")
        m = m.loc[(m[ts_col] >= m[start_col]) & (m[ts_col] <= m[end_col])]
        fix = {k: v for k, v in restore.items()
               if k in m.columns and str(m[k].dtype) != v}
        return m.astype(fix) if fix else m

    return both.groupby("__bkt").map_groups(join_group,
                                            batch_format="pandas")


def events_in_purchase_windows(sf_dir: str,
                               window_days: int = 1,
                               mode: str = "auto") -> ray.data.Dataset:
    """Range-join demo: every event paired with each SAME-USER purchase
    whose [purchase_ts, purchase_ts + window] contains it (the
    "activity attributable to a recent purchase" query). Windows are
    derived from the events table itself; a purchase pairs with its
    own window too (ts >= start is closed)."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    purch = _read(sf_dir, "events",
                  ["event_id", "ts", "user_id", "event_type"])

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        p = df.loc[df["event_type"] == "purchase"]
        return pd.DataFrame({
            "purchase_id": p["event_id"].astype("int64"),
            "user_id": p["user_id"],
            "w_start": p["ts"],
            "w_end": p["ts"] + pd.Timedelta(days=window_days),
        })

    win = purch.map_batches(windows, batch_format="pandas")
    joined = interval_join(ev, win, key_col="user_id", ts_col="ts",
                           start_col="w_start", end_col="w_end", mode=mode)
    return joined.select_columns(["event_id", "user_id", "purchase_id"])


def nation_revenue(sf_dir: str,
                   num_partitions: int | None = None) -> ray.data.Dataset:
    """Distributed hash equi-join via Ray Data's NATIVE ``Dataset.join``
    (orders ⋈ customer on custkey — both sides corpus-scaled, so
    broadcast is wrong; the native join hash-partitions both), then the
    small nation dimension via broadcast lookup, then one grouped
    aggregate. Revenue is rounded to integer cents per row before
    summation (module float discipline).

    Cost note: the native join spins up a hash-aggregator actor pool —
    ~10 s of FIXED local-mode overhead regardless of input size
    (measured: 12.7 s for 150k ⋈ 15k rows at 32 partitions, where the
    repo's own bucketed-groupby joins run in ~2 s). It amortizes at
    real scale and is the idiomatic path; prefer `interval_join` /
    `subtract_ids`-style bucketed groupbys when a pipeline needs many
    small joins.

    ``num_partitions`` defaults to the cluster CPU count (capped at
    32): the aggregator pool is sized to it, and asking for more
    aggregator actors than the cluster can schedule DEADLOCKS the join
    under small sessions (observed: 32 partitions on a 4-CPU session
    never completes — every HashShuffleAggregator waits for placement)."""
    if num_partitions is None:
        cpus = cluster_cpus() or 4
        num_partitions = max(2, min(32, cpus))
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nation_ref = ray.put(dict(zip(nation["n_nationkey"], nation["n_name"])))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = orders.join(cust, join_type="inner",
                         num_partitions=num_partitions,
                         on=("o_custkey",), right_on=("c_custkey",))

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(nation_ref)
        out = pd.DataFrame({
            "n_name": df["c_nationkey"].map(lookup),
            "price_cents": np.floor(
                df["o_totalprice"] * 100.0 + 0.5).astype("int64"),
        })
        return out.dropna(subset=["n_name"])

    return (joined.map_batches(derive, batch_format="pandas")
            .groupby("n_name")
            .aggregate(Sum("price_cents", alias_name="revenue_cents"),
                       Count(alias_name="n_orders")))


def sliding_window_counts(sf_dir: str, hours: int = 1,
                          n_buckets: int = 32) -> ray.data.Dataset:
    """Sliding-window aggregate (the third of the window family next to
    the tumbling ``events_hourly`` and gap-based ``session_windows``):
    per event, the number of SAME-USER events in the closed window
    ``[ts - hours, ts]`` — including equal-timestamp peers, exactly
    SQL's ``RANGE BETWEEN h PRECEDING AND CURRENT ROW``.

    Shuffle key is the coarse user bucket; inside a partition the scan
    is two vectorized ``searchsorted`` calls per user run over the
    (user, ts)-sorted frame."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    delta = pd.Timedelta(hours=hours)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bucket"] = df["user_id"].astype("int64") % n_buckets
        return df

    def count_windows(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort").copy()
        users = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        n = np.empty(len(g), dtype=np.int64)
        run_starts = np.flatnonzero(
            np.concatenate(([True], users[1:] != users[:-1])))
        bounds = np.append(run_starts, len(g))
        for s, e in zip(bounds[:-1], bounds[1:]):
            seg = ts[s:e]
            lo = np.searchsorted(seg, seg - delta.to_numpy(), side="left")
            hi = np.searchsorted(seg, seg, side="right")
            n[s:e] = hi - lo
        g["n_in_window"] = n
        return g[["event_id", "user_id", "ts", "n_in_window"]]

    return (ev.map_batches(bucket, batch_format="pandas")
            .groupby("bucket")
            .map_groups(count_windows, batch_format="pandas"))


def late_event_flags(sf_dir: str, allowed_lateness_s: int = 21600,
                     bucket_s: int = 86400,
                     n_buckets: int = 64) -> ray.data.Dataset:
    """Watermark / late-data semantics — the fourth window-family
    member next to tumbling (``events_hourly``), gap-sessionized
    (``session_windows``) and sliding (``sliding_window_counts``):
    each event's ARRIVAL position is the deterministic md5-jittered
    order ``(ts // bucket_s, md5('17:'||event_id), event_id)`` (the
    synthetic stand-in for network reordering, bounded by one bucket —
    the corpus's event times are monotone, so disorder must be
    modeled; the default day bucket vs 6 h allowed lateness yields a
    nontrivial late set at the testdata's ~1-30 events/hour density), the frontier after each arrival is the running max of
    event time, and an event is LATE iff it trails the frontier of
    its arrival position by more than ``allowed_lateness_s`` (the
    exclusive prefix — an event never makes itself late). Emits
    ``(event_id, arrival_bucket, behind_ms, late)``.

    Distributed shape — the prefix max FACTORS over contiguous arrival
    buckets, so no global sort exists: pass 1 is a per-batch
    (bucket, max) combiner folded by one tiny task into the exclusive
    per-bucket carry-in table (bucket cardinality is buckets-of-
    corpus, bounded by the op's contract; the table broadcasts from
    the object store); pass 2 shuffles rows once on a coarse hash of
    the arrival bucket and resolves each group locally (sorted cummax +
    carry). All integer microsecond arithmetic — the SQL twin
    (``oracle_sql()['late_events']``) is a plain window max replayed
    bit-for-bit."""
    import hashlib

    import ray as _ray

    ev = _read(sf_dir, "events", ["event_id", "ts"])
    lateness_us = int(allowed_lateness_s) * 1_000_000

    def _hash(ids) -> np.ndarray:
        return np.fromiter(
            (int.from_bytes(
                hashlib.md5(f"17:{i}".encode()).digest()[:8], "big")
             for i in ids), dtype=np.uint64, count=len(ids))

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "us": us,
            "mbkt": us // (int(bucket_s) * 1_000_000),
            "h": _hash(df["event_id"].to_numpy()),
        })

    def max_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = keyed(df).groupby("mbkt", sort=False)["us"].max()
        return pd.DataFrame({"mbkt": g.index.to_numpy(),
                             "mx": g.to_numpy().astype("int64")})

    @_ray.remote(num_cpus=0)
    def fold_carry(*tables) -> dict:
        """mbkt -> max event time over ALL STRICTLY EARLIER buckets."""
        agg: dict[int, int] = {}
        for t in tables:
            for m, x in zip(t.column("mbkt").to_pylist(),
                            t.column("mx").to_pylist()):
                agg[m] = max(agg.get(m, x), x)
        carry, run = {}, None
        for m in sorted(agg):
            carry[m] = run
            run = agg[m] if run is None else max(run, agg[m])
        return carry

    partials = ev.map_batches(max_partial, batch_format="pandas")
    carry_ref = fold_carry.remote(*partials.to_arrow_refs())

    def resolve(part: pd.DataFrame) -> pd.DataFrame:
        carry = _ray.get(carry_ref)
        part = part.sort_values(["mbkt", "h", "event_id"],
                                kind="mergesort")
        out = []
        for m, g in part.groupby("mbkt", sort=False):
            us = g["us"].to_numpy()
            cmax = np.maximum.accumulate(us)
            prev = np.empty(len(g), dtype="float64")
            prev[0] = -np.inf
            prev[1:] = cmax[:-1]
            c = carry.get(int(m))
            if c is not None:
                prev = np.maximum(prev, float(c))
            behind_us = np.maximum(prev - us, 0)
            behind_us[np.isinf(prev)] = 0  # first event overall
            behind_us = behind_us.astype(np.int64)
            out.append(pd.DataFrame({
                "event_id": g["event_id"].to_numpy(),
                "arrival_bucket": g["mbkt"].to_numpy(),
                "behind_ms": behind_us // 1000,
                "late": (behind_us > lateness_us).astype("int64"),
            }))
        if not out:
            return pd.DataFrame({
                "event_id": pd.Series([], dtype="int64"),
                "arrival_bucket": pd.Series([], dtype="int64"),
                "behind_ms": pd.Series([], dtype="int64"),
                "late": pd.Series([], dtype="int64"),
            })
        return pd.concat(out, ignore_index=True)

    def add_cbkt(df: pd.DataFrame) -> pd.DataFrame:
        k = keyed(df)
        k["cbkt"] = k["mbkt"] % n_buckets
        return k

    return (ev.map_batches(add_cbkt, batch_format="pandas")
            .groupby("cbkt")
            .map_groups(resolve, batch_format="pandas"))
