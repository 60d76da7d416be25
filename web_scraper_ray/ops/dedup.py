"""Deduplication family — exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine. Each is expressed Ray-Data-first:

    per-batch vectorized signature (map_batches)
      → explode to (bucket_key, id) rows
      → groupby(bucket) shuffle ONLY on the compact key table
      → candidate pairs verified inside the group
      → (optional) min-label propagation for clusters

The shuffle never moves document text — only ids + signatures — which
is what keeps these viable at 100 TB (SURVEY.md §2.8; guide's
"Aggregation at scale" sketch pattern).

Determinism: every hash is seeded blake2b/ polynomial arithmetic; no
process-salted ``hash()`` anywhere.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .keyed import KeyTable, contains_sorted
from .pieces import join_kept, positions, split_pieces

_MERSENNE = (1 << 61) - 1


# ---------------------------------------------------------------------------
# id-set anti-join (the shared drop-set machinery of the dedup family)

def subtract_ids(
    ds: ray.data.Dataset,
    drop: ray.data.Dataset,
    id_col: str = "doc_id",
    drop_col: str = "node",
    mode: str = "auto",
    n_buckets: int = 64,
    broadcast_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Anti-join: rows of ``ds`` whose ``id_col`` does NOT appear in
    ``drop[drop_col]`` — without the drop set ever landing on the
    driver, and without ``ds`` ever shuffling. The drop ids form a
    :class:`~web_scraper_ray.ops.keyed.KeyTable` key set and each
    filter batch drops the rows its ``contains`` query hits:

    * ``broadcast`` (drop set ≤ ``broadcast_limit``): one sorted int64
      array in the object store, read zero-copy by every filter task.
    * ``sharded`` (web-scale drop sets, O(corpus) ids — 30-50%
      near-dup rates; what ``auto`` picks above ``broadcast_limit``):
      ``max(4, n_buckets // 4)`` shards by ``id % n_shards`` on the
      session's pooled key actors (no actor starts per call); each
      filter batch asks them about its own ids only (slim int64s both
      ways).

    ``mode='auto'`` picks by the drop set's row count, so only it
    materializes the drop Dataset first; an explicit mode hands the
    lazy drop Dataset to the table, whose build runs it in the same
    execution."""
    drop = drop.select_columns([drop_col])
    if mode == "auto":
        drop = drop.materialize()
        mode = "broadcast" if drop.count() <= broadcast_limit else "sharded"
    table = KeyTable(drop, drop_col, placement=mode,
                     n_shards=max(4, n_buckets // 4), op="subtract_ids")

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df.loc[~table.contains(df[id_col].to_numpy(dtype=np.int64))]

    return ds.map_batches(keep, batch_format="pandas")


# ---------------------------------------------------------------------------
# exact dedup

def add_md5_batch(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    df = df.copy()
    df["content_md5"] = df[text_col].fillna("").map(
        lambda t: hashlib.md5(t.encode("utf-8")).hexdigest()
    )
    return df


def exact_dedup(ds: ray.data.Dataset, text_col: str = "text",
                id_col: str = "doc_id", n_buckets: int = 64,
                subtract_mode: str = "auto") -> ray.data.Dataset:
    """Keep the min-id row per identical content (first-wins == min id,
    matching the reference's first-occurrence-wins dedup semantics,
    ``contxt/scraper.py:462-474``). Returns the surviving rows of
    ``ds`` with their original schema.

    Shuffle discipline: the dedup shuffle ships only
    (id, content_md5, bucket) — document text never rides it. Losers
    (every id that is not its content group's min) are then removed by
    :func:`subtract_ids`, which broadcasts small loser sets through
    the object store and shards them across the pooled key actors
    when the loser set is corpus-sized (``subtract_mode``). ``ds`` is
    consumed twice (hash pass + filter pass) — pass a re-readable
    source (e.g. a parquet read), not an expensive unmaterialized
    pipeline."""
    slim = ds.select_columns([id_col, text_col]).map_batches(
        lambda df: add_md5_batch(df, text_col).drop(columns=[text_col]),
        batch_format="pandas",
    )

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bucket"] = df["content_md5"].map(lambda h: int(h[:8], 16) % n_buckets)
        return df

    def losers_in_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["content_md5", id_col], kind="mergesort")
        lose = g.duplicated(subset=["content_md5"], keep="first")
        return g.loc[lose, [id_col]]

    losers = (
        slim.map_batches(add_bucket, batch_format="pandas")
        .groupby("bucket")
        .map_groups(losers_in_group, batch_format="pandas")
    )
    return subtract_ids(ds, losers, id_col=id_col, drop_col=id_col,
                        mode=subtract_mode, n_buckets=n_buckets)


def dup_cluster_histogram(ds: ray.data.Dataset, text_col: str = "text",
                          n_buckets: int = 64) -> ray.data.Dataset:
    """Duplication audit: the exact-duplicate cluster-size histogram
    ``(sz, n_clusters)`` — sz=1 rows count unique documents, so the
    histogram doubles as a one-glance dup-rate report (what fraction
    of the corpus survives exact dedup, how pathological the largest
    clusters are). Shuffle discipline as :func:`exact_dedup`: only
    (content_md5, bucket) rides the decision fold; the second groupby
    is over cluster SIZES (tiny cardinality — bounded by the largest
    cluster, not the corpus)."""
    from ray.data.aggregate import Sum

    slim = ds.select_columns([text_col]).map_batches(
        lambda df: add_md5_batch(df, text_col)[["content_md5"]],
        batch_format="pandas",
    )

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bucket"] = df["content_md5"].map(
            lambda h: int(h[:8], 16) % n_buckets)
        return df

    def sizes_in_group(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby("content_md5", sort=False).size()
        part = sz.value_counts()
        return pd.DataFrame({"sz": part.index.to_numpy(dtype=np.int64),
                             "n": part.to_numpy(dtype=np.int64)})

    parts = (slim.map_batches(add_bucket, batch_format="pandas")
             .groupby("bucket")
             .map_groups(sizes_in_group, batch_format="pandas"))
    out = parts.groupby("sz").aggregate(Sum("n", alias_name="n_clusters"))
    return out.map_batches(
        lambda df: df.astype({"sz": "int64", "n_clusters": "int64"}),
        batch_format="pandas")


# ---------------------------------------------------------------------------
# incremental (cross-corpus) exact dedup

def _content_keys(texts) -> np.ndarray:
    """int64 view of the upper 64 bits of md5(text) — the compact
    cross-corpus content key (collision odds 2^-64 per pair; the SQL
    twin computes the identical integer via
    ``('0x' || substr(md5(text), 1, 16))::UBIGINT``)."""
    return np.fromiter(
        (int.from_bytes(
            hashlib.md5(("" if t is None else t).encode("utf-8")).digest()[:8],
            "big")
         for t in texts),
        dtype=np.uint64, count=len(texts),
    ).view(np.int64)


def dedup_against(
    new_ds: ray.data.Dataset,
    prior_ds: ray.data.Dataset,
    text_col: str = "text",
    prior_text_col: str | None = None,
    mode: str = "auto",
    n_buckets: int = 64,
    broadcast_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Incremental dedup: rows of ``new_ds`` whose content does NOT
    already appear in ``prior_ds`` — the "dedup this crawl against the
    corpus we already have" op that a continuously-fed training
    pipeline runs on every ingest batch, WITHOUT re-shuffling the
    prior corpus.

    Both sides are reduced to compact int64 content keys
    (md5-upper-half of ``text``); the prior side additionally dedupes
    its keys per batch (a combiner — duplicates inside the prior
    corpus add nothing to the anti-join). The filter itself is
    :func:`subtract_ids`' two regimes: a zero-shuffle object-store
    broadcast while the prior key set fits (``broadcast_limit``),
    hash-sharded over the pooled key actors when the prior corpus is
    web-scale — in
    both, the only data that ever moves is 8-byte keys, never text.

    Exactness: first-occurrence-wins ACROSS corpora (prior always
    wins); ties INSIDE ``new_ds`` are NOT collapsed here — compose
    with :func:`exact_dedup` first when the ingest batch itself may
    contain duplicates. Oracle twin:
    ``__ray_entry__.oracle_sql()['incremental_dedup']``."""
    prior_text_col = prior_text_col or text_col
    key = "__ckey"

    # append/drop the key column on zero-copy Arrow blocks (no pandas
    # round-trip of the text payload)
    def prior_key_batch(batch: "pa.Table") -> "pa.Table":
        k = np.unique(_content_keys(batch[prior_text_col].to_pylist()))
        return pa.table({key: pa.array(k, pa.int64())})

    def add_key(batch: "pa.Table") -> "pa.Table":
        k = _content_keys(batch[text_col].to_pylist())
        return batch.append_column(key, pa.array(k, pa.int64()))

    prior_keys = prior_ds.select_columns([prior_text_col]).map_batches(
        prior_key_batch, batch_format="pyarrow")
    keyed = new_ds.map_batches(add_key, batch_format="pyarrow")
    kept = subtract_ids(keyed, prior_keys, id_col=key, drop_col=key,
                        mode=mode, n_buckets=n_buckets,
                        broadcast_limit=broadcast_limit)
    return kept.map_batches(
        lambda batch: batch.drop_columns([key]), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# paragraph-level exact dedup (corpus-wide, first-occurrence-wins)

def _md5_halves(flat: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """md5 of each string as two int64 halves ``(hi, lo)`` (big-endian
    bytes 0-7 and 8-15): the full 128-bit digest, so no collision
    handling is needed at any realistic corpus size. Hashes the UTF-8
    bytes straight from the Arrow data buffer."""
    if not len(flat):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    flat = flat.cast(pa.large_string())
    _, off_buf, data_buf = flat.buffers()
    off = np.frombuffer(off_buf, np.int64, len(flat) + 1, flat.offset * 8).tolist()
    data = memoryview(data_buf if data_buf is not None else b"")
    md5 = hashlib.md5
    digests = b"".join([md5(data[a:b]).digest() for a, b in zip(off[:-1], off[1:])])
    h = np.frombuffer(digests, ">i8").reshape(-1, 2)
    return h[:, 0].astype(np.int64), h[:, 1].astype(np.int64)


def paragraph_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n\n",
    n_buckets: int = 64,
    mode: str = "auto",
    broadcast_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Corpus-wide paragraph-level exact dedup (the RefinedWeb /
    MassiveText repetition-removal step): every occurrence of a
    paragraph after its first — across ALL documents, ordered by
    (doc id, position) — is dropped, and each document's surviving
    paragraphs are re-joined by ``sep`` in original order. Returns
    ``(id_col, text_col)``; a document whose every paragraph was seen
    earlier comes back with empty text.

    Splitting is a literal (non-regex) split on ``sep``, as
    ``str.split`` and DuckDB ``string_split`` are; a null or empty
    document is ONE empty paragraph. Positions ``p`` are 1-based, as
    DuckDB list subscripts are, so the SQL twin lines up.

    Ray-Data shape (the family pattern, module doc above), Arrow/numpy
    end to end:

    1. explode to compact ``(id, p, hi, lo)`` rows — text stays
       behind; ``(hi, lo)`` is the paragraph's md5 as two int64 halves
       (the full 128 bits, so no collision handling is needed), and
       the shuffle bucket is ``hi % n_buckets``;
    2. ``groupby(bucket)`` elects the (id, p)-min occurrence per
       distinct paragraph (one ``lexsort`` by (hi, lo, id, p); a row
       loses when its digest equals the previous row's) and emits the
       losers — the all-to-all moves only int64 ids, positions and
       digest halves;
    3. rebuild: the loser table becomes a
       :class:`~web_scraper_ray.ops.keyed.KeyTable` (key = doc id,
       payload = ``p``); the corpus streams in place, each batch looks
       up its own docs' loser positions, drops them by a sorted
       membership test over ``(row's id, p)`` and rejoins each ROW from
       its own kept paragraphs (ops/pieces.py). ``broadcast`` keeps the
       table in the object store (small loser sets); ``sharded`` (what
       ``auto`` picks above ``broadcast_limit``) partitions it by doc
       id over the session's pooled key actors — at web-scale
       repetition rates the loser table is O(total paragraphs), i.e.
       corpus-shaped, and no process holds it. Text never rides a
       shuffle in either; both rebuilds are bit-identical (test_ops).
       Only ``auto`` materializes the loser table to count it; an
       explicit mode hands the lazy election to the table, whose build
       runs the shuffle in the same Ray Data execution — one execution
       fewer.

    First-wins ordering assumes unique ids. Rows that share an id are
    one document to the election, and each losing position ``p`` of
    that id is dropped from every one of its rows; each row is still
    rebuilt from its own paragraphs alone, whatever the batching.

    ``ds`` is consumed twice (hash pass + rebuild pass) — pass a
    re-readable source. Oracle twin: ``para_dedup`` in
    ``__ray_entry__.oracle_sql`` replays the same election with a
    ``row_number() OVER (PARTITION BY v ORDER BY doc_id, p)`` window.
    """

    def explode(batch: pa.Table) -> pa.Table:
        parent, flat = split_pieces(batch[text_col], sep)
        hi, lo = _md5_halves(flat)
        ids = np.asarray(batch[id_col], dtype=np.int64)
        return pa.table({
            id_col: pa.array(ids[parent], pa.int64()),
            "p": pa.array(positions(parent, batch.num_rows), pa.int64()),
            "hi": pa.array(hi, pa.int64()),
            "lo": pa.array(lo, pa.int64()),
            "bucket": pa.array(hi % np.int64(n_buckets), pa.int64())})

    def losers_in_group(g: pa.Table) -> pa.Table:
        ids, p = g[id_col].to_numpy(), g["p"].to_numpy()
        hi, lo = g["hi"].to_numpy(), g["lo"].to_numpy()
        o = np.lexsort((p, ids, lo, hi))
        hi, lo = hi[o], lo[o]
        lose = np.zeros(len(o), dtype=bool)
        lose[1:] = (hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])
        sel = pa.array(o[lose], pa.int64())
        return pa.table({id_col: g[id_col].take(sel), "p": g["p"].take(sel)})

    losers = (
        ds.select_columns([id_col, text_col])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(losers_in_group, batch_format="pyarrow")
    )
    if mode == "auto":
        losers = losers.materialize()
        mode = "broadcast" if losers.count() <= broadcast_limit else "sharded"
    table = KeyTable(losers, id_col, "p", placement=mode,
                     n_shards=max(4, n_buckets // 4), op="paragraph_dedup")

    def rb(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parent, flat = split_pieces(batch[text_col], sep)
        p = positions(parent, n)
        uids, uix = np.unique(np.asarray(batch[id_col], dtype=np.int64),
                              return_inverse=True)
        qi, lp = table.lookup(uids)
        # (id index, p) as one int64: lookup answers sorted by (qi, lp)
        width = max(int(p.max(initial=0)), int(lp.max(initial=0))) + 1
        drop = contains_sorted(qi * width + lp, uix[parent] * width + p)
        return pa.table({id_col: batch[id_col],
                         text_col: join_kept(flat, parent, ~drop, n, sep)})

    return ds.select_columns([id_col, text_col]).map_batches(
        rb, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# shingles + MinHash

import re as _re

_ASCII_WS = _re.compile(r"[ \t\n\r\f\v]+")


def _shingle_hashes(text: str, k: int = 5, hasher: str = "blake2b") -> np.ndarray:
    """Character k-shingle hash set (uint64) of a document.

    ``hasher='blake2b'`` (default): fast 8-byte blake2b, whitespace
    normalized via ``str.split`` — the production path.
    ``hasher='md5'``: md5 upper half with explicit-ASCII whitespace
    normalization — every decision DuckDB can replay exactly
    (``('0x' || substr(md5(g),1,16))::UBIGINT`` over
    ``trim(regexp_replace(text, '[ \\t\\n\\r\\f\\v]+', ' ', 'g'), ' ')``
    substrings), which is what makes the ``minhash_exhaustive`` query
    SQL-oracle-checkable bit for bit (the simhash64 trick)."""
    if hasher == "md5":
        t = _ASCII_WS.sub(" ", text).strip(" ")
        if len(t) < k:
            t = t + " " * (k - len(t))
        views = {t[i : i + k] for i in range(len(t) - k + 1)}
        return np.fromiter(
            (
                int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
                for s in views
            ),
            dtype=np.uint64,
            count=len(views),
        )
    t = " ".join(text.split())  # normalize whitespace
    if len(t) < k:
        t = t + " " * (k - len(t))
    views = {t[i : i + k] for i in range(len(t) - k + 1)}
    out = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")
            for s in views
        ),
        dtype=np.uint64,
        count=len(views),
    )
    return out


def _minhash_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


_P61 = np.uint64(_MERSENNE)
_MASK32 = np.uint64(0xFFFFFFFF)


def _mod61(v: np.ndarray) -> np.ndarray:
    """Exact Mersenne fold of uint64 values into [0, 2^61-1):
    2^61 ≡ 1 (mod p) so v ≡ (v & p) + (v >> 61); one conditional
    subtract finishes (the fold output is < p + 8)."""
    v = (v & _P61) + (v >> np.uint64(61))
    return np.where(v >= _P61, v - _P61, v)


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a*x + b) mod p minwise signature, exact and FULLY vectorized in
    uint64 (no object dtype, no per-permutation Python loop): the
    122-bit product a*x is computed as 32-bit split partials — each
    partial < 2^64 — and reduced with Mersenne folds
    (a·x = hi·2^64 + mid·2^32 + lo; 2^64 ≡ 8, m·2^32 ≡ (m>>29) +
    ((m mod 2^29) << 32) since 2^61 ≡ 1 mod p). Bit-identical to the
    scalar reference ((a*x+b) % p over Python ints)."""
    if len(shingles) == 0:
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    x = _mod61(shingles.astype(np.uint64))[None, :]
    a = a.astype(np.uint64)[:, None]
    b = b.astype(np.uint64)[:, None]
    a_hi, a_lo = a >> np.uint64(32), a & _MASK32
    x_hi, x_lo = x >> np.uint64(32), x & _MASK32
    lo = a_lo * x_lo                    # < 2^64 (fits: (2^32-1)^2)
    mid = a_hi * x_lo + a_lo * x_hi     # < 2^62 (a_hi, x_hi < 2^29)
    hi = a_hi * x_hi                    # < 2^58
    m = _mod61(mid)
    r_mid = _mod61((m >> np.uint64(29)) + ((m & np.uint64((1 << 29) - 1)) << np.uint64(32)))
    total = _mod61(_mod61(lo) + r_mid + _mod61(hi << np.uint64(3)) + b)
    return np.minimum.reduce(total, axis=1).astype(np.uint64)


def _attach_pair_payloads(
    pairs: ray.data.Dataset,
    payloads: ray.data.Dataset,
    id_col: str,
    payload_col: str,
    n_join_buckets: int = 64,
) -> ray.data.Dataset:
    """Attach a per-id payload (signature, embedding, …) to BOTH halves
    of a deduplicated candidate-pair set, payloads crossing the wire
    exactly once, keyed by id bucket. Input: ``pairs`` (id_a, id_b) and
    ``payloads`` (id_col, payload_col). Output: two rows per pair —
    (id_a, id_b, role∈{a,b}, payload) — ready for a pair-bucket verify
    groupby. This is the shuffle-discipline core of the dedup family:
    the wide per-id payload never rides a per-band/per-probe explode,
    only this single join against the (≪ corpus) pair set."""

    def pair_halves(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame(
            {
                "key": pd.Series(
                    np.concatenate([df["id_a"].to_numpy(), df["id_b"].to_numpy()])
                    if n else np.empty(0, dtype=np.int64), dtype="int64"),
                "id_a": pd.Series(np.tile(df["id_a"].to_numpy(), 2)
                                  if n else np.empty(0, dtype=np.int64), dtype="int64"),
                "id_b": pd.Series(np.tile(df["id_b"].to_numpy(), 2)
                                  if n else np.empty(0, dtype=np.int64), dtype="int64"),
                "role": pd.Series(["a"] * n + ["b"] * n, dtype="object"),
                payload_col: pd.Series([None] * (2 * n), dtype="object"),
            }
        )

    def payload_side(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        # plain Python lists, never ndarrays: an object column of
        # ndarrays would be auto-promoted to Ray's TensorArray block
        # type, which cannot concat with the halves' all-None column
        # during the shuffle's sorted merge
        vals = [v.tolist() if hasattr(v, "tolist") else v
                for v in df[payload_col]]
        return pd.DataFrame(
            {
                "key": pd.Series(df[id_col].to_numpy(), dtype="int64"),
                "id_a": pd.Series(np.full(n, -1), dtype="int64"),
                "id_b": pd.Series(np.full(n, -1), dtype="int64"),
                "role": pd.Series(["s"] * n, dtype="object"),
                payload_col: pd.Series(vals, dtype="object"),
            }
        )

    def add_jbucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["jbucket"] = df["key"] % n_join_buckets
        return df

    joined_src = (
        pairs.map_batches(pair_halves, batch_format="pandas")
        .union(payloads.map_batches(payload_side, batch_format="pandas"))
        .map_batches(add_jbucket, batch_format="pandas")
    )

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        srows = g.loc[g["role"] == "s", ["key", payload_col]]
        halves = g.loc[g["role"] != "s", ["key", "id_a", "id_b", "role"]]
        m = halves.merge(srows, on="key", how="inner")
        return m[["id_a", "id_b", "role", payload_col]]

    return joined_src.groupby("jbucket").map_groups(attach, batch_format="pandas")


class MinHasher:
    """Actor-pool stage: permutation params built once per actor."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 5, seed: int = 7,
                 hasher: str = "blake2b"):
        self.a, self.b = _minhash_params(num_perm, seed)
        self.k = shingle_k
        self.num_perm = num_perm
        self.hasher = hasher

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        sigs = [
            minhash_signature(_shingle_hashes(t, self.k, self.hasher),
                              self.a, self.b)
            for t in df["text"].fillna("")
        ]
        out = df.drop(columns=["text"]).copy()
        out["signature"] = [s.tolist() for s in sigs]
        return out


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    jaccard_threshold: float = 0.5,
    concurrency: int = 4,
    star_bucket_threshold: int = 256,
    n_join_buckets: int = 64,
    hasher: str = "blake2b",
    exhaustive: bool = False,
) -> ray.data.Dataset:
    """MinHash + LSH near-dup candidate pairs with exact signature-level
    Jaccard verification. Returns (id_a, id_b, sig_jaccard) with
    id_a < id_b, deduplicated across bands.

    Shuffle discipline (the 100-TB budget): no stage ever ships a
    signature ×bands. The band explode carries only
    (id, band, band_key) — three scalar columns; full signatures cross
    the wire exactly ONCE, in the id-bucketed join that attaches them
    to the (already deduplicated, ≪ corpus) candidate pair set.

      1. signature (actor pool, vectorized uint64 kernel)
      2. slim explode → (id, band, band_key)
      3. groupby (band, band_key) → candidate id pairs (no signatures)
      4. pair dedup groupby (same pair surfaces from multiple bands)
      5. id-bucketed signature join: each pair half picks up its doc's
         signature — signatures move once, total
      6. pair-bucket groupby → exact signature-agreement verification
         (est. Jaccard = fraction of agreeing permutations) → filter

    Skew guard: an LSH bucket larger than ``star_bucket_threshold``
    (boilerplate explosion — at threshold-level similarity one giant
    bucket would emit O(n²) pairs) emits STAR candidates to its min id
    instead of all pairs. For removal/clustering the star keeps every
    member reachable from the representative; pair *listing* recall
    beyond the star relies on the other bands. Sandbox corpora never
    hit the cap, so outputs are unchanged vs the all-pairs reference.

    ``exhaustive=True`` replaces the band explode with ONE global
    bucket (every pair becomes a candidate; the star guard is
    disabled): the signature kernel, dedup, join and verification
    machinery run unchanged, but the output is exactly the all-pairs
    signature-agreement set — which, with ``hasher='md5'``, a SQL
    oracle can replay end to end (the ``similarity_ivf_exhaustive``
    pinning trick applied to minhash). Small-scale only: O(n²)
    candidates.
    """
    rows_per_band = num_perm // bands
    if exhaustive:
        star_bucket_threshold = 1 << 62
    if text_col != "text":
        ds = ds.map_batches(
            lambda df: df.rename(columns={text_col: "text"}), batch_format="pandas"
        )
    # materialize ONCE: the signature stage (shingling + 64-perm modmul,
    # the dominant compute) feeds TWO plan branches — the band explode
    # and the sig_side of the verification join. Ray Data plans are
    # trees, so without pinning, both branches would re-run it over
    # every document. Signatures are compact (num_perm × 8 B per doc),
    # so the pin is cheap and spillable.
    sigs = ds.select_columns([id_col, "text"]).map_batches(
        MinHasher(num_perm, shingle_k, hasher=hasher),
        batch_format="pandas",
        concurrency=concurrency,
    ).materialize()

    def explode_slim(df: pd.DataFrame) -> pd.DataFrame:
        if exhaustive:
            # one global bucket: every doc a member, all pairs candidates
            return pd.DataFrame(
                {id_col: pd.Series(df[id_col].to_numpy(), dtype="int64"),
                 "band": pd.Series(np.zeros(len(df)), dtype="int64"),
                 "band_key": pd.Series(np.zeros(len(df)), dtype="uint64")}
            )
        ids_out, bnds_out, keys_out = [], [], []
        for i, sig in zip(df[id_col].tolist(), df["signature"].tolist()):
            for b in range(bands):
                chunk = tuple(sig[b * rows_per_band : (b + 1) * rows_per_band])
                key = int.from_bytes(
                    hashlib.blake2b(
                        repr((b, chunk)).encode(), digest_size=8
                    ).digest(),
                    "big",
                )
                ids_out.append(i)
                bnds_out.append(b)
                keys_out.append(key)
        return pd.DataFrame(
            {id_col: pd.Series(ids_out, dtype="int64"),
             "band": pd.Series(bnds_out, dtype="int64"),
             "band_key": pd.Series(keys_out, dtype="uint64")}
        )

    exploded = sigs.select_columns([id_col, "signature"]).map_batches(
        explode_slim, batch_format="pandas"
    )

    def add_cbkt(df: pd.DataFrame) -> pd.DataFrame:
        # coarse shuffle key: a (band, band_key) LSH bucket is a
        # function of band_key, so every member lands in one partition
        df = df.copy()
        df["cbkt"] = (df["band_key"] % np.uint64(n_join_buckets)).astype("int64")
        return df

    def cands_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        # one partition holds MANY complete LSH buckets, nearly all
        # singletons — pair generation must therefore be run-detection
        # over a sorted frame (vectorized), never one UDF call per
        # bucket (a per-group map_groups here costs ~0.5 ms × #docs ×
        # bands in pure invocation overhead)
        g = g.sort_values(["band", "band_key", id_col], kind="mergesort")
        g = g.drop_duplicates(subset=["band", "band_key", id_col])
        ids = g[id_col].to_numpy()
        bk = g["band_key"].to_numpy()
        bd = g["band"].to_numpy()
        new_run = np.flatnonzero(
            np.concatenate(([True], (bk[1:] != bk[:-1]) | (bd[1:] != bd[:-1])))
        )
        run_len = np.diff(np.concatenate((new_run, [len(g)])))
        a_parts, b_parts = [], []
        for s, ln in zip(new_run[run_len >= 2], run_len[run_len >= 2]):
            members = ids[s : s + ln]  # sorted, unique within the run
            if ln <= star_bucket_threshold:
                ia, ib = np.triu_indices(ln, 1)
                a_parts.append(members[ia])
                b_parts.append(members[ib])
            else:  # skew guard: star to the bucket's min id
                a_parts.append(np.full(ln - 1, members[0]))
                b_parts.append(members[1:])
        a = np.concatenate(a_parts) if a_parts else np.empty(0, dtype=np.int64)
        b = np.concatenate(b_parts) if b_parts else np.empty(0, dtype=np.int64)
        return pd.DataFrame(
            {"id_a": pd.Series(a, dtype="int64"),
             "id_b": pd.Series(b, dtype="int64")}
        )

    cand = (
        exploded.map_batches(add_cbkt, batch_format="pandas")
        .groupby("cbkt")
        .map_groups(lambda g: cands_in_partition(g.drop(columns=["cbkt"])),
                    batch_format="pandas")
    )

    # same pair can surface from multiple bands → global dedup on pair key
    def pair_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pbucket"] = (df["id_a"] * 1_000_003 + df["id_b"]) % n_join_buckets
        return df

    def dedup_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["id_a", "id_b"], kind="mergesort").drop_duplicates(
            subset=["id_a", "id_b"]
        ).drop(columns=["pbucket"])

    uniq = (
        cand.map_batches(pair_bucket, batch_format="pandas")
        .groupby("pbucket")
        .map_groups(dedup_pairs, batch_format="pandas")
    )

    # --- signature join: sigs move ONCE, keyed by id bucket -------------
    halves_with_sig = _attach_pair_payloads(
        uniq, sigs.select_columns([id_col, "signature"]), id_col,
        "signature", n_join_buckets,
    )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["id_a", "id_b", "role"], kind="mergesort")
        if len(g) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype="int64"),
                 "id_b": pd.Series([], dtype="int64"),
                 "sig_jaccard": pd.Series([], dtype="float64")}
            )
        mat = np.asarray(g["signature"].tolist(), dtype=np.uint64)
        est = np.mean(mat[0::2] == mat[1::2], axis=1)
        keep = est >= jaccard_threshold
        return pd.DataFrame(
            {"id_a": pd.Series(g["id_a"].to_numpy()[0::2][keep], dtype="int64"),
             "id_b": pd.Series(g["id_b"].to_numpy()[0::2][keep], dtype="int64"),
             "sig_jaccard": pd.Series(est[keep], dtype="float64")}
        )

    def pair_bucket2(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["vbucket"] = (df["id_a"] * 1_000_003 + df["id_b"]) % n_join_buckets
        return df

    return (
        halves_with_sig.map_batches(pair_bucket2, batch_format="pandas")
        .groupby("vbucket")
        .map_groups(lambda g: verify(g.drop(columns=["vbucket"])),
                    batch_format="pandas")
    )


@ray.remote
def _components_task(*tables) -> "pa.Table":
    """Union-find over a SMALL pair set in one Ray task (never on the
    driver): the fast path of :func:`components_min_label` below its
    size cutoff, where the iterative loop's per-round shuffle floor
    (~1-2 s × diameter at sandbox scale) dominates the actual work."""
    import pyarrow as pa

    # empty upstream blocks may carry a degenerate no-column schema —
    # keep only real pair blocks, and only the edge columns
    parts = [t.select(["id_a", "id_b"]) for t in tables
             if t.num_rows and "id_a" in t.schema.names]
    df = (pa.concat_tables(parts).to_pandas() if parts
          else pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64")}))
    mapping = cluster_pairs(df)
    # same contract as the iterative path: one row for EVERY node that
    # appears in a pair, roots labeled with themselves
    nodes = np.unique(np.concatenate([
        df["id_a"].to_numpy(dtype=np.int64), df["id_b"].to_numpy(dtype=np.int64)
    ])) if len(df) else np.empty(0, dtype=np.int64)
    return pa.table({
        "node": pa.array(nodes, pa.int64()),
        "label": pa.array([mapping.get(int(n), int(n)) for n in nodes], pa.int64()),
    })


def components_min_label(
    pairs: ray.data.Dataset,
    n_buckets: int = 64,
    max_iters: int = 64,
    small_edge_cutoff: int = 2_000_000,
) -> ray.data.Dataset:
    """Distributed connected components over a pair/edge Dataset
    (id_a, id_b) by iterative min-label propagation — the scale path
    that replaces driver-side union-find. Returns (node, label) for
    every node that appears in a pair; label = the component's min id.

    Each iteration is two bucketed shuffles of (node, label) + edge
    rows — never document text, never the corpus:

      1. groupby(src bucket): every directed edge (u, v) picks up u's
         current label and emits a candidate (v, label_u); current
         labels re-emit themselves;
      2. groupby(node bucket): each node keeps the min of its own and
         all candidate labels.

    Labels are monotonically non-increasing, so the global label sum
    is a strictly decreasing integer until the fixpoint — one cheap
    ``sum()`` per iteration is the convergence test (at extreme id
    ranges swap it for a changed-count aggregate). Rounds ≈ component
    diameter; near-dup graphs (LSH buckets ≈ cliques/stars) converge
    in a handful."""

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        a = df["id_a"].to_numpy()
        b = df["id_b"].to_numpy()
        return pd.DataFrame(
            {"u": pd.Series(np.concatenate([a, b]), dtype="int64"),
             "v": pd.Series(np.concatenate([b, a]), dtype="int64")}
        )

    # pin the pair set ONCE: both the size probe and either components
    # path consume it, and an unpinned Dataset would re-execute the
    # whole upstream LSH pipeline per consumer
    pairs = pairs.materialize()
    n_edges = 2 * pairs.count()
    if n_edges <= small_edge_cutoff:
        # small pair set (the common case — pairs ≪ corpus): one-task
        # union-find beats diameter × per-iteration shuffle floor. The
        # pair blocks stream into the task via object refs; the DRIVER
        # never touches them. The iterative path below is the
        # arbitrarily-large-graph fallback (tested directly with
        # small_edge_cutoff=0).
        ref = _components_task.remote(*pairs.to_arrow_refs())
        return ray.data.from_arrow_refs([ref])
    edges_raw = pairs.map_batches(to_edges, batch_format="pandas").materialize()
    # Partition count must track the EDGE volume, not the upstream
    # pipeline's block count: Ray's groupby makes one reduce partition
    # per input block, and the union below would otherwise compound
    # label + edge block counts every iteration (each tiny shuffle task
    # costs ~100ms of fixed overhead).
    n_buckets = max(4, min(n_buckets, n_edges // 20_000 + 4))

    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        nodes = np.unique(df["u"].to_numpy())
        return pd.DataFrame(
            {"node": pd.Series(nodes, dtype="int64"),
             "label": pd.Series(nodes, dtype="int64")}
        )

    def tag_edge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["kind"] = "e"
        out["bkt"] = out["u"] % n_buckets
        return out

    edges_tagged = (
        edges_raw.map_batches(tag_edge, batch_format="pandas")
        .repartition(n_buckets)
        .materialize()
    )
    # duplicate (node, node) rows across batches are fine: the min
    # combine below collapses them on the first iteration
    labels = (
        edges_raw.map_batches(init_labels, batch_format="pandas")
        .repartition(n_buckets)
        .materialize()
    )
    prev_sum: int | None = None

    for _ in range(max_iters):
        def tag_label(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"u": pd.Series(df["node"].to_numpy(), dtype="int64"),
                 "v": pd.Series(df["label"].to_numpy(), dtype="int64"),
                 "kind": pd.Series(["l"] * len(df), dtype="object"),
                 "bkt": pd.Series(df["node"].to_numpy() % n_buckets, dtype="int64")}
            )

        def push(g: pd.DataFrame) -> pd.DataFrame:
            lab = (g.loc[g["kind"] == "l", ["u", "v"]]
                   .groupby("u", sort=False)["v"].min())
            e = g.loc[g["kind"] == "e", ["u", "v"]]
            cand_v = e["v"].to_numpy()
            cand_lab = lab.reindex(e["u"]).to_numpy()
            # self rows: every labeled node re-emits its current label
            out_node = np.concatenate([cand_v, lab.index.to_numpy()])
            out_lab = np.concatenate([cand_lab, lab.to_numpy()])
            return pd.DataFrame(
                {"node": pd.Series(out_node, dtype="int64"),
                 "label": pd.Series(out_lab, dtype="int64")}
            )

        pushed = (
            labels.map_batches(tag_label, batch_format="pandas")
            .union(edges_tagged)
            .groupby("bkt")
            .map_groups(push, batch_format="pandas")
        )

        def add_nbkt(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["nbkt"] = df["node"] % n_buckets
            return df

        def take_min(g: pd.DataFrame) -> pd.DataFrame:
            m = g.groupby("node", sort=True)["label"].min().reset_index()
            return m.astype({"node": "int64", "label": "int64"})

        labels = (
            pushed.map_batches(add_nbkt, batch_format="pandas")
            .groupby("nbkt")
            .map_groups(lambda g: take_min(g.drop(columns=["nbkt"])),
                        batch_format="pandas")
            .repartition(n_buckets)  # keep block count bounded per iter
            .materialize()
        )
        cur_sum = int(labels.sum("label") or 0)
        if prev_sum is not None and cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        # labels are wrong (some nodes not yet at their component min),
        # and using them would under-deduplicate SILENTLY — refuse.
        # Rounds ≈ component diameter; a graph deeper than max_iters
        # needs a bigger budget, not a wrong answer.
        raise RuntimeError(
            f"components_min_label did not converge in {max_iters} "
            "iterations (component diameter exceeds the budget); "
            "raise max_iters"
        )
    return labels


def cluster_pairs(pairs_df: pd.DataFrame) -> dict[int, int]:
    """Union-find over verified pairs → id → cluster-representative
    (min id). Driver-side SMALL-SCALE twin of
    :func:`components_min_label` (kept for tests/spec parity; the
    engine paths use the distributed version)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs_df["id_a"], pairs_df["id_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    return {x: find(x) for x in list(parent)}


def _best_quality_losers(
    ds: ray.data.Dataset,
    comp: ray.data.Dataset,
    id_col: str,
    score_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Quality-aware drop set: per component, every member EXCEPT the
    (max ``score_col``, then min id) winner. Two slim bucketed
    shuffles, neither moving document text:

      1. attach scores — (node, label) rows and (id, score) rows
         co-locate by ``id % B`` (the subtract_ids/fetch-join pattern);
         the score side is the 2-column corpus slice, the comp side
         only clustered nodes. A member whose score row is missing
         competes as -inf (it can still win an all-missing cluster via
         the min-id tiebreak).
      2. per-component argmax — regroup by ``label % B``; inside each
         partition one vectorized sort (label, score desc, node) +
         drop-first marks the losers.
    """

    def tag_comp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bkt": df["node"].to_numpy() % n_buckets,
            "node": df["node"].astype("int64"),
            "label": df["label"].astype("int64"),
            "score": np.full(len(df), np.nan),
            "side": "c",
        })

    def tag_scores(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "bkt": ids % n_buckets,
            "node": ids,
            "label": np.zeros(len(df), dtype=np.int64),
            "score": df[score_col].to_numpy(dtype=np.float64),
            "side": "s",
        })

    both = comp.map_batches(tag_comp, batch_format="pandas").union(
        ds.select_columns([id_col, score_col])
        .map_batches(tag_scores, batch_format="pandas"))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        c = g.loc[g["side"] == "c", ["node", "label"]]
        if not len(c):
            return pd.DataFrame({"lbkt": pd.Series([], dtype="int64"),
                                 "node": pd.Series([], dtype="int64"),
                                 "label": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float64")})
        s = g.loc[g["side"] == "s", ["node", "score"]]
        m = c.merge(s, on="node", how="left")
        m["score"] = m["score"].fillna(-np.inf)
        m["lbkt"] = m["label"].to_numpy() % n_buckets
        return m[["lbkt", "node", "label", "score"]]

    def losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["label", "score", "node"],
                          ascending=[True, False, True], kind="mergesort")
        return g.loc[g["label"].duplicated(), ["node"]]

    return (both.groupby("bkt").map_groups(attach, batch_format="pandas")
            .groupby("lbkt").map_groups(losers, batch_format="pandas"))


def remove_near_duplicates(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    jaccard_threshold: float = 0.5,
    keep: str = "min_id",
    score_col: str | None = None,
    **minhash_kwargs,
) -> ray.data.Dataset:
    """The composite training-data op: MinHash-LSH pairs → DISTRIBUTED
    min-label components (:func:`components_min_label` — no driver
    union-find, no ``to_pandas`` of the pair set) → keep only each
    cluster's representative plus all unclustered docs. The drop set
    (cluster members minus reps) stays a Dataset end to end and is
    removed via :func:`subtract_ids`: object-store broadcast while it
    is small, sharded key actors once it is corpus-sized (web-scale
    near-dup rates are 30-50%, so at 100 TB the drop set is O(corpus)
    ids — no process may hold it).

    Winner policy (``keep``): ``"min_id"`` (default — deterministic,
    zero extra shuffles) or ``"best"`` — per cluster the max
    ``score_col`` member wins, ties to min id (the "keep the longest /
    highest-quality copy" policy; costs the two slim bucketed shuffles
    of :func:`_best_quality_losers`)."""
    subtract_mode = minhash_kwargs.pop("subtract_mode", "auto")
    if keep not in ("min_id", "best"):
        raise ValueError(f"keep must be 'min_id' or 'best', got {keep!r}")
    if keep == "best" and not score_col:
        raise ValueError("keep='best' requires score_col")
    pairs = minhash_lsh_pairs(ds, id_col=id_col, text_col=text_col,
                              jaccard_threshold=jaccard_threshold,
                              **minhash_kwargs)
    comp = components_min_label(pairs)

    if keep == "best":
        drop = _best_quality_losers(ds, comp, id_col, score_col)
    else:
        def non_reps(df: pd.DataFrame) -> pd.DataFrame:
            return df.loc[df["node"] != df["label"], ["node"]]

        drop = comp.map_batches(non_reps, batch_format="pandas")
    return subtract_ids(ds, drop, id_col=id_col, drop_col="node",
                        mode=subtract_mode)


# ---------------------------------------------------------------------------
# SimHash

def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens. Token hash = first 8
    bytes of md5, big-endian — chosen (over blake2b) because DuckDB can
    reproduce it exactly (``('0x' || substr(md5(w),1,16))::UBIGINT``),
    which is what makes the ``simhash_pairs`` query SQL-oracle-checkable
    bit for bit. Bit accumulation is vectorized: one (n_tokens × 64)
    unpackbits + column sum, no per-bit Python loop."""
    words = text.split()
    if not words:
        return 0
    hs = np.fromiter(
        (int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big") for w in words),
        dtype=np.uint64, count=len(words),
    )
    # byteswap → big-endian bytes; unpackbits rows are then MSB-first,
    # so column i is bit (63 - i) — the same order the packbits below
    # reassembles
    bits = np.unpackbits(hs.byteswap().view(np.uint8).reshape(-1, 8), axis=1)
    acc = (bits.astype(np.int64) * 2 - 1).sum(axis=0)
    return int.from_bytes(np.packbits(acc > 0).tobytes(), "big")


def simhash_batch(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    df = df.copy()
    df["simhash"] = df[text_col].fillna("").map(simhash64).astype("uint64")
    return df


def simhash_near_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    star_bucket_threshold: int = 4096,
) -> ray.data.Dataset:
    """Near-dup pairs by SimHash: band the 64-bit hash into 4×16-bit
    chunks (pigeonhole: hamming ≤ 3 ⇒ at least one identical chunk),
    groupby chunk, verify exact hamming distance in the bucket.

    Skew guard: a chunk bucket larger than ``star_bucket_threshold``
    (one boilerplate text shared by n docs ⇒ all four chunks collide ⇒
    O(n²) pairs per chunk) emits STAR pairs to its min id instead —
    every member stays reachable from the representative for removal/
    clustering, at the cost of non-star pair listing inside the bucket
    (same trade as minhash_lsh_pairs; the default threshold is high
    enough that only pathological buckets hit it, and those are
    hamming-0 cliques where the star loses nothing)."""
    hashed = ds.select_columns([id_col, text_col]).map_batches(
        lambda df: simhash_batch(df, text_col).drop(columns=[text_col]),
        batch_format="pandas",
    )

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids, chunks, keys, hs = [], [], [], []
        for i, h in zip(df[id_col], df["simhash"]):
            h = int(h)
            for c in range(4):
                ids.append(i)
                chunks.append(c)
                keys.append((h >> (16 * c)) & 0xFFFF)
                hs.append(h)
        return pd.DataFrame({id_col: ids, "chunk": chunks, "key": keys, "simhash": hs})

    def add_cbkt(df: pd.DataFrame) -> pd.DataFrame:
        # coarse shuffle key — a (chunk, key) bucket is a function of
        # (chunk, key), so complete buckets co-locate
        df = df.copy()
        df["cbkt"] = ((df["key"].astype("int64") * 4 + df["chunk"]) % 64).astype("int64")
        return df

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        # run-detection over the sorted partition (most (chunk, key)
        # buckets are singletons — per-bucket map_groups calls would
        # dominate; see minhash cands_in_partition)
        g = g.sort_values(["chunk", "key", id_col], kind="mergesort")
        g = g.drop_duplicates(subset=["chunk", "key", id_col])
        ids = g[id_col].to_numpy()
        hs = g["simhash"].to_numpy(dtype=np.uint64)
        ck = g["chunk"].to_numpy()
        ky = g["key"].to_numpy()
        new_run = np.flatnonzero(
            np.concatenate(([True], (ky[1:] != ky[:-1]) | (ck[1:] != ck[:-1])))
        )
        run_len = np.diff(np.concatenate((new_run, [len(g)])))
        a_ids, b_ids, dists = [], [], []
        for s, ln in zip(new_run[run_len >= 2], run_len[run_len >= 2]):
            m_ids, m_hs = ids[s : s + ln], hs[s : s + ln]
            if ln > star_bucket_threshold:
                # skew guard: star to the min id (docstring)
                x = m_hs[0] ^ m_hs[1:]
                d = np.zeros(len(x), dtype=np.int64)
                while x.any():
                    d += (x & np.uint64(1)).astype(np.int64)
                    x >>= np.uint64(1)
                keep = d <= max_hamming
                a_ids.append(np.full(int(keep.sum()), m_ids[0]))
                b_ids.append(m_ids[1:][keep])
                dists.append(d[keep])
                continue
            ia, ib = np.triu_indices(ln, 1)
            x = m_hs[ia] ^ m_hs[ib]
            d = np.zeros(len(x), dtype=np.int64)  # vectorized popcount
            while x.any():
                d += (x & np.uint64(1)).astype(np.int64)
                x >>= np.uint64(1)
            keep = d <= max_hamming
            a_ids.append(m_ids[ia][keep])
            b_ids.append(m_ids[ib][keep])
            dists.append(d[keep])
        a = np.concatenate(a_ids) if a_ids else np.empty(0, dtype=np.int64)
        b = np.concatenate(b_ids) if b_ids else np.empty(0, dtype=np.int64)
        d = np.concatenate(dists) if dists else np.empty(0, dtype=np.int64)
        return pd.DataFrame(
            {"id_a": pd.Series(a, dtype="int64"),
             "id_b": pd.Series(b, dtype="int64"),
             "hamming": pd.Series(d, dtype="int64")}
        )

    cand = (
        hashed.map_batches(explode, batch_format="pandas")
        .map_batches(add_cbkt, batch_format="pandas")
        .groupby("cbkt")
        .map_groups(lambda g: pairs_in_partition(g.drop(columns=["cbkt"])),
                    batch_format="pandas")
    )

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["id_a", "id_b"], kind="mergesort").drop_duplicates(
            subset=["id_a", "id_b"]
        ).drop(columns=["pbucket"])

    def pair_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pbucket"] = (df["id_a"] * 1_000_003 + df["id_b"]) % 64
        return df

    return (
        cand.map_batches(pair_bucket, batch_format="pandas")
        .groupby("pbucket")
        .map_groups(dedup, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact, blocked)

def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    block_col: str = "source",
    k: int = 5,
    threshold: float = 0.4,
) -> ray.data.Dataset:
    """Exact character-k-gram Jaccard similarity for all pairs within a
    blocking key (e.g. same ``source``). The blocking key bounds the
    quadratic comparison; at scale use minhash_lsh_pairs for recall
    beyond blocks."""

    def with_shingles(df: pd.DataFrame) -> pd.DataFrame:
        # raw gram strings, not hashes: this op is the EXACT member of
        # the dedup family (and its DuckDB oracle regenerates the same
        # gram sets with substr()) — hash sets live in minhash/simhash.
        # ASCII whitespace normalization, matching the oracle exactly
        # (DuckDB RE2 \s and trim() are ASCII; Python str.split is
        # Unicode — the explicit class keeps both sides identical on
        # non-ASCII text)
        import re as _re

        _ws = _re.compile(r"[ \t\n\r\f\v]+")

        def grams(t: str) -> list[str]:
            t = _ws.sub(" ", t).strip(" ")
            if len(t) < k:
                t = t + " " * (k - len(t))
            return sorted({t[i : i + k] for i in range(len(t) - k + 1)})

        out = df[[id_col, block_col]].copy()
        out["shingles"] = df[text_col].fillna("").map(grams)
        return out

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # Sparse gram-intersection via chunked BLAS: factorize grams to
        # integer codes, then |A∩B| for every pair at once as M @ M.T
        # over the doc×gram incidence matrix, chunked along the gram
        # axis to bound memory. Counts stay exact: float32 holds
        # integers < 2^24 and per-doc gram counts are far below that.
        g = g.sort_values(id_col, kind="mergesort")
        n = len(g)
        empty = pd.DataFrame(
            {"id_a": pd.Series([], dtype="int64"),
             "id_b": pd.Series([], dtype="int64"),
             "jaccard": pd.Series([], dtype="float64")}
        )
        if n < 2:
            return empty
        shingles = g["shingles"].tolist()
        sizes = np.fromiter((len(s) for s in shingles), dtype=np.int64, count=n)
        doc_idx = np.repeat(np.arange(n), sizes)
        codes, _ = pd.factorize(
            pd.Series([gram for s in shingles for gram in s]), sort=False
        )
        order = np.argsort(codes, kind="stable")
        codes, doc_idx = codes[order], doc_idx[order]
        n_grams = int(codes[-1]) + 1 if len(codes) else 0

        inter = np.zeros((n, n), dtype=np.float32)
        chunk = max(256, (32 << 20) // (4 * n))  # ≤ ~32 MB per slab
        for lo in range(0, n_grams, chunk):
            hi = min(n_grams, lo + chunk)
            s0, s1 = np.searchsorted(codes, [lo, hi])
            slab = np.zeros((n, hi - lo), dtype=np.float32)
            slab[doc_idx[s0:s1], codes[s0:s1] - lo] = 1.0
            inter += slab @ slab.T

        ii, jj = np.triu_indices(n, 1)
        inter_ij = inter[ii, jj].astype(np.int64)
        union_ij = sizes[ii] + sizes[jj] - inter_ij  # grams never empty
        jac = inter_ij / union_ij
        keep = jac >= threshold
        ids = g[id_col].to_numpy()
        return pd.DataFrame(
            {"id_a": pd.Series(ids[ii[keep]], dtype="int64"),
             "id_b": pd.Series(ids[jj[keep]], dtype="int64"),
             "jaccard": pd.Series(jac[keep], dtype="float64")}
        )

    return (
        ds.map_batches(with_shingles, batch_format="pandas")
        .groupby(block_col)
        .map_groups(pairs, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# embedding cosine near-dup

def embedding_dup_pairs(
    ds: ray.data.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    n_planes: int = 8,
    seed: int = 11,
    exact: bool = False,
    multi_probe: bool = True,
    star_bucket_threshold: int = 4096,
) -> ray.data.Dataset:
    """Near-duplicate vectors by cosine ≥ threshold. Blocking: seeded
    random-hyperplane LSH sign-bucket with MULTI-PROBE — each vector is
    emitted into its exact sign bucket plus every Hamming-1 neighbor
    bucket, so any pair whose sign patterns differ in at most one plane
    co-locates (recall at cosine ≈ 1 is ~1 − C(n,2)·(θ/π)²; the
    recall-vs-exact pytest in tests/test_ops.py measures it on planted
    near-dups). Verification: exact float64 cosine; pairs surfacing
    from several probed buckets are globally deduplicated.

    ``exact=True`` disables blocking (every vector in one group): full
    O(n²) comparison — the SQL-oracle-checkable baseline, viable only
    when the vector table is small/sampled.

    Shuffle discipline (the 100-TB budget, same as
    :func:`minhash_lsh_pairs`): the multi-probe explode ships only
    (id, bkt) — two int64 columns — never the vector. Vectors cross
    the wire exactly once, via the id-bucketed
    :func:`_attach_pair_payloads` join against the deduplicated
    candidate pair set, where the exact float64 cosine is verified.
    (A per-probe vector explode would move (n_planes+1)× the vector
    bytes — 9× 8 KB per 1024-dim embedding — through the groupby.)"""

    if exact:
        def one_group(df: pd.DataFrame) -> pd.DataFrame:
            mat = np.stack(df[vec_col].to_numpy()).astype(np.float64)
            out = df[[id_col]].copy()
            out["bkt"] = 0  # one global group; skip the LSH entirely
            out["vec"] = [v.tolist() for v in mat]
            return out

        def pairs(g: pd.DataFrame) -> pd.DataFrame:
            mat = np.stack([np.asarray(v) for v in g["vec"]])
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            unit = mat / norms
            sims = unit @ unit.T
            ids = list(g[id_col])
            a_ids, b_ids, cs = [], [], []
            n = len(ids)
            for i in range(n):
                for j in range(i + 1, n):
                    if sims[i, j] >= threshold:
                        a, b = sorted((ids[i], ids[j]))
                        a_ids.append(a)
                        b_ids.append(b)
                        cs.append(float(sims[i, j]))
            return pd.DataFrame(
                {"id_a": pd.Series(a_ids, dtype="int64"),
                 "id_b": pd.Series(b_ids, dtype="int64"),
                 "cosine": pd.Series(cs, dtype="float64")}
            )

        return (
            ds.select_columns([id_col, vec_col])
            .map_batches(one_group, batch_format="pandas")
            .groupby("bkt")
            .map_groups(pairs, batch_format="pandas")
        )

    vecs = ds.select_columns([id_col, vec_col]).materialize()

    def bucketize_slim(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        dim = mat.shape[1]
        rng = np.random.RandomState(seed)
        planes = rng.standard_normal((dim, n_planes))
        signs = (mat @ planes) >= 0
        # plane k is bit k of the bucket id — supports up to 62 planes
        # (2^n_planes buckets is the scale knob: more planes → smaller
        # buckets → cheaper in-bucket verification, lower recall per
        # probe; multi-probe buys the recall back)
        base = signs @ (np.int64(1) << np.arange(n_planes, dtype=np.int64))
        probes = [base]
        if multi_probe:
            # flipping any single plane probes that Hamming-1 bucket
            probes += [base ^ np.int64(1 << k) for k in range(n_planes)]
        reps = len(probes)
        return pd.DataFrame(
            {id_col: pd.Series(np.tile(df[id_col].to_numpy(), reps)),
             "bkt": pd.Series(np.concatenate(probes), dtype="int64")}
        )

    def cand_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g[id_col].to_numpy(dtype=np.int64))
        n = len(ids)
        if n < 2:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype="int64"),
                 "id_b": pd.Series([], dtype="int64")}
            )
        if n > star_bucket_threshold:
            # skew guard (same trade as minhash_lsh_pairs): a bucket
            # this large would emit O(n²) candidates; star to the min
            # id — members stay reachable from the representative
            return pd.DataFrame(
                {"id_a": pd.Series(np.full(n - 1, ids[0]), dtype="int64"),
                 "id_b": pd.Series(ids[1:], dtype="int64")}
            )
        ia, ib = np.triu_indices(n, 1)
        return pd.DataFrame(
            {"id_a": pd.Series(ids[ia], dtype="int64"),
             "id_b": pd.Series(ids[ib], dtype="int64")}
        )

    cand = (
        vecs.map_batches(bucketize_slim, batch_format="pandas")
        .groupby("bkt")
        .map_groups(cand_pairs, batch_format="pandas")
    )

    # multi-probe: the same pair surfaces from several probed buckets →
    # global dedup on the pair key BEFORE vectors are attached
    def pair_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pbucket"] = (df["id_a"] * 1_000_003 + df["id_b"]) % 16
        return df

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["id_a", "id_b"], kind="mergesort").drop_duplicates(
            subset=["id_a", "id_b"]
        ).drop(columns=["pbucket"])

    uniq = (
        cand.map_batches(pair_bucket, batch_format="pandas")
        .groupby("pbucket")
        .map_groups(dedup, batch_format="pandas")
    )

    halves = _attach_pair_payloads(uniq, vecs, id_col, vec_col, 16)

    def verify_cosine(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["id_a", "id_b", "role"], kind="mergesort")
        if len(g) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype="int64"),
                 "id_b": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        mat = np.asarray([np.asarray(v, dtype=np.float64) for v in g[vec_col]])
        a, b = mat[0::2], mat[1::2]
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        na[na == 0] = 1.0
        nb[nb == 0] = 1.0
        cos = np.einsum("ij,ij->i", a, b) / (na * nb)
        keep = cos >= threshold
        return pd.DataFrame(
            {"id_a": pd.Series(g["id_a"].to_numpy()[0::2][keep], dtype="int64"),
             "id_b": pd.Series(g["id_b"].to_numpy()[0::2][keep], dtype="int64"),
             "cosine": pd.Series(cos[keep], dtype="float64")}
        )

    def vbucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["vbucket"] = (df["id_a"] * 1_000_003 + df["id_b"]) % 16
        return df

    return (
        halves.map_batches(vbucket, batch_format="pandas")
        .groupby("vbucket")
        .map_groups(lambda g: verify_cosine(g.drop(columns=["vbucket"])),
                    batch_format="pandas")
    )
