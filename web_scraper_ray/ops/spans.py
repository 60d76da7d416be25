"""Cross-document duplicate-span detection — the token-window analog
of suffix-array substring dedup (Lee et al. 2022, "Deduplicating
Training Data Makes Language Models Better"): any window of ``n``
consecutive tokens occurring in MORE THAN ONE document is a duplicated
span, and a document's duplicated-token mass is the size of the union
of its hit windows.

Ray-Data shape (two passes over a re-readable ``ds``, mirroring
``ops/dedup.py:paragraph_dedup``):

  1. DECISION — per-batch vectorized window explode to distinct
     (gram-hash, doc) rows, per-batch partial doc-counts per hash (the
     combiner), then ONE coarse-bucket shuffle (``h % 64``) with the
     per-hash fold vectorized inside each partition (never a direct
     ``groupby(h)`` — see ``_dup_hash_set``); grams held by ≥ 2 docs
     form the dup-hash set. Only 8-byte hashes and counts ride the
     shuffle — never gram text.
  2. APPLY — a pure scan: the dup hashes form a
     :class:`~web_scraper_ray.ops.keyed.KeyTable` key set, and a
     document's windows are all batch-local, so membership
     (``contains``) AND interval-union coverage are computed per batch
     with no further shuffle. ``broadcast`` keeps the set as one sorted
     int64 array in the object store; ``sharded`` (web-scale dup sets,
     what ``auto`` picks above ``broadcast_limit``) spreads it by
     ``h % n_shards`` over the session's pooled key actors so no
     process ever holds it.

Determinism / oracle parity: tokens are ASCII-whitespace runs, grams
single-space joins, hashes md5-upper-half (so equality matches string
equality absent a 2^-64 collision), and every output is an exact
integer — SQL-hash-checkable
(``__ray_entry__.oracle_sql()['dup_spans']``).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

import ray.data

from .keyed import KeyTable

_TOKEN_RE = re.compile(r"[^ \t\n\r\f\v]+")


def _window_table(texts: pd.Series, n: int):
    """Vectorized token-window explode of a batch: returns
    (doc_index, gram_hash int64, pos, doc_token_counts) where ``pos``
    is the 1-based window start within its document (DuckDB list
    subscripts are 1-based, so the SQL twin lines up) and
    ``doc_token_counts[i]`` is doc i's total token count. Gram
    construction is n shifted views of the flat token array joined by
    ``Series.str.cat`` (the ops/decontam.py pattern), with a validity
    mask dropping windows that cross document boundaries."""
    token_lists = [_TOKEN_RE.findall(t) for t in texts.fillna("")]
    lens = np.fromiter((len(t) for t in token_lists), dtype=np.int64,
                       count=len(token_lists))
    total = int(lens.sum())
    empty = (np.array([], dtype=np.int64), np.array([], dtype=np.int64),
             np.array([], dtype=np.int64), lens)
    if total < n:
        return empty
    flat = np.empty(total, dtype=object)
    pos = 0
    for toks in token_lists:
        flat[pos:pos + len(toks)] = toks
        pos += len(toks)
    didx = np.repeat(np.arange(len(token_lists)), lens)
    m = total - n + 1
    head = pd.Series(flat[:m], dtype="object")
    grams = head.str.cat([flat[k:m + k] for k in range(1, n)], sep=" ")
    valid = didx[:m] == didx[n - 1:]
    if not valid.any():
        return empty
    g = grams.to_numpy()[valid]
    d = didx[:m][valid]
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    p = (np.arange(m)[valid] - starts[d]) + 1
    h = np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")
         for s in g),
        dtype=np.uint64, count=len(g),
    ).view(np.int64)
    return d, h, p, lens


def _coverage(p_sorted: np.ndarray, doc_bounds: np.ndarray,
              n: int) -> np.ndarray:
    """Union length of windows [p, p+n-1] per document, vectorized over
    a (doc-major, pos-ascending)-sorted hit array. ``doc_bounds`` is a
    boolean mask marking the LAST hit of each doc; every other hit
    contributes ``min(n, next_p - p)``, the last contributes ``n``."""
    contrib = np.full(len(p_sorted), n, dtype=np.int64)
    if len(p_sorted) > 1:
        gap = p_sorted[1:] - p_sorted[:-1]
        inner = ~doc_bounds[:-1]
        contrib[:-1][inner] = np.minimum(n, gap[inner])
    return contrib


def _dup_hash_set(ds: ray.data.Dataset, n: int, id_col: str,
                  text_col: str, n_agg_buckets: int = 64) -> ray.data.Dataset:
    """Decision pass: Dataset of int64 gram hashes held by >= 2 docs.

    The hash key is HIGH-cardinality (≈ one per distinct window), so
    the shuffle key is a coarse ``h % n_agg_buckets`` bucket and the
    per-hash sum runs VECTORIZED inside each partition — never
    ``groupby(h)`` directly: Ray's per-group machinery on a
    corpus-sized key set costs minutes of pure overhead (measured 146 s
    vs 2 s on 230k distinct hashes; the dedup family's
    cands_in_partition rule)."""

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        d, h, _, _ = _window_table(df[text_col], n)
        if not len(h):
            return pd.DataFrame({"cbkt": pd.Series([], dtype="int64"),
                                 "h": pd.Series([], dtype="int64"),
                                 "nd": pd.Series([], dtype="int64")})
        # a doc's windows are all batch-local → per-batch distinct
        # (h, doc) is globally distinct; size() per h = docs per h
        cnt = (pd.DataFrame({"h": h, "d": d}).drop_duplicates()
               .groupby("h", sort=False).size())
        hh = cnt.index.to_numpy()
        return pd.DataFrame({"cbkt": np.mod(hh, n_agg_buckets),
                             "h": hh,
                             "nd": cnt.to_numpy().astype("int64")})

    def dups_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("h", sort=False)["nd"].sum()
        return pd.DataFrame({"h": tot.index.to_numpy()[
            tot.to_numpy() >= 2].astype("int64")})

    return (ds.select_columns([id_col, text_col])
            .map_batches(partials, batch_format="pandas")
            .groupby("cbkt")
            .map_groups(dups_in_partition, batch_format="pandas"))


def duplicate_span_stats(
    ds: ray.data.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    mode: str = "auto",
    n_buckets: int = 64,
    broadcast_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Per-document duplicated-span table:
    ``(id, n_tokens, n_dup_tokens)`` with ``n_dup_tokens`` the number
    of token positions covered by at least one cross-document duplicate
    ``n``-window. ``ds`` is consumed twice (decision + apply) — pass a
    re-readable source."""
    dup = _dup_hash_set(ds, n, id_col, text_col).materialize()
    if mode == "auto":
        mode = "broadcast" if dup.count() <= broadcast_limit else "sharded"
    table = KeyTable(dup, "h", placement=mode,
                     n_shards=max(4, n_buckets // 4),
                     op="duplicate_span_stats")

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        d, h, p, lens = _window_table(df[text_col], n)
        nd = np.zeros(len(df), dtype=np.int64)
        hit = table.contains(h)
        dh, ph = d[hit], p[hit]
        if len(dh):
            # explode order is already doc-major, pos-ascending
            last = np.ones(len(dh), dtype=bool)
            last[:-1] = dh[:-1] != dh[1:]
            np.add.at(nd, dh, _coverage(ph, last, n))
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             "n_tokens": lens, "n_dup_tokens": nd})

    return ds.select_columns([id_col, text_col]).map_batches(
        stats, batch_format="pandas")


def duplicate_span_filter(
    ds: ray.data.Dataset,
    n: int = 8,
    max_dup_fraction_pct: int = 20,
    id_col: str = "doc_id",
    text_col: str = "text",
    mode: str = "auto",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Drop documents whose duplicated-token mass exceeds
    ``max_dup_fraction_pct`` percent of their tokens (integer
    cross-multiplied predicate — no float ratio). Returns surviving
    rows of ``ds`` with their original schema; the drop set is removed
    via :func:`web_scraper_ray.ops.dedup.subtract_ids` (broadcast /
    sharded regimes, picked by its ``auto``)."""
    from web_scraper_ray.ops.dedup import subtract_ids

    stats = duplicate_span_stats(ds, n=n, id_col=id_col, text_col=text_col,
                                 mode=mode, n_buckets=n_buckets)
    drop = stats.map_batches(
        lambda df: df.loc[
            df["n_dup_tokens"] * 100 > max_dup_fraction_pct * df["n_tokens"],
            [id_col]],
        batch_format="pandas")
    return subtract_ids(ds, drop, id_col=id_col, drop_col=id_col,
                        n_buckets=n_buckets)
