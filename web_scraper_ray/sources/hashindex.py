"""Hash-sorted corpus layout — read only the row groups a key set
touches instead of scanning the table.

  1. ``build_hash_index`` (once per source, amortized over every later
     read): add ``__key_h`` = the layout's key hash of the key column
     (``vhash.hash64_str`` by default; an int key hashes as its decimal
     string), ONE global ``Dataset.sort(__key_h)`` (the only
     all-to-all, paid once), write parquet with small row groups, then
     read back ONLY THE FOOTERS to
     record each row group's [min_h, max_h] in ``index.parquet``. The
     files are sorted, so the ranges are tight and disjoint: one index
     row per row group (a 10^10-row corpus at 4k rows/group is a
     2.4M-row index table). The layout directory is named by a digest
     of the source signature and published with one ``os.replace``, so
     it never goes stale and concurrent builders never clobber it; the
     build then removes the layouts of older versions of the same
     source (same recorded lineage), so a rewritten corpus leaves one
     layout behind, not one per version.
  2. ``hash_lookup``: hash the wanted keys, fold them into one sorted
     array in the object store (a Ray task — the driver never holds
     the key set), prune the row-group list by binary search, and read
     ONLY the touched row groups — one Ray task per file's touched-run.
     A 64-bit hash match is necessary but not sufficient, so each read
     task re-filters by the EXACT key against the same key set.

Cost model: with key-fraction ``f`` and ``R`` rows per group, a row
group is touched with probability ``1-(1-f)^R ≈ f·R``; at f=1e-6 and
R=4096 a lookup reads ~0.4% of the corpus instead of 100%. The
fragment PLAN (file + row-group runs, not rows) does pass through the
driver — it is bounded by touched row groups, i.e. metadata-, never
row-scale.

The crawl's fetch-join (``crawl/frontier.py:_join_run``) reads a layout
ordered by its crawl key (``key_hash=frontier.crawl_key``: host-hash
prefix, then url-hash bits), and its frontier runs store the same key,
so a row group's [min_h, max_h] compares directly with them and one
host bucket's rows are one contiguous slice. ``hash_lookup`` serves the
``indexed_fetch`` driver query (SQL oracle: a plain WHERE over the same
table) over a default ``hash64_str`` layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from typing import Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..vhash import hash64_str

__all__ = ["build_hash_index", "hash_lookup", "touched_groups"]

#: the layout's key-hash column: the layout's key hash of the key
KEY_H = "__key_h"


def _hash_name(key_hash) -> str:
    return f"{key_hash.__module__}.{key_hash.__qualname__}"


def _src_digest(src_path: str, key_col: str, columns, rows_per_group: int,
                key_hash=hash64_str) -> str:
    """Digest of the layout's source signature: file names, sizes and
    ``mtime_ns``, the key, its hash (by name), the columns and the
    row-group size. An in-place rewrite with same-size files (easy with
    fixed-schema synthetic corpora) changes ``mtime_ns``, so it names a
    new layout instead of serving rows of the old corpus."""
    files = []
    if os.path.isdir(src_path):
        for root, _, fs in os.walk(src_path):
            files += [os.path.join(root, f) for f in fs
                      if f.endswith(".parquet")]
    else:
        files = [src_path]
    sig = ";".join(
        f"{os.path.basename(f)}:{os.path.getsize(f)}:"
        f"{os.stat(f).st_mtime_ns}"
        for f in sorted(files))
    sig = (f"{key_col}:{_hash_name(key_hash)}:{','.join(columns or [])}:"
           f"{rows_per_group}:{sig}")
    return hashlib.blake2b(sig.encode(), digest_size=10).hexdigest()


def _prune_superseded(out_dir: str, layout: str, lineage: dict) -> None:
    """Remove the sibling layouts of ``layout``'s lineage (``lineage.json``:
    source path, key, key hash, columns, rows per group), i.e. older
    versions of the same source. Each goes by one ``os.replace`` to a
    tmp name first, so no reader sees a half-removed layout. A layout of
    another lineage (another key hash of the same pages too), or one
    without a lineage record, stays."""
    for name in os.listdir(out_dir):
        old = os.path.join(out_dir, name)
        if old == layout or name.endswith(".tmp"):
            continue
        try:
            with open(os.path.join(old, "lineage.json")) as f:
                if json.load(f) != lineage:
                    continue
            doomed = f"{old}.{uuid.uuid4().hex}.tmp"
            os.replace(old, doomed)
        except (OSError, ValueError):
            continue  # not a layout of this lineage, or already gone
        shutil.rmtree(doomed, ignore_errors=True)


@ray.remote(num_cpus=0)
def _footer_ranges(path: str) -> pa.Table:
    """Per-row-group [min,max] of the hash column from the parquet
    FOOTER only — no data pages are read."""
    md = pq.ParquetFile(path).metadata
    ci = md.schema.names.index(KEY_H)
    lo, hi, ns = [], [], []
    for g in range(md.num_row_groups):
        st = md.row_group(g).column(ci).statistics
        lo.append(st.min)
        hi.append(st.max)
        ns.append(md.row_group(g).num_rows)
    return pa.table({
        "file": pa.array([os.path.basename(path)] * md.num_row_groups, pa.string()),
        "rg": pa.array(range(md.num_row_groups), pa.int64()),
        "min_h": pa.array(lo, pa.int64()),
        "max_h": pa.array(hi, pa.int64()),
        "n": pa.array(ns, pa.int64()),
    })


def build_hash_index(
    src_path: str,
    key_col: str,
    out_dir: str,
    columns: Optional[list[str]] = None,
    rows_per_group: int = 4096,
    key_hash=hash64_str,
) -> str:
    """Materialize ``src_path`` as a layout sorted by ``key_hash`` of
    ``key_col`` (an array of strings → non-negative int64, named in the
    digest and the lineage) and return its directory, ``out_dir/<digest>``
    (``data/`` sorted parquet + ``index.parquet`` row-group ranges +
    ``lineage.json``). The digest
    names the source signature (:func:`_src_digest`), so an existing
    directory is a complete layout of exactly this source and is reused
    as is: the one-time sort amortizes over every later
    :func:`hash_lookup` and crawl round. A build writes a private tmp
    directory and publishes it with one ``os.replace``; a concurrent
    builder of the same source that publishes first wins, and two
    sources never share a name. After publishing, the build removes the
    layouts it supersedes (:func:`_prune_superseded`)."""
    layout = os.path.join(out_dir, _src_digest(src_path, key_col, columns,
                                               rows_per_group, key_hash))
    if os.path.isdir(layout):
        return layout
    tmp = f"{layout}.{uuid.uuid4().hex}.tmp"
    data_dir = os.path.join(tmp, "data")
    os.makedirs(data_dir)
    try:
        from web_scraper_ray.ops import sized_read_parquet

        def add_hash(t: pa.Table) -> pa.Table:
            return t.append_column(KEY_H, pa.array(key_hash(t[key_col]), pa.int64()))

        (sized_read_parquet(src_path, columns=columns)
           .map_batches(add_hash, batch_format="pyarrow")
           .sort(KEY_H)
           .write_parquet(data_dir, row_group_size=rows_per_group))

        files = sorted(os.path.join(data_dir, f) for f in os.listdir(data_dir)
                       if f.endswith(".parquet"))
        parts = ray.get([_footer_ranges.remote(f) for f in files])
        idx = pa.concat_tables([p for p in parts if p.num_rows])
        pq.write_table(idx.sort_by("min_h"), os.path.join(tmp, "index.parquet"))
        lineage = {"src": os.path.abspath(src_path.rstrip("/")), "key": key_col,
                   "hash": _hash_name(key_hash), "columns": list(columns or []),
                   "rows_per_group": rows_per_group}
        with open(os.path.join(tmp, "lineage.json"), "w") as f:
            json.dump(lineage, f)
        os.replace(tmp, layout)
        _prune_superseded(out_dir, layout, lineage)
    except OSError:
        if not os.path.isdir(layout):
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return layout


def touched_groups(hashes: np.ndarray, min_h: np.ndarray,
                   max_h: np.ndarray) -> np.ndarray:
    """Mask of the row groups ``[min_h, max_h]`` that some of the sorted
    ``hashes`` fall in."""
    return (np.searchsorted(hashes, min_h, side="left")
            < np.searchsorted(hashes, max_h, side="right"))


@ray.remote(num_cpus=0, num_returns=2)
def _fold_keys(*tables):
    """Two object-store returns — (sorted unique int63 hashes, exact
    key array) — so neither the hash set nor the key set ever lands on
    the driver (the plan task and the read tasks deref them in place)."""
    chunks = [ch for t in tables if t.num_rows
              for ch in t.column(0).chunks]
    if not chunks:
        return np.empty(0, dtype=np.int64), pa.array([], pa.string())
    keys = pc.unique(pa.chunked_array(chunks))
    hashes = np.sort(hash64_str(keys))
    return hashes, keys


@ray.remote(num_cpus=0)
def _plan_fragments(index_dir: str, hashes: np.ndarray) -> list[dict]:
    """Prune the row-group index against the sorted hash array and
    merge touched row groups into contiguous runs per file (one read
    task per run)."""
    idx = pq.read_table(os.path.join(index_dir, "index.parquet"))
    idx = idx.sort_by([("file", "ascending"), ("rg", "ascending")])
    files = [os.path.join(index_dir, "data", f)
             for f in idx.column("file").to_pylist()]
    rgs = idx.column("rg").to_numpy()
    touched = touched_groups(hashes, idx.column("min_h").to_numpy(),
                             idx.column("max_h").to_numpy())
    runs: list[dict] = []
    prev_file, prev_rg = None, -2
    for f, g, t in zip(files, rgs, touched):
        if not t:
            continue
        if f == prev_file and g == prev_rg + 1:
            runs[-1]["rgs"].append(int(g))
        else:
            runs.append({"file": f, "rgs": [int(g)]})
        prev_file, prev_rg = f, g
    return runs


def hash_lookup(
    index_dir: str,
    keys: Union[ray.data.Dataset, Sequence],
    key_col: str,
    columns: Optional[list[str]] = None,
) -> ray.data.Dataset:
    """Fetch exactly the rows of the indexed table whose ``key_col``
    is in ``keys`` (a Dataset with that column, or a plain sequence).
    Reads only the row groups whose hash range intersects the key set;
    each read task re-filters by the EXACT key, so hash collisions
    cannot leak foreign rows."""
    if isinstance(keys, ray.data.Dataset):
        refs = keys.select_columns([key_col]).to_arrow_refs()
        hashes_ref, keys_ref = _fold_keys.remote(*refs)
    else:
        hashes_ref, keys_ref = _fold_keys.remote(
            pa.table({key_col: pa.array(list(keys))}))
    # only the fragment PLAN reaches the driver (metadata-scale); the
    # hash/key sets stay in the object store end to end
    runs = ray.get(_plan_fragments.remote(index_dir, hashes_ref))

    data_dir = os.path.join(index_dir, "data")
    schema = None
    for f in sorted(os.listdir(data_dir)):
        if f.endswith(".parquet"):
            schema = pq.read_schema(os.path.join(data_dir, f))
            break
    if schema is None:
        raise FileNotFoundError(f"no data files under {data_dir}")
    out_cols = columns or [n for n in schema.names if n != KEY_H]

    if not runs:
        empty = pa.table({c: pa.array([], schema.field(c).type)
                          for c in out_cols})
        return ray.data.from_arrow(empty)

    def read_run(df: pd.DataFrame) -> pa.Table:
        keys_arr = ray.get(keys_ref)  # zero-copy plasma read
        tabs = []
        for file, rgs in zip(df["file"], df["rgs"]):
            t = pq.ParquetFile(file).read_row_groups(
                list(rgs), columns=list(dict.fromkeys(out_cols + [key_col])))
            mask = pc.is_in(t[key_col].cast(keys_arr.type),
                            value_set=keys_arr)
            tabs.append(t.filter(mask).select(out_cols))
        return pa.concat_tables(tabs)

    return ray.data.from_items(runs).map_batches(
        read_run, batch_format="pandas", batch_size=1)
