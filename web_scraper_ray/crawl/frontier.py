"""Ray-Data-native URL-frontier + fetch scheduler.

Implements EXACTLY the crawl semantics of the sequential spec in
``model.py`` (see its docstring for the contract), re-expressed as
streaming Dataset rounds (SURVEY.md §3.4, §7.6). An unbudgeted crawl is
ONE Dataset execution, seeds to last round, with ONE all-to-all shuffle
per round:

    seed candidates → host-bucket groupby [admission → run frontier_0/part-{b}]
      → the admitted rows, cut into blocks of about JOIN_ROWS rows
      → map_batches[corpus join of a block → extract_batch (frontier
        meta riding as columns) → in-pipeline output_r parquet write
        (idempotent per-batch files) → link candidates (validity /
        ignore / robots filters)]
      → host-bucket groupby fusing [in-round dedup → seen anti-join
        against the bucket's runs → virtual-time assignment → write of
        the bucket's run frontier_{r+1}/part-{b}]
      → … unrolled up to ``max_depth``

so admission, the fetch, extraction, the output write and discovery of
every round overlap under the streaming executor, and the only barrier
left in a round is its admission shuffle. A round's fetch and extraction
split by admitted rows, never by host or bucket. On a one-CPU cluster
the cut is left out and the join fuses into the admission task, since
no two tasks could run at once. A ``max_pages`` budget can cut a round
only once its size is known, and a live fetch task paces a whole run,
so a budgeted or live crawl's plan ends after each admission: one
execution per round, built by the same builder (:func:`_round_plan`)
with another cut point.

The fusion is legal because every candidate URL of one host lands in
that host's bucket (bucket = f(host), url → host is a function), so
url-dedup, the seen anti-join, and the per-host politeness scan all see
complete groups in a single shuffle. Virtual times for round r+1 are a
pure function of state known at the end of round r (per-host admitted
counts × crawl delay), so they are precomputed into the frontier file —
this is what makes the crawl order independent of physical parallelism
AND keeps the per-round shuffle count at one (SURVEY.md §7 "hard parts"
#2).

Determinism at any parallelism (SURVEY.md §4.2):
* virtual time is a pure function of crawl history, never wall-clock;
* in-round duplicate discovery is resolved by ``min`` over the parent's
  full crawl-order tuple + link index — identical to "first discovery
  in sequential crawl order";
* the crawl order itself is the deterministic sort
  ``(round, vt, priority, pvt, pli, url)`` of the admitted tables — no
  global integer rank is ever materialized (ranks don't distribute;
  the sort key does).

Crawl state lives in the frontier runs, not in actors. Every url has one
crawl key, ``ck = crawl_key(url)``: the top 16 bits of its host's hash,
then url-hash bits. Bucket b is a contiguous range of the 16-bit host
prefix, so it is a contiguous ck range. Frontier k is one run per host
bucket, ``frontier_k/part-{b:05d}.parquet``, sorted by its stored ``ck``,
and a url is seen once it is admitted into a frontier. So the admission
task of bucket b for frontier k reads the bucket's runs of rounds < k
and:
* screens ``seen`` by binary-searching the candidates' keys in each
  run's stored ``ck``, confirming every hit against the stored url
  string (a 64-bit collision never drops a url) — history urls are
  never re-hashed and no set is resident between rounds;
* takes each host's politeness base as its count of admitted rows in
  those runs: all of a fully fetched round, and only the rows up to the
  manifest's ``cutoff`` (last admitted ORDER_KEYS tuple) of a round a
  ``max_pages`` budget truncated;
* writes its own run (tmp file + ``os.replace``, deterministic bytes);
  it reads only earlier runs, so a retried task rewrites the same file.
  Each admission groupby is a barrier: round k+1's tasks start only
  after every run of frontier k is written.

Checkpoint/resume (north rule): every round writes ``output_r`` +
``frontier_{r+1}``. After the execution ends the driver writes an
atomically-renamed ``manifest_r.json`` of scalars only for each round:
row counts from footers, totals, the bucket count, the cutoff, and
``elapsed_s``: the span from frontier r's last write to frontier r+1's
(output r's for the last round). Rounds overlap inside one execution,
so this is not the wall time a round took as its own execution: round
r's first fetches run before frontier r's last run is written, and the
spans of a multi-node cluster come from several clocks. Round r's
admitted rows are frontier r's runs, only those up to the cutoff if a
budget truncated it: no other copy exists. Since each admission groupby
is a barrier, a run in frontier k+2 proves round k complete: resume
folds the manifests of the rounds proven that way, then restarts from
the runs of the first round not proven, after resetting its output dir
and every later frontier, with the recorded bucket count (the
manifests', or ``crawl.json``'s before any manifest exists). Readers
list ``*.parquet`` only, so a stray ``*.tmp`` is inert.

Driver-state discipline (the 10^10-frontier contract): the driver never
materializes a round in one process and holds scalars only — frontier
row counts come from parquet FOOTER METADATA; every Dataset read of
seeds or runs is planned from footers too (row-group slices, no
sampling task for the driver to wait on, ``sources/planned.py``);
budget truncation is a distributed ``sort(ORDER_KEYS).limit(K)`` that
keeps one row per sorted block, the block's last, and a Ray task takes
the cutoff as their maximum, so no task holds the admitted rows; the
frontier's (priority, vt, pvt, pli) ride the fetch as COLUMNS into
discovery (no url→meta dict); per-host politeness bases are read inside
the bucket tasks, and the robots rules are loaded by a Ray task, never
on the driver. The only driver ``ray.get`` is the budget cutoff
(tests/test_keyed.py guards this).

Scale notes (10^10 frontier, SURVEY.md §7):
* The fetch-join is a co-partitioned merge-join (:func:`_join_run`):
  the corpus layout (``sources/hashindex.py``) is sorted by ``ck`` too,
  in small row groups with a footer table of each group's [min, max]
  key, so a join task, given about JOIN_ROWS admitted rows, reads only
  the layout row groups their keys touch, and keeps the corpus rows
  whose url string equals an admitted url. No process holds the
  admitted set and no html shuffles. With ``fetcher_cls``, one paced
  fetch task per run replaces the join (the live deployment shape): a
  run holds all of its hosts' rows of the round, so the task spaces
  each host's fetches by its crawl delay with no shared state.
* Hot hosts serialize only their *ordering*: the bucket task sorts its
  Arrow table by (host, priority, pvt, pli, url) and ranks each host's
  rows from the run starts of the sorted ``host`` column; bases and
  delays are looked up once per distinct host. No block is converted to
  pandas. Admission has one path: every candidate of a host lands in
  its bucket's task, so a host with k candidates costs O(k log k) in
  ONE task and the bound is that task's memory (a host whose seeds span
  many read blocks is checked against the model by
  test_giant_host_spanning_blocks, and its fetch, spread over many join
  tasks, by test_giant_host_fetch). Past that bound, salt
  ``host#chunk`` for queue storage and keep a single budget key.
"""

from __future__ import annotations

import functools
import heapq
import json
import os
import shutil
import time
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..functions.urls import (
    canonicalize_url,
    extract_host,
    is_valid_url,
    matches_ignore_patterns,
)
from ..ops.keyed import lookup_sorted
from ..sources.hashindex import build_hash_index, touched_groups
from ..sources.planned import cluster_cpus, plan_read, planned_read
from ..stages.extract_stage import extract_batch
from ..vhash import hash64_str
from .config import CrawlConfig
from .robots import RobotsRules

CANDIDATE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("priority", pa.int64()),
        ("pvt", pa.float64()),
        ("pli", pa.int64()),
        # winner-key: parent's own ordering tuple (for in-round dedup)
        ("w_pri", pa.int64()),
        ("w_pvt", pa.float64()),
        ("w_pli", pa.int64()),
        ("w_canon", pa.string()),
        ("bucket", pa.int64()),
    ]
)

FRONTIER_SCHEMA = pa.schema(
    [CANDIDATE_SCHEMA.field(n) for n in ["url", "host", "priority", "pvt", "pli"]]
    + [("vt", pa.float64())])
FRONTIER_COLUMNS = FRONTIER_SCHEMA.names
#: a run on disk: the frontier row plus ``ck = crawl_key(url)``, the
#: key the run is sorted by (seen probe and corpus join)
RUN_SCHEMA = FRONTIER_SCHEMA.append(pa.field("ck", pa.int64()))
#: rows per run row group: one fixed size
RUN_GROUP_ROWS = 4096
#: url-hash bits of a crawl key, below its 16-bit host prefix
CK_URL_BITS = 47
#: rows per row group of the corpus layout the fetch-join reads
LAYOUT_GROUP_ROWS = 4096
ORDER_KEYS = ["vt", "priority", "pvt", "pli", "url"]
#: frontier metadata that rides the fetch-join → extraction → discovery
META_COLUMNS = ["priority", "vt", "pvt", "pli"]
#: the admitted rows the corpus join takes (:func:`_join_run`)
JOIN_COLUMNS = ["url", "ck"] + META_COLUMNS
#: admitted rows per corpus-join task: a round's fetch and extraction
#: split by rows, whatever its hosts and buckets
JOIN_ROWS = 256
#: the ``block_rows`` of the crawl's footer-planned reads
#: (``sources/planned.py:plan_read``)
READ_BLOCK_ROWS = 8192


class StaleCheckpointError(RuntimeError):
    """A resumed checkpoint holds a frontier run without the ``ck``
    column: it predates the crawl-key run format and cannot resume."""


def _n_buckets() -> int:
    """Admission shuffle width: ~2 reduce tasks per core, floor 16.
    The bucket VALUE for a url is its range of the 16-bit host prefix of
    ``ck`` (:func:`_candidate_table`) and frontier runs are keyed by it, so
    one crawl keeps one value: it is recorded in ``crawl.json`` and in
    every manifest, and resume reuses the recorded value whatever the
    size of the cluster it resumes on."""
    cpus = cluster_cpus()
    return max(16, 2 * cpus) if cpus else 64


def crawl_key(urls, hosts=None) -> np.ndarray:
    """The crawl key ``ck`` of each url, a non-negative int64: the top 16
    bits of ``hash64_str(extract_host(url))``, then the low CK_URL_BITS
    bits of ``hash64_str(url)``. One key orders the corpus layout (the
    crawl builds it with ``key_hash=crawl_key``), the candidates'
    buckets and the frontier runs, so a url has one ``ck`` everywhere.
    ``hosts``, if given, must be ``extract_host`` of each url (candidate
    and run tables carry that column)."""
    if hosts is None:
        hosts = [extract_host(u) for u in (
            urls.to_pylist() if isinstance(urls, (pa.Array, pa.ChunkedArray)) else urls)]
    prefix = hash64_str(hosts) >> CK_URL_BITS
    return (prefix << CK_URL_BITS) | (hash64_str(urls) & ((1 << CK_URL_BITS) - 1))


class RunSeen:
    """Read-only view of a crawl's URL-seen set: the union of its first
    ``n_runs`` frontiers' runs (a url is seen once it is admitted into
    a frontier). No process holds the set and no actor backs it."""

    def __init__(self, checkpoint_dir: str, n_runs: int):
        self._files = [f for k in range(n_runs)
                       for f in _parquet_files(_frontier_dir(checkpoint_dir, k))]

    def size(self) -> int:
        # frontiers are disjoint (a url is admitted once): footers suffice
        return sum(pq.read_metadata(f).num_rows for f in self._files)

    def snapshot(self) -> set[str]:
        return {u for f in self._files
                for u in pq.read_table(f, columns=["url"])["url"].to_pylist()}

    def shard_handles(self) -> list:
        return []


class CrawlResult:
    def __init__(self, checkpoint_dir: str, rounds: int, n_admitted: int, n_fetched: int,
                 seen: RunSeen):
        self.checkpoint_dir = checkpoint_dir
        self.rounds = rounds
        self.n_admitted = n_admitted
        self.n_fetched = n_fetched
        self.seen = seen


# --------------------------------------------------------------------------
# candidate construction

def _candidate_table(rows: dict, n_buckets: int) -> pa.Table:
    """The candidate rows (:func:`_push_candidate`) as a table. A url's
    bucket is its ``ck``'s range of the 16-bit host prefix, so a bucket
    is one contiguous ck range."""
    ck = crawl_key(rows["url"], rows["host"])
    rows["bucket"] = ((ck >> CK_URL_BITS) * n_buckets) >> 16
    return pa.table({n: pa.array(rows[n], CANDIDATE_SCHEMA.field(n).type)
                     for n in CANDIDATE_SCHEMA.names})


def _new_rows() -> dict:
    return {n: [] for n in CANDIDATE_SCHEMA.names if n != "bucket"}


def _push_candidate(rows: dict, canon: str, priority: int, pvt: float, pli: int,
                    w_pri: int, w_pvt: float, w_pli: int, w_canon: str) -> None:
    rows["url"].append(canon)
    rows["host"].append(extract_host(canon))
    rows["priority"].append(priority)
    rows["pvt"].append(pvt)
    rows["pli"].append(pli)
    rows["w_pri"].append(w_pri)
    rows["w_pvt"].append(w_pvt)
    rows["w_pli"].append(w_pli)
    rows["w_canon"].append(w_canon)


def _read_runs(files: list, columns: list, cutoff: Optional[list]) -> ray.data.Dataset:
    """``columns`` of the frontier runs ``files`` (non-empty), read by
    ``sources/planned.py``. With the ``cutoff`` of a round a budget
    truncated, only its admitted rows, those up to the cutoff, are kept,
    inside the read task (``columns`` must hold ORDER_KEYS)."""
    return planned_read(plan_read(files, READ_BLOCK_ROWS), columns,
                        (lambda t: t) if cutoff is None
                        else (lambda t: t.filter(_le_cutoff(t, cutoff))))


def _seed_candidates(seeds_path: str, robots_ref, config: CrawlConfig,
                     n_buckets: int) -> ray.data.Dataset:
    # READ_BLOCK_ROWS-row blocks: 2 blocks/CPU of a few-MB seed table
    # paid pure dispatch tax (5.7 s -> 1.8 s at 42k seeds, 32 CPUs)
    def to_cands(seeds: pa.Table) -> pa.Table:
        robots: RobotsRules = ray.get(robots_ref)
        pris = (seeds["priority"].to_pylist() if "priority" in seeds.column_names
                else [0] * seeds.num_rows)
        rows = _new_rows()
        for url, sidx, pri in zip(seeds["url"].to_pylist(),
                                  seeds["seed_index"].to_pylist(), pris):
            if not is_valid_url(url):
                continue
            canon = canonicalize_url(url)
            if matches_ignore_patterns(canon, config.ignore_patterns):
                continue
            if config.respect_robots and not robots.is_allowed(canon):
                continue
            _push_candidate(rows, canon, int(pri), -1.0, int(sidx), 0, -1.0, 0, "")
        return _candidate_table(rows, n_buckets)

    files = _parquet_files(seeds_path) if os.path.isdir(seeds_path) else [seeds_path]
    ds = planned_read(plan_read(files, READ_BLOCK_ROWS),
                      ["url", "seed_index", "priority"], to_cands)
    return ds if ds is not None else ray.data.from_arrow(
        _candidate_table(_new_rows(), n_buckets))


def _link_candidates(
    output_ds: ray.data.Dataset, robots_ref, config: CrawlConfig, n_buckets: int
) -> ray.data.Dataset:
    """Fetched round output → next-round candidate rows (discovery).
    Parent ordering metadata arrives as COLUMNS on the slim output
    (META_COLUMNS) — no url→meta broadcast dict exists."""

    def expand(batch: pa.Table) -> pa.Table:
        robots: RobotsRules = ray.get(robots_ref)
        rows = _new_rows()
        for url, links, p_pri, p_vt, p_pvt, p_pli in zip(
            batch["url"].to_pylist(),
            batch["links"].to_pylist(),
            batch["priority"].to_pylist(),
            batch["vt"].to_pylist(),
            batch["pvt"].to_pylist(),
            batch["pli"].to_pylist(),
        ):
            for li, link in enumerate(links or ()):
                if not is_valid_url(link):
                    continue
                canon = canonicalize_url(link)
                if matches_ignore_patterns(canon, config.ignore_patterns):
                    continue
                if config.respect_robots and not robots.is_allowed(canon):
                    continue
                _push_candidate(rows, canon, p_pri, p_vt, li, p_pri, p_pvt, p_pli, url)
        return _candidate_table(rows, n_buckets)

    return output_ds.map_batches(expand, batch_format="pyarrow")


# --------------------------------------------------------------------------
# the fused per-bucket admission stage

#: the in-round dedup winner ordering (_admit_bucket step 1): for one
#: url, "first discovery in sequential crawl order" = min of this key
_DEDUP_SORT = ["url", "pvt", "w_pri", "w_pvt", "w_pli", "w_canon", "pli"]


def _run_heads(col: pa.ChunkedArray) -> np.ndarray:
    """Mask of the first row of each run of equal values in ``col``:
    one ``pc.not_equal`` of the column against itself shifted by one."""
    n = len(col)
    heads = np.ones(n, dtype=bool)
    if n > 1:
        heads[1:] = pc.not_equal(col.slice(1), col.slice(0, n - 1)).to_numpy()
    return heads


def _precombine(t: pa.Table) -> pa.Table:
    """Keep only each url's min-``_DEDUP_SORT`` row: a stable
    ``Table.sort_by`` puts each url's rows in one run, winner first, and
    the run heads are kept (:func:`_run_heads`). Runs per batch BEFORE
    the admission shuffle as a combiner, and again in each bucket task
    across batches (correct because min is associative — the batch
    winner is the only row of its batch that can be the global winner).
    Cuts shuffle rows by the in-batch dup factor (links repeat heavily
    within a page neighborhood)."""
    t = t.sort_by([(c, "ascending") for c in _DEDUP_SORT])
    return t.filter(_run_heads(t["url"]))


def _frontier_dir(ckpt: str, k: int) -> str:
    return os.path.join(ckpt, f"frontier_{k:04d}")


def _run_path(ckpt: str, k: int, b: int) -> str:
    return os.path.join(_frontier_dir(ckpt, k), f"part-{b:05d}.parquet")


def _le_cutoff(t: pa.Table, cut: list) -> np.ndarray:
    """Rows of ``t`` whose ORDER_KEYS tuple is <= ``cut``."""
    le = np.zeros(t.num_rows, dtype=bool)
    eq = np.ones(t.num_rows, dtype=bool)
    for c, v in zip(ORDER_KEYS, cut):
        col = t[c].to_numpy()
        le |= eq & (col < v)
        eq &= col == v
    return le | eq


def _probe_runs(urls: pa.ChunkedArray, runs: list, cutoffs: dict,
                hosts=None) -> tuple[np.ndarray, dict]:
    """``(seen mask of the candidate urls, admitted rows per host)`` over
    their bucket's ``(round, path)`` runs (``hosts``: the candidates'
    host column, see :func:`crawl_key`). Each run is sorted by its
    stored ``ck``: the candidates are keyed once and binary-searched in
    every run, and each hit is confirmed against the stored url string
    (a 64-bit collision never drops a url). History urls are never
    re-hashed, and a run's url strings are read only if it has a hit.
    Every row is seen; a row counts toward its host's politeness base
    only if it was admitted, i.e. up to the cutoff of a round a budget
    truncated (``cutoffs``: round → ORDER_KEYS tuple)."""
    q = crawl_key(urls, hosts)
    dup = np.zeros(len(urls), dtype=bool)
    counted = []
    for k, path in runs:
        if not os.path.exists(path):
            continue  # the bucket had no admitted url that round
        cut = cutoffs.get(k)
        with pq.ParquetFile(path) as pf:  # one file: skip dataset discovery
            t = pf.read(columns=["ck", "host"] + (ORDER_KEYS if cut else []))
            ck = t["ck"].to_numpy()
            qi, pos = lookup_sorted(ck, np.arange(len(ck)), q)
            if len(qi):
                hist = (t if cut else pf.read(columns=["url"]))["url"].take(pos)
                dup[qi[pc.equal(hist, urls.take(qi)).to_numpy()]] = True
        counted.append(t["host"] if cut is None else t["host"].filter(_le_cutoff(t, cut)))
    # the runs' chunks, not the ChunkedArrays: pa.chunked_array converts
    # anything that is not an Array through Python objects, per value
    chunks = [c for h in counted for c in h.chunks]
    counts = pc.value_counts(pa.chunked_array(chunks, pa.string()))
    return dup, dict(zip(counts.field("values").to_pylist(),
                         counts.field("counts").to_pylist()))


def _write_run(t: pa.Table, ckpt: str, k: int, b: int) -> pa.Table:
    """Write bucket ``b``'s rows of frontier ``k`` (FRONTIER_COLUMNS) as
    its run: with ``ck = crawl_key(url)``, sorted by ``(ck, url)`` so the
    bytes are deterministic, in row groups of RUN_GROUP_ROWS; tmp file +
    ``os.replace`` so a reader never sees a partial run. Returns the
    run's JOIN_COLUMNS in its order (no run is written for no row)."""
    if not t.num_rows:
        return RUN_SCHEMA.empty_table().select(JOIN_COLUMNS)
    t = t.append_column("ck", pa.array(crawl_key(t["url"], t["host"]), pa.int64()))
    t = t.sort_by([("ck", "ascending"), ("url", "ascending")])
    path = _run_path(ckpt, k, b)
    tmp = f"{path}.{os.getpid()}.tmp"
    pq.write_table(t.select(RUN_SCHEMA.names).cast(RUN_SCHEMA), tmp,
                   row_group_size=RUN_GROUP_ROWS)
    os.replace(tmp, path)
    return t.select(JOIN_COLUMNS)


def _apply_url_gate(cands: ray.data.Dataset,
                    gate_kwargs: dict) -> ray.data.Dataset:
    """CrawlConfig.url_gate: one stateless vectorized verdict pass
    (ops/urlgate.py) over the CANDIDATE stream — before the admission
    shuffle, the seen set, and the fetch, so a dropped url costs one
    string scan and nothing downstream (the RefinedWeb pre-fetch
    position, the highest-leverage place to filter). Candidate columns
    ride through unchanged; only the keep mask is applied."""
    from ..ops.urlgate import url_gate_frame

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        verdict = url_gate_frame(df[["url"]].copy(), **gate_kwargs)
        return df.loc[verdict["kept"].to_numpy() == 1]

    return cands.map_batches(gate, batch_format="pandas")


def _admit_bucket(g: pa.Table, ckpt: str, k: int, cutoffs: dict,
                  robots: RobotsRules) -> pa.Table:
    """One host bucket's admission into frontier ``k`` (``g``: all of the
    round's candidates in the bucket): in-round dedup, the seen anti-join
    against the bucket's runs of rounds < ``k``, per-host virtual times
    and the write of the bucket's run, whose admitted rows it returns
    (:func:`_write_run`)."""
    b = g["bucket"][0].as_py()
    # 1. in-round dedup: min winner key per url == first discovery in
    #    sequential crawl order (model.py step 4)
    g = _precombine(g)

    # 2. seen anti-join: the bucket's earlier runs hold every seen url
    #    of its hosts (bucket = f(host)); see _probe_runs
    dup, admitted = _probe_runs(
        g["url"], [(j, _run_path(ckpt, j, b)) for j in range(k)], cutoffs, g["host"])
    g = g.filter(~dup)

    # 3. politeness: k-th candidate of host (ordered by priority, pvt,
    #    pli, url) gets vt = (base + k) * delay (model.py step 1), base =
    #    the host's admitted rows in the same runs
    g = g.sort_by([(c, "ascending") for c in ("host", "priority", "pvt", "pli", "url")])
    starts = np.flatnonzero(_run_heads(g["host"]))
    sizes = np.diff(np.append(starts, g.num_rows))
    hosts = g["host"].take(starts).to_pylist()
    rank = np.arange(g.num_rows) - np.repeat(starts, sizes)
    base = np.repeat(np.array([admitted.get(h, 0) for h in hosts], np.int64), sizes)
    delay = np.repeat(np.array([robots.delay_ms(h) for h in hosts], np.int64), sizes)
    vt = ((base + rank) * delay).astype(float)
    return _write_run(g.select(["url", "host", "priority", "pvt", "pli"])
                      .append_column("vt", pa.array(vt, pa.float64())), ckpt, k, b)


def _admit(cands: ray.data.Dataset, ckpt: str, k: int, cutoffs: dict,
           robots_ref, config: CrawlConfig) -> ray.data.Dataset:
    """Admit candidates into frontier ``k``'s runs in ONE shuffle: a
    host-bucket groupby whose task is :func:`_admit_bucket` (see module
    doc); yields the admitted rows of each run written (JOIN_COLUMNS, in
    ``ck`` order). The optional URL pre-fetch gate runs first — both
    discovery sites (seeds, link expansion) feed through here, so the
    gate screens every candidate exactly once."""
    if config.url_gate is not None:
        cands = _apply_url_gate(cands, config.url_gate)
    cands = cands.map_batches(_precombine, batch_format="pyarrow")

    def bucket_admit(g: pa.Table) -> pa.Table:
        return _admit_bucket(g, ckpt, k, cutoffs, ray.get(robots_ref))

    return cands.groupby("bucket").map_groups(bucket_admit, batch_format="pyarrow")


@ray.remote(num_cpus=0)
def _load_robots(robots_path: Optional[str], default_delay_ms: int) -> RobotsRules:
    """The crawl's robots rules, loaded by a Ray TASK into the object
    store: the driver holds only the reference, never the per-host
    table."""
    if robots_path:
        return RobotsRules.from_parquet(robots_path, default_delay_ms)
    return RobotsRules.empty(default_delay_ms)


@ray.remote(num_cpus=0)
def _budget_cutoff(*lasts: pa.Table) -> list:
    """ORDER_KEYS tuple of the last row a budget admitted: the maximum
    of the last rows of the sorted, limited blocks (:func:`_budget_cut`;
    url makes ORDER_KEYS a total order)."""
    t = pa.concat_tables([t for t in lasts if t.num_rows])
    t = t.sort_by([(c, "descending") for c in ORDER_KEYS])
    return [t[c][0].as_py() for c in ORDER_KEYS]


def _budget_cut(runs: list, k: int) -> list:
    """Cutoff of a round a budget of ``k`` pages truncates: the k-th
    smallest ORDER_KEYS tuple of its runs. A DISTRIBUTED
    ``sort(ORDER_KEYS).limit(k)`` keeps only the last row of each sorted
    block, and :func:`_budget_cutoff` takes their maximum: no task holds
    the admitted rows and nothing is written (the round's admitted rows
    are its runs' rows up to the cutoff)."""
    lasts = (_read_runs(runs, ORDER_KEYS, None).sort(ORDER_KEYS).limit(k)
             .map_batches(lambda t: t.slice(max(t.num_rows - 1, 0)),
                          batch_format="pyarrow", batch_size=None)
             .to_arrow_refs())
    return ray.get(_budget_cutoff.remote(*lasts))


# --------------------------------------------------------------------------
# fetch + extract

@functools.lru_cache(maxsize=4)
def _layout_groups(layout: str) -> tuple:
    """A layout's footer table in key order, read once per process (a
    layout directory never changes: it is named by its source's
    digest): ``(file names, file code, row group, min_h, max_h)`` per
    row group, both bounds non-decreasing (the groups of one global
    sort)."""
    idx = pq.read_table(os.path.join(layout, "index.parquet"))
    names, code = np.unique(idx["file"].to_numpy(zero_copy_only=False), return_inverse=True)
    return (names.tolist(), code, idx["rg"].to_numpy(), idx["min_h"].to_numpy(),
            idx["max_h"].to_numpy())


def _join_run(layout: str, adm: pa.Table):
    """The corpus fetch of admitted frontier rows (``adm``: JOIN_COLUMNS,
    a slice of one round's runs): yields the corpus rows of their urls
    with META_COLUMNS attached, one table per layout file read. The runs
    and the layout are both sorted by ``ck``, so the rows' [min, max] ck
    is one window of the layout's row groups (:func:`_layout_groups`),
    and only the groups in it that some admitted ``ck`` touches are
    read. A corpus row is kept only if its url string equals an
    admitted url, so a key collision cannot leak a row."""
    if not adm.num_rows:
        return
    ck = np.sort(adm["ck"].to_numpy())
    names, code, rg, min_h, max_h = _layout_groups(layout)
    lo, hi = np.searchsorted(max_h, ck[0]), np.searchsorted(min_h, ck[-1], "right")
    sel = lo + np.flatnonzero(touched_groups(ck, min_h[lo:hi], max_h[lo:hi]))
    for f in np.unique(code[sel]):
        t = pq.ParquetFile(os.path.join(layout, "data", names[f])).read_row_groups(
            np.sort(rg[sel][code[sel] == f]).tolist(), columns=["url", "html"])
        pos = pc.index_in(t["url"], value_set=adm["url"])
        keep = pc.is_valid(pos)
        meta = adm.take(pc.filter(pos, keep))
        t = t.filter(keep)
        yield pa.table({"url": t["url"], "html": t["html"],
                        **{c: meta[c] for c in META_COLUMNS}})


def _batch_name(urls: pa.ChunkedArray) -> str:
    """Content-derived file stem of one batch: a retried task writes
    the same name and overwrites instead of duplicating."""
    import hashlib

    key = f"{urls[0].as_py()}|{urls[len(urls) - 1].as_py()}|{len(urls)}"
    return hashlib.blake2b(key.encode(), digest_size=8).hexdigest()


def _record_lost(out: pa.Table, errors_dir: Optional[str]) -> pa.Array:
    """Mask of a live fetch batch's fetched rows. The others (error /
    miss) must not vanish: their urls are already seen (admission-time),
    so a dropped transient failure would be a PERMANENT silent page
    loss. They go to ``errors_dir`` as one content-named file per batch;
    a re-crawl/requeue policy reads errors_* instead of guessing."""
    keep = pc.equal(out["status"], "fetched")
    lost = out.filter(pc.invert(keep))
    if errors_dir and lost.num_rows:
        os.makedirs(errors_dir, exist_ok=True)
        pq.write_table(lost.select(["url", "status", "error"]),
                       os.path.join(errors_dir, f"err-{_batch_name(lost['url'])}.parquet"))
    return keep


class _PacedFetcher:
    """Live fetch of a round, one frontier run per call: run_crawl's
    ``fetcher_cls`` (``inner_cls`` here, built from ``inner_kwargs``)
    in place of the corpus join. Run b holds every admitted row of
    every host in bucket b, so this task alone paces those hosts, and
    no process shares per-host state.

    A host's rows go in vt order. Its k-th row has ``vt − vt_first_h =
    k × delay_h``: the frontier's own schedule. The task holds it
    against the clock: the first row is due ``delay_h`` after the
    task's start, and each next row ``delay_h`` after the fetch call
    that took the one before returned. So a late call delays only its
    own hosts and never bursts one. Each loop fetches the due row of
    every host in one inner call and yields the fetched rows with
    META_COLUMNS (every fetcher contract is 1:1 and order-preserving);
    the rest go to ``errors_dir`` (:func:`_record_lost`). Then it
    sleeps until the next due time. A round's execution starts only
    after the previous round's has ended, so the first ``delay_h``
    keeps the spacing across rounds.

    ``load_robots()`` returns the crawl's robots rules; it runs here, in
    the fetch actor. ``clock`` (``now()``, ``sleep(dt)``; default
    ``time.monotonic``/``time.sleep``) is the test seam."""

    def __init__(self, inner_cls, load_robots, cutoff: Optional[list] = None,
                 errors_dir: Optional[str] = None, clock=None, **inner_kwargs):
        self.inner = inner_cls(**inner_kwargs)
        self.robots: RobotsRules = load_robots()
        self.cutoff = cutoff
        self.errors_dir = errors_dir
        self.now, self.sleep = ((clock.now, clock.sleep) if clock is not None
                                else (time.monotonic, time.sleep))

    def __call__(self, batch: pa.Table):
        for path in batch["file"].to_pylist():
            yield from self._fetch_run(path)

    def _fetch_run(self, path: str):
        t = pq.read_table(path, columns=["url", "host"] + META_COLUMNS)
        if self.cutoff is not None:  # a budget admitted only the rows up to it
            t = t.filter(_le_cutoff(t, self.cutoff))
        t = t.sort_by([(c, "ascending") for c in ["host"] + ORDER_KEYS])
        starts = np.flatnonzero(_run_heads(t["host"]))
        ends = np.append(starts[1:], t.num_rows)
        delays = [self.robots.delay_ms(h) / 1000.0
                  for h in t["host"].take(starts).to_pylist()]
        nxt = starts.tolist()
        t0 = self.now()
        due = [(t0 + d, i) for i, d in enumerate(delays)]  # (due time, host)
        heapq.heapify(due)
        while due:
            now = self.now()
            if due[0][0] > now:
                # floor the wait: a clock that sleeps exactly the
                # difference can land an ulp short of the due time
                self.sleep(max(due[0][0] - now, 1e-6))
                continue
            ready = []
            while due and due[0][0] <= now:
                ready.append(heapq.heappop(due)[1])
            rows = t.take([nxt[i] for i in ready])
            out = self.inner(rows.select(["url"]))
            keep = _record_lost(out, self.errors_dir)
            end = self.now()
            for i in ready:
                nxt[i] += 1
                if nxt[i] < ends[i]:
                    heapq.heappush(due, (end + delays[i], i))
            yield pa.table({"url": out["url"], "html": out["html"],
                            **{c: rows[c] for c in META_COLUMNS}}).filter(keep)


def _live_fetch(runs: list, cutoff: Optional[list], robots_ref,
                config: CrawlConfig, fetcher_cls, fetcher_kwargs: Optional[dict],
                errors_dir: str) -> ray.data.Dataset:
    """Live fetch path (run_crawl's ``fetcher_cls``, no corpus join):
    one :class:`_PacedFetcher` task per frontier run, at most
    ``config.fetch_concurrency`` at once, no more actors than runs, and
    no CPU reserved for them. With ``CorpusFetcher`` this equals the
    corpus join byte for byte (test_live_fetch_mode_parity); with
    ``HttpFetcher`` it is the real deployment
    (tests/test_live_http.py)."""
    return ray.data.from_items(
        [{"file": f} for f in runs], override_num_blocks=len(runs)
    ).map_batches(
        _PacedFetcher,
        batch_size=1,
        batch_format="pyarrow",
        concurrency=min(config.fetch_concurrency, len(runs)),
        # a paced task waits on the clock or the network: a CPU held by
        # it would keep extraction from overlapping the fetch, and a
        # finished pool's actor lives on until the driver's cyclic GC
        # frees its handle (extraction was seen waiting 15-20 s for it)
        num_cpus=0,
        fn_constructor_kwargs=dict(
            inner_cls=fetcher_cls, load_robots=lambda: ray.get(robots_ref),
            cutoff=cutoff, errors_dir=errors_dir, **(fetcher_kwargs or {}),
        ),
    )


def _extract_with_meta(batch: pa.Table) -> pa.Table:
    """Extraction kernel with the frontier metadata columns riding
    through (extract_batch is 1:1 and order-preserving)."""
    out = extract_batch(batch)
    for c in META_COLUMNS:
        out = out.append_column(c, batch[c])
    return out


def _fetch_and_extract(
    adm: Optional[ray.data.Dataset], ckpt: str, round_no: int, layout: Optional[str],
    cutoff: Optional[list], robots_ref, config: CrawlConfig,
    fetcher_cls=None, fetcher_kwargs: Optional[dict] = None,
) -> ray.data.Dataset:
    """Fetch the admitted urls of frontier ``round_no``, then run the
    extraction kernel.

    Without ``fetcher_cls`` the pages come from the corpus: ``adm``
    yields the round's admitted rows (JOIN_COLUMNS), which Ray Data cuts
    into blocks of at most about 1.5 × JOIN_ROWS rows on a cluster of
    more than one CPU, and one task per block joins them with the corpus
    ``layout`` of ``sources/hashindex.py``, sorted by the same ``ck``
    (:func:`_join_run`). So a round's fetch and extraction split by
    admitted rows, never by host: a giant host's pages spread over many
    tasks. With ``fetcher_cls`` there is no
    corpus join: one paced fetch task per run of frontier ``round_no``
    (all written: a live plan is one round) fetches its admitted rows,
    up to ``cutoff`` if a budget truncated the round, each host's spaced
    by its robots crawl delay (:func:`_live_fetch`, the live deployment
    shape).

    Either way the frontier's ordering metadata (META_COLUMNS) rides the
    fetched rows as columns, so extraction and discovery need no
    side-channel lookup. The round output parquet is written INSIDE the
    pipeline (one file per extracted batch, content-derived idempotent
    names, so task retries overwrite rather than duplicate) and only the
    slim ``(url, links, META_COLUMNS)`` table flows on to the discovery
    stages, with fetch, extraction, the write and discovery all
    overlapped by the streaming executor."""
    odir = os.path.join(ckpt, f"output_{round_no:04d}")
    _reset_dir(odir)  # crashed-attempt leftovers
    if fetcher_cls is None:
        def join(batch: pa.Table):
            yield from _join_run(layout, batch)

        if cluster_cpus() > 1:
            # JOIN_ROWS-row blocks, one join task each. On one CPU no
            # two tasks run at once, so the join fuses into the task that
            # admitted or read its rows instead: the split's two operator
            # boundaries cost about 30 ms a round there
            adm = adm.repartition(target_num_rows_per_block=JOIN_ROWS)
        fetched = adm.map_batches(join, batch_format="pyarrow", batch_size=None)
    else:
        fetched = _live_fetch(_parquet_files(_frontier_dir(ckpt, round_no)), cutoff,
                              robots_ref, config, fetcher_cls, fetcher_kwargs,
                              os.path.join(odir, "errors"))
    extracted = fetched.map_batches(_extract_with_meta, batch_format="pyarrow",
                                    batch_size=256)
    return _write_and_slim_stage(extracted, round_no, odir)


def _write_and_slim_stage(extracted: ray.data.Dataset, round_no: int,
                          odir: str) -> ray.data.Dataset:
    """In-pipeline round-output write: one idempotent content-named
    parquet file per extracted batch, then only the slim
    (url, links, META_COLUMNS) table flows on to discovery."""
    slim_cols = ["url", "links"] + META_COLUMNS
    from ..stages.extract_stage import EXTRACT_SCHEMA

    full_cols = list(EXTRACT_SCHEMA.names) + ["vt"]

    def write_and_slim(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "url": pa.array([], pa.string()),
                "links": pa.array([], pa.list_(pa.string())),
                "priority": pa.array([], pa.int64()),
                "vt": pa.array([], pa.float64()),
                "pvt": pa.array([], pa.float64()),
                "pli": pa.array([], pa.int64()),
            })
        full = batch.select(full_cols).append_column(
            "depth", pa.array([round_no] * batch.num_rows, pa.int64())
        )
        pq.write_table(full, os.path.join(odir, f"part-{_batch_name(batch['url'])}.parquet"))
        return batch.select(slim_cols)

    # batch_size=JOIN_ROWS: the join, extraction, this write and
    # discovery fuse into one task, which Ray Data gives input bundles
    # of at least the largest batch size of its stages; a larger write
    # batch would bundle several join blocks back into one task (2048
    # did: each round's fetch and extraction ran as ONE task, whatever
    # the cluster)
    return extracted.map_batches(write_and_slim, batch_format="pyarrow",
                                 batch_size=JOIN_ROWS)


# --------------------------------------------------------------------------
# checkpoint helpers

def _manifest_path(ckpt: str, r: int) -> str:
    return os.path.join(ckpt, f"manifest_{r:04d}.json")


def _read_manifest(ckpt: str, r: int) -> dict:
    with open(_manifest_path(ckpt, r)) as f:
        return json.load(f)


def _write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    os.replace(tmp, path)  # atomic: a reader sees all of it or nothing


def _record_path(ckpt: str) -> str:
    """``crawl.json``: the crawl's bucket count, written before its first
    execution, so a resume that finds no manifest still reuses it."""
    return os.path.join(ckpt, "crawl.json")


def _complete_rounds(ckpt: str) -> list[int]:
    rounds = []
    r = 0
    while os.path.exists(_manifest_path(ckpt, r)):
        rounds.append(r)
        r += 1
    return rounds


def _reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)


def _parquet_files(path: str) -> list[str]:
    """The ``*.parquet`` files of a directory — never a writer's tmp."""
    if not os.path.isdir(path):
        return []
    return [os.path.join(path, f) for f in sorted(os.listdir(path))
            if f.endswith(".parquet")]


def _dir_num_rows(path: str) -> int:
    """Row count from parquet FOOTER metadata only — no data is read,
    no table is materialized (the 10^10-frontier discipline)."""
    return sum(pq.read_metadata(f).num_rows for f in _parquet_files(path))


def _last_write(path: str) -> Optional[float]:
    """Latest write time of a directory's ``*.parquet`` files."""
    return max((os.stat(f).st_mtime for f in _parquet_files(path)), default=None)


def crawl_order_ds(checkpoint_dir: str) -> "ray.data.Dataset":
    """The crawl ordering as a (distributed) Dataset: each complete
    round's admitted rows (its frontier runs, up to the manifest's
    cutoff if a budget truncated it), sorted by the deterministic order
    key — the scale-path twin of :func:`load_crawl_order` (which
    materializes a DataFrame for tests/inspection)."""
    parts = []
    for r in _complete_rounds(checkpoint_dir):
        files = _parquet_files(_frontier_dir(checkpoint_dir, r))
        if files:
            ds = _read_runs(files, FRONTIER_COLUMNS,
                            _read_manifest(checkpoint_dir, r)["cutoff"])
            ds = ds.map_batches(
                lambda t, _r=r: t.append_column(
                    "round", pa.array([_r] * t.num_rows, pa.int64())
                ),
                batch_format="pyarrow",
            )
            parts.append(ds)
    if not parts:
        return ray.data.from_items([])
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out.sort(["round"] + ORDER_KEYS)


def load_crawl_order(checkpoint_dir: str) -> pd.DataFrame:
    """The deterministic crawl ordering: each complete round's admitted
    rows (as in :func:`crawl_order_ds`) sorted by (round, vt, priority,
    pvt, pli, url). Driver-side (test/inspection helper); at scale use
    :func:`crawl_order_ds`."""
    frames = []
    for r in _complete_rounds(checkpoint_dir):
        files = _parquet_files(_frontier_dir(checkpoint_dir, r))
        if files:
            tbl = pq.read_table(files, columns=FRONTIER_COLUMNS)
            cutoff = _read_manifest(checkpoint_dir, r)["cutoff"]
            df = (tbl if cutoff is None else tbl.filter(_le_cutoff(tbl, cutoff))).to_pandas()
            df["round"] = r
            frames.append(df)
    if not frames:
        return pd.DataFrame(columns=["round"] + ORDER_KEYS)
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["round"] + ORDER_KEYS, kind="mergesort").reset_index(drop=True)


# --------------------------------------------------------------------------
# main loop

def _round_plan(adm: Optional[ray.data.Dataset], ckpt: str, first: int, last: int,
                layout: Optional[str], cutoffs: dict, robots_ref, config: CrawlConfig,
                n_buckets: int, fetcher_cls, fetcher_kwargs: Optional[dict]
                ) -> ray.data.Dataset:
    """The lazy plan of rounds ``first``..``last``. ``adm`` yields the
    admitted rows of frontier ``first`` (None for a live fetch, which
    lists the runs itself). Each round fetches and extracts its admitted
    pages and writes its output; below ``max_depth`` it discovers their
    links and admits them into the next frontier, whose admitted rows
    feed the next round. So the plan ends with the admission of frontier
    ``last + 1``, or with round ``max_depth``'s output."""
    for r in range(first, last + 1):
        out = _fetch_and_extract(adm, ckpt, r, layout, cutoffs.get(r), robots_ref,
                                 config, fetcher_cls, fetcher_kwargs)
        if r == config.max_depth:
            # no expansion: consume the pipeline to drive the writes
            return out.map_batches(lambda t: t.select(["url"]), batch_format="pyarrow")
        _reset_dir(_frontier_dir(ckpt, r + 1))  # crashed-attempt leftovers
        adm = _admit(_link_candidates(out, robots_ref, config, n_buckets), ckpt, r + 1,
                     cutoffs, robots_ref, config)
    return adm


def run_crawl(
    pages_path: str,
    seeds_path: str,
    checkpoint_dir: str,
    robots_path: Optional[str] = None,
    config: CrawlConfig = CrawlConfig(),
    resume: bool = False,
    fetcher_cls=None,
    fetcher_kwargs: Optional[dict] = None,
) -> CrawlResult:
    """Run (or resume) the frontier crawl. See module docstring.

    Pages come from the corpus ``pages_path`` by the corpus join, over
    a layout sorted by ``ck`` that is built once per corpus
    under ``config.index_dir`` (default a ``pages_hidx`` sibling of the
    pages dir). Passing ``fetcher_cls`` replaces that join with paced
    fetch tasks, one per frontier run, each holding a fetcher
    constructed with ``fetcher_kwargs``: ``stages.fetch.CorpusFetcher``
    (``pages_path=...``) offline, or ``HttpFetcher`` for a real
    deployment. A host's fetches start at least its robots crawl delay
    apart, within a round and across rounds (:class:`_PacedFetcher`).
    Without ``max_pages`` or ``fetcher_cls`` the crawl is one Dataset
    execution; with either, one per round. Resuming from runs written before the crawl-key run
    format raises :class:`StaleCheckpointError`."""
    os.makedirs(checkpoint_dir, exist_ok=True)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False

    robots_ref = _load_robots.remote(robots_path, config.default_crawl_delay_ms)
    n_buckets = _n_buckets()
    # budget-truncated round -> cutoff (at most one: a cut spends the budget)
    cutoffs: dict[int, list] = {}
    pages_budget = config.max_pages
    total_admitted = total_fetched = 0

    def close(r: int) -> bool:
        """Write round r's manifest from footers and write times, if
        frontier r holds a row; True if frontier r+1 does too."""
        nonlocal pages_budget, total_admitted, total_fetched
        fdir, ndir = _frontier_dir(checkpoint_dir, r), _frontier_dir(checkpoint_dir, r + 1)
        odir = os.path.join(checkpoint_dir, f"output_{r:04d}")
        n_frontier = _dir_num_rows(fdir)
        if n_frontier == 0:
            return False
        n_admitted = n_frontier if pages_budget is None else min(n_frontier, pages_budget)
        if pages_budget is not None:
            pages_budget -= n_admitted
        n_next = _dir_num_rows(ndir) if r < config.max_depth else 0
        n_fetched = _dir_num_rows(odir)
        total_admitted += n_admitted
        total_fetched += n_fetched
        # elapsed_s: the span from its frontier's last write to the next one's
        started = _last_write(fdir)
        ended = (_last_write(ndir) if n_next else None) or _last_write(odir) or started
        _write_json(_manifest_path(checkpoint_dir, r), {
            "round": r,
            "n_admitted": n_admitted,
            "n_fetched": n_fetched,
            "n_next_frontier": n_next,
            "n_buckets": n_buckets,
            "cutoff": cutoffs.get(r),
            "total_admitted": total_admitted,
            "total_fetched": total_fetched,
            "elapsed_s": ended - started,
        })
        return n_next > 0

    start = 0
    fresh = True
    if resume:
        # the runs on disk ARE the seen set and the bases: only scalars
        # come back from the manifests
        done = _complete_rounds(checkpoint_dir)
        for r in done:
            m = _read_manifest(checkpoint_dir, r)
            if m["cutoff"] is not None:
                cutoffs[r] = m["cutoff"]
        if done:
            n_buckets = m["n_buckets"]  # runs are keyed by bucket
            total_admitted, total_fetched = m["total_admitted"], m["total_fetched"]
            if pages_budget is not None:
                pages_budget -= total_admitted
        elif os.path.exists(_record_path(checkpoint_dir)):
            with open(_record_path(checkpoint_dir)) as f:
                n_buckets = json.load(f)["n_buckets"]
        start = len(done)
        # each admission groupby is a barrier: a run in frontier k+2
        # proves round k complete (output k and frontier k+1 written)
        while _parquet_files(_frontier_dir(checkpoint_dir, start + 2)):
            close(start)
            start += 1
        # frontier 0 is complete once a frontier-1 run exists
        fresh = start == 0 and not _parquet_files(_frontier_dir(checkpoint_dir, 1))
        if not fresh:
            for k in range(start + 1):
                for f in _parquet_files(_frontier_dir(checkpoint_dir, k)):
                    if "ck" not in pq.read_schema(f).names:
                        raise StaleCheckpointError(
                            f"{f}: the checkpoint predates the hash-sorted frontier "
                            "run format keyed by the crawl key (no 'ck' column); "
                            "crawl into a new checkpoint_dir instead of resuming")
            for k in range(start + 1, config.max_depth + 1):
                shutil.rmtree(_frontier_dir(checkpoint_dir, k), ignore_errors=True)

    layout = None
    if fetcher_cls is None:
        layout = build_hash_index(
            pages_path, "url",
            config.index_dir or os.path.join(
                os.path.dirname(pages_path.rstrip("/")) or ".", "pages_hidx"),
            columns=["url", "html"], rows_per_group=LAYOUT_GROUP_ROWS,
            key_hash=crawl_key)

    # a budget can cut a round only once its size is known, and a live
    # fetch task paces a whole run: both plan one round at a time
    per_round = pages_budget is not None or fetcher_cls is not None
    head = None  # lazy admitted rows of frontier `start`, before its runs exist
    if fresh:
        # round 0 discovery: seeds → fused admit → frontier_0 runs
        _reset_dir(_frontier_dir(checkpoint_dir, 0))  # crashed-attempt leftovers
        _write_json(_record_path(checkpoint_dir), {"n_buckets": n_buckets})
        head = _admit(_seed_candidates(seeds_path, robots_ref, config, n_buckets),
                      checkpoint_dir, 0, cutoffs, robots_ref, config)

    r = start
    while r <= config.max_depth:
        if head is not None and per_round:
            head.count()  # the seed execution ends after its admission
            head = None
        if head is None:
            if pages_budget is not None and pages_budget <= 0:
                break
            runs = _parquet_files(_frontier_dir(checkpoint_dir, r))
            if not runs:
                break
            # budget truncation: the round admits its runs' rows up to
            # the cutoff, and later bases count frontier r only that far
            if pages_budget is not None and _dir_num_rows(
                    _frontier_dir(checkpoint_dir, r)) > pages_budget:
                cutoffs[r] = _budget_cut(runs, pages_budget)
            if fetcher_cls is None:
                head = _read_runs(runs, JOIN_COLUMNS, cutoffs.get(r))
        last = r if per_round else config.max_depth
        # ONE execution: fetch → extract (+ output write) → discovery →
        # admission, round after round, up to `last`
        plan = _round_plan(head, checkpoint_dir, r, last, layout, cutoffs, robots_ref,
                           config, n_buckets, fetcher_cls, fetcher_kwargs)
        # Ray Data's default reserves each operator an even share of half
        # the cluster, and the plan holds four operators per round, most
        # of them idle at any time (a round's admission waits for all of
        # the round before): on 4 CPUs the join tasks of one round ran
        # one at a time. The setting lives in this plan's own context, a
        # copy taken when its source was made
        plan.context.op_resource_reservation_enabled = False
        plan.count()
        head = None
        if not all(close(k) for k in range(r, last + 1)):
            break
        r = last + 1

    n_rounds = len(_complete_rounds(checkpoint_dir))
    # frontier k > max_depth is never written
    seen = RunSeen(checkpoint_dir, min(n_rounds, config.max_depth) + 1)
    return CrawlResult(checkpoint_dir, n_rounds, total_admitted, total_fetched, seen)
