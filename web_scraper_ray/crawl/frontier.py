"""Ray-Data-native URL-frontier + fetch scheduler.

Implements EXACTLY the crawl semantics of the sequential spec in
``model.py`` (see its docstring for the contract), re-expressed as
streaming Dataset rounds (SURVEY.md §3.4, §7.6). Each round is ONE
Dataset execution with ONE all-to-all shuffle:

    range fetch-join: frontier runs ⋈ hash-sorted corpus layout
      → map_batches(extract_batch)  [frontier meta riding as columns]
      → in-pipeline output_r parquet write (idempotent per-batch files)
      → flat_map link candidates (validity / ignore / robots filters)
      → host-bucket groupby fusing [in-round dedup → seen anti-join
        against the bucket's runs → virtual-time assignment → write of
        the bucket's run frontier_{r+1}/part-{b}]

so the fetch, extraction, the output write, discovery and the
admission shuffle all overlap under the streaming executor, and a round
reads each touched corpus row group once.

The fusion is legal because every candidate URL of one host lands in
that host's hash bucket (bucket = f(host), url → host is a function),
so url-dedup, the seen anti-join, and the per-host politeness scan all
see complete groups in a single shuffle. Virtual times for round r+1
are a pure function of state known at the end of round r (per-host
admitted counts × crawl delay), so they are precomputed into the
frontier file — this is what makes the crawl order independent of
physical parallelism AND keeps the per-round shuffle count at one
(SURVEY.md §7 "hard parts" #2).

Determinism at any parallelism (SURVEY.md §4.2):
* virtual time is a pure function of crawl history, never wall-clock;
* in-round duplicate discovery is resolved by ``min`` over the parent's
  full crawl-order tuple + link index — identical to "first discovery
  in sequential crawl order";
* the crawl order itself is the deterministic sort
  ``(round, vt, priority, pvt, pli, url)`` of the admitted tables — no
  global integer rank is ever materialized (ranks don't distribute;
  the sort key does).

Crawl state lives in the frontier runs, not in actors. Frontier k is
one run per host bucket, ``frontier_k/part-{b:05d}.parquet``, sorted by
its stored ``uh = hash64_str(url)``, and a url is seen once it is
admitted into a frontier. So the admission task of bucket b for
frontier k reads the bucket's runs of rounds < k and:
* screens ``seen`` by binary-searching the candidates' hashes in each
  run's stored ``uh``, confirming every hit against the stored url
  string (a 64-bit collision never drops a url) — history urls are
  never re-hashed and no set is resident between rounds;
* takes each host's politeness base as its count of admitted rows in
  those runs: all of a fully fetched round, and only the rows up to the
  manifest's ``cutoff`` (last admitted ORDER_KEYS tuple) of a round a
  ``max_pages`` budget truncated;
* writes its own run (tmp file + ``os.replace``, deterministic bytes);
  it reads only earlier runs, so a retried task rewrites the same file.

Checkpoint/resume (north rule): every round writes ``output_r`` +
``frontier_{r+1}``, then an atomically-renamed ``manifest_r.json`` of
scalars only: row counts, totals, the bucket count, the cutoff. Round
r's admitted rows are frontier r's runs, only those up to the cutoff if
a budget truncated it: no other copy exists. Resume continues at the
first round without a manifest from the runs on disk, reusing the
recorded bucket count. Readers list ``*.parquet`` only, so a stray
``*.tmp`` is inert.

Driver-state discipline (the 10^10-frontier contract): the round loop
never materializes a round in one process and holds scalars only —
frontier row counts come from parquet FOOTER METADATA; every Dataset
read of seeds or runs is planned from footers too (row-group slices,
no sampling task for the driver to wait on, :func:`_planned_read`);
budget truncation is a distributed ``sort(ORDER_KEYS).limit(K)`` that
keeps one row per sorted block, the block's last, and a Ray task takes
the cutoff as their maximum, so no task holds the admitted rows; the
frontier's (priority, vt, pvt, pli) ride the fetch as COLUMNS into
discovery (no url→meta dict); per-host politeness bases are read inside
the bucket tasks, and the robots rules are loaded by a Ray task, never
on the driver. The only driver ``ray.get`` is the budget cutoff
(tests/test_keyed.py guards this).

Scale notes (10^10 frontier, SURVEY.md §7):
* The fetch-join is one range merge-join. ``sources/hashindex.py``
  lays the corpus out once, sorted by ``hash64_str(url)`` in small row
  groups with a footer table of each group's [min, max] hash. The
  driver cuts that table into ~2×CPU contiguous hash ranges and keeps
  only their bounds. Each range is one task: it reads the round's run
  rows whose ``uh`` falls in the range (run row-group statistics prune
  the rest), then only the layout row groups that some admitted
  ``uh`` touches, and keeps the corpus rows whose url string equals an
  admitted url. A sparse round reads few row groups; a dense one reads
  each once. No process holds the admitted set and no html shuffles.
  With ``fetcher_cls``, one paced fetch task per frontier run replaces
  the join (the live deployment shape): a run holds all of its hosts'
  rows of the round, so the task spaces each host's fetches by its
  crawl delay with no shared state.
* Hot hosts serialize only their *ordering*, not their fetches: the
  bucket task sorts its Arrow table by (host, priority, pvt, pli, url)
  and ranks each host's rows from the run starts of the sorted ``host``
  column; bases and delays are looked up once per distinct host. No
  block is converted to pandas. Admission has one path: every
  candidate of a host lands in its bucket's task, so a host with k
  candidates costs O(k log k) in ONE task and the bound is that task's
  memory (a host whose seeds span many read blocks is
  checked against the model by test_giant_host_spanning_blocks). Past
  that bound, salt ``host#chunk`` for queue storage and keep a single
  budget key.
"""

from __future__ import annotations

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
    url_hash64,
)
from ..ops.keyed import lookup_sorted
from ..sources.hashindex import build_hash_index, touched_groups
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
#: a run on disk: the frontier row plus ``uh = hash64_str(url)``, the
#: key the run is sorted by (seen probe and fetch-join ranges)
RUN_SCHEMA = FRONTIER_SCHEMA.append(pa.field("uh", pa.int64()))
#: rows per run row group: one fixed size, so a run's row-group
#: statistics prune a hash range
RUN_GROUP_ROWS = 4096
#: rows per row group of the corpus layout the fetch-join reads
LAYOUT_GROUP_ROWS = 4096
ORDER_KEYS = ["vt", "priority", "pvt", "pli", "url"]
#: frontier metadata that rides the fetch-join → extraction → discovery
META_COLUMNS = ["priority", "vt", "pvt", "pli"]
#: rows per block of a footer-planned read (:func:`_planned_read`)
READ_BLOCK_ROWS = 8192


class StaleCheckpointError(RuntimeError):
    """A resumed checkpoint holds a frontier run without the ``uh``
    column: it predates the hash-sorted run format and cannot resume."""


def _cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        return 0


def _n_buckets() -> int:
    """Admission shuffle width: ~2 reduce tasks per core, floor 16.
    The bucket VALUE for a url is ``url_hash64(host) % n_buckets`` and
    frontier runs are keyed by it, so one crawl keeps one value: it is
    recorded in every manifest, and resume reuses the recorded value
    whatever the size of the cluster it resumes on."""
    cpus = _cpus()
    return max(16, 2 * cpus) if cpus else 64


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

def _candidate_table(rows: dict) -> pa.Table:
    return pa.table({n: pa.array(rows[n], CANDIDATE_SCHEMA.field(n).type)
                     for n in CANDIDATE_SCHEMA.names})


def _new_rows() -> dict:
    return {n: [] for n in CANDIDATE_SCHEMA.names}


def _push_candidate(rows: dict, canon: str, priority: int, pvt: float, pli: int,
                    w_pri: int, w_pvt: float, w_pli: int, w_canon: str,
                    n_buckets: int) -> None:
    host = extract_host(canon)
    rows["url"].append(canon)
    rows["host"].append(host)
    rows["priority"].append(priority)
    rows["pvt"].append(pvt)
    rows["pli"].append(pli)
    rows["w_pri"].append(w_pri)
    rows["w_pvt"].append(w_pvt)
    rows["w_pli"].append(w_pli)
    rows["w_canon"].append(w_canon)
    rows["bucket"].append(url_hash64(host) % n_buckets)


def _planned_read(files: list, columns: list, fn) -> Optional[ray.data.Dataset]:
    """``fn`` over row slices of the ``columns`` of ``files`` (a column a
    file lacks is left out), in a read planned from the files' footers
    alone: ``(file, rg, lo, hi)`` items, ``max(1, min(2×CPU,
    ⌈rows / READ_BLOCK_ROWS⌉))`` blocks, a row group larger than a
    block's share cut into slices. No row is read and no sampling
    task runs on the driver's behalf, as Ray Data's parquet datasource
    would (0.47-0.65 s stalls seen on a 1-CPU host). Only the plan's size
    follows the cluster, so bytes are parallelism-independent. ``None``
    when the files hold no row."""
    groups = [(f, g, md.row_group(g).num_rows) for f in files
              for md in [pq.read_metadata(f)] for g in range(md.num_row_groups)]
    n_rows = sum(n for _, _, n in groups)
    if not n_rows:
        return None
    blocks = max(1, min(2 * (_cpus() or 32), -(-n_rows // READ_BLOCK_ROWS)))
    share = -(-n_rows // blocks)
    items = [{"file": f, "rg": g, "lo": i * n // cuts, "hi": (i + 1) * n // cuts}
             for f, g, n in groups for cuts in [-(-n // share)] for i in range(cuts)]

    def read(batch: pa.Table):
        for f, g, lo, hi in zip(*(batch[c].to_pylist() for c in ("file", "rg", "lo", "hi"))):
            with pq.ParquetFile(f) as pf:
                cols = [c for c in columns if c in pf.schema_arrow.names]
                t = pf.read_row_group(g, columns=cols).slice(lo, hi - lo)
            yield fn(t)

    return ray.data.from_items(items, override_num_blocks=min(blocks, len(items))
                               ).map_batches(read, batch_format="pyarrow", batch_size=1)


def _read_runs(files: list, columns: list, cutoff: Optional[list]) -> ray.data.Dataset:
    """``columns`` of the frontier runs ``files`` (non-empty), read by
    :func:`_planned_read`. With the ``cutoff`` of a round a budget
    truncated, only its admitted rows, those up to the cutoff, are kept,
    inside the read task (``columns`` must hold ORDER_KEYS)."""
    return _planned_read(files, columns, (lambda t: t) if cutoff is None
                         else (lambda t: t.filter(_le_cutoff(t, cutoff))))


def _seed_candidates(seeds_path: str, robots_ref, config: CrawlConfig,
                     n_buckets: int) -> ray.data.Dataset:
    # Size the seed read by FOOTER row count (_planned_read): Ray's
    # default parallelism splits even a few-MB seed table into ~2
    # blocks/CPU, and the seed round (the only execution with no corpus
    # scan to hide behind) then pays pure dispatch tax — 64 map + 64
    # sort-reduce tasks whose remote work is milliseconds (measured 5.7s
    # -> 1.8s at 42k seeds, 32 CPUs). ~8k rows/block keeps one block per
    # task worth of real work; huge seed tables still fan out to 2
    # blocks/CPU.
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
            _push_candidate(rows, canon, int(pri), -1.0, int(sidx), 0, -1.0, 0, "",
                            n_buckets)
        return _candidate_table(rows)

    files = _parquet_files(seeds_path) if os.path.isdir(seeds_path) else [seeds_path]
    ds = _planned_read(files, ["url", "seed_index", "priority"], to_cands)
    return ds if ds is not None else ray.data.from_arrow(_candidate_table(_new_rows()))


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
                _push_candidate(rows, canon, p_pri, p_vt, li, p_pri, p_pvt, p_pli, url,
                                n_buckets)
        return _candidate_table(rows)

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


def _probe_runs(urls: pa.ChunkedArray, runs: list,
                cutoffs: dict) -> tuple[np.ndarray, dict]:
    """``(seen mask of the candidate urls, admitted rows per host)`` over
    their bucket's ``(round, path)`` runs. Each run is sorted by its
    stored ``uh``: the candidates are hashed once and binary-searched in
    every run, and each hit is confirmed against the stored url string
    (a 64-bit collision never drops a url). History urls are never
    re-hashed, and a run's url strings are read only if it has a hit.
    Every row is seen; a row counts toward its host's politeness base
    only if it was admitted, i.e. up to the cutoff of a round a budget
    truncated (``cutoffs``: round → ORDER_KEYS tuple)."""
    q = hash64_str(urls)
    dup = np.zeros(len(urls), dtype=bool)
    hosts = []
    for k, path in runs:
        if not os.path.exists(path):
            continue  # the bucket had no admitted url that round
        cut = cutoffs.get(k)
        with pq.ParquetFile(path) as pf:  # one file: skip dataset discovery
            t = pf.read(columns=["uh", "host"] + (ORDER_KEYS if cut else []))
            uh = t["uh"].to_numpy()
            qi, pos = lookup_sorted(uh, np.arange(len(uh)), q)
            if len(qi):
                hist = (t if cut else pf.read(columns=["url"]))["url"].take(pos)
                dup[qi[pc.equal(hist, urls.take(qi)).to_numpy()]] = True
        hosts.append(t["host"] if cut is None else t["host"].filter(_le_cutoff(t, cut)))
    # the runs' chunks, not the ChunkedArrays: pa.chunked_array converts
    # anything that is not an Array through Python objects, per value
    chunks = [c for h in hosts for c in h.chunks]
    counts = pc.value_counts(pa.chunked_array(chunks, pa.string()))
    return dup, dict(zip(counts.field("values").to_pylist(),
                         counts.field("counts").to_pylist()))


def _write_run(t: pa.Table, ckpt: str, k: int, b: int) -> pa.Table:
    """Write bucket ``b``'s rows of frontier ``k`` as its run: with
    ``uh = hash64_str(url)``, sorted by ``(uh, url)`` so the bytes are
    deterministic, in row groups of RUN_GROUP_ROWS; tmp file +
    ``os.replace`` so a reader never sees a partial run. Returns the row
    count."""
    if t.num_rows:
        t = t.append_column("uh", pa.array(hash64_str(t["url"]), pa.int64()))
        t = t.sort_by([("uh", "ascending"), ("url", "ascending")])
        path = _run_path(ckpt, k, b)
        tmp = f"{path}.{os.getpid()}.tmp"
        pq.write_table(t.select(RUN_SCHEMA.names).cast(RUN_SCHEMA), tmp,
                       row_group_size=RUN_GROUP_ROWS)
        os.replace(tmp, path)
    return pa.table({"n": [t.num_rows]})


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
    and the write of the bucket's run."""
    b = g["bucket"][0].as_py()
    # 1. in-round dedup: min winner key per url == first discovery in
    #    sequential crawl order (model.py step 4)
    g = _precombine(g)

    # 2. seen anti-join: the bucket's earlier runs hold every seen url
    #    of its hosts (bucket = f(host)); see _probe_runs
    dup, admitted = _probe_runs(
        g["url"], [(j, _run_path(ckpt, j, b)) for j in range(k)], cutoffs)
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
    doc); yields one row count per bucket. The optional URL pre-fetch
    gate runs first — both discovery sites (seeds, link expansion) feed
    through here, so the gate screens every candidate exactly once."""
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

def _hash_ranges(layout: str) -> list[dict]:
    """About two per CPU contiguous inclusive hash ranges ``{lo, hi}``
    covering the whole hash space, cut at row-group starts of the
    layout so each holds about as many row groups. Reads only the
    layout's footer table; the ranges are all the driver keeps."""
    starts = pq.read_table(os.path.join(layout, "index.parquet"),
                           columns=["min_h"])["min_h"].to_numpy()
    n = max(1, min(len(starts), 2 * (_cpus() or 1)))
    cuts = np.unique(np.sort(starts)[np.arange(1, n) * len(starts) // n])
    lo = np.concatenate([[0], cuts[cuts > 0]]).astype(np.int64)
    hi = np.append(lo[1:] - 1, np.iinfo(np.int64).max)
    return [{"lo": int(a), "hi": int(b)} for a, b in zip(lo, hi)]


def _join_range(layout: str, runs: list, cutoff: Optional[list], lo: int, hi: int):
    """One hash range of the fetch-join: yields the corpus rows of the
    round's admitted urls whose ``uh`` lies in ``[lo, hi]``, with
    META_COLUMNS attached, one table per layout file read. Reads the runs'
    rows in the range (row-group statistics prune the rest) and only the
    layout row groups in the range that some admitted ``uh`` falls in. A
    corpus row is kept only if its url string equals an admitted url,
    so a hash collision cannot leak a row."""
    adm = pq.read_table(runs, columns=["url", "uh"] + META_COLUMNS,
                        filters=[("uh", ">=", lo), ("uh", "<=", hi)])
    if cutoff is not None:  # a budget admitted only the rows up to it
        adm = adm.filter(_le_cutoff(adm, cutoff))
    idx = pq.read_table(os.path.join(layout, "index.parquet"),
                        filters=[("min_h", "<=", hi), ("max_h", ">=", lo)])
    idx = idx.filter(touched_groups(np.sort(adm["uh"].to_numpy()),
                                    idx["min_h"].to_numpy(), idx["max_h"].to_numpy()))
    groups: dict[str, list] = {}
    for f, g in zip(idx["file"].to_pylist(), idx["rg"].to_pylist()):
        groups.setdefault(f, []).append(g)
    for f, rgs in sorted(groups.items()):
        t = pq.ParquetFile(os.path.join(layout, "data", f)).read_row_groups(
            sorted(rgs), columns=["url", "html"])
        pos = pc.index_in(t["url"], value_set=adm["url"])
        keep = pc.is_valid(pos)
        meta = adm.take(pc.filter(pos, keep))
        sel = t.filter(keep)
        yield pa.table({"url": sel["url"], "html": sel["html"],
                        **{c: meta[c] for c in META_COLUMNS}})


def _range_fetch_join(layout: str, runs: list, cutoff: Optional[list]) -> ray.data.Dataset:
    """The corpus-backed fetch: a range merge-join of the round's
    hash-sorted frontier runs with the hash-sorted corpus layout, one
    Ray Data task per hash range (:func:`_hash_ranges`,
    :func:`_join_range`). No process holds the admitted set and no html
    moves between tasks."""
    ranges = _hash_ranges(layout)

    def join(batch: pa.Table):
        for lo, hi in zip(batch["lo"].to_pylist(), batch["hi"].to_pylist()):
            yield from _join_range(layout, runs, cutoff, lo, hi)

    return ray.data.from_items(ranges, override_num_blocks=len(ranges)).map_batches(
        join, batch_format="pyarrow", batch_size=1)


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
    pages_path: str, ckpt: str, round_no: int, odir: str,
    cutoff: Optional[list], robots_ref, config: CrawlConfig,
    fetcher_cls=None, fetcher_kwargs: Optional[dict] = None,
) -> ray.data.Dataset:
    """Fetch the round's admitted urls, then run the extraction kernel.

    Without ``fetcher_cls`` the pages come from the corpus: a range
    merge-join (:func:`_range_fetch_join`) of frontier ``round_no``'s
    runs, sorted by ``uh = hash64_str(url)``, with the corpus layout of
    ``sources/hashindex.py``, keyed by the same hash (built once per
    corpus under ``config.index_dir``, default a ``pages_hidx`` sibling
    of the pages dir). A round a budget truncated fetches only its rows
    up to ``cutoff``. With ``fetcher_cls`` there is no corpus join:
    one paced fetch task per frontier run fetches the admitted rows,
    each host's spaced by its robots crawl delay (:func:`_live_fetch`,
    the live deployment shape).

    Either way the frontier's ordering metadata (META_COLUMNS) rides the
    fetched rows as columns, so extraction and discovery need no
    side-channel lookup. The round output parquet is written INSIDE the
    pipeline (one file per extracted batch, content-derived idempotent
    names, so task retries overwrite rather than duplicate) and only the
    slim ``(url, links, META_COLUMNS)`` table flows on to the discovery
    stages — one execution per round, with fetch, extraction, the write
    and discovery all overlapped by the streaming executor."""
    _reset_dir(odir)  # crashed-attempt leftovers
    runs = _parquet_files(_frontier_dir(ckpt, round_no))
    if fetcher_cls is None:
        layout = build_hash_index(
            pages_path, "url",
            config.index_dir or os.path.join(
                os.path.dirname(pages_path.rstrip("/")) or ".", "pages_hidx"),
            columns=["url", "html"], rows_per_group=LAYOUT_GROUP_ROWS)
        fetched = _range_fetch_join(layout, runs, cutoff)
    else:
        fetched = _live_fetch(runs, cutoff, robots_ref, config, fetcher_cls,
                              fetcher_kwargs, os.path.join(odir, "errors"))
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

    # batch_size=2048 coalesces the write: extraction upstream runs at
    # 256 rows/batch (wide html), but one parquet file per 256-row
    # batch means ~8× the files, footers, and open/close syscalls per
    # round — the batcher re-buffers the already-slim extracted rows
    # (text, not html) to ~2k rows per file at ~no memory cost.
    return extracted.map_batches(write_and_slim, batch_format="pyarrow",
                                 batch_size=2048)


# --------------------------------------------------------------------------
# checkpoint helpers

def _manifest_path(ckpt: str, r: int) -> str:
    return os.path.join(ckpt, f"manifest_{r:04d}.json")


def _read_manifest(ckpt: str, r: int) -> dict:
    with open(_manifest_path(ckpt, r)) as f:
        return json.load(f)


def _write_manifest(ckpt: str, r: int, payload: dict) -> None:
    tmp = _manifest_path(ckpt, r) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    os.replace(tmp, _manifest_path(ckpt, r))  # atomic completion marker


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

    Pages come from the corpus ``pages_path`` by the range fetch-join.
    Passing ``fetcher_cls`` replaces that join with paced fetch tasks,
    one per frontier run, each holding a fetcher constructed with
    ``fetcher_kwargs``: ``stages.fetch.CorpusFetcher``
    (``pages_path=...``) offline, or ``HttpFetcher`` for a real
    deployment. A host's fetches start at least its robots crawl delay
    apart, within a round and across rounds (:class:`_PacedFetcher`).
    Resuming from runs written before the hash-sorted run format raises
    :class:`StaleCheckpointError`."""
    os.makedirs(checkpoint_dir, exist_ok=True)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False

    robots_ref = _load_robots.remote(robots_path, config.default_crawl_delay_ms)
    n_buckets = _n_buckets()
    # budget-truncated round -> cutoff (at most one: a cut spends the budget)
    cutoffs: dict[int, list] = {}
    pages_budget = config.max_pages
    start_round = total_admitted = total_fetched = 0

    done_rounds = _complete_rounds(checkpoint_dir) if resume else []
    if done_rounds:
        # the runs on disk ARE the seen set and the bases: only scalars
        # come back from the manifests
        for r in done_rounds:
            m = _read_manifest(checkpoint_dir, r)
            if m["cutoff"] is not None:
                cutoffs[r] = m["cutoff"]
        n_buckets = m["n_buckets"]  # runs are keyed by bucket
        total_admitted, total_fetched = m["total_admitted"], m["total_fetched"]
        if pages_budget is not None:
            pages_budget -= total_admitted
        start_round = done_rounds[-1] + 1
        for k in range(start_round + 1):
            for f in _parquet_files(_frontier_dir(checkpoint_dir, k)):
                if "uh" not in pq.read_schema(f).names:
                    raise StaleCheckpointError(
                        f"{f}: the checkpoint predates the hash-sorted frontier "
                        "run format (no 'uh' column); crawl into a new "
                        "checkpoint_dir instead of resuming")
    else:
        # Round 0 discovery: seeds → fused admit → frontier_0 runs
        cands = _seed_candidates(seeds_path, robots_ref, config, n_buckets)
        _reset_dir(_frontier_dir(checkpoint_dir, 0))  # crashed-attempt leftovers
        _admit(cands, checkpoint_dir, 0, cutoffs, robots_ref, config).count()

    for r in range(start_round, config.max_depth + 1):
        if pages_budget is not None and pages_budget <= 0:
            break
        fdir = _frontier_dir(checkpoint_dir, r)
        n_frontier = _dir_num_rows(fdir)
        if n_frontier == 0:
            break
        t0 = time.time()

        # budget truncation: the round admits its runs' rows up to the
        # cutoff, and later bases count frontier r only that far
        n_admitted = n_frontier
        if pages_budget is not None and n_frontier > pages_budget:
            cutoffs[r] = _budget_cut(_parquet_files(fdir), pages_budget)
            n_admitted = pages_budget
        if pages_budget is not None:
            pages_budget -= n_admitted

        # ONE execution per round: fetch-join → extract (+ in-pipeline
        # output write) → discovery → fused admit → next frontier's runs
        odir = os.path.join(checkpoint_dir, f"output_{r:04d}")
        out_slim = _fetch_and_extract(pages_path, checkpoint_dir, r, odir,
                                      cutoffs.get(r), robots_ref, config,
                                      fetcher_cls, fetcher_kwargs)
        n_next = 0
        if r < config.max_depth:
            cands = _link_candidates(out_slim, robots_ref, config, n_buckets)
            ndir = _frontier_dir(checkpoint_dir, r + 1)
            _reset_dir(ndir)  # crashed-attempt leftovers
            _admit(cands, checkpoint_dir, r + 1, cutoffs, robots_ref,
                   config).count()
            n_next = _dir_num_rows(ndir)
        else:
            # no expansion: consume the pipeline to drive the writes
            out_slim.map_batches(
                lambda t: t.select(["url"]), batch_format="pyarrow"
            ).count()
        n_fetched = _dir_num_rows(odir)

        total_admitted += n_admitted
        total_fetched += n_fetched

        _write_manifest(checkpoint_dir, r, {
            "round": r,
            "n_admitted": n_admitted,
            "n_fetched": n_fetched,
            "n_next_frontier": n_next,
            "n_buckets": n_buckets,
            "cutoff": cutoffs.get(r),
            "total_admitted": total_admitted,
            "total_fetched": total_fetched,
            "elapsed_s": time.time() - t0,
        })
        if n_next == 0:
            break

    n_rounds = len(_complete_rounds(checkpoint_dir))
    # frontier k > max_depth is never written
    seen = RunSeen(checkpoint_dir, min(n_rounds, config.max_depth) + 1)
    return CrawlResult(checkpoint_dir, n_rounds, total_admitted, total_fetched, seen)
