"""One keyed-state primitive for the dedup, boilerplate and span ops:
:class:`KeyTable`, an int64 key → int64 payload multimap built from a
Dataset, queried from inside ``map_batches`` tasks.

Two placements, one query core (:func:`contains_sorted` /
:func:`lookup_sorted`, vectorized ``searchsorted`` over a
(key, payload)-lexsorted, deduplicated array pair):

* ``broadcast``: a Ray task folds the table into ONE sorted array pair
  in the object store; every query task reads it zero-copy. The driver
  never holds it.
* ``sharded``: actor ``key % n_shards`` of a shared pool holds that
  shard, fed by a ``map_batches`` pass behind a ``.count()`` barrier.
  No process holds the full table, and a query ships only its own keys
  to the shards it touches. A shard sorts a table on its first query
  and re-sorts if a retried feed lands late, so a repeated add is
  harmless.

Pool: the sharded tables one process builds in one Ray session share
one list of ``num_cpus=0``, ``SPREAD`` actors; a table uses the first
``n_shards``, growing the list if needed. Shards keep each table's keys
under its fresh id, so tables never mix keys (an unknown id answers
empty). A table's keys go when its driver-side :class:`KeyTable` is
collected; Ray Data's dataset graphs are cyclic, so that can wait for
the cyclic GC, but the keys are slim and no process is left behind.

Failure policy: building a table replaces dead pool actors (one
batched ``__ray_ready__`` round). A table that had keys on an actor
that died raises :class:`KeyShardLost` on every later query, naming
the shard and the op, instead of answering from a partial set.
"""

from __future__ import annotations

import contextlib
import itertools
import weakref

import numpy as np
import pyarrow as pa

# no ray.data / pandas import: every shard actor imports this module,
# and those would add ~50 MB of RSS per actor
import ray


class KeyShardLost(RuntimeError):
    """A sharded :class:`KeyTable` lost a shard actor: its keys are gone."""


def _build(keys: np.ndarray, payloads: np.ndarray | None):
    """Sort by (key, payload) and drop repeated pairs."""
    if payloads is None:
        return np.unique(keys), None
    o = np.lexsort((payloads, keys))
    k, p = keys[o], payloads[o]
    keep = np.ones(len(k), dtype=bool)
    keep[1:] = (k[1:] != k[:-1]) | (p[1:] != p[:-1])
    return k[keep], p[keep]


def contains_sorted(ks: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Membership of each query key in the sorted key array ``ks``."""
    if not len(ks):
        return np.zeros(len(q), dtype=bool)
    pos = np.minimum(np.searchsorted(ks, q), len(ks) - 1)
    return ks[pos] == q


def lookup_sorted(ks: np.ndarray, ps: np.ndarray, q: np.ndarray):
    """Every (query index, payload) pair whose key matches, ordered by
    query index then payload."""
    lo = np.searchsorted(ks, q, "left")
    n = np.searchsorted(ks, q, "right") - lo
    qi = np.repeat(np.arange(len(q), dtype=np.int64), n)
    run = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
    return qi, ps[np.repeat(lo, n) + run]


def _column(blocks: list, col: str | None):
    """int64 column ``col`` of Arrow tables / pandas frames, concatenated."""
    if col is None:
        return None
    return np.concatenate([np.asarray(b[col], dtype=np.int64) for b in blocks]
                          or [np.empty(0, np.int64)])


@ray.remote(num_cpus=0)
def _fold(key_col: str, payload_col: str | None, *blocks):
    live = [b for b in blocks if len(b)]
    return _build(_column(live, key_col), _column(live, payload_col))


@ray.remote(num_cpus=0)
class _Shard:
    """One pool actor: each table's chunks and sorted pair, by table id."""

    def __init__(self):
        self._chunks: dict = {}
        self._tables: dict = {}

    def add(self, tid: int, keys: np.ndarray, payloads) -> int:
        self._chunks.setdefault(tid, []).append((keys, payloads))
        self._tables.pop(tid, None)
        return len(keys)

    def drop(self, tid: int) -> None:
        self._chunks.pop(tid, None)
        self._tables.pop(tid, None)

    def _sorted(self, tid: int):
        if tid not in self._chunks:
            return (np.empty(0, np.int64),) * 2
        if tid not in self._tables:
            ks = [c[0] for c in self._chunks[tid]]
            ps = [c[1] for c in self._chunks[tid] if c[1] is not None]
            self._tables[tid] = _build(np.concatenate(ks),
                                       np.concatenate(ps) if ps else None)
            self._chunks[tid] = [self._tables[tid]]
        return self._tables[tid]

    def contains(self, tid: int, q: np.ndarray) -> np.ndarray:
        return contains_sorted(self._sorted(tid)[0], q)

    def lookup(self, tid: int, q: np.ndarray):
        return lookup_sorted(*self._sorted(tid), q)


_pool: list = []  # this session's _Shard handles, shared by every table
_pool_session = None  # the Ray session _pool belongs to
_table_ids = itertools.count()


def _session():
    return ray.is_initialized() and ray.get_runtime_context().get_node_id()


def _pool_shards(n: int) -> list:
    """The first ``n`` live actors of this session's pool, grown to ``n``."""
    global _pool_session
    session = _session()
    if session != _pool_session:
        _pool[:], _pool_session = [], session
    for i, ready in enumerate([a.__ray_ready__.remote() for a in _pool]):
        try:
            ray.get(ready)
        except ray.exceptions.RayActorError:
            _pool[i] = None
    _pool.extend([None] * (n - len(_pool)))
    _pool[:] = [_Shard.options(scheduling_strategy="SPREAD").remote()
                if a is None else a for a in _pool]
    return _pool[:n]


def _drop(session, shards: list, tid: int) -> None:
    """Finalizer (skipped at exit): free table ``tid`` on every shard
    while its session lives; after ``ray.shutdown()`` a call would
    start a new session."""
    if session and _session() == session:
        with contextlib.suppress(Exception):
            for s in shards:
                s.drop.remote(tid)


def _wait(op: str, n_shards: int, sids: list, futs: list) -> list:
    out = []
    for s, f in zip(sids, futs):
        try:
            out.append(ray.get(f))
        except ray.exceptions.RayActorError as e:
            raise KeyShardLost(
                f"{op}: key shard {s} of {n_shards} died; "
                "its part of the table is lost") from e
    return out


class KeyTable:
    """int64 key → int64 payload multimap over ``ds[key_col]`` /
    ``ds[payload_col]`` (``payload_col=None``: a key set, ``contains``
    only). ``op`` names the calling op in :class:`KeyShardLost`."""

    def __init__(self, ds: ray.data.Dataset, key_col: str,
                 payload_col: str | None = None, placement: str = "broadcast",
                 n_shards: int = 4, op: str = "KeyTable"):
        self.op, self.n_shards = op, n_shards
        if placement == "broadcast":
            self._ref = _fold.remote(key_col, payload_col, *ds.to_arrow_refs())
            self._shards = None
            return
        if placement != "sharded":
            raise ValueError(f"unknown {op} mode: {placement}")
        shards, tid = _pool_shards(n_shards), next(_table_ids)
        self._shards, self._tid = shards, tid
        weakref.finalize(self, _drop, _pool_session, shards, tid).atexit = False

        def feed(batch: pa.Table) -> pa.Table:
            if batch.num_rows:
                k = _column([batch], key_col)
                p = _column([batch], payload_col)
                sid = k % n_shards
                ids = [int(s) for s in np.unique(sid)]
                _wait(op, n_shards, ids, [shards[s].add.remote(
                    tid, k[sid == s], None if p is None else p[sid == s])
                    for s in ids])
            return pa.table({"n": [batch.num_rows]})

        # barrier: every key registered before any query runs
        ds.map_batches(feed, batch_format="pyarrow").count()

    def _ask(self, method: str, q: np.ndarray):
        """(query positions, answer) per shard the queries route to."""
        sid = q % self.n_shards
        ids = [int(s) for s in np.unique(sid)]
        pos = [np.flatnonzero(sid == s) for s in ids]
        futs = [getattr(self._shards[s], method).remote(self._tid, q[i])
                for s, i in zip(ids, pos)]
        return zip(pos, _wait(self.op, self.n_shards, ids, futs))

    def contains(self, keys) -> np.ndarray:
        q = np.asarray(keys, dtype=np.int64)
        if self._shards is None:
            return contains_sorted(ray.get(self._ref)[0], q)
        hit = np.zeros(len(q), dtype=bool)
        for pos, m in self._ask("contains", q):
            hit[pos] = m
        return hit

    def lookup(self, keys):
        """``(query_idx, payload)`` for every stored pair whose key is
        ``keys[query_idx]``, ordered by query index then payload."""
        q = np.asarray(keys, dtype=np.int64)
        if self._shards is None:
            return lookup_sorted(*ray.get(self._ref), q)
        got = [(pos[qi], p) for pos, (qi, p) in self._ask("lookup", q)]
        qi = np.concatenate([g[0] for g in got] or [np.empty(0, np.int64)])
        p = np.concatenate([g[1] for g in got] or [np.empty(0, np.int64)])
        o = np.lexsort((p, qi))
        return qi[o], p[o]
