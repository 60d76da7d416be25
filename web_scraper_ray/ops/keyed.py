"""One keyed-state primitive for the dedup, boilerplate and span ops:
:class:`KeyTable`, an int64 key → int64 payload multimap built from a
Dataset, queried from inside ``map_batches`` tasks.

Two placements, one query core (:func:`contains_sorted` /
:func:`lookup_sorted`, vectorized ``searchsorted`` over a
(key, payload)-lexsorted, deduplicated array pair):

* ``broadcast``: a Ray task folds the table into ONE sorted array pair
  in the object store; every query task reads it zero-copy. The driver
  never holds it.
* ``sharded``: ``n_shards`` actors own ``key % n_shards`` each, fed by a
  ``map_batches`` pass behind a ``.count()`` barrier. No process holds
  the full table, and a query ships only its own keys to the shards it
  touches. Each shard sorts on its first query and re-sorts if a retried
  feed lands late, so a repeated add is harmless.

Failure policy: a shard actor that dies loses its part of the table,
so every later query raises :class:`KeyShardLost` naming the shard and
the op, instead of answering from a partial set.
"""

from __future__ import annotations

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
    def __init__(self):
        self._chunks: list = []
        self._table = None

    def add(self, keys: np.ndarray, payloads: np.ndarray | None) -> int:
        self._chunks.append((keys, payloads))
        self._table = None
        return len(keys)

    def _sorted(self):
        if self._table is None:
            chunks = self._chunks or [(np.empty(0, np.int64),) * 2]
            ks = [c[0] for c in chunks]
            ps = [c[1] for c in chunks if c[1] is not None]
            self._table = _build(np.concatenate(ks),
                                 np.concatenate(ps) if ps else None)
            self._chunks = [self._table]
        return self._table

    def contains(self, q: np.ndarray) -> np.ndarray:
        return contains_sorted(self._sorted()[0], q)

    def lookup(self, q: np.ndarray):
        return lookup_sorted(*self._sorted(), q)


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
        shards = [_Shard.options(scheduling_strategy="SPREAD").remote()
                  for _ in range(n_shards)]
        self._shards = shards

        def feed(batch: pa.Table) -> pa.Table:
            if batch.num_rows:
                k = _column([batch], key_col)
                p = _column([batch], payload_col)
                sid = k % n_shards
                ids = [int(s) for s in np.unique(sid)]
                self._wait(ids, [shards[s].add.remote(
                    k[sid == s], None if p is None else p[sid == s])
                    for s in ids])
            return pa.table({"n": [batch.num_rows]})

        # barrier: every key registered before any query runs
        ds.map_batches(feed, batch_format="pyarrow").count()

    def _wait(self, sids: list, futs: list) -> list:
        out = []
        for s, f in zip(sids, futs):
            try:
                out.append(ray.get(f))
            except ray.exceptions.RayActorError as e:
                raise KeyShardLost(
                    f"{self.op}: key shard {s} of {self.n_shards} died; "
                    "its part of the table is lost") from e
        return out

    def _ask(self, method: str, q: np.ndarray):
        """(query positions, answer) per shard the queries route to."""
        sid = q % self.n_shards
        ids = [int(s) for s in np.unique(sid)]
        pos = [np.flatnonzero(sid == s) for s in ids]
        futs = [getattr(self._shards[s], method).remote(q[i])
                for s, i in zip(ids, pos)]
        return zip(pos, self._wait(ids, futs))

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
