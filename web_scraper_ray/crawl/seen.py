"""URL-seen set — sharded stateful actors with a cuckoo-filter fast path
and an exact backing set (north rule: "bloom/cuckoo URL-seen"; SURVEY.md
§2.8 D4, §7).

``run_crawl`` does not use this class: its seen set is the union of its
frontier runs, probed per host bucket by the admission task
(crawl/frontier.py module doc). :class:`SeenSet` stays a standalone
structure for callers that want an incremental, actor-resident set
(and for the benchmark's replay of the crawl's candidate stream).

Design:

* URLs route to shard ``url_hash64(url) % n_shards`` — a stable content
  hash, never Python's salted ``hash``.
* Each shard holds a :class:`CuckooFilter` (compact, ~2 bytes/key) and
  an exact ``set``. A filter miss is a definitive "never seen" (cuckoo
  filters have no false negatives); a filter hit is confirmed against
  the exact set, so **no URL is ever falsely dropped** (SURVEY.md §4.2).
  Both tiers are in memory.
* The API is batch-only (one actor round trip per map_batches call) and
  ``check_and_add`` is idempotent, so Ray task retries cannot corrupt
  the set.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from ..functions.urls import url_hash64


class CuckooFilter:
    """Deterministic cuckoo filter (2 hash buckets per key, 4-slot
    buckets, 16-bit fingerprints). Auto-doubles on insert pressure so it
    never reports overflow (inserts are always eventually placed —
    growth keeps the no-false-negative invariant)."""

    BUCKET_SIZE = 4
    MAX_KICKS = 64

    def __init__(self, capacity: int = 1024):
        n = max(16, capacity // self.BUCKET_SIZE)
        self.n_buckets = 1 << (n - 1).bit_length()  # next power of two
        self.buckets: list[list[int]] = [[] for _ in range(self.n_buckets)]
        self.count = 0

    def _fp_and_index(self, item: str) -> tuple[int, int]:
        d = hashlib.blake2b(item.encode("utf-8"), digest_size=8).digest()
        fp = (int.from_bytes(d[:2], "big") or 1)  # fingerprint 0 reserved
        i1 = int.from_bytes(d[2:8], "big") % self.n_buckets
        return fp, i1

    def _alt_index(self, i: int, fp: int) -> int:
        h = int.from_bytes(
            hashlib.blake2b(fp.to_bytes(2, "big"), digest_size=6).digest(), "big"
        )
        return (i ^ h) % self.n_buckets

    def contains(self, item: str) -> bool:
        fp, i1 = self._fp_and_index(item)
        if fp in self.buckets[i1]:
            return True
        return fp in self.buckets[self._alt_index(i1, fp)]

    def insert(self, item: str) -> None:
        fp, i1 = self._fp_and_index(item)
        i2 = self._alt_index(i1, fp)
        for i in (i1, i2):
            if len(self.buckets[i]) < self.BUCKET_SIZE:
                self.buckets[i].append(fp)
                self.count += 1
                return
        # evict deterministically: rotate slots of i1
        i, cur = i1, fp
        for kick in range(self.MAX_KICKS):
            slot = kick % self.BUCKET_SIZE
            cur, self.buckets[i][slot] = self.buckets[i][slot], cur
            i = self._alt_index(i, cur)
            if len(self.buckets[i]) < self.BUCKET_SIZE:
                self.buckets[i].append(cur)
                self.count += 1
                return
        # both target buckets full even after kicks: soft-overflow the
        # in-hand fingerprint into its primary bucket. Lookups scan the
        # whole bucket list, so correctness (no false negatives) is
        # preserved; only lookup cost degrades. A cuckoo table cannot be
        # resized from fingerprints alone (the full hash is gone), so
        # growth is the owner's job: SeenShard rebuilds a 2x filter from
        # its exact set when the load factor crosses the threshold.
        self.buckets[i].append(cur)
        self.count += 1

    @property
    def load_factor(self) -> float:
        return self.count / (self.n_buckets * self.BUCKET_SIZE)


class SeenShard:
    """One shard of the URL-seen set (run as a Ray actor via
    ``ray.remote(SeenShard)``)."""

    def __init__(self, shard_id: int, n_shards: int, filter_capacity: int = 4096):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.exact: set[str] = set()  # committed (previous rounds)
        self.pending: set[str] = set()  # added during the current round
        self.filter = CuckooFilter(filter_capacity)

    def contains_batch(self, urls: list[str]) -> list[bool]:
        out = []
        for u in urls:
            if not self.filter.contains(u):
                out.append(False)  # definitive miss — fast path
            else:
                out.append(u in self.exact or u in self.pending)  # confirm
        return out

    def check_and_add(self, urls: list[str]) -> list[bool]:
        """For each url: True if it is new *this round* (and is now
        pending). Two-tier membership makes the call idempotent under
        Ray task RETRIES: a url added by a failed attempt sits in
        ``pending``, so the retry sees it as still-new (True) instead of
        silently dropping it — the round's in-flight additions only
        become 'seen' when the driver calls :meth:`commit_round` after
        the round's outputs are durably written."""
        out = []
        for u in urls:
            if self.filter.contains(u) and u in self.exact:
                out.append(False)
            else:
                if u not in self.pending:
                    self.pending.add(u)
                    self.filter.insert(u)
                out.append(True)
        self._maybe_rebuild()
        return out

    def commit_round(self) -> int:
        """Fold the round's pending additions into the committed set
        (driver-called at each round boundary, after the frontier
        parquet for the next round is on disk)."""
        self.exact |= self.pending
        self.pending = set()
        return len(self.exact)

    def add_batch(self, urls: list[str]) -> int:
        """Direct committed-tier add (:meth:`SeenSet.add`)."""
        for u in urls:
            if u not in self.exact:
                self.exact.add(u)
                self.filter.insert(u)
        self._maybe_rebuild()
        return len(self.exact)

    def _maybe_rebuild(self) -> None:
        """Grow the cuckoo filter by rebuilding from the exact backing
        set once load exceeds 90% (resize-from-fingerprints is unsound —
        see CuckooFilter.insert)."""
        if self.filter.load_factor > 0.90:
            new = CuckooFilter(capacity=max((len(self.exact) + len(self.pending)) * 2, 4096))
            for u in self.exact:
                new.insert(u)
            for u in self.pending:
                new.insert(u)
            self.filter = new

    def size(self) -> int:
        return len(self.exact) + len(self.pending)

    def snapshot(self) -> list[str]:
        return sorted(self.exact | self.pending)


class SeenSet:
    """Driver-side handle over the shard actors."""

    def __init__(self, n_shards: int = 8, filter_capacity: int = 4096):
        import ray

        self.n_shards = n_shards
        self._actor_cls = ray.remote(SeenShard)
        self.shards = [
            self._actor_cls.options(num_cpus=0).remote(i, n_shards, filter_capacity)
            for i in range(n_shards)
        ]

    def _route(self, urls: Iterable[str]) -> dict[int, list[str]]:
        routed: dict[int, list[str]] = {}
        for u in urls:
            routed.setdefault(url_hash64(u) % self.n_shards, []).append(u)
        return routed

    def check_and_add(self, urls: list[str]) -> list[bool]:
        """Batched check-and-add preserving input order."""
        import ray

        routed = self._route(urls)
        futures = {
            sid: self.shards[sid].check_and_add.remote(us) for sid, us in routed.items()
        }
        results = {sid: ray.get(f) for sid, f in futures.items()}
        cursors = {sid: 0 for sid in routed}
        out = []
        for u in urls:
            sid = url_hash64(u) % self.n_shards
            out.append(results[sid][cursors[sid]])
            cursors[sid] += 1
        return out

    def commit_round(self) -> None:
        import ray

        ray.get([s.commit_round.remote() for s in self.shards])

    def add(self, urls: list[str]) -> None:
        import ray

        routed = self._route(urls)
        ray.get([self.shards[sid].add_batch.remote(us) for sid, us in routed.items()])

    def size(self) -> int:
        import ray

        return sum(ray.get([s.size.remote() for s in self.shards]))

    def snapshot(self) -> set[str]:
        import ray

        out: set[str] = set()
        for part in ray.get([s.snapshot.remote() for s in self.shards]):
            out.update(part)
        return out

    def shard_handles(self):
        return list(self.shards)
