"""Vectorized stable 64-bit string hashing for partition / content keys.

The dedup and boilerplate families key shuffles on a compact hash of
string content instead of shipping the strings (ops/boilerplate.py
module doc).  The original kernel called ``hashlib.blake2b`` once per
row inside an ``np.fromiter`` generator — cryptographic strength none
of these keys need, at a ~1.5 µs/row Python-loop price that made
``strip_boilerplate`` the slowest bench entry (three passes over every
line of the corpus).

This module replaces it with our own arithmetic, vectorized end to end:

* UTF-8 encoding happens once in Arrow C code (``pa.array`` →
  ``large_string``; the flat data buffer + offsets come back zero-copy
  as numpy views);
* the hash is a fold over 8-byte words with the string length mixed
  in up front (so ``"a"`` and ``"a\\x00"`` cannot collide through zero
  padding); each word is xored in, multiplied by the murmur3 constant
  and xor-shifted down (``x ^ (x >> 33)``), finished with the murmur3
  ``fmix64`` avalanche so low bits are usable as bucket ids;
* rows are processed sorted by length, so word-column passes touch a
  shrinking prefix and total work stays O(total bytes) even when one
  row is pathologically long.

Stability contract (why not ``pd.util.hash_array`` / ``polars.hash``):
every operation below is plain uint64 wraparound arithmetic on
explicitly little-endian words — deterministic across processes,
machines, and library versions by construction, which is what a
distributed partition key requires.

Collisions: keys have 63 usable bits (the sign bit is shifted off so
keys are non-negative int64).  The per-word down-shift is what keeps
that true for structured strings: a multiply alone carries a
difference only upward, so strings differing in a word's high bytes
(``host0000…/000210`` vs ``host0009…/000215``) would collide.  With it,
100k structured urls, 100k structured lines and 200k random prose
lines hash without a collision (tests/test_vhash.py pins the urls).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT33 = np.uint64(33)


def _fmix64(h: np.ndarray) -> np.ndarray:
    """murmur3 finalizer (public domain), vectorized."""
    h = h ^ (h >> _SHIFT33)
    h = h * _MIX1
    h = h ^ (h >> _SHIFT33)
    h = h * _MIX2
    h = h ^ (h >> _SHIFT33)
    return h


def hash64_str(values) -> np.ndarray:
    """Stable non-negative int64 hash of each string in ``values``
    (sequence / numpy object array / pandas Series of str; None hashes
    as ``""``).  Vectorized: one Arrow encode pass + numpy word folds.
    """
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array):
        arr = values.cast(pa.large_string())
    else:
        arr = pa.array(values, type=pa.large_string(), from_pandas=True)
    if arr.null_count:
        arr = arr.fill_null("")
    buffers = arr.buffers()
    off = np.frombuffer(buffers[1], dtype=np.int64, count=n + 1,
                        offset=arr.offset * 8)
    flat = (np.frombuffer(buffers[2], dtype=np.uint8)
            if buffers[2] is not None else np.empty(0, np.uint8))
    return _fold(flat, off)


def _fold(flat: np.ndarray, off: np.ndarray) -> np.ndarray:
    n = len(off) - 1
    lens = np.diff(off)

    # unaligned word reads via an 8-byte sliding-window view over a
    # zero-tail copy of the used byte range: word w of row j is
    # windows[start[j] + 8w] — one (m, 8) gather per pass, no
    # per-byte scatter. Reads past a string's end pull the next
    # string's bytes; the tail mask below zeroes them before mixing.
    base = int(off[0])
    pad = np.empty(int(off[-1]) - base + 8, dtype=np.uint8)
    pad[:-8] = flat[base:int(off[-1])]
    pad[-8:] = 0
    windows = np.lib.stride_tricks.sliding_window_view(pad, 8)

    order = np.argsort(lens, kind="stable")  # ascending by length
    lens_s = lens[order].astype(np.int64)
    start_s = off[:-1][order] - base
    nwords_s = (lens_s + 7) // 8
    rem_s = (lens_s % 8).astype(np.uint64)
    tail_mask_s = np.where(
        rem_s == 0,
        np.uint64(0xFFFFFFFFFFFFFFFF),
        (np.uint64(1) << (np.uint64(8) * rem_s)) - np.uint64(1))

    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    h = (h ^ lens_s.astype(np.uint64)) * _FNV_PRIME

    max_words = int(nwords_s[-1]) if n else 0
    for w in range(max_words):
        # rows with more than w words form a suffix of the
        # length-sorted order; rows whose LAST word this is form the
        # contiguous prefix [a, a2) of that suffix and get masked
        a = int(np.searchsorted(nwords_s, w + 1, side="left"))
        a2 = int(np.searchsorted(nwords_s, w + 1, side="right"))
        word = np.ascontiguousarray(
            windows[start_s[a:] + 8 * w]).view(np.dtype("<u8")).ravel()
        if a2 > a:
            word[:a2 - a] &= tail_mask_s[a:a2]
        x = (h[a:] ^ word) * _MIX1
        h[a:] = x ^ (x >> _SHIFT33)

    h = _fmix64(h) >> np.uint64(1)  # non-negative int64, 63 usable bits
    out = np.empty(n, dtype=np.int64)
    out[order] = h.astype(np.int64)
    return out


def hash64_str_pair(a, b, sep: str = "\x1f") -> np.ndarray:
    """Stable key of ``a + sep + b`` per row — the (host, line)
    content-key shape.  The concat is one Arrow kernel; the hash is
    :func:`hash64_str` of the joined strings."""
    import pyarrow.compute as pc

    aa = pa.array(a, type=pa.large_string(), from_pandas=True)
    bb = pa.array(b, type=pa.large_string(), from_pandas=True)
    joined = pc.binary_join_element_wise(
        aa.fill_null("") if aa.null_count else aa,
        bb.fill_null("") if bb.null_count else bb,
        pa.scalar(sep, pa.large_string()))
    return hash64_str(joined)


def hash64_combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable key of a PAIR of already-hashed values — the (host, line)
    content-key shape without materializing joined strings: both inputs
    are :func:`hash64_str` outputs (63-bit, well mixed), so one
    multiply-xor-finalize round keeps the collision scale at 2^-63.
    Non-negative int64, like every key in this module."""
    ua = a.astype(np.uint64, copy=False)
    ub = b.astype(np.uint64, copy=False)
    return (_fmix64((ua * _FNV_PRIME) ^ ub) >> np.uint64(1)).astype(np.int64)


def hash64_py(s: str) -> int:
    """Scalar reference implementation (pure Python, arbitrary
    precision) — the spec the vectorized fold is tested against."""
    data = s.encode("utf-8")
    mask = (1 << 64) - 1
    h = (0xCBF29CE484222325 ^ len(data)) * 0x100000001B3 & mask
    for i in range(0, len(data), 8):
        word = int.from_bytes(data[i:i + 8], "little")
        x = (h ^ word) * 0xFF51AFD7ED558CCD & mask
        h = x ^ (x >> 33)
    h ^= h >> 33
    h = h * 0xFF51AFD7ED558CCD & mask
    h ^= h >> 33
    h = h * 0xC4CEB9FE1A85EC53 & mask
    h ^= h >> 33
    return h >> 1
