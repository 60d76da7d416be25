"""vhash.py — the vectorized stable content hash: spec parity against
the pure-Python reference, input-shape tolerance, and the properties
the dedup/boilerplate/frontier callers rely on (stability, spread,
non-negativity)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from web_scraper_ray.vhash import hash64_py, hash64_str, hash64_str_pair

CASES = [
    "",
    "a",
    "abcdefg",          # 7 bytes — one partial word
    "abcdefgh",         # 8 bytes — one exact word
    "abcdefghi",        # 9 bytes — word + 1
    "a" * 64,
    "a" * 65,
    "the quick brown fox jumps over the lazy dog",
    "naïve café — déjà vu ✓",   # multi-byte UTF-8
    "line with trailing zeros\x00\x00",
    "\x00",
    "https://example.com/path?a=1&b=2",
]


def test_matches_python_reference():
    got = hash64_str(CASES)
    want = np.array([hash64_py(s) for s in CASES], dtype=np.int64)
    assert got.tolist() == want.tolist()


def test_matches_reference_randomized():
    rng = np.random.default_rng(7)
    vals = ["".join(chr(rng.integers(32, 0x2FFF)) for _ in range(rng.integers(0, 200)))
            for _ in range(500)]
    got = hash64_str(vals)
    want = [hash64_py(s) for s in vals]
    assert got.tolist() == want


def test_input_shapes_agree():
    want = hash64_str(CASES).tolist()
    assert hash64_str(np.array(CASES, dtype=object)).tolist() == want
    assert hash64_str(pd.Series(CASES)).tolist() == want
    assert hash64_str(pa.array(CASES)).tolist() == want
    assert hash64_str(pa.chunked_array([CASES[:5], CASES[5:]])).tolist() == want
    # sliced arrow arrays (non-zero offset) hash the same values
    arr = pa.array(["pad0", "pad1"] + CASES)
    assert hash64_str(arr.slice(2)).tolist() == want


def test_none_hashes_as_empty():
    assert hash64_str([None, ""]).tolist() == [hash64_py("")] * 2
    assert (hash64_str(pd.Series(["x", None]))[1] == hash64_py(""))


def test_empty_input():
    assert hash64_str([]).shape == (0,)
    assert hash64_str([]).dtype == np.int64


def test_non_negative_int64():
    vals = [f"url-{i}" for i in range(5000)]
    h = hash64_str(vals)
    assert h.dtype == np.int64
    assert (h >= 0).all()


def test_no_collisions_on_structured_urls():
    """Strings that differ only in a few digits spread across words
    (host number and path number) must not collide: a multiply-only
    word fold never carries a high-byte difference down."""
    vals = [f"https://host{h:04d}.example/articles/{a:06d}"
            for h in range(100) for a in range(1000)]
    assert len(np.unique(hash64_str(vals))) == len(vals)


def test_no_collisions_and_spread():
    vals = [f"https://host{i % 97}.example/p/{i}" for i in range(20000)]
    h = hash64_str(vals)
    assert len(np.unique(h)) == len(vals)          # distinct inputs, distinct keys
    counts = np.bincount(h % 64, minlength=64)      # low bits usable as buckets
    assert counts.min() > 0.5 * len(vals) / 64
    assert counts.max() < 1.5 * len(vals) / 64


def test_length_padding_disambiguation():
    # zero padding must not collide strings that differ by trailing NULs
    a, b = "abc", "abc\x00"
    assert hash64_py(a) != hash64_py(b)
    assert hash64_str([a, b])[0] != hash64_str([a, b])[1]


def test_pair_matches_joined():
    hosts = ["h1.example", "h2.example", ""]
    lines = ["nav | footer", "", "x"]
    want = hash64_str([h + "\x1f" + ln for h, ln in zip(hosts, lines)])
    got = hash64_str_pair(np.array(hosts, object), np.array(lines, object))
    assert got.tolist() == want.tolist()


def test_pathological_long_row():
    # one 1 MB row among short ones: still correct (the sorted-prefix
    # fold), and the short rows' hashes are unaffected
    vals = ["short-1", "x" * 1_000_000, "short-2"]
    h = hash64_str(vals)
    assert h[0] == hash64_py("short-1")
    assert h[2] == hash64_py("short-2")
    assert h[1] == hash64_py(vals[1])
