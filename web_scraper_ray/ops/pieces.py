"""Arrow-native explode and ordered rejoin of a text column's pieces:
the lines of ``strip_boilerplate`` (ops/boilerplate.py) and the
paragraphs of ``paragraph_dedup`` (ops/dedup.py).

Both ops split each document on a literal separator, decide per piece
by an int64 key lookup, and rejoin the kept pieces in their original
order, keyed on ROW POSITION (a repeated id or url rebuilds each row
from its own pieces). No Python string materializes on either side:
the split is ``split_pattern`` (a literal split, as ``str.split`` and
DuckDB ``string_split`` are), the rejoin a ``LargeListArray`` over the
kept pieces and one ``binary_join``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def split_pieces(text, sep: str) -> tuple[np.ndarray, pa.Array]:
    """``(parent row per piece, flat pieces)`` of ``text`` split on the
    literal ``sep``. A null or empty document yields ONE empty piece
    (``''.split(sep) == ['']``). ``text`` may be a ChunkedArray, and of
    Arrow type ``null`` (an all-null column); pieces come back as
    ``large_string``."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    # cast first: fill_null has no kernel for the `null` type
    text = pc.fill_null(text.cast(pa.large_string()), "")
    parts = pc.split_pattern(text, sep)
    parent = pc.list_parent_indices(parts).to_numpy().astype(np.int64, copy=False)
    return parent, pc.list_flatten(parts)


def positions(parent: np.ndarray, n: int) -> np.ndarray:
    """1-based position of each piece in its row (``parent`` ascending,
    as :func:`split_pieces` returns it)."""
    counts = np.bincount(parent, minlength=n)
    starts = np.cumsum(counts) - counts
    return np.arange(len(parent), dtype=np.int64) - starts[parent] + 1


def join_kept(flat: pa.Array, parent: np.ndarray, keep: np.ndarray,
              n: int, sep: str) -> pa.Array:
    """Each of the ``n`` rows rebuilt from its kept pieces, joined by
    ``sep`` in original order; a row that keeps none comes back ''."""
    counts = np.bincount(parent[keep], minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    rebuilt = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()),
        flat.cast(pa.large_string()).filter(pa.array(keep, pa.bool_())))
    return pc.binary_join(rebuilt, pa.scalar(sep, pa.large_string()))
