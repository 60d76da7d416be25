"""Footer-planned Parquet reads, the one read regime of the crawl (seeds
and frontier runs), the flagship extract/verify pipelines and the
offline corpus scan. The plan comes from the files' footers alone, so no
row is read and no sampling task runs on the driver's behalf, as Ray
Data's parquet datasource would (0.47-0.65 s stalls seen on a 1-CPU
host). Only its block count follows the cluster. The read UDF is
module-level, bound with ``functools.partial`` (pickled by reference),
and a map or sink after it fuses into the read task. Paths are local.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Iterator, Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data


def cluster_cpus() -> int:
    """The session's CPU count; 0 outside a Ray session."""
    try:
        return int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        return 0


def local_parquet_files(path) -> list[str]:
    """The ``*.parquet`` files of a local file or directory tree, sorted;
    ``ValueError`` for a URI, ``FileNotFoundError`` for a missing path."""
    path = os.fspath(path)
    if "://" in path:
        raise ValueError(f"a planned Parquet read takes a local path, got {path!r}")
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        raise FileNotFoundError(path)
    return sorted(os.path.join(root, f) for root, _, names in os.walk(path)
                  for f in names if f.endswith(".parquet"))


def plan_read(files: list, block_rows: int) -> tuple[list[dict], int]:
    """``(items, n_blocks)``: ``n_blocks = max(1, min(2×CPU, ⌈rows /
    block_rows⌉))`` (32 CPUs outside a session), each row group cut into
    even ``(file, rg, lo, hi)`` slices of at most ``min(⌈rows /
    n_blocks⌉, block_rows)`` rows, in (file, rg, lo) order. ``([], 0)``
    when the files hold no row."""
    groups = [(f, g, md.row_group(g).num_rows) for f in files
              for md in [pq.read_metadata(f)] for g in range(md.num_row_groups)]
    n_rows = sum(n for _, _, n in groups)
    if not n_rows:
        return [], 0
    blocks = max(1, min(2 * (cluster_cpus() or 32), -(-n_rows // block_rows)))
    cap = min(-(-n_rows // blocks), block_rows)
    items = [{"file": f, "rg": g, "lo": i * n // cuts, "hi": (i + 1) * n // cuts}
             for f, g, n in groups for cuts in [-(-n // cap)] for i in range(cuts)]
    return items, blocks


def _read_items(items: pa.Table, columns: list, fn: Callable) -> Iterator:
    """``fn`` over each slice of a block, a row group read once for its
    consecutive slices; a column a file lacks is left out."""
    key = group = None
    for f, g, lo, hi in zip(*(items[c].to_pylist() for c in ("file", "rg", "lo", "hi"))):
        if key != (f, g):
            with pq.ParquetFile(f) as pf:
                cols = [c for c in columns if c in pf.schema_arrow.names]
                key, group = (f, g), pf.read_row_group(g, columns=cols)
        yield fn(group.slice(lo, hi - lo))


def planned_read(plan: tuple[list[dict], int], columns: list,
                 fn: Callable) -> Optional[ray.data.Dataset]:
    """``fn`` over the ``columns`` of each slice of ``plan``
    (:func:`plan_read`), one task per block; ``None`` for an empty plan."""
    items, n_blocks = plan
    if not items:
        return None
    return ray.data.from_items(items, override_num_blocks=n_blocks).map_batches(
        functools.partial(_read_items, columns=columns, fn=fn),
        batch_format="pyarrow", batch_size=None)
