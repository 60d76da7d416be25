"""Flagship pipelines: pages Parquet → extraction kernel → (optional)
Parquet sink, and the byte-parity verify pipeline.

One fused operator end to end. The read is planned from the pages
files' footers (``sources/planned.py``) into row slices of at most
``batch_size`` rows over ``max(1, min(2×CPU, ⌈rows / batch_size⌉))``
tasks, and each task reads its slices, runs the kernel on each and,
with ``out_dir``, writes its Parquet file: no page's html crosses the
object store, and each kernel call sees at most ``batch_size`` rows
(the memory bound). A 1,500-page corpus on one CPU is 2 tasks; 200k
pages on 32 CPUs are 64. ``pages_path`` must be local.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..sources.planned import local_parquet_files, plan_read, planned_read
from ..stages.extract_stage import EXTRACT_SCHEMA, extract_batch, verify_batch

VERIFY_SCHEMA = pa.schema([("url", pa.string()), ("text_match", pa.bool_())])


def _planned_pages(pages_path: str, columns: list, fn, batch_size: int,
                   schema: pa.Schema) -> tuple[ray.data.Dataset, int]:
    """``fn`` over planned page slices, and the plan's block count."""
    plan = plan_read(local_parquet_files(pages_path), batch_size)
    ds = planned_read(plan, columns, fn)
    return (ds if ds is not None else ray.data.from_arrow(schema.empty_table())), plan[1]


def extract_pipeline(
    pages_path: str,
    out_dir: Optional[str] = None,
    batch_size: int = 256,
) -> ray.data.Dataset:
    """pages → extracted records. With ``out_dir``, each read task writes
    one Parquet file there, then ``_manifest.json`` records the input, the
    read plan and the row count."""
    ds, n_blocks = _planned_pages(pages_path, ["url", "html"], extract_batch,
                                  batch_size, EXTRACT_SCHEMA)
    if out_dir:
        # clear only our own stale artifacts — never the whole dir (the
        # caller may keep unrelated files there)
        if os.path.isdir(out_dir):
            for f in os.listdir(out_dir):
                if f.endswith(".parquet") or f.startswith("_manifest.json"):
                    os.remove(os.path.join(out_dir, f))
        os.makedirs(out_dir, exist_ok=True)
        ds.write_parquet(out_dir)
        # lineage manifest (atomic rename): input, read plan, outputs, row
        # counts — a rerun can check input+counts instead of re-extracting
        files = [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
        manifest = {
            "input": pages_path, "n_files": len(files), "n_blocks": n_blocks,
            "n_rows": sum(pq.read_metadata(os.path.join(out_dir, f)).num_rows
                          for f in files),
            "batch_size": batch_size, "block_rows": batch_size,
        }
        tmp = os.path.join(out_dir, "_manifest.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
        os.replace(tmp, os.path.join(out_dir, "_manifest.json"))
    return ds


def verify_pipeline(pages_path: str, batch_size: int = 256) -> ray.data.Dataset:
    """pages → per-url byte-parity verdicts against the ``text`` oracle."""
    return _planned_pages(pages_path, ["url", "html", "text"], verify_batch,
                          batch_size, VERIFY_SCHEMA)[0]
