"""The reference's end-to-end job lifecycle (``contxt/cli.py:120-395``,
SURVEY.md §3.1) as one composed Ray Data pipeline:

    seed URLs → validity filter → fetch (corpus-backed) → extraction
    kernel → formatter stage → destination sink (+ optional images,
    combined single file, run stats)

This is the "a contxt user can switch" surface: the same config dict
(``config.py``), the same format/destination/single_file semantics, the
same stats totals — distributed. ``python -m web_scraper_ray`` wraps it
with the reference's CLI flags.
"""

from __future__ import annotations

import os
from typing import Optional

import pyarrow as pa

import ray.data

from ..config import merge_defaults
from ..formatters import FormatStage, get_extension
from ..functions.urls import is_valid_url
from ..sinks import combined_single_file, derive_filename, run_stats, write_formatted_files
from ..stages.extract_stage import extract_batch
from ..stages.fetch import CorpusFetcher, corpus_scan_fetch, fetch_stage


class JobResult:
    def __init__(self, stats: dict, files: list[str], combined_path: Optional[str],
                 printed: list[str]):
        self.stats = stats
        self.files = files
        self.combined_path = combined_path
        self.printed = printed


def run_job(
    urls: list[str],
    config: Optional[dict] = None,
    pages_path: Optional[str] = None,
    fetcher_cls=CorpusFetcher,
    concurrency: int = 4,
) -> JobResult:
    """Process a seed URL list exactly as the reference CLI does
    (cli.py:241-395): per-URL fetch+extract+format, then the
    destination/single_file output stage and the summary stats.

    ``pages_path`` backs the offline fetch (live deploys pass
    ``HttpFetcher`` and no corpus). The default offline path fetches
    via ``corpus_scan_fetch`` — one streaming corpus scan against the
    broadcast seed set — so no actor holds the whole corpus. A job
    fetches its seed list once and has no robots input, so it does not
    pace hosts; a live crawl does (``crawl.frontier.run_crawl``)."""
    config = merge_defaults(config or {})
    out_cfg = config["output"]
    fmt = out_cfg.get("format", "markdown")
    destination = out_cfg.get("destination", "print")
    single_file = config["organization"].get("single_file", True)
    include_images = config["scraping"].get("include_images", False)
    extension = get_extension(fmt)

    # seed order is the output order (cli.py:276, SURVEY.md T4)
    seed_rows = [
        {"seed_index": i, "url": u} for i, u in enumerate(urls) if is_valid_url(u)
    ]
    n_invalid = len(urls) - len(seed_rows)
    if not seed_rows:
        return JobResult(
            {"total": len(urls), "successful": 0, "failed": len(urls),
             "total_tokens": 0, "total_images": 0},
            [], None, [],
        )
    if fetcher_cls is CorpusFetcher and pages_path:
        # offline default: scan-join (corpus scanned once, seed set
        # broadcast) instead of a per-actor full-corpus dict
        fetched = corpus_scan_fetch([r["url"] for r in seed_rows], pages_path)
    else:
        ds = ray.data.from_items(seed_rows)
        fetched = fetch_stage(
            ds.select_columns(["url"]), fetcher_cls, concurrency=concurrency,
            **({"pages_path": pages_path} if fetcher_cls is CorpusFetcher else {}),
        )
    ok = fetched.map_batches(
        lambda t: t.filter(pa.compute.equal(t["status"], "fetched")),
        batch_format="pyarrow",
    )
    # materialize ONCE: stats, the image pipeline, and the output stage
    # all consume this — without pinning, the fetch+extract chain would
    # re-execute per consumer (job inputs are a seed list, small)
    extracted = ok.map_batches(
        extract_batch, batch_format="pyarrow", batch_size=64
    ).map_batches(
        # a fetched page whose extraction failed counts as FAILED, like
        # the reference's empty-content gate (cli.py:69-72, 302-304)
        lambda t: t.filter(t["extract_ok"]),
        batch_format="pyarrow",
    ).materialize()

    # stats single-pass over the extraction output (cli.py:286-297)
    raw_stats = run_stats(extracted)
    stats = {
        "total": len(urls),
        "successful": raw_stats["successful_urls"],
        "failed": len(urls) - raw_stats["successful_urls"],
        "total_tokens": raw_stats["total_tokens"],
        "total_images": raw_stats["total_images"],
    }

    # include_images + file destination: download (stubbed offline),
    # md5-dedup, hash-named sink; the resulting url→path map broadcasts
    # into the formatter stage (cli.py:75-79 + J1 image_map join)
    image_map: dict = {}
    if include_images and destination == "file":
        from ..ops.images import image_pipeline_with_map

        img_dir = os.path.join(
            os.path.expanduser(out_cfg.get("directory") or os.getcwd()), "images"
        )
        _, image_map = image_pipeline_with_map(extracted, img_dir,
                                               concurrency=concurrency)

    formatted = extracted.map_batches(
        FormatStage(fmt, include_images=include_images, image_map=image_map),
        batch_format="pandas",
        concurrency=concurrency,
    )

    # seed-order key for deterministic combined/print ordering
    order = {r["url"]: r["seed_index"] for r in seed_rows}
    order_ref = ray.put(order)

    def attach_order(df):
        import pandas as pd

        df = df.copy()
        lookup = ray.get(order_ref)
        df["seed_index"] = df["url"].map(lookup).fillna(1 << 30).astype("int64")
        return df

    formatted = formatted.map_batches(attach_order, batch_format="pandas")

    files: list[str] = []
    combined_path: Optional[str] = None
    printed: list[str] = []

    if destination == "file":
        out_dir = os.path.expanduser(out_cfg.get("directory") or os.getcwd())
        if single_file and stats["successful"] > 1:
            combined = combined_single_file(formatted, ["seed_index"])
            custom = out_cfg.get("custom_name")
            source_name = f"{custom}_combined" if custom else "combined_output"
            name = derive_filename(source=source_name, title=source_name,
                                   custom_name=None, extension=extension)
            os.makedirs(out_dir, exist_ok=True)
            combined_path = os.path.join(out_dir, name)
            with open(combined_path, "w", encoding="utf-8") as f:
                f.write(combined)
        else:
            files = sorted(write_formatted_files(
                formatted, out_dir, extension,
                custom_name=out_cfg.get("custom_name"),
            ))
    else:  # print (and the clipboard analog: the caller gets the string)
        if single_file and stats["successful"] > 1:
            printed = [combined_single_file(formatted, ["seed_index"])]
        else:
            for batch in formatted.sort("seed_index").iter_batches(batch_format="pandas"):
                printed.extend(batch["formatted"].tolist())

    return JobResult(stats, files, combined_path, printed)
