"""Byte-parity check of the extraction kernel against stored corpora.

Re-extracts every row of each pages table with the checkout's
``extract_page`` and compares the result with the row's stored ``text``.
It also digests each full record (every field ``extract_page`` returns:
title, content_html, og fields, images, links, anchors, token_count) and
prints one digest per table, so a run at an older commit and a run at a
newer one can be compared record by record:

    python scripts/kernel_parity.py .wsrb/inputs/*/pages --save old.json
    # ... check out the change ...
    python scripts/kernel_parity.py .wsrb/inputs/*/pages --against old.json

``--save`` writes ``{pages_dir: {url: record digest}}``; ``--against``
reads such a file and reports every url whose record digest differs or
is missing. Prints one line per mismatch and one summary line per
table; exits 1 on any mismatch, 0 otherwise. Run it from the repo root;
it starts no Ray session.

``--outputs`` digests ``extract_pipeline`` output directories instead of
re-extracting: each row's every ``EXTRACT_SCHEMA`` column, rows sorted
by url, so a pipeline change can be checked row for row against the
output of an older commit written to the same directory:

    python scripts/kernel_parity.py --outputs out/* --save old.json
    # ... check out the change, rewrite out/* ...
    python scripts/kernel_parity.py --outputs out/* --against old.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import pyarrow.parquet as pq

# python scripts/kernel_parity.py puts scripts/ (not the repo root) on
# sys.path; the repo root is where the package lives
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from web_scraper_ray.kernel.extract import extract_page  # noqa: E402
from web_scraper_ray.stages.extract_stage import EXTRACT_SCHEMA  # noqa: E402


def record_digest(rec: dict) -> str:
    """sha256 of the record as canonical JSON (sorted keys, exact text)."""
    blob = json.dumps(rec, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_table(pages_dir: str, against: dict | None) -> tuple[int, int, dict]:
    """``(rows, mismatches, {url: digest})`` for one pages table."""
    t = pq.read_table(pages_dir, columns=["url", "html", "text"]).sort_by("url")
    digests: dict = {}
    bad = 0
    for url, html, want in zip(t["url"].to_pylist(), t["html"].to_pylist(),
                               t["text"].to_pylist()):
        rec = extract_page(html, url)
        digests[url] = d = record_digest(rec)
        if rec["text"] != want:
            bad += 1
            print(f"TEXT MISMATCH {pages_dir} {url}")
        elif against is not None and against.get(url) != d:
            bad += 1
            print(f"RECORD MISMATCH {pages_dir} {url}")
    if against is not None:
        for url in sorted(set(against) - set(digests)):
            bad += 1
            print(f"MISSING {pages_dir} {url}")
    return t.num_rows, bad, digests


def check_output(out_dir: str, against: dict | None) -> tuple[int, int, dict]:
    """``(rows, mismatches, {url: digest})`` for one ``extract_pipeline``
    output directory (every EXTRACT_SCHEMA column of each row). A url
    on more than one row is a mismatch."""
    t = pq.read_table(out_dir, columns=EXTRACT_SCHEMA.names).sort_by("url")
    digests: dict = {}
    bad = 0
    for rec in t.to_pylist():
        url = rec["url"]
        if url in digests:
            bad += 1
            print(f"DUPLICATE {out_dir} {url}")
        digests[url] = d = record_digest(rec)
        if against is not None and against.get(url) != d:
            bad += 1
            print(f"RECORD MISMATCH {out_dir} {url}")
    if against is not None:
        for url in sorted(set(against) - set(digests)):
            bad += 1
            print(f"MISSING {out_dir} {url}")
    return t.num_rows, bad, digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("pages_dirs", nargs="+",
                   help="pages tables (Parquet dirs or files), or with --outputs "
                        "extract_pipeline output dirs")
    p.add_argument("--outputs", action="store_true",
                   help="digest extract_pipeline output dirs instead of re-extracting pages")
    p.add_argument("--save", help="write per-row record digests to this JSON file")
    p.add_argument("--against", help="compare per-row record digests with this JSON file")
    args = p.parse_args(argv)

    ref = None
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            ref = json.load(f)
    saved: dict = {}
    total = total_bad = 0
    for d in args.pages_dirs:
        key = os.path.abspath(d)
        against = None if ref is None else ref.get(key, {})
        n, bad, digests = (check_output if args.outputs else check_table)(d, against)
        saved[key] = digests
        total += n
        total_bad += bad
        whole = hashlib.sha256("".join(digests[u] for u in sorted(digests)).encode()).hexdigest()
        print(f"{d}: rows={n} mismatches={bad} records_sha256={whole}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(saved, f, sort_keys=True)
    print(f"total: rows={total} mismatches={total_bad}")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
