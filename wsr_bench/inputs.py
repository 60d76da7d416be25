"""Benchmark inputs: a synthetic Common-Crawl-style corpus per
``(seed, shape)`` built by ``web_scraper_ray.corpus``, plus the
reference results the correctness checks compare against.

Everything here runs before the Ray session starts and outside every
timing. The cache key is the seed, the shape, a digest of the generated
html and a digest of the program's and the benchmark's sources (which
compute the corpus ``text`` oracle and the references), so a changed
generator, program or check can never reuse a stale input.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Shape:
    n_pages: int
    links_per_page: int
    n_seeds: int
    n_files: int = 4

    @property
    def n_hosts(self) -> int:
        return max(16, self.n_pages // 400)


#: ``default``: bench.py's headline shape scaled to one core (6 links
#: per page, seeds = pages / 3); ``dense``: 24 links per page and few
#: seeds, so discovery and admission dominate over extraction
SHAPES = {
    "full": {"default": Shape(1500, 6, 500), "dense": Shape(1500, 24, 100)},
    "tiny": {"default": Shape(200, 6, 60), "dense": Shape(200, 24, 20)},
}


def _sources_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(p for pkg in ("web_scraper_ray", "wsr_bench")
                       for p in glob.glob(os.path.join(root, pkg, "**", "*.py"),
                                          recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _html_digest(seed: int, shape: Shape) -> str:
    from web_scraper_ray.corpus import page_html

    h = hashlib.sha256()
    for i in range(shape.n_pages):
        h.update(page_html(seed, i, shape.n_pages, shape.n_hosts,
                           links_per_page=shape.links_per_page).encode())
    return h.hexdigest()


def _write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _read_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


class Inputs:
    """One cached corpus directory: ``pages/``, ``seeds.parquet``,
    ``robots.parquet`` and ``refs.json`` (reference digests)."""

    def __init__(self, root: str, work_dir: str, seed: int, shape: Shape):
        self.seed = seed
        self.shape = shape
        key = hashlib.sha256(json.dumps(
            [seed, asdict(shape), _html_digest(seed, shape),
             _sources_digest(root)]).encode()).hexdigest()[:20]
        self.dir = os.path.join(work_dir, "inputs", key)
        if not os.path.exists(os.path.join(self.dir, "_READY")):
            self._build()

    def _build(self) -> None:
        from web_scraper_ray.corpus import build_corpus

        tmp = self.dir + ".building"
        shutil.rmtree(tmp, ignore_errors=True)
        s = self.shape
        build_corpus(tmp, n_pages=s.n_pages, n_hosts=s.n_hosts, seed=self.seed,
                     links_per_page=s.links_per_page, n_seeds=s.n_seeds,
                     shard_rows=-(-s.n_pages // s.n_files), use_ray=False)
        open(os.path.join(tmp, "_READY"), "w").close()
        shutil.rmtree(self.dir, ignore_errors=True)
        os.replace(tmp, self.dir)

    @property
    def pages(self) -> str:
        return os.path.join(self.dir, "pages")

    @property
    def seeds(self) -> str:
        return os.path.join(self.dir, "seeds.parquet")

    @property
    def robots(self) -> str:
        return os.path.join(self.dir, "robots.parquet")

    def describe(self) -> dict:
        return {**asdict(self.shape), "n_hosts": self.shape.n_hosts}

    def ref(self, name: str, compute):
        """Reference result ``name``, computed once per input by
        ``compute()`` and cached in ``refs.json``."""
        path = os.path.join(self.dir, "refs.json")
        refs = _read_json(path)
        if name not in refs:
            refs[name] = compute()
            _write_json(path, refs)
        return refs[name]
