"""sources/planned.py — the footer-planned Parquet read shared by the
crawl, the flagship extract/verify pipelines and the offline corpus
scan: the plan in process (no Ray), the flagship on it end to end (empty
input, the read plan in ``_manifest.json``), and the structure rule
that keeps it the only read of those modules."""

import ast
import json
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_scraper_ray.sources import planned

PKG = pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray"


def _write(path, n_rows, group_rows, columns=("url", "html", "text")):
    t = pa.table({c: [f"{c}-{path.stem}-{i}" for i in range(n_rows)] for c in columns})
    pq.write_table(t, str(path), row_group_size=group_rows)
    return str(path)


@pytest.fixture
def uneven_files(tmp_path):
    """Several uneven row groups, a file that lacks ``text`` and a
    zero-row file."""
    return [_write(tmp_path / "a.parquet", 1000, 300),  # 300, 300, 300, 100
            _write(tmp_path / "b.parquet", 0, 10),
            _write(tmp_path / "c.parquet", 77, 1000, columns=("url", "html")),
            _write(tmp_path / "d.parquet", 530, 512)]  # 512, 18


def _cpus(monkeypatch, n):
    monkeypatch.setattr(planned, "cluster_cpus", lambda: n)


@pytest.mark.parametrize("cpus", [1, 4, 32])
@pytest.mark.parametrize("block_rows", [1, 7, 128, 256, 10_000])
def test_plan_reads_every_row_once_in_order(monkeypatch, uneven_files, cpus, block_rows):
    """Every row appears exactly once, in (file, row group, offset)
    order; no slice holds more than ``block_rows`` rows; the block count
    is ``max(1, min(2×CPU, ⌈rows / block_rows⌉))``; a file's missing
    column is left out."""
    _cpus(monkeypatch, cpus)
    items, n_blocks = planned.plan_read(uneven_files, block_rows)
    n_rows = 1000 + 77 + 530
    assert n_blocks == max(1, min(2 * cpus, -(-n_rows // block_rows)))
    assert len(items) >= n_blocks
    assert max(it["hi"] - it["lo"] for it in items) <= block_rows
    assert all(it["hi"] > it["lo"] for it in items)
    keys = [(it["file"], it["rg"], it["lo"]) for it in items]
    assert keys == sorted(keys)

    got = list(planned._read_items(pa.Table.from_pylist(items), ["url", "text"],
                                   lambda t: t))
    assert [t.num_rows for t in got] == [it["hi"] - it["lo"] for it in items]
    assert [t.column_names for t in got] == [
        ["url"] if it["file"].endswith("c.parquet") else ["url", "text"] for it in items]
    want = [u for f in uneven_files for u in pq.read_table(f, columns=["url"])["url"].to_pylist()]
    assert [u for t in got for u in t["url"].to_pylist()] == want


def test_read_items_reads_a_row_group_once(monkeypatch, tmp_path):
    """Consecutive slices of one row group share one read of it."""
    f = _write(tmp_path / "a.parquet", 1000, 500)
    _cpus(monkeypatch, 1)
    items, _ = planned.plan_read([f], 100)
    reads = []
    real = pq.ParquetFile.read_row_group

    def counted(self, i, *a, **kw):
        reads.append(i)
        return real(self, i, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counted)
    got = list(planned._read_items(pa.Table.from_pylist(items), ["url"], lambda t: t))
    assert [t.num_rows for t in got] == [100] * 10
    assert reads == [0, 1]


def test_planner_without_rows(monkeypatch, tmp_path):
    """Zero-row files (or none) plan no item, and the read is ``None``."""
    _cpus(monkeypatch, 4)
    files = [_write(tmp_path / "a.parquet", 0, 10), _write(tmp_path / "b.parquet", 0, 10)]
    assert planned.plan_read(files, 256) == ([], 0)
    assert planned.plan_read([], 256) == ([], 0)
    assert planned.planned_read(planned.plan_read(files, 256), ["url"], lambda t: t) is None


def test_crawl_plans_are_unchanged(monkeypatch, tmp_path):
    """The crawl's reads (``block_rows=READ_BLOCK_ROWS``) plan the items
    of the share rule they had before the planner was shared: at 4 CPUs
    the 20,000-row single-row-group seed file of
    test_seed_read_plans_row_slices is 3 even slices in 3 blocks, and
    any read of at most 2×CPU×READ_BLOCK_ROWS rows is cut by
    ``⌈rows / blocks⌉`` alone."""
    from web_scraper_ray.crawl.frontier import READ_BLOCK_ROWS

    def share_rule(files, cpus):
        groups = [(f, g, md.row_group(g).num_rows) for f in files
                  for md in [pq.read_metadata(f)] for g in range(md.num_row_groups)]
        n_rows = sum(n for _, _, n in groups)
        blocks = max(1, min(2 * cpus, -(-n_rows // READ_BLOCK_ROWS)))
        share = -(-n_rows // blocks)
        return [{"file": f, "rg": g, "lo": i * n // cuts, "hi": (i + 1) * n // cuts}
                for f, g, n in groups for cuts in [-(-n // share)] for i in range(cuts)], blocks

    seeds = _write(tmp_path / "seeds.parquet", 20_000, 1 << 20, columns=("url",))
    _cpus(monkeypatch, 4)
    items, n_blocks = planned.plan_read([seeds], READ_BLOCK_ROWS)
    assert n_blocks == 3
    assert [(it["lo"], it["hi"]) for it in items] == [(0, 6666), (6666, 13333), (13333, 20000)]

    runs = [_write(tmp_path / f"part-{b:05d}.parquet", n, 4096, columns=("url",))
            for b, n in enumerate([7000, 0, 4097, 12_000, 3])]
    for cpus in (1, 2, 4, 32):
        _cpus(monkeypatch, cpus)
        for files in ([seeds], runs, runs[:3], [runs[4]]):
            if sum(pq.read_metadata(f).num_rows for f in files) <= 2 * cpus * READ_BLOCK_ROWS:
                assert planned.plan_read(files, READ_BLOCK_ROWS) == share_rule(files, cpus)


def test_planned_reads_take_local_paths(tmp_path):
    with pytest.raises(ValueError, match="local path"):
        planned.local_parquet_files("s3://bucket/pages")
    with pytest.raises(FileNotFoundError):
        planned.local_parquet_files(str(tmp_path / "missing"))
    (tmp_path / "sub").mkdir()
    f = _write(tmp_path / "sub" / "a.parquet", 3, 10)
    (tmp_path / "notes.txt").write_text("x")
    assert planned.local_parquet_files(str(tmp_path)) == [f]
    assert planned.local_parquet_files(f) == [f]


def _zero_row_pages(d):
    d.mkdir()
    schema = pa.schema([("url", pa.string()), ("html", pa.binary()), ("text", pa.string())])
    for k in range(2):
        pq.write_table(schema.empty_table(), str(d / f"part-{k:05d}.parquet"))
    return str(d)


def test_flagship_over_zero_row_pages(ray_session, tmp_path):
    """A pages directory of zero-row files extracts and verifies to zero
    rows, without an exception, and the manifest says so."""
    from web_scraper_ray.pipelines.flagship import extract_pipeline, verify_pipeline

    pages = _zero_row_pages(tmp_path / "pages")
    out = str(tmp_path / "out")
    assert extract_pipeline(pages, out_dir=out).count() == 0
    assert extract_pipeline(pages).count() == 0
    assert verify_pipeline(pages).count() == 0
    manifest = json.loads((tmp_path / "out" / "_manifest.json").read_text())
    assert (manifest["n_rows"], manifest["n_blocks"]) == (0, 0)


def test_extract_manifest_records_the_read_plan(ray_session, small_corpus, tmp_path):
    """``_manifest.json`` holds the read plan next to the row count: a
    run explains its task count from disk, one Parquet file per read
    task."""
    import ray

    from web_scraper_ray.pipelines.flagship import extract_pipeline

    out = tmp_path / "out"
    extract_pipeline(f"{small_corpus}/pages", out_dir=str(out), batch_size=16)
    manifest = json.loads((out / "_manifest.json").read_text())
    cpus = int(ray.cluster_resources()["CPU"])
    assert manifest["n_rows"] == 120
    assert manifest["block_rows"] == 16
    assert manifest["n_blocks"] == max(1, min(2 * cpus, -(-120 // 16)))
    assert manifest["n_files"] == manifest["n_blocks"]


def test_flagship_reads_are_footer_planned():
    """The flagship pipelines and the offline corpus scan read through
    ``sources/planned.py``: pipelines/flagship.py and stages/fetch.py name
    no ``read_parquet`` and no ``_default_blocks``, and no module defines
    ``read_pages``."""
    for rel in ("pipelines/flagship.py", "stages/fetch.py"):
        tree = ast.parse((PKG / rel).read_text())
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        assert not names & {"read_parquet", "_default_blocks"}, rel
    defs = [f"{p.relative_to(PKG)}:{n.name}" for p in sorted(PKG.rglob("*.py"))
            for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "read_pages"]
    assert defs == []
