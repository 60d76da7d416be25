"""ops/keyed.py — the one keyed-state table behind the dedup, boilerplate
and span ops: placement parity of the query core, the shared shard pool
(tables never mix keys, a collected table frees its keys), the shard-loss
failure policy, the structure rule that keeps it the only one, and the
rule that the crawl frontier keeps no actor state at all."""

import ast
import gc
import pathlib
import time

import numpy as np
import pytest


def _table_rows():
    rng = np.random.default_rng(5)
    keys = rng.integers(-50, 50, 400)
    return [{"k": int(k), "p": int(p)}
            for k, p in zip(keys, rng.integers(0, 6, 400))]


def _model(rows):
    model = {}
    for r in rows:
        model.setdefault(r["k"], set()).add(r["p"])
    return model


def _assert_answers(t, model):
    """``t`` answers ``contains``/``lookup`` exactly like ``model``."""
    q = np.arange(-70, 70, dtype=np.int64)
    assert (t.contains(q) == np.array([int(k) in model for k in q])).all()
    qi, p = t.lookup(q)
    assert list(zip(qi.tolist(), p.tolist())) == [
        (i, p) for i, k in enumerate(q) for p in sorted(model.get(int(k), ()))]


def test_placements_answer_alike(ray_session):
    """broadcast and sharded tables give identical contains/lookup
    answers, equal to a dict model (repeated pairs count once,
    negative keys route like the rest)."""
    import ray.data

    from web_scraper_ray.ops.keyed import KeyTable

    rows = _table_rows()
    for placement in ("broadcast", "sharded"):
        ds = ray.data.from_items(rows, override_num_blocks=3)
        t = KeyTable(ds, "k", "p", placement=placement, n_shards=3)
        _assert_answers(t, _model(rows))
        qi, p = t.lookup(np.empty(0, np.int64))
        assert len(qi) == len(p) == 0, placement


def test_dead_shard_raises_named_error(ray_session):
    import ray
    import ray.data

    from web_scraper_ray.ops.keyed import KeyShardLost, KeyTable

    t = KeyTable(ray.data.from_items(_table_rows()), "k", "p",
                 placement="sharded", n_shards=4, op="paragraph_dedup")
    q = np.arange(-60, 60, dtype=np.int64)
    assert t.contains(q).any()
    ray.kill(t._shards[1])
    with pytest.raises(KeyShardLost, match="paragraph_dedup: key shard 1 of 4"):
        t.contains(q)
    with pytest.raises(KeyShardLost, match="key shard 1 of 4"):
        t.lookup(q)



def _actor_ids(shards):
    return [s._actor_id.hex() for s in shards]


def _sharded(rows, n_shards):
    import ray.data

    from web_scraper_ray.ops.keyed import KeyTable

    return KeyTable(ray.data.from_items(rows, override_num_blocks=3), "k", "p",
                    placement="sharded", n_shards=n_shards)


def _kill(shard):
    """``ray.kill`` the actor and wait until calls to it fail."""
    import ray

    ray.kill(shard)
    for _ in range(200):
        try:
            ray.get(shard.__ray_ready__.remote())
        except ray.exceptions.RayActorError:
            return
        time.sleep(0.05)
    raise AssertionError("killed shard actor still answers")


def test_tables_share_the_pool_and_never_mix_keys(ray_session):
    """Two live tables with overlapping keys and different payloads use
    the same actors, yet each answers like its own dict model; a wider
    third table grows the pool and changes neither answer."""
    from web_scraper_ray.ops import keyed

    rows_a = _table_rows()
    rows_b = [{"k": r["k"] + 7, "p": r["p"] + 100} for r in rows_a[::2]]
    a, b = _sharded(rows_a, 3), _sharded(rows_b, 3)
    assert _actor_ids(a._shards) == _actor_ids(b._shards)
    _assert_answers(a, _model(rows_a))
    _assert_answers(b, _model(rows_b))

    wide = len(keyed._pool) + 2
    rows_c = [{"k": r["k"], "p": r["p"] + 1000} for r in rows_a[1::3]]
    c = _sharded(rows_c, wide)
    assert len(keyed._pool) == wide
    assert _actor_ids(c._shards)[:3] == _actor_ids(a._shards)
    _assert_answers(a, _model(rows_a))
    _assert_answers(b, _model(rows_b))
    _assert_answers(c, _model(rows_c))


def test_table_built_after_a_kill_gets_a_fresh_actor(ray_session):
    """A dead pool actor is replaced when the next table is built: the
    new table answers correctly, the old one still raises."""
    from web_scraper_ray.ops.keyed import KeyShardLost

    rows = _table_rows()
    old = _sharded(rows, 4)
    dead = _actor_ids(old._shards)[1]
    _kill(old._shards[1])
    new = _sharded(rows, 4)
    ids = _actor_ids(new._shards)
    assert dead not in ids
    assert ids[:1] + ids[2:] == _actor_ids(old._shards)[:1] + _actor_ids(
        old._shards)[2:]
    _assert_answers(new, _model(rows))
    with pytest.raises(KeyShardLost, match="key shard 1 of 4"):
        old.contains(np.arange(-60, 60, dtype=np.int64))


def test_stale_session_builds_a_new_pool(ray_session, monkeypatch):
    """A pool recorded under another session is never reused."""
    from web_scraper_ray.ops import keyed

    rows = _table_rows()
    before = _actor_ids(_sharded(rows, 2)._shards)
    monkeypatch.setattr(keyed, "_pool_session", "a-finished-session")
    t = _sharded(rows, 2)
    assert not set(_actor_ids(t._shards)) & set(before)
    assert _actor_ids(keyed._pool) == _actor_ids(t._shards)
    _assert_answers(t, _model(rows))


def test_collected_table_frees_its_keys(ray_session):
    """Collecting a sharded KeyTable drops its id on every shard: asked
    directly with the old id, the shards answer empty. The finalizer of
    a table from another session touches nothing."""
    import ray

    from web_scraper_ray.ops import keyed

    t = _sharded(_table_rows(), 3)
    shards, tid = t._shards, t._tid
    q = np.arange(-60, 60, dtype=np.int64)
    keyed._drop("a-finished-session", shards, tid)
    assert any(ray.get(s.contains.remote(tid, q)).any() for s in shards)
    del t
    gc.collect()
    for s in shards:
        assert not ray.get(s.contains.remote(tid, q)).any()
        qi, p = ray.get(s.lookup.remote(tid, q))
        assert len(qi) == len(p) == 0

def _docs():
    import ray.data

    return ray.data.from_items([
        {"doc_id": i, "url": f"https://h{i % 2}.example/{i}",
         "text": "nav line\n\nbody one two three four five six seven"}
        for i in range(6)])


@pytest.mark.parametrize("op", ["subtract_ids", "strip_boilerplate",
                                "paragraph_dedup", "duplicate_span_stats"])
def test_bucketed_mode_is_gone(ray_session, op):
    from web_scraper_ray.ops.boilerplate import strip_boilerplate
    from web_scraper_ray.ops.dedup import paragraph_dedup, subtract_ids
    from web_scraper_ray.ops.spans import duplicate_span_stats

    calls = {
        "subtract_ids": lambda: subtract_ids(
            _docs(), _docs().select_columns(["doc_id"]), drop_col="doc_id",
            mode="bucketed"),
        "strip_boilerplate": lambda: strip_boilerplate(
            _docs(), mode="bucketed"),
        "paragraph_dedup": lambda: paragraph_dedup(_docs(), mode="bucketed"),
        "duplicate_span_stats": lambda: duplicate_span_stats(
            _docs(), n=4, mode="bucketed"),
    }
    with pytest.raises(ValueError, match=f"unknown {op} mode: bucketed"):
        calls[op]().materialize()


def _is_ray_remote(dec: ast.expr) -> bool:
    fn = dec.func if isinstance(dec, ast.Call) else dec
    return isinstance(fn, ast.Attribute) and fn.attr == "remote"


def _shard_spawns(node: ast.AST, scope: str, path: str, found: list):
    """Every ``_Shard.remote()`` / ``_Shard.options(...).remote()``
    under ``node``, as ``file:enclosing function``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
            _shard_spawns(child, inner, path, found)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "remote"
                and ast.unparse(child.func.value).startswith("_Shard")):
            found.append(f"{path}:{scope}")
        _shard_spawns(child, scope, path, found)


def test_keyed_state_lives_only_in_keyed_module():
    """No ``@ray.remote`` class under ops/ outside ops/keyed.py: hash-
    sharded keyed state has one implementation (KeyTable), not one
    actor class per op. And only the pool helper starts ``_Shard``
    actors: no op and no KeyTable path spawns actors per table."""
    ops = pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray" / "ops"
    found, spawns = [], []
    for path in sorted(ops.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    _is_ray_remote(d) for d in node.decorator_list):
                found.append(f"{path.name}:{node.name}")
        _shard_spawns(tree, "", path.name, spawns)
    assert found == ["keyed.py:_Shard"]
    assert spawns == ["keyed.py:_pool_shards"]


def _driver_ray_gets(node, depth=0, out=None):
    """``ray.get(...)`` calls under ``node`` outside any nested function
    (closures and lambdas inside a function run on workers)."""
    out = [] if out is None else out
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            if depth == 0:
                _driver_ray_gets(child, 1, out)
            continue
        if isinstance(child, ast.Call) and ast.unparse(child.func) == "ray.get":
            out.append(child)
        _driver_ray_gets(child, depth, out)
    return out


def test_crawl_frontier_starts_no_actor():
    """The crawl keeps its state in the frontier runs: crawl/frontier.py
    defines no ``@ray.remote`` class, wraps nothing in ``ray.remote(...)``
    at run time, and uses no actor-backed keyed state. The driver pulls
    no state either: its only ``ray.get`` is the budget cutoff's tuple.
    And no process holds a round's admitted set for the corpus fetch."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray"
            / "crawl" / "frontier.py")
    tree = ast.parse(path.read_text())
    gets = [ast.unparse(c.args[0].func) if c.args
            and isinstance(c.args[0], ast.Call) else ast.unparse(c)
            for c in _driver_ray_gets(tree)]
    assert gets == ["_budget_cutoff.remote"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                _is_ray_remote(d) for d in node.decorator_list):
            found.append(f"remote class {node.name}")
        elif (isinstance(node, ast.Call) and node.args
              and ast.unparse(node.func) == "ray.remote"):
            found.append(f"ray.remote(...) wrap at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in (
                "SeenSet", "SeenShard", "KeyTable"):
            found.append(f"{node.id} at line {node.lineno}")
    assert found == []
    # the round's admitted set is never broadcast or loaded whole: no
    # object-store load of an admitted table and no ray.put anywhere
    uses = []
    for fn in tree.body:
        for node in ast.walk(fn):
            if ((isinstance(node, ast.Name) and node.id == "_load_admitted")
                    or (isinstance(node, ast.Call)
                        and ast.unparse(node.func) == "ray.put")):
                uses.append(getattr(fn, "name", "<module>"))
    assert uses == []


def test_crawl_admission_is_arrow_native():
    """The admission path stays in Arrow: the combiner, the bucket task,
    the seen probe and the run writer never touch pandas, and both of
    ``_admit``'s Ray Data stages ask for pyarrow batches. The seed read
    is planned from Parquet footers: ``_seed_candidates`` never calls
    ``read_parquet``, whose datasource blocks the driver on a remote
    sampling task."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray"
            / "crawl" / "frontier.py")
    fns = {n.name: n for n in ast.parse(path.read_text()).body
           if isinstance(n, ast.FunctionDef)}
    for name in ("_precombine", "_admit_bucket", "_probe_runs", "_write_run"):
        assert not [n for n in ast.walk(fns[name])
                    if isinstance(n, ast.Name) and n.id == "pd"], name
    formats = [ast.unparse(kw.value) for n in ast.walk(fns["_admit"])
               if isinstance(n, ast.Call) for kw in n.keywords
               if kw.arg == "batch_format"]
    assert formats == ["'pyarrow'", "'pyarrow'"]
    assert not [n for n in ast.walk(fns["_seed_candidates"])
                if isinstance(n, ast.Attribute) and n.attr == "read_parquet"]


def test_crawl_reads_are_footer_planned():
    """Round r's admitted rows have one definition, frontier r's runs up
    to the manifest's cutoff: crawl/frontier.py calls no
    ``read_parquet`` (every Dataset read of seeds or runs is planned from
    footers), and ``CrawlConfig`` has no ``live_requeue`` mode knob (a
    live crawl has one fetch pool, with or without a rate limiter)."""
    import dataclasses

    from web_scraper_ray.crawl.config import CrawlConfig

    path = (pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray"
            / "crawl" / "frontier.py")
    sites = [n.lineno for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Attribute) and n.attr == "read_parquet"]
    assert sites == []
    assert "live_requeue" not in {f.name for f in dataclasses.fields(CrawlConfig)}


def test_live_fetch_is_paced_by_the_frontier():
    """A live crawl is paced by one fetch task per frontier run
    (``crawl/frontier.py:_PacedFetcher``): the token-bucket limiter and
    its fetch wrappers are gone, no module names them, ``CrawlConfig``
    has no fetch batch size, and ``_live_fetch`` stays one streaming
    execution (no ``materialize`` or ``count``)."""
    import dataclasses

    from web_scraper_ray.crawl.config import CrawlConfig

    pkg = pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray"
    assert not (pkg / "crawl" / "ratelimit.py").exists()
    names = ("RateLimiter", "ThrottledFetcher", "fetch_with_requeue", "rate_limiter")
    assert [f"{p.relative_to(pkg)}: {n}" for p in sorted(pkg.rglob("*.py"))
            for n in names if n in p.read_text()] == []
    assert "fetch_batch_size" not in {f.name for f in dataclasses.fields(CrawlConfig)}
    live = [n for n in ast.parse((pkg / "crawl" / "frontier.py").read_text()).body
            if isinstance(n, ast.FunctionDef) and n.name == "_live_fetch"]
    assert len(live) == 1
    assert [n.lineno for n in ast.walk(live[0]) if isinstance(n, ast.Attribute)
            and n.attr in ("materialize", "count")] == []


def _ops_tree(name: str) -> ast.Module:
    path = pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray" / "ops" / name
    return ast.parse(path.read_text())


def _pandas_batch_formats(node: ast.AST) -> list:
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
            for kw in n.keywords if kw.arg == "batch_format"
            and ast.unparse(kw.value) == "'pandas'"]


def test_curate_ops_are_arrow_native():
    """ops/boilerplate.py imports no pandas and asks Ray Data for no
    pandas batch; neither does ``paragraph_dedup`` (ops/dedup.py)."""
    boiler = _ops_tree("boilerplate.py")
    imports = [a.name for n in ast.walk(boiler) if isinstance(n, ast.Import)
               for a in n.names] + [n.module for n in ast.walk(boiler)
                                    if isinstance(n, ast.ImportFrom)]
    assert not [m for m in imports if m and m.split(".")[0] == "pandas"]
    assert _pandas_batch_formats(boiler) == []
    para = [n for n in _ops_tree("dedup.py").body
            if isinstance(n, ast.FunctionDef) and n.name == "paragraph_dedup"]
    assert len(para) == 1
    assert _pandas_batch_formats(para[0]) == []
    assert not [n for n in ast.walk(para[0]) if isinstance(n, ast.Name) and n.id == "pd"]


def test_explicit_modes_build_the_table_from_the_lazy_decision():
    """The keyed ops materialize their decision Dataset only where
    ``mode == "auto"`` measures it: with an explicit mode the KeyTable
    build runs the decision shuffle in the same execution."""
    fns = {n.name: n for name in ("boilerplate.py", "dedup.py")
           for n in _ops_tree(name).body if isinstance(n, ast.FunctionDef)}
    for name in ("strip_boilerplate", "paragraph_dedup", "subtract_ids"):
        auto = [n for n in ast.walk(fns[name]) if isinstance(n, ast.If)
                and ast.unparse(n.test) == "mode == 'auto'"]
        assert len(auto) == 1, name
        inside = {id(n) for n in ast.walk(auto[0])}
        stray = [n.lineno for n in ast.walk(fns[name])
                 if isinstance(n, ast.Attribute) and n.attr == "materialize"
                 and id(n) not in inside]
        assert stray == [], name
