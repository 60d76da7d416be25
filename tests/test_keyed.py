"""ops/keyed.py — the one keyed-state table behind the dedup, boilerplate
and span ops: placement parity of the query core, the shard-loss
failure policy, the structure rule that keeps it the only one, and the
rule that the crawl frontier keeps no actor state at all."""

import ast
import pathlib

import numpy as np
import pytest


def _table_rows():
    rng = np.random.default_rng(5)
    keys = rng.integers(-50, 50, 400)
    return [{"k": int(k), "p": int(p)}
            for k, p in zip(keys, rng.integers(0, 6, 400))]


def test_placements_answer_alike(ray_session):
    """broadcast and sharded tables give identical contains/lookup
    answers, equal to a dict model (repeated pairs count once,
    negative keys route like the rest)."""
    import ray.data

    from web_scraper_ray.ops.keyed import KeyTable

    rows = _table_rows()
    model = {}
    for r in rows:
        model.setdefault(r["k"], set()).add(r["p"])
    q = np.arange(-60, 60, dtype=np.int64)
    want_hit = np.array([int(k) in model for k in q])
    want_pairs = [(i, p) for i, k in enumerate(q)
                  for p in sorted(model.get(int(k), ()))]
    for placement in ("broadcast", "sharded"):
        ds = ray.data.from_items(rows, override_num_blocks=3)
        t = KeyTable(ds, "k", "p", placement=placement, n_shards=3)
        assert (t.contains(q) == want_hit).all(), placement
        qi, p = t.lookup(q)
        assert list(zip(qi.tolist(), p.tolist())) == want_pairs, placement
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


def test_keyed_state_lives_only_in_keyed_module():
    """No ``@ray.remote`` class under ops/ outside ops/keyed.py: hash-
    sharded keyed state has one implementation (KeyTable), not one
    actor class per op."""
    ops = pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray" / "ops"
    found = []
    for path in sorted(ops.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    _is_ray_remote(d) for d in node.decorator_list):
                found.append(f"{path.name}:{node.name}")
    assert found == ["keyed.py:_Shard"]



def test_crawl_frontier_starts_no_actor():
    """The crawl keeps its state in the frontier runs: crawl/frontier.py
    defines no ``@ray.remote`` class, wraps nothing in ``ray.remote(...)``
    at run time, and uses no actor-backed keyed state."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "web_scraper_ray"
            / "crawl" / "frontier.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
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
