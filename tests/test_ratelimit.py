"""Live-crawl politeness: the paced per-run fetch task
(``crawl/frontier.py:_PacedFetcher``), run in process on a fake clock
through a recording inner fetcher."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_scraper_ray.crawl import frontier
from web_scraper_ray.crawl.robots import RobotsRules
from web_scraper_ray.stages.fetch import FETCH_SCHEMA

T0 = 100.0


class FakeClock:
    """``now()``/``sleep(dt)``: sleeping advances time by exactly ``dt``."""

    def __init__(self):
        self.t = T0
        self.sleeps = 0

    def now(self):
        return self.t

    def sleep(self, dt):
        self.sleeps += 1
        if self.sleeps > 10_000:
            raise RuntimeError("the pacer keeps sleeping: livelock")
        self.t += dt


class Recorder:
    """Inner fetcher: records ``(url, now)`` per row, then takes
    ``cost`` seconds of the clock per call; a url in ``missing`` answers
    ``miss``, every other url ``fetched``."""

    def __init__(self, at, log, missing=(), cost=0.0):
        self.at, self.log, self.missing, self.cost = at, log, set(missing), cost

    def __call__(self, batch):
        urls = batch["url"].to_pylist()
        self.log.extend((u, self.at.now()) for u in urls)
        self.at.t += self.cost
        ok = [u not in self.missing for u in urls]
        return pa.table({
            "url": urls,
            "status": ["fetched" if o else "miss" for o in ok],
            "html": [f"<p>{u}</p>".encode() if o else b"" for u, o in zip(urls, ok)],
            "error": [""] * len(urls),
        }, schema=FETCH_SCHEMA)


def _write_run(tmp_path, counts, delays):
    """One frontier run: ``counts[h]`` rows of host ``h`` with the
    admission's virtual times ``vt = rank × delay_h``."""
    rows = [{"url": f"https://{h}/{k}", "host": h, "priority": k % 2,
             "pvt": -1.0, "pli": k, "vt": float(k * delays[h])}
            for h, n in counts.items() for k in range(n)]
    ckpt = str(tmp_path)
    os.makedirs(frontier._frontier_dir(ckpt, 0), exist_ok=True)
    frontier._write_run(pa.Table.from_pylist(rows, schema=frontier.FRONTIER_SCHEMA),
                        ckpt, 0, 0)
    return frontier._run_path(ckpt, 0, 0)


def _pace(path, delays, cutoff=None, missing=(), errors_dir=None, cost=0.0):
    clock, log = FakeClock(), []
    rules = RobotsRules({}, delays, default_delay_ms=100)
    pacer = frontier._PacedFetcher(
        inner_cls=Recorder, load_robots=lambda: rules, cutoff=cutoff,
        errors_dir=errors_dir, clock=clock, at=clock, log=log, missing=missing,
        cost=cost)
    out = list(pacer(pa.table({"file": [path]})))
    return pa.concat_tables(out) if out else None, log, clock


def _starts(log):
    by_host = {}
    for url, t in log:
        by_host.setdefault(url.split("/")[2], []).append(t)
    return by_host


def test_per_host_spacing(tmp_path):
    """Each host's first fetch starts at least ``delay_h`` after the
    task's start, its next ones at least ``delay_h`` apart, and its rows
    go in the frontier's order (vt first)."""
    delays = {"slow.example": 1000, "mid.example": 100, "none.example": 0}
    counts = {"slow.example": 4, "mid.example": 6, "none.example": 3}
    path = _write_run(tmp_path, counts, delays)
    _, log, _ = _pace(path, delays)
    for host, starts in _starts(log).items():
        d = delays[host] / 1000
        assert len(starts) == counts[host]
        assert starts[0] >= T0 + d
        assert all(b - a >= d - 1e-9 for a, b in zip(starts, starts[1:])), host
    run = pq.read_table(path)
    order = sorted(zip(*(run[c].to_pylist() for c in ["host"] + frontier.ORDER_KEYS)))
    for host in counts:
        assert [u for u, _ in log if u.split("/")[2] == host] == [
            r[-1] for r in order if r[0] == host]


def test_late_calls_never_burst_a_host(tmp_path):
    """A fetch call that takes longer than a host's delay (30 ms a call,
    delays of 10 ms) makes that host late, never bursty: one row per
    host per call, the next due ``delay_h`` after the call returned."""
    delays = {"a.example": 10, "b.example": 10, "c.example": 0}
    counts = {"a.example": 6, "b.example": 5, "c.example": 4}
    _, log, _ = _pace(_write_run(tmp_path, counts, delays), delays, cost=0.03)
    assert len(log) == sum(counts.values())
    for host, starts in _starts(log).items():
        d = delays[host] / 1000
        assert all(b - a >= d - 1e-9 for a, b in zip(starts, starts[1:])), host


def test_per_host_independence(tmp_path):
    """A slow host never holds back a fast one: with delays of 10 ms and
    1000 ms, all of the fast host's rows start before the slow host's
    second row."""
    delays = {"slow.example": 1000, "fast.example": 10}
    counts = {"slow.example": 3, "fast.example": 8}
    _, log, clock = _pace(_write_run(tmp_path, counts, delays), delays)
    starts = _starts(log)
    assert max(starts["fast.example"]) < starts["slow.example"][1]
    # the task takes the slow host's own schedule, not a sum over hosts
    assert clock.now() - T0 == pytest.approx(3.0, abs=1e-3)


def test_no_epsilon_livelock(tmp_path):
    """A clock that sleeps exactly the returned wait always makes
    progress: a 5 ms delay, 50 rows, at most two sleeps per row."""
    delays = {"h.example": 5}
    _, log, clock = _pace(_write_run(tmp_path, {"h.example": 50}, delays), delays)
    assert len(log) == 50
    assert clock.sleeps <= 100


def test_every_row_fetched_once_with_meta(tmp_path):
    """Every row of the run reaches the inner fetcher exactly once. The
    fetched rows come out with the run's META_COLUMNS, and a row the
    fetcher misses lands in ``errors_dir`` instead."""
    delays = {"a.example": 20, "b.example": 0, "c.example": 50}
    path = _write_run(tmp_path, {"a.example": 5, "b.example": 4, "c.example": 3},
                      delays)
    run = pq.read_table(path)
    missing = {"https://a.example/2", "https://c.example/0"}
    errors = str(tmp_path / "errors")
    out, log, _ = _pace(path, delays, missing=missing, errors_dir=errors)
    assert sorted(u for u, _ in log) == sorted(run["url"].to_pylist())
    cols = ["url"] + frontier.META_COLUMNS
    want = sorted(r for r in zip(*(run[c].to_pylist() for c in cols))
                  if r[0] not in missing)
    assert sorted(zip(*(out[c].to_pylist() for c in cols))) == want
    assert out["html"].to_pylist() == [f"<p>{u}</p>".encode()
                                      for u in out["url"].to_pylist()]
    lost = pq.read_table(errors)
    assert sorted(lost["url"].to_pylist()) == sorted(missing)
    assert set(lost["status"].to_pylist()) == {"miss"}


def test_only_rows_up_to_cutoff(tmp_path):
    """Under a budget cut the task fetches only the rows whose ORDER_KEYS
    tuple is at most the round's cutoff."""
    delays = {"a.example": 10, "b.example": 30}
    path = _write_run(tmp_path, {"a.example": 6, "b.example": 6}, delays)
    rows = sorted(zip(*(pq.read_table(path)[c].to_pylist()
                        for c in frontier.ORDER_KEYS)))
    cutoff = list(rows[6])
    out, log, _ = _pace(path, delays, cutoff=cutoff)
    assert sorted(u for u, _ in log) == sorted(r[-1] for r in rows[:7])
    assert sorted(out["url"].to_pylist()) == sorted(r[-1] for r in rows[:7])
