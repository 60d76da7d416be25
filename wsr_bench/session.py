"""A Ray session sized to the machine (``nproc`` CPUs), with timed
set-up and a teardown that waits for every process it started."""

from __future__ import annotations

import os
import shutil
import time

from . import procs

#: object store for the benchmark's inputs (a few MB of html per run);
#: kept small so the session does not reserve a share of shared memory
OBJECT_STORE_BYTES = 512 * 2**20
#: Ray's session dir holds unix sockets, whose paths must stay under
#: 108 bytes (the dir adds ~65); a longer checkout path falls back to
#: Ray's default temp dir
_MAX_TEMP_DIR = 42


def nproc() -> int:
    """What coreutils ``nproc`` prints: the usable CPUs, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when they are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        try:
            n = min(n, max(1, int(os.environ.get(var, "").split(",")[0])))
        except ValueError:
            pass
    return n


def _warm_task() -> int:
    from web_scraper_ray.kernel.extract import extract_page

    return len(extract_page("<html><body><p>warm</p></body></html>",
                            "https://warm.example/")["text"])


def _warm_batch(batch):
    _warm_task()
    return batch


class Session:
    """One Ray session at a time. ``open`` returns its set-up seconds:
    ``ray.init``, the program's imports (paid on the first open of a
    process only) and a warm-up that starts one worker per CPU and runs
    one tiny Ray Data execution."""

    def __init__(self, work_dir: str):
        self.cpus = nproc()
        temp = os.path.join(os.path.abspath(work_dir), "r")
        self.temp_dir = temp if len(temp) <= _MAX_TEMP_DIR else None
        if self.temp_dir is not None:  # keep only this run's session logs
            shutil.rmtree(self.temp_dir, ignore_errors=True)
        self.is_open = False

    def open(self) -> float:
        t0 = time.perf_counter()
        import ray
        import ray.data

        # the program's imports in this process (cached after the first open)
        import web_scraper_ray.crawl.frontier  # noqa: F401
        import web_scraper_ray.ops.boilerplate  # noqa: F401
        import web_scraper_ray.ops.dedup  # noqa: F401
        import web_scraper_ray.pipelines.flagship  # noqa: F401

        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")  # stay offline
        kw = {}
        if self.temp_dir is not None:
            os.makedirs(self.temp_dir, exist_ok=True)
            kw["_temp_dir"] = self.temp_dir
        ray.init(address="local", num_cpus=self.cpus,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, **kw)
        self.is_open = True
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        warm = ray.remote(_warm_task)
        ray.get([warm.remote() for _ in range(self.cpus)])
        ray.data.range(2 * self.cpus, override_num_blocks=2 * self.cpus
                       ).map_batches(_warm_batch, batch_size=None).count()
        return time.perf_counter() - t0

    def close(self) -> list[int]:
        """Shut Ray down and wait until every process it started has
        ended; returns the pids that had to be killed."""
        if not self.is_open:
            return []
        import ray

        started = procs.descendants()
        ray.shutdown()
        self.is_open = False
        return procs.reap(started)

    def timed_setups(self, n: int) -> list[float]:
        """Open the session ``n`` times (closing all but the last) and
        return each set-up time."""
        out = []
        for i in range(n):
            out.append(self.open())
            if i < n - 1:
                self.close()
        return out
