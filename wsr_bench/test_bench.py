"""Self-tests of the benchmark, at a tiny input size.

    python3 -m pytest wsr_bench -q

Each benchmark call runs in its own process, as the benchmark is run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from wsr_bench import layers, procs, run
from wsr_bench.trace import Tracer
from wsr_bench.workloads import WORKLOADS

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, "wsr_bench/run.py", "--seed", "1", "--seconds", "1",
                        "--scale", "tiny", *args],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    return p, (json.loads(last) if p.returncode == 0 else None)


def test_spec_names_match_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(
        layers.UNITS, **{"trace.overhead_s": "s"})


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_runs_and_is_correct(workload):
    p, res = bench("--workload", workload, "--trace", "0")
    assert p.returncode == 0, p.stderr[-3000:]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer():
    p, res = bench("--workload", "extract", "--trace", "1")
    assert p.returncode == 0, p.stderr[-3000:]
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    spans = os.path.join(ROOT, ".wsrb", "results", "extract-seed1-trace1.spans.jsonl")
    with open(spans) as f:
        names = {json.loads(line)["name"] for line in f}
    assert {"pipelines.extract_pipeline", "crawl.run_crawl", "ops.strip_boilerplate"} <= names


def test_flipped_byte_counts_as_failed():
    p, res = bench("--workload", "extract", "--trace", "0", "--inject-fault")
    assert p.returncode == 0, p.stderr[-3000:]
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p, _ = bench("--workload", "extract", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_rss_sampler_and_reap():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        sampler = procs.RssSampler(interval=0.05).start()
        time.sleep(0.2)
        assert sampler.stop() > 1.0
        tree = procs.descendants()
        assert child.pid in tree
        child.terminate()
        assert procs.reap({child.pid: tree[child.pid]}, timeout=5) == []
    finally:
        child.kill()
        child.wait()


def test_span_self_time_excludes_children():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            time.sleep(0.05)
    self_s = t.self_times()
    assert self_s["inner"] >= 0.05
    assert self_s["outer"] < self_s["inner"]
