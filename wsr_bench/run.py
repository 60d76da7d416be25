"""The repo benchmark: one workload per run, closed loop, one call at a
time, in a Ray session sized to ``nproc``.

    python3 wsr_bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads: ``extract``, ``crawl``,
``crawl-dense``, ``curate`` (see ``workloads.py``). Inputs are built
from ``--seed`` before the session starts and cached, keyed by content,
under ``.wsrb/inputs``.

``--trace 0`` sets the session up three times (``setup_s`` is the
median), then repeats the workload (at least three times) until
``--seconds`` are used and reports medians over the repetitions:
``wall_s``, ``pages_per_s``, ``urls_per_s``, ``setup_s`` and
``peak_rss_mb`` (the peak summed RSS of this process and every Ray
process during one repetition, sampled from ``/proc``).

``--trace 1`` runs the workload twice untraced and once traced, checks
that their counts repeat exactly, and then measures every layer over
the workload's corpus (``layers.py``). Spans go to
``.wsrb/results/*.spans.jsonl``, the layer ledger next to
them.

Every repetition's output is checked against a reference; a repetition
that raises or mismatches counts as failed. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".wsrb")  # inputs, outputs, results, Ray's temp dir
SETUPS = 3
#: a median needs three repetitions, even when they overrun ``--seconds``
MIN_REPS = 3

END_TO_END_UNITS = {"wall_s": "s", "pages_per_s": "pages/s", "urls_per_s": "urls/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["extract", "crawl", "crawl-dense", "curate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="input size; tiny is for the self-tests")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one byte of each checked output (self-test)")
    return p.parse_args(argv)


def _attempt(wl, inp, out_dir, tracer, fault):
    """One call plus its check: ``(outcome or None, ok, seconds)``."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inp, out_dir, tracer)
        ok = wl.check(inp, out, out_dir, fault)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, False, time.perf_counter() - t0
    if not ok:
        print(f"wsr_bench: {wl.name} output mismatches its reference", file=sys.stderr)
    return out, ok, time.perf_counter() - t0


def measure(wl, inp, out_dir, seconds, fault):
    """Closed loop: repeat until the next repetition would overrun
    ``seconds`` (but at least ``MIN_REPS`` times)."""
    from .procs import RssSampler
    from .trace import NullTracer

    runs = []
    t_start = time.perf_counter()
    while True:
        sampler = RssSampler().start()
        out, ok, took = _attempt(wl, inp, out_dir, NullTracer(), fault)
        peak = sampler.stop()
        if out is not None:
            out.peak_rss_mb = peak
            out.handle = None  # let Ray free what the call left behind
        runs.append((out, ok))
        if len(runs) >= MIN_REPS and time.perf_counter() - t_start + took > seconds:
            return runs


def end_to_end(runs, setups) -> dict:
    good = [o for o, ok in runs if ok] or [o for o, _ok in runs if o is not None]
    if not good:
        raise RuntimeError("no repetition produced an output")
    med = statistics.median
    return {"wall_s": med(o.wall_s for o in good),
            "pages_per_s": med(o.pages / o.wall_s for o in good),
            "urls_per_s": med(o.urls / o.wall_s for o in good),
            "setup_s": med(setups),
            "peak_rss_mb": med(o.peak_rss_mb for o in good)}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "web_scraper_ray", "__init__.py")):
        print(f"wsr_bench: no web_scraper_ray package under {ROOT}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # Ray workers import the program from the cwd
    sys.path.insert(0, ROOT)
    # Ray and its child processes may write to fd 1: send everything to
    # stderr until the result lines, so the last stdout line is ours
    real_stdout = os.dup(1)
    os.dup2(2, 1)

    from . import layers
    from .inputs import SHAPES, Inputs
    from .session import Session, nproc
    from .trace import NullTracer, Tracer
    from .workloads import WORKLOADS

    import ray

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    cpus = nproc()
    wl = WORKLOADS[args.workload](cpus)
    inp = Inputs(ROOT, WORK, args.seed, SHAPES[args.scale][wl.shape])
    wl.prepare(inp)
    out_dir = os.path.join(WORK, "out", wl.name)
    stem = os.path.join(WORK, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    info = {"workload": wl.name, "seed": args.seed, "nproc": cpus,
            "ray": ray.__version__, "shape": inp.describe(), "why": wl.why}

    session = Session(WORK)
    try:
        if args.trace == 0:
            setups = session.timed_setups(SETUPS)
            runs = measure(wl, inp, out_dir, args.seconds, args.inject_fault)
            metrics = end_to_end(runs, setups)
            units = END_TO_END_UNITS
            correct = all(ok for _o, ok in runs)
            detail = {"setups_s": setups,
                      "runs": [{"ok": ok, "wall_s": o and o.wall_s, "counts": o and o.counts,
                                "parts": o and o.parts, "peak_rss_mb": o and o.peak_rss_mb}
                               for o, ok in runs]}
        else:
            session.open()
            # two untraced calls (the first warms the session), then the
            # traced one, whose outputs the layers read
            runs = [_attempt(wl, inp, out_dir, NullTracer(), args.inject_fault)[:2]
                    for _ in range(2)]
            tracer = Tracer()
            with tracer.span("workload", workload=wl.name):
                runs.append(_attempt(wl, inp, out_dir, tracer, args.inject_fault)[:2])
            if any(o is None for o, _ok in runs):
                raise RuntimeError(f"{wl.name} raised; see the traceback above")
            base, traced = runs[1][0], runs[2][0]
            repeat = all(o.counts == traced.counts for o, _ok in runs)
            if not repeat:
                print("wsr_bench: counts differ between runs", file=sys.stderr)
            ledger = layers.measure(wl, inp, traced, tracer, WORK)
            metrics = dict(ledger.metrics)
            metrics["trace.overhead_s"] = traced.wall_s - base.wall_s
            units = dict(layers.UNITS, **{"trace.overhead_s": "s"})
            correct = all(ok for _o, ok in runs) and repeat and ledger.ok
            tracer.write(stem + ".spans.jsonl")
            detail = {"counts": traced.counts, "repeat": repeat, "layer_checks": ledger.checks,
                      "self_s": tracer.self_times(), "dataset_stats": ledger.dataset_stats,
                      "untraced_wall_s": [o.wall_s for o, _ok in runs[:2]],
                      "traced_wall_s": traced.wall_s}
    finally:
        killed = session.close()
    if killed:
        print(f"wsr_bench: killed {len(killed)} leftover processes", file=sys.stderr)

    attempted = len(runs)
    failed = sum(not ok for _o, ok in runs)
    result = {"correct": bool(correct) and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(stem + ".json", "w") as f:
        json.dump({**info, **detail, "failed_frac": failed / attempted, **result}, f,
                  indent=1, sort_keys=True, default=str)

    lines = [f"# {json.dumps(info, sort_keys=True)}",
             f"# failed_frac {failed / attempted:.4f} ({failed}/{attempted} runs)"]
    lines += [f"# {k:<36} {v:>14.6g} {units[k]}" for k, v in metrics.items()]
    sys.stdout.flush()
    os.dup2(real_stdout, 1)
    print("\n".join(lines + [json.dumps(result, sort_keys=True)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    from wsr_bench.run import main as _main  # noqa: E402  (package-relative imports)

    sys.exit(_main())
