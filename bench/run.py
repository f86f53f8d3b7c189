"""Layered benchmark for imodal.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this fresh process against the program built from this
checkout's ``src``, checks the program's outputs, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from
spans recorded around each call the benchmark makes into a layer.  The
result and the trace are also written under ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import checkout

IMPORT_SAMPLES = 5
SETUP_SAMPLES = 3


def _modules() -> dict:
    import cli_runs
    import constructions
    import refute
    import soundness
    return {"soundness": soundness, "refute": refute,
            "constructions": constructions, "cli": cli_runs}


def _import_seconds() -> float:
    """Median time to import imodal in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import imodal; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=checkout.ROOT,
                              env=checkout.subprocess_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import Ops, Tracer, tail
    import layers

    modules = _modules()
    wl = modules[workload]
    tracer = Tracer(trace)
    builds = []
    for k in range(SETUP_SAMPLES):
        tr = tracer if k == 0 else Tracer(False)
        start = perf_counter()
        built = wl.setup(seed, tr)
        builds.append(perf_counter() - start)
        if k == 0:
            st = built
        elif hasattr(wl, "close"):
            wl.close(built)
    del built
    setup_s = _import_seconds() + statistics.median(builds)
    # The inputs live for the whole run; keep the cyclic collector from
    # rescanning them, so that their number does not add to operation times.
    gc.collect()
    gc.freeze()

    ops = Ops(tracer)
    start = perf_counter()
    for _ in range(wl.rounds(seconds)):
        wl.run_round(st, ops, tracer)
    run_s = perf_counter() - start

    probe = Tracer(trace)
    problems = ops.problems
    if trace:
        if hasattr(wl, "extra_probe"):
            wl.extra_probe(st, tracer)
        problems += layers.fill_probe(workload, probe, seed, modules)
    problems += wl.verify(st)
    if hasattr(wl, "close"):
        wl.close(st)

    p, tail_s = tail(ops.times)
    if trace:
        metrics = layers.per_layer(tracer, probe, run_s)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "op_p50_ms": (statistics.median(ops.times) * 1000.0, "ms"),
            "op_tail_ms": (tail_s * 1000.0, "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": len(ops.times),
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(checkout.OUT, exist_ok=True)
    stem = os.path.join(checkout.OUT, f"{workload}-s{seed}-t{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "problems": problems[:50], "tail_percentile": p,
                   "rounds": wl.rounds(seconds)}, fh, indent=1)
    if trace:
        with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": tracer.dump(), "probe": probe.dump()}, fh)
    for problem in problems[:20]:
        print("problem:", problem, file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(_modules()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
