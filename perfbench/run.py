"""Benchmark of skeinalg: one workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the engine is imported from its `src/`.
With `--trace 0` the run sets up SETUP_REPEATS times, runs whole rounds
of the workload until `--seconds` have passed (half of the set-ups come
after this timed phase), checks every output and prints the end-to-end
metrics.  With `--trace 1` it runs the fixed
TRACE_ROUNDS of the workload untraced, then again with spans around every
call into the engine, and prints the per-layer metrics and the tracing
overhead; the spans and metrics also go to `perfbench/out/`.  The last
line of standard output is the result; the exit code is 0 when every
check passed, 1 when one failed and 2 when the engine cannot be found.
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15

sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"items_per_s": "1/s", "item_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}


def import_engine():
    """Import skeinalg afresh from the checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "skeinalg" or n.startswith("skeinalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sk = importlib.import_module("skeinalg")
    cli = importlib.import_module("skeinalg.cli")
    if Path(sk.__file__).resolve().parent != ROOT / "src" / "skeinalg":
        raise ImportError(f"skeinalg came from {sk.__file__}, not src/")
    return sk, cli


def run_rounds(workload, seconds: float):
    """Whole rounds until `seconds` have passed.

    Returns the (ok, seconds) pair of every item and the elapsed time.
    """
    items = []
    r = 0
    t0 = perf_counter()
    while True:
        items += workload.round(r)
        r += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return items, elapsed


def _set_up(cls, seed: int):
    gc.collect()  # start each set-up from the same heap
    t0 = perf_counter()
    sk, cli = import_engine()
    workload = cls(sk, cli, seed, OUT)
    return workload, perf_counter() - t0


def untraced_run(cls, seed: int, seconds: float):
    """Set up SETUP_REPEATS times, half before the timed phase and half
    after it and its checks, so that one slow spell of the machine does
    not set the median; the timed phase runs on the last workload built
    before it."""
    setup = []
    for _ in range(SETUP_REPEATS // 2 + 1):
        workload, dt = _set_up(cls, seed)
        setup.append(dt)
    items, elapsed = run_rounds(workload, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = workload.check()
    setup += [_set_up(cls, seed)[1] for _ in range(SETUP_REPEATS // 2)]
    times = [dt for ok, dt in items if ok]
    values = {
        "items_per_s": len(times) / elapsed,
        "item_p50_ms": statistics.median(times) * 1000 if times else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]}
               for k, v in values.items()}
    return items, metrics, problems


def traced_run(cls, name: str, seed: int):
    """TRACE_ROUNDS rounds twice: each round untraced on one instance of
    the workload and traced on another, the two in turns that alternate
    which goes first, so that warm-up and a slow spell of the machine
    fall on both sides of the overhead alike."""
    sk, cli = import_engine()
    plain_wl = cls(sk, cli, seed, OUT)
    tracer = Tracer()
    tracer.install()
    try:
        workload = cls(sk, cli, seed, OUT / "traced")
    finally:
        tracer.uninstall()
    items = []
    plain = traced = 0.0
    for r in range(cls.TRACE_ROUNDS):
        for traced_turn in ((False, True) if r % 2 == 0 else (True, False)):
            if not traced_turn:
                t0 = perf_counter()
                plain_wl.round(r)
                plain += perf_counter() - t0
                continue
            tracer.install()
            try:
                t0 = perf_counter()
                items += workload.round(r)
                traced += perf_counter() - t0
            finally:
                tracer.uninstall()
    values = tracer.layer_metrics()
    done = sum(ok for ok, _ in items)
    values["trace.items_per_s"] = done / traced
    values["trace.untraced_items_per_s"] = done / plain
    values["trace.overhead"] = traced / plain - 1
    metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]}
               for k in LAYER_METRICS}
    stem = f"{name}-{seed}"
    tracer.dump_spans(OUT / f"spans-{stem}.json")
    with open(OUT / f"layers-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "rounds": cls.TRACE_ROUNDS,
                   "items": len(items), "spans_dropped": tracer.dropped,
                   "metrics": metrics}, fh, indent=1)
    return items, metrics, workload.check()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skeinalg" / "__init__.py").is_file():
        print(f"error: no engine at {ROOT / 'src' / 'skeinalg'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    cls = WORKLOADS[args.workload]
    if args.trace:
        items, metrics, problems = traced_run(cls, args.workload, args.seed)
    else:
        items, metrics, problems = untraced_run(cls, args.seed, args.seconds)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": len(items),
              "failed": sum(not ok for ok, _ in items), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
