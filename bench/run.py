"""Benchmark of nrdkit's user-facing jobs, timed from outside the program.

    python3 bench/run.py --workload {audit,witness-search,discovery}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  One
single-threaded process runs whole rounds of the workload's operations until
S seconds have passed, checking every output, and sets the workload up
several times before and after the rounds (setup_s is the median).  The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones, and the spans are written to
bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
MODULES = ("predicates", "catalog", "balance", "cancellation", "sat",
           "hypergraph", "substructure", "tables", "generators", "pipeline",
           "cli")

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"),
              ("witness_edges_per_s", "edges/s"),
              ("check_edges_per_s", "edges/s"),
              ("families_per_s", "families/s"),
              ("sat_formulas_per_s", "formulas/s"), ("nrd_exact_s", "s"))


def import_nrdkit():
    """A fresh import of every nrdkit module from ./src."""
    for name in [n for n in sys.modules if n == "nrdkit" or n.startswith("nrdkit.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"nrdkit.{m}") for m in MODULES}
    if not os.path.abspath(sys.modules["nrdkit"].__file__).startswith(SRC + os.sep):
        raise ImportError("nrdkit was not imported from this checkout's src/")
    return types.SimpleNamespace(**mods)


def timed_setups(workload, count, times):
    """Set the workload up `count` times on fresh imports, timing each."""
    for _ in range(count):
        t0 = time.perf_counter()
        workload.setup(import_nrdkit())
        times.append(time.perf_counter() - t0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("audit", "witness-search", "discovery"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nrdkit", "__init__.py")):
        print("bench: no nrdkit sources under ./src", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    # Half the set-ups run before the rounds and half after them, so that
    # setup_s samples the machine's drifting speed over the whole run.
    setup_times = []
    timed_setups(workload, (workload.SETUP_REPEATS + 1) // 2, setup_times)
    if tracer:
        # one more set-up, traced, whose spans count toward the layers
        nk = import_nrdkit()
        tracer.install()
        tracer.active = True
        workload.setup(nk)
        tracer.active = False
    workload.prepare()

    rounds = []   # (wall seconds, checked ops, operations attempted)
    attempted = failed = 0
    problems = []
    rounds_start = len(tracer.spans) if tracer else 0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        ops = workload.round()
        wall = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        n, f, p = workload.check(ops)
        attempted, failed = attempted + n, failed + f
        problems += p
        rounds.append((wall, ops, n))
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not tracer:
        timed_setups(workload, workload.SETUP_REPEATS // 2, setup_times)

    for p in dict.fromkeys(problems):
        print(f"bench: WRONG {p}", file=sys.stderr)
    for op in rounds[0][1]:
        if op.status == "failed":
            print(f"bench: failed {op.kind} {op.label}: "
                  f"{op.error or 'wrong verdict (known fault)'}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations, {failed} failed", file=sys.stderr)

    if tracer:
        per = layer_metrics(tracer.spans, rounds_start, len(rounds))
        per["trace.verdict_s"] = statistics.median(r[0] for r in rounds)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.tsv"))
        units = dict(PER_LAYER, **{"trace.verdict_s": "s"})
        metrics = {k: {"value": per[k], "unit": u} for k, u in units.items()}
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "verdict_s": statistics.median(r[0] for r in rounds),
                  "peak_rss_mb": peak_rss_mb}
        for name, _ in END_TO_END:
            if name in values:
                continue
            if name in workload.native:
                values[name] = statistics.median(
                    workload.native[name](ops) for _, ops, _ in rounds)
            elif name.endswith("_per_s"):
                # work this workload does not do: report its operations per
                # second of round instead, so every run carries every metric
                values[name] = statistics.median(n / w for w, _, n in rounds)
            else:
                values[name] = values["verdict_s"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
