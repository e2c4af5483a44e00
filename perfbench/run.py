#!/usr/bin/env python3
"""The durable pub/sub benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload churn-catchup --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs
span wrappers around every layer's entry points before the workload is
built and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output of the run was judged correct.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import ROOT, WORK, header, median, repro_importable  # noqa: E402

WORKLOADS = ("fanout-100k", "churn-catchup", "rt-broker")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load(workload: str):
    if workload == "fanout-100k":
        import fanout as module
    elif workload == "churn-catchup":
        import churn as module
    else:
        import rtbroker as module
    return module


def end_to_end(outcome) -> dict:
    return {
        "setup_s": (median(outcome.setup_s), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "logged_pairs_per_s": (outcome.logged_pairs_per_s, "pairs/s"),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Set iteration order over strings feeds the simulation's event
    # order; pin it so one seed always gives one run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    if not repro_importable():
        print("perfbench: no src/repro beside the benchmark directory; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    print("# header " + json.dumps(header(args.workload, args.seed, args.seconds,
                                          bool(args.trace))), flush=True)
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer, rt=args.workload == "rt-broker")
    # The cyclic collector stays off for the whole run; every simulated
    # set-up ends with one full collection, timed as part of set-up.
    # Left on, it re-scans the growing heap many times while the 100k
    # forest is built (about half of that set-up), and each scan of a
    # built scenario lands at an arbitrary point of the drive (4-7 s on
    # the forest).  Reference counting still frees nearly everything.
    gc.disable()
    outcome = load(args.workload).run(args.seed, args.seconds, tracer)
    if tracer is not None:
        os.makedirs(WORK, exist_ok=True)
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, extra={"layers": outcome.layers})
        print(f"# trace written to {os.path.relpath(trace_path, ROOT)}")

    correct = outcome.failed == 0 and not outcome.violations and outcome.expected > 0
    e2e = end_to_end(outcome)
    report = dict(e2e)
    report.update(outcome.report)
    report["failed_frac"] = (outcome.failed / max(1, outcome.expected), "ratio")
    for name, (value, unit) in sorted(report.items()):
        print(f"{name:28s} {value:14.4f} {unit}")
    for name, (value, unit) in sorted(outcome.layers.items()):
        print(f"{name:40s} {value:14.4f} {unit}")
    print("# report " + json.dumps({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "failures": outcome.failures,
        "violations": outcome.violations[:20],
        "setup_runs_s": outcome.setup_s,
    }))
    for violation in outcome.violations[:20]:
        print(f"VIOLATION: {violation}", file=sys.stderr)

    chosen = outcome.layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.expected),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing the 100k forest object by object
    # takes longer than the drive.  Every child process has been reaped.
    os._exit(code)
