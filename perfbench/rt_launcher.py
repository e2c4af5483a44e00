#!/usr/bin/env python3
"""Run the rt broker process with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/rt_launcher.py --trace-out T.json -- BROKER-ARGS

Installs :func:`tracer.install` (``rt=True``) and then calls
``repro.adapters.rt.broker_main.main`` with ``BROKER-ARGS``.  Signals:

* ``SIGUSR2`` opens the root span;
* ``SIGTERM`` closes it, writes the trace to ``--trace-out`` and exits.

The trace file carries the program's own counter deltas over the
traced window under ``extra.delta``, so the load generator can merge
it with its own trace.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import repro_importable  # noqa: E402
from tracer import Tracer, install, instance_counters  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("broker_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    broker_args = args.broker_args[1:] if args.broker_args[:1] == ["--"] else args.broker_args
    if not repro_importable():
        print("rt_launcher: no src/repro in the checkout", file=sys.stderr)
        return 2

    tracer = Tracer()
    install(tracer, rt=True)
    counters_0 = Counter()

    def begin(*_):
        counters_0.clear()
        counters_0.update(instance_counters(tracer))
        tracer.begin()

    def dump():
        tracer.end()
        delta = instance_counters(tracer)
        delta.subtract(counters_0)
        tmp = args.trace_out + ".tmp"
        tracer.dump(tmp, extra={"delta": dict(delta)})
        os.replace(tmp, args.trace_out)  # appears complete or not at all

    def terminate(*_):
        dump()
        os._exit(0)

    signal.signal(signal.SIGUSR2, begin)
    signal.signal(signal.SIGTERM, terminate)

    from repro.adapters.rt import broker_main
    return broker_main.main(broker_args)


if __name__ == "__main__":
    sys.exit(main())
