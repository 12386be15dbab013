"""Run one hsdual CLI command in this process with spans around its layer calls.

Usage: python hsbench/trace_cli.py SPANS_OUT ARG...

Behaves like ``python -m hsdual ARG...`` (same stdout, stderr and exit code)
and writes the spans as JSON to SPANS_OUT when the command ends.  The
``HSBENCH_SPAWN_NS`` environment variable holds the parent's
``perf_counter_ns`` at spawn, so start-up is timed from spawn to the moment
``hsdual.cli`` is imported.
"""

import os
import sys
import time

import hsdual.cli as cli

IMPORTED_NS = time.perf_counter_ns()

import json  # noqa: E402  (after the timed import on purpose)

from tracing import Tracer, wrap_cli  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.record("cli.startup", int(os.environ["HSBENCH_SPAWN_NS"]), IMPORTED_NS)
    wrap_cli(tracer, cli)
    code = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    with open(spans_out, "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
