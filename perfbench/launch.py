"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

Usage: ``python perfbench/launch.py <trace-dir> <repro arguments...>``

Installs :mod:`tracing` into a fresh interpreter, then calls
``repro.cli.main(argv)`` exactly as ``python -m repro`` would.  Spans
and counters are written to ``<trace-dir>`` when the command returns;
pool workers write their own.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    trace_dir = Path(sys.argv[1])
    argv = sys.argv[2:]
    import tracing

    tracer = tracing.install(trace_dir)
    from repro import cli
    from repro.analytics.incremental import default_store

    # A server's main thread idles in serve_forever; a root span there
    # would count that idle time as CLI work.
    span = None if argv[:1] == ["serve-http"] else tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        if span is not None:
            tracer.close(span)
        counters = default_store().counters
        tracer.count("analytics.memo_hits", counters.hits)
        tracer.count("analytics.memo_lookups", counters.hits + counters.misses)
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
