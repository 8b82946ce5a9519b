"""The repository's end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report --seed 0 --seconds 12 --trace 0

Workloads: ``report``, ``predict`` (the CLI as a subprocess, cold then
warm), ``ops-http`` (``repro serve-http`` driven over sockets) and
``stream`` (durable replay and WAL recovery through
``LiveOperationsService``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds a traced pass and reports the per-layer
metrics instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import (
    BenchError,
    Outcome,
    environment,
    import_seconds,
    isolate_this_process,
    remove_tree,
    require_sources,
    scratch_dir,
    write_record,
)

WORKLOADS = ("report", "predict", "ops-http", "stream")
END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s"}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: picks the simulated realization "
                             "and the query mix")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measuring time; units repeat until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _run_workload(args, outcome: Outcome):
    if args.workload in ("report", "predict"):
        import cli_jobs

        return cli_jobs.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), outcome)
    if args.workload == "ops-http":
        import ops_http

        return ops_http.run(args.seed, args.seconds, bool(args.trace), outcome)
    import stream

    return stream.run(args.seed, args.seconds, bool(args.trace), outcome)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    try:
        require_sources()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    own_cache = scratch_dir("self-")
    isolate_this_process(own_cache)
    outcome = Outcome()
    started = time.perf_counter()
    try:
        result = _run_workload(args, outcome)
        if args.trace:
            result["per_layer"]["cli.import_s"]["value"] = import_seconds(own_cache)
    finally:
        remove_tree(own_cache)
    from repro.parallel import resolve_workers

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in result["end_to_end"].items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_wall_s": time.perf_counter() - started,
        "environment": environment(resolve_workers(None)),
        "end_to_end": result["end_to_end"],
        "per_layer": result.get("per_layer"),
        "figures": result["figures"],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / max(1, outcome.attempted),
        "problems": outcome.problems,
    }
    path = write_record(args.workload, bool(args.trace), record)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cpu_count {record['environment']['cpu_count']}  "
          f"workers {record['environment']['resolved_workers']}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in sorted(result["figures"].items()):
        if isinstance(value, (int, float)):
            print(f"  figure {name:<33} {value:>14.6g}")
    print(f"  operations {outcome.attempted} attempted, {outcome.failed} failed "
          f"({record['failed_share']:.1%})")
    for problem in outcome.problems:
        print(f"  PROBLEM {problem}")
    print(f"  record written to {path}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
