"""The ``report`` and ``predict`` workloads: the CLI as a user runs it.

One unit is a cold run on an empty private cache root followed by a
warm run on the same root, each a fresh ``python -m repro`` process,
imports included.  Units repeat until the measuring time is spent.
"""

from __future__ import annotations

import re
import time
from statistics import median
from typing import Dict, List

import layers
from common import (
    Outcome,
    remove_tree,
    run_cli,
    scratch_dir,
)
from tracing import load_spans

#: Simulation seed for a benchmark seed: the CLI default realization
#: first, then others, so the default is always among the runs.
DEFAULT_SIM_SEED = {"report": 7, "predict": 5}
REPORT_DAYS = 365
#: ``--version`` samples taken before the first pass and after every
#: pass, so ``setup_s`` is a median over the whole run, not over the
#: few seconds a host state lasts.
SETUP_REPEATS = 3


def sim_seed(workload: str, seed: int) -> int:
    return DEFAULT_SIM_SEED[workload] + seed


def argv(workload: str, sim: int) -> List[str]:
    if workload == "report":
        return ["report", "--days", str(REPORT_DAYS), "--seed", str(sim)]
    return ["predict", "--seed", str(sim)]


def resolved_workers(stdout: str) -> int:
    found = re.search(r"on (\d+) workers?", stdout)
    return int(found.group(1)) if found else 0


def _unit(workload: str, sim: int, outcome: Outcome, trace_dir=None,
          after_pass=None):
    """One cold + warm pair on a fresh cache root; ``after_pass`` runs
    after each of the two passes."""
    cache = scratch_dir("cache-")
    try:
        walls, outputs = [], []
        for _ in ("cold", "warm"):
            wall, code, stdout = run_cli(argv(workload, sim), cache, trace_dir)
            outcome.op(code == 0, f"{workload} exited {code}")
            walls.append(wall)
            outputs.append(stdout)
            if after_pass is not None:
                after_pass()
        outcome.check(outputs[0] == outputs[1],
                      f"{workload}: cold and warm stdout differ")
        return walls[0], walls[1], outputs[0]
    finally:
        remove_tree(cache)


def check_report(sim: int, stdout: str, outcome: Outcome) -> None:
    """The CLI's tables equal an in-process, memo-free ``full_report``."""
    from repro.core.experiments import full_report
    from repro.core.report import format_table
    from repro.simulation import FacilityEngine, MiraScenario

    result = FacilityEngine(MiraScenario.demo(days=REPORT_DAYS, seed=sim)).run()
    sections = full_report(result, section_cache=False)
    expected = "".join("\n" + format_table(rows, title) + "\n"
                       for title, rows in sections.items())
    tables = stdout.split("\n", 2)[2] if stdout.count("\n") >= 2 else ""
    outcome.check(tables == expected,
                  "report: CLI tables differ from in-process full_report")


def run(workload: str, seed: int, seconds: float, trace: bool,
        outcome: Outcome) -> Dict:
    sim = sim_seed(workload, seed)
    figures: Dict = {"sim_seed": sim}
    setup: List[float] = []
    cold: List[float] = []
    warm: List[float] = []
    first_stdout = ""
    setup_cache = scratch_dir("cache-")

    def sample_setup() -> None:
        setup.extend(run_cli(["--version"], setup_cache)[0]
                     for _ in range(SETUP_REPEATS))

    try:
        sample_setup()
        started = time.perf_counter()
        while not cold or time.perf_counter() - started < seconds:
            c, w, stdout = _unit(workload, sim, outcome, after_pass=sample_setup)
            cold.append(c)
            warm.append(w)
            first_stdout = first_stdout or stdout
    finally:
        remove_tree(setup_cache)
    figures.update(cold_runs=cold, warm_runs=warm, setup_runs=setup,
                   workers=resolved_workers(first_stdout))
    failures = re.search(r"(\d+) failures", first_stdout)
    if failures:
        figures["cmf_failures"] = int(failures.group(1))
    if workload == "report":
        check_report(sim, first_stdout, outcome)

    end_to_end = {
        "setup_s": median(setup),
        "cold_s": median(cold),
        "warm_s": median(warm),
    }
    result = {"end_to_end": end_to_end, "figures": figures}
    if trace:
        trace_dir = scratch_dir("trace-")
        try:
            tc, tw, stdout = _unit(workload, sim, outcome, trace_dir)
            outcome.check(stdout == first_stdout,
                          f"{workload}: traced stdout differs from untraced")
            spans, counts = load_spans(trace_dir)
        finally:
            remove_tree(trace_dir)
        lookups = counts.get("analytics.memo_lookups", 0.0)
        counts["analytics.memo_hit_ratio"] = (
            counts.get("analytics.memo_hits", 0.0) / lookups if lookups else 0.0)
        overhead = (tc + tw) - (median(cold) + median(warm))
        result["per_layer"] = layers.compute(spans, counts, overhead)
        figures.update(traced_cold_s=tc, traced_warm_s=tw,
                       passes=_pass_breakdown(spans, tc, tw))
    return result


def _pass_breakdown(spans: List[list], cold_s: float, warm_s: float) -> Dict:
    """Layer self times and key spans split into the cold and warm pass.

    The warm CLI process starts after the cold one ended, so the
    earliest ``cli.main`` span after the first one marks the boundary.
    """
    mains = sorted(span[2] for span in spans if span[1] == "cli.main")
    boundary = mains[1] if len(mains) > 1 else float("inf")
    passes = {}
    for label, wall, keep in (
        ("cold", cold_s, lambda s: s[2] < boundary),
        ("warm", warm_s, lambda s: s[2] >= boundary),
    ):
        subset = [s for s in spans if keep(s)]
        calls: Dict[str, int] = {}
        totals: Dict[str, float] = {}
        for span in subset:
            calls[span[1]] = calls.get(span[1], 0) + 1
            totals[span[1]] = totals.get(span[1], 0.0) + span[3] - span[2]
        passes[label] = {
            "wall_s": wall,
            "span_s": totals,
            "span_calls": calls,
            "self_s": layers.layer_self_times(subset),
        }
    return passes
