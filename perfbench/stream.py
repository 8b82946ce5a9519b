"""The ``stream`` workload: a durable replay through the live service,
then a full-WAL recovery from what it wrote.

In-process, as an operator embeds :class:`LiveOperationsService`: a
year at the ``serve-replay`` default step of 1800 s (17,520 samples)
with its other defaults (chunks of 256, CUSUM on, ``drop_oldest`` for
analytics) plus a WAL with snapshots off, so ``recover()`` replays the
whole log.
"""

from __future__ import annotations

import gc
import time
from statistics import median
from typing import Dict, List

import numpy as np

import layers
from common import Outcome, remove_tree, scratch_dir
from tracing import load_spans

DAYS = 365
DT_S = 1800.0
DEFAULT_SIM_SEED = 7
#: Replay/recovery pairs per run at least: consecutive replays in one
#: process differ by up to ~30 % (bus threads on 2 cores), so the run
#: reports a median.
MIN_PAIRS = 4


def _build(sim: int):
    from repro.simulation import FacilityEngine, MiraScenario

    return FacilityEngine(MiraScenario.demo(days=DAYS, seed=sim, dt_s=DT_S)).run()


def _config(wal_dir):
    from repro.service import ServiceConfig
    from repro.service.durability import DurabilityConfig

    return ServiceConfig(
        chunk_size=256,
        analytics_policy="drop_oldest",
        durability=DurabilityConfig(wal_dir, snapshot_every_samples=0),
    )


def rollups_match(a, b) -> bool:
    """Two rollup stores hold the same buckets: exact epochs and counts,
    values to 1e-9 (the tolerance the repo pins streaming == batch at).
    Compared one level and channel at a time to keep memory small."""
    from repro.telemetry.records import CHANNELS

    if a.resolutions_s != b.resolutions_s:
        return False
    for resolution in a.resolutions_s:
        for channel in CHANNELS:
            left = a.window(resolution, channel, -np.inf, np.inf)
            right = b.window(resolution, channel, -np.inf, np.inf)
            for name in ("epoch", "samples", "count", "usable"):
                if not np.array_equal(getattr(left, name), getattr(right, name)):
                    return False
            for name in ("minimum", "maximum", "total"):
                x, y = getattr(left, name), getattr(right, name)
                if x.shape != y.shape or not np.allclose(
                        x, y, rtol=1e-9, atol=1e-9, equal_nan=True):
                    return False
    return True


def _unit(database, outcome: Outcome, counts: Dict[str, float]):
    """Durable replay then recovery; returns their walls and end states."""
    from repro.service import LiveOperationsService

    wal_dir = scratch_dir("wal-")
    gc.collect()  # start from a clean heap, not the previous unit's garbage
    try:
        config = _config(wal_dir)
        service = LiveOperationsService(database, cusum=True, config=config)
        started = time.perf_counter()
        report = service.run()
        replay_s = time.perf_counter() - started
        published = report.bus.published
        subscribers = report.bus.subscribers.values()
        dropped = sum(c.dropped for c in subscribers)
        errors = sum(c.errors for c in subscribers)
        restarts = sum(c.restarts + c.crashes for c in report.supervision.values())
        outcome.op(published == database.num_samples and dropped == 0
                   and errors == 0 and restarts == 0,
                   f"replay published {published}, dropped {dropped}, "
                   f"errors {errors}, restarts {restarts}")
        counts["service.bus.dropped"] += dropped
        counts["service.bus.max_queue_depth"] = max(
            counts["service.bus.max_queue_depth"],
            max(c.max_queue_depth for c in subscribers))
        counts["service.durability.wal_bytes"] += config.durability.wal_path.stat().st_size

        started = time.perf_counter()
        recovered = LiveOperationsService.recover(database, cusum=True, config=config)
        recover_s = time.perf_counter() - started
        outcome.op(recovered.recovery.wal_samples == database.num_samples
                   and not recovered.recovery.wal_torn_tail,
                   f"recovery replayed {recovered.recovery.wal_samples} samples")
        outcome.check(rollups_match(service.rollups, recovered.rollups),
                      "stream: recovered rollups differ from the replay")
        outcome.check(
            list(report.alarms) == list(recovered.cusum_subscriber.alarms),
            "stream: recovered CUSUM alarms differ from the replay")
        # A recovered service's bus already runs its subscriber threads;
        # finishing the (empty) resumed stream stops them.
        resumed = recovered.run()
        outcome.check(resumed.bus.published == 0,
                      f"stream: {resumed.bus.published} samples left after the WAL")
        return replay_s, recover_s, service
    finally:
        remove_tree(wal_dir)


def run(seed: int, seconds: float, trace: bool, outcome: Outcome) -> Dict:
    sim = DEFAULT_SIM_SEED + seed
    counts: Dict[str, float] = {"service.bus.dropped": 0.0,
                                "service.bus.max_queue_depth": 0.0,
                                "service.durability.wal_bytes": 0.0}
    setup: List[float] = []
    replays: List[float] = []
    recovers: List[float] = []
    database = None
    began = time.perf_counter()
    while len(replays) < MIN_PAIRS or time.perf_counter() - began < seconds:
        # The dataset is built again before every pair, so ``setup_s`` is
        # a median over the whole run; the first build is the one replayed.
        service = None
        started = time.perf_counter()
        built = _build(sim).database
        setup.append(time.perf_counter() - started)
        if database is None:
            database = built
        built = None
        replay_s, recover_s, service = _unit(database, outcome, counts)
        replays.append(replay_s)
        recovers.append(recover_s)

    from repro.service import RollupStore

    outcome.check(rollups_match(service.rollups, RollupStore.from_database(database)),
                  "stream: replayed rollups differ from RollupStore.from_database")

    samples = database.num_samples
    result_record = {
        "end_to_end": {
            "setup_s": median(setup),
            "cold_s": median(replays),
            "warm_s": median(recovers),
        },
        "figures": {
            "sim_seed": sim,
            "samples": samples,
            "setup_runs": setup,
            "replay_runs": replays,
            "recover_runs": recovers,
            "stream_samples_per_s": samples / median(replays),
            "recover_s": median(recovers),
        },
    }
    if trace:
        import tracing

        trace_dir = scratch_dir("trace-")
        try:
            tracer = tracing.install(trace_dir)
            traced = {key: 0.0 for key in counts}
            started = time.perf_counter()
            _build(sim)
            t_build = time.perf_counter() - started
            t_replay, t_recover, _ = _unit(database, outcome, traced)
            tracer.dump()
            spans, span_counts = load_spans(trace_dir)
        finally:
            remove_tree(trace_dir)
        span_counts.update(traced)
        overhead = (t_build + t_replay + t_recover) - (
            median(setup) + median(replays) + median(recovers))
        result_record["per_layer"] = layers.compute(spans, span_counts, overhead)
        result_record["figures"].update(traced_build_s=t_build,
                                        traced_replay_s=t_replay,
                                        traced_recover_s=t_recover)
    return result_record
