"""Per-layer metrics: what each one reads from the traced run.

Span names come from :data:`tracing.TARGETS`; a span's layer is its
name without the last component.  Every per-layer metric is reported
on every workload, so a layer a workload does not reach reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from tracing import self_times

LAYERS = (
    "cli", "simulation", "scheduler", "telemetry", "analytics", "core",
    "parallel", "ml", "service.http", "service.query", "service.rollup",
    "service.bus", "service.subscribers", "service.durability",
)

# (metric, unit, source).  Sources: ``span:<name>`` sums the durations of
# that span, ``calls:<name>`` counts them, ``count:<name>`` reads a
# counter the wrappers or the workload recorded.
_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("cli.import_s", "s", "count:cli.import_s"),
    ("simulation.engine_s", "s", "span:simulation.engine"),
    ("scheduler.step_s", "s", "span:scheduler.step"),
    ("scheduler.steps", "count", "calls:scheduler.step"),
    ("telemetry.append_block_s", "s", "span:telemetry.append_block"),
    ("telemetry.rows", "count", "count:telemetry.rows"),
    ("simulation.datasets_s", "s", "span:simulation.datasets"),
    ("simulation.datasets_calls", "count", "calls:simulation.datasets"),
    ("telemetry.digest_s", "s", "span:telemetry.digest"),
    ("telemetry.digest_chunks_hashed", "count",
     "count:telemetry.digest_chunks_hashed"),
    ("analytics.memo_load_s", "s", "span:analytics.memo_load"),
    ("analytics.memo_store_s", "s", "span:analytics.memo_store"),
    ("analytics.memo_hit_ratio", "ratio", "count:analytics.memo_hit_ratio"),
    ("analytics.advance_state_s", "s", "span:analytics.advance_state"),
    ("core.sections_s", "s", "span:core.section"),
    ("core.sections", "count", "calls:core.section"),
    ("parallel.pstarmap_s", "s", "span:parallel.pstarmap"),
    ("parallel.pmap_s", "s", "span:parallel.pmap"),
    ("parallel.tasks", "count", "count:parallel.tasks"),
    ("simulation.materialize_archive_s", "s",
     "span:simulation.materialize_archive"),
    ("simulation.windows_s", "s", "span:simulation.windows"),
    ("simulation.windows", "count", "count:simulation.windows"),
    ("core.featurize_s", "s", "span:core.featurize"),
    ("ml.train_s", "s", "span:ml.train"),
    ("ml.train_calls", "count", "calls:ml.train"),
    ("service.http.request_s", "s", "span:service.http.request"),
    ("service.http.requests", "count", "calls:service.http.request"),
    ("service.http.wire_ms", "ms", "count:service.http.wire_ms"),
    ("service.http.app_s", "s", "span:service.http.app"),
    ("service.http.dumps_s", "s", "span:service.http.dumps"),
    ("service.http.bytes_out", "bytes", "count:service.http.bytes_out"),
    ("service.http.ingest_s", "s", "span:service.http.ingest"),
    ("service.http.ingest_rows", "count", "count:service.http.ingest_rows"),
    ("service.http.ingest_429", "count", "count:service.http.ingest_429"),
    ("service.query.execute_s", "s", "span:service.query.execute"),
    ("service.query.cache_hit_ratio", "ratio",
     "count:service.query.cache_hit_ratio"),
    ("service.query.invalidations", "count", "count:service.query.invalidations"),
    ("service.rollup.add_block_s", "s", "span:service.rollup.add_block"),
    ("service.bus.run_s", "s", "span:service.bus.run"),
    ("service.bus.max_queue_depth", "count", "count:service.bus.max_queue_depth"),
    ("service.bus.dropped", "count", "count:service.bus.dropped"),
    ("service.subscribers.rollups_s", "s", "span:service.subscribers.rollups"),
    ("service.subscribers.cusum_s", "s", "span:service.subscribers.cusum"),
    ("service.durability.wal_append_s", "s", "span:service.durability.wal_append"),
    ("service.durability.wal_bytes", "bytes", "count:service.durability.wal_bytes"),
    ("service.durability.wal_scan_s", "s", "span:service.durability.wal_scan"),
    ("service.durability.replay_s", "s", "span:service.durability.replay"),
)

def layer_of(span_name: str) -> str:
    for layer in sorted(LAYERS, key=len, reverse=True):
        if span_name.startswith(layer + "."):
            return layer
    raise KeyError(f"span {span_name!r} belongs to no layer")


def layer_self_times(spans: Iterable[list]) -> Dict[str, float]:
    by_layer: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        by_layer[layer_of(name)] += seconds
    return {layer: by_layer.get(layer, 0.0) for layer in LAYERS}


def compute(spans: List[list], counts: Dict[str, float],
            overhead_s: float) -> Dict[str, Dict[str, float]]:
    """Every per-layer metric as ``{name: {"value", "unit"}}``."""
    durations: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        durations[span[1]] += span[3] - span[2]
        calls[span[1]] += 1
    metrics: Dict[str, Dict[str, float]] = {}
    for name, unit, source in _TABLE:
        kind, _, key = source.partition(":")
        if kind == "span":
            value = durations.get(key, 0.0)
        elif kind == "calls":
            value = calls.get(key, 0)
        else:
            value = counts.get(key, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    for layer, seconds in layer_self_times(spans).items():
        metrics[f"{layer}.self_s"] = {"value": seconds, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics
