"""In-memory span tracer and the wrappers that attach it to ``repro``.

Nothing under ``src/`` is instrumented: :func:`install` replaces public
functions and methods of the already-imported ``repro`` modules with
wrappers that open a span around each call.  A span records its name,
start, end, parent (the span open on the same thread when it started),
process and thread.  Spans stay in memory; :meth:`Tracer.dump` writes
them out once, when the traced process ends.

Pool workers are forked from a traced process, so they inherit the
wrappers.  Each child drops the spans it inherited and writes its own
at exit through :class:`multiprocessing.util.Finalize`, which the
multiprocessing bootstrap runs before the worker calls ``os._exit``.
The finalizer is registered on the child's first span, because the
bootstrap clears the finalizer registry after the fork hooks ran.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Tracer:
    """Spans and counters of one process, written to ``out_dir`` at exit."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[list] = []  # [id, name, start, end, parent, pid, tid]
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._pid = os.getpid()
        self._child = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._child = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Start a span now, as a child of the innermost open one."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else None
        span = [span_id, name, clock(), None, parent, self._pid,
                threading.get_ident()]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
            if self._child:
                self._child = False
                mp_util.Finalize(None, self.dump, exitpriority=100)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``count(args, kwargs, result)`` adds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.count(key, value)
            return result

        return traced

    def dump(self) -> None:
        """Write this process's spans and counters (once per process)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            payload = {"pid": self._pid, "spans": list(self.spans),
                       "counts": dict(self.counts)}
        path = self.out_dir / f"spans-{self._pid}.json"
        path.write_text(json.dumps(payload))


def load_spans(out_dir: Path) -> tuple:
    """Every span and summed counter written under ``out_dir``."""
    spans: List[list] = []
    counts: Dict[str, float] = defaultdict(float)
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans.extend(payload["spans"])
        for key, value in payload["counts"].items():
            counts[key] += value
    return spans, dict(counts)


def self_times(spans: Iterable[list]) -> Dict[str, float]:
    """Per span name: total duration minus the time its direct children took.

    Children are spans that were opened while the parent was the
    innermost open span of the same thread of the same process.
    """
    spans = list(spans)
    child_time: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            child_time[(span[5], span[4])] += span[3] - span[2]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += (span[3] - span[2]) - child_time[(span[5], span[0])]
    return dict(totals)


# -- the wrapper table -------------------------------------------------------------


def _rows(args, kwargs, result) -> dict:
    return {"telemetry.rows": len(args[1])}


def _digest(args, kwargs, result) -> dict:
    return {"telemetry.digest_chunks_hashed": result.hashed_chunks}


def _tasks(args, kwargs, result) -> dict:
    return {"parallel.tasks": len(result)}


def _windows(args, kwargs, result) -> dict:
    return {"simulation.windows": len(result)}


def _ingest(args, kwargs, result) -> dict:
    return {"service.http.ingest_rows": args[1].num_samples}


def _bytes(args, kwargs, result) -> dict:
    return {"service.http.bytes_out": len(result)}


#: (module, attribute path, span name, counter) for every traced call.
#: Span names are ``<layer>.<call>``; the layer is everything before the
#: last dot.
TARGETS = (
    ("repro.simulation.engine", "FacilityEngine.run", "simulation.engine", None),
    ("repro.scheduler.scheduler", "MiraScheduler.step", "scheduler.step", None),
    ("repro.telemetry.database", "EnvironmentalDatabase.append_block",
     "telemetry.append_block", _rows),
    ("repro.telemetry.database", "EnvironmentalDatabase.digest_info",
     "telemetry.digest", _digest),
    ("repro.simulation.datasets", "build_dataset", "simulation.datasets", None),
    ("repro.simulation.datasets", "materialize_archive",
     "simulation.materialize_archive", None),
    ("repro.analytics.incremental.memo", "SectionMemoStore.load_rows",
     "analytics.memo_load", None),
    ("repro.analytics.incremental.memo", "SectionMemoStore.load_state",
     "analytics.memo_load", None),
    ("repro.analytics.incremental.memo", "SectionMemoStore.store_rows",
     "analytics.memo_store", None),
    ("repro.analytics.incremental.memo", "SectionMemoStore.store_state",
     "analytics.memo_store", None),
    ("repro.analytics.incremental.sections", "advance_state",
     "analytics.advance_state", None),
    ("repro.parallel", "pstarmap", "parallel.pstarmap", None),
    ("repro.parallel", "pmap", "parallel.pmap", _tasks),
    ("repro.simulation.windows", "WindowSynthesizer.positive_windows",
     "simulation.windows", _windows),
    ("repro.simulation.windows", "WindowSynthesizer.negative_windows",
     "simulation.windows", _windows),
    ("repro.core.prediction", "build_datasets", "core.featurize", None),
    ("repro.ml.train", "train_classifier", "ml.train", None),
    ("repro.service.http.app", "OperationsApp.handle", "service.http.app", None),
    ("repro.service.http.protocol", "dumps", "service.http.dumps", _bytes),
    ("repro.service.http.ingest", "IngestGateway.ingest", "service.http.ingest",
     _ingest),
    ("repro.service.query", "QueryEngine.execute_versioned",
     "service.query.execute", None),
    ("repro.service.rollup", "RollupStore.add_block", "service.rollup.add_block",
     None),
    ("repro.service.bus", "ReplayBus.run", "service.bus.run", None),
    ("repro.service.subscribers", "RollupSubscriber.__call__",
     "service.subscribers.rollups", None),
    ("repro.service.subscribers", "CusumSubscriber.__call__",
     "service.subscribers.cusum", None),
    ("repro.service.durability", "WriteAheadLog.append",
     "service.durability.wal_append", None),
    ("repro.service.durability", "WriteAheadLog.scan",
     "service.durability.wal_scan", None),
    ("repro.service.durability", "replay_component",
     "service.durability.replay", None),
)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded module attribute that names ``original`` at the
    wrapper, so ``from x import f`` callers are traced too."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, replacement)


def _install_target(tracer: Tracer, module_name: str, path: str, name: str,
                    count) -> None:
    module = importlib.import_module(module_name)
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        owner = module
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(raw.__func__, name, count)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, count))
    else:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(original, name, count))


def _install_sections(tracer: Tracer) -> None:
    """One ``core.section`` span per report section builder call."""
    from repro.analytics.incremental import sections
    from repro.core import experiments

    wrapped = {}
    for title, fn in experiments.SECTION_BUILDERS:
        traced = tracer.wrap(fn, "core.section")
        wrapped[fn.__name__] = traced
        _replace_everywhere(fn, traced)
    experiments.SECTION_BUILDERS = tuple(
        (title, wrapped[fn.__name__]) for title, fn in experiments.SECTION_BUILDERS
    )
    # The pool dispatches by builder name through this private table.
    experiments._BUILDERS_BY_NAME.update(wrapped)
    # With the section memo on, Figs 2-9 are finalized from folded
    # reducer states instead of their builders: still one span each.
    for name, section in list(sections.INCREMENTAL_SECTIONS.items()):
        sections.INCREMENTAL_SECTIONS[name] = dataclasses.replace(
            section, finalize=tracer.wrap(section.finalize, "core.section"))


def _install_http_request(tracer: Tracer) -> None:
    """``service.http.request``: request line parsed -> response flushed.

    ``handle_one_request`` itself also blocks on reading the next
    request of a kept-alive connection, which is client think time, so
    the span opens when the request line has arrived.
    """
    from repro.service.http import server

    handler = server._OperationsHandler
    parse_request = handler.parse_request
    handle_one_request = handler.handle_one_request

    @functools.wraps(parse_request)
    def traced_parse(self):
        self._perfbench_span = tracer.open("service.http.request")
        return parse_request(self)

    @functools.wraps(handle_one_request)
    def traced_handle(self):
        try:
            handle_one_request(self)
        finally:
            span = self.__dict__.pop("_perfbench_span", None)
            if span is not None:
                tracer.close(span)

    handler.parse_request = traced_parse
    handler.handle_one_request = traced_handle


def install(out_dir: Path) -> Tracer:
    """Import the traced ``repro`` modules and wrap every target call."""
    tracer = Tracer(out_dir)
    for module_name, *_ in TARGETS:
        importlib.import_module(module_name)
    importlib.import_module("repro.cli")
    importlib.import_module("repro.core.experiments")
    importlib.import_module("repro.service.http.server")
    for target in TARGETS:
        _install_target(tracer, *target)
    _install_sections(tracer)
    _install_http_request(tracer)
    return tracer
