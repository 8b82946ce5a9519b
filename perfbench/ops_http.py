"""The ``ops-http`` workload: ``repro serve-http`` as a subprocess, driven
over real sockets by a single-process generator with two kept-alive
connections (one thread each).

Each run launches the server twice on a one-year hourly dataset with
ingest open.  On each launch the generator sweeps the dashboard working
set back to back: once cold (every answer a query-cache miss), then
warm (every answer a hit).  The first launch then runs the **read**
phase (an open loop of evenly spaced polls), the second the **mixed**
phase (the same polls plus a collector POSTing tail batches on one
connection) and a verification sweep at the final ``store_version``.
Open-loop requests are timed from their due time.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

import layers
from common import (
    LAUNCHER,
    ROOT,
    BenchError,
    Outcome,
    private_env,
    remove_tree,
    scratch_dir,
    tail_percentile,
)
from tracing import clock, load_spans

DAYS = 365
DT_S = 3600.0
DEFAULT_SIM_SEED = 7
#: Distinct dashboard paths; well under the server's 1024-entry query
#: cache, so the warm sweep and the polls are cache hits.
WORKING_SET = 100
#: Open-loop poll rate: below the 2-connection capacity of the parent
#: commit (~45 req/s), so the backlog does not grow.
POLL_RATE = 25.0
POST_RATE = 2.0
#: Rows per collector POST: the ``batch_samples`` default of the repo's
#: ``SimulatedPollerCollector``.
SAMPLES_PER_POST = 64
VERIFY_SAMPLE = 20
CONNECTIONS = 2


# -- the server -------------------------------------------------------------------


class Server:
    """One ``serve-http`` subprocess, started and stopped by the benchmark."""

    def __init__(self, sim: int, cache_root: Path,
                 trace_dir: Optional[Path] = None) -> None:
        argv = ["serve-http", "--days", str(DAYS), "--dt", str(DT_S),
                "--seed", str(sim), "--port", "0"]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(LAUNCHER), str(trace_dir), *argv]
        started = clock()
        self.proc = subprocess.Popen(command, env=private_env(cache_root),
                                     cwd=str(ROOT), stdout=subprocess.PIPE,
                                     text=True)
        try:
            self.host, self.port = self._announced()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - started

    def _announced(self) -> Tuple[str, int]:
        for line in self.proc.stdout:
            if line.startswith("serving "):
                url = urlsplit(line.split(" on ", 1)[1].split()[0])
                return url.hostname, url.port
        raise BenchError(f"serve-http exited with {self.proc.wait()} before serving")

    def _wait_healthy(self) -> None:
        deadline = clock() + 60.0
        while clock() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                if json.loads(conn.getresponse().read()).get("status") == "ok":
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise BenchError("serve-http never reported healthy")

    def get_json(self, path: str) -> Dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# -- the generator ----------------------------------------------------------------


class Connection:
    """One kept-alive HTTP/1.1 connection; transport errors reconnect."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """``(status, payload bytes, send time, done time)``; status 0 is a
        transport error."""
        sent = clock()
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            self.conn.request(method, path, body=body, headers=headers)
            reply = self.conn.getresponse()
            payload = reply.read()
            status = reply.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            status, payload = 0, b""
        return status, payload, sent, clock()

    def close(self) -> None:
        self.conn.close()


def _parses(status: int, payload: bytes) -> bool:
    if status != 200:
        return False
    try:
        json.loads(payload)
    except ValueError:
        return False
    return True


def _parallel(connections: List[Connection], work) -> List:
    """Run ``work(index, connection)`` on one thread per connection."""
    results: List = [None] * len(connections)
    errors: List[BaseException] = []

    def target(index: int) -> None:
        try:
            results[index] = work(index, connections[index])
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(i,))
               for i in range(len(connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def sweep(connections: List[Connection], paths: List[str], outcome: Outcome):
    """Closed loop: every path once, back to back, split over the
    connections.  Returns the sweep's wall clock, its start, and every
    request's send-to-reply time."""
    shards = [paths[i::len(connections)] for i in range(len(connections))]

    def work(index, connection):
        latencies = []
        for path in shards[index]:
            status, payload, sent, done = connection.request("GET", path)
            outcome.op(_parses(status, payload), f"GET {path} -> {status}")
            latencies.append(done - sent)
        return latencies

    started = clock()
    latencies = [x for shard in _parallel(connections, work) for x in shard]
    return clock() - started, started, latencies


def open_loop(connections: List[Connection], schedule: List[tuple],
              outcome: Outcome) -> List[dict]:
    """Send each ``(due, connection, method, path, body)`` at its due time
    (or as soon as its connection is free) and time it from the due time."""
    per_connection = [[item for item in schedule if item[1] == i]
                      for i in range(len(connections))]

    def work(index, connection):
        records = []
        for due, _, method, path, body in per_connection[index]:
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            status, payload, sent, done = connection.request(method, path, body)
            ok = _parses(status, payload)
            outcome.op(ok, f"{method} {path[:40]} -> {status}")
            records.append({"method": method, "path": path, "status": status,
                            "due": due, "sent": sent, "done": done})
        return records

    return [r for records in _parallel(connections, work) for r in records]


def _latency_figures(records: List[dict], prefix: str) -> Dict[str, float]:
    if not records:
        return {}
    from_due = [(r["done"] - r["due"]) * 1e3 for r in records]
    lag = [max(0.0, r["sent"] - r["due"]) * 1e3 for r in records]
    q = tail_percentile(len(records))
    return {
        f"{prefix}_count": len(records),
        f"{prefix}_p50_ms": np.percentile(from_due, 50),
        f"{prefix}_p{q}_ms": np.percentile(from_due, q),
        f"{prefix}_send_lag_median_ms": median(lag),
        f"{prefix}_send_lag_max_ms": max(lag),
    }


# -- inputs and reference answers -------------------------------------------------


def _working_set(store, num_racks: int, mix: int, tail_s: float) -> List[str]:
    """``WORKING_SET`` distinct dashboard paths.

    First one "live" panel per channel: the facility mean from the last
    day of the data to the end of the ``tail_s`` the collector will
    post, so every batch of the mixed phase invalidates it.  Then the repo's seeded query mix.
    The mix also draws year-long series without ``resolution_s``, which
    the API refuses by design (422 ``window_too_large``); a dashboard
    would not send them, so candidates the in-process app does not
    answer with 200 are skipped.
    """
    from repro.service import Query, QueryEngine
    from repro.service.http import OperationsApp, generate_query_paths
    from repro.service.http.protocol import query_path
    from repro.telemetry.records import CHANNELS

    bounds = store.epoch_bounds()
    day = 86400.0
    live = [query_path("aggregate", Query("aggregate", channel, bounds[1] - day,
                                          bounds[1] + tail_s + day, stat="mean"))
            for channel in CHANNELS]
    candidates = generate_query_paths(bounds[0], bounds[1], num_racks,
                                      store.resolutions_s, 2 * WORKING_SET, seed=mix)
    app = OperationsApp(QueryEngine(store))
    accepted = []
    for path in dict.fromkeys(live + candidates):
        split = urlsplit(path)
        params = {k: v[-1] for k, v in parse_qs(split.query).items()}
        if app.handle("GET", split.path, params)[0] == 200:
            accepted.append(path)
    return accepted[:WORKING_SET]


def _poll_schedule(paths: List[str], start: float, duration_s: float,
                   rng: random.Random) -> List[tuple]:
    count = int(duration_s * POLL_RATE)
    return [(start + i / POLL_RATE, i % CONNECTIONS, "GET", rng.choice(paths), None)
            for i in range(count)]


def _tail_batches(database, count: int, seed: int) -> List[Tuple[np.ndarray, Dict]]:
    """Seeded collector batches continuing the dataset past its last sample."""
    from repro.telemetry.records import CHANNELS

    rng = np.random.default_rng(seed)
    last = float(database.epoch_s[-1])
    recent = {ch: np.nan_to_num(database.channel(ch).values[-1]) for ch in CHANNELS}
    batches = []
    for b in range(count):
        epochs = last + DT_S * (1 + b * SAMPLES_PER_POST + np.arange(SAMPLES_PER_POST))
        channels = {
            ch: row[None, :] * rng.normal(1.0, 0.01, size=(SAMPLES_PER_POST, row.size))
            for ch, row in recent.items()
        }
        batches.append((epochs, channels))
    return batches


def _same(a, b) -> bool:
    """JSON answers equal: exact structure, numbers to 1e-9."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) - {"store_version"}
        return keys == set(b) - {"store_version"} and all(_same(a[k], b[k]) for k in keys)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _expected(engine, path: str, version: int) -> Dict:
    from repro.service.http.protocol import dumps, encode_result, parse_query

    split = urlsplit(path)
    params = {k: v[-1] for k, v in parse_qs(split.query).items()}
    kind = split.path.rsplit("/", 1)[1]
    return json.loads(dumps(encode_result(engine.execute(parse_query(kind, params)),
                                          version)))


def _check_answers(engine, answers: Dict[str, bytes], version: int,
                   outcome: Outcome, label: str) -> None:
    for path, payload in answers.items():
        try:
            got = json.loads(payload)
        except ValueError:
            outcome.check(False, f"{label}: unparsable answer for {path}")
            continue
        outcome.check(got.get("store_version") == version,
                      f"{label}: answer at store_version {got.get('store_version')}, "
                      f"expected {version}")
        outcome.check(_same(got, _expected(engine, path, version)),
                      f"{label}: HTTP answer differs from QueryEngine for {path}")


# -- the workload -----------------------------------------------------------------


def _session(sim: int, mix: int, paths: List[str], verify_paths: List[str],
             batches, phase_s: float, outcome: Outcome, cache_root: Path,
             trace_dir: Optional[Path]) -> Dict:
    """Both launches with every phase; returns walls, records and answers."""
    from repro.service.http.protocol import encode_batch

    rng = random.Random(mix)
    out: Dict = {"setup": [], "cold": [], "warm": [], "metrics": [],
                 "warm_windows": [], "warm_latencies": []}
    began = clock()
    for launch in ("read", "mixed"):
        server = Server(sim, cache_root, trace_dir)
        connections = [Connection(server.host, server.port) for _ in range(CONNECTIONS)]
        try:
            out["setup"].append(server.setup_s)
            out["cold"].append(sweep(connections, paths, outcome)[0])
            wall, start, latencies = sweep(connections, paths, outcome)
            out["warm"].append(wall)
            out["warm_windows"].append((start, start + wall))
            out["warm_latencies"].extend(latencies)
            start = clock() + 0.05
            schedule = _poll_schedule(paths, start, phase_s, rng)
            if launch == "mixed":
                bodies = [json.dumps(encode_batch("bench", epochs, channels)).encode()
                          for epochs, channels in batches]
                schedule += [(start + (j + 0.5) / POST_RATE, 0, "POST", "/v1/ingest", body)
                             for j, body in enumerate(bodies)]
                schedule.sort(key=lambda item: item[0])
            out[f"{launch}_records"] = open_loop(connections, schedule, outcome)
            # The answers the output check compares, at the version the
            # phase left the store in.
            out[f"{launch}_version"] = server.get_json("/healthz")["store_version"]
            answers = out[f"{launch}_answers"] = {}
            for path in verify_paths:
                status, payload, _, _ = connections[0].request("GET", path)
                outcome.op(_parses(status, payload), f"GET {path} -> {status}")
                answers[path] = payload
            out["metrics"].append(server.get_json("/metrics"))
        finally:
            for connection in connections:
                connection.close()
            server.stop()
    out["wall_s"] = clock() - began
    return out


def run(seed: int, seconds: float, trace: bool, outcome: Outcome) -> Dict:
    from repro.service import QueryEngine, RollupStore
    from repro.simulation import FacilityEngine, MiraScenario
    from repro.telemetry.records import CHANNELS

    sim, mix = DEFAULT_SIM_SEED + seed, seed
    reference = FacilityEngine(MiraScenario.demo(days=DAYS, seed=sim, dt_s=DT_S)).run()
    database = reference.database
    store = RollupStore(database.num_racks)
    store.ingest_database(database)
    phase_s = max(4.0, 0.25 * seconds)
    batches = _tail_batches(database, int(phase_s * POST_RATE), seed=mix)
    paths = _working_set(store, database.num_racks, mix,
                         len(batches) * SAMPLES_PER_POST * DT_S)
    # The live panels, whose answers change with the ingested tail, plus
    # a seeded sample of the rest.
    live = len(CHANNELS)
    verify_paths = paths[:live] + random.Random(mix).sample(
        paths[live:], VERIFY_SAMPLE - live)

    cache_root = scratch_dir("cache-")
    try:
        session = _session(sim, mix, paths, verify_paths, batches, phase_s,
                           outcome, cache_root, None)
        traced = None
        if trace:
            trace_dir = scratch_dir("trace-")
            try:
                traced = _session(sim, mix, paths, verify_paths, batches,
                                  phase_s, outcome, cache_root, trace_dir)
                spans, counts = load_spans(trace_dir)
            finally:
                remove_tree(trace_dir)
    finally:
        remove_tree(cache_root)

    # After the read phase: answers equal direct QueryEngine answers.
    _check_answers(QueryEngine(store), session["read_answers"],
                   session["read_version"], outcome, "read phase")

    # After the mixed phase: the accepted tail folded in, compared at the
    # server's final store_version.
    posts = [r for r in session["mixed_records"] if r["method"] == "POST"]
    accepted = {r["due"] for r in posts if r["status"] == 200}
    post_dues = sorted(r["due"] for r in posts)
    tail_start = None
    for due, (epochs, channels) in zip(post_dues, batches):
        if due in accepted:
            database.append_block(epochs, channels)
            tail_start = epochs[0] if tail_start is None else tail_start
    if tail_start is not None:
        store.ingest_database(database, start_epoch_s=tail_start)
    _check_answers(QueryEngine(store), session["mixed_answers"],
                   session["mixed_version"], outcome, "after mixed phase")
    outcome.check(len(accepted) == len(batches),
                  f"mixed phase: {len(accepted)} of {len(batches)} batches accepted")

    figures = _figures(session, paths, posts)
    result = {
        "end_to_end": {
            "setup_s": median(session["setup"]),
            "cold_s": median(session["cold"]),
            "warm_s": median(session["warm"]),
        },
        "figures": figures,
    }
    figures.update(sim_seed=sim, mix_seed=mix, working_set=len(paths),
                   phase_s=phase_s)
    if traced is not None:
        counts.update(_server_counters(traced))
        counts["service.http.wire_ms"] = _wire_ms(traced, spans)
        counts["service.http.ingest_429"] = sum(
            1 for r in traced["mixed_records"] if r["status"] == 429)
        overhead = traced["wall_s"] - session["wall_s"]
        result["per_layer"] = layers.compute(spans, counts, overhead)
        figures["traced"] = _figures(traced, paths, [
            r for r in traced["mixed_records"] if r["method"] == "POST"])
        figures["traced"]["wire_ms"] = counts["service.http.wire_ms"]
    return result


def _figures(session: Dict, paths: List[str], posts: List[dict]) -> Dict:
    reads = session["read_records"]
    mixed = [r for r in session["mixed_records"] if r["method"] == "GET"]
    figures: Dict = {
        "setup_runs": session["setup"],
        "cold_sweeps": session["cold"],
        "warm_sweeps": session["warm"],
        "query_peak_rps": len(paths) / median(session["warm"]),
        "ingest_429": sum(1 for r in posts if r["status"] == 429),
    }
    peak = [x * 1e3 for x in session["warm_latencies"]]
    figures["peak_query_p50_ms"] = np.percentile(peak, 50)
    figures[f"peak_query_p{tail_percentile(len(peak))}_ms"] = np.percentile(
        peak, tail_percentile(len(peak)))
    figures.update(_latency_figures(reads, "query"))
    figures.update(_latency_figures(mixed, "mixed_query"))
    figures.update(_latency_figures(posts, "ingest"))
    return figures


def _server_counters(session: Dict) -> Dict[str, float]:
    hits = sum(m["cache"]["hits"] for m in session["metrics"])
    misses = sum(m["cache"]["misses"] for m in session["metrics"])
    return {
        "service.query.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.query.invalidations": float(
            sum(m["cache"]["invalidations"] for m in session["metrics"])),
    }


def _wire_ms(session: Dict, spans: List[list]) -> float:
    """Mean client send-to-reply time minus mean server request time,
    over the warm sweeps (back-to-back requests on kept-alive
    connections, where transport stalls show)."""
    client = session["warm_latencies"]
    server = [s[3] - s[2] for s in spans
              if s[1] == "service.http.request"
              and any(lo <= s[2] <= hi for lo, hi in session["warm_windows"])]
    if not client or not server:
        return 0.0
    return (sum(client) / len(client) - sum(server) / len(server)) * 1e3
