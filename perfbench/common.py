"""Shared plumbing: the checkout's ``src``, private environments, CLI
subprocesses, order statistics and the run record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
LAUNCHER = BENCH_DIR / "launch.py"

#: Inherited settings that would let one run see another's caches or
#: pin a worker count the user did not choose.
STRIPPED_ENV = ("REPRO_DATASET_CACHE", "REPRO_SECTION_CACHE", "REPRO_WORKERS",
                "REPRO_CACHE_DIR", "PYTHONPATH")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a failed start)."""


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    # Compile once up front so no timed import pays for bytecode.
    import compileall

    compileall.compile_dir(str(SRC / "repro"), quiet=1)


def scratch_dir(prefix: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def private_env(cache_root: Path) -> Dict[str, str]:
    """The caller's environment with every repro cache pointed at
    ``cache_root`` and only this checkout's sources importable."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["REPRO_CACHE_DIR"] = str(cache_root)
    env["PYTHONPATH"] = str(SRC)
    return env


def isolate_this_process(cache_root: Path) -> None:
    """Apply :func:`private_env` to the benchmark's own process."""
    for key in STRIPPED_ENV:
        os.environ.pop(key, None)
    os.environ["REPRO_CACHE_DIR"] = str(cache_root)


def run_cli(argv: Sequence[str], cache_root: Path,
            trace_dir: Optional[Path] = None, timeout_s: float = 170.0):
    """Run ``python -m repro <argv>`` (or the tracing launcher) to the end.

    Returns ``(wall_s, returncode, stdout)``; the wall clock covers the
    interpreter start and every import, as a user sees it.
    """
    if trace_dir is None:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        command = [sys.executable, str(LAUNCHER), str(trace_dir), *argv]
    started = time.perf_counter()
    proc = subprocess.run(command, env=private_env(cache_root), cwd=str(ROOT),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout_s)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return wall, proc.returncode, proc.stdout


def import_seconds(cache_root: Path, repeats: int = 3) -> float:
    """Median time of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code],
                             env=private_env(cache_root), cwd=str(ROOT),
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=60).stdout
        values.append(float(out.strip()))
    return median(values)


def tail_percentile(count: int) -> int:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if count * (100 - q) / 100.0 >= 10:
            return q
    return 50


def source_digest() -> str:
    """sha256 over every file under ``src/repro`` (the checkout may not be
    a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workers: Optional[int]) -> Dict[str, object]:
    import numpy

    import repro

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "commit": commit(),
        "source_digest": source_digest(),
        "resolved_workers": workers,
        "platform": platform.platform(),
    }


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def write_record(workload: str, trace: bool, record: Dict) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"last-{workload}{'-trace' if trace else ''}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    return path


class Outcome:
    """Attempted/failed operations and failed output checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def op(self, ok: bool, what: str = "") -> None:
        """Count one operation; load-generator threads call this concurrently."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if what and len(self.problems) < 20:
                    self.problems.append(f"failed: {what}")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(f"check: {what}")

    @property
    def correct(self) -> bool:
        return not any(p.startswith("check:") for p in self.problems)
