"""Shared pieces of the benchmark: run header, statistics, results."""

from __future__ import annotations

import hashlib
import heapq
import os
import platform
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for broker data dirs and trace files, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench_work")

CALIBRATION_ITERATIONS = 2_000_000


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil(n * pct / 100)
    return float(ordered[min(len(ordered), int(rank)) - 1])


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; falls back to the median when the
    sample is too small for any tail.
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Run header (fields that describe the machine and the code, not the run)
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: a per-machine speed yardstick."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def src_digest() -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def header(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": round(calibration_s(), 4),
    }


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class _ProbeRow:
    __slots__ = ("total", "key", "serial")

    def __init__(self, total: int, key: str, serial: int) -> None:
        self.total = total
        self.key = key
        self.serial = serial


class HostProbe:
    """A fixed dict/heap/allocation loop that tracks the host's speed.

    The simulated workloads are one CPU-bound Python thread, and a
    shared host runs it up to 2-3x slower for seconds to minutes at a
    time.  The probe does the same kinds of work as the simulation
    (string-keyed dict lookups over a working set far above L2, small
    object allocation, a heap) and uses none of the program's code, so
    a change to the program leaves its time alone.  Timed between the
    chunks of a drive, it rescales each chunk's wall time to the time it
    would have taken on a host where the probe takes ``PROBE_REF_S``:
    see :meth:`reference_s`.
    """

    KEYS = 100_000
    OPS = 20_000
    #: The probe's time on the build host in a quiet stretch.
    PROBE_REF_S = 0.040

    def __init__(self) -> None:
        rng = random.Random("perfbench-host-probe")
        self.keys = [f"probe-key-{i}" for i in range(self.KEYS)]
        self.table = {key: i for i, key in enumerate(self.keys)}
        self.order = [rng.randrange(self.KEYS) for _ in range(self.OPS)]
        self.samples: List[float] = []
        self.measure()  # the pass before the first chunk

    def measure(self) -> float:
        """One pass of the loop; its wall time is kept in ``samples``."""
        keys, table = self.keys, self.table
        t0 = time.perf_counter()
        heap: list = []
        rows = {}
        total = 0
        for serial, i in enumerate(self.order):
            key = keys[i]
            total += table[key]
            row = _ProbeRow(total, key, serial)
            rows[key] = row
            heapq.heappush(heap, (i, serial, row))
            if len(heap) > 64:
                heapq.heappop(heap)
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def reference_s(self, wall_s: float) -> float:
        """``wall_s`` just measured, rescaled to the reference host speed.

        The host's speed over the chunk is taken from the mean of the
        pass before it and a new pass right after it.
        """
        before = self.samples[-1]
        return wall_s * self.PROBE_REF_S / ((before + self.measure()) / 2)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, from /proc; 0.0 when unavailable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# One run's outcome
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    #: Expected deliveries (the ``attempted`` count) and the failures
    #: among them by kind: missing, duplicate, out-of-order, gaps,
    #: unacked publishes, PFS errors.
    expected: int
    failures: Dict[str, int]
    violations: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    logged_pairs_per_s: float = 0.0
    #: Workload-specific end-to-end numbers (reported, see README).
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics, filled by traced runs.
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def repro_importable() -> bool:
    """Put the checkout's ``src`` first on the path; False if it is absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True
