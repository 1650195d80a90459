"""Shared pieces of the benchmark: the spec, statistics, the outcome."""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: scratch files of a run (traced-server span exports); never committed
WORK_DIR = ROOT / "bench" / ".work"

#: independent set-ups per run; ``setup_s`` is their median
SETUPS = 3

T = TypeVar("T")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's sources only, so
    a checkout without them fails instead of importing another copy.

    The string hash seed is fixed: with a random one, each server
    process settled into one of two latency regimes (serve-explicit
    windowed p90 118 or 142 us), which alone spread the serve metrics
    by 10-20 % from run to run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (the slowest sample when few)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def timed(fn: Callable[[], T]) -> Tuple[T, float]:
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def reset_peak_rss() -> None:
    """Restart this process's resident-set high watermark (``VmHWM``)
    from its live memory, so work done before (set-up, a reference
    replay) does not set the peak of what follows.

    Freed heap memory is handed back to the system first: left resident,
    it would hide growth that reuses it, and how much of it is left
    varies from run to run.
    """
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb(pid: object = "self") -> float:
    """A process's resident-set high watermark (``VmHWM``) in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def set_up(
    build: Callable[[], Tuple[T, Dict[str, float]]]
) -> Tuple[T, Dict[str, float]]:
    """Run ``build`` :data:`SETUPS` times; each returns its inputs and
    the seconds of each step.  Returns the last inputs, the median of
    each step and, as ``setup_s``, the median of the set-up totals."""
    built = None
    steps: List[Dict[str, float]] = []
    for _ in range(SETUPS):
        built = None  # let the previous set-up go before the next
        built, seconds = build()
        steps.append(seconds)
    medians = {key: median([s[key] for s in steps]) for key in steps[0]}
    medians["setup_s"] = median([sum(s.values()) for s in steps])
    return built, medians


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: phase name -> its length and sample counts
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: traced span names whose wrap site no longer exists
    missing: List[str] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)
