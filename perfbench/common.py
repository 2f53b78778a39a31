"""Shared helpers: percentiles, process resource readings, reporting."""

from __future__ import annotations

import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where runs leave their span files and server logs (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(pct / 100.0 * len(ordered))))
    return float(ordered[rank])


def tail_percentile(count: int) -> Optional[float]:
    """The highest reportable percentile with at least ten samples beyond
    it, or None when there are fewer than twenty samples."""
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def out_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


#: About what :func:`reference_s` reads on the 2-vCPU x86 virtual machine
#: the baseline was recorded on while its host is quiet: the "reference
#: core".  A fixed constant, so a figure scaled by :func:`host_factor` is
#: in seconds of that core whichever host it was measured on.
REFERENCE_S = 0.0045


def _reference_loop() -> None:
    """A fixed slice of the interpreter work the program does most: heap
    pushes and pops, dict stores and small tuples."""
    heap: list = []
    table: dict = {}
    for index in range(6000):
        heapq.heappush(heap, ((index * 7919) % 1009, index))
        table[index & 511] = (index, heap[0])
        if len(heap) > 256:
            heapq.heappop(heap)


def reference_s() -> float:
    """Wall seconds of the reference loop now, the median of five runs
    with the garbage collector off.

    The cores of a shared host slow down and speed up again over seconds
    to minutes (by up to twice, with no steal time), and every timing of
    the program moves with them.  Timing this loop next to a measured
    stretch tells how fast the core was meanwhile."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(5):
            started = time.perf_counter()
            _reference_loop()
            samples.append(time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return median(samples)


def host_factor(*references: float) -> float:
    """How much slower the core ran than the reference core, from
    :func:`reference_s` readings taken around a measured stretch.  A
    stretch's wall or CPU seconds divided by it are reference seconds."""
    return statistics.mean(references) / REFERENCE_S


class Report:
    """Metrics of one run: every value is printed as it is recorded, and
    the selected ones end up in the final JSON line."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        suffix = f"  ({note})" if note else ""
        print(f"[{self.workload}] {name} = {value:.6g} {unit}{suffix}",
              flush=True)

    def latency(self, prefix: str, samples: Sequence[float], unit: str = "us",
                note: str = "", suffix: str = "") -> None:
        """Record a timing as its median and its tail, with the count.

        The tail is p99 when at least ten samples lie beyond it, else the
        highest percentile that has ten beyond it."""
        count = len(samples)
        if count == 0:
            self.problems.append(f"{prefix}: no latency samples")
            return
        extra = f", {note}" if note else ""
        self.add(f"{prefix}p50_{unit}{suffix}", percentile(samples, 50.0), unit,
                 f"n={count}{extra}")
        tail = tail_percentile(count)
        if tail is None:
            return
        label = f"p{tail:g}".replace(".", "")
        beyond = count - int(tail / 100 * count)
        self.add(f"{prefix}{label}_{unit}{suffix}", percentile(samples, tail), unit,
                 f"n={count}, {beyond} samples beyond{extra}")

    def check(self, problems: Sequence[str], what: str) -> None:
        for problem in problems:
            print(f"[{self.workload}] CHECK FAILED ({what}): {problem}",
                  flush=True)
        self.problems.extend(problems)
        if not problems:
            print(f"[{self.workload}] check ok: {what}", flush=True)

    def emit(self, selected: Sequence[str]) -> bool:
        """Print the final JSON line with the ``selected`` metrics; return
        whether the run was correct."""
        missing = [name for name in selected if name not in self.metrics]
        if missing:
            self.problems.append(f"metrics not measured: {missing}")
        correct = not self.problems and self.attempted > 0
        doc = {
            "correct": correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in selected if name in self.metrics
            },
        }
        sys.stdout.flush()
        print(json.dumps(doc), flush=True)
        return correct
