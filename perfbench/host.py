"""Host speed, measured beside the program.

The reference host is a VM that shares its cores with other tenants; for
minutes at a time it runs everything 10-70 % slower, and CPU time moves with
wall time.  So a run times a fixed pure-Python loop every ``REF_EVERY_S``
seconds, in the processes that run the ops, and every time the run reports is
scaled to a host on which that loop takes ``REF_MS``.

A reported time is a statistic over a run's samples: an op's best of N
passes, the median of the set-ups.  It is scaled by the loop's time at the
same rank among the run's loop samples, the 1/(N+1) quantile for a best of N
and the median for a median, so both sides see the host in the same state:

    scaled = measured * REF_MS / (loop samples' quantile at that rank)

A slower program still reads slower; a slower host does not.  The loop is the
benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from time import perf_counter

REF_MS = 11.0  # about the loop's median time on the reference host when it is quiet
REF_EVERY_S = 0.3


def ref_loop_ms() -> float:
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return (perf_counter() - start) * 1000.0


class RefSampler:
    """Loop samples, in ms."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(ref_loop_ms())
        self._last = perf_counter()

    def due(self) -> None:
        """Sample if none was taken in the last ``REF_EVERY_S`` seconds."""
        if perf_counter() - self._last >= REF_EVERY_S:
            self.sample()


def scale(samples: list[float], rank: float) -> float:
    """The factor that takes a statistic at quantile ``rank`` of a run's
    samples (1/(N+1) for a best of N, 0.5 for a median) to the reference host."""
    ranked = sorted(samples)
    return REF_MS / ranked[min(len(ranked) - 1, int(rank * len(ranked)))]


def best_rank(n: int) -> float:
    """The quantile a best of ``n`` samples sits at."""
    return 1.0 / (n + 1)


def host_info() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"
