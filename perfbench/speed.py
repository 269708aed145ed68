"""Host-speed sampler: CPU seconds scaled to a fixed interpreter speed.

On a shared machine the CPU seconds one unit of work costs swing by up to
2x with the neighbours' load (a busy hyperthread sibling, shared caches,
clock changes), from one second to the next and over minutes.  Medians
over a run do not remove a swing that lasts minutes, so the benchmark
measures the host's speed at the same instants the work runs:

- every :data:`INTERVAL_S` of a process's CPU time, ``SIGPROF`` times one
  pass of a fixed pure-Python loop (:func:`probe`);
- a process's CPU seconds are multiplied by :func:`factor` of the samples
  taken meanwhile: :data:`REFERENCE_NS` over their trimmed mean.

The result is CPU seconds at the speed at which the loop takes
:data:`REFERENCE_NS`.  A change to the program moves it as much as it
moves raw CPU time; the neighbours' load moves it far less.  On a shared
2-vCPU host whose speed factor swung between 0.45 and 0.72, the spread
(quartile distance over median) of ten runs' ``run_s`` fell from
0.1-0.3 raw to 0.02-0.03 scaled.  The sampler costs one loop (about
5-15 us) per 5 ms of CPU time, under 0.3%.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import List, Optional

INTERVAL_S = 0.005

#: Nanoseconds one :func:`probe` pass takes at the reference speed.
REFERENCE_NS = 5_000

#: Share of samples dropped at each end before averaging (a sample
#: interrupted by a context switch or a page fault).
TRIM = 0.1


def probe(clock=time.perf_counter_ns) -> int:
    """Nanoseconds one pass of the reference loop takes right now."""
    start = clock()
    x = 0
    for i in range(200):
        x = x ^ i & 127  # small ints only: no allocation, so no GC pass
    return clock() - start


def factor(samples: List[int]) -> float:
    """Scale from CPU seconds measured while *samples* were taken to CPU
    seconds at the reference speed."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return REFERENCE_NS * len(kept) / sum(kept)


class SpeedSampler:
    """Samples :func:`probe` on ``SIGPROF`` in one process at a time.

    A forked worker inherits the sampler but not its timer: the worker
    calls :meth:`arm` again, which drops the parent's samples, and hands
    its own to the parent through :meth:`flush`.
    """

    def __init__(self):
        self.samples: List[int] = []
        self.pid: Optional[int] = None
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(probe())

    def arm(self) -> None:
        """Start sampling in this process (a no-op if already sampling)."""
        if self.pid == os.getpid():
            return
        self.pid = os.getpid()
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> None:
        if self.pid != os.getpid():
            return
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.pid = None

    def flush(self, log: Path) -> None:
        """Append the samples taken so far to *log* and forget them."""
        samples, self.samples = self.samples, []
        if not samples:
            return
        # One write(2) on an O_APPEND file: workers flushing at once
        # cannot interleave inside a line.
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, "".join(f"{ns}\n" for ns in samples).encode())
        finally:
            os.close(fd)


def read_log(log: Path) -> List[int]:
    return [int(line) for line in log.read_text().split()] \
        if log.exists() else []
