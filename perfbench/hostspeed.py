"""Host speed: how fast this host runs a fixed piece of reference work now.

The reference host is shared, and its speed drifts over minutes: the
ispd_chips workload ran at 1.4 jobs/s and, an hour later, at 3.6 jobs/s with
the program unchanged, and ten runs of one workload a few minutes apart read
25-34 s on one stretch and 18-25 s on the next.  A wall time taken on such a
host measures the neighbours as much as the program.  So a run times a fixed
piece of work that does not use the program -- the Python interpreter's dict
and loop work plus numpy array passes, the two kinds of work the program
does -- between its cycles, and scales its job times and rates to the speed
the host had when :data:`REFERENCE_S` was measured.  A workload that keeps
several processes busy (served_mix's pool) probes with as many processes at
once, because what slows it is fewer free CPUs as much as slower ones.  A
change to the program moves the scaled times as it moves the raw ones; a
change of the host's speed moves the probe as well and cancels out.  The raw
times and the factor are printed next to the scaled ones.

``setup_s`` is not scaled.  Much of a set-up is process start-up, whose
speed changes between stretches of the host by about 25% while the probe
reads the same, and moves by less than the probe when both change.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List

import numpy as np

#: Seconds one probe took on the reference host (2 CPUs), median of 24.
REFERENCE_S = 0.051

#: Untimed warm-up repetitions, then timed ones, in each probe process.
WARM_UP, TIMED = 1, 3


def _reference_work(array: np.ndarray) -> None:
    table: dict = {}
    for i in range(200_000):
        table[i % 997] = table.get(i % 997, 0) + i * 3
    for _ in range(25):
        np.maximum(np.cumsum(array, axis=1), 0.1).sum(axis=0)


def timed_reference() -> float:
    """The median timing of the reference work in this process."""
    array = np.random.default_rng(0).standard_normal((50, 4000))
    readings = []
    for rep in range(WARM_UP + TIMED):
        start = time.perf_counter()
        _reference_work(array)
        if rep >= WARM_UP:
            readings.append(time.perf_counter() - start)
    return statistics.median(readings)


class HostSpeed:
    """Probes taken through a run; :attr:`factor` scales its times.

    Each probe runs the reference work in fresh processes, so what the run's
    own process has done -- the memory it holds, the state of its allocator
    -- does not move the reading.
    """

    def __init__(self, parallel: int = 1) -> None:
        self.parallel = parallel
        self.probes: List[float] = []

    def probe(self) -> None:
        """Time the reference work in ``parallel`` fresh processes at once."""
        procs = [
            subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE, text=True)
            for _ in range(self.parallel)
        ]
        try:
            readings = [float(proc.communicate(timeout=60)[0]) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        self.probes.append(statistics.fmean(readings))

    @property
    def factor(self) -> float:
        """Reference-host seconds per second of this run (below 1 when slow)."""
        return REFERENCE_S / statistics.median(self.probes)


if __name__ == "__main__":
    print(timed_reference())
