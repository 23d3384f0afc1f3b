"""Host-speed calibration: every reported time is in reference seconds.

On a shared host the same unit of work can take half again as long from
one minute to the next (on the 2-CPU host this benchmark was built on,
one ``report`` unit took 6.2 s to 12.6 s within five minutes), and CPU
time inflates with it.  No window of a run is long enough to average
that out.  So the benchmark runs a fixed calibration before the first
unit of work and after every unit, one process per CPU, and rescales
each unit's times by ``REFERENCE_S`` over the mean of the two
calibrations around it: wall times by the calibration's wall time, CPU
times by its CPU time.  CPU time leaves out the time a busy host takes
the CPU away, so a wall-time calibration would overcorrect it.  The
calibration never runs program code, so a change to the program moves
the rescaled times exactly as it moves the raw ones, while a change of
host speed moves both the units and the calibrations.  Raw seconds are
printed beside the rescaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

#: Calibration seconds on the reference host.  Part of the benchmark's
#: definition: changing it rescales every reported time.
REFERENCE_S = 0.4

#: Concurrent calibration processes: one per CPU of the reference host.
PROCS = 2

#: The kernels the program leans on, at a size where memory traffic
#: counts: numpy sort, gather, unique and membership over half a million
#: keys, and a dict of scattered integer keys.  Prints its own wall and
#: CPU seconds.  Small kernels on a few thousand entries track the
#: program's slowdowns on a busy host far worse: with them, rescaled
#: report times spread more than raw ones.
SOURCE = r"""
import time
import numpy as np
start, cpu_start = time.perf_counter(), time.process_time()
rng = np.random.default_rng(0)
keys = rng.integers(0, 2**62, 500_000, dtype=np.uint64)
order = np.argsort(keys, kind="stable")
gathered = keys[order]
groups = np.unique(keys[:200_000] >> np.uint64(24))
np.isin(keys[:125_000], groups[::7])
table = {}
for i in range(100_000):
    table[(i * 2654435761) % 1_000_003] = (i, i & 7)
total = 0
for i in range(0, 1_000_003, 12):
    total += table.get(i, (0, 0))[1]
print(time.perf_counter() - start, time.process_time() - cpu_start)
"""


def calibrate(cwd) -> tuple[float, float]:
    """Wall and CPU seconds one calibration takes now (means over its
    processes)."""
    procs = [subprocess.Popen([sys.executable, "-c", SOURCE], cwd=cwd,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(PROCS)]
    rows = [[float(value) for value in proc.communicate()[0].split()]
            for proc in procs]
    return tuple(statistics.mean(column) for column in zip(*rows))


class Clock:
    """Calibrations taken around the units of work of one run."""

    def __init__(self, cwd):
        self.cwd = cwd
        self.samples = [calibrate(cwd)]

    def tick(self) -> None:
        """Calibrate again, after a unit of work."""
        self.samples.append(calibrate(self.cwd))

    def factor(self, unit: int, cpu: bool = False) -> float:
        """Reference seconds per measured wall (or ``cpu``) second for the
        ``unit``-th unit of work: the calibrations just before and just
        after it."""
        return REFERENCE_S / statistics.mean(
            sample[cpu] for sample in self.samples[unit:unit + 2])

