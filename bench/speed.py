"""Speed reference: scales timings to a fixed machine speed.

On a shared machine the speed of one CPU swings by up to a factor of two
within a second, as other tenants load the physical core behind it.  Probes
taken between operations, or on another CPU, track this badly.  So the
benchmark pins itself, its worker and a calibration process to one CPU.

The calibration process (``Clock``, running this file) never imports the
library.  At a low priority (nice 10, about a tenth of the CPU while an
operation runs) it runs ``unit`` in a loop: a fixed pure-Python workload of
Fraction, dict and float-list work, like the library's kernels.  After each
unit it logs the wall time and its own CPU time.  Because it
shares the CPU with the timed operation, slice by slice, its CPU time per
unit measures the CPU's speed during that operation.  A time is multiplied by
``REFERENCE_S`` over that CPU time per unit.

    python3 speed.py LOG    # calibrate until a line arrives on stdin, then
                            # write the log to LOG
"""

import os
import select
import subprocess
import sys
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter, process_time

# CPU time of one unit at the reference speed, a constant of the benchmark.
# Runs on a shared 2-CPU x86-64 virtual machine with Python 3.11 measured
# 0.35 to 0.66 ms (median 0.60); at 0.5 ms, scaled times of long operations
# read about as that machine's wall times
REFERENCE_S = 0.0005
NICE = 10
# a time is scaled by the speed over at least this much wall time around it
MIN_SPAN_S = 0.05


def unit():
    acc, table = Fraction(0), {}
    for i in range(1, 100):
        acc += Fraction(i % 7, i)
        table[i % 97] = table.get(i % 97, 0) + i * i
    m = [[((i * 7 + j * 3) % 11) / 11.0 for j in range(8)] for i in range(8)]
    mm = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in m]
    return acc, sorted(map(str, table.values())), mm


def pin_to_one_cpu():
    """Keep this process and the ones it starts on one CPU, where possible."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Clock:
    """Client of a calibration process running this file, from start to stop."""

    def __init__(self, log_path):
        self.log_path = log_path
        self.proc = subprocess.Popen([sys.executable, __file__, log_path], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != "ready\n":
            raise RuntimeError(f"calibration process exited (code {self.proc.poll()})")
        self.walls = self.cpus = None

    def stop(self):
        """End calibration and load its log."""
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        self.proc.wait(timeout=60)
        log = array("d")
        with open(self.log_path, "rb") as fh:
            log.frombytes(fh.read())
        self.walls, self.cpus = log[0::2], log[1::2]
        if len(self.walls) < 2:
            raise RuntimeError("calibration logged fewer than two units")

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def unit_s(self, t0, t1):
        """CPU time per unit over [t0, t1], widened to ``MIN_SPAN_S``."""
        pad = max(0.0, (MIN_SPAN_S - (t1 - t0)) / 2)
        lo = max(bisect_right(self.walls, t0 - pad) - 1, 0)
        hi = min(bisect_left(self.walls, t1 + pad), len(self.walls) - 1)
        if hi == lo:
            lo, hi = (lo - 1, lo) if lo else (lo, lo + 1)
        return (self.cpus[hi] - self.cpus[lo]) / (hi - lo)

    def factor(self, t0, t1):
        """REFERENCE_S over the CPU time per unit during [t0, t1]."""
        return REFERENCE_S / self.unit_s(t0, t1)

    def median_unit_s(self):
        return median(self.unit_s(t, t) for t in self.walls[::50])


def calibrate(log_path):
    os.nice(NICE)
    log = array("d")
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], 0)[0]:
        unit()
        log.append(perf_counter())
        log.append(process_time())
    with open(log_path, "wb") as fh:
        log.tofile(fh)


if __name__ == "__main__":
    calibrate(sys.argv[1])
