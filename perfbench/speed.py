"""Host speed, sampled between ops, so that op times do not swing with the host.

On a shared host the same code runs at very different speeds from one
stretch of seconds to the next.  On the 2-vCPU VM of the baseline, a fixed
pure-Python loop took 37 ms in one stretch and 74 ms in another; CPU time
moved with wall time, so it is not steal time and no clock removes it.
Numpy gathers over large tables swing the same way.

The slow stretches come and go within fractions of a second: timed back to
back, a 2 to 3 ms kernel flips between two speeds 1.6 times apart in bursts of
0.2 to 0.6 s.  So a `Speed` times a short fixed reference kernel right
before and right after every op, never inside one.  `scale(t0, t1)` is the
nominal kernel time over the mean kernel time around [t0, t1]: the samples
just before and after the op and, for a long op, every sample within half
its length of it.  An op's wall time times that factor is its time on a
host that runs the kernel in the nominal time.  A change to the program
moves that figure; a slow stretch of the host moves the kernel as much as
the op and cancels out.

Three kernels, each for the work whose time goes where the kernel's does:
`process` (an interpreted loop on small integers, then a fork of this
process that exits at once: starting a process and importing), `bigint`
(products and sums over nested lists of 71-bit integers: exact integer
linear algebra) and `numpy` (a gather and a column minimum over a fixed
table: table lookups).  Over 100 s of a slowing and recovering host, the
10 s medians of a repeated `verdict-corpus` op swung from 0.35 to 0.60 s
of wall time; in `bigint` units they stayed within 3.5% of their median,
in units of the integer loop alone within 8%.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

REPEATS = 2  # kernel runs per sample; the sample is their minimum, so one interrupt is dropped
# Each kernel's median time within benchmark runs on the baseline's VM, so that
# scaled figures read as seconds on that VM at its usual speed.
NOMINAL = {"process": 0.0026, "bigint": 0.0013, "numpy": 0.002}


def _process_kernel():
    s = 0
    for i in range(12000):
        s += i * i % 7
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return s


def _bigint_kernel():
    m = [[(i * 7 + j * 13) % 97 + (1 << 70) for j in range(28)] for i in range(28)]
    rows = [[sum(m[i][t] * m[t][j] for t in range(28)) for j in range(28)]
            for i in range(0, 28, 4)]
    return {i: str(x) for i, x in enumerate(rows[0])}


def _numpy_kernel_factory():
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.integers(0, 400, size=(400, 400))
    perm = rng.permutation(400)

    def kernel():
        return table[table, perm[:, None]].min(axis=0)

    return kernel


class Speed:
    """Timed samples of one reference kernel over a run."""

    def __init__(self, kind):
        self.kind = kind
        if kind == "numpy":
            self.kernel = _numpy_kernel_factory()
        else:
            self.kernel = {"process": _process_kernel, "bigint": _bigint_kernel}[kind]
        self.nominal = NOMINAL[kind]
        self.times = []  # sample midpoints, increasing
        self.secs = []  # kernel seconds of each sample
        self.kernel()  # warm-up, not recorded

    def sample(self):
        """Time the kernel (call right before and right after each op)."""
        best = float("inf")
        start = time.perf_counter()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append((start + time.perf_counter()) / 2)
        self.secs.append(best)

    def scale(self, t0, t1):
        """Nominal over mean kernel time around [t0, t1]: the last sample before t0,
        the first after t1 and every sample within half the interval's length of it."""
        half = (t1 - t0) / 2
        lo = bisect.bisect_left(self.times, t0 - half)
        hi = bisect.bisect_right(self.times, t1 + half)
        lo = min(lo, max(bisect.bisect_left(self.times, t0) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.times, t1) + 1, len(self.times)))
        return self.nominal / statistics.fmean(self.secs[lo:hi])

    def summary(self):
        return (f"reference kernel ({self.kind}): {len(self.secs)} samples, "
                f"median {statistics.median(self.secs) * 1e3:.3f} ms, "
                f"min {min(self.secs) * 1e3:.3f} ms, max {max(self.secs) * 1e3:.3f} ms, "
                f"nominal {self.nominal * 1e3:g} ms")
