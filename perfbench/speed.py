"""The machine's speed, sampled while the jobs run.

On a shared machine the same Python code runs up to twice as slowly at one
moment as at another, for seconds to minutes at a time, and the slowdown
strikes all Python code alike.  A `Speedometer` runs a fixed reference
kernel 20 times a second from a timer signal, in the worker's own thread,
between two bytecodes of whatever job is running.  A job's time is then

* its net time: wall time minus the kernels that ran inside it, and
* its scaled time: the net time times REFERENCE_S over the median kernel
  time of the samples around it (at least SAMPLES of them, taken during the
  job or, for a short job, just before and after it).

The scaled time is what the job would take on a machine running the kernel
in REFERENCE_S; it cancels the machine's slow-downs and keeps every change
in affpi0's own speed, since the kernel runs no affpi0 code.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.002     # about the kernel's time on the machine of README.md
TICK_S = 0.05
SAMPLES = 5

# one division step of sparse polynomials with rational coefficients, the
# kind of work the engine does
_DIVISOR = {(2, 0, 1): Fraction(1), (1, 1, 0): Fraction(3, 2),
            (0, 0, 1): Fraction(-5), (0, 0, 0): Fraction(7, 3)}
_DIVIDEND = {(k % 5 + 2, k % 3, k % 4 + 1): Fraction(k % 11 - 5, 1 + k % 3)
             for k in range(30)}


def reference() -> dict:
    work = {m: c for m, c in _DIVIDEND.items() if c}
    out = {}
    while work:
        m = max(work, key=lambda m: (sum(m), m))
        c = work.pop(m)
        if m[0] >= 2 and m[2] >= 1:
            q = (m[0] - 2, m[1], m[2] - 1)
            for gm, gcoeff in _DIVISOR.items():
                if gm == (2, 0, 1):
                    continue
                mm = (gm[0] + q[0], gm[1] + q[1], gm[2] + q[2])
                v = work.get(mm, 0) - c * gcoeff
                if v:
                    work[mm] = v
                else:
                    work.pop(mm, None)
        else:
            out[m] = c
    return out


class Speedometer:
    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        self.kernel_s.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def times(self, t0: float, t1: float) -> tuple[float, float]:
        """(net, scaled) seconds of a job that ran from t0 to t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        net = (t1 - t0) - sum(self.kernel_s[lo:hi])
        n = len(self.starts)
        while hi - lo < SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        if lo == hi:
            raise RuntimeError("no speed samples: the run was too short")
        return net, net * REFERENCE_S / statistics.median(
            self.kernel_s[lo:hi])
