"""Machine-speed probe, so that timings compare across a drifting machine.

On a shared 2-core VM the speed of pure-Python code drifts by up to 1.7x
over a few seconds, as neighbours load the host.  Every 0.1 s a SIGALRM
handler runs a fixed interpreter-bound loop in the measured process and
records how long it took.  An interval [t0, t1] is then reported as

    raw = t1 - t0 - (probe time spent inside it)
    ref = sum over the pieces between probes of
          piece * REF_PROBE_S / (median probe time within 0.5 s of the piece)

`ref` is the interval in reference seconds: the time it would take on a
machine on which the probe loop takes REF_PROBE_S.  Both the workload and
the probe are interpreter-bound, so a drift in speed scales them alike and
cancels in the ratio; a change in the package's code does not touch the probe.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
WINDOW_S = 0.5  # probes this close to an interval set its speed; drifts last seconds
# The probe's usual duration on the 2-core VM the benchmark was defined on
# (Python 3.11.7), so that reference seconds read close to seconds there.
REF_PROBE_S = 4.5e-4


def probe_work():
    """Fixed mix of exact, float and dict work, about 0.5 ms."""
    x, f, d = Fraction(1, 3), 0.5, {}
    for i in range(40):
        x = x * Fraction(5, 7) + Fraction(1, 11)
        f = f * 0.999 + 0.001
        d[(i, i + 1)] = d.get((i - 1, i), 0) + 1
    return x, f, d


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.durations = []
        self._local = []  # per probe: median probe time within WINDOW_S

    def _tick(self, signum=None, frame=None):
        t = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t)
        self.starts.append(t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def measure(self, t0, t1):
        """(raw seconds, reference seconds) of the interval [t0, t1].

        The interval is cut at each probe; each piece is scaled by the median
        probe time within WINDOW_S of the probe that opens it.
        """
        starts, durations = self.starts[:], self.durations[:]  # a tick may land meanwhile
        if len(self._local) != len(starts):
            self._local = [
                statistics.median(durations[bisect.bisect_left(starts, t - WINDOW_S):
                                            bisect.bisect_right(starts, t + WINDOW_S)])
                for t in starts
            ]
        i = max(bisect.bisect_right(starts, t0) - 1, 0)
        raw = ref = 0.0
        a = t0
        while a < t1:
            b = min(starts[i + 1], t1) if i + 1 < len(starts) else t1
            piece = b - a
            if starts[i] >= t0:  # the piece opens with probe i, run inside [t0, t1]
                piece -= durations[i]
            raw += piece
            ref += piece * REF_PROBE_S / self._local[i]
            a, i = b, i + 1
        return raw, ref
