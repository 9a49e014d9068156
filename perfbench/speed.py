"""Host speed, measured by a fixed reference loop interleaved with the work.

On a shared virtual machine the same genform work took 229-655 ms per call
and drifted by +-13% between 30 s windows; a fixed pure-Python loop
interleaved with it drifted alike (their ratio stayed within 1.5% across
those windows).  ``Speed`` runs that loop on a timer for about 3% of the
time, keeps its own time out of the work clock, and reports
``host_speed = REFERENCE_UNIT_S / measured seconds per unit``.  Multiplying a
measured time by ``host_speed`` gives seconds at the reference speed.

The loop is a sparse product of two fixed 12-term polynomials with Fraction
coefficients and tuple exponent keys: the shape of genform's ring kernel,
written here so that no change to genform can change it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REFERENCE_UNIT_S = 0.001   # one unit on the reference box (2 vCPUs, Python 3.11)
SHARE = 0.03               # calibration time per second of work
INTERVAL_S = 0.1           # timer period
LOCAL_WINDOW_S = 0.5       # local_speed's margin around an item

_A = {(i % 3, i // 3, (i * 7) % 4): Fraction(i - 5, i % 4 + 1) for i in range(12)}
_B = {((i * 5) % 4, i % 2, i // 4): Fraction(3 - i, i % 3 + 2) for i in range(12)}


def unit() -> dict:
    """One reference unit: the sparse product _A * _B."""
    out: dict = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            acc = out.get(key, Fraction(0)) + c1 * c2
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def unit_seconds(count: int) -> float:
    """Mean seconds per unit over ``count`` back-to-back units."""
    start = time.perf_counter()
    for _ in range(count):
        unit()
    return (time.perf_counter() - start) / count


class Speed:
    """Calibration on a wall-clock timer, and a work clock that leaves it out.

    ``start`` arms SIGALRM every INTERVAL_S; the handler runs in the main
    thread between bytecodes and spends SHARE of the time since the previous
    tick on reference units, so the samples spread evenly over the work,
    inside long suite trials too.
    """

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self._last = time.perf_counter()
        self._tick_at: list[float] = []       # work-clock time of each tick
        self._tick_units: list[int] = []
        self._tick_seconds: list[float] = []

    def work_clock(self) -> float:
        """perf_counter minus the time spent calibrating."""
        while True:
            spent = self.seconds
            now = time.perf_counter()
            if self.seconds == spent:   # no tick between the two reads
                return now - spent

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        budget = SHARE * (start - self._last)
        count = 0
        while True:
            unit()
            count += 1
            end = time.perf_counter()
            if end - start >= budget:
                break
        self._tick_at.append(start - self.seconds)
        self._tick_units.append(count)
        self._tick_seconds.append(end - start)
        self.units += count
        self.seconds += end - start
        self._last = end

    def start(self) -> None:
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()   # the tail since the last tick, and one unit at least

    def host_speed(self) -> float:
        """Mean host speed over every tick so far."""
        return REFERENCE_UNIT_S * self.units / self.seconds

    def local_speed(self, start: float, end: float) -> float:
        """Host speed over the ticks from LOCAL_WINDOW_S before work time
        ``start`` to LOCAL_WINDOW_S after ``end``.

        Items last from milliseconds to seconds while the host drifts within
        a run, so each item is scaled by the speed around it."""
        lo = bisect.bisect_left(self._tick_at, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(self._tick_at, end + LOCAL_WINDOW_S)
        if lo == hi:
            return self.host_speed()
        return (REFERENCE_UNIT_S * sum(self._tick_units[lo:hi])
                / sum(self._tick_seconds[lo:hi]))
