"""A speed meter, so that timings taken on a host whose speed drifts compare.

The hosts this benchmark runs on are shared virtual machines whose speed
changes by up to twofold, for a second at a time or for a minute, in CPU
time as well as in wall time.  A timing alone then says as much about the
host as about the package.  So while a workload is measured, a SIGALRM
timer runs a fixed piece of the benchmark's own work (a "tick") every
TICK_INTERVAL_S seconds, and each timed call is converted to *reference
seconds*: its wall time with the ticks inside it taken out, times a power
of (reference duration / median tick duration around the call).  Which
parts of the tick are timed, their reference duration and the power make a
kind of correction (KINDS); workload.py names the kind of each metric.

The tick does the kinds of work the package does: dictionary products of
small tuples (BiPoly), big-integer products (evaluation at large n) and
Fraction arithmetic (rational points), each part timed on its own.  It
uses nothing from the package, so a change to the package never changes
the ticks, only the calls they are compared with.

The handler runs between bytecodes of the main thread, inside whatever
package call is running; it touches only the meter's own lists.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Tuple

TICK_INTERVAL_S = 0.1
# The speed around a call is the median of the ticks within WINDOW_S of it,
# and of at least MIN_TICKS ticks, the window widening until it holds them.
WINDOW_S = 0.2
MIN_TICKS = 3

_POLY = [((i, j), (i * 7919 + j * 104729) ** 3) for i in range(9) for j in range(9)]
_BIG = 3 ** 12000 + 1
_BIG2 = 5 ** 9000 + 7


def _dict_product() -> int:
    product: dict = {}
    for (a, b), c in _POLY:
        for (d, e), f in _POLY[:40]:
            key = (a + d, b + e)
            product[key] = product.get(key, 0) + c * f
    return len(product)


def _big_products() -> int:
    big = _BIG
    for step in range(2):
        big = (big * _BIG2 + step) >> 14000
    return big.bit_length()


def _fractions() -> int:
    value = Fraction(3, 7)
    for step in range(1, 90):
        value = value * Fraction(step + 2, step + 5) + Fraction(1, step)
    return value.denominator.bit_length()


# The parts of a tick, timed one by one.
PARTS = (_dict_product, _big_products, _fractions)
# A kind of correction: the parts of the tick it times, their duration at
# full speed on the machine the benchmark was written on (Python 3.11.7,
# 2 vCPUs; the fastest decile of a few thousand ticks), and the power of the
# speed ratio a call is scaled by.
KINDS = {
    # Every call but the pointwise evaluations.
    "mixed": ((0, 1, 2), 0.0024, 1.0),
    # Evaluations at integer points: big-integer recursion.
    "fraction": ((2,), 0.0006, 1.0),
    # Evaluations at rational points, mostly gcds of huge integers: they
    # follow the host's speed about half as strongly as the tick does.
    "rational": ((2,), 0.0006, 0.5),
}


def time_ticks(count: int) -> float:
    """The median duration of `count` whole ticks run now, outside any
    timer, in units of the mixed kind's reference duration."""
    durations = []
    for _ in range(count):
        start = time.perf_counter()
        for part in PARTS:
            part()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations) / KINDS["mixed"][1]


class SpeedMeter:
    """Runs a tick every TICK_INTERVAL_S seconds between start() and stop()."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        # parts[i][k]: seconds of part k in tick i.
        self.parts: List[Tuple[float, ...]] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        marks = [start]
        for part in PARTS:
            part()
            marks.append(time.perf_counter())
        self.parts.append(tuple(b - a for a, b in zip(marks, marks[1:])))
        self.ends.append(marks[-1])
        self.starts.append(start)
        # Re-armed after the work, so ticks never overlap.
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S)

    def reference_seconds(self, start: float, end: float, kind: str) -> float:
        """The call that ran from start to end, in reference seconds of the
        given kind."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        wlo = bisect.bisect_left(self.starts, start - WINDOW_S)
        whi = bisect.bisect_left(self.starts, end + WINDOW_S)
        while whi - wlo < MIN_TICKS and (wlo > 0 or whi < len(self.starts)):
            wlo, whi = max(0, wlo - 1), min(len(self.starts), whi + 1)
        if whi == wlo:
            raise RuntimeError("no tick was recorded")
        parts, reference, power = KINDS[kind]
        tick = statistics.median(sum(self.parts[i][k] for k in parts) for i in range(wlo, whi))
        return (end - start - inside) * (reference / tick) ** power

    def summary(self) -> Dict[str, float]:
        """The number of ticks, the median of each kind and their total seconds."""
        summary: Dict[str, float] = {"ticks": len(self.parts),
                                     "total_s": sum(map(sum, self.parts))}
        for kind, (parts, _, _) in KINDS.items():
            summary[f"median_{kind}_s"] = statistics.median(
                sum(p[k] for k in parts) for p in self.parts) if self.parts else 0.0
        return summary
