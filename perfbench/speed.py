"""Machine-speed probe, so that `verdict_s` does not move with the machine's load.

On a shared machine the speed of one CPU changes from one tenth of a second
to the next and drifts over minutes, by up to 1.7x; a claim of 10 s takes
anywhere from 9 to 13 s.  While a probe is running, a timer interrupts the
harness every `INTERVAL_S` seconds and times one fixed chunk of pure-Python
work, `chunk`, which belongs to the benchmark and never changes with the
package.  Its time, against `REFERENCE_S`, gives the machine's relative
speed at that moment:

    relative speed = REFERENCE_S / chunk time

so a timed interval of W wall seconds, spent at the mean relative speed S
of the samples taken inside it, holds W * S seconds of work at the
reference speed.  The probe's own time is subtracted from W.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

from microbench import reference_product

INTERVAL_S = 0.1
# Time of one `chunk` on an idle core of the machine the benchmark was tuned
# on (2-vCPU Intel Xeon VM, Python 3.11).  Only a scale: a result reads as
# seconds on that core.
REFERENCE_S = 0.0006

_rng = random.Random(0)
_PAIRS = [
    (bytes(_rng.randrange(5) for _ in range(6)), bytes(_rng.randrange(5) for _ in range(6)))
    for _ in range(40)
]


def chunk() -> float:
    """Seconds for 40 reference products of p=5, n=2 portraits."""
    start = perf_counter()
    for f, g in _PAIRS:
        reference_product(f, g, 5, 2)
    return perf_counter() - start


class SpeedProbe:
    """Samples relative speed on a timer between `start` and `stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # relative speed, in time order
        self.spent_s = 0.0  # time spent in the probe itself

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(REFERENCE_S / chunk())
        self.spent_s += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent_s

    def since(self, mark: tuple[int, float], wall_s: float) -> tuple[float, float]:
        """(wall seconds without the probe's own time, mean relative speed) of
        an interval that began at `mark` and lasted `wall_s`.  An interval
        too short to hold a sample takes the last one before it."""
        count, spent = mark
        window = self.samples[count:] or self.samples[-1:] or [REFERENCE_S / chunk()]
        return wall_s - (self.spent_s - spent), statistics.fmean(window)
