"""Scale a measured wall time to a fixed reference speed of the core.

On a shared host the speed of one core swings by up to 1.8x within
seconds, as other tenants load the same physical core, so the raw wall
time of one repetition varies by +-15% between runs of the same code.
:class:`SpeedProbe` measures that speed while the workload runs: every
``INTERVAL_S`` of wall time a ``SIGALRM`` handler times a small fixed
pure-Python kernel (exact ``Fraction`` products summed into a dict, the
same kind of work as the program's).  Each stretch of wall time between
two samples is then scaled by ``REFERENCE_S / cost`` of the sample that
starts it, and the probe's own time is left out.

The result reads as the seconds the block would take on a core that
runs the kernel in ``REFERENCE_S``, about its cost on an idle core of a
2-vCPU Intel Xeon virtual machine under CPython 3.11.  Across repeated
runs it spread 3-6% (quartile distance over median) where the raw wall
time spread over 20%.  The raw wall time is reported alongside it.

The probe is not used in traced runs: its time would land in whichever
span is open when the signal arrives.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02        # while a workload runs
SETUP_INTERVAL_S = 0.005  # while the interpreter imports and builds
REFERENCE_S = 4.0e-4

_FACTORS = [Fraction(i + 1, 2 * i + 3) for i in range(16)]


def kernel() -> dict:
    acc: dict = {}
    for i, a in enumerate(_FACTORS):
        for j, b in enumerate(_FACTORS[:8]):
            k = (i + j) & 7
            acc[k] = acc.get(k, 0) + a * b
    return acc


class SpeedProbe:
    """Context manager sampling the core's speed during its block."""

    def __init__(self, interval_s: float = INTERVAL_S, warmup: int = 20):
        self.interval_s = interval_s
        self.warmup = warmup
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.begin = self.end = 0.0

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.costs.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(self.warmup):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.begin = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def wall_s(self) -> float:
        return self.end - self.begin

    @property
    def probe_s(self) -> float:
        return sum(self.costs)

    def scaled_s(self) -> float:
        """Wall time of the block without the probe, at the reference speed."""
        if not self.costs:
            return self.wall_s
        factors = [REFERENCE_S / c for c in self.costs]
        total = (self.starts[0] - self.begin) * factors[0]
        ends = self.starts[1:] + [self.end]
        for start, cost, stop, factor in zip(self.starts, self.costs, ends, factors):
            total += (stop - start - cost) * factor
        return total

    def factor(self) -> float:
        """Mean speed factor over the block: scaled time per unprobed second."""
        unprobed = self.wall_s - self.probe_s
        return self.scaled_s() / unprobed if unprobed > 0 else 1.0
