"""A fixed piece of pure-Python work that times the host itself.

The benchmark runs on a shared host whose speed moves by tens of percent:
it switches between a fast and a slow state every few tenths of a
second, and the share of time in each state drifts over tens of minutes.
Every time the benchmark reports is therefore scaled to a reference
speed.  A timer interrupts the measured code every ``INTERVAL_S`` and
times this loop; the host's mean speed over the measurement, relative to
``REFERENCE_S`` (about the loop's median time on the 2-core machine
where the baseline was measured), turns the measured seconds into
reference seconds.  The loop's own time is taken
out of the measured time.

The loop is a fixed number of classical Runge-Kutta steps of a damped
pendulum, written with lists, comprehensions and small function calls,
like the package's own integrator.  It uses nothing from the package, so
no change to the package can move it.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter, process_time

STEPS = 200
REFERENCE_S = 0.0011
INTERVAL_S = 0.1


def _pendulum(y: list[float]) -> list[float]:
    return [y[1], -math.sin(y[0]) - 0.1 * y[1]]


def _loop() -> list[float]:
    h = 1e-3
    y = [1.0, 0.0]
    for _ in range(STEPS):
        k1 = _pendulum(y)
        k2 = _pendulum([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = _pendulum([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = _pendulum([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    return y


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the loop."""
    t0, c0 = perf_counter(), process_time()
    _loop()
    return perf_counter() - t0, process_time() - c0


def scale(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Factors that turn measured wall and CPU seconds into reference seconds.

    Measured time times the host's mean speed relative to the reference
    is reference time, so the factor is the mean of ``REFERENCE_S / t``.
    A measurement too short for the timer to fire has no samples; one
    taken now, right after it, stands in.
    """
    samples = samples or [sample()]
    return (
        statistics.fmean(REFERENCE_S / w for w, _ in samples),
        statistics.fmean(REFERENCE_S / c for _, c in samples),
    )


class Sampler:
    """Times the loop every ``INTERVAL_S`` of wall time while it is entered.

    The samples are taken in a ``SIGALRM`` handler, between two bytecodes
    of whatever code runs.  ``spent`` is the wall and CPU time the
    samples took, to be taken out of the time they interrupted.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = (0.0, 0.0)

    def _take(self, signum, frame) -> None:
        wall, cpu = sample()
        self.samples.append((wall, cpu))
        self.spent = (self.spent[0] + wall, self.spent[1] + cpu)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
