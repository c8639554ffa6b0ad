"""Host-speed reference: a fixed pure-Python loop timed beside the work.

On a shared machine the host's speed drifts by up to 1.5x over a few
minutes, and every run lands in whatever phase the host is in.  The
benchmark times this reference right before and right after each unit
of work and reports the unit's wall time scaled by ``NOMINAL_S /
reference``: seconds on a host whose reference takes ``NOMINAL_S``.
The reference depends on nothing in the program, so a change to the
program moves the scaled time exactly as it moves the wall time.
"""

import statistics
import time

#: The reference's time on the nominal host, seconds.
NOMINAL_S = 0.010


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value
    return time.perf_counter() - start


def reference() -> float:
    """Seconds of one reference: the median of three timed loops."""
    return statistics.median(_loop() for _ in range(3))


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` of wall time rescaled to the nominal host."""
    return seconds * NOMINAL_S / reference_s
