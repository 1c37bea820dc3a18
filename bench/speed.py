"""
Wall time rescaled to a reference speed.

On a shared host the CPU's speed can change by up to a factor of two for
seconds or minutes at a time, while the process stays on the CPU.  So every
TICK_S of wall time a signal handler times a fixed reference loop, and an
interval's wall time, less the handler's own time, is rescaled by the mean
speed the loop showed inside the interval: the time the interval would take
on a host that runs the loop in REFERENCE_S.
"""

import signal
import time

TICK_S = 0.02
REFERENCE_ITERATIONS = 1000
# About what the loop takes, called from the handler, on a shared 2-CPU Xeon
# host at its faster speed with Python 3.11.7.  It sets only the scale.
REFERENCE_S = 3.0e-4


def reference_loop() -> None:
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + len((i, key))


class Speedometer:
    """Times `reference_loop` now and then every TICK_S of wall time."""

    def __init__(self):
        self.samples = []  # (start, end) of each timed loop

    def sample(self, *_signal) -> None:
        start = time.monotonic()
        reference_loop()
        self.samples.append((start, time.monotonic()))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def rescale(self, begin: float, end: float) -> float:
        """Seconds from `begin` to `end`, less the loops timed inside,
        at the reference speed."""
        inside = [(a, b) for a, b in self.samples if begin <= a < end]
        busy = sum(b - a for a, b in inside)
        timed = inside or self.samples  # an interval shorter than a tick
        speed = sum(1.0 / (b - a) for a, b in timed) / len(timed)
        return (end - begin - busy) * REFERENCE_S * speed
