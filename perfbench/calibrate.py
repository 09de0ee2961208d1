"""How fast this machine runs right now, for calibrated times.

A shared virtual machine can run the same code up to twice as fast in
some minutes as in others; the 2-vCPU Xeon the baseline was recorded on
did. The benchmark therefore samples the machine's speed while it measures
and reports calibrated times. A calibrated time is what the measurement
would have taken on a machine where one ``tick`` (a fixed piece of work)
takes ``TICK_REF_S``:

    calibrated = (measured - time spent in ticks) * TICK_REF_S / mean tick

Ticks are taken just before and just after each measured interval and,
through ``SpeedProbe``, every ``PROBE_INTERVAL_S`` inside it, so the speed
of a long query is sampled while it runs. A tick is the package's own mix
in miniature: Fraction arithmetic and building tuples.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

TICK_REF_S = 0.001
PROBE_INTERVAL_S = 0.2
BRACKET_TICKS = 8


def tick() -> float:
    """Seconds one fixed piece of work takes; GC is held off so that the
    program's own heap does not change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i % 13 - 6, i % 7 + 1)
        for i in range(120):
            tuple(range(i % 7, 40))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def bracket(n: int = BRACKET_TICKS) -> list[float]:
    return [tick() for _ in range(n)]


class SpeedProbe:
    """Takes a tick from SIGALRM every PROBE_INTERVAL_S while active.

    The handler runs in the main thread between bytecodes, so the program
    under measurement is paused, not raced, while a tick runs.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.ticks.append(tick())

    def __enter__(self) -> "SpeedProbe":
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def calibrated(measured_s: float, ticks: list[float], in_interval_s: float = 0.0) -> float:
    """measured_s, less the ticks taken inside it, at the reference speed."""
    return (measured_s - in_interval_s) * TICK_REF_S * len(ticks) / sum(ticks)
