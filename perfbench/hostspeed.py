"""Host speed, sampled while a workload runs, to scale its times by.

On a shared virtual machine (2 vCPUs, Python 3.11) the time of a fixed
pure-Python loop changed by 15-50% over seconds to minutes, and CPU time
changed with wall time, so raw times of the same code on the same inputs
differed between runs and between sets of runs. A `Probe` samples the
host's speed while the workload runs: every `INTERVAL_S` of CPU time
(`ITIMER_PROF`) a signal handler in the same thread times a fixed loop.
The median of those samples tells how fast the host ran over that
stretch of work, and `scale` turns a raw time into seconds at the
reference speed, at which the loop takes `REFERENCE_S`. On that machine
the scaled times of repeated iterations of one workload varied about a
third as much as the raw ones (coefficient of variation 0.04-0.05 against
0.12-0.15). A change to the program does not change the loop, so it
moves the scaled times as much as the raw ones.

The samples are part of the measured interval and take about 1% of it;
`scale` subtracts their time before scaling.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
LOOP = 3000
REFERENCE_S = 200e-6


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    return time.perf_counter() - t0


class Probe:
    """Samples the host's speed between `start` and `stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(_loop())

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)


def loop_s(samples: list[float]) -> float:
    """Median time of the loop over the samples; the reference time if none."""
    return statistics.median(samples) if samples else REFERENCE_S


def scale(seconds: float, samples: list[float]) -> float:
    """`seconds` measured over a stretch sampled by `samples`, less the
    samples' own time, expressed at the reference speed."""
    return (seconds - sum(samples)) * REFERENCE_S / loop_s(samples)
