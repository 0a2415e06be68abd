"""Scale the program's CPU time by how fast the machine runs Python meanwhile.

On a shared host the same synth takes anywhere from 2.0 to 3.8 CPU seconds
from one minute to the next: tenants on the same physical cores slow ours
without taking it away, so neither wall nor CPU time of a run repeats.
While a synth runs, ``Probe`` interrupts it every ``INTERVAL_S`` of CPU time
(``SIGPROF``) and times a fixed piece of work in the signal handler: the
oracle's naive Datalog fixpoint of the samegen target over a small fixed
forest, which runs the same kind of interpreter code as the program (tuple
and dict joins).  Spans are timed on ``Probe.clock``, which leaves the
probes' own time out.  The benchmark multiplies the synth's set-up and
search times each by ``REFERENCE_S`` over the mean time of the probes taken
during it, which gives its CPU time at the speed at which the probe takes
``REFERENCE_S``: 1.1 ms, its time on a 2-core x86-64 VM whose cores no
other tenant is using at that moment.  On such a VM, over five to ten
30-second runs per workload, this cut the quartile spread of the reported
times from 27-45% of the median (unscaled CPU time) to 2-4%.  The probe
work is fixed; a change to it changes every time the benchmark reports.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

from oracle import SAMEGEN_TARGET, fixpoint, parse_program

INTERVAL_S = 0.05
REFERENCE_S = 0.0011

_RULES = parse_program(SAMEGEN_TARGET)
_FACTS = {("parent", (f"n{i}", f"n{max(0, i - 1 - i % 4)}")) for i in range(1, 9)}


class Probe:
    """Samples of the probe work, as ``(start on clock(), duration)``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.total = 0.0

    def clock(self) -> float:
        """The program's CPU time: the thread's, less the probes'.

        A probe that runs between the two reads below is counted wrongly
        once; that is at most one probe's time, about 1 ms, and rare."""
        return time.thread_time() - self.total

    def _handler(self, signum, frame) -> None:
        start = time.thread_time()
        fixpoint(_RULES, _FACTS)
        duration = time.thread_time() - start
        self.samples.append((start - self.total, duration))
        self.total += duration

    @contextmanager
    def running(self):
        """Run the probe every ``INTERVAL_S`` of CPU time inside the block."""
        previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def within(self, start: float, end: float) -> list[tuple[float, float]]:
        """The samples taken between ``start`` and ``end``."""
        return [(s, d) for s, d in self.samples if start <= s < end]


def scaled(cpu_s: float, probe_s: float) -> float:
    """``cpu_s`` at the speed at which the probe takes ``REFERENCE_S``."""
    return cpu_s * REFERENCE_S / probe_s
