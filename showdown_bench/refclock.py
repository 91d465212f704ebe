"""A clock in reference seconds: wall time corrected for the host's speed.

The benchmark host is shared, and its speed swings up to 2x over periods
of a few seconds while neighbours run; CPU time tracks wall time, so the
loss is slower execution, not waiting.  Summed over a pass, raw wall time
then varies 20-30% between runs of identical work.

Every :data:`PROBE_INTERVAL_S` of process CPU time (``SIGPROF``, handled on
the main thread between bytecodes, so no thread is started) the clock
times a fixed pure-Python kernel.  The time until the next probe advances
the clock by ``wall * REFERENCE_KERNEL_S / kernel_time``: a neighbour that
slows the program slows the kernel alike and cancels out.  The probes' own
time is left out.  One reference second is one wall second on a host on
which the kernel takes :data:`REFERENCE_KERNEL_S`.
"""

from __future__ import annotations

import signal
import time

PROBE_INTERVAL_S = 0.2
#: The kernel's time on an unloaded 2-vCPU x86-64 host (Python 3.10+).
REFERENCE_KERNEL_S = 0.0013


def _kernel() -> None:
    table: dict = {}
    for i in range(10_000):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i


class ReferenceClock:
    """``now()`` in reference seconds while started; see the module doc."""

    def __init__(self) -> None:
        start = time.perf_counter()
        # (reference seconds at `since`, wall `since`, reference per wall second),
        # replaced as one tuple so a probe between two reads cannot tear it.
        self._state = (0.0, start, 1.0)
        self._old_handler = None
        self._busy = False
        self.probes = 0

    def now(self) -> float:
        ref, since, scale = self._state
        return ref + (time.perf_counter() - since) * scale

    def _probe(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        began = time.perf_counter()
        ref, since, scale = self._state
        ref += (began - since) * scale
        _kernel()
        ended = time.perf_counter()
        self._state = (ref, ended, REFERENCE_KERNEL_S / (ended - began))
        self.probes += 1
        self._busy = False

    def start(self) -> "ReferenceClock":
        _kernel()  # warm the kernel's code path before the first probe counts
        self._probe()
        self._old_handler = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler or signal.SIG_DFL)
