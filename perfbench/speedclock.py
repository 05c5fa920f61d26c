"""A clock that reads seconds at a fixed reference CPU speed.

The benchmark runs on shared machines whose CPU speed changes as other
tenants load the hardware: on the 2-CPU Xeon it was sized on, a fixed
pure-Python loop ran at two speeds 1.7x apart that switch within seconds,
and the share of time spent at each drifts over minutes. Wall time then
measures the neighbours as much as the program.

``SpeedClock`` samples the current speed every ``PERIOD_S`` of wall time by
timing a small fixed pure-Python kernel from a SIGALRM handler, and credits
the wall time since the previous sample with ``REF_KERNEL_S / kernel time``
reference seconds per second. A reading is therefore the wall time the same
work would have taken on a CPU that runs the kernel in ``REF_KERNEL_S``. The
kernel's own time (about 1% of the run) is not credited. The program's work
is unchanged; only its clock is rescaled, so a change that makes the program
do more or less work moves the reading just as it moves wall time.

Only ``time`` and ``signal`` are imported, so the clock can start before
anything else in a process.
"""

import signal
import time

PERIOD_S = 0.02
# About the kernel's median time on the machine the benchmark was sized on,
# so that readings there come out close to wall seconds.
REF_KERNEL_S = 2e-4


def _kernel() -> int:
    total = 0
    seen = {}
    for i in range(1500):
        total += i * i
        seen[i & 63] = total
    return total


class SpeedClock:
    """Reference-speed seconds since construction; starts sampling at once."""

    def __init__(self) -> None:
        self.ref_s = 0.0
        self.kernel_s: list[float] = []
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.ref_s += (t0 - self._last) * REF_KERNEL_S / (t1 - t0)
        self._last = t1
        self.kernel_s.append(t1 - t0)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def now(self) -> float:
        """Reference seconds so far; a sample closes the interval still open."""
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
            return self.ref_s
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_kernel_s(self) -> float:
        ordered = sorted(self.kernel_s)
        return ordered[len(ordered) // 2]
