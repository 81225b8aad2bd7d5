"""CPU time stolen from this virtual machine by its host, over time.

On a shared host the hypervisor can withhold the vCPUs for seconds at a
time. Every process of the cluster then runs slower, whatever the program
does. The monitor samples the steal counter of /proc/stat so that the
benchmark can tell accesses made while the host was quiet from the rest.
"""

from __future__ import annotations

import bisect
import threading
import time

WINDOW_S = 0.25


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks over all CPUs since boot."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


class StealMonitor:
    """Samples steal every WINDOW_S seconds on a background thread."""

    def __init__(self, window: float = WINDOW_S):
        self._window = window
        self.times: list[float] = []      # perf_counter at each sample
        self.fractions: list[float] = []  # steal share of the window ending there
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._last = (time.perf_counter(), *cpu_ticks())
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._window):
            now, steal, total = time.perf_counter(), *cpu_ticks()
            _t, steal0, total0 = self._last
            self._last = (now, steal, total)
            self.times.append(now)
            self.fractions.append((steal - steal0) / max(total - total0, 1))

    def steal_during(self, start: float, stop: float) -> float:
        """Largest steal share of the windows overlapping [start, stop];
        1.0 while a window is still open, so an unfinished window never
        counts as quiet."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_left(self.times, stop)
        if j >= len(self.times):
            return 1.0
        return max(self.fractions[i : j + 1])

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
