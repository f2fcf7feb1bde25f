"""Host-speed probe: timed windows scaled to a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent for seconds at a time, as other tenants load the host. Two
wall times taken minutes apart then differ by the machine, not by the
code. So while a timed window is open, an interval timer (SIGALRM, in the
benchmark's one thread) interrupts the program every PERIOD_S seconds and
runs a fixed probe: small numpy matrix-vector steps, the package's typical
operation, on data of the probe's own, so no change to the package can
change it. The probe's time is recorded and subtracted from whatever the
window is timing. ``scaled`` then rescales a window's time by how much
slower the probe ran than on the reference machine:

    scaled = seconds * REFERENCE_PROBE_S / mean(probe times in the window)

The scaled time is the time the window would have taken at the reference
speed; the raw wall time is reported next to it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Seconds between probes while a window is open; each probe takes about
# 1 ms, so probing costs about 2% of the window, and that time is
# subtracted from it.
PERIOD_S = 0.05
PROBE_STEPS = 300
# Nominal time of one probe: about what it takes inside a window on an
# unloaded 2-vCPU VM (Python 3.11.7, numpy 2.4.6), where the workload has
# evicted its data from cache. A fixed constant: it sets the scale of the
# scaled times, never their ratio between two versions of the code.
REFERENCE_PROBE_S = 0.001

_MATRIX = np.full((4, 4), 0.25)
_VECTOR = np.full(4, 0.25)


def probe() -> float:
    """Seconds taken by one fixed run of normalised matrix-vector steps."""
    start = time.perf_counter()
    v = _VECTOR
    for _ in range(PROBE_STEPS):
        w = _MATRIX @ v
        v = w / w.sum()
    return time.perf_counter() - start


class HostSpeed:
    """Probes the host's speed during windows; ``enabled=False`` gives
    plain wall times (the traced run, whose per-layer times are raw)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        # Seconds spent in probes since construction; ``since`` subtracts
        # the probes that ran inside the interval it measures.
        self.spent = 0.0

    def _sample(self) -> None:
        seconds = probe()
        self.samples.append(seconds)
        self.spent += seconds

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def begin(self) -> None:
        """Open a window: one probe now, then one every PERIOD_S."""
        self.samples = []
        if self.enabled:
            self._sample()
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def end(self) -> list[float]:
        """Close the window with one more probe; returns its probe times."""
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._sample()
        return self.samples

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def since(self, mark: tuple[float, float]) -> float:
        """Wall seconds since ``mark``, less the probes run in between."""
        return time.perf_counter() - mark[0] - (self.spent - mark[1])


def scaled(seconds: float, samples: list[float]) -> float:
    """``seconds`` at the reference speed, given the window's probe times
    (unchanged when the window was not probed)."""
    if not samples:
        return seconds
    return seconds * REFERENCE_PROBE_S / statistics.fmean(samples)
