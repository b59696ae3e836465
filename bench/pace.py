"""Wall times rescaled to a reference speed of the host.

The shared host this benchmark runs on changes speed by up to about 2x for
spans of seconds to minutes, the same for every process on it. A run of
25 s can fall wholly into a slow span, so raw wall times of the same code
spread past any useful bound from run to run. The benchmark therefore
times a fixed reference, which involves no qcreg code, before and after
each timed piece of work, and rescales the work's wall time to the speed
at which the reference takes its nominal time:

    scaled = wall * nominal / mean(reference before, reference after)

The reference is work of the same kind as what it brackets. Work in the
benchmark's own process is bracketed by an in-process computation (an
integer loop and numpy elementwise work); a child process running qcreg
is bracketed by a child that starts Python, imports numpy and runs the
in-process computation once: the floor under every CLI op plus a little
compute. A change that makes qcreg slower or faster moves the
scaled time by the same factor as the wall time; a change of host speed
moves the reference with it and cancels.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: nominal times of the two references: about their times at the faster
#: of the two speeds of the 2-core host the baseline was taken on, so
#: scaled seconds read close to wall seconds there
COMPUTE_SECONDS = 0.02
FLOOR_SECONDS = 0.15
#: the in-process reference: iterations of an integer loop, then rounds
#: of elementwise work on COMPUTE_POINTS doubles
COMPUTE_LOOP = 120_000
COMPUTE_ROUNDS = 8
COMPUTE_POINTS = 50_000

_X = np.linspace(0.0, 1.0, COMPUTE_POINTS)


def compute() -> float:
    """Seconds the in-process reference takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(COMPUTE_LOOP):
        s += i * i
    a = _X
    for _ in range(COMPUTE_ROUNDS):
        a = np.sqrt(a * a + 1.0)
        np.exp(1j * a)
    return time.perf_counter() - t0


def floor() -> float:
    """Seconds a child takes now to start Python, import numpy and compute()."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


class Pace:
    """Rescales consecutive timed pieces of work; each shares the reference
    taken between it and the next. `child` picks the floor reference, for
    work done in child processes."""

    def __init__(self, child: bool):
        self.reference, self.nominal = (floor, FLOOR_SECONDS) if child else (compute, COMPUTE_SECONDS)
        self.last = self.reference()

    def scale(self, seconds: float) -> float:
        """Rescale the wall time of work that ended just now."""
        before, self.last = self.last, self.reference()
        return seconds * self.nominal / ((before + self.last) / 2)


if __name__ == "__main__":  # the floor child
    compute()
