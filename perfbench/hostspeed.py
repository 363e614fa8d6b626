"""Host-speed normalisation of the benchmark's times.

On a shared virtual machine other tenants slow this process down by up to
1.7x, in spells from a fraction of a second to longer than a whole run, and
the slowdown shows in user CPU time as much as in wall time.  So a time is
reported in reference seconds: the time it took, scaled by how fast the
host ran while it was taken.

While a HostSpeed sampler is installed, a timer interrupts the process every
INTERVAL_S and runs a fixed pure-Python kernel in the signal handler,
between two bytecodes of whatever randamp is doing.  Of the kernels tried,
this mix of the per-round loops' operations tracked randamp's slowdowns
best; a loop of integer arithmetic left up to twice as much of the noise.
The kernel's time at that moment gives the host's speed relative to
REFERENCE_S.  A measured interval [t0, t1] then counts as

    (t1 - t0 - kernel time inside it) x mean(REFERENCE_S / kernel time)

over the kernel samples taken inside it, or the MIN_SAMPLES nearest to it
when it holds fewer.  The mean of speeds (not of times) is used because the
work done is the integral of speed over wall time and the samples are
spread evenly in wall time.  Program changes move the first factor and not
the second, so parent and change remain comparable; the sampler costs about
1% of the run and its own time is taken out.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

INTERVAL_S = 0.04            # time between two kernel samples
KERNEL_STEPS = 1500          # 0.2-0.4 ms per sample
# The kernel's time at the reference speed: about the fastest it ran in the
# signal handler on the 2-vCPU Xeon virtual machine this was written on.
REFERENCE_S = 0.0002
MIN_SAMPLES = 25             # samples behind each normalised interval


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


_NODES = {i: _Node(i, 2 * i) for i in range(512)}
_RANDOM = random.Random(0)


def kernel() -> float:
    """What randamp's per-round loops do most: draw a random float, look an
    object up, read its attributes and take an unpredictable branch.  It
    allocates no containers, so it never triggers garbage collection."""
    acc = 0.0
    draw = _RANDOM.random
    for i in range(KERNEL_STEPS):
        node = _NODES[i & 511]
        if draw() < 0.5:
            acc += node.a
        else:
            acc -= node.b * 0.5
    return acc


class HostSpeed:
    """Samples the host's speed while installed (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (start, kernel time)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)         # so that speed() always has one
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] less the kernel samples taken inside it."""
        return t1 - t0 - sum(d for s, d in self.samples if t0 <= s < t1)

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed, relative to the reference, around [t0, t1]."""
        inside = sum(t0 <= s < t1 for s, _ in self.samples)
        near = sorted(self.samples, key=lambda x: max(t0 - x[0], x[0] - t1, 0.0))
        return statistics.fmean(REFERENCE_S / d
                                for _, d in near[:max(inside, MIN_SAMPLES)])

    def normalise(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in [t0, t1]."""
        return self.busy(t0, t1) * self.speed(t0, t1)
