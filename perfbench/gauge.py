"""Speed gauge: a fixed kernel timed between pieces of measured work.

On the 2-vCPU virtual machine this benchmark was built on, the speed of
all code moved between two states, about 1.8x apart, from one second to
the next while the process held the CPU (README.md, "Steadiness"). A
query, a build or a set-up took longer in the slow state by about the
same factor as any other pure-Python code did.

So the benchmark times this kernel right before and right after each
piece of work it measures, and scales the work's wall time by
REF_S / (mean of the two kernel times): the time the work would have
taken on a machine where the kernel takes REF_S. The kernel never calls
the program, so a change to the program moves the scaled time exactly
as it moves the wall time at a fixed speed. The unscaled wall times are
kept in the run record.

The kernel is plain interpreter work: method calls on a small object,
list appends and clears, tuple hashing and integer arithmetic. Among the
kernels tried on the build machine, it tracked the query latencies best:
over thirty 8-second windows of one query mix, the median query latency
spread by 0.075 of its median (IQR / median) unscaled and by 0.026
scaled by this kernel. A kernel of numpy scalar reads, popcounts and
np.searchsorted calls, the query layers' own mix, left 0.054.
"""

from __future__ import annotations

import time

REF_S = 0.0015       # the kernel's time at the reference speed
_STEPS = 2200        # about REF_S on the build machine


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


def _kernel() -> int:
    cell, acc, kept = _Cell(3, 7), 0, []
    for i in range(_STEPS):
        acc += cell.step(i)
        kept.append(acc & 255)
        if len(kept) > 32:
            kept.clear()
        acc ^= hash((i, acc & 7)) & 15
    return acc


_EXPECT = _kernel()


class Gauge:
    """Kernel samples of one run; tick() takes one, scale() turns two
    neighbouring samples into the factor for the work between them."""

    def __init__(self):
        self.samples = []

    def tick(self) -> float:
        t0 = time.perf_counter()
        got = _kernel()
        dt = time.perf_counter() - t0
        if got != _EXPECT:
            raise RuntimeError("the speed-gauge kernel gave a different result")
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(before: float, after: float) -> float:
        return 2 * REF_S / (before + after)

    def timed(self, fn, *args):
        """Run fn(*args) between two kernel samples.
        Returns (result, wall seconds, scaled seconds)."""
        k0 = self.tick()
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        return out, dt, dt * self.scale(k0, self.tick())
