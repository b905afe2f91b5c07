"""Reference seconds: wall time divided by a fixed kernel timed next to it.

On a small shared host the same pure-Python code changes speed by up to
about 1.9x, in phases of seconds and in bursts of milliseconds, and CPU
time moves with wall time.  A benchmark that reports raw seconds then
measures the neighbours as much as the program.  Here every interval timed
inside a run's passes is expressed in reference seconds (ref-s) instead:

* the reference kernel is a fixed amount of pure-Python ``Fraction``
  arithmetic with dict and sort churn (no pcdyn code), 5-10 ms long here;
* the clock runs it between item batches of at most ``BATCH_S`` seconds;
* a batch's wall time is divided by the mean duration of the two kernel
  runs on either side of it and multiplied by ``KERNEL_REF_S``.

One ref-s is thus the time the batch would have taken on a machine where
the kernel takes exactly ``KERNEL_REF_S`` seconds, which is about its
duration on an unloaded 2.1 GHz Xeon vCPU under CPython 3.11.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable

KERNEL_REF_S = 0.005
KERNEL_ROUNDS = 2
BATCH_S = 0.03

_KERNEL_VALUES = tuple(
    Fraction((2654435761 * i) % (1 << 32) | 1, 1 << 32) for i in range(1, 33)
)


def reference_kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed work: 256 Fraction products and sums per round, hashed and sorted."""
    acc = 0
    for _ in range(rounds):
        table: dict[Fraction, int] = {}
        for a in _KERNEL_VALUES:
            for b in _KERNEL_VALUES[:8]:
                y = a * b + a - b
                table[y] = table.get(y, 0) + 1
        acc += len(sorted(table))
    return acc


def ref_seconds(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Convert a wall interval to ref-s using the kernel runs around it."""
    return wall_s * 2 * KERNEL_REF_S / (kernel_before_s + kernel_after_s)


class RefClock:
    """Interleaves the reference kernel with timed work and converts to ref-s.

    The timed region runs from :meth:`start` to :meth:`finish`.  Work between
    two consecutive kernel runs is one segment; :meth:`checkpoint` closes
    the open segment with a kernel run once it is ``batch_s`` long, so call
    it only between items.  Items are timed with :meth:`begin_item` and
    :meth:`end_item` and always lie inside one segment.
    """

    def __init__(
        self,
        batch_s: float = BATCH_S,
        kernel: Callable[[], object] = reference_kernel,
        timer: Callable[[], float] = time.perf_counter,
    ):
        self.batch_s = batch_s
        self._kernel = kernel
        self._timer = timer
        self.kernels: list[float] = []
        self.segments: list[tuple[float, float]] = []
        self.items: list[tuple[float, float, int]] = []
        self._open_since = 0.0

    def _run_kernel(self) -> None:
        t0 = self._timer()
        self._kernel()
        t1 = self._timer()
        if self.kernels:
            self.segments.append((self._open_since, t0))
        self.kernels.append(t1 - t0)
        self._open_since = t1

    def start(self) -> None:
        self._run_kernel()

    def checkpoint(self) -> None:
        if self._timer() - self._open_since >= self.batch_s:
            self._run_kernel()

    def begin_item(self) -> float:
        self.checkpoint()
        return self._timer()

    def end_item(self, t0: float) -> None:
        self.items.append((t0, self._timer(), self.open_segment))

    def finish(self) -> None:
        self._run_kernel()

    def factor(self, segment: int) -> float:
        """ref-s per wall second inside one segment."""
        return ref_seconds(1.0, self.kernels[segment], self.kernels[segment + 1])

    @property
    def open_segment(self) -> int:
        """Index the segment now being timed will have once it closes."""
        return len(self.segments)

    def total_ref_s(self) -> float:
        return sum((e - s) * self.factor(j) for j, (s, e) in enumerate(self.segments))

    def wall_s(self) -> float:
        """Wall time of the segments, kernel runs excluded."""
        return sum(e - s for s, e in self.segments)

    def item_ref_s(self) -> list[float]:
        return [(e - s) * self.factor(j) for s, e, j in self.items]
