"""Reference-second conversion on fixed inputs.

Run with ``python -m pytest bench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from refclock import KERNEL_REF_S, RefClock, ref_seconds  # noqa: E402


class FakeMachine:
    """A clock whose speed is set by hand: ``slow`` multiplies every duration."""

    def __init__(self, kernel_s: float, slow: float = 1.0):
        self.now = 0.0
        self.slow = slow
        self.kernel_s = kernel_s

    def timer(self) -> float:
        return self.now

    def kernel(self) -> None:
        self.now += self.kernel_s * self.slow

    def work(self, seconds: float) -> None:
        self.now += seconds * self.slow


def test_ref_seconds_divides_by_the_mean_adjacent_kernel():
    assert ref_seconds(0.5, KERNEL_REF_S, KERNEL_REF_S) == pytest.approx(0.5)
    assert ref_seconds(0.5, 2 * KERNEL_REF_S, 2 * KERNEL_REF_S) == pytest.approx(0.25)
    assert ref_seconds(0.3, KERNEL_REF_S, 2 * KERNEL_REF_S) == pytest.approx(0.2)


def run_items(machine: FakeMachine, durations, slow_from: int = -1) -> RefClock:
    clock = RefClock(batch_s=0.05, kernel=machine.kernel, timer=machine.timer)
    clock.start()
    for i, d in enumerate(durations):
        if i == slow_from:
            machine.slow = 1.75
        t0 = clock.begin_item()
        machine.work(d)
        clock.end_item(t0)
    clock.finish()
    return clock


DURATIONS = [0.02, 0.01, 0.03, 0.02, 0.04, 0.01] * 5


def test_a_steady_slowdown_cancels_out():
    steady = run_items(FakeMachine(KERNEL_REF_S), DURATIONS)
    slowed = run_items(FakeMachine(KERNEL_REF_S, slow=1.75), DURATIONS)
    assert steady.total_ref_s() == pytest.approx(sum(DURATIONS))
    assert slowed.total_ref_s() == pytest.approx(sum(DURATIONS))
    assert slowed.item_ref_s() == pytest.approx(DURATIONS)
    assert slowed.wall_s() == pytest.approx(1.75 * steady.wall_s())


def test_a_slowdown_mid_run_errs_only_at_its_boundary():
    slowed = run_items(FakeMachine(KERNEL_REF_S), DURATIONS, slow_from=12)
    assert slowed.wall_s() > 1.3 * sum(DURATIONS)
    assert slowed.total_ref_s() == pytest.approx(sum(DURATIONS), rel=0.05)


def test_kernel_runs_only_between_batches():
    machine = FakeMachine(KERNEL_REF_S)
    clock = run_items(machine, [0.02] * 10)
    # start, then one kernel per 0.06 s batch of three items, then finish
    assert len(clock.kernels) == 1 + 3 + 1
    assert [j for _, _, j in clock.items] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
