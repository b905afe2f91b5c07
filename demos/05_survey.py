#!/usr/bin/env python3
"""Seeded random sweep: almost every instance settles into few orbits.

Draws random three-branch piecewise contractions on a rational grid, runs
the whole pipeline on each (backward closure, connection check, partition,
periodic orbits, equivalence classes, a certificate of every forward
limit) and tabulates the outcomes.  A sample is generic when f sends
neither 0 nor a breakpoint onto a breakpoint at any depth, as its complete
closure shows.  The expectation: every conclusive generic sample
is asymptotically periodic with between 1 and 3 periodic orbits.
"""

from pcdyn.config import RunConfig
from pcdyn.numerics import Backend
from pcdyn.survey import run_survey

cfg = RunConfig(
    backend=Backend.exact(),
    seed=2026,
    samples=40,
    n=3,
    kappa_max=0.45,
)
report = run_survey(cfg)

print(f"samples: {len(report.records)}")
print(f"conclusive: {report.conclusive_count}")
print(f"inconclusive: {report.inconclusive_count} {dict(report.reason_counts())}")
# a conclusive sample has every forward limit certified periodic
certified = report.conclusive_count / max(len(report.records), 1)
print(f"fraction certified asymptotically periodic: {certified:.3f}")
print("orbit-count histogram:")
for count, freq in sorted(report.orbit_histogram().items()):
    print(f"  {count} orbit(s): {'#' * freq} {freq}")
print("orbit bound 1..3 violated anywhere:", report.bound_violated())

print()
print("a few sample rows (index, orbits, classes, partition size):")
for rec in report.records[:8]:
    print(
        f"  #{rec.index}: orbits {rec.orbit_count}, classes {rec.class_count},"
        f" m = {rec.m}, generic = {rec.generic}"
    )
