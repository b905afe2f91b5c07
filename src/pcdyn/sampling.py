"""Seeded random instances on an exact-rational grid.

Draws are made with numpy generators and then rationalized to fractions
with denominator 2^32, so the exact backend stays exact while degenerate
parameter collisions keep probability essentially zero (and remain
detectable: the survey tests each sample's breakpoint connections).
Per-sample generators are derived from a master seed and the sample
index, which makes parallel and serial sweeps produce identical streams.

A sample reads its stream in this order, the layout any other source of
the stream must reproduce: n - 1 doubles per breakpoint try, until a try
passes the gap test, then 2n doubles, the slope and then the intercept of
each map in turn, all through ``rng.random``.  A double u in [0, 1)
becomes lo + (hi - lo) * u in floats, as numpy's ``uniform(lo, hi)``
computes it, and is then rounded to the nearest multiple of 2^-32.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .ifs import IteratedFunctionSystem
from .maps import Affine
from .numerics import _raw_fraction
from .pcmap import Breakpoints, PiecewiseContraction

if TYPE_CHECKING:  # numpy loads with the first stream, not with pcdyn
    import numpy as np

RATIONAL_BITS = 32
DEFAULT_MARGIN = Fraction(1, 64)
MIN_DRAW_CHANCE = 1e-6  # the least chance of a breakpoint try a survey accepts
_SCALE = 1 << RATIONAL_BITS


def rng_for_sample(seed: int, index: int) -> np.random.Generator:
    """Independent deterministic stream for one sample of a sweep."""
    import numpy as np

    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


def draw_breakpoints(
    rng: np.random.Generator, n: int, margin: Fraction = DEFAULT_MARGIN
) -> tuple[Fraction, ...]:
    """Sorted uniforms on (margin, 1 - margin), rejected on small gaps.

    Consecutive breakpoints closer than ``margin`` are resampled, so the
    collar width of a capping plan stays bounded away from zero.  A try
    scales n - 1 doubles as ``uniform`` would (:func:`_span`), each
    rationalized as an integer over 2**RATIONAL_BITS, and only the
    accepted draw is built into fractions.  Past n = 2, n * margin >= 1
    leaves the n - 2 gaps no room inside the open interval (a try could
    pass only by rounding onto both its ends, with a chance below 2**-53),
    so it raises ValueError before the stream is read.
    """
    mn, md = margin.numerator, margin.denominator
    lo, scale = mn / md, _SCALE
    span = _span(lo, (md - mn) / md)
    if n > 2 and n * mn >= md:
        raise ValueError(f"n * margin = {n * margin} >= 1 leaves no room for gaps")
    while True:
        us = rng.random(n - 1).tolist()
        nums = sorted([round((lo + span * u) * scale) for u in us])
        if _gaps_at_least(nums, margin):
            return tuple(_raw_fraction(k, scale) for k in nums)


def _gaps_at_least(nums: list[int], margin: Fraction) -> bool:
    """Whether b - a >= margin * 2**RATIONAL_BITS for consecutive a, b of
    ``nums``, the numerators of points over 2**RATIONAL_BITS."""
    least = margin.numerator << RATIONAL_BITS
    return all((b - a) * margin.denominator >= least for a, b in zip(nums, nums[1:]))


def _intercept_range(an: int, ad: int, margin: Fraction) -> tuple[float, float]:
    """float(margin - min(a, 0)) and float(1 - margin - max(a, 0)) for the
    slope a = an/ad, ad > 0, each from one integer true division, which
    rounds correctly, as float(Fraction) does: an/ad need not be reduced."""
    mn, md = margin.numerator, margin.denominator
    den = md * ad
    lo = (mn * ad - min(an, 0) * md) / den
    hi = ((md - mn) * ad - max(an, 0) * md) / den
    return lo, hi


def _span(lo: float, hi: float) -> float:
    """hi - lo, rejected as numpy's ``uniform(lo, hi)`` rejects it: every
    draw reads ``rng.random`` and computes lo + span * u, numpy's formula."""
    span = hi - lo
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, span) < 0:  # -0.0 too, as numpy tests the sign bit
        raise ValueError("high - low < 0")
    return span


def _draw_maps(
    rng: np.random.Generator,
    n: int,
    kappa_max: float,
    margin: Fraction,
    slope_band: tuple[float, float] | None,
) -> tuple[Affine, ...]:
    """n maps from one read of 2n doubles, the slope and then the intercept
    of each map, each value rounded to an integer over 2**RATIONAL_BITS."""
    lo, hi = (-kappa_max, kappa_max) if slope_band is None else slope_band
    lo = float(lo)
    span, D = _span(lo, float(hi)), _SCALE
    us = rng.random(2 * n).tolist()
    maps = []
    for i in range(0, 2 * n, 2):
        A = round((lo + span * us[i]) * D)
        b_lo, b_hi = _intercept_range(A, D, margin)
        B = round((b_lo + _span(b_lo, b_hi) * us[i + 1]) * D)
        # Affine's own check over D: |a| < 1, 0 < b < 1 and 0 < a + b < 1
        if -D < A < D and 0 < B < D and 0 < A + B < D:
            maps.append(Affine._from_ints(A, B, D))
        else:  # raises Affine's message
            maps.append(Affine(_raw_fraction(A, D), _raw_fraction(B, D)))
    return tuple(maps)


def draw_affine(
    rng: np.random.Generator,
    kappa_max: float,
    margin: Fraction = DEFAULT_MARGIN,
    slope_band: tuple[float, float] | None = None,
) -> Affine:
    """Slope uniform on [-kappa_max, kappa_max]; intercept constrained so
    the image of [0, 1] stays inside (margin, 1 - margin).

    ``slope_band`` restricts the slope to a given interval instead (used to
    sample the strongly overlapping regime, where attractor components
    merge instead of multiplying).
    """
    return _draw_maps(rng, 1, kappa_max, margin, slope_band)[0]


def draw_ifs(
    rng: np.random.Generator,
    n: int,
    kappa_max: float,
    margin: Fraction = DEFAULT_MARGIN,
    slope_band: tuple[float, float] | None = None,
) -> IteratedFunctionSystem:
    """n maps drawn as by ``draw_affine``, from one read of the stream."""
    return IteratedFunctionSystem(_draw_maps(rng, n, kappa_max, margin, slope_band))


def draw_pc(
    rng: np.random.Generator,
    n: int,
    kappa_max: float,
    margin: Fraction = DEFAULT_MARGIN,
) -> PiecewiseContraction:
    """Breakpoints first, then the maps, from one stream."""
    bps = draw_breakpoints(rng, n, margin)
    ifs = draw_ifs(rng, n, kappa_max, margin)
    return PiecewiseContraction(ifs, Breakpoints(bps))
