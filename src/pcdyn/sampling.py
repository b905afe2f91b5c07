"""Seeded random instances on an exact-rational grid.

Draws are made with numpy generators and then rationalized to fractions
with denominator 2^32, so the exact backend stays exact while degenerate
parameter collisions keep probability essentially zero (and remain
detectable by the genericity test).  Per-sample generators are derived
from a master seed and the sample index, which makes parallel and serial
sweeps produce identical streams.
"""

from __future__ import annotations

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


def rationalize(x: float, bits: int = RATIONAL_BITS) -> Fraction:
    """Round to the nearest fraction with denominator 2**bits."""
    scale = 1 << bits
    return _raw_fraction(round(float(x) * scale), scale)


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
    collar width of a capping plan stays bounded away from zero.  Each
    draw is rationalized as an integer over 2**RATIONAL_BITS, and only
    the accepted draw is built into fractions.
    """
    lo, hi, scale = float(margin), float(1 - margin), 1 << RATIONAL_BITS
    while True:
        nums = sorted(round(float(v) * scale) for v in rng.uniform(lo, hi, size=n - 1))
        if _gaps_at_least(nums, margin):
            return tuple(_raw_fraction(k, scale) for k in nums)


def _gaps_at_least(nums: list[int], margin: Fraction) -> bool:
    """Whether b - a >= margin * 2**RATIONAL_BITS for consecutive a, b of
    ``nums``, the numerators of points over 2**RATIONAL_BITS."""
    least = margin.numerator << RATIONAL_BITS
    return all((b - a) * margin.denominator >= least for a, b in zip(nums, nums[1:]))


def _intercept_range(a: Fraction, margin: Fraction) -> tuple[float, float]:
    """float(margin - min(a, 0)) and float(1 - margin - max(a, 0)), each
    from one integer true division, which rounds correctly, as
    float(Fraction) does."""
    mn, md = margin.numerator, margin.denominator
    an, ad = a._numerator, a._denominator
    den = md * ad
    lo = (mn * ad - min(an, 0) * md) / den
    hi = ((md - mn) * ad - max(an, 0) * md) / den
    return lo, hi


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
    if slope_band is None:
        a = rationalize(rng.uniform(-kappa_max, kappa_max))
    else:
        a = rationalize(rng.uniform(*slope_band))
    b = rationalize(rng.uniform(*_intercept_range(a, margin)))
    return Affine(a, b)


def draw_ifs(
    rng: np.random.Generator,
    n: int,
    kappa_max: float,
    margin: Fraction = DEFAULT_MARGIN,
    slope_band: tuple[float, float] | None = None,
) -> IteratedFunctionSystem:
    return IteratedFunctionSystem(
        tuple(
            draw_affine(rng, kappa_max, margin, slope_band) for _ in range(n)
        )
    )


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
