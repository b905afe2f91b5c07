"""The sampler's integer kernels against the Fraction formulas they replace."""

import math
import random
from fractions import Fraction as F

import numpy as np

from pcdyn.sampling import (
    DEFAULT_MARGIN,
    _gaps_at_least,
    _intercept_range,
    draw_breakpoints,
    draw_ifs,
    rationalize,
    rng_for_sample,
)
from _support import (
    fraction_gaps_at_least,
    fraction_intercept_range,
    fraction_rationalize,
)

MARGINS = [DEFAULT_MARGIN, F(0), F(1, 3), F(1, 10), F(7, 1000), 0]


def test_rationalize_matches_the_constructor():
    rng = np.random.default_rng(5)
    xs = list(rng.uniform(-1, 1, size=2000)) + [0.0, -0.0, 0.5, 1.0, -1.0]
    xs += [(2 * k + 1) / 2**33 for k in range(-4, 4)]  # ties at 2**-32
    for bits in (1, 8, 32, 40):
        for x in xs:
            got = rationalize(x, bits)
            assert got == fraction_rationalize(x, bits), (x, bits)
            assert got.denominator > 0 and type(got) is F


def test_intercept_range_matches_the_fraction_floats():
    rng = np.random.default_rng(7)
    for margin in MARGINS:
        slopes = [rationalize(v) for v in rng.uniform(-0.9, 0.9, size=500)]
        slopes += [F(0), F(1, 3), F(-1, 3), F(-2**31, 2**32)]
        for a in slopes:
            got = _intercept_range(a, margin)
            want = fraction_intercept_range(a, margin)
            assert got == want, (a, margin)
            assert all(type(v) is float for v in got)


def test_gap_check_matches_the_fraction_test():
    rng = random.Random(11)
    for margin in MARGINS:
        # gaps of margin * 2**32 rounded either way, or one less, hit the
        # boundary of the test
        steps = sorted({math.floor(margin * 2**32), math.ceil(margin * 2**32)})
        for _ in range(400):
            base = [rng.randrange(2**32) for _ in range(rng.randint(0, 5))]
            if base and rng.random() < 0.5:
                base.append(base[0] + rng.choice(steps) + rng.choice((-1, 0)))
            nums = sorted(set(base))
            pts = tuple(F(k, 2**32) for k in nums)
            assert _gaps_at_least(nums, margin) == fraction_gaps_at_least(
                pts, margin
            ), (pts, margin)


def _fraction_draws(seed, index, n, kappa_max, margin):
    """One sample's breakpoints and (a, b) pairs, replayed from the same
    numpy stream through the Fraction formulas."""
    rng = rng_for_sample(seed, index)
    lo, hi = float(margin), float(1 - margin)
    while True:
        pts = tuple(sorted(
            fraction_rationalize(v, 32) for v in rng.uniform(lo, hi, size=n - 1)
        ))
        if fraction_gaps_at_least(pts, margin):
            break
    maps = []
    for _ in range(n):
        a = fraction_rationalize(rng.uniform(-kappa_max, kappa_max), 32)
        lo_b, hi_b = fraction_intercept_range(a, margin)
        maps.append((a, fraction_rationalize(rng.uniform(lo_b, hi_b), 32)))
    return pts, maps


def test_seeded_draws_match_the_fraction_replay():
    # margin 3/10 at n = 3 rejects most breakpoint draws
    for n, kappa, margin in (
        (3, 0.45, DEFAULT_MARGIN), (3, 0.3, F(3, 10)), (6, 0.45, F(1, 10))
    ):
        for index in range(100):
            rng = rng_for_sample(42, index)
            bps = draw_breakpoints(rng, n, margin)
            ifs = draw_ifs(rng, n, kappa, margin)
            want_bps, want_maps = _fraction_draws(42, index, n, kappa, margin)
            assert bps == want_bps
            assert [(m.a, m.b) for m in ifs.maps] == want_maps
