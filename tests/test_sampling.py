"""The sampler's integer kernels against the Fraction formulas they replace."""

import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from pcdyn import Affine
from pcdyn.sampling import (
    DEFAULT_MARGIN,
    _gaps_at_least,
    _intercept_range,
    draw_affine,
    draw_breakpoints,
    draw_ifs,
    rng_for_sample,
)
from _support import (
    affine_check_error,
    fraction_gaps_at_least,
    fraction_intercept_range,
    fraction_rationalize,
)

MARGINS = [DEFAULT_MARGIN, F(0), F(1, 3), F(1, 10), F(7, 1000), 0]


def test_intercept_range_matches_the_fraction_floats():
    rng = np.random.default_rng(7)
    for margin in MARGINS:
        slopes = [fraction_rationalize(v, 32) for v in rng.uniform(-0.9, 0.9, size=500)]
        slopes += [F(0), F(1, 3), F(-1, 3), F(-2**31, 2**32)]
        for a in slopes:
            want = fraction_intercept_range(a, margin)
            # reduced, and unreduced, as the draw passes a grid slope
            for k in (1, 2**32 // a.denominator):
                got = _intercept_range(a.numerator * k, a.denominator * k, margin)
                assert got == want, (a, k, margin)
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


def _fraction_draws(seed, index, n, kappa_max, margin, slope_band=None):
    """One sample's breakpoints, (a, b) pairs and breakpoint tries,
    replayed through per-scalar ``uniform`` calls on the same numpy stream
    and the Fraction formulas, and the stream after the draw."""
    rng = rng_for_sample(seed, index)
    lo, hi = float(margin), float(1 - margin)
    tries = 0
    while True:
        tries += 1
        pts = tuple(sorted(
            fraction_rationalize(v, 32) for v in rng.uniform(lo, hi, size=n - 1)
        ))
        if fraction_gaps_at_least(pts, margin):
            break
    maps = []
    for _ in range(n):
        band = (-kappa_max, kappa_max) if slope_band is None else slope_band
        a = fraction_rationalize(rng.uniform(*band), 32)
        lo_b, hi_b = fraction_intercept_range(a, margin)
        maps.append((a, fraction_rationalize(rng.uniform(lo_b, hi_b), 32)))
    return pts, maps, tries, rng


def _assert_maps_match(maps, want):
    assert [(m.a, m.b) for m in maps] == want
    # the integer form Affine's own constructor derives from the fractions
    assert [m._ints for m in maps] == [Affine(a, b)._ints for a, b in want]


# (n, kappa_max, margin, slope_band): margin 3/10 at n = 3 rejects most
# breakpoint tries, (0.3, 0.45) is criterion 2's band
DRAW_CASES = [
    (3, 0.45, DEFAULT_MARGIN, None),
    (3, 0.3, F(3, 10), None),
    (6, 0.45, F(1, 10), None),
    (4, 0.9, F(0), None),
    (4, 0.45, DEFAULT_MARGIN, (0.3, 0.45)),
    (3, 0.45, F(1, 10), (-0.45, -0.1)),
    (2, 0.0, DEFAULT_MARGIN, None),
]


def test_seeded_draws_match_the_fraction_replay():
    cases = [(case, 60) for case in DRAW_CASES]
    cases.append(((20, 0.45, DEFAULT_MARGIN, None), 4))
    for seed in (42, 2**32 + 7):
        for (n, kappa, margin, band), count in cases:
            for index in range(count):
                rng = rng_for_sample(seed, index)
                bps = draw_breakpoints(rng, n, margin)
                ifs = draw_ifs(rng, n, kappa, margin, band)
                want_bps, want_maps, _, replay = _fraction_draws(
                    seed, index, n, kappa, margin, band
                )
                assert bps == want_bps
                _assert_maps_match(ifs.maps, want_maps)
                # the draw read exactly the replay's doubles
                assert rng.random() == replay.random()


def test_draw_affine_reads_one_map_of_the_stream():
    for n, kappa, margin, band in DRAW_CASES:
        for index in range(40):
            rng = rng_for_sample(9, index)
            for _ in range(index % 3):  # start the map anywhere in the stream
                rng.random()
            replay = rng_for_sample(9, index)
            replay.random(index % 3)
            m = draw_affine(rng, kappa, margin, band)
            band_ = (-kappa, kappa) if band is None else band
            a = fraction_rationalize(replay.uniform(*band_), 32)
            b_lo, b_hi = fraction_intercept_range(a, margin)
            b = fraction_rationalize(replay.uniform(b_lo, b_hi), 32)
            _assert_maps_match([m], [(a, b)])
            assert rng.random() == replay.random()


class _Fixed:
    """A stream that hands out the given doubles, in order."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size):
        out, self.values[:size] = self.values[:size], []
        return np.array(out)


def test_grid_ties_round_half_to_even():
    # from (-0.5, 0.5) the double 0.5 + t gives the slope t exactly, here
    # (2k + 1) * 2**-33, halfway between two points of the grid
    for k in range(-4, 4):
        tie = (2 * k + 1) * 2.0**-33
        m = draw_affine(_Fixed(0.5 + tie, 0.5), 0.5)
        assert m.a == fraction_rationalize(tie, 32) == F(round(k + 0.5), 2**32)


def _numpy_error(lo, hi):
    with pytest.raises((ValueError, OverflowError)) as caught:
        np.random.default_rng(0).uniform(lo, hi)
    return caught.type, str(caught.value)


@pytest.mark.parametrize(
    "kappa, band",
    [
        (0.45, (0.45, 0.3)),
        (0.45, (0.0, -0.0)),
        (-0.1, None),
        (math.nan, None),
        (math.inf, None),
        (-math.inf, None),
        (0.45, (0.1, math.nan)),
    ],
)
def test_a_bad_slope_range_raises_numpy_error(kappa, band):
    lo, hi = (-kappa, kappa) if band is None else band
    kind, message = _numpy_error(lo, hi)
    for draw in (
        lambda: draw_ifs(_Fixed(0.5, 0.5, 0.5, 0.5), 2, kappa, slope_band=band),
        lambda: draw_affine(_Fixed(0.5, 0.5), kappa, slope_band=band),
    ):
        with pytest.raises(kind) as caught:
            draw()
        assert str(caught.value) == message


def test_a_bad_intercept_range_raises_numpy_error():
    # a slope of about 0.9 leaves 1 - 1/2 - 0.9 < 0 for the intercept
    kind, message = _numpy_error(0.25, 0.75 - 0.9)
    assert kind is ValueError
    with pytest.raises(kind) as caught:
        draw_ifs(_Fixed(0.99, 0.5, 0.5, 0.5), 2, 0.91, F(1, 4))
    assert str(caught.value) == message


@pytest.mark.parametrize("margin", [F(51, 100), F(3, 5), F(1)])
def test_a_margin_past_one_half_raises_numpy_error(margin):
    # (margin, 1 - margin) is empty: the breakpoint try raises before it
    # reads the stream, as numpy's uniform would
    kind, message = _numpy_error(float(margin), float(1 - margin))
    assert (kind, message) == (ValueError, "high - low < 0")
    for n in (2, 3):
        rng = _Counting(rng_for_sample(5, 0))
        with pytest.raises(kind) as caught:
            draw_breakpoints(rng, n, margin)
        assert str(caught.value) == message
        assert not rng.calls


def test_a_margin_of_one_half_draws_the_midpoint():
    # hi - lo is +0.0, which numpy accepts: every try lands on 1/2
    rng, replay = rng_for_sample(5, 0), rng_for_sample(5, 0)
    assert draw_breakpoints(rng, 2, F(1, 2)) == (F(1, 2),)
    assert replay.uniform(0.5, 0.5, size=1).tolist() == [0.5]
    assert rng.random() == replay.random()


def test_an_intercept_rounding_to_zero_raises_affine_error():
    # at margin 0 a zero slope leaves [0, 1] for the intercept, and a
    # double below 2**-33 rounds it to 0 on the grid
    message = affine_check_error(F(0), F(0))
    assert message is not None and "image of [0, 1] leaves (0, 1)" in message
    for draw in (
        lambda: draw_ifs(_Fixed(0.5, 2.0**-34, 0.5, 0.5), 2, 0.0, F(0)),
        lambda: draw_affine(_Fixed(0.5, 2.0**-34), 0.0, F(0)),
    ):
        with pytest.raises(ValueError) as caught:
            draw()
        assert str(caught.value) == message


class _Counting:
    """A generator that counts its method calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return getattr(self.rng, name)(*args, **kwargs)

        return counted


def test_mean_tries_match_the_draw_chance():
    # one try passes the gap test with chance (1 - (n-2)*m/(1-2*m))**(n-1),
    # the chance check_sampling bounds below: 8/27 at n = 4, m = 1/8
    n, m, draws = 4, F(1, 8), 2000
    chance = (1 - (n - 2) * m / (1 - 2 * m)) ** (n - 1)
    rng = _Counting(np.random.default_rng(28))
    for _ in range(draws):
        draw_breakpoints(rng, n, m)
    assert abs(rng.calls["random"] / draws * chance - 1) < 0.05


def test_a_sample_reads_its_stream_in_one_call_per_part():
    for n, kappa, margin, band in DRAW_CASES:
        for index in range(20):
            rng = _Counting(rng_for_sample(5, index))
            draw_breakpoints(rng, n, margin)
            *_, tries, _ = _fraction_draws(5, index, n, kappa, margin, band)
            assert rng.calls == {"random": tries}
            rng.calls.clear()
            draw_ifs(rng, n, kappa, margin, band)
            assert rng.calls == {"random": 1}
