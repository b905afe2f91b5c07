import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pcdyn import Backend, Interval, IntervalSet


def iset(*pairs):
    return IntervalSet.normalize([Interval(F(a), F(b)) for a, b in pairs])


def as_pairs(s):
    return [(iv.lo, iv.hi) for iv in s]


class TestNormalize:
    def test_empty(self):
        assert len(IntervalSet.normalize([])) == 0
        assert IntervalSet.normalize([]).is_empty

    def test_overlapping_images_merge(self):
        # the two branch images [1/20, 13/20] and [1/10, 9/10] overlap
        s = iset((F(1, 10), F(9, 10)), (F(1, 20), F(13, 20)))
        assert as_pairs(s) == [(F(1, 20), F(9, 10))]

    def test_partial_overlap_and_gap(self):
        s = iset((0, F(1, 5)), (F(1, 10), F(3, 10)), (F(1, 2), F(3, 5)))
        assert as_pairs(s) == [(0, F(3, 10)), (F(1, 2), F(3, 5))]

    def test_touching_intervals_merge(self):
        s = iset((0, F(1, 2)), (F(1, 2), F(3, 4)))
        assert as_pairs(s) == [(0, F(3, 4))]

    def test_degenerate_points_kept(self):
        s = iset((F(1, 3), F(1, 3)), (F(2, 3), F(2, 3)))
        assert len(s) == 2
        assert s.measure() == 0

    def test_float_backend_merges_within_tolerance(self):
        be = Backend.floating(1e-9)
        s = IntervalSet.normalize(
            [Interval(0.0, 0.5), Interval(0.5 + 1e-12, 0.75)], be
        )
        assert len(s) == 1

    @given(
        st.lists(
            st.tuples(st.integers(0, 64), st.integers(0, 64)).map(
                lambda t: Interval(F(min(t), 64), F(max(t), 64))
            ),
            max_size=12,
        )
    )
    def test_idempotent_and_order_insensitive(self, ivs):
        s1 = IntervalSet.normalize(ivs)
        assert IntervalSet.normalize(s1.components) == s1
        rng = random.Random(7)
        for _ in range(3):
            shuffled = list(ivs)
            rng.shuffle(shuffled)
            assert IntervalSet.normalize(shuffled) == s1

    @given(
        st.lists(
            st.tuples(st.integers(0, 48), st.integers(0, 48)).map(
                lambda t: Interval(F(min(t), 48), F(max(t), 48))
            ),
            max_size=8,
        ),
        st.lists(
            st.tuples(st.integers(0, 48), st.integers(0, 48)).map(
                lambda t: Interval(F(min(t), 48), F(max(t), 48))
            ),
            max_size=8,
        ),
    )
    def test_measure_subadditive(self, xs, ys):
        a = IntervalSet.normalize(xs)
        b = IntervalSet.normalize(ys)
        u = IntervalSet.normalize(list(xs) + list(ys))
        assert u.measure() <= a.measure() + b.measure()
        # equality exactly when nothing merged across the two sets
        separated = all(
            iv.hi < jv.lo or jv.hi < iv.lo
            for iv in a.components
            for jv in b.components
        )
        if separated:
            assert u.measure() == a.measure() + b.measure()
        elif any(
            not (iv.hi < jv.lo or jv.hi < iv.lo) and max(iv.lo, jv.lo) < min(iv.hi, jv.hi)
            for iv in a.components
            for jv in b.components
        ):
            assert u.measure() < a.measure() + b.measure()


class TestMeasure:
    def test_empty(self):
        assert IntervalSet.normalize([]).measure() == 0

    def test_single(self):
        assert iset((F(1, 20), F(9, 10))).measure() == F(17, 20)

    def test_sum_of_lengths(self):
        assert iset((0, F(3, 10)), (F(1, 2), F(3, 5))).measure() == F(2, 5)


class TestContains:
    def test_endpoint(self):
        assert iset((F(1, 20), F(9, 10))).contains(F(1, 20))

    def test_outside(self):
        assert not iset((F(1, 20), F(9, 10))).contains(F(19, 20))

    def test_limit_interval_left_end(self):
        assert iset((F(1, 8), F(1, 2))).contains(F(1, 8))

    def test_gap(self):
        assert not iset((0, F(3, 10)), (F(1, 2), F(3, 5))).contains(F(2, 5))

    def test_float_tolerance(self):
        be = Backend.floating(1e-9)
        s = IntervalSet.normalize([Interval(0.25, 0.5)], be)
        assert s.contains(0.25 - 1e-12, be)
        assert not s.contains(0.25 - 1e-6, be)


class TestHull:
    def test_two_components(self):
        h = iset((0, F(3, 10)), (F(1, 2), F(3, 5))).hull()
        assert (h.lo, h.hi) == (0, F(3, 5))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalSet.normalize([]).hull()


class TestContainsSet:
    def test_nested(self):
        outer = iset((0, F(1, 2)), (F(3, 5), F(9, 10)))
        inner = iset((F(1, 10), F(2, 5)), (F(7, 10), F(4, 5)))
        assert outer.contains_set(inner)
        assert not inner.contains_set(outer)

    def test_straddling_component_fails(self):
        outer = iset((0, F(2, 5)), (F(1, 2), F(9, 10)))
        inner = iset((F(3, 10), F(3, 5)))
        assert not outer.contains_set(inner)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(F(1, 2), F(1, 4))
    with pytest.raises(ValueError):
        Interval(F(-1, 4), F(1, 2))


@pytest.mark.parametrize(
    "lo, hi",
    [
        (F(-1, 4), F(1, 2)),  # lo < 0
        (F(-1, 3), F(-1, 7)),  # both below 0
        (F(1, 2), F(1, 4)),  # lo > hi
        (F(2, 3), F(5, 8)),  # lo > hi, across denominators
        (F(1, 2), F(9, 8)),  # hi > 1
        (F(1, 1), F(7, 6)),
        (F(5, 4), F(6, 4)),  # lo > 1 too
        (0, F(4, 3)),  # mixed int / Fraction
        (F(-1, 2), 1),
        (0.75, F(1, 2)),  # mixed float / Fraction
        (F(1, 2), 1.5),
        (-0.25, 0.5),
    ],
)
def test_interval_rejects_with_the_old_message(lo, hi):
    with pytest.raises(ValueError) as exc:
        Interval(lo, hi)
    assert str(exc.value) == (
        f"invalid interval [{lo}, {hi}]: need 0 <= lo <= hi <= 1"
    )


@pytest.mark.parametrize(
    "lo, hi",
    [
        (F(0), F(1)),
        (F(1, 3), F(1, 3)),
        (F(2, 7), F(1, 3)),
        (F(0), F(0)),
        (F(1), F(1)),
        (0, F(1, 2)),
        (F(1, 2), 1),
        (0.25, F(1, 2)),
        (F(1, 4), 0.5),
        (0, 1),
        (0.0, 1.0),
    ],
)
def test_interval_accepts_unit_subintervals(lo, hi):
    iv = Interval(lo, hi)
    assert (iv.lo, iv.hi) == (lo, hi)
