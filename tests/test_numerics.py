import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pcdyn import Backend, Interval, IntervalSet
from pcdyn.numerics import (
    _key,
    _raw_fraction,
    find_exact,
    find_pair,
    float_keys,
    unit_key,
)
from _support import fraction_measure


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


@pytest.mark.parametrize("eps_cmp", [0.0, -1e-12, math.nan, math.inf, -math.inf])
def test_float_backend_needs_a_finite_positive_tolerance(eps_cmp):
    with pytest.raises(ValueError, match="^eps_cmp must be finite and positive"):
        Backend.floating(eps_cmp)


def _read(parse, text):
    """parse(text) with its type, or the type and message it raised."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


_NUMBER_EDGES = [
    "0", "-0", "+0", "007", "-007/010", "0/5", "-0/3", "3/4", "+3/4",
    "-3/4", " 3/4 ", "3 / 4", "1/0", "0/0", "-5/000", "3/-4", "3/+4",
    "1_000/3", "3/1_0", "\u00b2/3", "\u0663/4", "3/\u0664", "1.5", "1e-3",
    ".5", "5.", "1E3", "3/", "/3", "+", "-", "-/3", "", "/", "3//4",
    "3/4/5", "--3", "+-3", "abc", "0x10", "1" * 5000, "-" + "9" * 4300,
    "1/" + "2" * 5000, "inf", "nan",
]


def test_exact_number_matches_the_fraction_constructor():
    """Backend.number under the exact backend gives Fraction(text)'s value
    as a Fraction, or its exception type and message, on literals in and
    out of the integer form p/q."""
    rng = random.Random(2608)
    # no exponent mark: Fraction("1e" + "2" * 30) would build 10**(2...2)
    pieces = ["", "+", "-", "0", "00", "7", "12", "2" * 30, "/", ".", "_",
              "\u0663", " "]
    texts = list(_NUMBER_EDGES)
    for _ in range(4000):
        texts.append("".join(rng.choice(pieces) for _ in range(rng.randint(1, 5))))
    for _ in range(1000):
        num, den = rng.randrange(-(2**70), 2**70), rng.randrange(0, 2**40)
        texts.append(f"{num}/{den}" if rng.random() < 0.8 else str(num))
    exact = Backend.exact()
    for text in texts:
        assert _read(exact.number, text) == _read(F, text.strip()), text


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


# --- exact kernels against the plain Fraction operations they replace -------

TINY = F(1, 2**1100)  # below 2**-1075: rounds to 0.0


def _tied_points(rng):
    """Sorted distinct Fractions in clusters 2**-70 apart, so many share one
    float key; some clusters sit at 0 and below 2**-1075."""
    pts = set()
    for _ in range(rng.randint(1, 8)):
        base = rng.choice([F(0), TINY, F(rng.randrange(1, 2**20), 2**20)])
        for k in range(rng.randint(2, 4)):
            pts.add(base + k * F(1, 2**70))
    pts.update(k * TINY for k in range(rng.randint(0, 3)))
    return sorted(pts)


def _probes(rng, pts):
    """Every point, its 2**-71 neighbours, and int, float and tiny values."""
    xs = [0, 1, -1, 0.0, 0.5, -0.0, 2.0, F(0), F(1), -TINY, TINY / 2]
    for p in pts:
        xs += [p, p - F(1, 2**71), p + F(1, 2**71), float(p)]
    xs += [F(rng.randrange(2**20 + 1), 2**20) for _ in range(10)]
    return xs


def _assert_find_exact(pts, keys, x):
    """find_exact against the plain bisects and membership."""
    i, hit = find_exact(pts, keys, x, _key(x))
    assert i == bisect_left(pts, x), x
    assert hit == (x in pts), x
    assert i + hit == bisect_right(pts, x), x


@pytest.mark.parametrize("seed", [5, 12])
def test_find_exact_matches_bisect_on_tied_fractions(seed):
    rng = random.Random(seed)
    tied = 0
    for _ in range(300):
        pts = _tied_points(rng)
        keys = float_keys(pts)
        tied += any(a == b for a, b in zip(keys, keys[1:]))
        for x in _probes(rng, pts):
            _assert_find_exact(pts, keys, x)
    assert tied >= 250


def test_find_exact_beyond_the_float_range():
    pts = [F(1, 3), F(1, 2)]
    for x in (F(10**400), -(10**400), F(1, 10**400)):
        _assert_find_exact(pts, float_keys(pts), x)
    big = [F(1, 2), F(10**400), F(10**400 + 1)]
    for x in (F(10**400), 10**400 + 1, F(10**401), -F(10**400), 10**400):
        _assert_find_exact(big, float_keys(big), x)


@pytest.mark.parametrize(
    "x, key",
    [
        (F(10**400), math.inf),
        (F(-(10**400), 3), -math.inf),
        (10**400, math.inf),
        (-(10**400), -math.inf),
        (F(1, 10**400), 0.0),
    ],
)
def test_key_beyond_the_float_range(x, key):
    assert _key(x) == key


def test_find_exact_float_x_on_tied_points():
    # 1/10, the float 0.1 and its exact value +- 2^-70 all share one key
    x, tiny = 0.1, F(1, 2**70)
    exact = F(x)
    for pts in (
        [exact - tiny, exact, exact + tiny],
        [F(1, 10), exact + tiny],
        [F(1, 10), x, exact + tiny],  # Fraction and float points
        [0.05, x, 0.2],
    ):
        keys = float_keys(pts)
        assert keys.count(x) >= 1
        for probe in (x, F(1, 10), exact + tiny, 0.05):
            _assert_find_exact(pts, keys, probe)


def test_find_exact_on_float_points():
    rng = random.Random(8)
    pts = sorted(rng.random() for _ in range(50))
    for x in pts + [F(1, 3), 0, 1, 0.5]:
        _assert_find_exact(pts, float_keys(pts), x)


@pytest.mark.parametrize(
    "x",
    [F(0), 0, 0.0, TINY, F(1) - F(1, 2**60), F(1, 2), 0.999, 1 - 2**-53],
)
def test_unit_key_accepts_the_half_open_unit_interval(x):
    assert unit_key(x) == float(x)


@pytest.mark.parametrize(
    "x", [F(1), 1, 1.0, -TINY, -1, F(-1, 3), F(10**400), 10**400, F(3, 2)]
)
def test_unit_key_rejects_points_outside(x):
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        unit_key(x)


def test_raw_fraction_matches_the_constructor():
    rng = random.Random(2)
    for _ in range(500):
        num = rng.randrange(-(2**80), 2**80)
        den = rng.randrange(1, 2**80)
        got = _raw_fraction(num, den)
        want = F(num, den)
        assert (got.numerator, got.denominator) == (
            want.numerator,
            want.denominator,
        )
        assert hash(got) == hash(want)


def test_midpoint_matches_the_generic_formula():
    rng = random.Random(4)
    for _ in range(300):
        lo, hi = sorted(F(rng.randrange(2**30 + 1), 2**30) for _ in range(2))
        assert Interval(lo, hi).midpoint() == (lo + hi) / 2
    assert Interval(0, F(1, 2)).midpoint() == F(1, 4)
    assert Interval(0.25, 0.5).midpoint() == 0.375


def _oracle_contains(s, x):
    return any(iv.lo <= x <= iv.hi for iv in s)


def test_contains_matches_a_linear_scan_on_tied_endpoints():
    rng = random.Random(6)
    for _ in range(200):
        pts = _tied_points(rng)
        pts = [p for p in pts if p <= 1]
        if len(pts) < 2:
            continue
        # consecutive pairs of tied points as components, every other gap
        raw = [Interval(a, b) for a, b in zip(pts[::2], pts[1::2])]
        s = IntervalSet.normalize(raw)
        for x in _probes(rng, pts):
            assert s.contains(x) == _oracle_contains(s, x), x
        for iv in raw:
            assert s.contains_set(IntervalSet((iv,)))
        for a, b in zip(pts, pts[1:]):
            inner = IntervalSet((Interval(a, b),))
            assert s.contains_set(inner) == any(
                c.lo <= a and b <= c.hi for c in s
            )


def test_find_pair_on_unreduced_pairs():
    rng = random.Random(13)
    for _ in range(200):
        pts = _tied_points(rng)
        keys = float_keys(pts)
        for x in _probes(rng, pts):
            if isinstance(x, float):
                continue
            x = F(x)
            want = bisect_left(pts, x), x in pts
            k = rng.choice([1, 3, 2**40])
            n, d = x.numerator * k, x.denominator * k
            assert find_pair(pts, keys, n, d, n / d) == want, x


def test_find_exact_decides_key_ties_on_float_points():
    pts = [0.25, 0.5, 0.75]
    keys = float_keys(pts)
    assert find_exact(pts, keys, 0.5, 0.5) == (1, True)
    assert find_exact(pts, keys, F(1, 2), 0.5) == (1, True)
    assert find_exact(pts, keys, F(1, 2) + F(1, 2**70), 0.5) == (2, False)


def test_measure_matches_the_fraction_sum():
    rng = random.Random(21)
    for _ in range(300):
        den = rng.choice([2**32, 3**5 * 7, 10**6, rng.randrange(1, 10**4)])
        ends = sorted(F(rng.randrange(den + 1), den * rng.randint(1, 3))
                      for _ in range(2 * rng.randint(1, 8)))
        s = IntervalSet.normalize(
            Interval(lo, hi) for lo, hi in zip(ends[::2], ends[1::2])
        )
        got = s.measure()
        assert got == fraction_measure(s) and type(got) is F


@pytest.mark.parametrize(
    "pairs",
    [(), ((0, F(3, 10)), (F(1, 2), 1)), ((0.25, 0.5), (0.625, 0.75))],
)
def test_measure_on_int_and_float_endpoints(pairs):
    s = iset(*pairs)
    got, want = s.measure(), fraction_measure(s)
    assert got == want and type(got) is type(want)


def _random_runs(rng, q):
    """Ascending disjoint (lo, hi) numerator pairs over q, some degenerate."""
    cuts = sorted(rng.sample(range(q + 1), 2 * rng.randint(0, min(5, q // 2))))
    runs = list(zip(cuts[::2], cuts[1::2]))
    return [(lo, lo) if rng.randrange(4) == 0 else (lo, hi) for lo, hi in runs]


def _shrunk(rng, runs, up):
    """Sub-runs of ``runs`` over a denominator ``up`` times finer."""
    out = []
    for lo, hi in runs:
        if rng.randrange(3):
            a = rng.randint(lo * up, hi * up)
            out.append((a, rng.randint(a, hi * up)))
    return out


def _generic(runs, q):
    return IntervalSet(tuple(Interval(F(lo, q), F(hi, q)) for lo, hi in runs))


def test_integer_backed_sets_match_generic_sets():
    rng = random.Random(33)
    outcomes = set()
    for _ in range(400):
        q = rng.choice([1, 2, 6, 12, 35, 64, 3**7, 2**40 * 21])
        outer = _random_runs(rng, min(q, 40) if rng.randrange(2) else q)
        up = rng.choice([1, 2, 3, 10])
        # a sub-collection of outer over q*up, or unrelated runs over q2
        inner, q2 = (
            (_shrunk(rng, outer, up), q * up) if rng.randrange(2)
            else (_random_runs(rng, 48), 48)
        )
        a, b = IntervalSet._from_runs(outer, q), IntervalSet._from_runs(inner, q2)
        ga, gb = _generic(outer, q), _generic(inner, q2)
        assert (len(a), len(b)) == (len(ga), len(gb))
        assert a.measure() == fraction_measure(ga)
        assert b.measure() == fraction_measure(gb)
        for x, y, gx, gy in ((a, b, ga, gb), (b, a, gb, ga)):
            got = x.contains_set(y)
            assert got == gx.contains_set(gy), (outer, q, inner, q2)
            outcomes.add(got)
        assert a._runs is not None and b._runs is not None
        assert a == ga and gb == b and hash(a) == hash(ga) and hash(b) == hash(gb)
        assert a.is_empty == ga.is_empty
    assert outcomes == {True, False}
