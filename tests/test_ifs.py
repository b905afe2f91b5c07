import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import pcdyn.ifs
import pcdyn.numerics
from pcdyn import (
    Affine,
    Backend,
    Breakpoints,
    Clamped,
    Composed,
    Interval,
    IntervalSet,
    IteratedFunctionSystem,
    PiecewiseContraction,
    Quadratic,
    attractor_sequence,
    cap_ifs,
    highly_contractive_bound,
    ifs_image,
)
from pcdyn.sampling import draw_breakpoints, draw_ifs, rng_for_sample
from _support import (
    example_ifs,
    fraction_measure,
    generic_sequence,
    generic_value,
    rand_clamped,
    rand_fraction,
    rand_quadratic,
)


def min_endpoint(k):
    """Closed form for the left end of the k-th attractor set."""
    return F(1, 8) * (1 - F(3, 5) ** k)


def max_endpoint(k):
    """Closed form for the right end of the k-th attractor set."""
    return F(4, 5) ** k + F(1, 2) * (1 - F(4, 5) ** k)


class TestIfsImage:
    def test_unit_interval(self):
        s = ifs_image(example_ifs(), IntervalSet.unit())
        assert [(c.lo, c.hi) for c in s] == [(F(1, 20), F(9, 10))]

    def test_empty(self):
        assert ifs_image(example_ifs(), IntervalSet.empty()).is_empty

    def test_second_level(self):
        a1 = IntervalSet.normalize([Interval(F(1, 20), F(9, 10))])
        s = ifs_image(example_ifs(), a1)
        assert [(c.lo, c.hi) for c in s] == [(F(2, 25), F(41, 50))]


class TestAttractorSequence:
    def test_first_set(self):
        seq = attractor_sequence(example_ifs(), 1)
        assert [(c.lo, c.hi) for c in seq[1]] == [(F(1, 20), F(9, 10))]

    def test_single_component_closed_forms(self):
        seq = attractor_sequence(example_ifs(), 14)
        for k, s in enumerate(seq):
            if k == 0:
                continue
            assert len(s) == 1
            assert s.components[0].lo == min_endpoint(k)
            assert s.components[0].hi == max_endpoint(k)

    def test_constant_maps(self):
        ifs = IteratedFunctionSystem((Affine(F(0), F(1, 3)), Affine(F(0), F(2, 3))))
        seq = attractor_sequence(ifs, 1)
        assert [(c.lo, c.hi) for c in seq[1]] == [
            (F(1, 3), F(1, 3)),
            (F(2, 3), F(2, 3)),
        ]

    def test_nested_and_component_bound(self):
        # n = 2 roams freely (worst case 2^k components); larger systems are
        # drawn in the overlapping-slope regime where components merge
        for idx in range(12):
            rng = rng_for_sample(4242, idx)
            n = 2 + idx % 3
            band = None if n == 2 else (0.3, 0.45)
            ifs = draw_ifs(rng, n, kappa_max=0.45, slope_band=band)
            seq = attractor_sequence(ifs, 8)
            for k in range(len(seq) - 1):
                assert seq[k].contains_set(seq[k + 1])
                assert len(seq[k]) <= n**k

    def test_measure_decay_when_certified(self):
        tested = 0
        for idx in range(30):
            rng = rng_for_sample(97, idx)
            n = 2 + idx % 3
            ifs = draw_ifs(rng, n, kappa_max=0.45)
            rho = highly_contractive_bound(ifs)
            if rho is None:
                continue
            tested += 1
            seq = attractor_sequence(ifs, 6)
            for k in range(len(seq) - 1):
                assert seq[k + 1].measure() <= rho * seq[k].measure()
        assert tested >= 5


DENOMINATORS = (2, 3, 4, 5, 6, 7, 8, 9, 12, 14, 16, 21, 27, 64)


def random_rational_affine(rng):
    """A valid Affine with small, often non-dyadic, denominators.

    One in six slopes is the integer 0 (a constant map with an int slope).
    """
    if rng.randrange(6) == 0:
        a = 0
    else:
        d = rng.choice(DENOMINATORS)
        a = F(rng.randrange(1 - d, d), d)
    lo, hi = max(0, -a), min(1, 1 - a)  # a*0 + b and a*1 + b in (0, 1)
    d = rng.choice(DENOMINATORS)
    grid = range(math.floor(lo * d) + 1, math.ceil(hi * d))
    return Affine(a, F(rng.choice(grid), d) if grid else (lo + hi) / 2)


# depth per system size, so the generic oracle's n^k images stay small
K_FOR_N = {2: 8, 3: 7, 4: 5, 5: 5}


TOUCHING = [
    # A_1: images [1/6, 1/2] and [1/2, 5/6] share the endpoint 1/2
    (((F(1, 3), F(1, 6)), (F(1, 3), F(1, 2))), [1, 1, 2, 4]),
    # the same touch with a reversed (negative-slope) first image
    (((F(-1, 3), F(1, 2)), (F(1, 3), F(1, 2))), [1, 1, 2, 4]),
    # A_1: a constant map's point 4/7 is the other image's right end
    (((0, F(4, 7)), (F(2, 7), F(2, 7))), [1, 1, 2, 3]),
    # A_1: thirds, [1/9, 4/9] and [4/9, 7/9] touch at 4/9
    (((F(1, 3), F(1, 9)), (F(1, 3), F(4, 9))), [1, 1, 2, 4]),
    # A_2: [7/63, 15/63] and the reversed [15/63, 23/63] touch
    (((F(1, 3), F(2, 21)), (F(-1, 3), F(8, 21))), [1, 1, 1, 2]),
]


def _seeded_systems():
    """(ifs, k_max) for 240 seeded rational affine systems, n = 2-5."""
    rng = random.Random(20141)
    for idx in range(240):
        n = 2 + idx % 4
        ifs = IteratedFunctionSystem(
            tuple(random_rational_affine(rng) for _ in range(n))
        )
        yield ifs, 1 + idx % K_FOR_N[n] if idx % 3 else K_FOR_N[n]


def _differential_systems():
    """(ifs, k_max): the touching cases, then the seeded systems."""
    for maps, counts in TOUCHING:
        yield IteratedFunctionSystem(tuple(Affine(a, b) for a, b in maps)), 3
    yield from _seeded_systems()


def _integer_backed(ifs, k_max):
    seq = attractor_sequence(ifs, k_max)
    assert all(s._runs is not None for s in seq)
    return seq


class TestIntegerBackedSets:
    """A_k from the integer path, read before and after its components
    exist, against the generic path's sets."""

    def test_integer_answers_match_generic(self):
        outcomes = set()
        seen = {"negative": 0, "zero": 0}
        prev = None
        for ifs, k_max in _differential_systems():
            want = generic_sequence(ifs, k_max)
            got = _integer_backed(ifs, k_max)
            assert [len(s) for s in got] == [len(w) for w in want]
            assert [s.measure() for s in got] == [
                fraction_measure(w) for w in want
            ]
            pairs = [(j, k) for j in range(k_max + 1) for k in range(k_max + 1)]
            for j, k in pairs:
                result = got[j].contains_set(got[k])
                assert result == want[j].contains_set(want[k]), (ifs, j, k)
                outcomes.add((j <= k, result))
            if prev is not None:  # two systems: unrelated denominators
                pgot, pwant = prev
                for (s, w), (ps, pw) in zip(zip(got, want), zip(pgot, pwant)):
                    assert s.contains_set(ps) == w.contains_set(pw)
                    assert ps.contains_set(s) == pw.contains_set(w)
            assert all(s._runs is not None for s in got)  # nothing built yet
            prev = (got, want)
            seen["negative"] += any(m.a < 0 for m in ifs)
            seen["zero"] += any(m.a == 0 for m in ifs)
        # nested pairs hold, and some pairs are not nested
        assert outcomes == {(True, True), (False, True), (False, False)}
        assert min(seen.values()) >= 20, seen

    def test_endpoints_match_generic(self):
        for ifs, k_max in _differential_systems():
            want = generic_sequence(ifs, k_max)
            for s, w in zip(_integer_backed(ifs, k_max), want):
                assert list(s) == list(w)
                assert s._runs is None  # one representation once built
                assert [s.components[i] for i in range(len(w))] == list(
                    w.components
                )
                assert s.measure() == fraction_measure(w)
            for s, w in zip(_integer_backed(ifs, k_max), want):
                assert s == w
            for s, w in zip(_integer_backed(ifs, k_max), want):
                assert w == s
            for s, w in zip(_integer_backed(ifs, k_max), want):
                assert hash(s) == hash(w)
            got = _integer_backed(ifs, k_max)
            if want[-1] != want[-2]:  # constant maps: A_k stops changing
                assert got[-1] != want[-2] and want[-2] != got[-1]

    def test_len_measure_contains_set_build_no_interval(self, monkeypatch):
        built = []

        def spy(lo, hi):
            built.append((lo, hi))
            return Interval(lo, hi)

        monkeypatch.setattr(pcdyn.numerics, "Interval", spy)
        for ifs, k_max in list(_differential_systems())[:12]:
            seq = _integer_backed(ifs, k_max)
            for k in range(k_max):
                len(seq[k])
                seq[k].measure()
                seq[k].contains_set(seq[k + 1])
                seq[k + 1].contains_set(seq[k])
        assert built == []
        list(seq[-1])  # the spy sees the components once they are read
        assert len(built) == len(seq[-1])


class TestIntegerAttractorPath:
    """The integer path of attractor_sequence against the generic path."""

    def test_matches_generic_on_seeded_systems(self, monkeypatch):
        taken = []
        real = pcdyn.ifs._rational_affine_sequence

        def spy(maps, k_max):
            taken.append(k_max)
            return real(maps, k_max)

        monkeypatch.setattr(pcdyn.ifs, "_rational_affine_sequence", spy)
        seen = {"negative": 0, "zero": 0, "int": 0, "non-dyadic": 0, "merged": 0}
        for ifs, k_max in _seeded_systems():
            n = len(ifs)
            got = attractor_sequence(ifs, k_max)
            assert got == generic_sequence(ifs, k_max), ifs
            seen["negative"] += any(m.a < 0 for m in ifs)
            seen["zero"] += any(m.a == 0 for m in ifs)
            seen["int"] += any(type(m.a) is int for m in ifs)
            seen["non-dyadic"] += any(
                F(m.b).denominator & (F(m.b).denominator - 1) for m in ifs
            )
            seen["merged"] += len(got[-1]) < n**k_max
        assert len(taken) == 240
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("maps, counts", TOUCHING)
    def test_touching_images_merge(self, maps, counts):
        ifs = IteratedFunctionSystem(tuple(Affine(a, b) for a, b in maps))
        got = attractor_sequence(ifs, 3)
        assert [len(s) for s in got] == counts
        assert got == generic_sequence(ifs, 3)

    @pytest.mark.parametrize(
        "maps, backend, endpoint_type",
        [
            ((Clamped(Affine(F(2, 5), F(1, 10)), 0, F(2, 5)),
              Affine(F(2, 5), F(3, 10))), Backend.exact(), F),
            ((Quadratic(F(1, 4), F(1, 4), F(1, 10)),
              Affine(F(-1, 3), F(5, 7))), Backend.exact(), F),
            ((Affine(0.4, F(1, 10)), Affine(F(2, 5), F(3, 10))),
             Backend.exact(), float),
            ((Affine(F(2, 5), F(1, 10)), Affine(F(-1, 3), F(5, 7))),
             Backend.floating(), float),
        ],
        ids=["clamped", "quadratic", "float-coefficient", "float-backend"],
    )
    def test_other_input_takes_generic_path(
        self, monkeypatch, maps, backend, endpoint_type
    ):
        def refuse(maps, k_max):
            raise AssertionError("integer path taken")

        monkeypatch.setattr(pcdyn.ifs, "_rational_affine_sequence", refuse)
        ifs = IteratedFunctionSystem(maps)
        got = attractor_sequence(ifs, 5, backend)
        assert got == generic_sequence(ifs, 5, backend)
        assert {type(iv.lo) for s in got[1:] for iv in s} == {endpoint_type}


def _image_systems(rng, n):
    """n rational affine maps whose images of [0, 1] are laid left to right
    with gaps and lengths on a grid, in shuffled order, about half of the
    slopes negative: separated, unless a drawn gap is 0 (two images touch)
    or a drawn length is 0 (a constant map)."""
    den = rng.choice((60, 64, 105))
    parts = [rng.randrange(1, 6) for _ in range(2 * n + 1)]
    for i in range(1, 2 * n):  # one gap or length in ten is 0
        parts[i] *= rng.randrange(10) > 0
    parts[-1] += den - sum(parts)  # the last gap takes the rest
    maps, start = [], parts[0]
    for length, gap in zip(parts[1::2], parts[2::2]):
        a = F(length, den) * rng.choice((-1, 1))
        maps.append(Affine(a, F(start, den) - min(a, 0)))
        start += length + gap
    rng.shuffle(maps)
    return IteratedFunctionSystem(tuple(maps))


def _separated(ifs) -> bool:
    """Every slope nonzero and the images of [0, 1], in order, apart."""
    images = sorted(m.image(Interval(F(0), F(1))) for m in ifs)
    return all(m.a for m in ifs) and all(
        u.hi < v.lo for u, v in zip(images, images[1:])
    )


def _merged_runs(ifs, k_max):
    """The runs of A_0..A_k_max through the sort-and-merge step: every
    map's image runs sorted, touching ones merged, over q = L**k."""
    ints = [m._ints for m in ifs]
    den = math.lcm(*(d for _, _, d in ints))
    coeffs = [(a * (den // d), b * (den // d)) for a, b, d in ints]
    runs, q, out = [(0, 1)], 1, [[(0, 1)]]
    for _ in range(k_max):
        pieces = sorted(
            (min(a * lo, a * hi) + b * q, max(a * lo, a * hi) + b * q)
            for a, b in coeffs for lo, hi in runs
        )
        runs = [pieces[0]]
        for lo, hi in pieces[1:]:
            if lo <= runs[-1][1]:
                runs[-1] = (runs[-1][0], max(runs[-1][1], hi))
            else:
                runs.append((lo, hi))
        q *= den
        out.append(runs)
    return out


class TestSeparatedMaps:
    """Maps whose images of [0, 1] are apart join their image runs with no
    sort or merge; the sort-and-merge step and the generic path are the
    oracles, level by level."""

    def test_runs_match_the_sort_and_merge_step(self, monkeypatch):
        merges = []
        real = pcdyn.ifs._merged

        def spy(pieces):
            merges.append(len(pieces))
            return real(pieces)

        monkeypatch.setattr(pcdyn.ifs, "_merged", spy)
        rng = random.Random(3601)
        seen = Counter()
        k_for_n = {2: 8, 3: 6, 4: 5, 5: 4}
        for idx in range(240):
            n = 2 + idx % 4
            ifs = _image_systems(rng, n)
            merges.clear()
            got = attractor_sequence(ifs, k_for_n[n])
            separated = _separated(ifs)
            # separated maps skip the merge at every step, others take it
            assert len(merges) == (0 if separated else k_for_n[n]), ifs
            want = _merged_runs(ifs, k_for_n[n])
            assert [s._runs for s in got] == want, ifs
            assert got == generic_sequence(ifs, k_for_n[n]), ifs
            seen["separated", n] += separated
            if separated:  # every image run of every level stays apart
                assert len(got[-1]) == n ** k_for_n[n]
                seen["negative"] += any(m.a < 0 for m in ifs)
            elif all(m.a for m in ifs):
                seen["touching"] += len(got[1]) < n
            else:
                seen["zero"] += 1
        assert min(seen["separated", n] for n in k_for_n) >= 20, seen
        assert min(seen["negative"], seen["touching"], seen["zero"]) >= 20, seen

    def test_touching_and_constant_images_merge(self):
        # [1/10, 3/10] and the reversed [3/10, 1/2] touch at 3/10; a
        # constant map's point 7/10 is the last image's left end (at k = 1)
        for maps, counts in (
            (((F(1, 5), F(1, 10)), (F(-1, 5), F(1, 2))), [1, 1, 2, 4]),
            (((F(1, 5), F(1, 10)), (0, F(7, 10)), (F(1, 5), F(7, 10))),
             [1, 2, 5, 11]),
        ):
            ifs = IteratedFunctionSystem(tuple(Affine(a, b) for a, b in maps))
            assert not _separated(ifs)
            got = attractor_sequence(ifs, 3)
            assert [len(s) for s in got] == counts
            assert [s._runs for s in got] == _merged_runs(ifs, 3)
            assert got == generic_sequence(ifs, 3)


# On these systems the attractor path's old per-step gcd, of q = L**k and
# every endpoint numerator, was above 1 at every step k = 1..14: the
# endpoints come from the maps with denominators 3, 9 or 27 and never need
# all of L (the test asserts it).  One component each for the first and
# last, up to 64 for the negative and zero slopes in between.
GCD_EVERY_STEP = [
    ((F(1, 3), F(1, 3)), (F(1, 9), F(4, 9)), (F(1, 27), F(13, 27))),
    ((F(1, 6), F(19, 27)), (F(3, 4), F(1, 6))),
    ((F(-1, 2), F(3, 4)), (F(13, 27), F(2, 9))),
    ((0, F(2, 3)), (F(-1, 2), F(11, 16)), (F(1, 2), F(1, 4))),
    ((0, F(7, 8)), (F(11, 27), F(1, 2)), (0, F(5, 9))),
    ((F(8, 9), F(2, 27)), (F(-2, 3), F(5, 6))),
]


def _bounded_generic_sequence(ifs, k_max, cap):
    """generic_sequence, or None once a set has more than cap components
    (the oracle's cost grows with them)."""
    seq = [IntervalSet.unit()]
    for _ in range(k_max):
        seq.append(ifs_image(ifs, seq[-1]))
        if len(seq[-1]) > cap:
            return None
    return seq


class TestUnreducedDenominator:
    """A_k from the integer path is held over q = L**k, never reduced; its
    answers and its reduced endpoints match the generic path to k = 14."""

    K = 14

    def _check(self, ifs, want, prev):
        got = _integer_backed(ifs, self.K)
        assert len({s._q for s in got}) == self.K + 1  # a new q each step
        assert [len(s) for s in got] == [len(w) for w in want]
        assert [s.measure() for s in got] == [fraction_measure(w) for w in want]
        for j in range(self.K + 1):
            for k in range(self.K + 1):
                assert got[j].contains_set(got[k]) == want[j].contains_set(
                    want[k]
                ), (ifs, j, k)
        if prev is not None:  # another system: another L
            for s, w, ps, pw in zip(got, want, *prev):
                assert s.contains_set(ps) == w.contains_set(pw)
                assert ps.contains_set(s) == pw.contains_set(w)
        assert all(s._runs is not None for s in got)  # nothing built yet
        for s, w in zip(got, want):
            ends = [(e._numerator, e._denominator)
                    for iv in s for e in (iv.lo, iv.hi)]
            assert all(math.gcd(n, d) == 1 and d > 0 for n, d in ends)
            assert ends == [e.as_integer_ratio()
                            for iv in w for e in (iv.lo, iv.hi)]
        assert _integer_backed(ifs, self.K) == want
        return _integer_backed(ifs, self.K), want  # unbuilt, for the next

    def test_systems_the_old_gcd_reduced_at_every_step(self):
        prev = None
        for maps in GCD_EVERY_STEP:
            ifs = IteratedFunctionSystem(tuple(Affine(a, b) for a, b in maps))
            for s in _integer_backed(ifs, self.K)[1:]:
                assert math.gcd(s._q, *(v for run in s._runs for v in run)) > 1
            want = _bounded_generic_sequence(ifs, self.K, 64)
            prev = self._check(ifs, want, prev)

    def test_seeded_systems(self):
        # the 178 of 240 whose sets stay within 64 components to k = 14
        prev, checked = None, Counter()
        for ifs, _ in _seeded_systems():
            want = _bounded_generic_sequence(ifs, self.K, 64)
            if want is not None:
                prev = self._check(ifs, want, prev)
                checked[len(ifs)] += 1
        assert sum(checked.values()) >= 150 and min(checked.values()) >= 30


class TestHighlyContractiveBound:
    def test_example_slopes_too_large(self):
        assert highly_contractive_bound(example_ifs()) is None

    def test_sum_of_slopes(self):
        ifs = IteratedFunctionSystem(
            (Affine(F(2, 5), F(1, 10)), Affine(F(2, 5), F(3, 10)))
        )
        assert highly_contractive_bound(ifs) == F(4, 5)

    def test_plateaus_reduce_overlap(self):
        ifs = IteratedFunctionSystem(
            (Affine(F(2, 5), F(1, 10)), Affine(F(2, 5), F(3, 10)))
        )
        plan = cap_ifs(ifs, (F(3, 10),))
        rho = highly_contractive_bound(plan.capped)
        assert rho is not None
        assert rho <= F(4, 5)


    def test_composed_links_split_the_grid(self):
        # a fixed prefix x/2 + 1/4 before each clamp: every window, pulled
        # back through the prefix, is a cell where only its map has slope
        pre = Affine(F(1, 2), F(1, 4))
        two = IteratedFunctionSystem((
            Composed((pre, Clamped(Affine(F(2, 5), F(1, 10)), F(1, 2), F(3, 5)))),
            Composed((pre, Clamped(Affine(F(2, 5), F(3, 10)), F(1, 4), F(2, 5)))),
        ))
        assert two.maps[0]._domain_breakpoints() == (F(1, 2), F(7, 10))
        assert highly_contractive_bound(two) == F(1, 5)
        inner = Affine(F(9, 10), F(1, 40))
        windows = ((F(1, 4), F(2, 5)), (F(1, 2), F(3, 5)), (F(13, 20), F(3, 4)))
        three = IteratedFunctionSystem(tuple(
            Composed((pre, Clamped(inner, lo, hi))) for lo, hi in windows
        ))
        assert highly_contractive_bound(three) == F(9, 20)

    def test_composed_points_drop_plateaus_and_irrational_roots(self):
        # the first link is constant 7/20 on [0, 1/5], so the second link's
        # window end 7/20 pulls back to no point; 1/2 pulls back to 1/2
        first = Clamped(Affine(F(1, 2), F(1, 4)), F(1, 5), F(4, 5))
        second = Clamped(Affine(F(1, 2), F(1, 4)), F(7, 20), F(1, 2))
        assert Composed((first, second))._domain_breakpoints() == (
            F(1, 5), F(4, 5), F(1, 2)
        )
        # neither 7/20 nor 1/2 has a rational preimage under
        # x^2/4 + x/4 + 1/5: the discriminants are 17/5 and 29/5
        quad = Quadratic(F(1, 4), F(1, 4), F(1, 5))
        assert Composed((quad, second))._domain_breakpoints() == ()

def _shared_end_clamps(rng):
    """2-5 ``rand_clamped`` maps, some zero-slope or over [0, 1] with int
    ends, some windows moved to start or end where another one does."""
    n = rng.randint(2, 5)
    maps = [rand_clamped(rng) for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.15:
            maps[i] = Clamped(Affine(F(0), rand_fraction(rng, F(1, 10), F(9, 10))),
                              maps[i].lo, maps[i].hi)
        if rng.random() < 0.15:
            maps[i] = Clamped(maps[i].inner, 0, 1)
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        end = rng.choice((maps[a].lo, maps[a].hi))
        lo, hi = maps[b].lo, maps[b].hi
        if rng.random() < 0.5 and end < hi:
            lo = end
        elif end > lo:
            hi = end
        else:
            continue
        maps[b] = Clamped(maps[b].inner, lo, hi)
    return IteratedFunctionSystem(tuple(maps))


class TestSweptSlopeSum:
    """The integer sweep for Clamped(Affine) systems against the grid of
    clamp breakpoints, the generic code that every other system takes."""

    def _check(self, ifs):
        got = pcdyn.ifs._swept_slope_sum(ifs)
        want = pcdyn.ifs._grid_slope_sum(ifs)
        assert got == want and type(got) is type(want)
        return got

    def test_random_windows_with_shared_ends(self):
        rng = random.Random(1713)
        shared = below_one = 0
        for _ in range(400):
            ifs = _shared_end_clamps(rng)
            ends = [e for m in ifs for e in (m.lo, m.hi)]
            shared += len(set(ends)) < len(ends)
            below_one += self._check(ifs) < 1
        assert shared >= 150 and below_one >= 100

    def test_capped_systems(self):
        for idx in range(60):
            rng = rng_for_sample(43, idx)
            n = 2 + idx % 3
            ifs = draw_ifs(rng, n, kappa_max=0.45)
            plan = cap_ifs(ifs, draw_breakpoints(rng, n, F(1, 20)))
            assert self._check(plan.capped) == highly_contractive_bound(
                plan.capped
            )

    def test_zero_slopes_give_the_int_zero(self):
        flat = Clamped(Affine(F(0), F(1, 2)), F(1, 4), F(3, 4))
        ifs = IteratedFunctionSystem((flat, Clamped(Affine(0, F(1, 3)), 0, 1)))
        assert self._check(ifs) == 0 and type(highly_contractive_bound(ifs)) is int

    def test_other_maps_take_the_grid(self):
        rng = random.Random(5)
        clamped = rand_clamped(rng)
        for other in (
            rand_clamped(rng).inner,
            Clamped(rand_quadratic(rng), F(1, 4), F(3, 4)),
            Clamped(Affine(0.25, 0.5), F(1, 4), F(3, 4)),
            Clamped(clamped.inner, 0.25, F(3, 4)),
        ):
            ifs = IteratedFunctionSystem((clamped, other))
            assert pcdyn.ifs._swept_slope_sum(ifs) is None
            want = pcdyn.ifs._grid_slope_sum(ifs)
            assert highly_contractive_bound(ifs) == (want if want < 1 else None)


class TestCapIfs:
    def two_maps(self):
        return IteratedFunctionSystem(
            (Affine(F(2, 5), F(1, 10)), Affine(F(2, 5), F(3, 10)))
        )

    def test_collar_width(self):
        plan = cap_ifs(self.two_maps(), (F(3, 10),))
        assert plan.delta == F(1, 10)

    def test_clamp_windows(self):
        plan = cap_ifs(self.two_maps(), (F(3, 10),))
        first, second = plan.capped.maps
        assert isinstance(first, Clamped) and isinstance(second, Clamped)
        assert (first.lo, first.hi) == (0, F(2, 5))
        assert (second.lo, second.hi) == (F(1, 5), 1)

    def test_capped_bound_below_twice_kappa(self):
        plan = cap_ifs(self.two_maps(), (F(3, 10),))
        rho = highly_contractive_bound(plan.capped)
        assert rho is not None and rho <= F(4, 5)

    def test_precondition(self):
        ifs = IteratedFunctionSystem(
            (Affine(F(3, 5), F(1, 10)), Affine(F(2, 5), F(3, 10)))
        )
        with pytest.raises(ValueError, match="1/2"):
            cap_ifs(ifs, (F(1, 2),))

    def test_same_pc_inside_neighborhood(self):
        # perturbed breakpoints within the collar induce identical maps
        for idx in range(5):
            rng = rng_for_sample(1331, idx)
            n = 2 + idx % 3
            centers = draw_breakpoints(rng, n)
            ifs = draw_ifs(rng, n, kappa_max=0.45)
            plan = cap_ifs(ifs, centers)
            for _ in range(5):
                ys = tuple(
                    c + F(round(float(rng.uniform(-0.9, 0.9) * plan.delta) * 2**20), 2**20)
                    for c in centers
                )
                if not plan.covers(ys):
                    continue
                f_orig = PiecewiseContraction(ifs, Breakpoints(ys))
                f_cap = PiecewiseContraction(plan.capped, Breakpoints(ys))
                for _ in range(100):
                    x = F(int(rng.integers(0, 2**20)), 2**20)
                    assert f_orig(x) == f_cap(x)

    def test_capped_values_match_the_clamp_oracle(self):
        # fused Clamped(Affine) branches against clamping by comparison;
        # breakpoints moved out of the collar reach both plateaus
        plateaus = [0, 0]  # hi side, lo side
        for idx in range(20):
            rng = rng_for_sample(2718, idx)
            n = 2 + idx % 3
            bps = draw_breakpoints(rng, n)
            ifs = draw_ifs(rng, n, kappa_max=0.45)
            plan = cap_ifs(ifs, bps)
            f = PiecewiseContraction(ifs, Breakpoints(bps))
            xs = [F(j, 1024) for j in range(1024)] + list(bps)
            fc = PiecewiseContraction(plan.capped, f.breakpoints)
            # each collar window holds its branch: the branch is its inner map
            assert [b[4][:3] for b in fc._domains] == [m._ints for m in ifs]
            for x in xs:
                assert fc(x) == generic_value(fc, x) == f(x)
            for shift in (-2 * plan.delta, 2 * plan.delta):
                moved = tuple(b + shift for b in bps)
                if not 0 < moved[0] < moved[-1] < 1:
                    continue
                fm = PiecewiseContraction(plan.capped, Breakpoints(moved))
                # a branch the move cuts has no form
                assert any(b[4] is None for b in fm._domains)
                for x in xs:
                    assert fm(x) == generic_value(fm, x)
                    m = plan.capped[fm.digit(x) - 1]
                    plateaus[x <= m.lo] += not m.lo < x < m.hi
        assert min(plateaus) > 100
