import hashlib
import math
import random
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F

import pytest

from pcdyn import (
    EXACT,
    Affine,
    Backend,
    Breakpoints,
    CapExceededError,
    Clamped,
    Composed,
    Interval,
    IteratedFunctionSystem,
    NonDiscretePreimageError,
    PiecewiseContraction,
    Quadratic,
    cap_ifs,
    compose,
    is_generic,
    orbit,
    power_map,
    preimage_set,
)
from pcdyn import pcmap
from pcdyn.pcmap import LEFT_OPEN, RIGHT_OPEN, _generic_forward
from pcdyn.sampling import (
    draw_breakpoints,
    draw_ifs,
    draw_pc,
    rng_for_sample,
)
from _support import (
    breakpoints_check_error,
    field_rational,
    float_descriptor,
    fraction_digit_word,
    fraction_cycle_orbit,
    fraction_is_generic,
    fraction_word_map,
    generic_cycle_orbit,
    generic_digit_word,
    generic_value,
    pending_list_orbit,
    period3_pc,
    rand_affine,
    rand_clamped,
    rand_descriptor,
    rand_fraction,
    rand_quadratic,
)

FLOAT = Backend.floating()


class TestBreakpoints:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            Breakpoints((F(1, 2), F(3, 10)))

    def test_interior_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            Breakpoints((F(0), F(1, 2)))

    def test_branch_count_checked(self):
        with pytest.raises(ValueError, match="breakpoints"):
            PiecewiseContraction(
                period3_pc().ifs, Breakpoints((F(1, 4), F(1, 2)))
            )

    def test_matches_the_generic_check(self):
        """Fraction, int and float points, in order, unordered, repeated
        and outside (0, 1): the same points kept, or the same message, as
        the check through the scalars' own operators."""
        tiny = F(1, 2**70)  # points this close share a float key
        pool = [
            F(0), F(1), F(-1, 3), F(4, 3), tiny, 1 - tiny, F(1, 2),
            F(1, 2) + tiny, F(1, 3), F(2, 3), 0, 1, 2, -1, 0.0, 1.0, 0.5,
            0.25, -0.5, 1.5, float("nan"), float("inf"),
        ]
        rng = random.Random(2606)
        seen = Counter()
        for _ in range(3000):
            pts = tuple(
                rng.choice(pool) if rng.random() < 0.3
                else rand_fraction(rng, F(0), F(1), rng.choice((4, 2**32)))
                for _ in range(rng.randint(0, 5))
            )
            if rng.random() < 0.5:
                pts = tuple(sorted(pts, key=float))
            want = breakpoints_check_error(pts)
            try:
                got = Breakpoints(pts).points
            except ValueError as exc:
                assert str(exc) == want, pts
                seen[want.split()[-1]] += 1
            else:
                assert want is None and got == pts, pts
                seen["valid"] += 1
        assert min(seen.values()) >= 200 and len(seen) == 3, seen


class TestDigit:
    def test_left_endpoint(self):
        assert period3_pc().digit(F(0)) == 1

    def test_breakpoint_goes_right_by_default(self):
        assert period3_pc().digit(F(3, 10)) == 2

    def test_interior(self):
        assert period3_pc().digit(F(7, 20)) == 2

    def test_one_is_outside(self):
        with pytest.raises(ValueError):
            period3_pc().digit(F(1))

    def test_left_open_variant(self):
        f = period3_pc()
        g = PiecewiseContraction(f.ifs, f.breakpoints, (LEFT_OPEN,))
        assert g.digit(F(3, 10)) == 1
        assert g(F(3, 10)) == F(3, 10) / 2 + F(1, 4)
        # all other points are untouched by the closure change
        assert g(F(1, 4)) == f(F(1, 4))
        assert g(F(2, 5)) == f(F(2, 5))


def _oracle_digit(f, x):
    """The generic digit: a plain exact bisect over the breakpoints."""
    if not 0 <= x < 1:
        raise ValueError(f"point {x} outside [0, 1)")
    pts = f.breakpoints.points
    i = bisect_right(pts, x)
    if i and pts[i - 1] == x and f.closures[i - 1] == LEFT_OPEN:
        return i
    return i + 1


class TestDigitTiesAgainstExactBisect:
    def test_tied_breakpoints_and_closures(self):
        rng = random.Random(303)
        tiny = F(1, 2**70)
        ties = 0
        for _ in range(150):
            pts = set()
            for _ in range(rng.randint(1, 4)):
                base = F(rng.randrange(1, 2**20), 2**20)
                pts.update(base + k * tiny for k in range(rng.randint(1, 4)))
            pts = tuple(sorted(pts))
            keys = [float(p) for p in pts]
            ties += len(set(keys)) < len(keys)
            n = len(pts) + 1
            maps = tuple(Affine(F(1, 2), F(1, 4)) for _ in range(n))
            closures = tuple(
                rng.choice((LEFT_OPEN, RIGHT_OPEN)) for _ in pts
            )
            f = PiecewiseContraction(
                IteratedFunctionSystem(maps), Breakpoints(pts), closures
            )
            xs = [F(0), 0, 0.0, F(1) - F(1, 2**60), F(1), 1, 0.5, -tiny]
            for p in pts:
                xs += [p, p - tiny / 2, p + tiny / 2, float(p)]
            for x in xs:
                try:
                    want = _oracle_digit(f, x)
                except ValueError:
                    with pytest.raises(ValueError):
                        f.digit(x)
                    continue
                assert f.digit(x) == want, x
        assert ties >= 100


class TestEval:
    def test_branch_one(self):
        assert period3_pc()(F(0)) == F(1, 4)

    def test_half_open_at_breakpoint(self):
        assert period3_pc()(F(3, 10)) == F(11, 40)

    def test_exact_cycle_value(self):
        assert period3_pc()(F(2, 7)) == F(11, 28)

    def test_digit_consistency(self):
        f = period3_pc()
        rng = random.Random(2)
        for _ in range(200):
            x = F(rng.randrange(0, 2**12), 2**12)
            assert f(x) == f.ifs.maps[f.digit(x) - 1](x)


def _mixed_pc(rng: random.Random) -> PiecewiseContraction:
    """A seeded system of Affine branches (negative and zero slopes among
    them) and Clamped affine branches, with random closures."""
    n = rng.randint(2, 5)
    cuts = set()
    while len(cuts) < n - 1:
        den = rng.choice([97, 2**16])
        cuts.add(rand_fraction(rng, F(1, 50), F(49, 50), den))
    kinds = (
        rand_affine,
        rand_clamped,
        lambda r: Affine(F(0), F(r.randrange(1, 99), 99)),
    )
    maps = tuple(rng.choice(kinds)(rng) for _ in range(n))
    closures = tuple(rng.choice((LEFT_OPEN, RIGHT_OPEN)) for _ in cuts)
    return PiecewiseContraction(
        IteratedFunctionSystem(maps), Breakpoints(tuple(sorted(cuts))),
        closures,
    )


def _assert_call(f, x):
    got, want = f(x), generic_value(f, x)
    assert got == want and type(got) is type(want), (f, x)
    if type(got) is F:  # normalised: the same integers and hash
        assert got.as_integer_ratio() == want.as_integer_ratio()
        assert hash(got) == hash(want)


def _fused_form(f, x):
    """The unreduced (num, den) that __call__'s integer path forms for x,
    or None where it takes digit + _eval or returns a clamp's plateau."""
    if float(x) in f._bp_keys:
        return None
    m = f.ifs.maps[f.digit(x) - 1]
    if type(m) is Clamped:
        if not m.lo < x < m.hi:
            return None
        m = m.inner
    if type(m) is not Affine or m._ints is None:
        return None
    A, B, D = m._ints
    xn, xd = x.as_integer_ratio()
    return A * xn + B * xd, D * xd


class TestFusedCall:
    """__call__ evaluates rational Affine and Clamped affine branches from
    their integer forms; digit + the generic a*x + b is the oracle."""

    def test_seeded_mixed_systems(self):
        rng = random.Random(4242)
        tiny = F(1, 2**70)
        slopes = set()
        plateaus = 0
        for _ in range(150):
            f = _mixed_pc(rng)
            xs = [F(rng.randrange(1, 2**20), 2**20) for _ in range(30)]
            xs += [rand_fraction(rng, F(0), F(1), 3**20) for _ in range(10)]
            for p in f.breakpoints:
                xs += [p, p - tiny, p + tiny, p - F(1, 2**20)]
            for x in xs:
                if 0 <= x < 1:
                    _assert_call(f, x)
                    m = f.ifs.maps[f.digit(x) - 1]
                    if isinstance(m, Clamped):
                        plateaus += not m.lo < x < m.hi
                    else:
                        slopes.add((m.a > 0) - (m.a < 0))
        assert slopes == {-1, 0, 1} and plateaus > 100

    def test_breakpoints_sharing_one_float(self):
        p = F(1, 3)
        q = p + F(1, 2**70)
        assert float(p) == float(q)
        maps = (
            Affine(F(1, 2), F(1, 4)),
            Clamped(Affine(F(-1, 3), F(1, 2)), F(1, 5), F(1, 3) + F(1, 2**71)),
            Affine(F(1, 4), F(1, 8)),
        )
        xs = [p, q, p + F(1, 2**71), p - F(1, 2**71), q + F(1, 2**71)]
        assert len({float(x) for x in xs}) == 1
        for closures in [(a, b) for a in (LEFT_OPEN, RIGHT_OPEN)
                         for b in (LEFT_OPEN, RIGHT_OPEN)]:
            f = PiecewiseContraction(
                IteratedFunctionSystem(maps), Breakpoints((p, q)), closures
            )
            for x in xs + [F(1, 4), F(1, 2)]:
                _assert_call(f, x)

    def test_fused_path_skips_digit_and_ties_take_it(self, monkeypatch):
        f = PiecewiseContraction(
            IteratedFunctionSystem(
                (Affine(F(1, 2), F(1, 4)),
                 Clamped(Affine(F(1, 2), F(1, 8)), F(1, 2), F(3, 4)))
            ),
            Breakpoints((F(3, 10),)),
            (LEFT_OPEN,),
        )
        want = {x: generic_value(f, x) for x in (F(1, 10), F(3, 5), F(7, 8))}
        calls = []
        digit = PiecewiseContraction.digit

        def counted(self, x):
            calls.append(x)
            return digit(self, x)

        monkeypatch.setattr(PiecewiseContraction, "digit", counted)
        for x, v in want.items():
            assert f(x) == v
        assert calls == []
        assert f(F(3, 10)) == Affine(F(1, 2), F(1, 4))(F(3, 10))  # left-open
        assert calls == [F(3, 10)]

    def test_power_maps_and_their_capped_systems(self):
        # f^2 and f^3 of the first 50 criterion-6 draws: word maps whose D
        # reach about 96 bits, refined breakpoints, some of them left-open
        rng = random.Random(606)
        tiny = F(1, 2**80)
        seen = Counter()
        for idx in range(50):
            f = draw_pc(rng_for_sample(42, idx), 3, kappa_max=0.45)
            for k in (2, 3):
                g = power_map(f, k)
                capped = cap_ifs(g.ifs, g.breakpoints).capped
                gcap = PiecewiseContraction(capped, g.breakpoints, g.closures)
                xs = [F(rng.randrange(1, 2**20), 2**20) for _ in range(10)]
                for p in g.breakpoints:
                    xs += [p, p - tiny, p + tiny]
                for h in (g, gcap):
                    for x in xs:
                        _assert_call(h, x)
                        y = h(x)
                        want = h.ifs.maps[h.digit(x) - 1]._eval(x)
                        assert y.as_integer_ratio() == want.as_integer_ratio()
                seen["left-open"] += g.closures.count(LEFT_OPEN)
                seen["bits"] = max(
                    [seen["bits"]] + [m._ints[2].bit_length() for m in g.ifs]
                )
        assert seen["left-open"] >= 10 and seen["bits"] >= 90, seen

    def test_dyadic_shift_and_gcd_reductions(self, monkeypatch):
        # on a power-of-two D*x_d the fused path shifts out the low zero
        # bits; every other denominator takes gcd, counted here
        gcds = []

        def counted_gcd(a, b):
            gcds.append((a, b))
            return math.gcd(a, b)

        monkeypatch.setattr(pcmap, "gcd", counted_gcd)
        rng = random.Random(3232)
        systems = []
        for idx in range(50):
            f = draw_pc(rng_for_sample(42, idx), 3, kappa_max=0.45)
            capped = cap_ifs(f.ifs, f.breakpoints).capped
            systems += [
                f, PiecewiseContraction(capped, f.breakpoints),
                power_map(f, 2), power_map(f, 3),
            ]
        # one coefficient over 3 or 5: D*x_d is no power of two there
        for m2, m3 in (
            (Affine(F(1, 3), F(1, 2)), Affine(F(3, 8), F(1, 5))),
            (Affine(F(1, 4), F(1, 8)), Affine(F(1, 4), F(1, 3))),
            (Affine(F(-2, 5), F(3, 4)), Affine(F(1, 2), F(1, 4))),
        ):
            maps = (Affine(F(1, 2), F(1, 4)), m2, Clamped(m3, F(5, 8), F(7, 8)))
            systems.append(PiecewiseContraction(
                IteratedFunctionSystem(maps), Breakpoints((F(1, 3), F(5, 8)))
            ))
        tally = Counter()
        for h in systems:
            xs = [F(2 * rng.randrange(2**(e - 1)) + 1, 2**e)
                  for e in (9, 20, 32) for _ in range(4)]
            xs += [F(6 * rng.randrange(2**(k - 1)) + 1, 3 * 2**k)
                   for k in (4, 12, 30) for _ in range(2)]
            tally["D bits"] = max(
                [tally["D bits"]]
                + [m._ints[2].bit_length() for m in h.ifs
                   if type(m) is Affine]
            )
            for x in xs:
                before = len(gcds)
                _assert_call(h, x)
                raw = _fused_form(h, x)
                if raw is None:
                    continue
                num, den = raw
                dyadic = den & (den - 1) == 0
                assert gcds[before:] == ([] if dyadic else [raw]), (h, x)
                tally["gcd" if not dyadic else "shift" if num % 2 == 0
                      else "odd"] += 1
        assert tally["D bits"] == 97, tally  # D = 2^96 on f^3 branches
        assert tally["shift"] >= 100 and tally["odd"] and tally["gcd"], tally

    def test_other_inputs_take_the_generic_path(self):
        f = _mixed_pc(random.Random(8))
        for x in (F(0), 0, 0.0, 0.3, 0.75, F(1, 2**1100), F(1) - F(1, 2**60)):
            _assert_call(f, x)
        clamped = Clamped(Affine(F(1, 3), F(1, 3)), F(1, 4), F(3, 4))
        maps = (
            rand_quadratic(random.Random(3)),
            compose(Affine(F(1, 2), F(1, 4)), clamped),
            Affine(0.5, 0.125),
        )
        g = PiecewiseContraction(
            IteratedFunctionSystem(maps), Breakpoints((F(1, 3), F(2, 3)))
        )
        assert g._branch_forms == (None, None, None)
        for x in (F(1, 7), F(1, 2), F(5, 6), F(1, 3), 0.5, 0):
            _assert_call(g, x)

    def test_outside_the_unit_interval_raises_the_same(self):
        f = _mixed_pc(random.Random(9))
        xs = (F(1), 1, 1.0, F(3, 2), F(-1, 10), -1, -0.25, F(10**400, 3),
              -F(1, 2**1100))
        for x in xs:
            message = re.escape(f"point {x} outside [0, 1)")
            with pytest.raises(ValueError, match=message):
                f(x)


def _values_digest() -> str:
    """SHA-256 of f, the capped f, f^2 and f^3 at (2j+1)/512 on seeded
    systems (slopes of both signs), one line per map."""
    h = hashlib.sha256()
    xs = [F(2 * j + 1, 512) for j in range(256)]
    for idx in range(12):
        rng = rng_for_sample(909, idx)
        n = 2 + idx % 3
        bps = draw_breakpoints(rng, n)
        ifs = draw_ifs(rng, n, kappa_max=0.45)
        f = PiecewiseContraction(ifs, Breakpoints(bps))
        fc = PiecewiseContraction(cap_ifs(ifs, bps).capped, f.breakpoints)
        for g in (f, fc, power_map(f, 2), power_map(f, 3)):
            h.update(" ".join(str(g(x)) for x in xs).encode() + b"\n")
    return h.hexdigest()


def test_map_values_pinned():
    # the values of the per-map evaluator that preceded the integer forms
    assert _values_digest() == (
        "d3f8ffbf1e4fe08b39f3b284a8c40ba3aabbd75a58f960a2017d3e20ed70a39d"
    )


class TestPreimages:
    def test_matches_the_sorted_set_of_branch_solutions(self):
        # the concatenation in branch order against the sorted union
        rng = random.Random(515)
        tested = multi = 0
        for _ in range(150):
            f = _mixed_pc(rng)
            ys = [rand_fraction(rng, F(0), F(1), 2**12) for _ in range(10)]
            ys += [f(x) for x in f.breakpoints]
            ys += [f(F(rng.randrange(2**12), 2**12)) for _ in range(20)]
            for y in ys:
                try:
                    got = f.preimages(y)
                except NonDiscretePreimageError:
                    continue
                want = set()
                for m, dom, lo_inc, hi_inc, _ in f._domains:
                    want.update(
                        p for p in m.preimages(y, dom)
                        if (p != dom.lo or lo_inc) and (p != dom.hi or hi_inc)
                    )
                assert got == sorted(want)
                tested += 1
                multi += len(got) > 1
        assert tested > 1000 and multi > 100

    def test_branchwise_halfopen(self):
        f = period3_pc()
        assert f.preimages(F(3, 10)) == [F(1, 10), F(7, 20)]
        assert f.preimages(F(1, 10)) == []
        assert f.preimages(F(9, 20)) == [F(13, 20)]

    def test_breakpoint_ownership(self):
        # a solution exactly on the breakpoint belongs to the right branch
        f = period3_pc()
        y = f(F(3, 10))
        assert F(3, 10) in f.preimages(y)


def _record(fn, *args):
    """fn's OrbitRecord, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _float_pc(f: PiecewiseContraction) -> PiecewiseContraction:
    """f with every coefficient and breakpoint as a float."""
    return PiecewiseContraction(
        IteratedFunctionSystem(tuple(map(float_descriptor, f.ifs.maps))),
        Breakpoints(tuple(map(float, f.breakpoints))),
        f.closures,
    )


def _ghost_pc(rng: random.Random) -> PiecewiseContraction:
    """Two float affine branches, each with its fixed point inside the
    other branch: a run of steps inside one branch makes a candidate whose
    fixed point leaves the branch, so its cycle fails to verify."""
    c = rand_fraction(rng, F(1, 5), F(4, 5), 2**8)
    maps = []
    for lo, hi in ((c, F(1)), (F(0), c)):
        a = rand_fraction(rng, F(1, 2), F(9, 10), 2**8)
        z = rand_fraction(rng, lo + F(1, 100), hi - F(1, 100), 2**8)
        maps.append(Affine(float(a), float(z * (1 - a))))
    return _pc(maps, (float(c),))


def _starts(rng: random.Random, f: PiecewiseContraction) -> list:
    """Two random exact starts and one breakpoint of f."""
    xs = [F(rng.randrange(2**12), 2**12) for _ in range(2)]
    return xs + [rng.choice(f.breakpoints.points)]



class TestOrbit:
    def test_exact_cycle_from_periodic_point(self):
        rec = orbit(period3_pc(), F(2, 7), 100)
        assert rec.converged
        assert rec.itinerary.preperiod == 0
        assert rec.orbit.period == 3
        assert rec.orbit.points == (F(2, 7), F(11, 28), F(9, 28))
        assert rec.orbit.word == (1, 2, 2)

    def test_preperiodic_start(self):
        rec = orbit(period3_pc(), F(0), 200)
        assert rec.converged
        assert rec.orbit.point_set() == {F(2, 7), F(11, 28), F(9, 28)}
        assert rec.itinerary.preperiod == 1
        assert rec.itinerary.period == 3

    def test_identical_branches_reach_fixed_point(self):
        f = PiecewiseContraction(
            IteratedFunctionSystem(
                (Affine(F(4, 5), F(1, 10)), Affine(F(4, 5), F(1, 10)))
            ),
            Breakpoints((F(3, 10),)),
        )
        rec = orbit(f, F(0), 500)
        assert rec.converged
        assert rec.orbit.points == (F(1, 2),)
        assert rec.orbit.period == 1

    def test_cycle_points_return_under_iteration(self):
        f = period3_pc()
        rec = orbit(f, F(0), 200)
        for p in rec.orbit.points:
            x = p
            for _ in range(rec.orbit.period):
                x = f(x)
            assert x == p

    def test_float_backend_detects_and_refines(self):
        f = PiecewiseContraction(
            IteratedFunctionSystem((Affine(0.5, 0.25), Affine(0.5, 0.125))),
            Breakpoints((0.3,)),
        )
        rec = orbit(f, 0.0, 500, backend=FLOAT)
        assert rec.converged
        assert rec.orbit.period == 3
        expected = sorted((2 / 7, 11 / 28, 9 / 28))
        for got, want in zip(sorted(rec.orbit.points), expected):
            assert abs(got - want) < 1e-9

    def test_coarse_width_converges(self):
        # the earliest near point rule ended "iteration-cap" at 4,000 steps
        f = _pc(
            [Affine(0.7859375, 0.11573955917358399),
             Affine(0.871875, 0.03208896255493164)],
            (0.5046875,),
        )
        rec = orbit(f, 0.0, 100, FLOAT, eps_orbit=0.1)
        fine = orbit(f, 0.0, 10_000, FLOAT, eps_orbit=1e-10)
        assert rec.converged and fine.converged
        assert rec.orbit.period == fine.orbit.period == 4
        for got, want in zip(rec.orbit.points, fine.orbit.points):
            assert abs(got - want) <= 1e-9

    def test_iteration_cap(self):
        rec = orbit(period3_pc(), F(0), 3)
        assert not rec.converged
        assert rec.failure == "iteration-cap"

    def test_breakpoint_hit_flagged(self):
        # 1/10 maps onto the breakpoint in one step
        rec = orbit(period3_pc(), F(1, 10), 50, fail_on_breakpoint_hit=True)
        assert not rec.converged
        assert rec.failure == "breakpoint-hit"
        rec2 = orbit(period3_pc(), F(1, 10), 50)
        assert rec2.converged

    def test_reproducible(self):
        a = orbit(period3_pc(), F(1, 13), 300)
        b = orbit(period3_pc(), F(1, 13), 300)
        assert a == b

    def test_trajectory_chain_invariant(self):
        f = period3_pc()
        rec = orbit(f, F(5, 17), 50)
        for x, y in zip(rec.points, rec.points[1:]):
            assert f(x) == y

    def test_matches_the_pending_list_loop(self, monkeypatch):
        """Every OrbitRecord field, or the exception's type and message,
        and the words passed to _refine_candidate, in order, equal the
        pending-list loop's (tests/_support.py) over exact affine and
        clamped systems, exact quadratic ones for a few steps, and float
        copies at coarse trigger widths."""
        refine, calls = pcmap._refine_candidate, []

        def logged(f, word, *args):
            orb = refine(f, word, *args)
            calls.append((word, orb))
            return orb

        monkeypatch.setattr(pcmap, "_refine_candidate", logged)
        seen = Counter()

        def check(g, x0, max_iter, backend=EXACT, eps_orbit=1e-10):
            args = (g, x0, max_iter, backend, eps_orbit, 1e-13, hit)
            got = _record(orbit, *args)
            mine = calls[:]
            calls.clear()
            assert got == _record(pending_list_orbit, *args), args
            # the same candidates are solved, in the same order
            assert mine == calls, args
            calls.clear()
            if isinstance(got, tuple):
                seen["raised"] += 1
            elif got.converged:
                # a primitive word: no orbit point repeats
                assert len(set(got.orbit.points)) == got.orbit.period, args
                repeat = got.points[-1] in got.points[:-1]
                seen["exact repeat" if repeat else "candidate"] += 1
                seen["rejected"] += any(orb is None for _, orb in mine)
            else:
                seen[got.failure] += 1

        rng = random.Random(1601)
        widths = (1e-10, 0.01, 0.03, 0.1)
        for _ in range(120):
            hit = rng.random() < 0.5
            f = _mixed_pc(rng)
            fl = _float_pc(f)
            for x0 in _starts(rng, f):
                check(f, x0, rng.choice((5, 50, 3000)))
                check(fl, float(x0), rng.choice((5, 50, 3000)), FLOAT,
                      rng.choice(widths))
            pair = _walk_pc(rng)
            if pair is not None:  # quadratic denominators square each step
                for x0 in _starts(rng, pair[0]):
                    check(pair[0], x0, rng.choice((5, 10)))
                    check(pair[1], float(x0), rng.choice((5, 50, 3000)),
                          FLOAT, rng.choice(widths))
            g = _ghost_pc(rng)  # refine rejections come early
            for x0 in _starts(rng, g):
                check(g, float(x0), 50, FLOAT, rng.choice(widths[1:]))
        assert seen["exact repeat"] >= 50 and seen["candidate"] >= 200
        assert seen["breakpoint-hit"] >= 10 and seen["rejected"] >= 20


def _min_rotation(points, word, home_cycle=None):
    """rotate_to_min through the generic ``min`` over the points."""
    k = min(range(len(points)), key=lambda i: points[i])

    def rot(seq):
        return tuple(seq[k:]) + tuple(seq[:k])

    cyc = None if home_cycle is None else rot(home_cycle)
    return pcmap.PeriodicOrbit(rot(points), len(points), rot(word), cyc)


class TestRotateToMin:
    def test_matches_the_generic_min(self):
        # points in clusters 2^-70 apart share a float key, so the choice
        # among them rests on the exact tie-break; repeats keep the first
        rng = random.Random(1717)
        tiny = F(1, 2**70)
        tied = 0
        for _ in range(400):
            bases = [rand_fraction(rng, F(0), F(1)) for _ in range(3)]
            pool = [b + k * tiny for b in bases for k in range(-2, 3)]
            pts = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.3:
                pts = [float(p) for p in pts]
            word = [rng.randint(1, 3) for _ in pts]
            cyc = [rng.randint(1, 9) for _ in pts] if rng.random() < 0.5 else None
            got = pcmap.rotate_to_min(pts, word, cyc)
            want = _min_rotation(pts, word, cyc)
            assert got == want
            assert got.points == want.points and got.home_cycle == want.home_cycle
            low = min(map(float, pts))
            tied += sum(float(p) == low for p in set(pts)) > 1
        assert tied >= 100


class TestIsGeneric:
    def test_true_at_shallow_depth(self):
        assert is_generic(period3_pc(), 3)

    def test_composition_collision_found_at_depth_four(self):
        # following branches 1,1,2,2 sends the breakpoint back to itself:
        # 3/10 -> 2/5 -> 9/20 -> 7/20 -> 3/10
        assert not is_generic(period3_pc(), 4)
        assert not is_generic(period3_pc(), 5)

    def test_breakpoint_equal_to_image_of_zero(self):
        phi1 = Affine(F(1, 2), F(1, 4))
        f = PiecewiseContraction(
            IteratedFunctionSystem((phi1, Affine(F(1, 2), F(1, 8)))),
            Breakpoints((phi1(F(0)),)),
        )
        assert not is_generic(f, 1)

    def test_float_near_collision_is_conservative(self):
        phi1 = Affine(0.5, 0.25)
        f = PiecewiseContraction(
            IteratedFunctionSystem((phi1, Affine(0.5, 0.125))),
            Breakpoints((0.25 + 1e-14,)),
        )
        assert not is_generic(f, 1, backend=FLOAT)


def _pc(maps, cuts) -> PiecewiseContraction:
    return PiecewiseContraction(
        IteratedFunctionSystem(tuple(maps)), Breakpoints(tuple(cuts))
    )


def _outcome(fn, *args):
    """fn's result, or its CapExceededError's type and message."""
    try:
        return fn(*args)
    except CapExceededError as exc:
        return type(exc), str(exc)


def _coarse_pc(rng: random.Random, n: int) -> PiecewiseContraction:
    """Affine maps and breakpoints on a grid of 1/64, slopes in 1/8 steps
    (constant maps included): collisions are common at every depth."""
    cuts = sorted(rng.sample(range(1, 64), n - 1))
    maps = []
    for _ in range(n):
        a = F(rng.randint(-7, 7), 8)
        lo = max(1, int(-a * 64) + 1)
        hi = min(63, int(64 - a * 64) - 1)
        maps.append(Affine(a, F(rng.randint(lo, hi), 64)))
    return _pc(maps, (F(c, 64) for c in cuts))


def _ladder_pc(k: int) -> PiecewiseContraction:
    """0 reaches the breakpoint 1/2 - 2^-(k+1) after exactly k steps of
    x -> x/2 + 1/4; every other word stays away from it."""
    return _pc(
        (Affine(F(1, 2), F(1, 4)), Affine(F(1, 8), F(3, 4))),
        (F(1, 2) - F(1, 2 ** (k + 1)),),
    )


class TestGenericBackwardSearch:
    """The backward search against the forward enumeration it replaced."""

    def test_agrees_with_forward_enumeration(self):
        rng = random.Random(2014)
        outcomes = []
        for i in range(330):
            n, depth = 2 + i % 6, 1 + (i // 6) % 5
            f = _coarse_pc(rng, n)
            want = _generic_forward(f, depth, EXACT, 10**6)
            assert is_generic(f, depth) == want, (i, f)
            assert fraction_is_generic(f, depth) == want, (i, f)
            cap = rng.randint(1, 12)
            assert _outcome(is_generic, f, depth, EXACT, cap) == _outcome(
                fraction_is_generic, f, depth, cap
            )
            outcomes.append(want)
        # both answers are well represented, so the comparison has teeth
        assert 100 <= sum(outcomes) <= 230

    def test_agrees_on_steep_survey_draws(self):
        capped = 0
        for i in range(30):
            f = draw_pc(rng_for_sample(7, i), 2 + i % 5, kappa_max=0.9)
            assert is_generic(f, 3) == _generic_forward(f, 3, EXACT, 10**6)
            for depth, cap in ((5, 100_000), (6, 40)):
                want = _outcome(fraction_is_generic, f, depth, cap)
                assert _outcome(is_generic, f, depth, EXACT, cap) == want
                capped += isinstance(want, tuple)
        assert capped >= 10

    def test_mixed_maps_and_tied_breakpoints_match_the_fraction_tree(self):
        # quadratic, clamped and constant maps take their own preimages;
        # breakpoints 2^-70 apart share one float
        rng = random.Random(1412)
        tiny = F(1, 2**70)
        verdicts = Counter()
        for i in range(120):
            base = sorted({rand_fraction(rng, F(1, 10), F(9, 10), 2**8) for _ in range(2)})
            cuts = sorted({b + k * tiny for b in base for k in range(i % 3)} | set(base))
            kinds = [rand_affine, rand_affine, rand_quadratic, rand_clamped]
            maps = [rng.choice(kinds)(rng) for _ in range(len(cuts) + 1)]
            if i % 4 == 0:
                maps[rng.randrange(len(maps))] = Affine(F(0), rng.choice(cuts))
            f = _pc(maps, cuts)
            for depth in (1, 2, 4):
                want = _outcome(fraction_is_generic, f, depth, 300)
                assert _outcome(is_generic, f, depth, EXACT, 300) == want
                verdicts[want if isinstance(want, bool) else want[0]] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50
        assert verdicts[CapExceededError] >= 5

    def test_collision_through_a_map_outside_the_branch(self):
        # 1/2 belongs to branch 2, but map 1 fixes it; map 2 never reaches
        # it, and a branch-restricted backward search finds nothing
        f = _pc((Affine(F(1, 2), F(1, 4)), Affine(F(1, 4), F(1, 16))), (F(1, 2),))
        assert f.preimages(F(1, 2)) == []
        assert f.ifs.maps[1].preimages(F(1, 2), Interval(F(0), F(1))) == []
        assert not is_generic(f, 1)
        assert not _generic_forward(f, 1, EXACT, 100)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_collision_at_exactly_depth_k(self, k):
        f = _ladder_pc(k)
        assert is_generic(f, k - 1)
        assert not is_generic(f, k)
        assert _generic_forward(f, k - 1, EXACT, 100)
        assert not _generic_forward(f, k, EXACT, 100)

    def test_constant_map_onto_a_breakpoint(self):
        f = _pc((Affine(F(1, 2), F(1, 8)), Affine(F(0), F(1, 2))), (F(1, 2),))
        assert not is_generic(f, 1)
        # one step further back: the constant hits a depth-1 tree point
        g = _pc((Affine(F(1, 4), F(5, 8)), Affine(F(0), F(1, 2))), (F(3, 4),))
        assert is_generic(g, 1) and _generic_forward(g, 1, EXACT, 100)
        assert not is_generic(g, 2)

    def test_plateau_falls_back_to_forward_search(self, monkeypatch):
        # the clamped map is constant 13/50, a breakpoint, on [2/5, 1]
        clamped = Clamped(Affine(F(2, 5), F(1, 10)), F(0), F(2, 5))
        f = _pc((Affine(F(1, 2), F(2, 5)), clamped), (F(13, 50),))
        calls = []

        def spy(*args):
            calls.append(args[1])
            return _generic_forward(*args)

        monkeypatch.setattr(pcmap, "_generic_forward", spy)
        assert is_generic(f, 1)
        assert not is_generic(f, 2)  # 0 -> 2/5 -> 13/50
        assert calls == [1, 2]

    def test_float_coefficients_use_forward_search(self):
        # 0.5 * 1/2 + 0.25 is the float 0.5, which equals the breakpoint
        f = _pc((Affine(0.5, 0.25), Affine(0.5, 0.125)), (F(1, 2),))
        assert not is_generic(f, 1)

    def test_rational_shortcut_matches_the_field_walk(self):
        rng = random.Random(29)
        maps = [
            Affine(0, F(1, 2)),
            Affine(False, F(1, 2)),
            Affine(F(-1, 3), F(1, 2)),
            Affine(0.5, 0.25),
            Affine(F(1, 4), 0.5),
            Affine(0.25, F(1, 2)),
            Clamped(Affine(0.25, F(1, 2)), F(0), F(1)),
            Composed((Affine(F(1, 4), F(1, 2)), Affine(0.5, F(1, 8)))),
        ]
        maps += [rand_descriptor(rng, 2) for _ in range(60)]
        maps += [float_descriptor(m) for m in maps[-20:]]
        maps += draw_ifs(rng_for_sample(3, 0), 4, kappa_max=0.45).maps
        assert {field_rational(m) for m in maps} == {True, False}
        for m in maps:
            assert pcmap._rational(m) == field_rational(m), m
            assert pcmap._rational((m, maps[0])) == field_rational((m, maps[0]))

    def test_drawn_maps_skip_the_field_walk(self, monkeypatch):
        walks, forward = [], []
        fields = pcmap.fields

        def counted_fields(v):
            walks.append(v)
            return fields(v)

        def spy(*args):
            forward.append(args[1])
            return _generic_forward(*args)

        monkeypatch.setattr(pcmap, "fields", counted_fields)
        monkeypatch.setattr(pcmap, "_generic_forward", spy)
        f = draw_pc(rng_for_sample(3, 1), 3, kappa_max=0.45)
        is_generic(f, 3)
        assert walks == [] and forward == []
        # float coefficients still take the forward enumeration
        g = _pc((Affine(0.5, 0.25), Affine(F(1, 2), F(1, 8))), (F(3, 4),))
        is_generic(g, 2)
        assert forward == [2]

    def test_irrational_preimage_is_dropped(self):
        quad = Quadratic(F(1, 4), F(1, 4), F(1, 8))
        # x^2 + x - 3/2 = 0 has the irrational root (sqrt(7) - 1) / 2
        (root,) = quad.preimages(F(1, 2), Interval(F(0), F(1)))
        assert isinstance(root, float)
        f = _pc((quad, Affine(F(1, 2), F(1, 8))), (F(1, 2),))
        for depth in (1, 2, 3):
            assert is_generic(f, depth) == _generic_forward(f, depth, EXACT, 100)

    def test_cap_bounds_a_tree_level(self):
        with pytest.raises(CapExceededError, match="tree points"):
            is_generic(_ladder_pc(5), 4, cap=0)
        assert not is_generic(_ladder_pc(1), 3, cap=0)  # found at level 1

    def test_eleven_branches_fit_the_default_cap(self):
        f = draw_pc(rng_for_sample(11, 0), 11, kappa_max=0.45)
        assert is_generic(f, 5)
        with pytest.raises(CapExceededError):
            _generic_forward(f, 5, EXACT, 100_000)


class TestPowerMap:
    def test_power_one_echoes(self):
        f = period3_pc()
        g = power_map(f, 1)
        assert g.breakpoints.points == f.breakpoints.points
        for i in range(64):
            x = F(i, 64)
            assert g(x) == f(x)

    def test_depth_two_refinement(self):
        g = power_map(period3_pc(), 2)
        assert g.breakpoints.points == (F(1, 10), F(3, 10), F(7, 20))
        assert g.n == 4
        # branch maps, expanded by hand from the digit words
        assert g.ifs.maps[0] == Affine(F(1, 4), F(3, 8))     # 1 then 1
        assert g.ifs.maps[1] == Affine(F(1, 4), F(1, 4))     # 1 then 2
        assert g.ifs.maps[2] == Affine(F(1, 4), F(5, 16))    # 2 then 1
        assert g.ifs.maps[3] == Affine(F(1, 4), F(3, 16))    # 2 then 2

    def test_pointwise_agreement(self):
        f = period3_pc()
        for k in (2, 3):
            g = power_map(f, k)
            rng = random.Random(17)
            bps = set(g.breakpoints.points)
            for _ in range(1000):
                x = F(rng.randrange(0, 2**16), 2**16)
                if x in bps:
                    continue
                y = x
                for _ in range(k):
                    y = f(y)
                assert g(x) == y

    def test_agreement_at_refined_breakpoints(self):
        # the closure flags make the iterate exact on the cuts themselves
        f = period3_pc()
        for k in (2, 3):
            g = power_map(f, k)
            for y in g.breakpoints:
                v = y
                for _ in range(k):
                    v = f(v)
                assert g(y) == v

    def test_one_sided_limits_contain_value(self):
        f = period3_pc()
        g = power_map(f, 2)
        bounds = (F(0),) + g.breakpoints.points + (F(1),)
        for j, y in enumerate(g.breakpoints):
            v = f(f(y))
            left = g.ifs.maps[j](y)
            right = g.ifs.maps[j + 1](y)
            assert v in (left, right)

    def test_words_are_the_branch_digit_words(self):
        rng = random.Random(23)
        for idx in range(40):
            f = draw_pc(rng_for_sample(77, idx), 2 + idx % 3, 0.45)
            k = 1 + idx % 4
            g = power_map(f, k)
            bounds = (F(0),) + g.breakpoints.points + (F(1),)
            assert g.words == tuple(
                fraction_digit_word(f, (lo + hi) / 2, k)
                for lo, hi in zip(bounds, bounds[1:])
            )
            x = F(rng.randrange(2**16), 2**16)
            assert g.words[g.digit(x) - 1] == fraction_digit_word(f, x, k)
            for y in g.breakpoints.points + f.breakpoints.points:
                assert pcmap._digit_word(f, y, k) == fraction_digit_word(f, y, k)
        assert f.words == ()
        assert g == power_map(f, k) and hash(g) == hash(
            PiecewiseContraction(g.ifs, g.breakpoints, g.closures)
        )

    def test_digit_words_with_clamped_branches_and_ties(self):
        rng = random.Random(29)
        plain = 0
        for _ in range(60):
            f = _mixed_pc(rng)
            plain += all(type(m) is Affine for m in f.ifs)
            xs = [F(rng.randrange(2**16), 2**16) for _ in range(5)]
            for x in xs + list(f.breakpoints):
                assert pcmap._digit_word(f, x, 5) == fraction_digit_word(f, x, 5)
        assert plain >= 5

    def test_maps_are_the_fraction_composed_word_maps(self):
        for idx in range(30):
            f = draw_pc(rng_for_sample(61, idx), 2 + idx % 4, 0.45)
            for k in (2, 3, 4):
                g = power_map(f, k)
                for m, word in zip(g.ifs.maps, g.words):
                    want = fraction_word_map(f, word)
                    assert (m.a, m.b) == (want.a, want.b)
                    assert m == want and hash(m) == hash(want)
                    assert m._ints == want._ints

    def test_folded_cycles_lie_inside_and_close(self):
        # the folded solve z = B/(D - A) needs no range test and a walk
        # that follows the word needs no closing test: both always hold
        rng = random.Random(1403)
        seen = Counter()
        for idx in range(40):
            f = draw_pc(rng_for_sample(62, idx), 2 + idx % 4, 0.45)
            words = set(power_map(f, 3).words)
            words |= {
                tuple(rng.randint(1, f.n) for _ in range(rng.randint(1, 5)))
                for _ in range(10)
            }
            for w in sorted(words):
                m = fraction_word_map(f, w)
                z = m.b / (1 - m.a)
                assert 0 < z < 1, (f, w)
                got = pcmap._refine_candidate(f, w, EXACT, 1e-10, 1e-13)
                assert got == fraction_cycle_orbit(f, w), (f, w)
                if fraction_digit_word(f, z, len(w)) != w:
                    assert got is None
                    seen["left"] += 1
                    continue
                x = z
                for d in w[:-1]:
                    x = f.ifs.maps[d - 1]._eval(x)
                a, b, dd = f.ifs.maps[w[-1] - 1]._ints
                xn, xd = x.numerator, x.denominator
                assert (a * xn + b * xd) * z.denominator == z.numerator * dd * xd
                assert got is not None
                seen["followed"] += 1
        assert seen["followed"] >= 60 and seen["left"] >= 300

    def test_refined_set_matches_manual_preimages(self):
        # brute-force oracle: solve a*x + b = q on each branch directly
        f = period3_pc()
        k = 3
        want = set(f.breakpoints.points)
        level = set(f.breakpoints.points)
        for _ in range(k - 1):
            nxt = set()
            for q in level:
                for i, m in enumerate(f.ifs.maps, start=1):
                    x = (q - m.b) / m.a
                    lo = F(0) if i == 1 else f.breakpoints[i - 2]
                    hi = F(1) if i == f.n else f.breakpoints[i - 1]
                    if lo <= x < hi and x not in want:
                        nxt.add(x)
            want |= nxt
            level = nxt
        g = power_map(f, k)
        assert set(g.breakpoints.points) == want


    def test_cap_counts_the_refined_branches(self):
        for f in (period3_pc(), _zero_on_breakpoint_pc()):
            branches = power_map(f, 3).n
            assert power_map(f, 3, cap=branches).n == branches
            with pytest.raises(
                CapExceededError,
                match=f"^refined branch count exceeds cap {branches - 1}$",
            ):
                power_map(f, 3, cap=branches - 1)

    def test_zero_stays_out_of_the_refined_breakpoints(self):
        f = _zero_on_breakpoint_pc()
        assert F(0) in preimage_set(f, 1).points
        assert power_map(f, 2).breakpoints.points == (F(1, 2), F(3, 4))
        for k in (2, 3, 4):
            g = power_map(f, k)
            assert g.breakpoints[0] > 0
            for x in (F(0),) + g.breakpoints.points:
                y = x
                for _ in range(k):
                    y = f(y)
                assert g(x) == y


def _compose_chain(f: PiecewiseContraction, word):
    """The word map as the chain of compose() calls, first letter first."""
    m = f.ifs.maps[word[0] - 1]
    for d in word[1:]:
        m = compose(f.ifs.maps[d - 1], m)
    return m


class TestWordMapFold:
    """_word_map folds an all-affine word once in integers through
    _affine_fold, the helper _refine_candidate shares; other words keep
    the compose chain.  compose() and the Fraction-composed map are the
    oracles."""

    def test_affine_words_are_the_fraction_word_maps(self):
        rng = random.Random(3131)
        slopes = set()
        for idx in range(60):
            f = _mixed_pc(rng)
            maps = f.ifs.maps
            affine = [d for d, m in enumerate(maps, 1) if type(m) is Affine]
            for _ in range(8 if affine else 0):
                word = [rng.choice(affine) for _ in range(rng.randint(1, 6))]
                got, want = pcmap._word_map(f, word), fraction_word_map(f, word)
                assert type(got) is Affine and got == want, (f, word)
                assert hash(got) == hash(want)
                assert got._ints == want._ints == _compose_chain(f, word)._ints
                assert math.gcd(*got._ints) == 1 and got._ints[2] > 0
                slopes.update((maps[d - 1].a > 0) - (maps[d - 1].a < 0)
                              for d in word)
        assert slopes == {-1, 0, 1}

    def test_other_words_keep_the_compose_chain(self):
        clamped = Clamped(Affine(F(1, 3), F(1, 3)), F(1, 4), F(3, 4))
        maps = (
            Affine(F(1, 2), F(1, 4)),
            clamped,
            Affine(0.5, 0.125),
            rand_quadratic(random.Random(3)),
        )
        cuts = Breakpoints((F(1, 4), F(1, 2), F(3, 4)))
        f = PiecewiseContraction(IteratedFunctionSystem(maps), cuts)
        for word in [(1, 2), (2, 1, 1), (1, 3), (3, 1, 1), (4, 1), (1, 2, 3, 4)]:
            assert pcmap._affine_fold(maps, word) is None
            got, want = pcmap._word_map(f, word), _compose_chain(f, word)
            assert got == want and type(got) is type(want), word
        assert type(pcmap._word_map(f, (1, 3))) is Affine  # compose's float fold
        assert pcmap._word_map(f, (2,)) is clamped


def _zero_on_breakpoint_pc() -> PiecewiseContraction:
    """x/4 + 1/2 sends 0 onto the breakpoint 1/2: 0 is a backward iterate."""
    return PiecewiseContraction(
        IteratedFunctionSystem(
            (Affine(F(1, 4), F(1, 2)), Affine(F(1, 2), F(1, 8)))
        ),
        Breakpoints((F(1, 2),)),
    )


class TestDigitAgainstExactBisect:
    def test_wide_tied_breakpoints_and_closures(self):
        rng = random.Random(12)
        tiny = F(1, 2**70)
        for _ in range(60):
            pts = set()
            while len(pts) < rng.randint(2, 40):
                base = F(rng.randrange(1, 2**20), 2**20)
                pts.update(base + k * tiny for k in range(rng.randint(1, 3)))
            pts = tuple(sorted(pts))
            closures = tuple(rng.choice((LEFT_OPEN, RIGHT_OPEN)) for _ in pts)
            f = PiecewiseContraction(
                IteratedFunctionSystem(
                    (Affine(F(1, 2), F(1, 4)),) * (len(pts) + 1)
                ),
                Breakpoints(pts),
                closures,
            )
            xs = [F(0), 0, 0.0, F(1, 2**1100), F(1) - F(1, 2**60), 1, F(1)]
            xs += [-F(1, 2**1100), F(7, 5), 0.25]
            for p in pts:
                xs += [p, p - tiny / 2, p + tiny / 2, float(p)]
            for x in xs:
                try:
                    want = _oracle_digit(f, x)
                except ValueError:
                    with pytest.raises(ValueError):
                        f.digit(x)
                    continue
                assert f.digit(x) == want, x

    def test_refined_power_map_beyond_sixteen_breakpoints(self):
        f = draw_pc(rng_for_sample(5, 0), 5, kappa_max=0.9)
        g = power_map(f, 6)
        assert len(g.breakpoints) > 16
        assert LEFT_OPEN in g.closures
        for x in list(g.breakpoints) + [F(j, 97) for j in range(97)]:
            assert g.digit(x) == _oracle_digit(g, x)


def _walk_pc(rng: random.Random):
    """A seeded system of affine branches mixed with clamped and quadratic
    ones, each kind also composed after an affine map, with random
    closures, and its float copy.  Half of the systems put a breakpoint on,
    or 2^-70 beside, a branch's exact fixed point, so a cycle point shares
    its float with a breakpoint.  A word through a plateau and then a
    quadratic iterates its fixed point from the plateau's exact value."""
    n = rng.randint(2, 4)
    kinds = (
        rand_affine,
        rand_clamped,
        rand_quadratic,
        lambda r: Composed(
            (rand_affine(r), r.choice((rand_clamped, rand_quadratic))(r))
        ),
    )
    maps = [rng.choice(kinds)(rng) for _ in range(n)]
    cuts = {rand_fraction(rng, F(1, 20), F(19, 20), 2**8) for _ in range(n - 1)}
    fixed = [m.fixed_point() for m in maps]
    exact = [z for z in fixed if type(z) is F]
    if exact and rng.random() < 0.5:
        cuts.pop()
        cuts.add(rng.choice(exact) + rng.choice((-1, 0, 1)) * F(1, 2**70))
    if len(cuts) != n - 1:
        return None
    cuts = tuple(sorted(cuts))
    closures = tuple(rng.choice((LEFT_OPEN, RIGHT_OPEN)) for _ in cuts)
    f = PiecewiseContraction(
        IteratedFunctionSystem(tuple(maps)), Breakpoints(cuts), closures
    )
    fl = PiecewiseContraction(
        IteratedFunctionSystem(tuple(map(float_descriptor, maps))),
        Breakpoints(tuple(map(float, cuts))),
        closures,
    )
    return f, fl


class TestSingleWalk:
    """_digit_word and _refine_candidate take one walk; digit + _eval per
    step is the oracle (tests/_support.py)."""

    def test_digit_words_match_the_digit_loop(self):
        rng = random.Random(1401)
        tiny = F(1, 2**70)
        raised = checked = 0
        for _ in range(60):
            pair = _walk_pc(rng)
            if pair is None:
                continue
            for g in pair:
                xs = list(g.breakpoints) + [0.0, 1.0, -0.25]
                if g is pair[0]:  # ties, and points at or past [0, 1)'s ends
                    xs += [F(rng.randrange(2**16), 2**16) for _ in range(3)]
                    xs += [F(0), F(1) - F(1, 2**60), F(7, 5), -F(1, 2**1100)]
                    xs += [p + k * tiny for p in g.breakpoints for k in (-1, 1)]
                else:
                    xs += [rng.random() for _ in range(3)]
                for x in xs:
                    k = rng.randint(1, 5)
                    try:
                        want = generic_digit_word(g, x, k)
                    except ValueError:
                        raised += 1
                        with pytest.raises(ValueError):
                            pcmap._digit_word(g, x, k)
                        continue
                    assert pcmap._digit_word(g, x, k) == want, (g, x, k)
                    checked += 1
        assert raised >= 250 and checked >= 900

    def test_cycle_solves_match_the_digit_loop(self):
        rng = random.Random(1402)
        seen = Counter()
        for _ in range(40):
            pair = _walk_pc(rng)
            if pair is None:
                continue
            f, fl = pair
            words = {(d,) for d in range(1, f.n + 1)}
            words |= {(a, b) for a in range(1, f.n + 1) for b in range(1, f.n + 1)}
            words |= {tuple(rng.randint(1, f.n) for _ in range(3)) for _ in range(6)}
            rec = orbit(fl, rng.random(), 3000, backend=FLOAT)
            digits = rec.itinerary.digits
            for s0 in (0, len(digits) // 2, max(len(digits) - 8, 0)):
                for p in (1, 2, 3, 4):
                    if s0 + p <= len(digits):
                        words.add(tuple(digits[s0:s0 + p]))
            if rec.converged:
                seen["converged"] += 1
                words.add(rec.orbit.word)
            for g, backend in ((f, EXACT), (f, FLOAT), (fl, FLOAT)):
                for w in sorted(words):
                    got = pcmap._refine_candidate(g, w, backend, 1e-10, 1e-13)
                    want = generic_cycle_orbit(g, w, backend, 1e-10, 1e-13)
                    assert got == want, (g, w, backend)
                    letters = [g.ifs.maps[d - 1] for d in w]
                    kinds = {
                        type(c) for m in letters for c in getattr(m, "chain", (m,))
                    }
                    seen["clamped and quadratic"] += {Clamped, Quadratic} <= kinds
                    if got is None:
                        seen["none"] += 1
                        continue
                    seen["orbit"] += 1
                    seen["float"] += type(got.points[0]) is float
                    seen["mixed word"] += len(set(w)) > 1
                    seen["tie"] += any(
                        float(x) in g._bp_keys for x in got.points
                    )
        assert seen["converged"] >= 30 and seen["none"] >= 1500
        assert seen["orbit"] >= 300 and seen["float"] >= 200
        assert seen["mixed word"] >= 80 and seen["tie"] >= 15
        # words through a plateau and a quadratic: fixed_point on floats
        assert seen["clamped and quadratic"] >= 300
