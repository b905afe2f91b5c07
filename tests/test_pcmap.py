import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from pcdyn import (
    EXACT,
    Affine,
    Backend,
    Breakpoints,
    CapExceededError,
    Clamped,
    Interval,
    IteratedFunctionSystem,
    PiecewiseContraction,
    Quadratic,
    is_generic,
    orbit,
    power_map,
)
from pcdyn import pcmap
from pcdyn.pcmap import LEFT_OPEN, RIGHT_OPEN, _generic_forward
from pcdyn.sampling import draw_pc, rng_for_sample
from _support import period3_pc

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


class TestPreimages:
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
            outcomes.append(want)
        # both answers are well represented, so the comparison has teeth
        assert 100 <= sum(outcomes) <= 230

    def test_agrees_on_steep_survey_draws(self):
        for i in range(30):
            f = draw_pc(rng_for_sample(7, i), 2 + i % 5, kappa_max=0.9)
            assert is_generic(f, 3) == _generic_forward(f, 3, EXACT, 10**6)

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

    def test_requires_exact_backend(self):
        with pytest.raises(ValueError, match="exact"):
            power_map(period3_pc(), 2, backend=FLOAT)

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


def _oracle_digit(f, x):
    """The generic digit: an exact bisect over the breakpoints."""
    if not 0 <= x < 1:
        raise ValueError(f"point {x} outside [0, 1)")
    pts = f.breakpoints.points
    i = bisect_right(pts, x)
    if i > 0 and pts[i - 1] == x and f.closures[i - 1] == LEFT_OPEN:
        return i
    return i + 1


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
