import math
import random
from fractions import Fraction as F

import pytest

from pcdyn import (
    Affine,
    Backend,
    Clamped,
    Composed,
    Interval,
    NonDiscretePreimageError,
    Quadratic,
    compose,
)
from _support import (
    affine_check_error,
    float_descriptor,
    fraction_compose,
    iterated_fixed_point,
    rand_affine,
    rand_descriptor,
    rand_fraction,
    rand_quadratic,
)

EXACT = Backend.exact()


class TestEval:
    def test_affine_endpoints(self):
        assert Affine(F(4, 5), F(1, 10))(F(1)) == F(9, 10)
        assert Affine(F(3, 5), F(1, 20))(F(0)) == F(1, 20)

    def test_clamped_plateau(self):
        m = Clamped(Affine(F(2, 5), F(1, 10)), F(0), F(2, 5))
        assert m(F(9, 10)) == F(13, 50)  # constant at inner(2/5) = 0.26
        assert m(F(2, 5)) == F(13, 50)
        assert m(F(1, 5)) == F(9, 50)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            Affine(F(1, 2), F(1, 4))(F(3, 2))
        with pytest.raises(ValueError):
            Affine(F(1, 2), F(1, 4))(F(-1, 10))

    def test_quadratic(self):
        m = Quadratic(F(1, 4), F(1, 4), F(1, 5))
        assert m(F(1, 2)) == F(1, 16) + F(1, 8) + F(1, 5)


class TestConstruction:
    def test_slope_one_rejected(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            Affine(F(1), F(1, 10))

    def test_image_must_stay_interior(self):
        with pytest.raises(ValueError, match="leaves"):
            Affine(F(1, 2), F(3, 4))  # value 5/4 at x = 1
        with pytest.raises(ValueError, match="leaves"):
            Affine(F(1, 2), F(0))  # value 0 at x = 0

    def test_non_monotone_quadratic_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            Quadratic(F(1, 2), F(-1, 2), F(1, 2))

    def test_clamp_window_validated(self):
        with pytest.raises(ValueError, match="clamp"):
            Clamped(Affine(F(1, 2), F(1, 4)), F(1, 2), F(1, 2))


class TestAffineIntegerCheck:
    """Affine validates rationals in integers; the outcome and the message
    must be the generic check's."""

    @staticmethod
    def outcome(a, b):
        try:
            Affine(a, b)
        except ValueError as exc:
            return str(exc)
        return None

    def test_boundary_values(self):
        vals = [F(0), 0, 1, -1, F(1), F(-1), F(1, 2), F(-1, 2), F(1, 4),
                F(3, 4), F(2, 3), F(1, 3), F(-1, 3), F(5, 4), F(-5, 4),
                F(1) - F(1, 2**64), F(1, 2**64), 0.5, 0.25, -0.25, 1.0, True,
                False]
        for a in vals:
            for b in vals:
                assert self.outcome(a, b) == affine_check_error(a, b), (a, b)

    def test_random_rationals(self):
        rng = random.Random(64)
        for _ in range(4000):
            den = rng.choice([2**32, 7, 10**9, rng.randrange(1, 1000)])
            a = F(rng.randint(-2 * den, 2 * den), den)
            b = F(rng.randint(-den, 2 * den), rng.choice([den, 2**32, 3]))
            assert self.outcome(a, b) == affine_check_error(a, b), (a, b)

    def test_ints_match_the_coefficients(self):
        m = Affine(F(-3, 8), F(5, 6))
        assert m._ints == (-9, 20, 24)  # a = -9/24, b = 20/24
        assert Affine(0.5, F(1, 4))._ints is None


class TestLipschitzBound:
    def test_affine(self):
        assert Affine(F(4, 5), F(1, 10)).lipschitz_bound() == F(4, 5)

    def test_composed_product(self):
        m = Composed(
            (
                Affine(F(1, 2), F(1, 4)),
                Affine(F(1, 2), F(1, 8)),
                Affine(F(1, 2), F(1, 8)),
            )
        )
        assert m.lipschitz_bound() == F(1, 8)

    def test_clamping_keeps_inner_bound(self):
        m = Clamped(Affine(F(2, 5), F(1, 10)), F(1, 10), F(4, 5))
        assert m.lipschitz_bound() == F(2, 5)

    def test_quadratic_endpoint_derivatives(self):
        m = Quadratic(F(1, 4), F(1, 4), F(1, 5))
        assert m.lipschitz_bound() == F(3, 4)  # |2a + b| = 3/4 > |b| = 1/4

    def test_clamped_quadratic_reads_its_window(self):
        # the slope 2x/4 + 1/4 at most 1/2 on the window [1/10, 1/2]
        m = Clamped(Quadratic(F(1, 4), F(1, 4), F(1, 5)), F(1, 10), F(1, 2))
        assert m.lipschitz_bound() == F(1, 2)

    def test_bounds_every_difference_quotient(self):
        rng = random.Random(41)

        def clamped(inner):
            lo = rand_fraction(rng, F(0), F(2, 5))
            return Clamped(inner, lo, rand_fraction(rng, lo + F(1, 10), F(1)))

        grid = [F(i, 256) for i in range(257)]
        for _ in range(40):
            quad = rand_quadratic(rng)
            parts = (quad, clamped(quad), clamped(rand_affine(rng)))
            chain = tuple(rng.choice(parts) for _ in range(rng.randint(2, 3)))
            for m in parts + (Composed(chain),):
                bound = m.lipschitz_bound()
                assert bound < 1
                ys = [m(x) for x in grid]
                # adjacent quotients bound every quotient on the grid
                steepest = max(abs(v - u) * 256 for u, v in zip(ys, ys[1:]))
                assert steepest <= bound, m


class TestCompose:
    def test_affine_simplifies(self):
        phi1 = Affine(F(1, 2), F(1, 4))
        phi2 = Affine(F(1, 2), F(1, 8))
        word = compose(phi2, compose(phi2, phi1))
        assert word == Affine(F(1, 8), F(1, 4))

    def test_example_square(self):
        phi1 = Affine(F(4, 5), F(1, 10))
        sq = compose(phi1, phi1)
        assert sq == Affine(F(16, 25), F(9, 50))
        assert sq(F(1)) == F(41, 50)

    def test_matches_nested_eval(self):
        rng = random.Random(11)
        for _ in range(25):
            outer = rand_descriptor(rng)
            inner = rand_descriptor(rng)
            m = compose(outer, inner)
            for _ in range(5):
                x = F(rng.randrange(0, 101), 100)
                assert m(x) == outer(inner(x))


class TestIntegerCompose:
    """compose merges rational affine pairs in their integer forms; the
    Fraction composition is the oracle."""

    @staticmethod
    def assert_same(got, want):
        assert (got.a, got.b) == (want.a, want.b)
        assert type(got.a) is type(want.a) is F
        assert type(got.b) is type(want.b) is F
        assert got == want and hash(got) == hash(want)
        assert got._ints == want._ints

    def test_seeded_chains(self):
        rng = random.Random(91)
        for _ in range(300):
            chain = [rand_affine(rng) for _ in range(rng.randint(2, 6))]
            if rng.random() < 0.2:
                chain[rng.randrange(len(chain))] = Affine(F(0), F(1, 3))
            got = want = chain[0]
            for m in chain[1:]:
                got = compose(m, got)
                want = fraction_compose(m, want)
                self.assert_same(got, want)

    def test_order_matters(self):
        outer, inner = Affine(F(1, 2), F(1, 4)), Affine(F(-1, 3), F(1, 2))
        got = compose(outer, inner)
        self.assert_same(got, Affine(F(-1, 6), F(1, 2)))
        self.assert_same(compose(inner, outer), Affine(F(-1, 6), F(5, 12)))

    def test_int_and_float_coefficients(self):
        self.assert_same(
            compose(Affine(0, F(1, 3)), Affine(F(1, 2), F(1, 5))),
            Affine(F(0), F(1, 3)),
        )
        mixed = compose(Affine(0.5, 0.25), Affine(F(1, 2), F(1, 4)))
        assert mixed == Affine(0.25, 0.375) and mixed._ints is None


class TestImage:
    def test_increasing_affine(self):
        img = Affine(F(4, 5), F(1, 10)).image(Interval(F(0), F(1)))
        assert (img.lo, img.hi) == (F(1, 10), F(9, 10))

    def test_decreasing_affine_swaps(self):
        img = Affine(F(-2, 5), F(1, 2)).image(Interval(F(0), F(1)))
        assert (img.lo, img.hi) == (F(1, 10), F(1, 2))

    def test_plateau_degenerate(self):
        m = Clamped(Affine(F(2, 5), F(1, 10)), F(0), F(2, 5))
        img = m.image(Interval(F(1, 2), F(1)))
        assert (img.lo, img.hi) == (F(13, 50), F(13, 50))

    def test_matches_grid_sample(self):
        # every descriptor is monotone and continuous on [0, 1], so the
        # image is the range of the values on a grid holding both ends
        rng = random.Random(23)
        iv = Interval(F(1, 8), F(7, 8))
        grid = [iv.lo + (iv.hi - iv.lo) * F(i, 1000) for i in range(1001)]
        maps = [rand_descriptor(rng, d) for d in (1, 2) for _ in range(10)]
        assert {Composed, Clamped, Quadratic} <= {type(m) for m in maps}
        for m in maps:
            values = [m(x) for x in grid]
            assert m.image(iv) == Interval(min(values), max(values))
        # a float copy: a decreasing inner map with a plateau on each side
        m = float_descriptor(
            Clamped(Affine(F(-2, 5), F(3, 5)), F(3, 10), F(7, 10))
        )
        iv = Interval(0.125, 0.875)
        values = [m(0.125 + 0.75 * i / 1000) for i in range(1001)]
        assert m.image(iv) == Interval(min(values), max(values))
        assert m.image(iv) == Interval(m(0.7), m(0.3))


class TestPreimages:
    def test_affine_in_domain(self):
        m = Affine(F(1, 2), F(1, 4))
        assert m.preimages(F(3, 10), Interval(F(0), F(3, 10))) == [F(1, 10)]

    def test_affine_second_branch(self):
        m = Affine(F(1, 2), F(1, 8))
        assert m.preimages(F(3, 10), Interval(F(3, 10), F(1))) == [F(7, 20)]

    def test_affine_root_outside_domain(self):
        m = Affine(F(1, 2), F(1, 4))
        assert m.preimages(F(1, 5), Interval(F(0), F(3, 10))) == []

    def test_constant_map_plateau(self):
        m = Affine(F(0), F(1, 3))
        with pytest.raises(NonDiscretePreimageError):
            m.preimages(F(1, 3), Interval(F(0), F(1)))
        assert m.preimages(F(1, 2), Interval(F(0), F(1))) == []

    def test_clamped_plateau_flagged(self):
        m = Clamped(Affine(F(2, 5), F(1, 10)), F(1, 5), F(4, 5))
        with pytest.raises(NonDiscretePreimageError) as info:
            m.preimages(m(F(1, 10)), Interval(F(0), F(1)))
        assert info.value.lo == F(0) and info.value.hi == F(1, 5)

    def test_clamped_inner_window(self):
        m = Clamped(Affine(F(2, 5), F(1, 10)), F(1, 5), F(4, 5))
        assert m.preimages(F(3, 10), Interval(F(0), F(1))) == [F(1, 2)]

    def test_quadratic_perfect_square_exact(self):
        m = Quadratic(F(1, 4), F(1, 4), F(1, 5))
        y = m(F(1, 2))
        sols = m.preimages(y, Interval(F(0), F(1)))
        assert sols == [F(1, 2)]
        assert all(isinstance(s, F) for s in sols)

    def test_quadratic_irrational_falls_back_to_float(self):
        m = Quadratic(F(1, 4), F(1, 4), F(1, 5))
        sols = m.preimages(F(3, 10), Interval(F(0), F(1)))
        assert len(sols) == 1
        assert isinstance(sols[0], float)  # inexact flag
        assert math.isclose(float(m(F(round(sols[0] * 10**9), 10**9))), 0.3)

    def test_membership_property(self):
        rng = random.Random(5)
        dom = Interval(F(1, 16), F(15, 16))
        for _ in range(40):
            m = rand_descriptor(rng)
            y = F(rng.randrange(1, 64), 64)
            try:
                sols = m.preimages(y, dom)
            except NonDiscretePreimageError:
                continue
            for x in sols:
                if isinstance(x, F):
                    assert m(x) == y
                    assert dom.lo <= x <= dom.hi


class TestFixedPoint:
    def test_affine_exact(self):
        assert Affine(F(4, 5), F(1, 10)).fixed_point() == F(1, 2)
        assert Affine(F(3, 5), F(1, 20)).fixed_point() == F(1, 8)
        assert Affine(F(1, 8), F(1, 4)).fixed_point() == F(2, 7)

    def test_affine_float(self):
        z = Affine(0.8, 0.1).fixed_point()
        assert math.isclose(z, 0.5)

    def test_quadratic_closed_form(self):
        # the discriminant (b - 1)^2 - 4ac = 1/4 is a rational square
        z = Quadratic(F(1, 4), F(1, 4), F(5, 16)).fixed_point()
        assert type(z) is F and z == F(1, 2)
        # a == 0 is the affine map x/2 + 1/4
        z = Quadratic(F(0), F(1, 2), F(1, 4)).fixed_point()
        assert type(z) is F and z == F(1, 2)

    def test_one_link_composition_solves_its_link(self):
        z = Composed((Quadratic(F(1, 4), F(1, 4), F(5, 16)),)).fixed_point()
        assert type(z) is F and z == F(1, 2)

    def test_clamped_plateau_fixed_point(self):
        # inner fixed point 1/2 sits above the clamp window [0, 2/5]
        m = Clamped(Affine(F(4, 5), F(1, 10)), F(0), F(2, 5))
        z = m.fixed_point()
        assert z == m(F(2, 5)) == F(21, 50)
        assert m(z) == z

    def test_plateau_then_quadratic_iterates_on_floats(self, monkeypatch):
        # the plateau's exact value 29/50 must not carry into the next step:
        # through the quadratic, an exact iterate squares its denominator
        m = Composed((
            Clamped(Affine(F(4, 5), F(1, 10)), F(3, 5), F(1)),
            Quadratic(F(1, 10), F(1, 2), F(3, 10)),
        ))
        inputs = []
        real = Composed._eval
        monkeypatch.setattr(
            Composed, "_eval", lambda self, x: inputs.append(x) or real(self, x)
        )
        m.fixed_point(eps_fp=0.0)
        assert inputs and all(type(x) is float for x in inputs)
        monkeypatch.undo()
        z = m.fixed_point()
        assert type(z) is float and abs(m(z) - z) < 1e-12
        assert math.isclose(z, 0.646886223080652, rel_tol=1e-12)

    def test_plateau_fixed_point_stays_exact(self):
        # the word map is constant 53/100 near its fixed point: the exact
        # value comes back from a float iterate
        m = Composed((
            Clamped(Affine(F(4, 5), F(1, 10)), F(7, 10), F(1)),
            Affine(F(1, 2), F(1, 5)),
        ))
        z = m.fixed_point()
        assert z == F(53, 100) and type(z) is F

    def test_quadratic_closed_form(self):
        m = Quadratic(F(1, 4), F(1, 4), F(1, 5))
        z = m.fixed_point()
        if isinstance(z, F):
            assert m(z) == z
        else:
            assert abs(m(z) - z) < 1e-12

    def test_nonaffine_iteration(self):
        m = Quadratic(0.2, 0.3, 0.2)
        z = m.fixed_point()
        assert abs(m(z) - z) < 1e-12

    def test_matches_the_iteration(self):
        rng = random.Random(7)
        solved = 0
        for _ in range(300):
            m = Composed((rand_descriptor(rng), rand_descriptor(rng)))
            for w in (m, float_descriptor(m)):
                z = w.fixed_point()
                assert abs(w(z) - z) <= 1e-13
                assert abs(z - iterated_fixed_point(w, 1e-13)) <= 1e-11
                solved += 1
        assert solved == 600

    def test_settles_in_few_evaluations(self):
        class Counted(Composed):
            inputs = []

            def _eval(self, x):
                Counted.inputs.append(x)
                return super()._eval(x)

        rng = random.Random(11)
        slow = Quadratic(F(1, 10**8), F(99999, 10**5), F(75, 10**7))
        words = [(slow, slow), (float_descriptor(slow), slow)]
        for _ in range(300):
            words.append(tuple(rand_descriptor(rng) for _ in range(2)))
        worst = 0
        for chain in words:
            for eps_fp in (1e-13, 0.0):
                Counted.inputs.clear()
                z = Counted(chain).fixed_point(eps_fp)
                assert 0 < z < 1
                assert all(type(x) is float for x in Counted.inputs)
                assert len(Counted.inputs) <= 50, chain
                worst = max(worst, len(Counted.inputs))
        # 12 here; without the Illinois halving, plain regula falsi takes 26
        assert worst <= 16
        # the contraction iteration needs over 10**6 steps at this slope
        class Quad(Quadratic):
            evals = 0

            def _eval(self, x):
                Quad.evals += 1
                return super()._eval(x)

        for eps_fp in (1e-13, 0.0):
            Quad.evals = 0
            z = Quad(slow.a, slow.b, slow.c).fixed_point(eps_fp)
            assert abs(z - 0.75056334533536) < 1e-8 and Quad.evals <= 50

    def test_contraction_property(self):
        rng = random.Random(31)
        for _ in range(60):
            m = rand_descriptor(rng)
            bound = m.lipschitz_bound()
            assert bound < 1
            for _ in range(5):
                x = F(rng.randrange(0, 65), 64)
                y = F(rng.randrange(0, 65), 64)
                assert abs(m(x) - m(y)) <= bound * abs(x - y)


def _generic_affine_preimages(m, y, domain):
    """The generic formula Affine.preimages keeps for non-rational input."""
    x = (y - m.b) / m.a
    return [x] if domain.lo <= x <= domain.hi else []


class TestAffineIntegerSolve:
    def test_matches_the_generic_formula(self):
        rng = random.Random(17)
        dens = [2**16, 3**7, 1000, 7 * 11 * 13]
        checked = hits = 0
        for _ in range(400):
            den = rng.choice(dens)
            a = F(rng.randrange(-(den - 1), den), den) * F(9, 10)
            if a == 0:
                continue
            margin = F(1, 100)
            b = margin - min(a, 0) + F(rng.randrange(den), den) * (
                1 - 2 * margin - abs(a)
            )
            m = Affine(a, b)
            ends = sorted(F(rng.randrange(den + 1), den) for _ in range(2))
            domains = [Interval(0, 1), Interval(F(0), F(1)), Interval(*ends)]
            for dom in domains:
                lo, hi = F(dom.lo), F(dom.hi)
                ys = [m(lo), m(hi), m((lo + hi) / 2)]
                ys += [F(rng.randrange(den + 1), den) for _ in range(4)]
                for y in ys:
                    got = m.preimages(y, dom)
                    assert got == _generic_affine_preimages(m, y, dom)
                    for x in got:
                        assert x.denominator > 0
                        assert hash(x) == hash(F(x.numerator, x.denominator))
                    checked += 1
                    hits += bool(got)
        assert checked > 4000 and hits > checked // 3

    def test_domain_ends_are_included(self):
        m = Affine(F(-1, 2), F(3, 4))
        dom = Interval(F(1, 4), F(1, 2))
        assert m.preimages(F(5, 8), dom) == [F(1, 4)]
        assert m.preimages(F(1, 2), dom) == [F(1, 2)]
        assert m.preimages(F(1, 2) - F(1, 2**80), dom) == []
        assert m.preimages(F(3, 4), Interval(0, 1)) == [F(0)]
        assert m.preimages(F(1, 4), Interval(0, 1)) == [F(1)]

    def test_zero_slope_keeps_the_generic_path(self):
        m = Affine(F(0), F(1, 3))
        assert m.preimages(F(1, 3), Interval(F(1, 2), F(1, 2))) == [F(1, 2)]
        assert m.preimages(F(1, 4), Interval(F(0), F(1))) == []
        with pytest.raises(NonDiscretePreimageError):
            m.preimages(F(1, 3), Interval(F(0), F(1)))
        int_zero = Affine(0, F(1, 3))
        with pytest.raises(NonDiscretePreimageError):
            int_zero.preimages(F(1, 3), Interval(0, 1))

    def test_other_inputs_keep_the_generic_path(self):
        m = Affine(F(1, 2), F(1, 4))
        dom = Interval(0, 1)
        assert m.preimages(F(1, 2), dom) == [F(1, 2)]
        # an int y, a float y and a float domain end
        assert m.preimages(1, dom) == []
        assert m.preimages(0.5, dom) == [0.5]
        assert m.preimages(F(1, 2), Interval(0.0, 0.5)) == [F(1, 2)]
        near = F(1, 4) - F(1, 10**15)
        assert m.preimages(near, dom) == []
        fm = Affine(0.5, 0.25)
        assert fm.preimages(F(1, 2), dom) == [0.5]

    def test_image_matches_the_generic_formula(self):
        rng = random.Random(23)
        for _ in range(200):
            a = F(rng.randrange(-900, 901), 1000)
            b = F(1, 100) - min(a, 0) + F(rng.randrange(1000), 1000) * (
                F(98, 100) - abs(a)
            )
            m = Affine(a, b)
            lo, hi = sorted(F(rng.randrange(2**16 + 1), 2**16) for _ in range(2))
            u, v = sorted((a * lo + b, a * hi + b))
            assert m.image(Interval(lo, hi)) == Interval(u, v)


class TestDegenerateShapes:
    def test_a_flat_quadratic_is_its_affine_map(self):
        # Quadratic(0, b, c) solves as Affine(b, c), the plateau b = 0 too
        rng = random.Random(35)
        plateaus = 0
        for i in range(200):
            if i % 4:
                aff = rand_affine(rng)
            else:
                aff = Affine(F(0), rand_fraction(rng, F(1, 100), F(99, 100)))
            quad = Quadratic(F(0), aff.a, aff.b)
            assert quad.fixed_point() == aff.fixed_point()
            lo, hi = sorted(rand_fraction(rng, F(0), F(1)) for _ in range(2))
            dom = Interval(lo, hi)
            ys = (aff(lo), aff(hi), aff((lo + hi) / 2), rand_fraction(rng, F(0), F(1)))
            for y in ys:
                try:
                    want = aff.preimages(y, dom)
                except NonDiscretePreimageError as exc:
                    plateaus += 1
                    with pytest.raises(NonDiscretePreimageError) as got:
                        quad.preimages(y, dom)
                    assert str(got.value) == str(exc)
                else:
                    assert quad.preimages(y, dom) == want
        assert plateaus >= 100

    def test_clamped_on_a_one_point_domain(self):
        # a point on a plateau is its own preimage there, with no plateau
        m = Clamped(Affine(F(2, 5), F(1, 10)), F(1, 4), F(3, 4))
        for x in (F(0), F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(7, 8), F(1)):
            dom = Interval(x, x)
            assert m.preimages(m(x), dom) == [x]
            assert m.preimages(m(x) + F(1, 1000), dom) == []
