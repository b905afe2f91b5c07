import math
import random
from fractions import Fraction as F

import pytest

from pcdyn import (
    Affine,
    Backend,
    Clamped,
    Composed,
    Identity,
    Interval,
    NonDiscretePreimageError,
    Quadratic,
    compose,
)
from _support import rand_descriptor

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

    def test_identity_absorbed(self):
        m = Affine(F(1, 2), F(1, 4))
        assert compose(m, Identity()) == m
        assert compose(Identity(), m) == m

    def test_matches_nested_eval(self):
        rng = random.Random(11)
        for _ in range(25):
            outer = rand_descriptor(rng)
            inner = rand_descriptor(rng)
            m = compose(outer, inner)
            for _ in range(5):
                x = F(rng.randrange(0, 101), 100)
                assert m(x) == outer(inner(x))


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
        rng = random.Random(23)
        for _ in range(10):
            m = rand_descriptor(rng)
            iv = Interval(F(1, 8), F(7, 8))
            img = m.image(iv)
            values = [
                m(iv.lo + (iv.hi - iv.lo) * F(i, 1000)) for i in range(1001)
            ]
            assert img.lo <= min(values) and max(values) <= img.hi
            # the extrema are attained at endpoints or clamp breakpoints
            candidates = {m(iv.lo), m(iv.hi)}
            candidates.update(
                m(b) for b in m._domain_breakpoints() if iv.lo < b < iv.hi
            )
            assert img.lo == min(candidates)
            assert img.hi == max(candidates)


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

    def test_clamped_plateau_fixed_point(self):
        # inner fixed point 1/2 sits above the clamp window [0, 2/5]
        m = Clamped(Affine(F(4, 5), F(1, 10)), F(0), F(2, 5))
        z = m.fixed_point()
        assert z == m(F(2, 5)) == F(21, 50)
        assert m(z) == z

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
        # an int y, a float y, a float domain end and the float backend
        assert m.preimages(1, dom) == []
        assert m.preimages(0.5, dom) == [0.5]
        assert m.preimages(F(1, 2), Interval(0.0, 0.5)) == [F(1, 2)]
        near = F(1, 4) - F(1, 10**15)
        assert m.preimages(near, dom) == []
        assert m.preimages(near, dom, Backend.floating()) != []
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
