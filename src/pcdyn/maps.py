"""Contraction map descriptors on the unit interval.

The descriptor universe is deliberately closed: affine maps, monotone
quadratics, clamped (plateau) variants, and compositions.  Every descriptor
is piecewise monotone with computable breakpoints, which makes interval
images and pointwise preimages exact under the rational backend.  Arbitrary
callables would poison that exactness and are not supported.

Every valid descriptor maps [0, 1] into (0, 1) with Lipschitz constant
strictly below 1; both are checked at construction from monotone-piece
endpoint values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import IterationCapError, NonDiscretePreimageError
from .numerics import (
    EXACT,
    Backend,
    Interval,
    Scalar,
    _ratio,
    _raw_fraction,
    affine_solve,
)

DEFAULT_EPS_FP = 1e-13
DEFAULT_FP_CAP = 10**6


def _exact_sqrt(x: Fraction) -> Optional[Fraction]:
    """Square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class MapDescriptor:
    """Base class: a Lipschitz contraction of [0, 1] into (0, 1)."""

    def __call__(self, x: Scalar) -> Scalar:
        if not 0 <= x <= 1:
            raise ValueError(f"map evaluated outside [0, 1]: {x}")
        return self._eval(x)

    def _eval(self, x: Scalar) -> Scalar:
        raise NotImplementedError

    def lipschitz_bound(self) -> Scalar:
        """A certified upper bound for |m(x)-m(y)|/|x-y| on [0, 1]."""
        raise NotImplementedError

    def image(self, iv: Interval) -> Interval:
        """Exact image of a closed interval."""
        raise NotImplementedError

    def preimages(
        self, y: Scalar, domain: Interval, backend: Backend = EXACT
    ) -> list[Scalar]:
        """All solutions of m(x) = y inside ``domain``, ascending.

        Raises NonDiscretePreimageError when a plateau attains ``y`` over a
        nondegenerate part of the domain.  Under the exact backend a
        quadratic solve whose discriminant is not a perfect rational square
        falls back to floating point; the fallback is flagged by returning
        floats instead of Fractions.
        """
        raise NotImplementedError

    def fixed_point(
        self, eps_fp: float = DEFAULT_EPS_FP, cap: int = DEFAULT_FP_CAP
    ) -> Scalar:
        """The unique z in (0, 1) with m(z) = z.

        Exact (closed form) for affine and affine-reducible descriptors;
        otherwise contraction iteration from 1/2, run in floating point,
        until successive iterates differ by at most ``eps_fp``.
        """
        z = 0.5
        for _ in range(cap):
            nz = self._eval(z)
            if abs(nz - z) <= eps_fp:
                return nz
            z = nz
        raise IterationCapError(
            f"fixed-point iteration did not settle within {cap} steps"
        )

    # --- internals used by the joint-slope certification -----------------

    def _slope_bound_on(self, lo: Scalar, hi: Scalar) -> Scalar:
        """Sup bound of |m'| over [lo, hi] (plateaus contribute 0)."""
        raise NotImplementedError

    def _domain_breakpoints(self) -> tuple[Scalar, ...]:
        """Domain points where the piecewise-slope structure changes."""
        return ()


@dataclass(frozen=True)
class Identity(MapDescriptor):
    """Composition seed only: not a contraction, bypasses validation."""

    def _eval(self, x: Scalar) -> Scalar:
        return x

    def lipschitz_bound(self) -> Scalar:
        return 1

    def image(self, iv: Interval) -> Interval:
        return iv

    def preimages(self, y, domain, backend=EXACT):
        if domain.contains(y, backend):
            return [y]
        return []

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP, cap=DEFAULT_FP_CAP):
        raise ValueError("identity has no unique fixed point")

    def _slope_bound_on(self, lo, hi):
        return 1


@dataclass(frozen=True)
class Affine(MapDescriptor):
    """x -> a*x + b with |a| < 1 and both endpoint values in (0, 1)."""

    a: Scalar
    b: Scalar

    def __post_init__(self):
        if not abs(self.a) < 1:
            raise ValueError(f"Lipschitz bound >= 1: |a| = {abs(self.a)}")
        for v in (self.b, self.a + self.b):
            if not 0 < v < 1:
                raise ValueError(
                    f"image of [0, 1] leaves (0, 1): endpoint value {v}"
                )
        ra, rb = _ratio(self.a), _ratio(self.b)
        object.__setattr__(
            self, "_ints", (ra + rb) if ra and rb else None
        )

    def _eval(self, x: Scalar) -> Scalar:
        ints = self._ints
        if ints is not None and type(x) is Fraction:
            an, ad, bn, bd = ints
            xn, xd = x._numerator, x._denominator
            den = ad * xd
            return _raw_fraction(an * xn * bd + bn * den, den * bd)
        return self.a * x + self.b

    def lipschitz_bound(self) -> Scalar:
        return abs(self.a)

    def image(self, iv: Interval) -> Interval:
        u = self._eval(iv.lo)
        v = self._eval(iv.hi)
        return Interval(u, v) if u <= v else Interval(v, u)

    def preimages(self, y, domain, backend=EXACT):
        ints = self._ints
        if ints is not None and ints[0] and not backend.eps_cmp:
            found = affine_solve(ints, y, domain.lo, domain.hi)
            if found is not None:
                return found
        if self.a == 0:
            if backend.eq(y, self.b):
                if domain.lo == domain.hi:
                    return [domain.lo]
                raise NonDiscretePreimageError(domain.lo, domain.hi, y)
            return []
        x = (y - self.b) / self.a
        if backend.le(domain.lo, x) and backend.le(x, domain.hi):
            return [x]
        return []

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP, cap=DEFAULT_FP_CAP):
        return self.b / (1 - self.a)

    def _slope_bound_on(self, lo, hi):
        return abs(self.a)


@dataclass(frozen=True)
class Quadratic(MapDescriptor):
    """x -> a*x^2 + b*x + c, monotone on [0, 1].

    Monotonicity requires the derivative 2a*x + b to keep one sign there,
    i.e. b and 2a + b share a sign (or one vanishes).
    """

    a: Scalar
    b: Scalar
    c: Scalar

    def __post_init__(self):
        d0, d1 = self.b, 2 * self.a + self.b
        if d0 * d1 < 0:
            raise ValueError(
                f"quadratic not monotone on [0, 1]: derivative signs {d0}, {d1}"
            )
        if not max(abs(d0), abs(d1)) < 1:
            raise ValueError(
                f"Lipschitz bound >= 1: max(|b|, |2a+b|) = {max(abs(d0), abs(d1))}"
            )
        for v in (self.c, self.a + self.b + self.c):
            if not 0 < v < 1:
                raise ValueError(
                    f"image of [0, 1] leaves (0, 1): endpoint value {v}"
                )

    def _eval(self, x: Scalar) -> Scalar:
        return (self.a * x + self.b) * x + self.c

    def lipschitz_bound(self) -> Scalar:
        return max(abs(self.b), abs(2 * self.a + self.b))

    def image(self, iv: Interval) -> Interval:
        u = self._eval(iv.lo)
        v = self._eval(iv.hi)
        return Interval(u, v) if u <= v else Interval(v, u)

    def preimages(self, y, domain, backend=EXACT):
        if self.a == 0:
            return Affine(self.b, self.c).preimages(y, domain, backend)
        disc = self.b * self.b - 4 * self.a * (self.c - y)
        if disc < 0:
            return []
        if isinstance(disc, Fraction):
            root = _exact_sqrt(disc)
            if root is None:
                root = math.sqrt(float(disc))  # inexact fallback, flagged by type
        else:
            root = math.sqrt(disc)
        sols = sorted(
            {(-self.b - root) / (2 * self.a), (-self.b + root) / (2 * self.a)}
        )
        return [
            x
            for x in sols
            if backend.le(domain.lo, x) and backend.le(x, domain.hi)
        ]

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP, cap=DEFAULT_FP_CAP):
        if self.a == 0:
            return Affine(self.b, self.c).fixed_point(eps_fp, cap)
        # m(z) = z is a quadratic with exactly one root in (0, 1); solve it
        # in closed form when the discriminant is a rational square.
        disc = (self.b - 1) ** 2 - 4 * self.a * self.c
        if isinstance(disc, Fraction):
            root = _exact_sqrt(disc)
            if root is not None:
                for z in ((1 - self.b - root) / (2 * self.a),
                          (1 - self.b + root) / (2 * self.a)):
                    if 0 < z < 1:
                        return z
        return super().fixed_point(eps_fp, cap)

    def _slope_bound_on(self, lo, hi):
        return max(abs(2 * self.a * lo + self.b), abs(2 * self.a * hi + self.b))


@dataclass(frozen=True)
class Clamped(MapDescriptor):
    """Equals ``inner`` on [lo, hi], constant inner(lo) on [0, lo] and
    constant inner(hi) on [hi, 1]."""

    inner: MapDescriptor
    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        if not 0 <= self.lo < self.hi <= 1:
            raise ValueError(
                f"clamp window invalid: need 0 <= lo < hi <= 1, "
                f"got [{self.lo}, {self.hi}]"
            )
        rlo, rhi = _ratio(self.lo), _ratio(self.hi)
        object.__setattr__(
            self, "_window_ints", (rlo + rhi) if rlo and rhi else None
        )

    @cached_property
    def _vlo(self) -> Scalar:
        return self.inner._eval(self.lo)

    @cached_property
    def _vhi(self) -> Scalar:
        return self.inner._eval(self.hi)

    def _eval(self, x: Scalar) -> Scalar:
        ints = self._window_ints
        if ints is not None and type(x) is Fraction:
            ln, ld, hn, hd = ints
            xn, xd = x._numerator, x._denominator
            if xn * ld <= ln * xd:
                return self._vlo
            if xn * hd >= hn * xd:
                return self._vhi
            return self.inner._eval(x)
        if x <= self.lo:
            return self._vlo
        if x >= self.hi:
            return self._vhi
        return self.inner._eval(x)

    def lipschitz_bound(self) -> Scalar:
        return self.inner.lipschitz_bound()

    def image(self, iv: Interval) -> Interval:
        values = [self._eval(iv.lo), self._eval(iv.hi)]
        mid_lo = max(iv.lo, self.lo)
        mid_hi = min(iv.hi, self.hi)
        if mid_lo < mid_hi:
            inner_img = self.inner.image(Interval(mid_lo, mid_hi))
            values.extend((inner_img.lo, inner_img.hi))
        return Interval(min(values), max(values))

    def preimages(self, y, domain, backend=EXACT):
        if domain.lo == domain.hi:
            return [domain.lo] if backend.eq(self._eval(domain.lo), y) else []
        found: set[Scalar] = set()
        mid_lo = max(domain.lo, self.lo)
        mid_hi = min(domain.hi, self.hi)
        if mid_lo <= mid_hi:
            found.update(
                self.inner.preimages(y, Interval(mid_lo, mid_hi), backend)
            )
        if self.lo > 0 and domain.lo < self.lo and backend.eq(y, self._vlo):
            raise NonDiscretePreimageError(domain.lo, min(domain.hi, self.lo), y)
        if self.hi < 1 and domain.hi > self.hi and backend.eq(y, self._vhi):
            raise NonDiscretePreimageError(max(domain.lo, self.hi), domain.hi, y)
        return sorted(found)

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP, cap=DEFAULT_FP_CAP):
        z = self.inner.fixed_point(eps_fp, cap)
        if self.lo <= z <= self.hi:
            return z
        # the inner fixed point sits in a plateau region, where the clamped
        # map is constant; that constant is the fixed point
        return self._vlo if z < self.lo else self._vhi

    def _slope_bound_on(self, lo, hi):
        mid_lo = max(lo, self.lo)
        mid_hi = min(hi, self.hi)
        if mid_lo >= mid_hi:
            return 0
        return self.inner._slope_bound_on(mid_lo, mid_hi)

    def _domain_breakpoints(self):
        return (self.lo, self.hi) + self.inner._domain_breakpoints()


@dataclass(frozen=True)
class Composed(MapDescriptor):
    """A chain of descriptors applied first-to-last (chain[0] acts first)."""

    chain: tuple[MapDescriptor, ...]

    def __post_init__(self):
        if not self.chain:
            raise ValueError("composition chain must be non-empty")

    def _eval(self, x: Scalar) -> Scalar:
        for m in self.chain:
            x = m._eval(x)
        return x

    def lipschitz_bound(self) -> Scalar:
        bound: Scalar = 1
        for m in self.chain:
            bound = bound * m.lipschitz_bound()
        return bound

    def image(self, iv: Interval) -> Interval:
        for m in self.chain:
            iv = m.image(iv)
        return iv

    def preimages(self, y, domain, backend=EXACT):
        first, rest = self.chain[0], self.chain[1:]
        if not rest:
            return first.preimages(y, domain, backend)
        tail = Composed(rest)
        mids = tail.preimages(y, first.image(domain), backend)
        found: set[Scalar] = set()
        for w in mids:
            found.update(first.preimages(w, domain, backend))
        return sorted(found)

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP, cap=DEFAULT_FP_CAP):
        if len(self.chain) == 1:
            return self.chain[0].fixed_point(eps_fp, cap)
        return super().fixed_point(eps_fp, cap)

    def _slope_bound_on(self, lo, hi):
        bound: Scalar = 1
        iv = Interval(lo, hi)
        for m in self.chain:
            bound = bound * m._slope_bound_on(iv.lo, iv.hi)
            iv = m.image(iv)
        return bound

    def _domain_breakpoints(self):
        return self.chain[0]._domain_breakpoints()


def compose(outer: MapDescriptor, inner: MapDescriptor) -> MapDescriptor:
    """The map x -> outer(inner(x)).

    Affine pairs simplify symbolically; chains flatten.  An Identity on
    either side is absorbed.
    """
    if isinstance(outer, Identity):
        return inner
    if isinstance(inner, Identity):
        return outer
    parts: list[MapDescriptor] = []
    for m in (inner, outer):
        parts.extend(m.chain if isinstance(m, Composed) else (m,))
    merged: list[MapDescriptor] = []
    for m in parts:
        if merged and isinstance(merged[-1], Affine) and isinstance(m, Affine):
            prev = merged[-1]
            merged[-1] = Affine(m.a * prev.a, m.a * prev.b + m.b)
        else:
            merged.append(m)
    if len(merged) == 1:
        return merged[0]
    return Composed(tuple(merged))
