"""Contraction map descriptors on the unit interval.

The descriptor universe is deliberately closed: affine maps, monotone
quadratics, clamped (plateau) variants, and compositions.  Every descriptor
is monotone and continuous on [0, 1], so an interval's image runs between
the values at its ends; the invariant partition's straddle test relies on
this (:func:`pcdyn.quasipartition.build_partition`).  Images and pointwise
preimages are exact under the rational backend.  Arbitrary callables would
poison that exactness and are not supported.

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

from .errors import NonDiscretePreimageError
from .numerics import (
    Interval,
    Scalar,
    _key,
    _ratio,
    _raw_fraction,
)

DEFAULT_EPS_FP = 1e-13


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
        return self._slope_bound_on(0, 1)

    def image(self, iv: Interval) -> Interval:
        """Exact image of a closed interval: between the end values."""
        u = self._eval(iv.lo)
        v = self._eval(iv.hi)
        return Interval(u, v) if u <= v else Interval(v, u)

    def preimages(self, y: Scalar, domain: Interval) -> list[Scalar]:
        """All solutions of m(x) = y inside ``domain``, ascending, compared
        exactly.

        Raises NonDiscretePreimageError when a plateau attains ``y`` over a
        nondegenerate part of the domain.  A quadratic solve whose
        discriminant is not a perfect rational square falls back to
        floating point; the fallback is flagged by returning floats
        instead of Fractions.
        """
        raise NotImplementedError

    def fixed_point(self, eps_fp: float = DEFAULT_EPS_FP) -> Scalar:
        """The unique z in (0, 1) with m(z) = z.

        Exact (closed form) for affine and affine-reducible descriptors.
        Otherwise regula falsi with the Illinois rule on g(z) = m(z) - z in
        floats over the bracket [0, 1], where g falls from g(0) > 0 to
        g(1) < 0: an end kept twice in a row has its g halved.  It stops at
        |float(m(z)) - z| <= ``eps_fp`` or once z is not strictly inside
        the bracket, and returns m(z), so a plateau value stays exact.
        """
        lo, hi = 0.0, 1.0
        glo, ghi = _key(self._eval(lo)) - lo, _key(self._eval(hi)) - hi
        side = 0  # 1 after z replaced lo, -1 after it replaced hi
        while True:
            z = lo - glo * (hi - lo) / (ghi - glo)
            mz = self._eval(z)
            gz = _key(mz) - z
            if abs(gz) <= eps_fp or not lo < z < hi:
                return mz
            if gz > 0:
                lo, glo, ghi = z, gz, ghi / 2 if side == 1 else ghi
                side = 1
            else:
                hi, ghi, glo = z, gz, glo / 2 if side == -1 else glo
                side = -1

    # --- internals used by the joint-slope certification -----------------

    def _slope_bound_on(self, lo: Scalar, hi: Scalar) -> Scalar:
        """Sup bound of |m'| over [lo, hi] (plateaus contribute 0)."""
        raise NotImplementedError

    def _domain_breakpoints(self) -> tuple[Scalar, ...]:
        """Domain points where the piecewise-slope structure changes."""
        return ()


@dataclass(frozen=True)
class Affine(MapDescriptor):
    """x -> a*x + b with |a| < 1 and both endpoint values in (0, 1)."""

    a: Scalar
    b: Scalar

    def __post_init__(self):
        ra, rb = _ratio(self.a), _ratio(self.b)
        ints = None
        if ra and rb:  # the integer form: a = A/D, b = B/D, D = lcm(ad, bd)
            (an, ad), (bn, bd) = ra, rb
            D = ad // math.gcd(ad, bd) * bd
            ints = A, B, D = an * (D // ad), bn * (D // bd), D
        object.__setattr__(self, "_ints", ints)
        # |a| < 1, 0 < b < 1 and 0 < a + b < 1 over D; a failure raises below
        if ints is not None and -D < A < D and 0 < B < D and 0 < A + B < D:
            return
        if not abs(self.a) < 1:
            raise ValueError(f"Lipschitz bound >= 1: |a| = {abs(self.a)}")
        for v in (self.b, self.a + self.b):
            if not 0 < v < 1:
                raise ValueError(
                    f"image of [0, 1] leaves (0, 1): endpoint value {v}"
                )

    @staticmethod
    def _from_ints(A: int, B: int, D: int) -> "Affine":
        """The map x -> (A*x + B)/D, known valid: no checks, no parsing."""
        g = math.gcd(A, B, D)
        A, B, D = A // g, B // g, D // g
        m = object.__new__(Affine)
        m.__dict__.update(
            a=_raw_fraction(A, D), b=_raw_fraction(B, D), _ints=(A, B, D)
        )
        return m

    def _eval(self, x: Scalar) -> Scalar:
        ints = self._ints
        if ints is not None and type(x) is Fraction:
            A, B, D = ints
            xd = x._denominator
            return _raw_fraction(A * x._numerator + B * xd, D * xd)
        return self.a * x + self.b

    def preimages(self, y, domain):
        if self.a == 0:
            if y == self.b:
                if domain.lo == domain.hi:
                    return [domain.lo]
                raise NonDiscretePreimageError(domain.lo, domain.hi, y)
            return []
        x = (y - self.b) / self.a
        if domain.lo <= x <= domain.hi:
            return [x]
        return []

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP):
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

    def preimages(self, y, domain):
        if self.a == 0:
            return Affine(self.b, self.c).preimages(y, domain)
        disc = self.b * self.b - 4 * self.a * (self.c - y)
        if disc < 0:
            return []
        root = _exact_sqrt(disc) if isinstance(disc, Fraction) else None
        if root is None:  # inexact fallback, flagged by type
            root = math.sqrt(disc)
        sols = sorted(
            {(-self.b - root) / (2 * self.a), (-self.b + root) / (2 * self.a)}
        )
        return [x for x in sols if domain.lo <= x <= domain.hi]

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP):
        if self.a == 0:
            return Affine(self.b, self.c).fixed_point(eps_fp)
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
        return super().fixed_point(eps_fp)

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

    @cached_property
    def _vlo(self) -> Scalar:
        return self.inner._eval(self.lo)

    @cached_property
    def _vhi(self) -> Scalar:
        return self.inner._eval(self.hi)

    def _eval(self, x: Scalar) -> Scalar:
        if x <= self.lo:
            return self._vlo
        if x >= self.hi:
            return self._vhi
        return self.inner._eval(x)

    def preimages(self, y, domain):
        if domain.lo == domain.hi:
            return [domain.lo] if self._eval(domain.lo) == y else []
        found: set[Scalar] = set()
        mid_lo = max(domain.lo, self.lo)
        mid_hi = min(domain.hi, self.hi)
        if mid_lo <= mid_hi:
            found.update(self.inner.preimages(y, Interval(mid_lo, mid_hi)))
        if self.lo > 0 and domain.lo < self.lo and y == self._vlo:
            raise NonDiscretePreimageError(domain.lo, min(domain.hi, self.lo), y)
        if self.hi < 1 and domain.hi > self.hi and y == self._vhi:
            raise NonDiscretePreimageError(max(domain.lo, self.hi), domain.hi, y)
        return sorted(found)

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP):
        z = self.inner.fixed_point(eps_fp)
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

    def preimages(self, y, domain):
        first, rest = self.chain[0], self.chain[1:]
        if not rest:
            return first.preimages(y, domain)
        tail = Composed(rest)
        mids = tail.preimages(y, first.image(domain))
        found: set[Scalar] = set()
        for w in mids:
            found.update(first.preimages(w, domain))
        return sorted(found)

    def fixed_point(self, eps_fp=DEFAULT_EPS_FP):
        if len(self.chain) == 1:
            return self.chain[0].fixed_point(eps_fp)
        return super().fixed_point(eps_fp)

    def _slope_bound_on(self, lo, hi):
        bound: Scalar = 1
        iv = Interval(lo, hi)
        for m in self.chain:
            bound = bound * m._slope_bound_on(iv.lo, iv.hi)
            iv = m.image(iv)
        return bound

    def _domain_breakpoints(self):
        """Each link's points, pulled back through the links before it.
        Only exact points are kept: a point met by a plateau or an
        irrational root is dropped, since any grid gives a sound bound."""
        pts: tuple = ()
        unit = Interval(0, 1)
        for m in reversed(self.chain):
            back = []
            for p in pts:
                try:
                    back += m.preimages(p, unit)
                except NonDiscretePreimageError:
                    pass
            pts = m._domain_breakpoints() + tuple(
                x for x in back if not isinstance(x, float)
            )
        return pts


def compose(outer: MapDescriptor, inner: MapDescriptor) -> MapDescriptor:
    """The map x -> outer(inner(x)).

    Affine pairs simplify symbolically; chains flatten.
    """
    parts: list[MapDescriptor] = []
    for m in (inner, outer):
        parts.extend(m.chain if isinstance(m, Composed) else (m,))
    merged: list[MapDescriptor] = []
    for m in parts:
        prev = merged[-1] if merged else None
        if isinstance(prev, Affine) and isinstance(m, Affine):
            if prev._ints is not None and m._ints is not None:
                (A1, B1, D1), (A2, B2, D2) = prev._ints, m._ints
                merged[-1] = Affine._from_ints(
                    A2 * A1, A2 * B1 + B2 * D1, D2 * D1
                )
            else:
                merged[-1] = Affine(m.a * prev.a, m.a * prev.b + m.b)
        else:
            merged.append(m)
    if len(merged) == 1:
        return merged[0]
    return Composed(tuple(merged))
