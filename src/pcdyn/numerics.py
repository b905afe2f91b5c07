"""Scalar backends and interval-set algebra on the unit interval.

Two scalar backends are supported: exact rationals (``fractions.Fraction``,
with decidable comparisons) and binary floats paired with a global
comparison tolerance.  Sets are finite disjoint unions of closed
subintervals of [0, 1]; touching components are merged so connectivity and
component counts are meaningful.

The exact kernels below build Fractions from integers, solve rational
affine equations in integers, and search sorted exact points on their
floats, comparing exactly only where floats tie.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

Scalar = Union[Fraction, float, int]

DEFAULT_EPS_CMP = 1e-12


@dataclass(frozen=True)
class Backend:
    """Comparison semantics for scalars.

    The exact backend compares rationals exactly (``eps_cmp`` is zero);
    the float backend treats ``|a - b| <= eps_cmp`` as equality.
    """

    name: str
    eps_cmp: Scalar

    @staticmethod
    def exact() -> "Backend":
        return Backend("exact", Fraction(0))

    @staticmethod
    def floating(eps_cmp: float = DEFAULT_EPS_CMP) -> "Backend":
        if eps_cmp <= 0:
            raise ValueError("eps_cmp must be positive for the float backend")
        return Backend("float", eps_cmp)

    @property
    def is_exact(self) -> bool:
        return self.name == "exact"

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.is_exact else 0.0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.is_exact else 1.0

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return a == b if not self.eps_cmp else abs(a - b) <= self.eps_cmp

    def le(self, a: Scalar, b: Scalar) -> bool:
        return a <= b if not self.eps_cmp else a <= b + self.eps_cmp

    def lt(self, a: Scalar, b: Scalar) -> bool:
        return a < b if not self.eps_cmp else a < b - self.eps_cmp

    def number(self, text: str) -> Scalar:
        """Parse a scalar literal: ``p/q``, decimal, or exponent notation.

        Under the exact backend decimals parse exactly as rationals.
        """
        text = text.strip()
        if self.is_exact:
            return Fraction(text)
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)


EXACT = Backend.exact()


# --- exact kernels ----------------------------------------------------------
# On CPython, Fraction's generic operators (ABC isinstance checks, the
# parsing constructor, _richcmp) cost several times the integer arithmetic
# behind them, so hot exact loops build, compare and search through these
# helpers, which read Fraction internals.  The only other readers are the
# integer fast paths of Affine._eval and Clamped._eval in maps.py.


def _raw_fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den for den > 0, normalised without the slow
    parsing constructor."""
    g = math.gcd(num, den)
    f = object.__new__(Fraction)
    f._numerator = num // g
    f._denominator = den // g
    return f


def _ratio(x) -> Optional[tuple[int, int]]:
    """(numerator, denominator) for exact scalars, None otherwise."""
    if type(x) is Fraction:
        return int(x._numerator), int(x._denominator)
    if isinstance(x, int):
        return int(x), 1
    return None


def affine_solve(
    ints: tuple[int, int, int, int], y: Scalar, lo: Scalar, hi: Scalar
) -> Optional[list[Fraction]]:
    """The solutions of a*x + b = y with lo <= x <= hi, in integers.

    ``ints = (an, ad, bn, bd)`` gives a = an/ad != 0 and b = bn/bd.  The
    domain test is cross-multiplied, so a y outside the image of [lo, hi]
    builds no Fraction.  None when y is not a Fraction or an end is not
    rational: the caller then takes the generic path.
    """
    rlo, rhi = _ratio(lo), _ratio(hi)
    if type(y) is not Fraction or rlo is None or rhi is None:
        return None
    an, ad, bn, bd = ints
    yn, yd = y._numerator, y._denominator
    # x = (y - b)/a = (yn*bd - bn*yd)*ad / (yd*bd*an)
    num = (yn * bd - bn * yd) * ad
    den = yd * bd * an
    if den < 0:
        num, den = -num, -den
    (ln, ld), (hn, hd) = rlo, rhi
    if ln * den <= num * ld and num * hd <= hn * den:
        return [_raw_fraction(num, den)]
    return []


def _key(x: Scalar) -> float:
    """float(x): for a Fraction, the correctly rounded quotient of its
    integers (what ``float`` computes, without its generic dispatch)."""
    if type(x) is Fraction:
        return x._numerator / x._denominator
    return float(x)


def float_keys(points: Iterable[Scalar]) -> tuple[float, ...]:
    """The correctly rounded float of each point: the search keys of
    :func:`bisect_exact`."""
    return tuple(map(_key, points))


def unit_key(x: Scalar) -> float:
    """float(x), after checking exactly that x lies in [0, 1).

    Rounding to float is monotone, so 0 < float(x) < 1 implies 0 < x < 1;
    x itself is compared only when its float is not inside (0, 1).
    """
    try:
        fx = _key(x)
    except OverflowError:  # |x| beyond the float range
        fx = math.inf
    if not 0.0 < fx < 1.0:
        if type(x) is Fraction:
            inside = 0 <= x._numerator < x._denominator
        else:
            inside = 0 <= x < 1
        if not inside:
            raise ValueError(f"point {x} outside [0, 1)")
    return fx


def bisect_exact(
    points: Sequence[Scalar],
    keys: Sequence[float],
    x: Scalar,
    right: bool = False,
) -> int:
    """``bisect_left`` (``bisect_right`` if ``right``) of x in the sorted
    ``points``, searched on ``keys = float_keys(points)``.

    Rounding to float is monotone, so a point whose key is below float(x)
    lies below x and one whose key is above lies above; only the points
    whose key equals float(x) are compared exactly.  The result equals the
    plain bisect's for every x.
    """
    try:
        fx = _key(x)
    except OverflowError:  # |x| beyond the float range
        return (bisect_right if right else bisect_left)(points, x)
    lo = bisect_left(keys, fx)
    hi = bisect_right(keys, fx, lo)
    if lo == hi:
        return lo
    return (bisect_right if right else bisect_left)(points, x, lo, hi)


def format_scalar(x: Scalar) -> str:
    """Rationals as ``p/q`` (or ``p`` when integral), floats as shortest
    round-trip decimal."""
    return repr(x) if isinstance(x, float) else str(x)


@dataclass(frozen=True, order=True)
class Interval:
    """A closed subinterval of [0, 1]."""

    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is Fraction and type(hi) is Fraction:
            # the same test by integer cross-multiplication (denominators
            # are positive), skipping Fraction's generic comparisons
            ln, hn, hd = lo._numerator, hi._numerator, hi._denominator
            ok = 0 <= ln and ln * hd <= hn * lo._denominator and hn <= hd
        else:
            ok = 0 <= lo <= hi <= 1
        if not ok:
            raise ValueError(
                f"invalid interval [{self.lo}, {self.hi}]: "
                "need 0 <= lo <= hi <= 1"
            )

    @property
    def length(self) -> Scalar:
        return self.hi - self.lo

    def contains(self, x: Scalar, backend: Backend = EXACT) -> bool:
        return backend.le(self.lo, x) and backend.le(x, self.hi)

    def midpoint(self) -> Scalar:
        lo, hi = self.lo, self.hi
        if type(lo) is Fraction and type(hi) is Fraction:
            ld, hd = lo._denominator, hi._denominator
            return _raw_fraction(
                lo._numerator * hd + hi._numerator * ld, 2 * ld * hd
            )
        return (lo + hi) / 2


@dataclass(frozen=True)
class IntervalSet:
    """A finite disjoint union of closed intervals, sorted by left endpoint.

    Construct through :meth:`normalize`; the constructor trusts its input.
    """

    components: tuple[Interval, ...]

    @staticmethod
    def normalize(
        raw: Iterable[Interval], backend: Backend = EXACT
    ) -> "IntervalSet":
        """Sort, merge overlapping or touching intervals, drop nothing.

        The union of points is preserved; touching components ([a,b],[b,c])
        merge into one so component counts reflect connectivity.
        """
        items = sorted(raw)
        merged: list[list[Scalar]] = []
        for iv in items:
            if merged and backend.le(iv.lo, merged[-1][1]):
                if iv.hi > merged[-1][1]:
                    merged[-1][1] = iv.hi
            else:
                merged.append([iv.lo, iv.hi])
        return IntervalSet(tuple(Interval(lo, hi) for lo, hi in merged))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def unit(backend: Backend = EXACT) -> "IntervalSet":
        """The closed unit interval as a one-component set."""
        return IntervalSet((Interval(backend.zero, backend.one),))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.components)

    @property
    def is_empty(self) -> bool:
        return not self.components

    def measure(self) -> Scalar:
        """Lebesgue measure of the union."""
        total: Scalar = 0
        for iv in self.components:
            total += iv.length
        return total

    @cached_property
    def _los(self) -> tuple[Scalar, ...]:
        return tuple(iv.lo for iv in self.components)

    @cached_property
    def _lo_keys(self) -> tuple[float, ...]:
        return float_keys(self._los)

    def contains(self, x: Scalar, backend: Backend = EXACT) -> bool:
        """Closed-interval membership in some component."""
        i = bisect_exact(self._los, self._lo_keys, x, right=True)
        if i and self.components[i - 1].contains(x, backend):
            return True
        # tolerance can put x just left of a component's lo
        return i < len(self.components) and self.components[i].contains(
            x, backend
        )

    def hull(self) -> Interval:
        """Smallest closed interval containing the set."""
        if self.is_empty:
            raise ValueError("hull of an empty set")
        return Interval(self.components[0].lo, self.components[-1].hi)

    def contains_set(self, other: "IntervalSet", backend: Backend = EXACT) -> bool:
        """True iff every component of ``other`` lies inside a component."""
        los, keys = self._los, self._lo_keys
        for iv in other.components:
            i = bisect_exact(los, keys, iv.lo, right=True)
            ok = False
            for j in (i - 1, i):
                if 0 <= j < len(self.components):
                    c = self.components[j]
                    if backend.le(c.lo, iv.lo) and backend.le(iv.hi, c.hi):
                        ok = True
                        break
            if not ok:
                return False
        return True
