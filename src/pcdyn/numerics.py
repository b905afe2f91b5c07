"""Scalar backends and interval-set algebra on the unit interval.

Two scalar backends are supported: exact rationals (``fractions.Fraction``,
with decidable comparisons) and binary floats paired with a global
comparison tolerance.  Sets are finite disjoint unions of closed
subintervals of [0, 1]; touching components are merged so connectivity and
component counts are meaningful.

The exact kernels below build Fractions from integers, sort reduced
integer pairs, and search sorted exact points: one function,
:func:`find_pair`, bisects the points' floats and compares exactly, in
integers, only where the floats tie.  The backward walks' preimage step
(``pcmap._level_preimages``) needs no search: it tests each level point
against a branch's image by the same rule, floats first and integers only
on a tie.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

Scalar = Union[Fraction, float, int]

DEFAULT_EPS_CMP = 1e-12

# an integer or p/q with q nonzero, in ASCII digits and signed only in
# front: Fraction reads such a literal as int(p)/int(q), and so does
# Backend.number, without its parser; every other literal goes to Fraction
_INT_RATIO = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


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
        if not 0 < eps_cmp < math.inf:
            raise ValueError(
                "eps_cmp must be finite and positive for the float backend"
            )
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

    def number(self, text: str) -> Scalar:
        """Parse a scalar literal: ``p/q``, decimal, or exponent notation.

        Under the exact backend decimals parse exactly as rationals.
        """
        text = text.strip()
        if self.is_exact:
            if m := _INT_RATIO.fullmatch(text):
                return _raw_fraction(int(m[1]), int(m[2] or 1))
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
# helpers, which read Fraction internals.  The only other readers are
# Affine._eval (maps.py); pcmap.py's forward steps, PiecewiseContraction.
# __call__ and _step (for _walk and orbit), which evaluate a branch from
# the integer form of its map on its own domain, kept per branch in
# PiecewiseContraction._domains (a rational Affine, a zero slope included,
# or a clamped one whose window holds the domain, as its inner map), and
# build the result Fraction in place, in lowest terms; build_partition
# (quasipartition.py), which filters the cut points and takes a branch's
# image ends from the interval ends' integers; and _intercept_range
# (sampling.py).  is_generic (pcmap.py) and preimage_set
# (quasipartition.py) hold their points as reduced integer pairs and cross
# to and from Fractions only through _ratio, _raw_fraction and
# _lowest_terms; _level_preimages (pcmap.py) solves their levels
# unsorted, each point against the image ends that _domains keeps for a
# branch with a nonzero slope.
#
# A gcd against a power of two is the numerator's lowest set bit.  The
# forward steps take that shortcut when D, flagged in the form, and x_d
# are both powers of two (every grid-drawn map and point), so their
# product D*x_d is one: the branch maps [0, 1] into (0, 1) and
# 0 <= x < 1, so 0 < num < den, the low bit is below den, and a shift
# reduces both.  _raw_fraction and Affine._eval keep math.gcd: their
# callers also pass zero numerators and integer results, which need the
# general case, and on the sampler's 32-bit dyadic pairs gcd costs about
# as much as the bit test, which callers with other denominators would
# pay for nothing.


def _raw_fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den for den > 0, normalised without the slow
    parsing constructor."""
    g = math.gcd(num, den)
    f = object.__new__(Fraction)
    f._numerator = num // g
    f._denominator = den // g
    return f


def _lowest_terms(num: int, den: int) -> Fraction:
    """The Fraction num/den for a pair already in lowest terms, den > 0:
    :func:`_raw_fraction` without its gcd, which is 1 here."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def _ratio(x) -> Optional[tuple[int, int]]:
    """(numerator, denominator) for exact scalars, None otherwise."""
    if type(x) is Fraction:
        return int(x._numerator), int(x._denominator)
    if isinstance(x, int):
        return int(x), 1
    return None


# --- reduced integer pairs -------------------------------------------------
# The backward walks hold their points as reduced (num, den) pairs, den > 0:
# a set of int tuples hashes without Fraction's modular inverse.


def sort_pairs(pairs) -> tuple[list, list]:
    """The distinct reduced pairs ascending by value, and their float keys.

    Rounding is monotone, so sorting the keys sorts the pairs; only pairs
    whose keys are equal are then compared exactly.
    """
    by_key = {n / d: (n, d) for n, d in pairs}
    if len(by_key) == len(pairs):
        keys = sorted(by_key)
        return [by_key[k] for k in keys], keys
    level = sorted(pairs, key=lambda p: (p[0] / p[1], _raw_fraction(*p)))
    return level, [n / d for n, d in level]


def _key(x: Scalar) -> float:
    """float(x), or +-inf for an x beyond the float range; for a Fraction,
    the correctly rounded quotient of its integers (what ``float``
    computes, without its generic dispatch)."""
    try:
        if type(x) is Fraction:
            return x._numerator / x._denominator
        return float(x)
    except OverflowError:  # |x| beyond the float range
        return math.inf if x > 0 else -math.inf


def float_keys(points: Iterable[Scalar]) -> tuple[float, ...]:
    """The key of each point: the search keys of :func:`find_exact`."""
    return tuple(map(_key, points))


def unit_key(x: Scalar) -> float:
    """The key of x, after checking exactly that x lies in [0, 1).

    Rounding to float is monotone, so 0 < float(x) < 1 implies 0 < x < 1;
    x itself is compared only when its float is not inside (0, 1).
    """
    fx = _key(x)
    if not 0.0 < fx < 1.0:
        if type(x) is Fraction:
            inside = 0 <= x._numerator < x._denominator
        else:
            inside = 0 <= x < 1
        if not inside:
            raise ValueError(f"point {x} outside [0, 1)")
    return fx


def find_exact(
    points: Sequence[Scalar], keys: Sequence[float], x: Scalar, fx: float
) -> tuple[int, bool]:
    """``(bisect_left(points, x), x in points)`` for strictly increasing
    ``points``, searched on ``keys = float_keys(points)`` with
    ``fx = _key(x)``.

    Off the points' keys the bisect of fx decides.  On a tie,
    :func:`find_pair` searches x's exact integer ratio (a float's from
    ``as_integer_ratio``).
    """
    lo = bisect_left(keys, fx)
    if lo == len(keys) or keys[lo] != fx:
        return lo, False
    n, d = _ratio(x) or x.as_integer_ratio()
    return find_pair(points, keys, n, d, fx)


def find_pair(
    points: Sequence[Scalar], keys: Sequence[float], n: int, d: int, fx: float
) -> tuple[int, bool]:
    """:func:`find_exact` for x = n/d, given as integers with d > 0 that
    need not be reduced, and its key ``fx`` (``n / d``, which integer true
    division rounds correctly, or ``_key`` of x).

    Rounding to float is monotone, so a point whose key is below fx lies
    below x and one whose key is above lies above; only the points whose
    key equals fx are compared, by integer cross-multiplication: every
    point is a Fraction, an int or a finite float, and each has an exact
    integer ratio with a positive denominator.
    """
    lo = bisect_left(keys, fx)
    if lo == len(keys) or keys[lo] != fx:
        return lo, False
    hi = bisect_right(keys, fx, lo)
    while lo < hi:
        mid = (lo + hi) // 2
        p = points[mid]
        if type(p) is Fraction:
            pn, pd = p._numerator, p._denominator
        else:
            pn, pd = p.as_integer_ratio()
        c = pn * d - n * pd
        if c < 0:
            lo = mid + 1
        elif c > 0:
            hi = mid
        else:
            return mid, True
    return lo, False


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


class IntervalSet:
    """A finite disjoint union of closed intervals, sorted by left endpoint.

    Construct through :meth:`normalize`; the constructor trusts its input.
    A set from :meth:`_from_runs` holds ascending (lo, hi) integer numerator
    pairs over one common denominator q instead, q > 0 and not necessarily
    in lowest terms: it answers ``len``, ``measure`` and ``contains_set``
    against another such set in integers, and builds its components once,
    on their first read, each endpoint reduced.
    """

    _runs: Optional[list[tuple[int, int]]] = None

    def __init__(self, components: tuple[Interval, ...]):
        self.components = components

    @staticmethod
    def _from_runs(runs: list[tuple[int, int]], q: int) -> "IntervalSet":
        s = object.__new__(IntervalSet)
        s._runs, s._q = runs, q
        return s

    @cached_property
    def components(self) -> tuple[Interval, ...]:
        runs, q = self._runs, self._q
        self._runs = None  # one representation once the Intervals exist
        return tuple(
            Interval(_raw_fraction(lo, q), _raw_fraction(hi, q))
            for lo, hi in runs
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return f"IntervalSet(components={self.components!r})"

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
        return len(self.components if self._runs is None else self._runs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.components)

    @property
    def is_empty(self) -> bool:
        return not len(self)

    def measure(self) -> Scalar:
        """Lebesgue measure of the union: integer runs are summed over
        their common denominator, components by their lengths."""
        if self._runs is not None:
            return _raw_fraction(sum(hi - lo for lo, hi in self._runs), self._q)
        return sum(iv.length for iv in self.components)

    @cached_property
    def _los(self) -> tuple[Scalar, ...]:
        return tuple(iv.lo for iv in self.components)

    @cached_property
    def _lo_keys(self) -> tuple[float, ...]:
        return float_keys(self._los)

    def contains(self, x: Scalar, backend: Backend = EXACT) -> bool:
        """Closed-interval membership in some component."""
        i, hit = find_exact(self._los, self._lo_keys, x, _key(x))
        i += hit
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

    def contains_set(self, other: "IntervalSet") -> bool:
        """True iff every component of ``other`` lies inside a component.

        Two integer-backed sets are walked together in integers, each
        scaled to the lcm of the two denominators.
        """
        outer, inner = self._runs, other._runs
        if outer is not None and inner is not None:
            g = math.gcd(self._q, other._q)
            up_outer, up_inner = other._q // g, self._q // g
            j, m = 0, len(outer)
            for lo, hi in inner:
                lo, hi = lo * up_inner, hi * up_inner
                while j < m and outer[j][1] * up_outer < lo:
                    j += 1
                if (j == m or outer[j][0] * up_outer > lo
                        or outer[j][1] * up_outer < hi):
                    return False
            return True
        los, keys = self._los, self._lo_keys
        for iv in other.components:
            i, hit = find_exact(los, keys, iv.lo, _key(iv.lo))
            i += hit
            ok = False
            for j in (i - 1, i):
                if 0 <= j < len(self.components):
                    c = self.components[j]
                    if c.lo <= iv.lo and iv.hi <= c.hi:
                        ok = True
                        break
            if not ok:
                return False
        return True
