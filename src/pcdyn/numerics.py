"""Scalar backends and interval-set algebra on the unit interval.

Two scalar backends are supported: exact rationals (``fractions.Fraction``,
with decidable comparisons) and binary floats paired with a global
comparison tolerance.  Sets are finite disjoint unions of closed
subintervals of [0, 1]; touching components are merged so connectivity and
component counts are meaningful.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

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
        return (self.lo + self.hi) / 2


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

    def contains(self, x: Scalar, backend: Backend = EXACT) -> bool:
        """Closed-interval membership in some component."""
        los = [iv.lo for iv in self.components]
        i = bisect_right(los, x)
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
        los = [c.lo for c in self.components]
        for iv in other.components:
            i = bisect_right(los, iv.lo)
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
