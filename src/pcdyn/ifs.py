"""Ordered iterated function systems and their attractor machinery.

An IFS here is an ordered list of contractions of [0, 1] into (0, 1); the
order matters because branch i of a piecewise contraction uses map i.  This
module computes the nested attractor sets (images of the closed unit
interval under all length-k compositions), enumerates composition families,
certifies joint slope bounds, and builds the capped IFS whose maps are
constant outside a delta-collar of their branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceededError
from .maps import Affine, Clamped, Identity, MapDescriptor, compose
from .numerics import (
    EXACT,
    Backend,
    Interval,
    IntervalSet,
    Scalar,
    _raw_fraction,
)

DEFAULT_COMPOSITION_CAP = 100_000


@dataclass(frozen=True)
class IteratedFunctionSystem:
    """An ordered list of n >= 2 contraction descriptors."""

    maps: tuple[MapDescriptor, ...]

    def __post_init__(self):
        if len(self.maps) < 2:
            raise ValueError("an IFS needs at least two maps")

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[MapDescriptor]:
        return iter(self.maps)

    def __getitem__(self, i: int) -> MapDescriptor:
        return self.maps[i]


@dataclass(frozen=True)
class CompositionFamily:
    """All length-k compositions, indexable by digit word.

    Words list the first-applied map first: word (i_1, ..., i_k) denotes
    map_{i_k} o ... o map_{i_1}.  Members are ordered lexicographically by
    word, so enumeration order is deterministic.
    """

    depth: int
    words: tuple[tuple[int, ...], ...]
    members: tuple[MapDescriptor, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], MapDescriptor]]:
        return iter(zip(self.words, self.members))

    def by_word(self, word: Sequence[int]) -> MapDescriptor:
        return self.members[self.words.index(tuple(word))]


@dataclass(frozen=True)
class CappingPlan:
    """A capped IFS together with the collar width and its centers.

    The collar width is min_i (x_i - x_{i-1}) / 3 over the padded
    breakpoints (0 and 1 included); any breakpoint vector staying within
    ``delta`` of the centers induces the same piecewise contraction from
    the capped and the original IFS.
    """

    delta: Scalar
    centers: tuple[Scalar, ...]
    capped: IteratedFunctionSystem

    def covers(self, ys: Sequence[Scalar]) -> bool:
        """True iff ``ys`` lies in the breakpoint neighborhood of the plan."""
        if len(ys) != len(self.centers):
            return False
        return all(abs(y - c) < self.delta for y, c in zip(ys, self.centers))


def ifs_image(
    ifs: IteratedFunctionSystem, s: IntervalSet, backend: Backend = EXACT
) -> IntervalSet:
    """Normalized union of the images of every component under every map."""
    pieces = [m.image(iv) for m in ifs for iv in s]
    return IntervalSet.normalize(pieces, backend)


def attractor_sequence(
    ifs: IteratedFunctionSystem, k_max: int, backend: Backend = EXACT
) -> list[IntervalSet]:
    """The nested sets A_0 = [0, 1], A_{k+1} = union of map images of A_k.

    Returns [A_0, ..., A_{k_max}].  Each step is exact under the rational
    backend; components merge when they touch, so the component count of
    A_k never exceeds n^k.  Under the exact backend, a system of affine
    maps with rational coefficients runs in integers; any other input
    applies ``ifs_image`` k_max times.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if backend.is_exact and all(
        type(m) is Affine and m._ints is not None for m in ifs
    ):
        return _rational_affine_sequence(ifs.maps, k_max)
    seq = [IntervalSet.unit(backend)]
    for _ in range(k_max):
        seq.append(ifs_image(ifs, seq[-1], backend))
    return seq


def _rational_affine_sequence(
    maps: Sequence[Affine], k_max: int
) -> list[IntervalSet]:
    """attractor_sequence for rational affine maps, in integer arithmetic.

    A_k is held as ascending (lo, hi) numerator pairs over one common
    denominator q.  With L the lcm of every coefficient denominator, map
    x -> a*x + b sends p/q to (aL*p + bL*q) / (L*q), where aL and bL are
    integers.  Each map's images form an ascending run (read backwards for
    a negative slope), so the sort merges n runs; touching components
    merge as in ``IntervalSet.normalize``.  One gcd per step keeps q and
    the numerators reduced.
    """
    ints = [m._ints for m in maps]
    den = math.lcm(*(d for _, ad, _, bd in ints for d in (ad, bd)))
    coeffs = [(an * (den // ad), bn * (den // bd)) for an, ad, bn, bd in ints]
    seq = [IntervalSet.unit()]
    runs, q = [(0, 1)], 1
    for _ in range(k_max):
        pieces: list[tuple[int, int]] = []
        for a, b in coeffs:
            shift = b * q
            if a >= 0:
                pieces += [(a * lo + shift, a * hi + shift) for lo, hi in runs]
            else:
                pieces += [
                    (a * hi + shift, a * lo + shift) for lo, hi in reversed(runs)
                ]
        pieces.sort()
        runs = []
        cur_lo, cur_hi = pieces[0]
        for lo, hi in pieces:
            if lo <= cur_hi:
                if hi > cur_hi:
                    cur_hi = hi
            else:
                runs.append((cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        runs.append((cur_lo, cur_hi))
        q *= den
        g = math.gcd(q, *(v for run in runs for v in run))
        if g > 1:
            q //= g
            runs = [(lo // g, hi // g) for lo, hi in runs]
        seq.append(
            IntervalSet(
                tuple(
                    Interval(_raw_fraction(lo, q), _raw_fraction(hi, q))
                    for lo, hi in runs
                )
            )
        )
    return seq


def highly_contractive_bound(ifs: IteratedFunctionSystem) -> Optional[Scalar]:
    """A certified rho < 1 bounding the pointwise sum of slope magnitudes.

    Computed piecewise on the common refinement of all clamp breakpoints;
    plateaus contribute zero on their pieces, quadratics are bounded by
    endpoint derivative values (exact, since the derivative is linear).
    Returns None when the computable bound is >= 1.
    """
    cuts = {Fraction(0), Fraction(1)}
    for m in ifs:
        cuts.update(b for b in m._domain_breakpoints() if 0 < b < 1)
    grid = sorted(cuts)
    rho: Scalar = 0
    for lo, hi in zip(grid, grid[1:]):
        total: Scalar = 0
        for m in ifs:
            total += m._slope_bound_on(lo, hi)
        rho = max(rho, total)
    return rho if rho < 1 else None


def compositions(
    ifs: IteratedFunctionSystem, k: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> CompositionFamily:
    """Breadth-first enumeration of all length-k compositions.

    Depth 0 is the singleton identity seed.  Raises CapExceededError before
    enumerating if n^k would exceed ``cap``.
    """
    if k < 0:
        raise ValueError("composition depth must be >= 0")
    n = len(ifs)
    if n**k > cap:
        raise CapExceededError(f"{n}^{k} compositions exceed cap {cap}")
    level: list[tuple[tuple[int, ...], MapDescriptor]] = [((), Identity())]
    for _ in range(k):
        level = [
            (word + (i,), compose(m, h))
            for word, h in level
            for i, m in enumerate(ifs, start=1)
        ]
    level.sort(key=lambda item: item[0])
    words = tuple(word for word, _ in level)
    members = tuple(m for _, m in level)
    return CompositionFamily(k, words, members)


def cap_ifs(
    ifs: IteratedFunctionSystem, breakpoints: Iterable[Scalar]
) -> CappingPlan:
    """Clamp each map to a delta-collar of its branch.

    Requires every map's Lipschitz bound below 1/2; the capped system is
    then certifiably highly contractive (joint slope bound at most twice
    the largest individual bound) while inducing the same piecewise
    contraction for any breakpoint vector within delta of the centers.
    """
    pts = tuple(breakpoints)
    n = len(ifs)
    if len(pts) != n - 1:
        raise ValueError(f"need {n - 1} breakpoints for {n} maps, got {len(pts)}")
    half = Fraction(1, 2)
    for i, m in enumerate(ifs, start=1):
        bound = m.lipschitz_bound()
        if not bound < half:
            raise ValueError(
                f"capping requires Lipschitz bound < 1/2; map {i} has {bound}"
            )
    padded = (0,) + pts + (1,)
    delta = min(b - a for a, b in zip(padded, padded[1:])) / 3
    capped = []
    for i, m in enumerate(ifs, start=1):
        lo = 0 if i == 1 else padded[i - 1] - delta
        hi = 1 if i == n else padded[i] + delta
        capped.append(Clamped(m, lo, hi))
    plan = CappingPlan(delta, pts, IteratedFunctionSystem(tuple(capped)))
    if highly_contractive_bound(plan.capped) is None:
        raise AssertionError("capped IFS failed its joint slope certificate")
    return plan
