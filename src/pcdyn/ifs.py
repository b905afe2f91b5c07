"""Ordered iterated function systems and their attractor machinery.

An IFS here is an ordered list of contractions of [0, 1] into (0, 1); the
order matters because branch i of a piecewise contraction uses map i.  This
module computes the nested attractor sets (images of the closed unit
interval under all length-k compositions), certifies joint slope bounds,
and builds the capped IFS whose maps are constant outside a delta-collar of
their branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .maps import Affine, Clamped, MapDescriptor
from .numerics import (
    EXACT,
    Backend,
    IntervalSet,
    Scalar,
    _ratio,
    _raw_fraction,
)


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
    denominator q.  With L the lcm of the maps' integer-form denominators
    D, map x -> (A*x + B)/D sends p/q to (aL*p + bL*q) / (L*q), where
    aL = A*L/D and bL = B*L/D.  Each map's images form an ascending run
    (read backwards for a negative slope), so the sort merges n runs;
    touching components merge as in ``IntervalSet.normalize``.  The maps
    are separated when every slope is nonzero and, ordered by their images
    of [0, 1], each image ends strictly before the next begins: then the
    runs of A_{k+1} are the maps' runs joined in that order, with no sort
    and no merge, as a nonzero slope keeps the gaps between A_k's runs.
    A_k is held over q = L**k, not in lowest terms: its endpoint Fractions
    are built, each reduced, only when they are read, and ``measure``
    reduces its sum.  A gcd of q and every endpoint per step would save a
    bit or two of q on average and cost more than the larger integers.
    """
    ints = [m._ints for m in maps]
    den = math.lcm(*(d for _, _, d in ints))
    coeffs = [(a * (den // d), b * (den // d)) for a, b, d in ints]
    # ordered by image: map (a, b) sends [0, 1] onto [b + min(a, 0),
    # b + max(a, 0)] over den
    coeffs.sort(key=lambda c: c[1] + min(c[0], 0))
    separated = all(a for a, _ in coeffs) and all(
        b1 + max(a1, 0) < b2 + min(a2, 0)
        for (a1, b1), (a2, b2) in zip(coeffs, coeffs[1:])
    )
    runs, q = [(0, 1)], 1
    seq = [IntervalSet._from_runs(runs, q)]
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
        runs = pieces if separated else _merged(pieces)
        q *= den
        seq.append(IntervalSet._from_runs(runs, q))
    return seq


def _merged(pieces: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The (lo, hi) pairs sorted, with touching ones merged into runs."""
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
    return runs


def highly_contractive_bound(ifs: IteratedFunctionSystem) -> Optional[Scalar]:
    """A certified rho < 1 bounding the pointwise sum of slope magnitudes.

    Computed piecewise on the common refinement of all clamp breakpoints;
    plateaus contribute zero on their pieces, quadratics are bounded by
    endpoint derivative values (exact, since the derivative is linear).
    Clamped rational affine maps with rational windows are summed in
    integers (:func:`_swept_slope_sum`).  Returns None when the computable
    bound is >= 1.
    """
    rho = _swept_slope_sum(ifs)
    if rho is None:
        rho = _grid_slope_sum(ifs)
    return rho if rho < 1 else None


def _grid_slope_sum(ifs: IteratedFunctionSystem) -> Scalar:
    """The largest sum of the maps' slope bounds over a cell of the grid of
    clamp breakpoints, through each map's ``_slope_bound_on``."""
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
    return rho


def _swept_slope_sum(ifs: IteratedFunctionSystem) -> Optional[Scalar]:
    """:func:`_grid_slope_sum` for maps that are all ``Clamped(Affine)``
    with rational coefficients and window ends, else None.

    Such a map adds |A|/D on each cell inside its window.  Over L, the lcm
    of the D, that is the integer weight |A|*(L/D); the window ends, over
    one common denominator, are swept in order, a window closing before
    another opens at a shared end, and the bound is the largest running
    sum over L (the int 0 when no cell has a slope, as the grid gives).
    """
    windows = []
    for m in ifs:
        if type(m) is not Clamped or type(m.inner) is not Affine:
            return None
        ints, lo, hi = m.inner._ints, _ratio(m.lo), _ratio(m.hi)
        if ints is None or lo is None or hi is None:
            return None
        windows.append((abs(ints[0]), ints[2], lo, hi))
    den = math.lcm(*(d for _, d, _, _ in windows))
    q = math.lcm(*(e[1] for _, _, lo, hi in windows for e in (lo, hi)))
    events = []  # (position over q, 0 to close or 1 to open, weight)
    for a, d, (ln, ld), (hn, hd) in windows:
        w = a * (den // d)
        events += [(ln * (q // ld), 1, w), (hn * (q // hd), 0, -w)]
    events.sort()
    best = total = 0
    for _, _, w in events:
        total += w
        if total > best:
            best = total
    return _raw_fraction(best, den) if best else 0


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
