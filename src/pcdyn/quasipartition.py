"""The finite backward closure of the breakpoints and everything it buys.

When every backward iterate of every breakpoint is computed and the closure
is finite, the open intervals between those points form a partition that
the map respects: each interval maps inside a single interval.  The induced
index dynamics is a self-map of a finite set, so every trajectory is
eventually periodic; composing the branch maps along an index cycle and
solving the fixed point produces the actual periodic orbits, and the
adjacency structure around the breakpoints bounds how many there can be.

Everything here requires the exact backend: backward preimage trees amplify
rounding error, and the finiteness argument is an exact one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import (
    BoundaryOrbitError,
    BoundViolationError,
    CutCycleError,
    InexactPreimageError,
    NonDiscretePreimageError,
    PartitionInvarianceError,
    TruncatedClosureError,
)
from .maps import DEFAULT_EPS_FP, MapDescriptor
from .numerics import (
    EXACT,
    Interval,
    Scalar,
    _key,
    _lowest_terms,
    _ratio,
    find_exact,
    find_pair,
    float_keys,
    sort_pairs,
    unit_key,
)
from .pcmap import (
    DEFAULT_EPS_ORBIT,
    PeriodicOrbit,
    PiecewiseContraction,
    _level_preimages,
    _refine_candidate,
    rotate_to_min,
)

COMPLETE = "complete"
TRUNCATED = "truncated"

DEFAULT_DEPTH_CAP = 64
DEFAULT_SIZE_CAP = 10_000


@dataclass(frozen=True)
class QPoint:
    """One backward iterate: which breakpoint it reaches and in how many steps."""

    point: Scalar
    source: int  # 1-based breakpoint index
    depth: int   # 0 for the breakpoint itself


@dataclass(frozen=True)
class PreimageSet:
    """All backward iterates of the breakpoints, with provenance.

    ``points`` are the distinct points in ascending order, and
    ``provenance[i]`` is the (source, depth) of ``points[i]``.  ``status``
    is "complete" when one full backward level produced no new points,
    "truncated" when the depth or size cap was hit first.
    ``depth_reached`` counts backward levels computed, including the
    terminal one that stabilized.
    """

    points: tuple[Scalar, ...]
    provenance: tuple[tuple[int, int], ...]
    depth_reached: int
    status: str

    @property
    def entries(self) -> tuple[QPoint, ...]:
        return tuple(
            QPoint(p, *sd) for p, sd in zip(self.points, self.provenance)
        )

    @property
    def is_complete(self) -> bool:
        return self.status == COMPLETE

    @cached_property
    def _keys(self) -> tuple[float, ...]:  # preimage_set sets it from its sort
        return float_keys(self.points)


def preimage_set(
    f: PiecewiseContraction,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> PreimageSet:
    """Backward breadth-first closure of the breakpoints.

    Level 0 is the breakpoints themselves; each later level collects the
    branchwise preimages of the previous one, as reduced (num, den) pairs,
    each branch on its domain and closure flags (:func:`_level_preimages`).
    A plateau on a level point raises its NonDiscretePreimageError;
    otherwise the first point with an irrational preimage, in branch order
    then ascending, raises InexactPreimageError.  A point has one image,
    so it has one parent and one provenance: the source of the breakpoint
    its forward orbit reaches first.  So a complete closure keeps, for f,
    each source's step (:func:`_source_steps`): a source met as the
    preimage of y steps to y's source, and one never met steps off.
    """
    found = {}  # point -> (source, depth)
    steps = [None] * f.n  # the step of source k, 0 for the point 0
    for i, p in enumerate(f.breakpoints, start=1):
        r = _ratio(p)
        if r is None:
            raise InexactPreimageError(f"inexact breakpoint {p}")
        found[r] = (i, 0)
    frontier = list(found)
    depth = 0
    status = COMPLETE
    while frontier:
        depth += 1
        if depth > depth_cap:
            status = TRUNCATED
            depth = depth_cap
            break
        ys, xs, inexact = _level_preimages(f._domains, frontier)
        if inexact:
            y = _lowest_terms(*inexact[0])
            raise InexactPreimageError(f"irrational preimage of {y}")
        frontier = []
        for y, x in zip(ys, xs):
            if x not in found:
                found[x] = (found[y][0], depth)
                frontier.append(x)
            elif found[x][1] == 0:  # breakpoint x steps onto y
                steps[found[x][0]] = found[y][0]
        if len(found) > size_cap:
            status = TRUNCATED
            break
    pairs, keys = sort_pairs(found)
    # every pair entered found reduced: breakpoints through _ratio,
    # affine branches' solutions by their gcd, other branches' Fractions
    points = tuple(_lowest_terms(*x) for x in pairs)
    qset = PreimageSet(points, tuple(map(found.__getitem__, pairs)), depth, status)
    object.__setattr__(qset, "_keys", tuple(keys))
    if status == COMPLETE:  # 0, met first as a new point, steps with it
        steps[0] = found.get((0, 1), (None,))[0]
        object.__setattr__(qset, "_steps", (f, tuple(steps)))
    return qset


def _require_complete(qset: PreimageSet) -> None:
    if not qset.is_complete:
        raise TruncatedClosureError(
            f"the backward closure hit a cap at depth {qset.depth_reached}, "
            f"point count {len(qset.points)}"
        )


def _source_steps(f: PiecewiseContraction, qset: PreimageSet) -> tuple:
    """Per source s in (0, x_1, ..., x_{n-1}), kept on ``qset`` for its last
    map: j when f(s) is a closure point of provenance (j, d), else None.
    Another map than :func:`preimage_set`'s evaluates f at each source."""
    memo = qset.__dict__.get("_steps", (None,))
    if memo[0] is not f:
        _require_complete(qset)
        ys = [f(s) for s in (EXACT.zero,) + f.breakpoints.points]
        hits = [find_exact(qset.points, qset._keys, y, _key(y)) for y in ys]
        memo = f, tuple(qset.provenance[i][0] if hit else None for i, hit in hits)
        object.__setattr__(qset, "_steps", memo)
    return memo[1]


def connections(f: PiecewiseContraction, qset: PreimageSet) -> tuple[Scalar, ...]:
    """The sources s in {0, x_1, ..., x_{n-1}} that f sends onto a
    breakpoint: f^d(s) = x_j for some d >= 1 and some j.

    ``qset`` is f's complete backward closure, which holds every point
    that reaches a breakpoint, so s has a connection exactly when f(s) is
    a closure point: one step per source, which :func:`certify_limits`
    reads too, and which the closure's own walk met (:func:`preimage_set`).
    A closure that hit its cap raises TruncatedClosureError.
    """
    steps = zip((EXACT.zero,) + f.breakpoints.points, _source_steps(f, qset))
    return tuple(s for s, i in steps if i is not None)


@dataclass(frozen=True)
class QuasiPartition:
    """Open intervals between the closure points, with the index dynamics.

    ``intervals[l-1]`` is the l-th open interval (stored as its closure),
    ``transition[l-1]`` the index of the interval containing its image, and
    ``branch[l-1]`` the piecewise-contraction branch the interval sits in.
    ``f`` is the map it was built from, and the functions below take no
    other (ValueError); ``eps_fp`` is the fixed-point tolerance its orbits
    are solved with.  The intervals are built from the cut points when
    first read.
    """

    f: PiecewiseContraction
    qset: PreimageSet
    cut_points: tuple[Scalar, ...]
    transition: tuple[int, ...]
    branch: tuple[int, ...]
    eps_fp: float = DEFAULT_EPS_FP

    @property
    def m(self) -> int:
        return len(self.transition)

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        bounds = (EXACT.zero,) + self.cut_points + (EXACT.one,)
        return tuple(Interval(lo, hi) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def basins(self) -> tuple[tuple[int, ...], ...]:
        """``basins[l-1]`` is the index cycle interval l ends in, rotated to
        start at its smallest index, from one walk of l -> transition[l-1].

        Two forward index orbits meet exactly when they end in one cycle.
        """
        cycle_of: list[Optional[tuple[int, ...]]] = [None] * (self.m + 1)
        for start in range(1, self.m + 1):
            path: dict[int, int] = {}  # node -> position on this walk
            node = start
            while cycle_of[node] is None and node not in path:
                path[node] = len(path)
                node = self.transition[node - 1]
            if cycle_of[node] is None:  # the walk closed a new cycle
                cyc = list(path)[path[node]:]
                k = cyc.index(min(cyc))
                cycle_of[node] = tuple(cyc[k:] + cyc[:k])
            for v in path:
                cycle_of[v] = cycle_of[node]
        return tuple(cycle_of[1:])

    def _own(self, f: PiecewiseContraction) -> None:
        if f is not self.f and f != self.f:
            raise ValueError("the partition was built from another map")

    @cached_property
    def _limits(self) -> tuple[tuple[PeriodicOrbit, ...], ...]:
        """Each cycle's orbit in ``basins`` order, and the orbit of each
        interval's basin.  An orbit is the fixed point of the branch maps
        composed along its cycle, and BoundaryOrbitError says that fixed
        point does not follow the word."""
        orbits = {}
        for cyc in dict.fromkeys(self.basins):
            word = tuple(self.branch[l - 1] for l in cyc)
            orbits[cyc] = _refine_candidate(
                self.f, word, EXACT, DEFAULT_EPS_ORBIT, self.eps_fp, cyc
            )
            if orbits[cyc] is None:
                raise BoundaryOrbitError(
                    f"the fixed point of index cycle {';'.join(map(str, cyc))}"
                    f" does not follow its word {';'.join(map(str, word))}"
                )
        table = tuple(map(orbits.__getitem__, self.basins))
        return tuple(orbits.values()), table

    @cached_property
    def _cut_keys(self) -> tuple[float, ...]:
        # build_partition sets this from the keys it already computed
        return float_keys(self.cut_points)

    def locate(self, x: Scalar) -> Optional[int]:
        """1-based index of the open interval containing x, None on a cut
        point or at 0."""
        fx = unit_key(x)
        if fx == 0.0 and x == 0:
            return None
        i, hit = find_exact(self.cut_points, self._cut_keys, x, fx)
        return None if hit else i + 1


def build_partition(
    f: PiecewiseContraction, qset: PreimageSet, eps_fp: float = DEFAULT_EPS_FP
) -> QuasiPartition:
    """Build the invariant partition and verify it is respected exactly.

    The breakpoints are closure points: each is found once among the cut
    points (ValueError when one is missing), and an open interval's branch
    steps up just past each of them.  The image interval must avoid every
    closure point except at its ends.  Every branch map is continuous and
    monotone (see :mod:`pcdyn.maps`), so a closure point has a preimage
    strictly inside the interval exactly when it lies strictly between the
    image's ends, and the first such point is the first past the lower end.
    A branch whose form in ``f._domains`` (``pcmap._branch_form``) has
    image keys, a nonzero slope, gives its ends as unreduced integer pairs
    for :func:`find_pair`; any other branch gives ``image`` for
    :func:`find_exact`, and must have no plateau on an end
    that is a closure point (lower end, straddle, upper end: the order of
    the checks).  A straddle or a plateau raises PartitionInvarianceError:
    the closure was truncated or the parameters are degenerate.  A closure
    that hit its cap raises TruncatedClosureError.
    """
    _require_complete(qset)
    # closure points are Fractions: compare their integers
    cuts = tuple(p for p in qset.points if 0 < p._numerator < p._denominator)
    keys = qset._keys[len(qset.points) - len(cuts):]  # only 0 is left out
    branch: list[int] = []
    for d, (x, fx) in enumerate(zip(f.breakpoints.points, f._bp_keys), start=1):
        num, den = _ratio(x) or x.as_integer_ratio()
        pos, hit = find_pair(cuts, keys, num, den, fx)
        if not hit:
            raise ValueError("breakpoint missing from the closure points")
        branch += [d] * (pos + 1 - len(branch))  # intervals up to cut `pos`
    branch += [f.n] * (len(cuts) + 1 - len(branch))
    bounds = (EXACT.zero,) + cuts + (EXACT.one,)

    maps = f.ifs.maps
    forms = [
        b[4] if b[4] and b[4][3] is not None else None for b in f._domains
    ]
    transition: list[int] = []
    for j, (lo, hi, d) in enumerate(zip(bounds, bounds[1:], branch), start=1):
        form = forms[d - 1]
        if form:  # the image ends as unreduced integer pairs
            A, B, D, _, _, _ = form
            ld, hd = lo._denominator, hi._denominator
            un, ud = A * lo._numerator + B * ld, D * ld
            vn, vd = A * hi._numerator + B * hd, D * hd
            if A < 0:  # decreasing: the lower end is f(hi)
                un, ud, vn, vd = vn, vd, un, ud
            first, lo_hit = find_pair(cuts, keys, un, ud, un / ud)
            last, hi_hit = find_pair(cuts, keys, vn, vd, vn / vd)
        else:
            phi, iv = maps[d - 1], Interval(lo, hi)
            img = phi.image(iv)
            first, lo_hit = find_exact(cuts, keys, img.lo, _key(img.lo))
            last, hi_hit = find_exact(cuts, keys, img.hi, _key(img.hi))
            if lo_hit:
                _plateau_check(phi, iv, cuts[first], j)
        first += lo_hit  # the first cut past the image's lower end
        if first < last:
            raise PartitionInvarianceError(
                f"image of interval {j} straddles closure point {cuts[first]}"
            )
        if not form and hi_hit:  # phi is this interval's branch
            _plateau_check(phi, iv, cuts[last], j)
        # no cut lies strictly inside the image: it is in interval first + 1
        transition.append(first + 1)
    part = QuasiPartition(f, qset, cuts, tuple(transition), tuple(branch), eps_fp)
    object.__setattr__(part, "_cut_keys", keys)
    return part


def _plateau_check(phi: MapDescriptor, iv: Interval, q: Scalar, j: int) -> None:
    """Raise when phi is constant at q over a nondegenerate part of iv."""
    try:
        phi.preimages(q, iv)
    except NonDiscretePreimageError as exc:
        raise PartitionInvarianceError(
            f"interval {j} has a plateau on closure point {q}"
        ) from exc


def periodic_orbits(
    f: PiecewiseContraction, part: QuasiPartition
) -> list[PeriodicOrbit]:
    """One periodic orbit per transition cycle, in ``basins`` order.

    Each orbit follows its cycle's word, so two cycles never give one
    orbit: a point in an open interval names its interval, and a
    breakpoint on the orbit names the adjacent interval of its branch.
    """
    part._own(f)
    return list(part._limits[0])


def omega_limit(
    f: PiecewiseContraction, x: Scalar, part: QuasiPartition
) -> PeriodicOrbit:
    """The periodic orbit attracting x.

    If x sits on a closure point (or at 0) it is iterated through that
    finite set until it either enters an open interval or closes a cycle
    inside the set; otherwise it is the orbit of its interval's basin.  A
    Fraction whose key lies inside (0, 1) and ties no cut key is inside
    the interval its key bisects to: one lookup in the limit table.
    """
    if type(x) is Fraction and f is part.f:  # a lookup inside an interval
        fx = _key(x)
        if 0.0 < fx < 1.0:
            keys = part._cut_keys
            i = bisect_left(keys, fx)
            if i == len(keys) or keys[i] != fx:
                return part._limits[1][i]
    part._own(f)
    visited: list[Scalar] = []
    while (start := part.locate(x)) is None:
        if x in visited:  # a cycle inside the finite set {0} and the cuts
            cyc_pts = visited[visited.index(x):]
            return rotate_to_min(cyc_pts, [f.digit(p) for p in cyc_pts])
        visited.append(x)
        x = f(x)
    return part._limits[1][start - 1]


def certify_limits(f: PiecewiseContraction, part: QuasiPartition) -> None:
    """Certify that the ω-limit of every x in [0, 1) is one of the
    partition's orbits (:func:`periodic_orbits`).

    Each open interval of the partition is in the basin of one of them,
    and every other x is 0 or a cut point q, whose provenance (s, depth)
    gives f^depth(q) = x_s, the s-th breakpoint, so ω(q) = ω(x_s).  A
    source's one step (:func:`connections`) enters an interval or goes on
    from a breakpoint; a chain that repeats one is a cut-point cycle, and
    the first whose :func:`omega_limit` is no orbit raises CutCycleError.
    """
    orbits = part._limits[0]
    part._own(f)
    steps = _source_steps(f, part.qset)
    for k, x in enumerate((0,) + f.breakpoints.points):
        # a chain of n steps over the n sources has repeated one
        if all((k := steps[k]) is not None for _ in range(f.n)):
            if (lim := omega_limit(f, x, part)) not in orbits:
                raise CutCycleError(x, lim)


@dataclass(frozen=True)
class EquivalenceClasses:
    """Adjacency intervals around each breakpoint and their merge classes.

    ``adjacency[i-1]`` holds the indices of the two intervals ending and
    starting at breakpoint i; ``classes`` partitions the distinct adjacency
    intervals by eventual overlap of their forward index orbits.  The class
    count can never exceed the number of branches, and the number of
    periodic orbits can never exceed the class count; violations raise
    instead of passing silently.
    """

    adjacency: tuple[tuple[int, int], ...]
    members: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    orbit_count: int


def equivalence_classes(
    f: PiecewiseContraction, part: QuasiPartition
) -> EquivalenceClasses:
    """Group the breakpoint-adjacent intervals by shared forward orbits.

    Two adjacency intervals are equivalent when their forward orbits under
    the index dynamics meet; since forward images of partition intervals
    stay inside single intervals, this matches the definition through a
    common absorbing interval.  Two forward index orbits meet exactly when
    they end in one cycle, so the classes group the adjacency intervals by
    basin, ordered by their smallest member.  Each index cycle gives one
    periodic orbit (:func:`periodic_orbits` raises otherwise), so the
    orbit count is the number of distinct basins.
    """
    part._own(f)
    n = f.n
    # the branch steps up exactly at each breakpoint i, past interval k
    ks = (bisect_right(part.branch, i) for i in range(1, n))
    adjacency = [(k, k + 1) for k in ks]
    members = list(dict.fromkeys(idx for pair in adjacency for idx in pair))
    grouped: dict[tuple[int, ...], list[int]] = {}
    for idx in members:
        grouped.setdefault(part.basins[idx - 1], []).append(idx)
    classes = tuple(tuple(v) for v in sorted(grouped.values(), key=min))

    orbit_count = len(set(part.basins))
    if len(classes) > n:
        raise BoundViolationError(
            f"{len(classes)} equivalence classes exceed branch count {n}"
        )
    if orbit_count > len(classes):
        raise BoundViolationError(
            f"{orbit_count} periodic orbits exceed class count {len(classes)}"
        )
    return EquivalenceClasses(
        adjacency=tuple(adjacency),
        members=tuple(members),
        classes=classes,
        orbit_count=orbit_count,
    )
