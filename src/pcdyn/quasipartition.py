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

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import (
    BoundViolationError,
    InexactPreimageError,
    NonDiscretePreimageError,
    PartitionInvarianceError,
)
from .maps import DEFAULT_EPS_FP
from .numerics import (
    EXACT,
    Backend,
    Interval,
    Scalar,
    bisect_exact,
    float_keys,
    unit_key,
)
from .pcmap import PeriodicOrbit, PiecewiseContraction, _word_map

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

    ``status`` is "complete" when one full backward level produced no new
    points, "truncated" when the depth or size cap was hit first.
    ``depth_reached`` counts backward levels computed, including the
    terminal one that stabilized.  ``entries`` hold distinct points in
    ascending order, as :func:`preimage_set` emits them.
    """

    entries: tuple[QPoint, ...]
    depth_reached: int
    status: str

    @property
    def is_complete(self) -> bool:
        return self.status == COMPLETE

    @cached_property
    def points(self) -> tuple[Scalar, ...]:
        return tuple(e.point for e in self.entries)

    def by_source(self, i: int) -> tuple[Scalar, ...]:
        return tuple(sorted(e.point for e in self.entries if e.source == i))


def preimage_set(
    f: PiecewiseContraction,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
    backend: Backend = EXACT,
) -> PreimageSet:
    """Backward breadth-first closure of the breakpoints.

    Level 0 is the breakpoints themselves; each later level collects the
    branchwise preimages of the previous one.  Points reachable from two
    breakpoints keep their first provenance (the trees are disjoint for
    generic parameters).
    """
    if not backend.is_exact:
        raise ValueError("backward closure requires the exact backend")
    entries: list[QPoint] = [
        QPoint(p, i, 0) for i, p in enumerate(f.breakpoints, start=1)
    ]
    seen = {e.point for e in entries}
    frontier = entries[:]
    depth = 0
    status = COMPLETE
    while frontier:
        depth += 1
        if depth > depth_cap:
            status = TRUNCATED
            depth = depth_cap
            break
        level: list[QPoint] = []
        for e in frontier:
            for p in f.preimages(e.point, backend):
                if isinstance(p, float):
                    raise InexactPreimageError(
                        f"irrational preimage of {e.point}"
                    )
                if p not in seen:
                    seen.add(p)
                    level.append(QPoint(p, e.source, depth))
        entries.extend(level)
        if len(entries) > size_cap:
            status = TRUNCATED
            break
        frontier = level
    entries.sort(key=lambda e: e.point)
    return PreimageSet(tuple(entries), depth, status)


@dataclass(frozen=True)
class QuasiPartition:
    """Open intervals between the closure points, with the index dynamics.

    ``intervals[l-1]`` is the l-th open interval (stored as its closure),
    ``transition[l-1]`` the index of the interval containing its image, and
    ``branch[l-1]`` the piecewise-contraction branch the interval sits in.
    """

    qset: PreimageSet
    cut_points: tuple[Scalar, ...]
    intervals: tuple[Interval, ...]
    transition: tuple[int, ...]
    branch: tuple[int, ...]
    _orbits: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def m(self) -> int:
        return len(self.intervals)

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

    def cycle_orbits(
        self, f: PiecewiseContraction, eps_fp: float = DEFAULT_EPS_FP
    ) -> dict[tuple[int, ...], PeriodicOrbit]:
        """Each cycle's orbit in ``basins`` order, computed once per
        ``eps_fp``; f is the map the partition was built from."""
        if eps_fp not in self._orbits:
            self._orbits[eps_fp] = {
                cyc: _cycle_orbit(f, self, cyc, eps_fp)
                for cyc in dict.fromkeys(self.basins)
            }
        return self._orbits[eps_fp]

    @cached_property
    def _cut_keys(self) -> tuple[float, ...]:
        return float_keys(self.cut_points)

    def locate(self, x: Scalar) -> Optional[int]:
        """1-based index of the open interval containing x, None on a cut
        point or at 0."""
        fx = unit_key(x)
        if fx == 0.0 and x == 0:
            return None
        cuts, keys = self.cut_points, self._cut_keys
        i = bisect_left(keys, fx)
        if i < len(keys) and keys[i] == fx:  # a float tie: resolve it exactly
            i = bisect_exact(cuts, keys, x)
            if i < len(cuts) and cuts[i] == x:
                return None
        return i + 1


def build_partition(
    f: PiecewiseContraction, qset: PreimageSet, backend: Backend = EXACT
) -> QuasiPartition:
    """Build the invariant partition and verify it is respected exactly.

    For each open interval the containing branch is constant (breakpoints
    are closure points); the image interval must avoid every closure point
    except at its ends, which is checked through exact preimage queries.
    A straddle raises PartitionInvarianceError: the closure was truncated
    or the parameters are degenerate.
    """
    if not qset.is_complete:
        raise ValueError("partition requires a complete backward closure")
    cuts = tuple(p for p in qset.points if 0 < p < 1)
    keys = float_keys(cuts)
    bounds = (backend.zero,) + cuts + (backend.one,)
    intervals = tuple(
        Interval(lo, hi) for lo, hi in zip(bounds, bounds[1:])
    )

    transition: list[int] = []
    branch: list[int] = []
    for j, iv in enumerate(intervals, start=1):
        mid = iv.midpoint()
        d = f.digit(mid)
        phi = f.ifs.maps[d - 1]
        img = phi.image(iv)
        lo_idx = bisect_exact(cuts, keys, img.lo)
        hi_idx = bisect_exact(cuts, keys, img.hi, right=True)
        for q in cuts[lo_idx:hi_idx]:
            try:
                hits = phi.preimages(q, iv, backend)
            except NonDiscretePreimageError as exc:
                raise PartitionInvarianceError(
                    f"interval {j} has a plateau on closure point {q}"
                ) from exc
            if any(iv.lo < p < iv.hi for p in hits):
                raise PartitionInvarianceError(
                    f"image of interval {j} straddles closure point {q}"
                )
        y = phi._eval(mid)
        target = bisect_exact(cuts, keys, y)
        if target < len(cuts) and cuts[target] == y:
            raise PartitionInvarianceError(
                f"image midpoint of interval {j} lies on a closure point"
            )
        transition.append(target + 1)
        branch.append(d)
    return QuasiPartition(
        qset, cuts, intervals, tuple(transition), tuple(branch)
    )


def _cycle_orbit(
    f: PiecewiseContraction,
    part: QuasiPartition,
    cyc: tuple[int, ...],
    eps_fp: float,
) -> PeriodicOrbit:
    """Fixed point of the branch maps composed along a canonical index
    cycle."""
    word = tuple(part.branch[l - 1] for l in cyc)
    z = _word_map(f, word).fixed_point(eps_fp)
    pts = []
    cur = z
    for d in word:
        pts.append(cur)
        cur = f.ifs.maps[d - 1]._eval(cur)
    k = min(range(len(pts)), key=lambda i: pts[i])
    return PeriodicOrbit(
        tuple(pts[k:] + pts[:k]),
        len(cyc),
        word[k:] + word[:k],
        home_cycle=cyc[k:] + cyc[:k],
    )


def periodic_orbits(
    f: PiecewiseContraction,
    part: QuasiPartition,
    eps_fp: float = DEFAULT_EPS_FP,
) -> list[PeriodicOrbit]:
    """One periodic orbit per transition cycle, deduplicated."""
    unique: dict[frozenset, PeriodicOrbit] = {}
    for orb in part.cycle_orbits(f, eps_fp).values():
        unique.setdefault(orb.point_set(), orb)
    return list(unique.values())


def omega_limit(
    f: PiecewiseContraction,
    x: Scalar,
    part: QuasiPartition,
    eps_fp: float = DEFAULT_EPS_FP,
) -> PeriodicOrbit:
    """The periodic orbit attracting x.

    If x sits on a closure point (or at 0) it is iterated through that
    finite set until it either enters an open interval or closes a cycle
    inside the set; otherwise it is the orbit of its interval's basin.
    """
    visited: list[Scalar] = []
    while (start := part.locate(x)) is None:
        if x in visited:  # a cycle inside the finite set {0} and the cuts
            cyc_pts = visited[visited.index(x):]
            word = tuple(f.digit(p) for p in cyc_pts)
            return PeriodicOrbit(tuple(cyc_pts), len(cyc_pts), word)
        visited.append(x)
        x = f(x)
    return part.cycle_orbits(f, eps_fp)[part.basins[start - 1]]


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
    first_interval: int
    last_interval: int
    members: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    permutation: tuple[int, ...]
    orbit_count: int


def equivalence_classes(
    f: PiecewiseContraction,
    part: QuasiPartition,
    eps_fp: float = DEFAULT_EPS_FP,
) -> EquivalenceClasses:
    """Group the breakpoint-adjacent intervals by shared forward orbits.

    Two adjacency intervals are equivalent when their forward orbits under
    the index dynamics meet; since forward images of partition intervals
    stay inside single intervals, this matches the definition through a
    common absorbing interval.  Two forward index orbits meet exactly when
    they end in one cycle, so the classes group the adjacency intervals by
    basin, ordered by their smallest member.
    """
    n = f.n
    cuts = part.cut_points
    adjacency = []
    for x_i in f.breakpoints:
        pos = bisect_left(cuts, x_i)
        if pos >= len(cuts) or cuts[pos] != x_i:
            raise ValueError("breakpoint missing from the closure points")
        adjacency.append((pos + 1, pos + 2))
    members = list(dict.fromkeys(idx for pair in adjacency for idx in pair))
    grouped: dict[tuple[int, ...], list[int]] = {}
    for idx in members:
        grouped.setdefault(part.basins[idx - 1], []).append(idx)
    classes = tuple(tuple(v) for v in sorted(grouped.values(), key=min))

    permutation = tuple(
        sorted(range(1, n), key=lambda i: min(part.qset.by_source(i)))
    )

    orbits = periodic_orbits(f, part, eps_fp)
    if len(classes) > n:
        raise BoundViolationError(
            f"{len(classes)} equivalence classes exceed branch count {n}"
        )
    if len(orbits) > len(classes):
        raise BoundViolationError(
            f"{len(orbits)} periodic orbits exceed class count {len(classes)}"
        )
    return EquivalenceClasses(
        adjacency=tuple(adjacency),
        first_interval=1,
        last_interval=part.m,
        members=tuple(members),
        classes=classes,
        permutation=permutation,
        orbit_count=len(orbits),
    )
