"""n-interval piecewise contractions of [0, 1).

A piecewise contraction applies map i on the branch [x_{i-1}, x_i), with
x_0 = 0 and x_n = 1.  The half-open convention is the default; a
per-breakpoint closure flag supports the variant partitions in which a
breakpoint belongs to the branch on its left instead.

This module provides evaluation, digits and itineraries, orbit iteration
with cycle detection and refinement, the finite-depth genericity test, and
the reduction of the k-th iterate to a piecewise contraction over refined
breakpoints.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import (
    CapExceededError,
    InexactPreimageError,
    NonDiscretePreimageError,
)
from .ifs import IteratedFunctionSystem
from .maps import DEFAULT_EPS_FP, Identity, MapDescriptor, compose
from .numerics import (
    EXACT,
    Backend,
    Interval,
    Scalar,
    bisect_exact,
    float_keys,
    unit_key,
)

RIGHT_OPEN = "right-open"  # breakpoint belongs to the branch on its right
LEFT_OPEN = "left-open"    # breakpoint belongs to the branch on its left

DEFAULT_MAX_ITER = 100_000
DEFAULT_EPS_ORBIT = 1e-10
DEFAULT_POWER_CAP = 10_000

# trigger width for the exact backend's float shadow; detection is only a
# candidate generator there, correctness comes from exact verification
_SHADOW_EPS = 1e-9


@dataclass(frozen=True)
class Breakpoints:
    """Strictly increasing cut points inside (0, 1)."""

    points: tuple[Scalar, ...]

    def __post_init__(self):
        for p in self.points:
            if not 0 < p < 1:
                raise ValueError(f"breakpoint {p} outside (0, 1)")
        if any(a >= b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("breakpoints not strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.points)

    def __getitem__(self, i: int) -> Scalar:
        return self.points[i]


@dataclass(frozen=True)
class PiecewiseContraction:
    """The map applying ifs.maps[i-1] on branch i.

    ``closures[j]`` says which branch owns breakpoint j: "right-open"
    (default, branch [x_{i-1}, x_i)) or "left-open" (branch (x_{i-1}, x_i]).
    """

    ifs: IteratedFunctionSystem
    breakpoints: Breakpoints
    closures: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.ifs) != len(self.breakpoints) + 1:
            raise ValueError(
                f"{len(self.ifs)} maps need {len(self.ifs) - 1} breakpoints, "
                f"got {len(self.breakpoints)}"
            )
        if not self.closures:
            object.__setattr__(
                self, "closures", (RIGHT_OPEN,) * len(self.breakpoints)
            )
        if len(self.closures) != len(self.breakpoints):
            raise ValueError("one closure flag per breakpoint required")
        for c in self.closures:
            if c not in (RIGHT_OPEN, LEFT_OPEN):
                raise ValueError(f"unknown closure flag {c!r}")
        object.__setattr__(
            self, "_bp_keys", float_keys(self.breakpoints.points)
        )
        object.__setattr__(self, "_branch_maps", self.ifs.maps)

    @property
    def n(self) -> int:
        return len(self.ifs)

    def digit(self, x: Scalar) -> int:
        """The branch index i (1-based) whose domain contains x."""
        pts, keys = self.breakpoints.points, self._bp_keys
        fx = unit_key(x)
        i = bisect_right(keys, fx)
        if i and keys[i - 1] == fx:  # a float tie: resolve it exactly
            i = bisect_exact(pts, keys, x, right=True)
            if i and pts[i - 1] == x and self.closures[i - 1] == LEFT_OPEN:
                return i
        return i + 1

    def __call__(self, x: Scalar) -> Scalar:
        return self._branch_maps[self.digit(x) - 1]._eval(x)

    def branch_domain(self, i: int) -> tuple[Scalar, Scalar, bool, bool]:
        """(lo, hi, lo_included, hi_included) for branch i."""
        pts = self.breakpoints.points
        lo = 0 if i == 1 else pts[i - 2]
        hi = 1 if i == self.n else pts[i - 1]
        lo_inc = True if i == 1 else self.closures[i - 2] == RIGHT_OPEN
        hi_inc = False if i == self.n else self.closures[i - 1] == LEFT_OPEN
        return lo, hi, lo_inc, hi_inc

    def preimages(self, y: Scalar, backend: Backend = EXACT) -> list[Scalar]:
        """All x in [0, 1) with f(x) = y, solved branch by branch.

        Branch domains are honored exactly, including the closure flags, so
        a solution sitting on a breakpoint is attributed to the branch that
        owns it.
        """
        found: set[Scalar] = set()
        for m, dom, lo_inc, hi_inc in self._domains:
            for p in m.preimages(y, dom, backend):
                if (p == dom.lo and not lo_inc) or (p == dom.hi and not hi_inc):
                    continue
                found.add(p)
        return sorted(found)

    @cached_property
    def _domains(self) -> tuple:
        """(map, closed domain, lo included, hi included) for each branch."""
        out = []
        for i, m in enumerate(self.ifs.maps, start=1):
            lo, hi, lo_inc, hi_inc = self.branch_domain(i)
            out.append((m, Interval(lo, hi), lo_inc, hi_inc))
        return tuple(out)


@dataclass(frozen=True)
class Itinerary:
    """Branch digits of an orbit, with its detected eventual period."""

    digits: tuple[int, ...]
    preperiod: Optional[int] = None
    period: Optional[int] = None


@dataclass(frozen=True)
class PeriodicOrbit:
    """A finite cycle of the piecewise contraction.

    ``points`` lists one point per step of the cycle, rotated to start at
    the smallest point; ``word`` gives the branch digit each point uses.
    ``home_cycle`` records the partition-interval cycle when the orbit came
    out of a quasi-partition analysis and does not affect equality.
    """

    points: tuple[Scalar, ...]
    period: int
    word: tuple[int, ...]
    home_cycle: Optional[tuple[int, ...]] = field(default=None, compare=False)

    def point_set(self) -> frozenset:
        return frozenset(self.points)


def rotate_to_min(
    points: Sequence[Scalar], word: Sequence[int]
) -> tuple[tuple[Scalar, ...], tuple[int, ...]]:
    """Rotate a cycle so it starts at its smallest point."""
    k = min(range(len(points)), key=lambda i: points[i])
    pts = tuple(points[k:]) + tuple(points[:k])
    w = tuple(word[k:]) + tuple(word[:k])
    return pts, w


@dataclass(frozen=True)
class OrbitRecord:
    """A computed forward orbit and its outcome.

    ``orbit`` is set when a cycle was detected and verified; otherwise
    ``failure`` names the reason ("iteration-cap" or "breakpoint-hit").
    """

    start: Scalar
    points: tuple[Scalar, ...]
    itinerary: Itinerary
    orbit: Optional[PeriodicOrbit] = None
    failure: Optional[str] = None

    @property
    def converged(self) -> bool:
        return self.orbit is not None


def _word_map(f: PiecewiseContraction, word: Sequence[int]) -> MapDescriptor:
    m: MapDescriptor = Identity()
    for d in word:
        m = compose(f.ifs.maps[d - 1], m)
    return m


def _refine_candidate(
    f: PiecewiseContraction,
    word: Sequence[int],
    backend: Backend,
    eps_orbit: float,
    eps_fp: float,
) -> Optional[PeriodicOrbit]:
    """Solve the fixed point of the composed word map and verify the cycle.

    Exact backend: the refined orbit must close exactly and follow the
    word's digits.  Float backend: it must close within eps_orbit.
    Returns None when verification fails (a spurious candidate).
    """
    p = len(word)
    try:
        z = _word_map(f, word).fixed_point(eps_fp)
    except (ValueError, ArithmeticError):
        return None
    if not 0 <= z < 1:
        return None
    pts = []
    cur = z
    digits = []
    for _ in range(p):
        pts.append(cur)
        try:
            d = f.digit(cur)
        except ValueError:
            return None
        digits.append(d)
        cur = f.ifs.maps[d - 1]._eval(cur)
    if tuple(digits) != tuple(word):
        return None
    if backend.is_exact and isinstance(z, Fraction):
        if cur != z:
            return None
    elif abs(cur - z) > max(eps_orbit, 10 * eps_fp):
        return None
    rpts, rword = rotate_to_min(pts, digits)
    return PeriodicOrbit(rpts, p, rword)


def orbit(
    f: PiecewiseContraction,
    x0: Scalar,
    max_iter: int = DEFAULT_MAX_ITER,
    backend: Backend = EXACT,
    eps_orbit: float = DEFAULT_EPS_ORBIT,
    eps_fp: float = DEFAULT_EPS_FP,
    fail_on_breakpoint_hit: bool = False,
) -> OrbitRecord:
    """Iterate x0 and detect an eventual cycle.

    Exact backend: a repeated exact point closes a cycle immediately; for
    orbits that only converge to a cycle, a candidate period is read off
    the itinerary (three consecutive repeats of the digit word, with a
    float-shadow closeness trigger) and confirmed by solving the composed
    word map's fixed point exactly.  Float backend: closeness within
    eps_orbit plus the same three-period itinerary confirmation, then the
    cycle is refined through the word map's fixed point.  With
    ``fail_on_breakpoint_hit`` an orbit point equal to a breakpoint (within
    ``eps_cmp`` under the float backend) ends the run as "breakpoint-hit".
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 <= x0 < 1:
        raise ValueError(f"initial condition {x0} outside [0, 1)")

    eps_trigger = eps_orbit if not backend.is_exact else _SHADOW_EPS

    pts: list[Scalar] = [x0]
    shadow: list[float] = [float(x0)]
    digits: list[int] = []
    seen: dict[Scalar, int] = {x0: 0} if backend.is_exact else {}
    buckets: dict[int, list[int]] = {int(shadow[0] // eps_trigger): [0]}
    pending: list[tuple[int, int, int]] = []  # (s, p, due)
    failure = "iteration-cap"

    def finish(orb: Optional[PeriodicOrbit], preperiod, period) -> OrbitRecord:
        itin = Itinerary(tuple(digits), preperiod, period)
        return OrbitRecord(
            x0, tuple(pts), itin, orb, None if orb else failure
        )

    for t in range(max_iter):
        x = pts[t]
        d = f.digit(x)
        digits.append(d)
        if fail_on_breakpoint_hit and any(
            backend.eq(x, p) for p in f.breakpoints
        ):
            failure = "breakpoint-hit"
            return finish(None, None, None)
        nxt = f.ifs.maps[d - 1]._eval(x)
        pts.append(nxt)
        t1 = t + 1

        if backend.is_exact:
            s = seen.get(nxt)
            if s is not None:
                p = t1 - s
                rpts, rword = rotate_to_min(pts[s:t1], digits[s:t1])
                orb = PeriodicOrbit(rpts, p, rword)
                return finish(orb, s, p)
            seen[nxt] = t1

        fx = float(nxt)
        shadow.append(fx)
        key = int(fx // eps_trigger)
        hit = None
        for k in (key - 1, key, key + 1):
            for s in buckets.get(k, ()):
                if abs(shadow[s] - fx) <= eps_trigger:
                    if hit is None or s < hit:
                        hit = s
        buckets.setdefault(key, []).append(t1)
        if hit is not None and t1 - hit >= 1:
            pending.append((hit, t1 - hit, hit + 3 * (t1 - hit)))

        matured = [c for c in pending if c[2] <= t1]
        if matured:
            pending = [c for c in pending if c[2] > t1]
            for s, p, _ in matured:
                if len(digits) < s + 3 * p:
                    continue
                w = digits[s : s + p]
                if (
                    digits[s + p : s + 2 * p] != w
                    or digits[s + 2 * p : s + 3 * p] != w
                ):
                    continue
                if abs(shadow[s + p] - shadow[s]) > eps_trigger:
                    continue
                orb = _refine_candidate(f, w, backend, eps_orbit, eps_fp)
                if orb is None:
                    continue
                # earliest step from which the digits are already periodic
                s0 = s
                while s0 > 0 and digits[s0 - 1] == digits[s0 - 1 + orb.period]:
                    s0 -= 1
                return finish(orb, s0, orb.period)

    return finish(None, None, None)


def is_generic(
    f: PiecewiseContraction,
    depth: int,
    backend: Backend = EXACT,
    cap: int = 100_000,
) -> bool:
    """Finite-depth test that no composition sends a breakpoint (or 0) onto
    a breakpoint.

    A False result is definitive up to the tested depth; a True result is
    depth-limited.  Rational input under the exact backend is searched
    backwards, through the preimages of the breakpoints under every map,
    pruned to [0, 1] and to new points; ``cap`` bounds one tree level.
    Irrational preimages are dropped: no rational source reaches them.
    Otherwise (float backend or coefficients, a plateau on a tree point)
    all n**depth forward images are enumerated, ``cap`` bounding n**depth;
    a near-collision within the float tolerance counts as a collision.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    targets = f.breakpoints.points
    if not (backend.is_exact and _rational(targets) and _rational(f.ifs.maps)):
        return _generic_forward(f, depth, backend, cap)
    sources = {backend.zero, *targets}
    unit = Interval(backend.zero, backend.one)
    level = seen = set(targets)
    for _ in range(depth):
        nxt = set()
        for y in level:
            for m in f.ifs:
                try:
                    pre = m.preimages(y, unit, backend)
                except NonDiscretePreimageError:
                    return _generic_forward(f, depth, backend, cap)
                nxt.update(p for p in pre if not isinstance(p, float))
        if not nxt.isdisjoint(sources):
            return False
        nxt -= seen
        if len(nxt) > cap:
            raise CapExceededError(f"{len(nxt)} tree points exceed cap {cap}")
        seen |= nxt
        level = nxt
    return True


def _rational(v) -> bool:
    """No float among the scalars of v, descriptors searched by field."""
    if isinstance(v, MapDescriptor):
        v = tuple(getattr(v, fl.name) for fl in fields(v))
    if isinstance(v, tuple):
        return all(map(_rational, v))
    return not isinstance(v, float)


def _generic_forward(
    f: PiecewiseContraction, depth: int, backend: Backend, cap: int
) -> bool:
    """``is_generic`` by enumerating all n**depth forward images."""
    n = f.n
    if n**depth > cap:
        raise CapExceededError(f"{n}^{depth} compositions exceed cap {cap}")
    targets = f.breakpoints.points
    level = [backend.zero] + list(targets)
    for _ in range(depth):
        nxt = set()
        for x in level:
            for m in f.ifs:
                nxt.add(m._eval(x))
        for y in nxt:
            for x_j in targets:
                if backend.eq(y, x_j):
                    return False
        level = list(nxt)
    return True


def power_map(
    f: PiecewiseContraction,
    k: int,
    cap: int = DEFAULT_POWER_CAP,
    backend: Backend = EXACT,
) -> PiecewiseContraction:
    """The k-th iterate of f as a piecewise contraction.

    Breakpoints are the union of the backward iterates of the original
    breakpoints up to depth k-1; each refined branch follows a single digit
    word, and its map is the corresponding length-k composition.  Requires
    the exact backend: the refinement must be computed exactly.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    if not backend.is_exact:
        raise ValueError("power-map refinement requires the exact backend")
    cuts: set[Scalar] = set(f.breakpoints.points)
    level: set[Scalar] = set(f.breakpoints.points)
    for _ in range(k - 1):
        nxt: set[Scalar] = set()
        for q in level:
            for p in f.preimages(q, backend):
                if isinstance(p, float):
                    raise InexactPreimageError(
                        f"irrational preimage of {q} cannot refine exactly"
                    )
                if p not in cuts and 0 < p < 1:
                    nxt.add(p)
        cuts.update(nxt)
        level = nxt
        if len(cuts) + 1 > cap:
            raise CapExceededError(f"refined branch count exceeds cap {cap}")
    ys = sorted(cuts)

    def word_of(x: Scalar) -> tuple[int, ...]:
        word = []
        for _ in range(k):
            d = f.digit(x)
            word.append(d)
            x = f.ifs.maps[d - 1]._eval(x)
        return tuple(word)

    bounds = [backend.zero] + ys + [backend.one]
    branch_words = [
        word_of((lo + hi) / 2) for lo, hi in zip(bounds, bounds[1:])
    ]
    maps = tuple(_word_map(f, w) for w in branch_words)
    # a refined breakpoint belongs to whichever adjacent branch its own
    # k-step digit word follows (orientation of the hitting composition)
    closures = tuple(
        LEFT_OPEN if word_of(y) == branch_words[j] else RIGHT_OPEN
        for j, y in enumerate(ys)
    )
    return PiecewiseContraction(
        IteratedFunctionSystem(maps),
        Breakpoints(tuple(ys)),
        closures,
    )
