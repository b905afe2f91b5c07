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
from math import gcd
from typing import Iterator, Optional, Sequence

from .errors import CapExceededError, NonDiscretePreimageError
from .ifs import IteratedFunctionSystem
from .maps import DEFAULT_EPS_FP, Affine, Clamped, MapDescriptor, compose
from .numerics import (
    EXACT,
    Backend,
    Interval,
    Scalar,
    _key,
    _ratio,
    _raw_fraction,
    find_exact,
    float_keys,
    sort_pairs,
    unit_key,
)

RIGHT_OPEN = "right-open"  # breakpoint belongs to the branch on its right
LEFT_OPEN = "left-open"    # breakpoint belongs to the branch on its left

DEFAULT_MAX_ITER = 100_000
DEFAULT_EPS_ORBIT = 1e-10
DEFAULT_POWER_CAP = 10_000
DEFAULT_COMPOSITION_CAP = 100_000

# the exact backend's trigger width around the orbit checkpoint's float; it
# only proposes candidates there, correctness comes from exact verification
_SHADOW_EPS = 1e-9

_UNIT = Interval(EXACT.zero, EXACT.one)  # [0, 1] under the exact backend


@dataclass(frozen=True)
class Breakpoints:
    """Strictly increasing cut points inside (0, 1)."""

    points: tuple[Scalar, ...]

    def __post_init__(self):
        # Fraction points are compared by integer cross-multiplication
        # (denominators are positive), skipping Fraction's generic compares
        pts = self.points
        exact = all(type(p) is Fraction for p in pts)
        for p in pts:
            if not (0 < p._numerator < p._denominator if exact else 0 < p < 1):
                raise ValueError(f"breakpoint {p} outside (0, 1)")
        if exact:
            increasing = all(
                a._numerator * b._denominator < b._numerator * a._denominator
                for a, b in zip(pts, pts[1:])
            )
        else:
            increasing = all(a < b for a, b in zip(pts, pts[1:]))
        if not increasing:
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
    On a :func:`power_map` result, ``words[i-1]`` is the k-step digit word
    that branch i follows; elsewhere ``words`` is empty.
    """

    ifs: IteratedFunctionSystem
    breakpoints: Breakpoints
    closures: tuple[str, ...] = ()
    words: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False
    )

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

    @property
    def n(self) -> int:
        return len(self.ifs)

    def digit(self, x: Scalar) -> int:
        """The branch index i (1-based) whose domain contains x."""
        i, hit = find_exact(
            self.breakpoints.points, self._bp_keys, x, unit_key(x)
        )
        return i + 1 + (hit and self.closures[i] == RIGHT_OPEN)

    def __call__(self, x: Scalar) -> Scalar:
        if type(x) is Fraction and 0 < x._numerator < x._denominator:
            # off the breakpoint keys, the branch's form: _step inline, as
            # a call to it costs about a tenth of f(x); ties and every
            # other input take digit + _eval
            xn, xd = x._numerator, x._denominator
            keys, fx = self._bp_keys, xn / xd
            i = bisect_right(keys, fx)
            form = None if i and keys[i - 1] == fx else self._domains[i][4]
            if form is not None:
                A, B, D, _, _, dyadic = form
                # the Fraction built in place, in lowest terms.  The branch
                # maps [0, 1] into (0, 1), so 0 < num < den: on a power-of-
                # two den (dyadic D and x) the gcd is num's lowest set bit
                num, den = A * xn + B * xd, D * xd
                if dyadic and not xd & (xd - 1):
                    s = (num & -num).bit_length() - 1
                    num, den = num >> s, den >> s
                else:
                    g = gcd(num, den)
                    num, den = num // g, den // g
                y = object.__new__(Fraction)
                y._numerator, y._denominator = num, den
                return y
        return self.ifs.maps[self.digit(x) - 1]._eval(x)

    def preimages(self, y: Scalar) -> list[Scalar]:
        """All x in [0, 1) with f(x) = y, solved branch by branch.

        Branch domains are honored exactly, including the closure flags, so
        a solution sitting on a breakpoint is attributed to the branch that
        owns it.
        """
        found: list[Scalar] = []
        for m, dom, lo_inc, hi_inc, _ in self._domains:
            for p in m.preimages(y, dom):
                if (p == dom.lo and not lo_inc) or (p == dom.hi and not hi_inc):
                    continue
                found.append(p)
        # exact solutions ascend within their branch's domain, and a shared
        # end belongs to one branch: in branch order they already ascend
        return found

    @cached_property
    def _domains(self) -> tuple:
        """(map, closed domain, lo included, hi included, form) for each
        branch, the form from :func:`_branch_form`: the one per-branch
        cache, read by ``__call__``, the forward walks, the cycle fold, the
        backward walks and ``build_partition``.  A branch includes its lo
        end under a RIGHT_OPEN flag and its hi end under a LEFT_OPEN one."""
        ends = (_UNIT.lo, *self.breakpoints.points, _UNIT.hi)
        flags = (RIGHT_OPEN, *self.closures, RIGHT_OPEN)
        out = []
        branches = zip(self.ifs.maps, ends, ends[1:], flags, flags[1:])
        for m, lo, hi, lo_flag, hi_flag in branches:
            dom = Interval(lo, hi)
            out.append((m, dom, lo_flag == RIGHT_OPEN, hi_flag == LEFT_OPEN,
                        _branch_form(m, dom)))
        return tuple(out)


def _branch_form(m: MapDescriptor, dom: Interval) -> Optional[tuple]:
    """``(A, B, D, fu, fv, dyadic)``, the integer form of m on dom with
    D > 0, when dom's ends are Fractions and m is a rational ``Affine`` (a
    zero slope included) or a ``Clamped`` one whose rational window holds
    dom, which is its inner map there; else None.  x -> (A*x + B)/D is m
    on dom, and ``dyadic`` says D is a power of two.  When A != 0 the map
    is strictly monotone on dom, and fu <= fv are the float keys of the
    ends of its image of dom; else both are None.  The backward readers
    use a form only with those keys, and orient a decreasing map (A < 0)
    themselves."""
    lo, hi = dom.lo, dom.hi
    if type(lo) is not Fraction or type(hi) is not Fraction:
        return None
    ln, ld = lo._numerator, lo._denominator
    hn, hd = hi._numerator, hi._denominator
    if type(m) is Clamped:
        ends = _ratio(m.lo), _ratio(m.hi)
        if None in ends:
            return None
        (wln, wld), (whn, whd) = ends
        if wln * ld > ln * wld or hn * whd > whn * hd:  # the window cuts dom
            return None
        m = m.inner
    ints = m._ints if type(m) is Affine else None
    if ints is None:
        return None
    A, B, D = ints
    fu = fv = None
    if A:
        fu, fv = (A * ln + B * ld) / (D * ld), (A * hn + B * hd) / (D * hd)
        if A < 0:
            fu, fv = fv, fu
    return A, B, D, fu, fv, not D & (D - 1)


def _step(branch: tuple, x: Scalar) -> Scalar:
    """The image of x, a point of ``branch``'s domain, under its map (a
    ``PiecewiseContraction._domains`` entry): from the branch's form for a
    Fraction x, as ``__call__`` computes it, else the map's ``_eval``."""
    form = branch[4]
    if form is None or type(x) is not Fraction:
        return branch[0]._eval(x)
    A, B, D, _, _, dyadic = form
    xn, xd = x._numerator, x._denominator
    num, den = A * xn + B * xd, D * xd
    if dyadic and not xd & (xd - 1):
        s = (num & -num).bit_length() - 1
        num, den = num >> s, den >> s
    else:
        g = gcd(num, den)
        num, den = num // g, den // g
    y = object.__new__(Fraction)
    y._numerator, y._denominator = num, den
    return y


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
    points: Sequence[Scalar],
    word: Sequence[int],
    home_cycle: Optional[Sequence[int]] = None,
) -> PeriodicOrbit:
    """The orbit of a cycle, rotated to start at its smallest point; the
    word and the home cycle, if any, rotate by the same shift.

    Rounding to float is monotone, so the smallest point has the lowest
    float key; points tied on that key are compared by their exact integer
    ratios, and the first of equal points is taken, as ``min`` would.
    """
    k = 0
    if len(points) > 1:
        keys = float_keys(points)
        low = min(keys)
        k = keys.index(low)
        kn, kd = _ratio(points[k]) or points[k].as_integer_ratio()
        for i in range(k + 1, len(keys)):
            if keys[i] == low:
                n, d = _ratio(points[i]) or points[i].as_integer_ratio()
                if n * kd < kn * d:
                    k, kn, kd = i, n, d

    def rot(seq):
        return tuple(seq[k:]) + tuple(seq[:k]) if k else tuple(seq)

    return PeriodicOrbit(
        rot(points),
        len(points),
        rot(word),
        home_cycle=None if home_cycle is None else rot(home_cycle),
    )


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
    """The map of a digit word, first letter acting first.  A word of two
    or more rational ``Affine`` letters is folded once in integers
    (:func:`_affine_fold`); any other word is a ``compose`` chain."""
    maps = f.ifs.maps
    if len(word) > 1 and (form := _affine_fold(maps, word)) is not None:
        return Affine._from_ints(*form)
    m = maps[word[0] - 1]
    for d in word[1:]:
        m = compose(maps[d - 1], m)
    return m


def _affine_fold(
    maps: Sequence[MapDescriptor], word: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """The word map's integer form (A, B, D), x -> (A*x + B)/D with the
    first letter acting first, when every letter is a rational ``Affine``;
    else None.  The form is not reduced: ``Affine._from_ints`` reduces it
    to the unique form with gcd(A, B, D) = 1 that ``compose`` gives."""
    A, B, D = 1, 0, 1
    for d in word:
        form = getattr(maps[d - 1], "_ints", None)  # only an Affine has one
        if form is None:
            return None
        a, b, dd = form
        A, B, D = a * A, a * B + b * D, dd * D
    return A, B, D


def _walk(
    f: PiecewiseContraction, x: Scalar, k: int,
    word: Optional[Sequence[int]] = None,
):
    """``(points, digits)``: x, f(x), ..., f^{k-1}(x) and their digits, or
    None as soon as a digit differs from ``word``.  The float bisect of the
    breakpoints' keys picks each digit, as in ``__call__``; ``digit`` runs
    only on a key tie or a key outside (0, 1), and raises its ValueError
    for a point outside [0, 1).  Each next point is its branch's
    :func:`_step`, not ``f(x)``, so no digit is taken twice.
    """
    keys, branches = f._bp_keys, f._domains
    points, digits = [], []
    for t in range(k):
        if t:
            x = _step(branches[i], x)
        fx = _key(x)
        i = bisect_right(keys, fx)
        if (i and keys[i - 1] == fx) or not 0.0 < fx < 1.0:
            i = f.digit(x) - 1
        if word is not None and word[t] != i + 1:
            return None
        points.append(x)
        digits.append(i + 1)
    return points, digits


def _digit_word(f: PiecewiseContraction, x: Scalar, k: int) -> tuple[int, ...]:
    """The branch digits of x, f(x), ..., f^{k-1}(x)."""
    return tuple(_walk(f, x, k)[1])


def _refine_candidate(
    f: PiecewiseContraction,
    word: Sequence[int],
    backend: Backend,
    eps_orbit: float,
    eps_fp: float,
    home_cycle: Optional[Sequence[int]] = None,
) -> Optional[PeriodicOrbit]:
    """Solve the fixed point z of the composed word map and verify the cycle.

    The orbit of z is walked once (:func:`_walk`) and must follow the word.
    Exact backend, every letter's branch affine on its domain (a form in
    ``f._domains``, zero slopes included): the forms fold, as in
    :func:`_affine_fold`, into z = B/(D - A), in (0, 1) as each letter
    maps [0, 1] into (0, 1), and D - A > 0 as D > |A|.  A
    walk that follows the word applies each letter on its own domain,
    where the letter is its form, so the word map exactly, and it closes.
    Otherwise z is the word map's ``fixed_point``, and the last letter must
    send the walk back to z: exactly for a Fraction z under the exact
    backend, within max(eps_orbit, 10*eps_fp) otherwise.  Returns None when
    verification fails (a spurious candidate).  The orbit search passes an
    itinerary's repeated word; a quasi-partition passes each index cycle's
    word, with the cycle as ``home_cycle``.
    """
    folded = False
    if backend.is_exact:
        # _affine_fold inline: a list of the branches' forms for it cost
        # about 1 us per partition-steep item
        branches, A, B, D = f._domains, 1, 0, 1
        for d in word:
            form = branches[d - 1][4]
            if form is None:
                break
            a, b, dd = form[0], form[1], form[2]
            A, B, D = a * A, a * B + b * D, dd * D
        else:
            folded, z = True, _raw_fraction(B, D - A)
    if not folded:
        try:
            z = _word_map(f, word).fixed_point(eps_fp)
        except (ValueError, ArithmeticError):
            return None
    try:
        walked = _walk(f, z, len(word), word)
    except ValueError:  # a point outside [0, 1)
        return None
    if walked is None:
        return None
    pts, digits = walked
    if not folded:
        y = f.ifs.maps[word[-1] - 1]._eval(pts[-1])
        if backend.is_exact and isinstance(z, Fraction):
            closes = y == z
        else:
            closes = abs(y - z) <= max(eps_orbit, 10 * eps_fp)
        if not closes:
            return None
    return rotate_to_min(pts, digits, home_cycle)


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

    Exact backend: a repeated exact point closes a cycle at once.  Both
    backends: one checkpoint, a step c and its float, proposes candidates
    (Brent's doubling); it starts at 0 and moves to step t once t >= 2c.
    A step t within the trigger width (eps_orbit, or ``_SHADOW_EPS`` under
    the exact backend) of the checkpoint's float is a candidate of period
    p = t - c.  At step c + 3p = 3t - 2c it is confirmed when the digit
    word w of c, ..., c+p-1 has repeated three times and
    :func:`_refine_candidate` verifies the cycle of w's shortest root u
    (w is u repeated; a u it refused is not solved again in the run); the
    preperiod then backs off to the first step from which the digits
    repeat with period len(u).  ``fail_on_breakpoint_hit``
    makes an orbit point equal to a breakpoint (within ``eps_cmp`` under
    the float backend) end the run as "breakpoint-hit".  Each step is its
    branch's :func:`_step`.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 <= x0 < 1:
        raise ValueError(f"initial condition {x0} outside [0, 1)")
    eps_trigger = eps_orbit if not backend.is_exact else _SHADOW_EPS
    pts: list[Scalar] = [x0]
    digits: list[int] = []
    seen: dict[Scalar, int] = {x0: 0} if backend.is_exact else {}
    branches = f._domains
    c, fc = 0, float(x0)  # the checkpoint: a step and its float
    due: dict[int, list[tuple[int, int]]] = {}  # step -> [(s, p), ...]
    rejected: set[tuple[int, ...]] = set()  # roots _refine_candidate refused
    orb, preperiod, failure = None, None, "iteration-cap"
    for t in range(1, max_iter + 1):
        x = pts[-1]
        d = f.digit(x)
        digits.append(d)
        if fail_on_breakpoint_hit and any(
            backend.eq(x, p) for p in f.breakpoints
        ):
            failure = "breakpoint-hit"
            break
        nxt = _step(branches[d - 1], x)
        pts.append(nxt)
        if backend.is_exact:
            s = seen.setdefault(nxt, t)
            if s < t:
                orb, preperiod = rotate_to_min(pts[s:t], digits[s:t]), s
                break
        fx = float(nxt)
        if abs(fx - fc) <= eps_trigger:
            due.setdefault(3 * t - 2 * c, []).append((c, t - c))
        if t >= 2 * c:
            c, fc = t, fx

        for s, p in due.pop(t, ()):
            w = digits[s : s + p]
            if digits[s + p :] == w * 2:
                # the shortest root: the least rotation that gives w back
                p = next(q for q in range(1, p + 1) if w[q:] + w[:q] == w)
                root = tuple(w[:p])
                if root in rejected:  # the same solve would reject it again
                    continue
                orb = _refine_candidate(f, w[:p], backend, eps_orbit, eps_fp)
                if orb is not None:
                    break
                rejected.add(root)
        if orb is not None:
            # earliest step from which the digits are already periodic
            while s > 0 and digits[s - 1] == digits[s - 1 + p]:
                s -= 1
            preperiod = s
            break

    itin = Itinerary(tuple(digits), preperiod, orb.period if orb else None)
    return OrbitRecord(x0, tuple(pts), itin, orb, None if orb else failure)


def _level_preimages(branches, level):
    """``(ys, xs, inexact)``: the preimages of one level of reduced
    (num, den) pairs under every branch, ``xs[i]`` solving ``ys[i]``.

    ``branches`` has the form of ``PiecewiseContraction._domains``, and
    the level need not be sorted.  A branch whose form has image keys
    (:func:`_branch_form`: a nonzero slope) tests each y where it stands:
    rounding is monotone, so a key outside [fu, fv] is outside the image
    and one strictly inside is inside.  The map is strictly monotone, so
    for a key tied with an end's, y is in the image exactly when its
    solution x is in the domain, which integers decide with the closure
    flags.  Each y inside is solved with one gcd.  Any other branch (a
    zero slope among them) solves the level ascending through its map's
    ``preimages`` on its domain, drops an end its closure flags exclude,
    and lists in ``inexact`` each y with an irrational root, in branch
    order then ascending.  A plateau on a y raises that map's
    NonDiscretePreimageError, the smallest such y first.
    """
    ys, xs, inexact = [], [], []
    keyed = ascending = None
    for m, dom, lo_in, hi_in, form in branches:
        if form is not None and form[3] is not None:
            A, B, D, fu, fv, _ = form
            if keyed is None:
                keyed = [(y, y[0] / y[1]) for y in level]
            for y, fy in keyed:
                if not fu <= fy <= fv:
                    continue
                # x = (y - B/D) / (A/D) = (yn*D - B*yd) / (A*yd), oriented
                # to a positive den for a decreasing branch (A < 0)
                yn, yd = y
                num, den = yn * D - B * yd, A * yd
                if A < 0:
                    num, den = -num, -den
                if fy == fu or fy == fv:  # the signs of x - lo and hi - x
                    (ln, ld), (hn, hd) = _ratio(dom.lo), _ratio(dom.hi)
                    c, e = num * ld - ln * den, hn * den - num * hd
                    if c < 0 or e < 0 or not (c or lo_in) or not (e or hi_in):
                        continue
                g = gcd(num, den)
                ys.append(y)
                xs.append((num // g, den // g))
            continue
        if ascending is None:
            ascending = sort_pairs(level)[0]
        for y in ascending:
            for p in m.preimages(_raw_fraction(*y), dom):
                if (p == dom.lo and not lo_in) or (p == dom.hi and not hi_in):
                    continue
                if isinstance(p, float):
                    inexact.append(y)
                else:
                    ys.append(y)
                    xs.append(_ratio(p))
    return ys, xs, inexact


def is_generic(
    f: PiecewiseContraction,
    depth: int,
    backend: Backend = EXACT,
    cap: int = DEFAULT_COMPOSITION_CAP,
) -> bool:
    """Finite-depth test that no composition sends a breakpoint (or 0) onto
    a breakpoint.

    A False result is definitive up to the tested depth; a True result is
    depth-limited.  Rational input under the exact backend is searched
    backwards, through the preimages of the breakpoints under every map
    over [0, 1] (:func:`_level_preimages`), pruned to new points; ``cap``
    bounds one tree level.  Irrational roots are dropped: no rational
    source reaches them.  Otherwise (float backend or coefficients, a
    plateau on a tree point) all n**depth forward images are enumerated,
    ``cap`` bounding n**depth; a near-collision within the float tolerance
    counts as a collision.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    targets = f.breakpoints.points
    if not (backend.is_exact and _rational(targets) and _rational(f.ifs.maps)):
        return _generic_forward(f, depth, backend, cap)
    branches = [
        (m, _UNIT, True, True, _branch_form(m, _UNIT)) for m in f.ifs.maps
    ]
    level = seen = set(map(_ratio, targets))
    sources = {(0, 1), *seen}
    for _ in range(depth):
        try:
            nxt = set(_level_preimages(branches, level)[1])
        except NonDiscretePreimageError:
            return _generic_forward(f, depth, backend, cap)
        if not nxt.isdisjoint(sources):
            return False
        nxt -= seen
        if len(nxt) > cap:
            raise CapExceededError(f"{len(nxt)} tree points exceed cap {cap}")
        seen |= nxt
        level = nxt
    return True


def _rational(v) -> bool:
    """No float among the scalars of v, descriptors searched by field.  An
    Affine with its integer form has int or Fraction coefficients."""
    if type(v) is Affine and v._ints is not None:
        return True
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
) -> PiecewiseContraction:
    """The k-th iterate of f as a piecewise contraction.

    Breakpoints are the union of the backward iterates of the original
    breakpoints up to depth k-1; each refined branch follows a single digit
    word, and its map is the corresponding length-k composition.  The
    refinement is computed under the exact backend only.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    from .quasipartition import preimage_set  # quasipartition imports pcmap

    ys = [p for p in preimage_set(f, k - 1, cap).points if p]
    if len(ys) + 1 > cap:
        raise CapExceededError(f"refined branch count exceeds cap {cap}")
    bounds = [EXACT.zero] + ys + [EXACT.one]
    branch_words = tuple(
        _digit_word(f, Interval(lo, hi).midpoint(), k)
        for lo, hi in zip(bounds, bounds[1:])
    )
    maps = tuple(_word_map(f, w) for w in branch_words)
    # a refined breakpoint belongs to whichever adjacent branch its own
    # k-step digit word follows (orientation of the hitting composition)
    closures = tuple(
        LEFT_OPEN if _digit_word(f, y, k) == branch_words[j] else RIGHT_OPEN
        for j, y in enumerate(ys)
    )
    return PiecewiseContraction(
        IteratedFunctionSystem(maps),
        Breakpoints(tuple(ys)),
        closures,
        branch_words,
    )
