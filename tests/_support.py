"""Shared fixtures-by-hand for the test suites."""

from __future__ import annotations

import math
import random
from dataclasses import fields
from fractions import Fraction as F

from pcdyn import (
    EXACT,
    Affine,
    BoundaryOrbitError,
    Breakpoints,
    CapExceededError,
    Clamped,
    Composed,
    InexactPreimageError,
    Interval,
    IntervalSet,
    IteratedFunctionSystem,
    MapDescriptor,
    NonDiscretePreimageError,
    PartitionInvarianceError,
    PiecewiseContraction,
    Quadratic,
    ifs_image,
)
from pcdyn import pcmap
from pcdyn.maps import DEFAULT_EPS_FP
from pcdyn.numerics import format_scalar
from pcdyn.pcmap import (
    DEFAULT_EPS_ORBIT,
    DEFAULT_MAX_ITER,
    RIGHT_OPEN,
    _SHADOW_EPS,
    Itinerary,
    OrbitRecord,
    _generic_forward,
    _word_map,
    rotate_to_min,
)
from pcdyn.quasipartition import (
    COMPLETE,
    TRUNCATED,
    PreimageSet,
    QPoint,
    QuasiPartition,
)


def example_ifs() -> IteratedFunctionSystem:
    """The two increasing affine maps whose attractor limit is [1/8, 1/2]."""
    return IteratedFunctionSystem(
        (Affine(F(4, 5), F(1, 10)), Affine(F(3, 5), F(1, 20)))
    )


def generic_sequence(ifs, k_max, backend=EXACT):
    """Attractor-set oracle: A_0 = [0, 1] and k_max applications of
    ifs_image, the path attractor_sequence takes for non-affine input."""
    seq = [IntervalSet.unit(backend)]
    for _ in range(k_max):
        seq.append(ifs_image(ifs, seq[-1], backend))
    return seq


def period3_pc() -> PiecewiseContraction:
    """Two half-slope branches split at 3/10; carries a period-3 cycle."""
    return PiecewiseContraction(
        IteratedFunctionSystem(
            (Affine(F(1, 2), F(1, 4)), Affine(F(1, 2), F(1, 8)))
        ),
        Breakpoints((F(3, 10),)),
    )


def constant_pc() -> PiecewiseContraction:
    """Two constant branches; saturates the orbit-count bound for n = 2."""
    return PiecewiseContraction(
        IteratedFunctionSystem((Affine(F(0), F(1, 3)), Affine(F(0), F(2, 3)))),
        Breakpoints((F(1, 2),)),
    )


def depth6_connection_pc() -> PiecewiseContraction:
    """x/2 + 1/4 and x/3 + 1/5 split at 63/128: the first branch walks 0
    through 1/4, 3/8, ..., 31/64 onto the breakpoint in six steps, a
    connection that no composition of five maps makes."""
    return PiecewiseContraction(
        IteratedFunctionSystem(
            (Affine(F(1, 2), F(1, 4)), Affine(F(1, 3), F(1, 5)))
        ),
        Breakpoints((F(63, 128),)),
    )


def rand_fraction(rng: random.Random, lo: F, hi: F, denom: int = 2**16) -> F:
    span = hi - lo
    return lo + span * F(rng.randrange(denom + 1), denom)


def rand_affine(rng: random.Random, kappa_max: F = F(9, 10)) -> Affine:
    a = rand_fraction(rng, -kappa_max, kappa_max)
    margin = F(1, 100)
    b = rand_fraction(rng, margin - min(a, 0), 1 - margin - max(a, 0))
    return Affine(a, b)


def rand_quadratic(rng: random.Random) -> Quadratic:
    while True:
        a = rand_fraction(rng, F(-2, 5), F(2, 5))
        b = rand_fraction(rng, F(-1, 2), F(1, 2))
        c = rand_fraction(rng, F(1, 10), F(9, 10))
        try:
            return Quadratic(a, b, c)
        except ValueError:
            continue


def rand_clamped(rng: random.Random) -> Clamped:
    inner = rand_affine(rng, F(2, 5))
    lo = rand_fraction(rng, F(0), F(2, 5))
    hi = rand_fraction(rng, lo + F(1, 10), F(1))
    return Clamped(inner, lo, hi)


def rand_descriptor(rng: random.Random, depth: int = 1):
    kinds = ["affine", "affine", "quadratic", "clamped"]
    if depth > 0:
        kinds.append("composed")
    kind = rng.choice(kinds)
    if kind == "affine":
        return rand_affine(rng)
    if kind == "quadratic":
        return rand_quadratic(rng)
    if kind == "clamped":
        return rand_clamped(rng)
    return Composed(
        tuple(rand_descriptor(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    )


# --- Fraction oracles for the integer kernels ---------------------------------


def fraction_measure(s: IntervalSet):
    """IntervalSet.measure as a running sum of interval lengths."""
    total = 0
    for iv in s.components:
        total += iv.length
    return total


def fraction_rationalize(x: float, bits: int) -> F:
    """x rounded to the nearest multiple of 2**-bits, through the Fraction
    constructor: the sampler's grid."""
    scale = 1 << bits
    return F(int(round(float(x) * scale)), scale)


def fraction_intercept_range(a: F, margin) -> tuple[float, float]:
    """draw_affine's intercept bounds through Fraction arithmetic."""
    return float(margin - min(a, 0)), float(1 - margin - max(a, 0))


def fraction_gaps_at_least(pts, margin) -> bool:
    """draw_breakpoints' gap test through Fraction arithmetic."""
    return all(b - a >= margin for a, b in zip(pts, pts[1:]))


def affine_check_error(a, b):
    """The ValueError message Affine(a, b) must raise, None when it is
    valid: the generic check through the scalars' own operators."""
    if not abs(a) < 1:
        return f"Lipschitz bound >= 1: |a| = {abs(a)}"
    for v in (b, a + b):
        if not 0 < v < 1:
            return f"image of [0, 1] leaves (0, 1): endpoint value {v}"
    return None


def breakpoints_check_error(points):
    """The ValueError message Breakpoints(points) must raise, None when
    the points are valid: the generic check through the scalars' own
    operators."""
    for p in points:
        if not 0 < p < 1:
            return f"breakpoint {p} outside (0, 1)"
    if any(a >= b for a, b in zip(points, points[1:])):
        return "breakpoints not strictly increasing"
    return None


def sampling_check_error(cfg, where={}):
    """(line, message) of the ConfigError check_sampling(cfg, where) must
    raise, None when the bounds pass: every check in order, through the
    scalars' own operators and with eps_range always formatted.  The draw
    chance is the exact Fraction power, rounded once."""
    e, n = cfg.eps_range, cfg.n
    if not isinstance(e, (int, F)):
        return where.get("eps_range"), f"eps_range {e} must be an int or a Fraction"
    eps = format_scalar(e)
    chance = 1.0
    if n >= 2 and 0 <= e and n * e < 1:
        chance = float((1 - (n - 2) * e / (1 - 2 * e)) ** (n - 1))
    tries = 1 / chance if chance else math.inf
    checks = [
        (n < 2, "n", f"n {n} must be >= 2"),
        (cfg.kappa_max != cfg.kappa_max, "kappa_max",
         f"kappa_max {cfg.kappa_max} is not a number"),
        (e < 0 or n * e >= 1, "eps_range",
         f"eps_range {eps} must be >= 0 with n*eps_range < 1 (n {n})"),
        (chance < 1e-6, "n" if "n" in where else "eps_range",
         f"n {n} with eps_range {eps} expects {tries:.2g} breakpoint tries a "
         f"sample (chance {chance:.2g} a try, below 1e-06)"),
        (cfg.kappa_max < 0, "kappa_max",
         f"kappa_max {cfg.kappa_max} must be >= 0"),
        (cfg.kappa_max >= 1 - 2 * e, "kappa_max",
         f"kappa_max {cfg.kappa_max} must be below 1 - 2*eps_range = "
         f"{format_scalar(1 - 2 * e)} (eps_range {eps})"),
    ]
    for failed, key, message in checks:
        if failed:
            return where.get(key), message
    return None


def generic_value(f, x):
    """f(x) through digit and the branch map's generic a*x + b; a clamped
    affine branch first clamps x into its window by comparison.  Other
    branch maps evaluate through their own _eval."""
    m = f.ifs.maps[f.digit(x) - 1]
    if isinstance(m, Clamped) and isinstance(m.inner, Affine):
        x = min(max(x, m.lo), m.hi)
        m = m.inner
    if isinstance(m, Affine):
        return m.a * x + m.b
    return m._eval(x)


def fraction_compose(outer: Affine, inner: Affine) -> Affine:
    """compose() of two affine maps through generic Fraction arithmetic."""
    return Affine(outer.a * inner.a, outer.a * inner.b + outer.b)


def fraction_word_map(f: PiecewiseContraction, word) -> Affine:
    """The map of a digit word of an affine system, first digit acting
    first, composed through :func:`fraction_compose`."""
    m = f.ifs.maps[word[0] - 1]
    for d in word[1:]:
        m = fraction_compose(f.ifs.maps[d - 1], m)
    return m


def fraction_digit(f: PiecewiseContraction, x) -> int:
    """f.digit by comparing x with each breakpoint in turn: x lies past a
    breakpoint it exceeds, or equals under the right-open flag."""
    d = 1
    for p, c in zip(f.breakpoints, f.closures):
        d += x > p or (x == p and c == RIGHT_OPEN)
    return d


def fraction_digit_word(f: PiecewiseContraction, x, k: int) -> tuple:
    """The digits of x, f(x), ..., f^{k-1}(x) by :func:`fraction_digit`,
    each step through the branch map's own ``_eval``."""
    word = []
    for _ in range(k):
        d = fraction_digit(f, x)
        word.append(d)
        x = f.ifs.maps[d - 1]._eval(x)
    return tuple(word)


def generic_digit_word(f: PiecewiseContraction, x, k: int) -> tuple:
    """The digits of x, f(x), ..., f^{k-1}(x): ``f.digit`` and the branch
    map's ``_eval`` at every step."""
    word = []
    for _ in range(k):
        d = f.digit(x)
        word.append(d)
        x = f.ifs.maps[d - 1]._eval(x)
    return tuple(word)


def affine_on_domain(f: PiecewiseContraction, d: int):
    """Branch d's map as a rational Affine when the branch is affine on
    its domain: a rational Affine (a zero slope included), or a Clamped
    one whose rational window holds the domain, which is its inner map
    there; else None."""
    ends = (0,) + tuple(f.breakpoints) + (1,)
    lo, hi = ends[d - 1], ends[d]
    m = f.ifs.maps[d - 1]
    exact = (int, F)
    if isinstance(m, Clamped) and all(isinstance(v, exact) for v in (m.lo, m.hi)):
        if not m.lo <= lo < hi <= m.hi:
            return None
        m = m.inner
    if not isinstance(m, Affine):
        return None
    return m if all(isinstance(v, exact) for v in (m.a, m.b, lo, hi)) else None


def generic_cycle_orbit(
    f: PiecewiseContraction, word, backend, eps_orbit, eps_fp, home_cycle=None
):
    """_refine_candidate as a loop: z is the fixed point b/(1 - a) of the
    letters' affine maps composed in Fractions, under the exact backend
    when every letter's branch is affine on its domain
    (:func:`affine_on_domain`), else the composed word map's
    ``fixed_point``.  z is walked by ``f.digit`` and ``_eval`` (a
    ValueError means no orbit); the digits must be the word, and the walk
    must return to z exactly for a Fraction z under the exact backend,
    within max(eps_orbit, 10*eps_fp) otherwise."""
    letters = [None]
    if backend.is_exact:
        letters = [affine_on_domain(f, d) for d in word]
    if None not in letters:
        a, b = F(1), F(0)
        for m in letters:
            a, b = m.a * a, m.a * b + m.b
        z = b / (1 - a)
    else:
        try:
            z = _word_map(f, word).fixed_point(eps_fp)
        except (ValueError, ArithmeticError):
            return None
    if not 0 <= z < 1:
        return None
    pts, digits, cur = [], [], z
    for _ in word:
        pts.append(cur)
        try:
            d = f.digit(cur)
        except ValueError:
            return None
        digits.append(d)
        cur = f.ifs.maps[d - 1]._eval(cur)
    if tuple(digits) != tuple(word):
        return None
    if backend.is_exact and isinstance(z, F):
        if cur != z:
            return None
    elif abs(cur - z) > max(eps_orbit, 10 * eps_fp):
        return None
    return rotate_to_min(pts, digits, home_cycle)


def iterated_fixed_point(m, eps_fp, cap=10**6):
    """The fixed point by contraction iteration from 1/2, each next point
    rounded to a float, until successive iterates differ by at most
    ``eps_fp``: the solve MapDescriptor.fixed_point replaced."""
    z = 0.5
    for _ in range(cap):
        nz = m._eval(z)
        if abs(nz - z) <= eps_fp:
            return nz
        z = float(nz)
    raise AssertionError(f"iteration did not settle within {cap} steps")


def float_descriptor(m):
    """m with every coefficient and window end as a float."""
    if isinstance(m, Affine):
        return Affine(float(m.a), float(m.b))
    if isinstance(m, Quadratic):
        return Quadratic(float(m.a), float(m.b), float(m.c))
    if isinstance(m, Clamped):
        return Clamped(float_descriptor(m.inner), float(m.lo), float(m.hi))
    return Composed(tuple(map(float_descriptor, m.chain)))


def fraction_cycle_orbit(f: PiecewiseContraction, word, home_cycle=None):
    """The exact cycle solve of an affine word on Fractions: the fixed
    point b/(1 - a) of :func:`fraction_word_map`, walked by
    :func:`fraction_digit` and each branch's a*x + b; None when a point's
    digit leaves the word or the walk does not close."""
    m = fraction_word_map(f, word)
    z = m.b / (1 - m.a)
    if not 0 <= z < 1:
        return None
    pts, x = [], z
    for d in word:
        if fraction_digit(f, x) != d:
            return None
        pts.append(x)
        m = f.ifs.maps[d - 1]
        x = m.a * x + m.b
    if x != z:
        return None
    return rotate_to_min(pts, tuple(word), home_cycle)


def fraction_periodic_orbits(f: PiecewiseContraction, part: QuasiPartition):
    """periodic_orbits of an affine system through
    :func:`fraction_cycle_orbit`, one per cycle in ``basins`` order, with
    the same BoundaryOrbitError for the first cycle that fails."""
    orbits = []
    for cyc in dict.fromkeys(part.basins):
        word = tuple(part.branch[l - 1] for l in cyc)
        orb = fraction_cycle_orbit(f, word, cyc)
        if orb is None:
            raise BoundaryOrbitError(
                f"the fixed point of index cycle {';'.join(map(str, cyc))}"
                f" does not follow its word {';'.join(map(str, word))}"
            )
        orbits.append(orb)
    return orbits


def pending_list_orbit(
    f: PiecewiseContraction,
    x0,
    max_iter: int = DEFAULT_MAX_ITER,
    backend=EXACT,
    eps_orbit: float = DEFAULT_EPS_ORBIT,
    eps_fp: float = DEFAULT_EPS_FP,
    fail_on_breakpoint_hit: bool = False,
) -> OrbitRecord:
    """orbit() with every cycle candidate in one pending list that each
    step rescans for the candidates that have matured, each re-checked for
    three periods of digits and for its shadow's closeness, and three
    exits through one ``finish`` closure.  Step t's checkpoint is read off
    t itself, the largest power of two below t (0 at t = 1), and a
    confirmed word w is cut to its shortest root u, the shortest prefix
    with w == u * (len(w) // len(u)); a root refused once is found in a
    list of the refused roots and skipped.  It looks ``_refine_candidate``
    up in pcdyn.pcmap at each call, so a patch there sees both loops."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 <= x0 < 1:
        raise ValueError(f"initial condition {x0} outside [0, 1)")

    eps_trigger = eps_orbit if not backend.is_exact else _SHADOW_EPS

    pts = [x0]
    shadow = [float(x0)]
    digits = []
    seen = {x0: 0} if backend.is_exact else {}
    pending = []  # (s, p, due)
    rejected = []  # the roots _refine_candidate refused, as lists
    failure = "iteration-cap"

    def finish(orb, preperiod, period) -> OrbitRecord:
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
                return finish(rotate_to_min(pts[s:t1], digits[s:t1]), s, p)
            seen[nxt] = t1

        shadow.append(float(nxt))
        k = 1 << (t1 - 1).bit_length() >> 1  # the checkpoint
        if abs(shadow[t1] - shadow[k]) <= eps_trigger:
            pending.append((k, t1 - k, k + 3 * (t1 - k)))

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
                q = next(
                    q for q in range(1, p + 1)
                    if p % q == 0 and w == w[:q] * (p // q)
                )
                if w[:q] in rejected:
                    continue
                orb = pcmap._refine_candidate(
                    f, w[:q], backend, eps_orbit, eps_fp
                )
                if orb is None:
                    rejected.append(w[:q])
                    continue
                # earliest step from which the digits are already periodic
                s0 = s
                while s0 > 0 and digits[s0 - 1] == digits[s0 - 1 + orb.period]:
                    s0 -= 1
                return finish(orb, s0, orb.period)

    return finish(None, None, None)


# --- Fraction oracles for the backward walks ------------------------------------


def field_rational(v) -> bool:
    """pcmap._rational by the dataclass field walk alone: no float among
    the scalars of v, descriptors searched by field."""
    if isinstance(v, MapDescriptor):
        v = tuple(getattr(v, fl.name) for fl in fields(v))
    if isinstance(v, tuple):
        return all(map(field_rational, v))
    return not isinstance(v, float)


def fraction_is_generic(f: PiecewiseContraction, depth: int, cap: int = 100_000):
    """is_generic's backward tree for rational input on sets of Fractions:
    every map's own ``preimages`` of every tree point over [0, 1], level by
    level, irrational roots dropped, a plateau handing over to the forward
    enumeration."""
    targets = f.breakpoints.points
    sources = {F(0), *targets}
    unit = Interval(F(0), F(1))
    level = seen = set(targets)
    for _ in range(depth):
        nxt = set()
        for y in level:
            for m in f.ifs:
                try:
                    pre = m.preimages(y, unit)
                except NonDiscretePreimageError:
                    return _generic_forward(f, depth, EXACT, cap)
                nxt.update(p for p in pre if not isinstance(p, float))
        if not nxt.isdisjoint(sources):
            return False
        nxt -= seen
        if len(nxt) > cap:
            raise CapExceededError(f"{len(nxt)} tree points exceed cap {cap}")
        seen |= nxt
        level = nxt
    return True


def fraction_preimage_set(
    f: PiecewiseContraction, depth_cap: int = 64, size_cap: int = 10_000
) -> PreimageSet:
    """preimage_set point by point: each frontier point's ``f.preimages``
    in discovery order, on a set of Fractions."""
    entries = [QPoint(p, i, 0) for i, p in enumerate(f.breakpoints, start=1)]
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
        level = []
        for e in frontier:
            for p in f.preimages(e.point):
                if isinstance(p, float):
                    raise InexactPreimageError(f"irrational preimage of {e.point}")
                if p not in seen:
                    seen.add(p)
                    level.append(QPoint(p, e.source, depth))
        entries.extend(level)
        if len(entries) > size_cap:
            status = TRUNCATED
            break
        frontier = level
    entries.sort(key=lambda e: e.point)
    return preimage_set_of(entries, depth, status)


def forward_connections(f: PiecewiseContraction, qset: PreimageSet) -> tuple:
    """connections by a forward walk: each source s in (0, x_1, ...,
    x_{n-1}) is iterated, and each f^d(s), d >= 1, compared with the
    breakpoints by Fraction equality.  A walk stops once its point leaves
    the complete closure ``qset``, since no later point can reach a
    breakpoint; a closure point reaches its breakpoint within
    ``qset.depth_reached`` steps."""
    closure, targets = qset.points, f.breakpoints.points
    found = []
    for s in (F(0),) + targets:
        x = f(s)
        for _ in range(qset.depth_reached + 1):
            if not any(x == q for q in closure):
                break
            if any(x == b for b in targets):
                found.append(s)
                break
            x = f(x)
        else:
            raise AssertionError(f"{s}'s walk stays in the closure")
    return tuple(found)


def preimage_set_of(entries, depth_reached=1, status=COMPLETE) -> PreimageSet:
    """A PreimageSet holding the given QPoints, in the given order."""
    return PreimageSet(
        tuple(e.point for e in entries),
        tuple((e.source, e.depth) for e in entries),
        depth_reached,
        status,
    )


def fraction_build_partition(
    f: PiecewiseContraction, qset: PreimageSet
) -> QuasiPartition:
    """build_partition with an exact preimage query for every closure point
    inside every interval's image, on every branch, each interval's branch
    taken at its midpoint once every breakpoint is known to be a cut."""
    if not qset.is_complete:
        raise ValueError("partition requires a complete backward closure")
    cuts = tuple(p for p in qset.points if 0 < p < 1)
    if any(p not in cuts for p in f.breakpoints):
        raise ValueError("breakpoint missing from the closure points")
    bounds = (F(0),) + cuts + (F(1),)
    intervals = tuple(Interval(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    transition, branch = [], []
    for j, iv in enumerate(intervals, start=1):
        mid = (iv.lo + iv.hi) / 2
        d = f.digit(mid)
        phi = f.ifs.maps[d - 1]
        img = phi.image(iv)
        for q in cuts:
            if not img.lo <= q <= img.hi:
                continue
            try:
                hits = phi.preimages(q, iv)
            except NonDiscretePreimageError as exc:
                raise PartitionInvarianceError(
                    f"interval {j} has a plateau on closure point {q}"
                ) from exc
            if any(iv.lo < p < iv.hi for p in hits):
                raise PartitionInvarianceError(
                    f"image of interval {j} straddles closure point {q}"
                )
        y = phi(mid)
        if y in cuts:
            raise PartitionInvarianceError(
                f"image midpoint of interval {j} lies on a closure point"
            )
        transition.append(sum(c < y for c in cuts) + 1)
        branch.append(d)
    return QuasiPartition(f, qset, cuts, tuple(transition), tuple(branch))
