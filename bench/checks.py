"""Output checks, computed by the benchmark's own code.

Nothing here calls pcdyn.  The oracle is an exact affine evaluator on
``Fraction`` operators, a breakpoint bisect for branch digits, a backward
search over map preimages and a vectorised float forward iteration.  Each
checker takes plain data (tuples of Fractions, ints and CSV text) and
returns a list of ``(item, message)`` problems; an empty list means the
output passed.  ``item`` is the index of the failing item within its pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

Maps = Sequence[tuple[Fraction, Fraction]]  # (a, b) for x -> a*x + b
Problem = tuple[int, str]

FLOAT_BURN = 400  # slopes are at most 9/10 and 0.9**400 < 1e-18
FLOAT_MAX_PERIOD = 64
FLOAT_CLOSE = 1e-12
FLOAT_MATCH = 1e-9
FLOAT_CHUNK = 64  # instances per vectorised batch; bounds the arrays' memory


# --- the oracle -------------------------------------------------------------

def digit(x: Fraction, bps: Sequence[Fraction]) -> int:
    """1-based branch of x; branch i is [x_{i-1}, x_i)."""
    return bisect_right(bps, x) + 1


def pc_eval(x: Fraction, bps: Sequence[Fraction], maps: Maps) -> Fraction:
    a, b = maps[digit(x, bps) - 1]
    return a * x + b


def pc_iterate(x: Fraction, bps: Sequence[Fraction], maps: Maps, k: int) -> Fraction:
    for _ in range(k):
        x = pc_eval(x, bps, maps)
    return x


def branch_preimages(y: Fraction, bps: Sequence[Fraction], maps: Maps) -> list[Fraction]:
    """All x in [0, 1) with f(x) = y, one candidate per branch."""
    bounds = (Fraction(0),) + tuple(bps) + (Fraction(1),)
    out = []
    for i, (a, b) in enumerate(maps):
        x = (y - b) / a
        if bounds[i] <= x < bounds[i + 1]:
            out.append(x)
    return out


def backward_closure(
    bps: Sequence[Fraction], maps: Maps, max_depth: int, max_size: int
) -> Optional[set[Fraction]]:
    """Every backward iterate of the breakpoints, or None past either limit."""
    seen = set(bps)
    frontier = list(bps)
    for _ in range(max_depth):
        if not frontier:
            return seen
        nxt = []
        for y in frontier:
            for x in branch_preimages(y, bps, maps):
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        if len(seen) > max_size:
            return None
        frontier = nxt
    return None if frontier else seen


def backward_refinement(bps: Sequence[Fraction], maps: Maps, k: int) -> list[Fraction]:
    """Breakpoints of f^k: backward iterates of depth < k inside (0, 1)."""
    cuts = set(bps)
    level = set(bps)
    for _ in range(k - 1):
        level = {x for y in level for x in branch_preimages(y, bps, maps) if x > 0}
        cuts |= level
    return sorted(cuts)


def generic_by_backward_search(bps: Sequence[Fraction], maps: Maps, depth: int) -> bool:
    """True iff no composition of 1..depth maps sends 0 or a breakpoint onto
    a breakpoint.  Searches the preimage tree of each breakpoint under every
    map (not only its own branch), pruned to [0, 1]."""
    sources = {Fraction(0), *bps}
    for target in bps:
        level = {target}
        for _ in range(depth):
            prev = set()
            for y in level:
                for a, b in maps:
                    if a == 0:
                        if y == b:
                            return False
                        continue
                    x = (y - b) / a
                    if 0 <= x <= 1:
                        prev.add(x)
            if prev & sources:
                return False
            level = prev
    return True


def float_cycles(
    instances: Sequence[tuple[Sequence[Fraction], Maps]], grid: int
) -> list[list[Optional[tuple[float, ...]]]]:
    """Float forward limit of each grid point g/grid of each instance.

    Iterates all points of a batch of instances at once in float64, then
    reads off the cycle as the first return within FLOAT_CLOSE.  Gives the
    cycle's points in orbit order, or None when no cycle closes.
    """
    out: list[list[Optional[tuple[float, ...]]]] = []
    for lo in range(0, len(instances), FLOAT_CHUNK):
        chunk = instances[lo : lo + FLOAT_CHUNK]
        s = len(chunk)
        nmax = max(len(maps) for _, maps in chunk)
        cut = np.full((nmax - 1, s, 1), np.inf)
        slope = np.zeros((s, nmax))
        icpt = np.zeros((s, nmax))
        for i, (bps, maps) in enumerate(chunk):
            cut[: len(bps), i, 0] = [float(p) for p in bps]
            slope[i, : len(maps)] = [float(a) for a, _ in maps]
            icpt[i, : len(maps)] = [float(b) for _, b in maps]
        slope, icpt = slope.ravel(), icpt.ravel()
        base = np.arange(s)[:, None] * nmax
        x = np.tile(np.arange(grid, dtype=float) / grid, (s, 1))

        def step(x):
            idx = np.repeat(base, grid, axis=1)
            for c in cut:
                idx += x >= c
            return slope[idx] * x + icpt[idx]

        for _ in range(FLOAT_BURN):
            x = step(x)
        traj = [x]
        for _ in range(FLOAT_MAX_PERIOD):
            traj.append(step(traj[-1]))
        t = np.stack(traj, axis=2)
        close = np.abs(t[:, :, 1:] - t[:, :, :1]) <= FLOAT_CLOSE
        found = close.any(axis=2)
        period = close.argmax(axis=2) + 1
        for i in range(s):
            row = []
            for g in range(grid):
                if found[i, g]:
                    row.append(tuple(t[i, g, : period[i, g]].tolist()))
                else:
                    row.append(None)
            out.append(row)
    return out


def _near(x: float, points: Sequence[float]) -> bool:
    return any(abs(x - p) <= FLOAT_MATCH for p in points)


# --- survey-n3 ----------------------------------------------------------------

SURVEY_HEADER = (
    "index,generic,q_status,q_size,m,orbits,classes,"
    "grid_converged,reason,breakpoints,maps"
)


def parse_survey_rows(csv_text: str) -> list[dict]:
    """The samples block of a survey CSV as dicts with exact parameters."""
    lines = csv_text.splitlines()
    if len(lines) < 2 or lines[0] != "samples" or lines[1] != SURVEY_HEADER:
        raise ValueError("survey CSV does not start with the samples block")
    rows = []
    for line in lines[2:]:
        if line == "aggregate":
            break
        f = line.split(",")
        if len(f) != 11:
            raise ValueError(f"survey row has {len(f)} fields: {line!r}")
        maps = []
        for desc in f[10].split("|"):
            kind, a, b = desc.split()
            if kind != "affine":
                raise ValueError(f"unexpected map {desc!r}")
            maps.append((Fraction(a), Fraction(b)))
        rows.append(
            {
                "index": int(f[0]),
                "generic": {"true": True, "false": False}[f[1]],
                "orbits": int(f[5]),
                "classes": int(f[6]),
                "grid_converged": {"true": True, "false": False}[f[7]],
                "reason": f[8],
                "bps": tuple(Fraction(p) for p in f[9].split(";")),
                "maps": tuple(maps),
            }
        )
    return rows


def check_survey(csv_text: str, n: int, samples: int, depth: int, grid: int) -> list[Problem]:
    try:
        rows = parse_survey_rows(csv_text)
    except (ValueError, KeyError) as exc:
        return [(-1, f"unreadable survey CSV: {exc}")]
    problems: list[Problem] = []
    if [r["index"] for r in rows] != list(range(samples)):
        problems.append((-1, f"expected sample indices 0..{samples - 1}"))
    floated = []
    for r in rows:
        i = r["index"]
        if len(r["maps"]) != n or len(r["bps"]) != n - 1:
            problems.append((i, "wrong branch count"))
            continue
        if r["generic"] != generic_by_backward_search(r["bps"], r["maps"], depth):
            problems.append((i, f"generic={r['generic']} disagrees with backward search"))
        if r["reason"] == "" and r["generic"]:
            if not 1 <= r["orbits"] <= r["classes"] <= n:
                problems.append((i, f"orbits {r['orbits']}, classes {r['classes']} break 1 <= o <= c <= {n}"))
            if not r["grid_converged"]:
                problems.append((i, "conclusive generic sample without grid_converged"))
            floated.append(r)
    cycles = float_cycles([(r["bps"], r["maps"]) for r in floated], grid)
    for r, row in zip(floated, cycles):
        if any(c is None for c in row):
            problems.append((r["index"], "a float orbit did not close"))
            continue
        heads = sorted(min(c) for c in row)
        distinct = 1 + sum(1 for u, v in zip(heads, heads[1:]) if v - u > FLOAT_MATCH)
        if distinct > r["orbits"]:
            problems.append((r["index"], f"float iteration reached {distinct} cycles > orbits {r['orbits']}"))
    return problems


# --- partition-steep ----------------------------------------------------------

def check_partition(index: int, bps: Sequence[Fraction], maps: Maps, out: dict) -> list[Problem]:
    """``out`` holds cuts, transition, branch, orbits [(points, word)],
    classes (a count) and limits (one (points, word) per grid point)."""
    problems: list[Problem] = []

    def bad(msg: str) -> list[Problem]:
        problems.append((index, msg))
        return problems

    n = len(maps)
    cuts = tuple(out["cuts"])
    cut_set = set(cuts)
    if any(not 0 < c < 1 for c in cuts) or any(u >= v for u, v in zip(cuts, cuts[1:])):
        return bad("cut points not increasing inside (0, 1)")
    if not cut_set.issuperset(bps):
        return bad("a breakpoint is missing from the cut points")
    for q in cuts:
        for x in branch_preimages(q, bps, maps):
            if x > 0 and x not in cut_set:
                return bad(f"preimage {x} of cut point {q} is not a cut point")
    bounds = (Fraction(0),) + cuts + (Fraction(1),)
    m = len(bounds) - 1
    if len(out["transition"]) != m or len(out["branch"]) != m:
        return bad("transition or branch table has the wrong length")
    for j in range(m):
        lo, hi = bounds[j], bounds[j + 1]
        d = digit((lo + hi) / 2, bps)
        if out["branch"][j] != d:
            return bad(f"interval {j + 1} lies in branch {d}, not {out['branch'][j]}")
        t = out["transition"][j]
        if not 1 <= t <= m:
            return bad(f"interval {j + 1} maps to index {t}")
        a, b = maps[d - 1]
        u, v = sorted((a * lo + b, a * hi + b))
        if not (bounds[t - 1] <= u and v <= bounds[t]):
            return bad(f"image of interval {j + 1} leaves interval {t}")
    orbit_sets = []
    for points, word in out["orbits"]:
        p = len(points)
        if p == 0 or len(word) != p:
            return bad("orbit with inconsistent period")
        x = points[0]
        for s in range(p):
            if x != points[s] or digit(x, bps) != word[s]:
                return bad(f"orbit through {points[0]} is not an exact cycle")
            x = pc_eval(x, bps, maps)
        if x != points[0]:
            return bad(f"orbit through {points[0]} does not close")
        orbit_sets.append(frozenset(points))
    if len(set(orbit_sets)) != len(orbit_sets):
        return bad("an orbit is reported twice")
    if not 1 <= len(orbit_sets) <= out["classes"] <= n:
        return bad(f"orbits {len(orbit_sets)}, classes {out['classes']} break 1 <= o <= c <= {n}")
    for g, (points, _) in enumerate(out["limits"]):
        if frozenset(points) not in orbit_sets:
            return bad(f"omega limit of grid point {g} is not a reported orbit")
    return problems


def check_partition_limits(
    instances: Sequence[tuple[Sequence[Fraction], Maps]], outputs: Sequence[dict], grid: int
) -> list[Problem]:
    """Each omega_limit result contains the float forward limit of its point."""
    problems: list[Problem] = []
    for i, (row, out) in enumerate(zip(float_cycles(instances, grid), outputs)):
        for g, (cycle, (points, _)) in enumerate(zip(row, out["limits"])):
            exact = [float(p) for p in points]
            if cycle is None or len(cycle) != len(exact) or not all(_near(c, exact) for c in cycle):
                problems.append((i, f"omega limit of grid point {g} misses its float limit"))
                break
    return problems


# --- attractor-power ----------------------------------------------------------

def _scaled(components: Sequence[tuple[Fraction, Fraction]]) -> tuple[list[tuple[int, int]], int]:
    """Endpoints as integers over their common denominator, for fast exact
    comparisons and sums."""
    den = math.lcm(*(x.denominator for iv in components for x in iv))
    return [(lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator))
            for lo, hi in components], den


def _nested(inner: Sequence[tuple[int, int]], outer: Sequence[tuple[int, int]]) -> bool:
    j = 0
    for lo, hi in inner:
        while j < len(outer) and outer[j][1] < lo:
            j += 1
        if j == len(outer) or not (outer[j][0] <= lo and hi <= outer[j][1]):
            return False
    return True


def check_attractor(index: int, maps: Maps, seq: Sequence[Sequence[tuple[Fraction, Fraction]]]) -> list[Problem]:
    """Nested sets, at most n^k components, certified measure decay."""
    n = len(maps)
    if [tuple(c) for c in seq[0]] != [(0, 1)]:
        return [(index, "A_0 is not [0, 1]")]
    rho = sum(abs(a) for a, _ in maps)
    prev, prev_den = _scaled(seq[0])
    for k in range(1, len(seq)):
        if len(seq[k]) > n**k:
            return [(index, f"A_{k} has {len(seq[k])} > {n}^{k} components")]
        cur, den = _scaled(seq[k])
        if any(lo > hi for lo, hi in cur) or any(u[1] >= v[0] for u, v in zip(cur, cur[1:])):
            return [(index, f"A_{k} components overlap or are unsorted")]
        # compare over the finer of the two denominators
        up = den // math.gcd(den, prev_den)
        outer = [(lo * up, hi * up) for lo, hi in prev]
        inner_up = prev_den // math.gcd(den, prev_den)
        inner = [(lo * inner_up, hi * inner_up) for lo, hi in cur]
        if not _nested(inner, outer):
            return [(index, f"A_{k} is not inside A_{k - 1}")]
        measure = Fraction(sum(hi - lo for lo, hi in cur), den)
        if rho < 1 and not measure <= rho * Fraction(sum(hi - lo for lo, hi in prev), prev_den):
            return [(index, f"measure of A_{k} does not decay by {rho}")]
        prev, prev_den = cur, den
    return []


def check_power(
    index: int,
    bps: Sequence[Fraction],
    maps: Maps,
    k: int,
    cuts: Sequence[Fraction],
    g: Callable[[Fraction], Fraction],
) -> list[Problem]:
    """g = f^k: the same cuts as an independent backward refinement, and
    equal values at two interior points of every branch (both sides are
    affine there, so two points pin the whole branch)."""
    if list(cuts) != backward_refinement(bps, maps, k):
        return [(index, f"power map k={k} cuts differ from the backward refinement")]
    bounds = (Fraction(0),) + tuple(cuts) + (Fraction(1),)
    for lo, hi in zip(bounds, bounds[1:]):
        for x in (lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3):
            if g(x) != pc_iterate(x, bps, maps, k):
                return [(index, f"power map k={k} differs from f^{k} at {x}")]
    return []


def check_values(
    index: int,
    bps: Sequence[Fraction],
    maps: Maps,
    points: Sequence[Fraction],
    values: Sequence[tuple[Fraction, ...]],
) -> list[Problem]:
    """values[i] = (f, capped f, f^2, f^3) at points[i], from the program."""
    for x, got in zip(points, values):
        f1 = pc_eval(x, bps, maps)
        f2 = pc_eval(f1, bps, maps)
        want = (f1, f1, f2, pc_eval(f2, bps, maps))
        if tuple(got) != want:
            return [(index, f"evaluation at {x} gives {got}, expected {want}")]
    return []
