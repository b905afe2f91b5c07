import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest

from pcdyn import (
    Affine,
    Breakpoints,
    Clamped,
    Interval,
    IteratedFunctionSystem,
    NonDiscretePreimageError,
    PartitionInvarianceError,
    PeriodicOrbit,
    PiecewiseContraction,
    build_partition,
    equivalence_classes,
    is_generic,
    omega_limit,
    orbit,
    periodic_orbits,
    preimage_set,
)
from pcdyn.quasipartition import (
    COMPLETE,
    TRUNCATED,
    EquivalenceClasses,
    PreimageSet,
    QPoint,
    QuasiPartition,
    _cycle_orbit,
)
from pcdyn.sampling import draw_pc, rng_for_sample
from _support import constant_pc, period3_pc, rand_affine, rand_fraction

PERIOD3_Q = {F(1, 10), F(1, 5), F(3, 10), F(7, 20), F(9, 20), F(13, 20)}


class TestPreimageSet:
    def test_period3_closure(self):
        q = preimage_set(period3_pc())
        assert set(q.points) == PERIOD3_Q
        assert q.status == COMPLETE
        assert q.depth_reached == 4

    def test_sources_and_depths(self):
        q = preimage_set(period3_pc())
        assert q.by_source(1) == tuple(sorted(PERIOD3_Q))
        depth = {e.point: e.depth for e in q.entries}
        assert depth[F(3, 10)] == 0
        assert depth[F(1, 10)] == 1 and depth[F(7, 20)] == 1
        assert depth[F(1, 5)] == 2 and depth[F(9, 20)] == 2
        assert depth[F(13, 20)] == 3

    def test_constant_maps(self):
        q = preimage_set(constant_pc())
        assert q.points == (F(1, 2),)
        assert q.status == COMPLETE
        assert q.depth_reached == 1

    def test_plateau_on_breakpoint_flagged(self):
        clamped = Clamped(Affine(F(2, 5), F(1, 10)), F(0), F(2, 5))
        f = PiecewiseContraction(
            IteratedFunctionSystem((Affine(F(1, 2), F(1, 4)), clamped)),
            Breakpoints((F(13, 50),)),  # equals the plateau value
        )
        with pytest.raises(NonDiscretePreimageError):
            preimage_set(f)

    def test_truncation_by_size(self):
        q = preimage_set(period3_pc(), size_cap=3)
        assert q.status == TRUNCATED

    def test_truncation_by_depth(self):
        q = preimage_set(period3_pc(), depth_cap=2)
        assert q.status == TRUNCATED
        assert q.depth_reached == 2

    def test_requires_exact_backend(self):
        from pcdyn import Backend

        with pytest.raises(ValueError, match="exact"):
            preimage_set(period3_pc(), backend=Backend.floating())


class TestBuildPartition:
    def test_period3_partition(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        assert part.m == 7
        assert part.transition == (3, 4, 5, 3, 4, 5, 6)
        assert part.branch == (1, 1, 1, 2, 2, 2, 2)

    def test_interval_images_stay_inside_targets(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        for j, iv in enumerate(part.intervals):
            target = part.intervals[part.transition[j] - 1]
            img = f.ifs.maps[part.branch[j] - 1].image(iv)
            assert target.lo <= img.lo and img.hi <= target.hi

    def test_constant_maps_partition(self):
        f = constant_pc()
        part = build_partition(f, preimage_set(f))
        assert part.m == 2
        assert [(iv.lo, iv.hi) for iv in part.intervals] == [
            (F(0), F(1, 2)),
            (F(1, 2), F(1)),
        ]
        assert part.transition == (1, 2)
        assert part.branch == (1, 2)

    def test_incomplete_closure_rejected(self):
        q = preimage_set(period3_pc(), depth_cap=2)
        with pytest.raises(ValueError, match="complete"):
            build_partition(period3_pc(), q)

    def test_straddle_detected(self):
        # a hand-built closure that wrongly omits the backward iterates:
        # the image of (0, 3/10) then straddles the breakpoint
        fake = PreimageSet((QPoint(F(3, 10), 1, 0),), 1, COMPLETE)
        with pytest.raises(PartitionInvarianceError):
            build_partition(period3_pc(), fake)

    def test_locate(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        assert part.locate(F(1, 4)) == 3
        assert part.locate(F(3, 10)) is None
        assert part.locate(F(0)) is None
        assert part.locate(F(99, 100)) == 7


class TestPeriodicOrbits:
    def test_period3_single_orbit(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        orbs = periodic_orbits(f, part)
        assert len(orbs) == 1
        orb = orbs[0]
        assert orb.points == (F(2, 7), F(11, 28), F(9, 28))
        assert orb.period == 3
        assert orb.word == (1, 2, 2)
        assert orb.home_cycle == (3, 5, 4)

    def test_constant_maps_saturate_bound(self):
        f = constant_pc()
        part = build_partition(f, preimage_set(f))
        orbs = periodic_orbits(f, part)
        assert len(orbs) == 2 == f.n
        assert {o.points for o in orbs} == {(F(1, 3),), (F(2, 3),)}

    def test_orbit_points_cycle_exactly(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        for orb in periodic_orbits(f, part):
            x = orb.points[0]
            for _ in range(orb.period):
                x = f(x)
            assert x == orb.points[0]


class TestOmegaLimit:
    def test_from_zero(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        orb = omega_limit(f, F(0), part)
        assert orb.points == (F(2, 7), F(11, 28), F(9, 28))

    def test_periodic_point_is_its_own_limit(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        orb = omega_limit(f, F(2, 7), part)
        assert F(2, 7) in orb.points

    def test_constant_map_single_step(self):
        f = constant_pc()
        part = build_partition(f, preimage_set(f))
        assert omega_limit(f, F(9, 10), part).points == (F(2, 3),)

    def test_total_on_grid(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        target = {F(2, 7), F(11, 28), F(9, 28)}
        for g in range(64):
            orb = omega_limit(f, F(g, 64), part)
            assert orb.point_set() == target

    def test_cross_validates_with_forward_orbit(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        rng = random.Random(9)
        for _ in range(25):
            x = F(rng.randrange(0, 2**10), 2**10)
            a = omega_limit(f, x, part)
            b = orbit(f, x, 500)
            assert b.converged
            assert a.point_set() == b.orbit.point_set()


class TestEquivalenceClasses:
    def test_period3_classes(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        ec = equivalence_classes(f, part)
        assert ec.adjacency == ((3, 4),)
        assert ec.members == (3, 4)
        assert len(ec.classes) == 1
        assert ec.orbit_count == 1
        assert ec.first_interval == 1 and ec.last_interval == 7
        assert ec.permutation == (1,)

    def test_constant_maps_two_classes(self):
        f = constant_pc()
        part = build_partition(f, preimage_set(f))
        ec = equivalence_classes(f, part)
        assert len(ec.classes) == 2
        assert ec.orbit_count == 2

    def test_orbit_intervals_share_a_class(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        ec = equivalence_classes(f, part)
        orbs = periodic_orbits(f, part)
        for orb in orbs:
            touching = [
                cls
                for cls in ec.classes
                for member in cls
                if member in orb.home_cycle
                or part.transition[member - 1] in orb.home_cycle
            ]
            # every class that feeds the orbit is one and the same
            assert len({tuple(c) for c in touching}) <= 1


class TestRandomInstances:
    def sample(self, idx):
        rng = rng_for_sample(515, idx)
        return draw_pc(rng, 2 + idx % 2, kappa_max=0.45)

    def test_bounds_and_totality(self):
        checked = 0
        for idx in range(12):
            f = self.sample(idx)
            if not is_generic(f, 4):
                continue
            q = preimage_set(f)
            if not q.is_complete:
                continue
            part = build_partition(f, q)
            assert part.m == len([p for p in q.points if 0 < p < 1]) + 1
            orbs = periodic_orbits(f, part)
            ec = equivalence_classes(f, part)
            assert 1 <= len(orbs) <= len(ec.classes) <= f.n
            checked += 1
            # transition trajectories are eventually periodic within m steps
            for start in range(1, part.m + 1):
                seen = {}
                node = start
                steps = 0
                while node not in seen:
                    seen[node] = steps
                    node = part.transition[node - 1]
                    steps += 1
                assert seen[node] + (steps - seen[node]) <= part.m
        assert checked >= 6

    def test_itinerary_factors_through_partition(self):
        f = period3_pc()
        part = build_partition(f, preimage_set(f))
        rng = random.Random(123)
        for _ in range(5):
            x = F(rng.randrange(1, 2**12), 2**12)
            if part.locate(x) is None:
                continue
            l = part.locate(x)
            y = x
            for _ in range(1000):
                assert f.digit(y) == part.branch[l - 1]
                y = f(y)
                l = part.transition[l - 1]


# --- oracles: the separate graph walks the basin index replaced ------------

def _canonical_cycle(cycle):
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def _oracle_cycles(transition):
    """All cycles of the functional graph l -> transition[l-1]."""
    m = len(transition)
    color = [0] * (m + 1)  # 0 new, 1 on stack, 2 done
    cycles = []
    for start in range(1, m + 1):
        if color[start]:
            continue
        path = []
        node = start
        while color[node] == 0:
            color[node] = 1
            path.append(node)
            node = transition[node - 1]
        if color[node] == 1:
            cycles.append(_canonical_cycle(path[path.index(node):]))
        for v in path:
            color[v] = 2
    return cycles


def _oracle_periodic_orbits(f, part):
    orbits = []
    for cyc in _oracle_cycles(part.transition):
        orb = _cycle_orbit(f, part, cyc, 1e-13)
        if not any(orb.point_set() == o.point_set() for o in orbits):
            orbits.append(orb)
    return orbits


def _oracle_omega_limit(f, x, part):
    special = {0} | set(part.cut_points)
    visited = []
    while x in special:
        if x in visited:
            cyc_pts = visited[visited.index(x):]
            word = tuple(f.digit(p) for p in cyc_pts)
            return PeriodicOrbit(tuple(cyc_pts), len(cyc_pts), word)
        visited.append(x)
        x = f(x)
    seq = [part.locate(x)]
    seen = {seq[0]: 0}
    while True:
        nxt = part.transition[seq[-1] - 1]
        if nxt in seen:
            return _cycle_orbit(f, part, _canonical_cycle(seq[seen[nxt]:]), 1e-13)
        seen[nxt] = len(seq)
        seq.append(nxt)


def _oracle_equivalence_classes(f, part):
    """Pairwise forward-set intersections merged by union-find."""
    cuts = part.cut_points
    adjacency = []
    for x_i in f.breakpoints:
        pos = cuts.index(x_i)
        adjacency.append((pos + 1, pos + 2))
    members = []
    for pair in adjacency:
        for idx in pair:
            if idx not in members:
                members.append(idx)

    def forward_set(start):
        out = set()
        node = start
        while node not in out:
            out.add(node)
            node = part.transition[node - 1]
        return out

    reach = {idx: forward_set(idx) for idx in members}
    parent = {idx: idx for idx in members}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if reach[a] & reach[b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    grouped = {}
    for idx in members:
        grouped.setdefault(find(idx), []).append(idx)
    mins = [(min(part.qset.by_source(i)), i) for i in range(1, f.n)]
    return EquivalenceClasses(
        adjacency=tuple(adjacency),
        first_interval=1,
        last_interval=part.m,
        members=tuple(members),
        classes=tuple(tuple(v) for _, v in sorted(grouped.items())),
        permutation=tuple(i for _, i in sorted(mins)),
        orbit_count=len(_oracle_periodic_orbits(f, part)),
    )


def _random_partition(rng):
    """A complete partition of a random system in which about a third of the
    maps are constant, so several cycles and classes are common."""
    n = rng.randint(2, 5)
    maps = [
        Affine(F(0), rand_fraction(rng, F(1, 100), F(99, 100)))
        if rng.random() < 0.35
        else rand_affine(rng)
        for _ in range(n)
    ]
    cuts = sorted({rand_fraction(rng, F(1, 20), F(19, 20)) for _ in range(n - 1)})
    if len(cuts) != n - 1:
        return None
    f = PiecewiseContraction(IteratedFunctionSystem(tuple(maps)), Breakpoints(tuple(cuts)))
    q = preimage_set(f, size_cap=2000)
    if not q.is_complete:
        return None
    return f, build_partition(f, q)


class TestBasinIndexAgainstOracles:
    def test_random_functional_graphs(self):
        rng = random.Random(31)
        for _ in range(300):
            m = rng.randint(1, 30)
            transition = tuple(rng.randint(1, m) for _ in range(m))
            part = QuasiPartition(
                PreimageSet((), 0, COMPLETE), (), (Interval(F(0), F(1)),) * m,
                transition, (1,) * m,
            )
            assert list(dict.fromkeys(part.basins)) == _oracle_cycles(transition)
            for start in range(1, m + 1):
                node = start
                for _ in range(m):
                    node = transition[node - 1]
                # after m steps the walk is on its cycle
                assert node in part.basins[start - 1]

    def test_random_partitions(self):
        rng = random.Random(1408)
        grid = [F(g, 64) for g in range(64)]
        checked = multi = 0
        while checked < 150:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            want_orbits = _oracle_periodic_orbits(f, part)
            got_orbits = periodic_orbits(f, part)
            assert got_orbits == want_orbits
            assert [o.home_cycle for o in got_orbits] == [
                o.home_cycle for o in want_orbits
            ]
            for x in grid + list(part.cut_points):
                assert omega_limit(f, x, part) == _oracle_omega_limit(f, x, part)
            assert equivalence_classes(f, part) == _oracle_equivalence_classes(f, part)
            checked += 1
            multi += len(want_orbits) > 1
        assert multi >= 30


def _oracle_locate(part, x):
    """The generic locate: an exact bisect over the cut points."""
    if not 0 <= x < 1:
        raise ValueError(f"point {x} outside [0, 1)")
    if x == 0:
        return None
    cuts = part.cut_points
    i = bisect_left(cuts, x)
    if i < len(cuts) and cuts[i] == x:
        return None
    return i + 1


class TestLookupsAgainstExactBisect:
    def test_locate_on_tied_cut_points(self):
        rng = random.Random(77)
        tiny = F(1, 2**70)
        for _ in range(100):
            cuts = set()
            for _ in range(rng.randint(1, 6)):
                base = F(rng.randrange(1, 2**20), 2**20)
                cuts.update(base + k * tiny for k in range(rng.randint(1, 4)))
            cuts = tuple(sorted(cuts))
            m = len(cuts) + 1
            part = QuasiPartition(
                PreimageSet((), 0, COMPLETE), cuts,
                (Interval(F(0), F(1)),) * m, (1,) * m, (1,) * m,
            )
            xs = [F(0), 0, 0.0, F(1, 2**1100), F(1) - F(1, 2**60), F(1), 1]
            xs += [-F(1, 2**1100), 0.5]
            for c in cuts:
                xs += [c, c - tiny / 2, c + tiny / 2, float(c)]
            for x in xs:
                try:
                    want = _oracle_locate(part, x)
                except ValueError:
                    with pytest.raises(ValueError):
                        part.locate(x)
                    continue
                assert part.locate(x) == want, x

    def test_partition_lookups_match_exact_bisects(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 100:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            q = part.qset
            assert list(q.points) == sorted({e.point for e in q.entries})
            cuts = part.cut_points
            assert cuts == tuple(p for p in q.points if 0 < p < 1)
            for j, iv in enumerate(part.intervals):
                mid = (iv.lo + iv.hi) / 2
                d = bisect_right(f.breakpoints.points, mid) + 1
                y = f.ifs.maps[d - 1](mid)
                assert part.branch[j] == d
                assert part.transition[j] == bisect_left(cuts, y) + 1
            for x in cuts + tuple(F(g, 64) for g in range(64)):
                assert part.locate(x) == _oracle_locate(part, x)
            checked += 1
