import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

import pcdyn.pcmap
import pcdyn.quasipartition
from pcdyn import (
    Affine,
    BoundaryOrbitError,
    BoundViolationError,
    Breakpoints,
    CutCycleError,
    InexactPreimageError,
    Clamped,
    Interval,
    IteratedFunctionSystem,
    NonDiscretePreimageError,
    PartitionInvarianceError,
    PeriodicOrbit,
    PiecewiseContraction,
    Quadratic,
    TruncatedClosureError,
    build_partition,
    cap_ifs,
    certify_limits,
    equivalence_classes,
    is_generic,
    omega_limit,
    orbit,
    periodic_orbits,
    power_map,
    preimage_set,
)
from pcdyn.maps import DEFAULT_EPS_FP
from pcdyn.quasipartition import (
    COMPLETE,
    TRUNCATED,
    EquivalenceClasses,
    PreimageSet,
    QPoint,
    QuasiPartition,
    connections,
)
from pcdyn.numerics import sort_pairs
from pcdyn.pcmap import (
    LEFT_OPEN,
    RIGHT_OPEN,
    _branch_form,
    _level_preimages,
    _word_map,
    rotate_to_min,
)
from pcdyn.sampling import draw_pc, rng_for_sample
from _support import (
    constant_pc,
    depth6_connection_pc,
    forward_connections,
    fraction_build_partition,
    fraction_periodic_orbits,
    fraction_preimage_set,
    fraction_word_map,
    period3_pc,
    preimage_set_of,
    rand_affine,
    rand_clamped,
    rand_fraction,
    rand_quadratic,
)

PERIOD3_Q = {F(1, 10), F(1, 5), F(3, 10), F(7, 20), F(9, 20), F(13, 20)}


class TestPreimageSet:
    def test_period3_closure(self):
        q = preimage_set(period3_pc())
        assert set(q.points) == PERIOD3_Q
        assert q.status == COMPLETE
        assert q.depth_reached == 4

    def test_sources_and_depths(self):
        q = preimage_set(period3_pc())
        assert {e.point for e in q.entries if e.source == 1} == PERIOD3_Q
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


def _word_map_draws():
    """The 400 seed-7 draws at n = 3 with one breakpoint moved onto the
    fixed point of a random word map, or onto a word map's image of the
    other breakpoint: (kind, map) for each that stays ordered."""
    rng = random.Random(7)
    for idx in range(400):
        f = draw_pc(rng_for_sample(7, idx), 3, kappa_max=0.45)
        m = fraction_word_map(
            f, [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        )
        bps, j = list(f.breakpoints.points), rng.randrange(2)
        kind = ("fixed", "image")[idx % 2]
        bps[j] = m.b / (1 - m.a) if kind == "fixed" else m.a * bps[1 - j] + m.b
        if 0 < bps[0] < bps[1] < 1:
            yield kind, PiecewiseContraction(f.ifs, Breakpoints(tuple(bps)))


def _walked_certify_limits(f, part):
    """certify_limits as a walk from each source: omega_limit from 0 and
    from each breakpoint, in order, each limit checked against the
    partition's orbits."""
    orbits = part._limits[0]
    for x in (0,) + f.breakpoints.points:
        lim = omega_limit(f, x, part)
        if lim.home_cycle is None and lim not in orbits:
            raise CutCycleError(x, lim)


def _certificate(certify, f, part):
    """None when certify passes, else the type, message and orbit (if
    any) of what it raised."""
    try:
        certify(f, part)
    except (BoundaryOrbitError, CutCycleError) as exc:
        return type(exc), str(exc), getattr(exc, "orbit", None)
    return None


def _assert_one_step_per_source(f, q):
    """connections and certify_limits, which share one step per source,
    against the forward walk and the walk from each source: the same
    sources, and the same pass or raise with the same orbit and message,
    whether connections kept the steps first or not.  Returns both."""
    got = connections(f, q)
    assert got == forward_connections(f, q)
    part = build_partition(f, q)
    want = _certificate(_walked_certify_limits, f, part)
    assert _certificate(certify_limits, f, part) == want
    del q.__dict__["_steps"]  # certify_limits steps the sources itself
    assert _certificate(certify_limits, f, build_partition(f, q)) == want
    return got, want


class TestConnections:
    def test_random_draws_match_the_forward_walk(self):
        # random draws have no connection: every verdict is generic
        for idx in range(60):
            f = draw_pc(rng_for_sample(29, idx), 2 + idx % 6, kappa_max=0.45)
            q = preimage_set(f)
            assert connections(f, q) == forward_connections(f, q) == (), idx

    def test_breakpoints_on_word_maps_match_the_forward_walk(self):
        # a composition sends a breakpoint onto a breakpoint, which f
        # itself follows only sometimes; the certificate, which shares the
        # steps, meets cut cycles and boundary orbits here
        seen, certs = Counter(), Counter()
        for kind, g in _word_map_draws():
            got, cert = _assert_one_step_per_source(g, preimage_set(g))
            seen[kind, bool(got)] += 1
            certs[cert and cert[0].__name__] += 1
        assert len(seen) == 4 and min(seen.values()) >= 10, seen
        assert certs["CutCycleError"] >= 10 and certs["BoundaryOrbitError"], certs

    def test_a_connection_past_the_depth_of_the_tree(self):
        f = depth6_connection_pc()
        assert is_generic(f, 5) and not is_generic(f, 6)
        q = preimage_set(f)
        assert connections(f, q) == forward_connections(f, q) == (F(0),)

    def test_one_closure_read_for_two_maps(self):
        # 1/2 is the closure of both flags, but f(1/2) is 1/2 on the right
        # branch and 1/4 on the left: the kept steps are the last map's
        maps = IteratedFunctionSystem(
            (Affine(F(1, 4), F(1, 8)), Affine(F(-1, 2), F(3, 4)))
        )
        f = PiecewiseContraction(maps, Breakpoints((F(1, 2),)))
        g = PiecewiseContraction(maps, f.breakpoints, (LEFT_OPEN,))
        q = preimage_set(f)
        assert q.points == preimage_set(g).points == (F(1, 2),)
        for h, want in ((f, (F(1, 2),)), (g, ()), (f, (F(1, 2),))):
            got, cert = _assert_one_step_per_source(h, q)
            assert got == want
            assert (cert and cert[0]) is (CutCycleError if h is f else None)

    def test_a_truncated_closure_is_not_read(self):
        f = depth6_connection_pc()
        with pytest.raises(TruncatedClosureError):
            connections(f, preimage_set(f, depth_cap=5))


def _assert_walked_steps(f, q):
    """The steps preimage_set kept on q for f against _source_steps'
    evaluation, once the kept ones are deleted.  Returns the steps."""
    kept = q.__dict__["_steps"]
    assert kept[0] is f
    del q.__dict__["_steps"]
    assert pcdyn.quasipartition._source_steps(f, q) == kept[1]
    return kept[1]


def _cut_windows(g):
    """g's capped maps, each window cut 2^-80 inside the hi end of its
    branch where the branch does not own it, else inside the lo end."""
    tiny = F(1, 2**80)
    out = []
    for m, (_, dom, lo_in, hi_in, _) in zip(
        cap_ifs(g.ifs, g.breakpoints).capped, g._domains
    ):
        if not hi_in:
            m = Clamped(m.inner, m.lo, dom.hi - tiny)
        elif not lo_in:
            m = Clamped(m.inner, dom.lo + tiny, m.hi)
        out.append(m)
    return tuple(out)


class TestWalkedSteps:
    """preimage_set keeps the step of each source it met as a preimage:
    the same table _source_steps evaluates f for."""

    @staticmethod
    def _check_with_powers(fs):
        """Each map, its f^2 and its f^3 walked and checked; counts the
        steps that land on the closure and those that leave it."""
        landed = Counter()
        for f in fs:
            for g in (f, power_map(f, 2), power_map(f, 3)):
                steps = _assert_walked_steps(g, preimage_set(g))
                landed.update(s is not None for s in steps)
        return landed

    def test_criterion_6_draws(self):
        fs = [draw_pc(rng_for_sample(42, idx), 3, kappa_max=0.45) for idx in range(50)]
        landed = self._check_with_powers(fs)
        assert landed[False] >= 400, landed

    def test_breakpoints_on_word_maps(self):
        # left-open flags, cut cycles and boundary orbits
        landed = self._check_with_powers(g for _, g in _word_map_draws())
        assert landed[True] >= 80 and landed[False] >= 2000, landed

    def test_zero_met_as_a_new_point(self):
        # 0 enters the closure as a preimage, never as a breakpoint: here
        # f(0) = 1/2, and f^6(0) is the breakpoint of depth6_connection_pc
        f = PiecewiseContraction(
            IteratedFunctionSystem(
                (Affine(F(1, 4), F(1, 2)), Affine(F(-1, 2), F(3, 4)))
            ),
            Breakpoints((F(1, 2),)),
        )
        for g in (f, depth6_connection_pc()):
            q = preimage_set(g)
            assert F(0) in q.points
            assert _assert_walked_steps(g, q)[0] == 1
            assert connections(g, q)[0] == F(0)

    def test_capped_systems(self):
        # each collar window is cut 2^-80 inside an end its branch does not
        # own, so the branch has no form and the walk solves it point by
        # point, dropping the ends its flags exclude; the sources keep
        # their values, so connections still land
        c6 = [draw_pc(rng_for_sample(42, idx), 3, kappa_max=0.45) for idx in range(50)]
        landed, checked, cut = Counter(), 0, 0
        for f in c6 + [g for _, g in _word_map_draws()]:
            for g in (f, power_map(f, 2)):
                fc = PiecewiseContraction(
                    IteratedFunctionSystem(_cut_windows(g)), g.breakpoints, g.closures
                )
                formless = [form is None for *_, form in fc._domains]
                assert formless[-1]  # no branch owns 1
                cut += sum(formless)
                try:
                    q = preimage_set(fc)
                except NonDiscretePreimageError:
                    continue
                if q.is_complete:
                    landed.update(s is not None for s in _assert_walked_steps(fc, q))
                    checked += 1
        assert checked >= 600 and landed[True] >= 50, (checked, landed)
        assert cut >= 1500, cut

    def test_random_systems(self):
        # constant, quadratic and clamped branches, random closure flags
        # and breakpoints a float apart; their sources all step off
        rng = random.Random(4242)
        landed, checked = Counter(), 0
        while checked < 300:
            f = rng.choice((_steep_pc, _tied_pc, _mixed_pc))(rng)
            try:
                q = None if f is None else preimage_set(f, size_cap=400)
            except (InexactPreimageError, NonDiscretePreimageError):
                continue
            if q is None or not q.is_complete:
                continue
            landed.update(s is not None for s in _assert_walked_steps(f, q))
            checked += 1
        assert landed[False] >= 1000, landed

    def test_a_capped_closure_keeps_no_steps(self):
        f = depth6_connection_pc()
        for q in (preimage_set(f, depth_cap=5), preimage_set(f, size_cap=3)):
            assert q.status == TRUNCATED
            assert "_steps" not in q.__dict__
            with pytest.raises(TruncatedClosureError):
                connections(f, q)


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
        with pytest.raises(
            TruncatedClosureError, match="^the backward closure hit a cap at "
            rf"depth 2, point count {len(q.points)}$",
        ):
            build_partition(period3_pc(), q)

    def test_breakpoint_missing_from_a_complete_closure(self):
        # without 3/10 among the cuts, the one interval (0, 1) would span
        # both branches
        fake = PreimageSet((), (), 1, COMPLETE)
        for build in (build_partition, fraction_build_partition):
            with pytest.raises(
                ValueError, match="^breakpoint missing from the closure points$"
            ):
                build(period3_pc(), fake)

    def test_straddle_detected(self):
        # a hand-built closure that wrongly omits the backward iterates:
        # the image of (0, 3/10) then straddles the breakpoint
        fake = preimage_set_of([QPoint(F(3, 10), 1, 0)])
        with pytest.raises(PartitionInvarianceError):
            build_partition(period3_pc(), fake)

    def test_breakpoint_found_among_float_tied_cut_points(self):
        # constant branches map every interval inside one interval, so any
        # cut points that hold the breakpoints make a partition
        x, eps = F(1, 3), F(1, 2**80)
        cuts = (x - eps, x, x + eps, F(2, 3))
        assert len(set(float(c) for c in cuts[:3])) == 1
        fake = preimage_set_of([QPoint(c, 1, 1) for c in cuts])
        maps = IteratedFunctionSystem(
            (Affine(F(0), F(1, 5)), Affine(F(0), F(1, 2)), Affine(F(0), F(4, 5)))
        )
        f = PiecewiseContraction(maps, Breakpoints((x, F(2, 3))))
        part = _assert_same_partition(f, fake)
        assert part.branch == (1, 1, 2, 2, 3)
        assert part.transition == (1, 1, 4, 4, 5)
        assert equivalence_classes(f, part).adjacency == ((2, 3), (4, 5))
        for missing in (x + eps / 2, x - 2 * eps, F(1, 2)):
            g = PiecewiseContraction(maps, Breakpoints((missing, F(2, 3))))
            assert _assert_same_partition(g, fake) == (
                ValueError, "breakpoint missing from the closure points"
            )

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

    def test_fixed_point_on_a_breakpoint_is_a_boundary_orbit(self):
        # x/2 + 1/4 fixes the breakpoint 1/2, but right-open f sends 1/2 to
        # 3/8 by the second branch: every orbit rises toward 1/2 in [0, 1/2)
        maps = IteratedFunctionSystem(
            (Affine(F(1, 2), F(1, 4)), Affine(F(1, 2), F(1, 8)))
        )
        f = PiecewiseContraction(maps, Breakpoints((F(1, 2),)))
        part = build_partition(f, preimage_set(f))
        assert part.basins[0] == (1,)
        with pytest.raises(
            BoundaryOrbitError,
            match="^the fixed point of index cycle 1 does not follow its word 1$",
        ):
            periodic_orbits(f, part)
        for x in (F(1, 8), F(0)):  # one table lookup, then the walk from 0
            with pytest.raises(
                BoundaryOrbitError,
                match="^the fixed point of index cycle 1 does not follow its word 1$",
            ):
                omega_limit(f, x, part)
        # owned by the left branch, 1/2 is a fixed point of f
        g = PiecewiseContraction(maps, f.breakpoints, ("left-open",))
        part = build_partition(g, preimage_set(g))
        assert periodic_orbits(g, part) == [PeriodicOrbit((F(1, 2),), 1, (1,))]
        assert g(F(1, 2)) == F(1, 2)

    def test_a_partition_serves_only_its_own_map(self):
        # the left-open partition's orbit 1/2 is no orbit of right-open f
        maps = IteratedFunctionSystem(
            (Affine(F(1, 2), F(1, 4)), Affine(F(1, 2), F(1, 8)))
        )
        f = PiecewiseContraction(maps, Breakpoints((F(1, 2),)), (LEFT_OPEN,))
        g = PiecewiseContraction(maps, f.breakpoints)
        part = build_partition(f, preimage_set(f))
        assert periodic_orbits(f, part) == [PeriodicOrbit((F(1, 2),), 1, (1,))]
        assert omega_limit(f, F(1, 8), part).points == (F(1, 2),)
        for call in (
            lambda: periodic_orbits(g, part),
            lambda: omega_limit(g, F(1, 8), part),  # the lookup's input
            lambda: omega_limit(g, F(0), part),  # the walk's input
            lambda: equivalence_classes(g, part),
        ):
            with pytest.raises(
                ValueError, match="^the partition was built from another map$"
            ):
                call()
        # an equal map built apart is the same map
        twin = PiecewiseContraction(maps, Breakpoints((F(1, 2),)), (LEFT_OPEN,))
        assert twin is not f
        assert periodic_orbits(twin, part) == periodic_orbits(f, part)
        assert omega_limit(twin, F(1, 8), part) == omega_limit(f, F(1, 8), part)
        assert equivalence_classes(twin, part) == equivalence_classes(f, part)


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

    def test_cycle_on_cut_points_is_rotated(self):
        # 1/4 -> 1/2 -> 1/4: the breakpoint and its preimage form the cycle
        f = PiecewiseContraction(
            IteratedFunctionSystem(
                (Affine(F(1, 2), F(3, 8)), Affine(F(1, 4), F(1, 8)))
            ),
            Breakpoints((F(1, 2),)),
        )
        part = build_partition(f, preimage_set(f))
        (want,) = periodic_orbits(f, part)
        assert want.points == (F(1, 4), F(1, 2)) and want.word == (1, 2)
        assert omega_limit(f, F(1, 2), part) == want
        assert omega_limit(f, F(1, 4), part) == want

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


def _oracle_cycle_orbit(f, part, cyc):
    """The fixed point of the word map along cyc, walked without checks."""
    word = tuple(part.branch[l - 1] for l in cyc)
    z = _word_map(f, word).fixed_point(1e-13)
    pts = []
    for d in word:
        pts.append(z)
        z = f.ifs.maps[d - 1]._eval(z)
    return rotate_to_min(pts, word, cyc)


def _oracle_periodic_orbits(f, part):
    orbits = []
    for cyc in _oracle_cycles(part.transition):
        orb = _oracle_cycle_orbit(f, part, cyc)
        if not any(orb.point_set() == o.point_set() for o in orbits):
            orbits.append(orb)
    return orbits


def _oracle_omega_limit(f, x, part):
    special = {0} | set(part.cut_points)
    visited = []
    while x in special:
        if x in visited:
            cyc_pts = visited[visited.index(x):]
            k = cyc_pts.index(min(cyc_pts))
            pts = tuple(cyc_pts[k:] + cyc_pts[:k])
            return PeriodicOrbit(pts, len(pts), tuple(f.digit(p) for p in pts))
        visited.append(x)
        x = f(x)
    seq = [part.locate(x)]
    seen = {seq[0]: 0}
    while True:
        nxt = part.transition[seq[-1] - 1]
        if nxt in seen:
            return _oracle_cycle_orbit(f, part, _canonical_cycle(seq[seen[nxt]:]))
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
    return EquivalenceClasses(
        adjacency=tuple(adjacency),
        members=tuple(members),
        classes=tuple(tuple(v) for _, v in sorted(grouped.items())),
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
                None, PreimageSet((), (), 0, COMPLETE), (), transition, (1,) * m
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


class TestBuiltWhenRead:
    """An open-interval point's limit is one table lookup, a closure's
    ``entries`` are built from its points and provenance when read, and the
    intervals from the cut points: each against its oracle or its eager
    form on random partitions."""

    def test_limits_at_every_kind_of_point(self):
        rng = random.Random(1417)
        tiny = F(1, 2**70)
        grid = [F(g, 64) for g in range(64)]
        checked = ties = 0
        while checked < 100:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            xs = grid + [F(0), 0, 0.0, 0.5, 0.25] + list(part.cut_points)
            for c in part.cut_points:
                xs += [c - tiny, c + tiny]
                ties += float(c - tiny) == float(c) == float(c + tiny)
            for x in xs:
                assert omega_limit(f, x, part) == _oracle_omega_limit(f, x, part), x
            checked += 1
        assert ties >= 200  # a cut's neighbours share its key

    def test_one_table_per_partition(self, monkeypatch):
        # a partition solves its orbits once, with the eps_fp it was built with
        refine, solved = pcdyn.quasipartition._refine_candidate, []

        def spy(f, word, backend, eps_orbit, eps_fp, cyc):
            solved.append(eps_fp)
            return refine(f, word, backend, eps_orbit, eps_fp, cyc)

        monkeypatch.setattr(pcdyn.quasipartition, "_refine_candidate", spy)
        f = period3_pc()
        x = F(1, 4)
        for eps_fp in (1e-13, 1e-9):
            part = build_partition(f, preimage_set(f), eps_fp)
            assert part.eps_fp == eps_fp
            lim = omega_limit(f, x, part)
            assert lim is part._limits[1][2]
            assert lim.home_cycle == part.basins[2]
            assert omega_limit(f, x, part) is lim
            assert periodic_orbits(f, part) == [lim]
            orbits, table = part._limits
            by_cycle = {o.home_cycle: o for o in orbits}
            assert list(by_cycle) == list(dict.fromkeys(part.basins))
            assert table == tuple(by_cycle[c] for c in part.basins)
        assert solved == [1e-13, 1e-9]
        assert build_partition(f, preimage_set(f)).eps_fp == DEFAULT_EPS_FP

    def test_closure_records(self):
        rng = random.Random(1418)
        checked = 0
        while checked < 100:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            want = fraction_preimage_set(f, size_cap=2000)
            q = part.qset
            assert q.points == tuple(e.point for e in want.entries)
            assert q.entries == want.entries
            assert q == want and hash(q) == hash(want)
            assert repr(q) == repr(want)
            checked += 1

    def test_intervals_from_the_cut_points(self):
        rng = random.Random(1419)
        checked = 0
        while checked < 100:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            assert "_cut_keys" in vars(part)  # handed over by build_partition
            assert part._cut_keys == tuple(map(float, part.cut_points))
            bounds = (F(0),) + part.cut_points + (F(1),)
            assert part.intervals == tuple(
                Interval(lo, hi) for lo, hi in zip(bounds, bounds[1:])
            )
            assert part.m == len(part.intervals) == len(part.branch)
            checked += 1


class TestOrbitsWithoutDedup:
    """``periodic_orbits`` reports one orbit per transition cycle as it is;
    each follows its cycle's word, so no two cycles share an orbit."""

    def test_random_partitions(self):
        rng = random.Random(1410)
        checked = multi = 0
        while checked < 150:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            orbits = periodic_orbits(f, part)
            for o in orbits:
                assert tuple(f.digit(p) for p in o.points) == o.word
                assert [f(p) for p in o.points] == list(o.points[1:] + o.points[:1])
            point_sets = [o.point_set() for o in orbits]
            assert len(set(point_sets)) == len(point_sets)
            assert len(orbits) == len(set(part.basins))
            checked += 1
            multi += len(orbits) > 1
        assert multi >= 30


class TestCutPointCertificate:
    """``certify_limits`` certifies every forward limit from 0 and the
    breakpoints: each cut point reaches its source breakpoint after its
    depth, so it shares that breakpoint's limit.  The open intervals are
    checked against their basins here."""

    def test_random_partitions(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 120:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            _assert_one_step_per_source(f, part.qset)
            special = (F(0),) + part.cut_points
            limits = [omega_limit(f, x, part) for x in special]
            assert limits == [_oracle_omega_limit(f, x, part) for x in special]
            orbits = periodic_orbits(f, part)
            try:
                certify_limits(f, part)
                got = None
            except CutCycleError as exc:
                got = exc.orbit
            assert (got is None) == all(o in orbits for o in limits)
            limit_of = dict(zip(special, limits))
            walked = [limit_of[x] for x in (F(0),) + f.breakpoints.points]
            assert got == next((o for o in walked if o not in orbits), None)
            by_cycle = {o.home_cycle: o for o in orbits}
            bounds = special + (F(1),)
            for l, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
                want = by_cycle[part.basins[l - 1]]
                for _ in range(3):
                    x = lo + (hi - lo) * F(rng.randrange(1, 2**16), 2**16)
                    assert omega_limit(f, x, part) == want
                    assert _oracle_omega_limit(f, x, part) == want
            checked += 1

    def test_cut_points_reach_their_breakpoints(self):
        rng = random.Random(2719)
        checked = 0
        while checked < 60:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            for e in part.qset.entries:
                if not 0 < e.point < 1:
                    continue
                x = e.point
                for _ in range(e.depth):
                    x = f(x)
                assert x == f.breakpoints.points[e.source - 1]
                assert omega_limit(f, e.point, part) == omega_limit(f, x, part)
            checked += 1

    def test_power_maps_step_each_source_on_its_own_branch(self):
        # a power map owns some breakpoints from the left (left-open), and
        # the step of such a breakpoint takes the left branch's map
        left, certs = Counter(), Counter()
        for _, f in _word_map_draws():
            g = power_map(f, 2)
            q = preimage_set(g)
            cert = _assert_one_step_per_source(g, q)[1]
            steps = pcdyn.quasipartition._source_steps(g, q)
            for j, c in enumerate(g.closures, start=1):
                left[c, steps[j] is not None] += c == LEFT_OPEN
            certs[cert and cert[0].__name__] += 1
        assert left[LEFT_OPEN, True] >= 5 and left[LEFT_OPEN, False] >= 50, left
        assert certs["CutCycleError"] and certs["BoundaryOrbitError"], certs

    def test_cycle_on_cut_points_found_by_the_partition(self):
        # 1/4 -> 1/2 -> 1/4 runs through cut points, but it is also the
        # orbit of the partition's only cycle, so nothing is missed
        f = PiecewiseContraction(
            IteratedFunctionSystem(
                (Affine(F(1, 2), F(3, 8)), Affine(F(1, 4), F(1, 8)))
            ),
            Breakpoints((F(1, 2),)),
        )
        part = build_partition(f, preimage_set(f))
        lim = omega_limit(f, F(1, 2), part)
        assert lim.home_cycle is None
        # the breakpoint 1/2's limit, a cycle among the cut points, is one
        # of the partition's own orbits (0 enters an open interval)
        assert lim in periodic_orbits(f, part)
        certify_limits(f, part)


class TestPowerMapOrbitsSplit:
    """A period-p orbit of f splits into gcd(p, k) orbits of f^k, one per
    residue class of its points.  The pipeline runs on f^k, a map with
    more branches and some left-open breakpoints, which no survey draws."""

    def test_criterion_6_samples(self):
        left_open = split = 0
        for idx in range(50):
            f = draw_pc(rng_for_sample(42, idx), 3, kappa_max=0.45)
            orbits = periodic_orbits(f, build_partition(f, preimage_set(f)))
            for k in (2, 3):
                g = power_map(f, k)
                part = build_partition(g, preimage_set(g))
                got = periodic_orbits(g, part)
                certify_limits(g, part)
                splits = {
                    frozenset(o.points[r::gcd(o.period, k)])
                    for o in orbits
                    for r in range(gcd(o.period, k))
                }
                assert {o.point_set() for o in got} == splits, (idx, k)
                assert len(got) == len(splits), (idx, k)
                left_open += g.closures.count(LEFT_OPEN)
                split += len(splits) > len(orbits)
        assert left_open >= 10 and split >= 5, (left_open, split)


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
                None, PreimageSet((), (), 0, COMPLETE), cuts, (1,) * m, (1,) * m
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


def _three_branch_pc(bps):
    maps = (Affine(F(1, 2), F(1, 4)), Affine(F(1, 3), F(1, 3)), Affine(0, F(1, 2)))
    return PiecewiseContraction(IteratedFunctionSystem(maps), Breakpoints(bps))


class TestEquivalenceClassesInputs:
    def test_orbits_are_never_computed(self, monkeypatch):
        # one orbit per index cycle: the count is read off the basins
        rng = random.Random(1409)
        checked = 0
        while checked < 20:
            built = _random_partition(rng)
            if built is None:
                continue
            f, part = built
            want = _oracle_equivalence_classes(f, part)

            def refuse(*args):
                raise AssertionError("periodic_orbits called")

            with monkeypatch.context() as m:
                m.setattr(pcdyn.quasipartition, "periodic_orbits", refuse)
                # a data descriptor: a table cached on part cannot bypass it
                m.setattr(QuasiPartition, "_limits", property(refuse))
                assert equivalence_classes(f, part) == want
            checked += 1

    def test_bound_checks_keep_their_messages(self):
        # cycles (1), (2) and (4); breakpoint 1 joins intervals 2 and 3,
        # which both end in cycle (2): one class
        f = PiecewiseContraction(
            IteratedFunctionSystem((Affine(F(1, 2), F(1, 4)), Affine(F(1, 2), F(1, 8)))),
            Breakpoints((F(1, 2),)),
        )
        part = QuasiPartition(
            f, PreimageSet((), (), 0, COMPLETE),
            (F(1, 4), F(1, 2), F(3, 4)), (1, 2, 2, 4), (1, 1, 2, 2),
        )
        with pytest.raises(
            BoundViolationError, match="^3 periodic orbits exceed class count 1$"
        ):
            equivalence_classes(f, part)
        # four adjacency intervals, each its own fixed cycle, for n = 3
        f3 = _three_branch_pc((F(1, 4), F(3, 4)))
        part = QuasiPartition(
            f3, PreimageSet((), (), 0, COMPLETE),
            (F(1, 4), F(1, 2), F(3, 4)), (1, 2, 3, 4), (1, 2, 2, 3),
        )
        with pytest.raises(
            BoundViolationError, match="^4 equivalence classes exceed branch count 3$"
        ):
            equivalence_classes(f3, part)


# --- the integer backward walk against the Fraction oracles ----------------


def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except (
        BoundaryOrbitError,
        InexactPreimageError,
        NonDiscretePreimageError,
        PartitionInvarianceError,
        ValueError,
    ) as exc:
        return type(exc), str(exc)


def _label(outcome):
    """A truncated closure's status, the type of a partition, or the name
    of the exception raised."""
    if isinstance(outcome, tuple):
        return outcome[0].__name__
    if isinstance(outcome, PreimageSet):
        return outcome.status
    return type(outcome).__name__


def _closures(rng, k):
    return tuple(rng.choice((RIGHT_OPEN, LEFT_OPEN)) for _ in range(k))


def _steep_pc(rng):
    """2-5 affine branches: slopes of both signs and zero, random closure
    flags, breakpoints on the 2^-16 grid."""
    n = rng.randint(2, 5)
    maps = [
        Affine(F(0), rand_fraction(rng, F(1, 100), F(99, 100)))
        if rng.random() < 0.15
        else rand_affine(rng)
        for _ in range(n)
    ]
    cuts = sorted({rand_fraction(rng, F(1, 20), F(19, 20)) for _ in range(n - 1)})
    if len(cuts) != n - 1:
        return None
    return PiecewiseContraction(
        IteratedFunctionSystem(tuple(maps)), Breakpoints(tuple(cuts)),
        _closures(rng, n - 1),
    )


def _tied_pc(rng):
    """Breakpoints in clusters 2^-70 apart, so several share one float, and
    one cluster around the image of a breakpoint under the first map: the
    level's float ties and the image ends' ties both need exact order.
    The first map's fixed point z gets the branch (z - 2^-70, z + 2^-70)
    and the same map there, so the orbit z shares a float with breakpoints
    and the cycle walk needs exact order too."""
    tiny = F(1, 2**70)
    n = rng.randint(2, 4)
    maps = [rand_affine(rng) for _ in range(n)]
    base = rand_fraction(rng, F(1, 10), F(2, 5))
    pts = {base, maps[0]._eval(base)}
    for _ in range(rng.randint(1, 2)):
        pts.add(rand_fraction(rng, F(1, 10), F(9, 10)))
    cuts = set()
    for p in pts:
        cuts.update(p + k * tiny for k in range(-1, 2))
    z = maps[0].fixed_point()
    cuts.update((z - tiny, z + tiny))
    cuts = sorted(c for c in cuts if 0 < c < 1)
    maps += [rand_affine(rng) for _ in range(len(cuts) + 1 - n)]
    j = cuts.index(z - tiny)
    if cuts[j + 1] == z + tiny:  # no other cut between: the branch is z's
        maps[j + 1] = maps[0]
    return PiecewiseContraction(
        IteratedFunctionSystem(tuple(maps)), Breakpoints(tuple(cuts)),
        _closures(rng, len(cuts)),
    )


def _mixed_pc(rng):
    """Affine branches mixed with quadratic, clamped and constant ones: the
    branches the walk solves point by point."""
    n = rng.randint(2, 4)
    kinds = [rand_affine, rand_affine, rand_quadratic, rand_clamped]
    maps = [rng.choice(kinds)(rng) for _ in range(n)]
    cuts = sorted({rand_fraction(rng, F(1, 20), F(19, 20), 2**8) for _ in range(n - 1)})
    if len(cuts) != n - 1:
        return None
    if rng.random() < 0.3:  # a constant branch, sometimes onto a breakpoint
        b = rng.choice(cuts + [rand_fraction(rng, F(1, 10), F(9, 10))])
        maps[rng.randrange(n)] = Affine(F(0), b)
    return PiecewiseContraction(
        IteratedFunctionSystem(tuple(maps)), Breakpoints(tuple(cuts)),
        _closures(rng, n - 1),
    )


def _assert_same_partition(f, q):
    """build_partition against its Fraction oracle and, on a partition of
    an affine system, periodic_orbits against the Fraction cycle solve."""
    got = _outcome(build_partition, f, q)
    want = _outcome(fraction_build_partition, f, q)
    if isinstance(want, QuasiPartition):
        assert got.cut_points == want.cut_points
        assert got.intervals == want.intervals
        assert got.transition == want.transition
        assert got.branch == want.branch
        if not all(type(m) is Affine for m in f.ifs):
            return want
        orbits = _outcome(periodic_orbits, f, got)
        assert orbits == _outcome(fraction_periodic_orbits, f, want)
        if isinstance(orbits, list):
            assert [o.home_cycle for o in orbits] == [
                o.home_cycle for o in fraction_periodic_orbits(f, want)
            ]
    else:
        assert got == want
    return want


class TestBackwardWalkAgainstFractionOracles:
    """preimage_set and build_partition on integer pairs against the
    point-by-point Fraction walk and the per-cut preimage check."""

    def _check(self, f, depth_cap=64, size_cap=10_000):
        got = _outcome(preimage_set, f, depth_cap, size_cap)
        want = _outcome(fraction_preimage_set, f, depth_cap, size_cap)
        if not isinstance(want, PreimageSet):
            assert got == want
            return want
        assert got.entries == want.entries
        assert got.depth_reached == want.depth_reached
        assert got.status == want.status
        if want.is_complete:
            return _assert_same_partition(f, got)
        return want

    def test_seeded_affine_systems(self):
        rng = random.Random(1663)
        outcomes = Counter()
        for i in range(300):
            f = _steep_pc(rng)
            if f is None:
                continue
            depth_cap, size_cap = (64, 10_000) if i % 3 else (rng.randint(1, 6), rng.randint(2, 30))
            outcomes[_label(self._check(f, depth_cap, size_cap))] += 1
        # every outcome is represented, so the comparison has teeth
        assert outcomes[TRUNCATED] >= 20 and outcomes["QuasiPartition"] >= 50

    def test_breakpoints_sharing_one_float(self):
        rng = random.Random(70)
        complete = tied = 0
        for _ in range(60):
            f = _tied_pc(rng)
            floats = [float(p) for p in f.breakpoints]
            assert len(set(floats)) < len(floats)
            want = self._check(f, 24, 400)
            if isinstance(want, QuasiPartition):
                complete += 1
                tied += any(
                    float(p) in floats
                    for o in periodic_orbits(f, want) for p in o.points
                )
        assert complete >= 10
        # orbit points on a breakpoint's float take the exact digit
        assert tied >= 10

    def test_an_image_end_tied_with_level_points(self):
        # branch 1 is [0, 1/4) or [0, 1/4]; its image ends at 3/8, flanked
        # 2^-70 away by two more breakpoints of one float
        tiny = F(1, 2**70)
        maps = (Affine(F(1, 2), F(1, 4)),) + tuple(
            Affine(F(1, 3), F(k, 7)) for k in range(1, 5)
        )
        cuts = (F(1, 4), F(3, 8) - tiny, F(3, 8), F(3, 8) + tiny)
        for closures in ((RIGHT_OPEN,) * 4, (LEFT_OPEN,) * 4):
            f = PiecewiseContraction(
                IteratedFunctionSystem(maps), Breakpoints(cuts), closures
            )
            self._check(f, 12, 2000)
            one = {e.point for e in preimage_set(f, 1).entries if e.depth == 1}
            # branch 1 solves 1/4 and 3/8 - tiny; 3/8 and 3/8 + tiny lie
            # on or past the end of its image
            assert {p for p in one if p < F(1, 4)} == {F(0), F(1, 4) - 2 * tiny}

    def test_a_decreasing_image_end_tied_with_level_points(self):
        # branch 1 is [0, 1/4) or [0, 1/4] under x -> 7/16 - x/4, so its
        # image [3/8, 7/16] starts at the image of the domain's hi end;
        # that end 3/8 is flanked 2^-70 away by two more breakpoints of
        # one float, and it is solved only when branch 1 owns 1/4
        tiny = F(1, 2**70)
        maps = (Affine(F(-1, 4), F(7, 16)),) + tuple(
            Affine(F(1, 3), F(k, 7)) for k in range(1, 5)
        )
        cuts = (F(1, 4), F(3, 8) - tiny, F(3, 8), F(3, 8) + tiny)
        level = [(p.numerator, p.denominator) for p in reversed(cuts)]
        above = {F(3, 8) + tiny: F(1, 4) - 4 * tiny}
        for closures, solved in (
            ((RIGHT_OPEN,) * 4, above),
            ((LEFT_OPEN,) * 4, {**above, F(3, 8): F(1, 4)}),
        ):
            f = PiecewiseContraction(
                IteratedFunctionSystem(maps), Breakpoints(cuts), closures
            )
            self._check(f, 12, 2000)
            ys, xs, inexact = _level_preimages(f._domains[:1], level)
            assert {F(*y): F(*x) for y, x in zip(ys, xs)} == solved
            assert len(ys) == len(solved) and not inexact
            # under LEFT_OPEN breakpoint 1/4 steps onto the breakpoint 3/8
            owned = F(3, 8) in solved
            assert connections(f, preimage_set(f)) == ((F(1, 4),) if owned else ())

    def test_mixed_branches_and_their_errors(self):
        # the closure solves a whole level before it names a failing point,
        # where the point-by-point oracle names the first it meets: when
        # the oracle raises, the closure raises on a point of the closure
        # that really fails
        rng = random.Random(1412)
        outcomes = Counter()
        for _ in range(200):
            f = _mixed_pc(rng)
            if f is None:
                continue
            try:
                fraction_preimage_set(f, 10, 300)
            except (InexactPreimageError, NonDiscretePreimageError):
                outcomes[_label(self._check_failing_point(f, 10, 300))] += 1
            else:
                outcomes[_label(self._check(f, 10, 300))] += 1
        assert outcomes["InexactPreimageError"] >= 15
        assert outcomes["NonDiscretePreimageError"] >= 20
        assert outcomes[TRUNCATED] + outcomes["QuasiPartition"] >= 20

    @staticmethod
    def _check_failing_point(f, depth_cap, size_cap):
        """preimage_set's error, checked on the point it names: a plateau
        there for NonDiscretePreimageError, a float root for
        InexactPreimageError; the point reaches a breakpoint within the
        depth cap."""
        with pytest.raises(
            (InexactPreimageError, NonDiscretePreimageError)
        ) as info:
            preimage_set(f, depth_cap, size_cap)
        exc = info.value
        if isinstance(exc, NonDiscretePreimageError):
            y = exc.value
            with pytest.raises(NonDiscretePreimageError):
                f.preimages(y)
        else:
            y = F(str(exc).removeprefix("irrational preimage of "))
            assert any(isinstance(p, float) for p in f.preimages(y))
        x = y
        for _ in range(depth_cap):
            if x in f.breakpoints.points:
                break
            x = f(x)
        assert x in f.breakpoints.points
        return type(exc), str(exc)

    def test_irrational_preimages_named_in_branch_order(self):
        # the decreasing branch 3 sends 17/30 onto 9/20 and 23/45 onto 1/2;
        # both have irrational preimages under the quadratic branch 1, which
        # solves its level ascending, so the smaller point is named, where
        # a walk from the breakpoints meets 17/30 first
        f = PiecewiseContraction(
            IteratedFunctionSystem((
                Quadratic(F(1, 10), F(1, 5), F(101, 200)),
                Affine(F(1, 2), F(1, 10)),
                Affine(F(-9, 10), F(24, 25)),
            )),
            Breakpoints((F(9, 20), F(1, 2))),
        )
        one = {e.point for e in preimage_set(f, 1).entries if e.depth == 1}
        assert one == {F(17, 30), F(23, 45)}
        assert _outcome(fraction_preimage_set, f) == (
            InexactPreimageError, "irrational preimage of 17/30"
        )
        assert _outcome(preimage_set, f) == (
            InexactPreimageError, "irrational preimage of 23/45"
        )

    def _fake_closures(self, rng, draw, count, keep=0.5, on_images=False):
        """build_partition against its oracle on ``count`` complete closures
        of drawn systems, each point past the breakpoints kept with
        probability ``keep``, random points added (and, ``on_images``,
        images of 0, 1 and closure points under random branches, which put
        cuts on plateau values); counts the errors by kind."""
        raised = Counter()
        checked = 0
        while checked < count:
            f = draw(rng)
            try:
                q = None if f is None else preimage_set(f, size_cap=400)
            except (InexactPreimageError, NonDiscretePreimageError):
                continue
            if q is None or not q.is_complete or len(q.entries) < 4:
                continue
            kept = [e for e in q.entries if e.depth == 0 or rng.random() < keep]
            extra = [QPoint(rand_fraction(rng, F(0), F(1)), 1, 1) for _ in range(rng.randint(0, 2))]
            if on_images:
                points = [F(0), F(1)] + [e.point for e in kept]
                extra += [
                    QPoint(rng.choice(f.ifs.maps)(rng.choice(points)), 1, 1)
                    for _ in range(rng.randint(0, 3))
                ]
            entries = sorted(
                {e.point: e for e in kept + extra if e.point < 1}.values(),
                key=lambda e: e.point,
            )
            fake = preimage_set_of(entries, q.depth_reached)
            want = _assert_same_partition(f, fake)
            if isinstance(want, tuple):
                raised["plateau" if "plateau" in want[1] else "straddles"] += 1
            checked += 1
        return raised

    def test_incomplete_closures_straddle_where_the_oracle_does(self):
        raised = self._fake_closures(random.Random(1664), _steep_pc, 150)
        assert raised["straddles"] >= 50
        # quadratic, clamped and constant branches: their image ends, and a
        # plateau on an end, decide in the oracle's order
        rng = random.Random(1666)
        raised = self._fake_closures(rng, _mixed_pc, 300, 0.9, on_images=True)
        assert raised["straddles"] >= 100 and raised["plateau"] >= 15

    def test_plateau_and_straddle_in_ascending_cut_order(self):
        def check(inner, cuts):
            f = PiecewiseContraction(
                IteratedFunctionSystem(
                    (Clamped(inner, F(0), F(1, 4)), Affine(F(1, 2), F(1, 4)))
                ),
                Breakpoints((F(1, 2),)),
            )
            fake = preimage_set_of([QPoint(c, 1, 1) for c in cuts])
            return _assert_same_partition(f, fake)

        # -2x/5 + 9/10 clamped at 1/4 maps (0, 1/2) onto [4/5, 9/10], with
        # the plateau 4/5 at the lower end and the cut 17/20 inside
        inner = Affine(F(-2, 5), F(9, 10))
        assert check(inner, (F(1, 2), F(4, 5), F(17, 20))) == (
            PartitionInvarianceError,
            "interval 1 has a plateau on closure point 4/5",
        )
        # 2x/5 + 1/2 clamped at 1/4 maps (0, 1/2) onto [1/2, 3/5], with the
        # cut 11/20 inside and the plateau 3/5 at the upper end
        inner = Affine(F(2, 5), F(1, 2))
        assert check(inner, (F(1, 2), F(11, 20), F(3, 5))) == (
            PartitionInvarianceError,
            "image of interval 1 straddles closure point 11/20",
        )
        assert check(inner, (F(1, 2), F(3, 5))) == (
            PartitionInvarianceError,
            "interval 1 has a plateau on closure point 3/5",
        )

    def test_cycle_solve_takes_no_word_map_and_digit_only_on_ties(
        self, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("word map composed")

        digit = PiecewiseContraction.digit
        calls = []

        def counted(self, x):
            calls.append((self, x))
            return digit(self, x)

        monkeypatch.setattr(pcdyn.pcmap, "_word_map", refuse)
        monkeypatch.setattr(PiecewiseContraction, "digit", counted)
        rng = random.Random(1665)
        checked = 0
        while checked < 40:
            f = _steep_pc(rng)
            q = None if f is None else preimage_set(f, size_cap=400)
            if q is None or not q.is_complete:
                continue
            part = build_partition(f, q)
            assert periodic_orbits(f, part) == fraction_periodic_orbits(f, part)
            checked += 1
        f = period3_pc()
        assert [o.points for o in periodic_orbits(f, build_partition(f, preimage_set(f)))] == [
            (F(2, 7), F(11, 28), F(9, 28))
        ]
        # digit ran only on points that share a float with a breakpoint
        assert all(float(x) in g._bp_keys for g, x in calls)
        # the forward orbit search confirms its cycle the same way
        assert orbit(f, F(0)).orbit.points == (F(2, 7), F(11, 28), F(9, 28))
        # the boundary orbit 1/2 of x/2 + 1/4 split at 1/2 sits on the
        # breakpoint: the walk resolves it through digit
        maps = IteratedFunctionSystem(
            (Affine(F(1, 2), F(1, 4)), Affine(F(1, 2), F(1, 8)))
        )
        f = PiecewiseContraction(maps, Breakpoints((F(1, 2),)))
        with pytest.raises(
            BoundaryOrbitError,
            match="^the fixed point of index cycle 1 does not follow its word 1$",
        ):
            periodic_orbits(f, build_partition(f, preimage_set(f)))
        assert calls[-1] == (f, F(1, 2))
        g = PiecewiseContraction(maps, f.breakpoints, (LEFT_OPEN,))
        part = build_partition(g, preimage_set(g))
        assert periodic_orbits(g, part) == [PeriodicOrbit((F(1, 2),), 1, (1,))]

    def test_straddle_found_at_the_second_cut(self):
        # interval (0, 1/4) maps onto (1/4, 3/8): the cut 1/4 is its lower
        # end, the breakpoint 3/10 lies strictly inside
        fake = preimage_set_of([QPoint(F(1, 4), 1, 1), QPoint(F(3, 10), 1, 0)])
        f = period3_pc()
        want = _assert_same_partition(f, fake)
        assert want == (
            PartitionInvarianceError,
            "image of interval 1 straddles closure point 3/10",
        )
        # a decreasing branch: -x/2 + 5/8 maps (1/8, 1/4) onto (1/2, 9/16)
        g = PiecewiseContraction(
            IteratedFunctionSystem((Affine(F(-1, 2), F(5, 8)), Affine(F(1, 2), F(1, 8)))),
            Breakpoints((F(3, 10),)),
        )
        cuts = (F(1, 8), F(1, 4), F(3, 10), F(1, 2), F(17, 32))
        fake = preimage_set_of([QPoint(c, 1, 1) for c in cuts])
        assert _assert_same_partition(g, fake) == (
            PartitionInvarianceError,
            "image of interval 2 straddles closure point 17/32",
        )


def _oracle_level(branches, level):
    """``_level_preimages`` point by point: each branch, each y ascending,
    through the map's generic ``preimages`` on the branch's domain, an end
    dropped when its flag excludes it; the (y, x) pairs as a set, the ys
    with an irrational root as a list."""
    pairs, inexact = set(), []
    for m, dom, lo_in, hi_in, _ in branches:
        for y in sorted(level, key=lambda p: F(*p)):
            for p in m.preimages(F(*y), dom):
                if (p == dom.lo and not lo_in) or (p == dom.hi and not hi_in):
                    continue
                if isinstance(p, float):
                    inexact.append(y)
                else:
                    pairs.add((y, (p.numerator, p.denominator)))
    return pairs, inexact


def _level_outcome(solve, branches, level):
    try:
        return solve(branches, level)
    except NonDiscretePreimageError as exc:
        return NonDiscretePreimageError, exc.value


def _run(f):
    """The closure's points and provenance, the partition's cuts,
    transition and branches, and the periodic orbits of f; or the type
    and message of what the pipeline raised."""
    try:
        q = preimage_set(f)
        part = build_partition(f, q)
        orbits = periodic_orbits(f, part)
    except Exception as exc:
        return type(exc), str(exc)
    return q.points, q.provenance, part.cut_points, part.transition, part.branch, orbits


class TestAffineOnTheDomain:
    """A Clamped branch whose window holds its domain is its inner Affine
    there: its form in _domains is that Affine's, so the backward walk, the
    partition and the cycle fold treat it as that Affine.  The affine
    system's run is the oracle."""

    def test_capped_criterion_6_orbits_are_the_originals(self):
        # the 200 criterion-6 draws and their left-open twins, capped
        seen = Counter()
        for idx in range(200):
            f = draw_pc(rng_for_sample(42, idx), 3, kappa_max=0.45)
            capped = cap_ifs(f.ifs, f.breakpoints).capped
            for closures in (f.closures, (LEFT_OPEN, LEFT_OPEN)):
                g = PiecewiseContraction(f.ifs, f.breakpoints, closures)
                gc = PiecewiseContraction(capped, f.breakpoints, closures)
                assert [b[4][:3] for b in gc._domains] == [m._ints for m in f.ifs]
                want, got = _run(g), _run(gc)
                assert got == want, (idx, closures)
                if isinstance(want[0], type):
                    seen["raised"] += 1
                    continue
                orbits = got[-1]
                assert all(type(x) is F for o in orbits for x in o.points)
                seen[closures[0]] += len(orbits)
        assert seen == {RIGHT_OPEN: 254, LEFT_OPEN: 254}, seen

    def test_unit_window_respellings(self):
        # Clamped(m, 0, 1) is m on [0, 1]: the criterion-6 draws and their
        # f^2 (left-open flags, 64-bit D) respelled branch by branch
        seen = Counter()
        for idx in range(60):
            f = draw_pc(rng_for_sample(42, idx), 3, kappa_max=0.45)
            for g in (f, power_map(f, 2)):
                maps = tuple(Clamped(m, 0, 1) for m in g.ifs)
                gc = PiecewiseContraction(
                    IteratedFunctionSystem(maps), g.breakpoints, g.closures
                )
                assert [b[4][:3] for b in gc._domains] == [m._ints for m in g.ifs]
                want, got = _run(g), _run(gc)
                assert got == want
                assert all(type(x) is F for o in got[-1] for x in o.points)
                xs = [F(2 * j + 1, 2**20) for j in range(0, 2**19, 2**13)]
                assert [gc(x) for x in xs] == [g(x) for x in xs]
                seen["left-open"] += g.closures.count(LEFT_OPEN)
                seen["orbits"] += len(got[-1])
        assert seen["left-open"] >= 10 and seen["orbits"] >= 150, seen


class TestLevelPreimages:
    """The per-point image test on unsorted levels against the per-y
    oracle, on each system's own branches and on the tree's [0, 1] ones."""

    @staticmethod
    def _level(rng, f):
        """Breakpoints, random points, and each branch's image ends, some
        with points 2^-70 on either side that share the end's float, as a
        shuffled list of pairs."""
        tiny = F(1, 2**70)
        pts = set(f.breakpoints.points)
        pts.update(rand_fraction(rng, F(1, 50), F(49, 50)) for _ in range(6))
        for m, dom, *_ in f._domains:
            for end in (dom.lo, dom.hi):
                y = m(end)
                pts.update((y - tiny, y, y + tiny) if rng.random() < 0.5 else (y,))
        level = [(p.numerator, p.denominator) for p in pts if 0 < p < 1]
        rng.shuffle(level)
        return level

    def test_shuffled_levels_against_the_per_point_oracle(self):
        UNIT = Interval(F(0), F(1))
        rng = random.Random(3401)
        seen = Counter()
        for draw in (_steep_pc, _mixed_pc) * 150:
            f = draw(rng)
            if f is None:
                continue
            level = self._level(rng, f)
            keys = {y[0] / y[1] for y in level}
            unit = [(m, UNIT, True, True, _branch_form(m, UNIT)) for m in f.ifs]
            for branches in (f._domains, unit):
                got = _level_outcome(_level_preimages, branches, level)
                want = _level_outcome(_oracle_level, branches, level)
                if isinstance(want[0], set):
                    ys, xs, inexact = got
                    assert len(ys) == len(xs) == len(want[0])
                    assert set(zip(ys, xs)) == want[0]
                    assert inexact == want[1]
                    seen["irrational"] += bool(inexact)
                else:
                    assert got == want
                    seen["plateau"] += 1
                for *_, form in branches:
                    if form is not None:
                        seen["end tie"] += form[3] in keys or form[4] in keys
        # irrational roots, plateaus and float ties with image ends all occur
        assert seen["irrational"] >= 20 and seen["plateau"] >= 20
        assert seen["end tie"] >= 500

    def test_two_plateau_values_on_one_level(self):
        # the decreasing clamp sends [0, 1/4] to 5/8 and [3/4, 9/10) to 3/8:
        # the level is solved ascending, so 3/8 is named in either order
        m = Clamped(Affine(F(-1, 2), F(3, 4)), F(1, 4), F(3, 4))
        f = PiecewiseContraction(
            IteratedFunctionSystem((m, Affine(F(1, 2), F(1, 4)))),
            Breakpoints((F(9, 10),)),
        )
        for level in ([(5, 8), (1, 2), (3, 8)], [(3, 8), (1, 2), (5, 8)]):
            with pytest.raises(NonDiscretePreimageError) as info:
                _level_preimages(f._domains, level)
            assert info.value.value == F(3, 8)
            assert (info.value.lo, info.value.hi) == (F(3, 4), F(9, 10))

    def test_no_sort_per_level(self, monkeypatch):
        # a closure whose branches are all affine with a nonzero slope
        # sorts its points once, at the end, however deep it goes
        calls = []

        def counting(pairs):
            calls.append(len(pairs))
            return sort_pairs(pairs)

        monkeypatch.setattr(pcdyn.quasipartition, "sort_pairs", counting)
        monkeypatch.setattr(pcdyn.pcmap, "sort_pairs", counting)
        rng = random.Random(1663)
        depths = set()
        while len(depths) < 6:
            f = _steep_pc(rng)
            if f is None or not all(b[4] and b[4][0] for b in f._domains):
                continue  # a constant branch solves its levels sorted
            calls.clear()
            q = preimage_set(f, 64, 400)
            assert len(calls) == 1
            depths.add(q.depth_reached)
        assert max(depths) >= 6
