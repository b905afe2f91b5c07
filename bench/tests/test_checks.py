"""Each output check accepts pcdyn's output and rejects a corrupted copy.

Run with ``python -m pytest bench/tests``.
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))
sys.path.insert(0, str(HERE.parents[2] / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from pcdyn import (  # noqa: E402
    Affine,
    Breakpoints,
    IteratedFunctionSystem,
    PiecewiseContraction,
    attractor_sequence,
    build_partition,
    cap_ifs,
    equivalence_classes,
    is_generic,
    omega_limit,
    periodic_orbits,
    power_map,
    preimage_set,
)
from pcdyn.config import parse_config  # noqa: E402
from pcdyn.survey import run_survey, survey_csv  # noqa: E402

TINY = F(1, 2**40)

# two half-slope branches split at 3/10: one period-3 orbit, seven intervals
P3_BPS = (F(3, 10),)
P3_MAPS = ((F(1, 2), F(1, 4)), (F(1, 2), F(1, 8)))


def pc(bps, maps) -> PiecewiseContraction:
    return PiecewiseContraction(
        IteratedFunctionSystem(tuple(Affine(a, b) for a, b in maps)), Breakpoints(bps)
    )


def partition_output(bps, maps) -> dict:
    f = pc(bps, maps)
    part = build_partition(f, preimage_set(f))
    return {
        "cuts": part.cut_points,
        "transition": part.transition,
        "branch": part.branch,
        "orbits": [(o.points, o.word) for o in periodic_orbits(f, part)],
        "classes": len(equivalence_classes(f, part).classes),
        "limits": [(o.points, o.word) for o in
                   (omega_limit(f, F(g, workloads.GRID), part) for g in range(workloads.GRID))],
    }


# --- the oracle ---------------------------------------------------------------

def test_backward_search_agrees_with_forward_genericity():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(40):
        bps, maps = workloads.draw_instance(rng, 3, F(-9, 20), F(9, 20))
        want = is_generic(pc(bps, maps), 3)
        assert checks.generic_by_backward_search(bps, maps, 3) == want
        verdicts.add(want)
    assert True in verdicts
    # the first map sends 0 straight onto the breakpoint
    bps, maps = (F(1, 2),), ((F(1, 4), F(1, 2)), (F(1, 4), F(1, 8)))
    assert not is_generic(pc(bps, maps), 1)
    assert not checks.generic_by_backward_search(bps, maps, 1)


def test_float_cycles_find_the_period3_orbit():
    (row,) = checks.float_cycles([(P3_BPS, P3_MAPS)], workloads.GRID)
    orbit = sorted(float(p) for p in (F(2, 7), F(11, 28), F(9, 28)))
    for cycle in row:
        assert cycle is not None and len(cycle) == 3
        assert all(abs(u - v) < 1e-12 for u, v in zip(sorted(cycle), orbit))


# --- survey-n3 ----------------------------------------------------------------

def survey_text() -> str:
    cfg = parse_config("n 3\nkappa_max 0.45\ngrid 16\ngeneric_depth 3\nseed 42\nsamples 8\n")
    return survey_csv(run_survey(cfg))


def test_survey_check_rejects_a_flipped_generic_flag():
    text = survey_text()
    assert checks.check_survey(text, n=3, samples=8, depth=3, grid=16) == []
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[1] = "false" if fields[1] == "true" else "true"
    lines[5] = ",".join(fields)
    problems = checks.check_survey("\n".join(lines) + "\n", n=3, samples=8, depth=3, grid=16)
    assert [i for i, _ in problems] == [3]


def test_survey_check_rejects_orbit_counts_outside_the_bound():
    lines = survey_text().splitlines()
    row = next(i for i, line in enumerate(lines[2:10], start=2)
               if line.split(",")[1] == "true" and line.split(",")[8] == "")
    fields = lines[row].split(",")
    fields[5] = fields[6] = "0"
    lines[row] = ",".join(fields)
    problems = checks.check_survey("\n".join(lines) + "\n", n=3, samples=8, depth=3, grid=16)
    assert problems and all(i == row - 2 for i, _ in problems)


# --- partition-steep ------------------------------------------------------------

def test_partition_check_accepts_pcdyn_output():
    out = partition_output(P3_BPS, P3_MAPS)
    assert checks.check_partition(0, P3_BPS, P3_MAPS, out) == []
    assert checks.check_partition_limits([(P3_BPS, P3_MAPS)], [out], workloads.GRID) == []


def test_partition_check_rejects_an_orbit_point_moved_by_2_to_the_minus_40():
    out = partition_output(P3_BPS, P3_MAPS)
    points, word = out["orbits"][0]
    out["orbits"] = [((points[0] + TINY,) + points[1:], word)]
    assert checks.check_partition(0, P3_BPS, P3_MAPS, out)


def test_partition_check_rejects_a_dropped_cut_point():
    out = partition_output(P3_BPS, P3_MAPS)
    j = next(i for i, c in enumerate(out["cuts"]) if c not in P3_BPS)
    # drop cut j and merge the two intervals it separated
    out["cuts"] = out["cuts"][:j] + out["cuts"][j + 1:]
    out["transition"] = tuple(t - (t > j + 1) for t in out["transition"][:j + 1] + out["transition"][j + 2:])
    out["branch"] = out["branch"][:j + 1] + out["branch"][j + 2:]
    assert checks.check_partition(0, P3_BPS, P3_MAPS, out)


def test_partition_limit_check_rejects_a_limit_off_the_float_limit():
    out = partition_output(P3_BPS, P3_MAPS)
    points, word = out["limits"][5]
    out["limits"][5] = (tuple(p + TINY * 2**20 for p in points), word)
    assert checks.check_partition_limits([(P3_BPS, P3_MAPS)], [out], workloads.GRID)


# --- attractor-power --------------------------------------------------------------

def attractor_instance():
    rng = random.Random(11)
    return workloads.draw_instance(rng, 3, *workloads.ATTRACTOR_BAND)


def test_power_check_rejects_a_wrong_branch():
    bps, maps = attractor_instance()
    f = pc(bps, maps)
    g = power_map(f, 2)
    assert checks.check_power(0, bps, maps, 2, g.breakpoints.points, g) == []
    wrong = list(g.ifs.maps)
    wrong[0], wrong[-1] = wrong[-1], wrong[0]
    bad = PiecewiseContraction(IteratedFunctionSystem(tuple(wrong)), g.breakpoints, g.closures)
    assert checks.check_power(0, bps, maps, 2, bad.breakpoints.points, bad)
    assert checks.check_power(0, bps, maps, 2, g.breakpoints.points[1:], g)


def test_attractor_check_rejects_a_set_that_is_not_nested():
    bps, maps = attractor_instance()
    ifs = IteratedFunctionSystem(tuple(Affine(a, b) for a, b in maps))
    seq = [[(iv.lo, iv.hi) for iv in s] for s in attractor_sequence(ifs, 6)]
    assert checks.check_attractor(0, maps, seq) == []
    del seq[4][0]
    assert checks.check_attractor(0, maps, seq)


def test_values_check_rejects_a_wrong_capped_value():
    bps, maps = attractor_instance()
    f = pc(bps, maps)
    plan = cap_ifs(f.ifs, bps)
    fc = PiecewiseContraction(plan.capped, f.breakpoints)
    g2, g3 = power_map(f, 2), power_map(f, 3)
    points = workloads.EVAL_POINTS[:32]
    values = [(f(x), fc(x), g2(x), g3(x)) for x in points]
    assert checks.check_values(0, bps, maps, points, values) == []
    values[7] = (values[7][0], values[7][1] + TINY) + values[7][2:]
    assert checks.check_values(0, bps, maps, points, values)


# --- the generator --------------------------------------------------------------

def test_stratified_passes_fill_every_band_equally():
    rng = random.Random(3)
    edges = tuple(range(0, 2 * workloads.BANDS + 1, 2))
    # odd sizes, some past the last edge; band j holds only the size 2j + 1
    drawn = workloads.stratified(
        3 * workloads.BANDS, lambda: [(v, v) for v in (2 * rng.randrange(23) + 1,)], edges)
    assert sorted(drawn) == sorted(list(range(1, 2 * workloads.BANDS, 2)) * 3)


def test_generated_inputs_depend_only_on_the_seed():
    a = workloads.attractor_systems(7)
    assert a == workloads.attractor_systems(7)
    assert a != workloads.attractor_systems(8)
    assert sorted(len(maps) for _, maps in a) == [2] * 100 + [3] * 100 + [4] * 100
