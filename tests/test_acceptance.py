"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Heavy criteria fan out over a process pool; their CSV artifacts are
deterministic functions of the seeds alone, which criterion 8 checks by
byte comparison across repeats and worker counts.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction as F

from pcdyn import (
    Affine,
    Backend,
    Breakpoints,
    IteratedFunctionSystem,
    PiecewiseContraction,
    attractor_sequence,
    build_partition,
    cap_ifs,
    equivalence_classes,
    highly_contractive_bound,
    is_generic,
    omega_limit,
    periodic_orbits,
    power_map,
    preimage_set,
)
from pcdyn.cli import main
from pcdyn.config import RunConfig
from pcdyn.numerics import format_scalar
from pcdyn.sampling import draw_breakpoints, draw_ifs, draw_pc, rng_for_sample
from pcdyn.survey import run_survey, survey_csv

C2_SEED = 20260808
C4_SEED = 851
C5_SEED = 7117
C6_SEED = 42

_artifacts: dict[str, str] = {}


def _report(num: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, (
        f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    )
    print(f"ACCEPTANCE {num}: PASS  ({elapsed:5.2f}s < {budget:g}s)  {desc}")


# --- criterion 1 -----------------------------------------------------------

def test_criterion_1_example_exactness(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "ex.cfg"
    cfg.write_text(
        "backend exact\nmap affine 4/5 1/10\nmap affine 3/5 1/20\nk_max 20\n"
    )
    out = tmp_path / "aks.csv"
    assert main(["aks", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    per_k: dict[int, list[tuple[F, F]]] = {}
    for row in rows:
        k, _, lo, hi, _ = row.split(",")
        per_k.setdefault(int(k), []).append((F(lo), F(hi)))
    for k in range(21):
        comps = per_k[k]
        assert len(comps) == 1, f"A_{k} should be a single component"
        lo, hi = comps[0]
        assert lo == F(1, 8) * (1 - F(3, 5) ** k)
        assert hi == F(4, 5) ** k + F(1, 2) * (1 - F(4, 5) ** k)
    lo20, hi20 = per_k[20][0]
    assert abs(lo20 - F(1, 8)) < F(1, 100)
    assert abs(hi20 - F(1, 2)) < F(1, 100)
    assert Affine(F(3, 5), F(1, 20)).fixed_point() == F(1, 8)
    assert Affine(F(4, 5), F(1, 10)).fixed_point() == F(1, 2)
    _report(1, "example attractor endpoints exact through k = 20", t0, 1.0)


# --- criterion 2 -----------------------------------------------------------

def _c2_generate() -> str:
    rows = ["instance,n,k,components,measure"]
    for idx in range(100):
        rng = rng_for_sample(C2_SEED, idx)
        n = 2 + idx % 3
        band = None if n == 2 else (0.3, 0.45)
        ifs = draw_ifs(rng, n, kappa_max=0.45, slope_band=band)
        seq = attractor_sequence(ifs, 10)
        rho = highly_contractive_bound(ifs)
        for k, s in enumerate(seq):
            assert len(s) <= n**k, f"component bound broken at {idx}, k={k}"
            if k + 1 < len(seq):
                assert seq[k].contains_set(seq[k + 1]), (
                    f"nestedness broken at instance {idx}, k={k}"
                )
                if rho is not None:
                    assert seq[k + 1].measure() <= rho * seq[k].measure()
            rows.append(
                f"{idx},{n},{k},{len(s)},{format_scalar(s.measure())}"
            )
    return "\n".join(rows) + "\n"


def test_criterion_2_attractor_properties():
    t0 = time.perf_counter()
    _artifacts["c2"] = _c2_generate()
    _report(
        2,
        "nestedness, component bound, certified measure decay on 100 systems",
        t0,
        10.0,
    )


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_period3_instance():
    t0 = time.perf_counter()
    f = PiecewiseContraction(
        IteratedFunctionSystem(
            (Affine(F(1, 2), F(1, 4)), Affine(F(1, 2), F(1, 8)))
        ),
        Breakpoints((F(3, 10),)),
    )
    q = preimage_set(f)
    assert q.is_complete
    assert set(q.points) == {
        F(1, 10), F(1, 5), F(3, 10), F(7, 20), F(9, 20), F(13, 20)
    }
    part = build_partition(f, q)
    assert part.m == 7
    orbs = periodic_orbits(f, part)
    assert len(orbs) == 1
    orb = orbs[0]
    assert orb.point_set() == {F(2, 7), F(11, 28), F(9, 28)}
    assert sorted(orb.word) == [1, 2, 2]
    ec = equivalence_classes(f, part)
    assert len(ec.classes) <= 2
    for g in range(256):
        got = omega_limit(f, F(g, 256), part)
        assert got.point_set() == orb.point_set()
    _report(3, "derived period-3 instance: closure, orbit, limits", t0, 1.0)


# --- criterion 4 -----------------------------------------------------------

def _c4_instance(idx: int) -> tuple[list[str], bool]:
    rng = rng_for_sample(C4_SEED, idx)
    n = 2 + idx % 3
    centers = draw_breakpoints(rng, n)
    ifs = draw_ifs(rng, n, kappa_max=0.45)
    plan = cap_ifs(ifs, centers)
    rho = highly_contractive_bound(plan.capped)
    ok = rho is not None and rho < 1
    rows = [f"{idx},delta,{format_scalar(plan.delta)}"]
    rows.append(f"{idx},rho,{format_scalar(rho)}")
    pts = [F(int(v), 1 << 20) for v in rng.integers(0, 1 << 20, size=1000)]
    for pert in range(20):
        js = rng.integers(-(1 << 20) + 1, 1 << 20, size=n - 1)
        ys = tuple(
            c + plan.delta * F(int(j), 1 << 20)
            for c, j in zip(centers, js)
        )
        assert plan.covers(ys)
        f_orig = PiecewiseContraction(ifs, Breakpoints(ys))
        f_cap = PiecewiseContraction(plan.capped, Breakpoints(ys))
        agree = sum(1 for x in pts if f_orig(x) == f_cap(x))
        ok = ok and agree == len(pts)
        rows.append(f"{idx},{pert},{agree}")
    return rows, ok


def _c4_generate(jobs: int) -> str:
    header = ["instance,item,value"]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_c4_instance, range(50)))
    else:
        results = [_c4_instance(i) for i in range(50)]
    rows = []
    for lines, ok in results:
        assert ok, "capped and original systems disagreed inside the collar"
        rows.extend(lines)
    return "\n".join(header + rows) + "\n"


def test_criterion_4_capping_identity():
    t0 = time.perf_counter()
    _artifacts["c4"] = _c4_generate(jobs=8)
    _report(
        4,
        "capped systems certified contractive and identical inside collars",
        t0,
        10.0,
    )


# --- criterion 5 -----------------------------------------------------------

def _c5_oracle_cuts(f: PiecewiseContraction, k: int) -> set:
    """Independent refinement oracle: solve a*x + b = q branch by branch."""
    want = set(f.breakpoints.points)
    level = set(f.breakpoints.points)
    for _ in range(k - 1):
        nxt = set()
        for q in level:
            for i, m in enumerate(f.ifs.maps, start=1):
                if m.a == 0:
                    continue
                x = (q - m.b) / m.a
                lo = F(0) if i == 1 else f.breakpoints[i - 2]
                hi = F(1) if i == f.n else f.breakpoints[i - 1]
                if lo <= x < hi and x not in want and 0 < x < 1:
                    nxt.add(x)
        want |= nxt
        level = nxt
    return want


def _c5_instance(idx: int) -> tuple[list[str], bool]:
    rng = rng_for_sample(C5_SEED, idx)
    n = 2 + idx % 2
    while True:
        f = draw_pc(rng, n, kappa_max=0.45)
        if is_generic(f, 3):
            break
    rows = []
    ok = True
    for k in (2, 3):
        g = power_map(f, k)
        ok = ok and set(g.breakpoints.points) == _c5_oracle_cuts(f, k)
        bps = set(g.breakpoints.points)
        agree = 0
        total = 0
        for v in rng.integers(0, 1 << 20, size=10**4):
            x = F(int(v), 1 << 20)
            if x in bps:
                continue
            total += 1
            y = x
            for _ in range(k):
                y = f(y)
            if g(x) == y:
                agree += 1
        ok = ok and agree == total
        rows.append(f"{idx},{k},{g.n},{agree},{total}")
    return rows, ok


def _c5_generate(jobs: int) -> str:
    header = ["instance,k,branches,agree,total"]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_c5_instance, range(25)))
    else:
        results = [_c5_instance(i) for i in range(25)]
    rows = []
    for lines, ok in results:
        assert ok, "power map disagreed with iterated evaluation"
        rows.extend(lines)
    return "\n".join(header + rows) + "\n"


def test_criterion_5_power_map_identity():
    t0 = time.perf_counter()
    _artifacts["c5"] = _c5_generate(jobs=8)
    _report(
        5,
        "power maps match k-fold evaluation and the preimage oracle",
        t0,
        30.0,
    )


# --- criterion 6 -----------------------------------------------------------

def _c6_config(jobs: int) -> RunConfig:
    return RunConfig(
        backend=Backend.exact(),
        seed=C6_SEED,
        samples=200,
        n=3,
        kappa_max=0.45,
        grid=64,
        jobs=jobs,
    )


def test_criterion_6_survey():
    t0 = time.perf_counter()
    report = run_survey(_c6_config(jobs=8))
    assert not report.bound_violated()
    csv = survey_csv(report)
    rows = csv.split("\naggregate\n")[0].splitlines()[2:]
    for rec, row in zip(report.records, rows, strict=True):
        # the grid_converged column is the conclusive flag
        assert row.split(",")[7] == str(rec.conclusive).lower()
        if rec.generic and rec.conclusive:
            assert 1 <= rec.orbit_count <= 3
            assert rec.orbit_count <= rec.class_count <= 3
            assert not rec.violation
    assert report.inconclusive_count <= 10, (
        f"{report.inconclusive_count} inconclusive samples out of 200"
    )
    _artifacts["c6"] = csv
    _report(
        6,
        f"200-sample survey: {report.conclusive_count} conclusive, "
        f"orbit counts within [1, 3]",
        t0,
        120.0,
    )


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_bound_saturation():
    t0 = time.perf_counter()
    f = PiecewiseContraction(
        IteratedFunctionSystem((Affine(F(0), F(1, 3)), Affine(F(0), F(2, 3)))),
        Breakpoints((F(1, 2),)),
    )
    part = build_partition(f, preimage_set(f))
    orbs = periodic_orbits(f, part)
    assert len(orbs) == 2 == f.n
    assert {o.points for o in orbs} == {(F(1, 3),), (F(2, 3),)}
    _report(7, "constant-branch instance attains the orbit-count bound", t0, 1.0)


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_determinism():
    t0 = time.perf_counter()
    assert _c2_generate() == _artifacts["c2"]
    assert _c4_generate(jobs=1) == _artifacts["c4"]
    assert _c5_generate(jobs=1) == _artifacts["c5"]
    assert survey_csv(run_survey(_c6_config(jobs=1))) == _artifacts["c6"]
    _report(
        8,
        "criteria 2/4/5/6 byte-identical across repeats and jobs in {1, 8}",
        t0,
        300.0,
    )
