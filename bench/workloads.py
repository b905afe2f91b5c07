"""The three workloads: seeded inputs, one pass over them, and its checks.

Each workload builds a fixed list of items from the workload seed, runs a
pass over all of them through pcdyn's public functions, and checks one
pass's outputs with the oracle in ``checks``.  Later passes must repeat the
checked pass exactly; their fingerprints are compared for that.

pcdyn functions are looked up on their modules at call time, so that the
tracer's wrappers (installed on those modules) see every call, and pcdyn
is imported inside the methods, so that the generator runs without it.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks

DEN = 1 << 32  # parameters live on the 2^-32 grid, as in pcdyn.sampling
MARGIN = Fraction(1, 64)
GRID = 64

SURVEY_CONFIG = (
    "n 3\nkappa_max 0.45\ngrid 64\ngeneric_depth 5\nseed {seed}\nsamples 200\n"
)
SURVEY_SAMPLES = 200

PARTITION_INSTANCES = 1200  # 400 each for n = 3, 4, 5
PARTITION_KAPPA = Fraction(9, 10)
# instances whose own backward closure is deeper or larger are redrawn: the
# closure depth grows like log(distance to a cycle) / log(1/slope), and a
# rare deep closure would make one instance cost as much as hundreds
PARTITION_MAX_DEPTH = 24
PARTITION_MAX_POINTS = 40

ATTRACTOR_SYSTEMS = 300  # 100 each for n = 2, 3, 4
ATTRACTOR_K = 10
ATTRACTOR_BAND = (Fraction(3, 10), Fraction(9, 20))  # overlapping band, n >= 3
ATTRACTOR_KAPPA = Fraction(9, 20)  # n = 2: |slope| <= 9/20

# Item cost varies tenfold within a workload, so a plain random pass changes
# cost by several percent from seed to seed.  Each pass is stratified
# instead, on a size the generator computes with its own code:
#   partition-steep: closure points + (sum of the 64 grid points' limit
#     periods) / 16, which predicts 96 % of the item-cost variance;
#   attractor-power: total component count of A_1..A_10 (92 %).
# BAND_EDGES[workload][n] are the 0, 5, ..., 100 % quantiles of that size
# over the smallest 99 % of 20000 unstratified draws (``python3
# bench/workloads.py`` prints them); a pass holds the same number of draws
# from each of the 20 bands, and draws beyond the last edge are redrawn,
# which keeps the rare n^k-component systems out.
BANDS = 20
KEEP_SHARE = 0.99
BAND_EDGES = {
    "partition-steep": {
        3: (6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 7.0, 7.0, 7.0, 7.0, 8.0, 8.8125, 9.5625, 10.0, 11.0, 12.0, 14.0, 17.0, 25.0, 55.0),
        4: (7.0, 7.0, 7.0, 7.0, 7.0, 8.0, 8.0, 8.0, 9.0, 9.0, 10.0, 11.0, 11.4375, 12.0, 13.0, 14.0, 16.0, 18.125, 22.3125, 30.0, 61.0),
        5: (8.0, 8.0, 8.0, 9.0, 9.0, 9.125, 10.0, 10.625, 11.0, 12.0, 12.625, 13.0, 14.0, 15.0, 16.0, 18.0, 19.875, 22.5, 27.0, 35.0, 64.0),
    },
    "attractor-power": {
        2: (10, 257, 512, 512, 512, 1023, 1023, 1023, 1023, 1023, 1023, 2035, 2046, 2046, 2046, 2046, 2046, 2046, 2046, 2046, 2046),
        3: (10, 10, 10, 10, 10, 60, 103, 150, 199, 262, 322, 402, 494, 619, 754, 934, 1172, 1546, 2044, 3040, 6882),
        4: (10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 17, 24, 50, 82, 117, 167, 235, 340, 558, 1342),
    },
}
EVAL_POINTS = tuple(Fraction(2 * j + 1, 512) for j in range(256))


class NullClock:
    """Stands in for RefClock on the untimed checked pass."""

    def begin_item(self) -> float:
        return 0.0

    def end_item(self, t0: float) -> None:
        pass


# --- the benchmark's own instance generator ------------------------------------

def _on_grid(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Uniform on [lo, hi], rounded to the 2^-32 grid (lo, hi on the grid)."""
    v = lo + (hi - lo) * Fraction(rng.getrandbits(32), DEN)
    return Fraction(round(v * DEN), DEN)


def draw_instance(rng: random.Random, n: int, slope_lo: Fraction, slope_hi: Fraction):
    """Breakpoints at least MARGIN apart and n affine maps with slopes in
    [slope_lo, slope_hi] whose images of [0, 1] stay MARGIN inside (0, 1)."""
    while True:
        bps = sorted(_on_grid(rng, MARGIN, 1 - MARGIN) for _ in range(n - 1))
        padded = [Fraction(0)] + bps + [Fraction(1)]
        if all(b - a >= MARGIN for a, b in zip(padded, padded[1:])):
            break
    maps = []
    while len(maps) < n:
        a = _on_grid(rng, slope_lo, slope_hi)
        if a == 0:
            continue
        b = _on_grid(rng, MARGIN - min(a, 0), 1 - MARGIN - max(a, 0))
        maps.append((a, b))
    return tuple(bps), tuple(maps)


def config_text(bps, maps) -> str:
    lines = [f"map affine {a} {b}" for a, b in maps]
    lines.append("breakpoints " + " ".join(str(p) for p in bps))
    return "\n".join(lines) + "\n"


def stratified(count: int, draw_batch, edges) -> list:
    """``count`` draws, ``count / BANDS`` from each quantile band.

    ``draw_batch()`` returns (instance, size) pairs, size None to reject.
    Bands are closed, so a size on a shared edge (or an atom spanning
    several bands) fills the first band that still has room.
    """
    room = [count // BANDS] * BANDS
    out = []
    while len(out) < count:
        for inst, size in draw_batch():
            if size is None:
                continue
            for j in range(max(0, bisect_left(edges, size) - 1), BANDS):
                if edges[j] > size:
                    break
                if room[j] and size <= edges[j + 1]:
                    room[j] -= 1
                    out.append(inst)
                    break
    return out


def float_components(maps, k: int) -> int:
    """Total component count of A_1..A_k, computed in float64."""
    lo, hi = np.zeros(1), np.ones(1)
    total = 0
    for _ in range(k):
        images = [(a * lo + b, a * hi + b) for a, b in ((float(a), float(b)) for a, b in maps)]
        los = np.concatenate([np.minimum(u, v) for u, v in images])
        his = np.concatenate([np.maximum(u, v) for u, v in images])
        order = np.argsort(los, kind="stable")
        los, his = los[order], his[order]
        reach = np.maximum.accumulate(his)
        starts = np.flatnonzero(np.concatenate(([True], los[1:] > reach[:-1])))
        lo, hi = los[starts], np.maximum.reduceat(his, starts)
        total += len(starts)
    return total


def partition_batch(rng: random.Random, n: int, size: int = checks.FLOAT_CHUNK) -> list:
    """Draws with their stratification size (None past the closure limits)."""
    drawn = []
    for _ in range(size):
        bps, maps = draw_instance(rng, n, -PARTITION_KAPPA, PARTITION_KAPPA)
        closure = checks.backward_closure(bps, maps, PARTITION_MAX_DEPTH, PARTITION_MAX_POINTS)
        if closure is not None:
            drawn.append(((bps, maps), len(closure)))
    cycles = checks.float_cycles([inst for inst, _ in drawn], GRID)
    return [
        (inst, None if None in row else points + sum(len(c) for c in row) / 16)
        for (inst, points), row in zip(drawn, cycles)
    ]


def attractor_batch(rng: random.Random, n: int) -> list:
    lo, hi = (-ATTRACTOR_KAPPA, ATTRACTOR_KAPPA) if n == 2 else ATTRACTOR_BAND
    inst = draw_instance(rng, n, lo, hi)
    return [(inst, float_components(inst[1], ATTRACTOR_K))]


def partition_instances(seed: int) -> list:
    rng = random.Random(f"partition-steep:{seed}")
    edges = BAND_EDGES["partition-steep"]
    out = []
    for n in (3, 4, 5):
        out += stratified(PARTITION_INSTANCES // 3, lambda: partition_batch(rng, n), edges[n])
    rng.shuffle(out)
    return out


def attractor_systems(seed: int) -> list:
    rng = random.Random(f"attractor-power:{seed}")
    edges = BAND_EDGES["attractor-power"]
    out = []
    for n in (2, 3, 4):
        out += stratified(ATTRACTOR_SYSTEMS // 3, lambda: attractor_batch(rng, n), edges[n])
    rng.shuffle(out)
    return out


def band_edges(draws: int = 20000) -> dict:
    """Quantile edges of the stratification sizes over unstratified draws."""
    out = {}
    for name, batch, ns in (
        ("partition-steep", partition_batch, (3, 4, 5)),
        ("attractor-power", attractor_batch, (2, 3, 4)),
    ):
        rng = random.Random(f"{name}:edges")
        out[name] = {}
        for n in ns:
            sizes = []
            while len(sizes) < draws:
                sizes += [s for _, s in batch(rng, n) if s is not None]
            sizes = sorted(sizes)[: int(len(sizes) * KEEP_SHARE)]
            out[name][n] = tuple(sizes[min(len(sizes) - 1, q * len(sizes) // BANDS)]
                                 for q in range(BANDS + 1))
    return out


# --- workloads -------------------------------------------------------------------

class SurveyN3:
    """``pcdyn survey`` in-process on the ROADMAP criterion-6 config."""

    name = "survey-n3"
    default_seed = 42
    items_per_pass = SURVEY_SAMPLES

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.config_path = out_dir / f"survey-n3-{seed}.cfg"
        self.out_path = out_dir / f"survey-n3-{seed}.csv"

    def generate(self) -> list[str]:
        return [SURVEY_CONFIG.format(seed=self.seed)]

    def build(self, docs: list[str]) -> None:
        import pcdyn.config

        self.cfg = pcdyn.config.parse_config(docs[0])
        self.config_path.write_text(docs[0])

    def run_pass(self, clock, keep: bool):
        import pcdyn.cli
        import pcdyn.survey

        inner = pcdyn.survey.run_sample

        def timed(cfg, index):
            t0 = clock.begin_item()
            try:
                return inner(cfg, index)
            finally:
                clock.end_item(t0)

        pcdyn.survey.run_sample = timed
        try:
            code = pcdyn.cli.main(
                ["survey", "--config", str(self.config_path),
                 "--out", str(self.out_path), "--jobs", "1"]
            )
        finally:
            pcdyn.survey.run_sample = inner
        text = self.out_path.read_text()
        fp = (code, hashlib.sha256(text.encode()).hexdigest())
        return [fp], ((code, text) if keep else None), []

    def check(self, kept) -> list:
        code, text = kept
        if code != 0:
            return [(-1, f"pcdyn survey exited {code}")]
        return checks.check_survey(
            text, n=self.cfg.n, samples=self.cfg.samples,
            depth=self.cfg.generic_depth, grid=self.cfg.grid,
        )


class PartitionSteep:
    """Backward closure, partition, orbits, classes and a 64-point grid of
    omega limits on steep affine instances (|slope| <= 9/10, n = 3, 4, 5)."""

    name = "partition-steep"
    default_seed = 1663
    items_per_pass = PARTITION_INSTANCES

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def generate(self) -> list[str]:
        self.instances = partition_instances(self.seed)
        return [config_text(b, m) for b, m in self.instances]

    def build(self, docs: list[str]) -> None:
        import pcdyn.config

        self.pcs = [pcdyn.config.parse_config(d).pc() for d in docs]

    def run_pass(self, clock, keep: bool):
        import pcdyn.quasipartition as qp

        fps, kept, failures = [], [], []
        grid = [Fraction(g, GRID) for g in range(GRID)]
        for i, f in enumerate(self.pcs):
            t0 = clock.begin_item()
            try:
                q = qp.preimage_set(f)
                part = qp.build_partition(f, q)
                orbs = qp.periodic_orbits(f, part)
                ec = qp.equivalence_classes(f, part)
                lims = [qp.omega_limit(f, x, part) for x in grid]
            except Exception as exc:  # an item that raises is a counted failure
                clock.end_item(t0)
                failures.append((i, f"{type(exc).__name__}: {exc}"))
                fps.append(None)
                kept.append(None)
                continue
            clock.end_item(t0)
            fps.append((part.transition, part.branch, len(orbs), len(ec.classes),
                        tuple(o.period for o in lims)))
            if keep:
                kept.append({
                    "cuts": part.cut_points,
                    "transition": part.transition,
                    "branch": part.branch,
                    "orbits": [(o.points, o.word) for o in orbs],
                    "classes": len(ec.classes),
                    "limits": [(o.points, o.word) for o in lims],
                })
        return fps, (kept if keep else None), failures

    def check(self, kept) -> list:
        done = [i for i, out in enumerate(kept) if out is not None]
        problems = []
        for i in done:
            bps, maps = self.instances[i]
            problems += checks.check_partition(i, bps, maps, kept[i])
        for j, msg in checks.check_partition_limits(
            [self.instances[i] for i in done], [kept[i] for i in done], GRID
        ):
            problems.append((done[j], msg))
        return problems


class AttractorPower:
    """Attractor sets to k = 10, collar capping, power maps k = 2, 3 and map
    evaluation at 256 fixed rational points, on n = 2, 3, 4 systems."""

    name = "attractor-power"
    default_seed = 2014
    items_per_pass = ATTRACTOR_SYSTEMS

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def generate(self) -> list[str]:
        self.systems = attractor_systems(self.seed)
        return [config_text(b, m) for b, m in self.systems]

    def build(self, docs: list[str]) -> None:
        import pcdyn.config

        self.cfgs = [pcdyn.config.parse_config(d) for d in docs]

    def run_pass(self, clock, keep: bool):
        import pcdyn.ifs as ifs_mod
        import pcdyn.pcmap as pcmap

        fps, problems, failures = [], [], []
        for i, cfg in enumerate(self.cfgs):
            t0 = clock.begin_item()
            try:
                ifs = cfg.ifs()
                f = cfg.pc()
                seq = ifs_mod.attractor_sequence(ifs, ATTRACTOR_K)
                plan = ifs_mod.cap_ifs(ifs, cfg.breakpoints)
                fc = pcmap.PiecewiseContraction(plan.capped, f.breakpoints)
                g2 = pcmap.power_map(f, 2)
                g3 = pcmap.power_map(f, 3)
                values = [(f(x), fc(x), g2(x), g3(x)) for x in EVAL_POINTS]
            except Exception as exc:  # an item that raises is a counted failure
                clock.end_item(t0)
                failures.append((i, f"{type(exc).__name__}: {exc}"))
                fps.append(None)
                continue
            clock.end_item(t0)
            fps.append((tuple(len(s) for s in seq), len(g2.breakpoints), len(g3.breakpoints)))
            if keep:
                # checked at once: the attractor sets of a whole pass would
                # hold millions of Fractions
                bps, maps = self.systems[i]
                sets = [[(iv.lo, iv.hi) for iv in s] for s in seq]
                problems += checks.check_attractor(i, maps, sets)
                for k, g in ((2, g2), (3, g3)):
                    problems += checks.check_power(i, bps, maps, k, g.breakpoints.points, g)
                problems += checks.check_values(i, bps, maps, EVAL_POINTS, values)
        return fps, (problems if keep else None), failures

    def check(self, kept) -> list:
        return kept


WORKLOADS = {w.name: w for w in (SurveyN3, PartitionSteep, AttractorPower)}


if __name__ == "__main__":
    import pprint

    pprint.pprint(band_edges(), width=100)
