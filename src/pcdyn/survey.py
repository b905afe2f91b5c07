"""Monte Carlo sweep over random piecewise contractions.

Each sample draws breakpoints and affine maps on the rational grid, runs
the full pipeline (backward closure, connection check, partition, periodic
orbits, equivalence classes, a certificate of every forward limit) and
records one row.  A sample is ``generic`` when its complete closure shows
no connection: f sends neither 0 nor a breakpoint onto a breakpoint at
any depth (:func:`~pcdyn.quasipartition.connections`).  A stage that
cannot decide the sample raises an InconclusiveError, and the row records
its ``reason``.  Samples are independent, keyed by (master seed, index),
so a worker pool produces byte-identical reports for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from collections import Counter

from .config import RunConfig, check_sampling, descriptor_tokens
from .errors import BoundViolationError, InconclusiveError
from .numerics import format_scalar
from .pcmap import (
    Breakpoints,
    PiecewiseContraction,
    is_generic,  # unused here: bench/spans.py patches it in this module
)
from .quasipartition import (
    build_partition,
    certify_limits,
    connections,
    equivalence_classes,
    omega_limit,  # unused here: bench/spans.py patches it in this module
    periodic_orbits,
    preimage_set,
)
from .sampling import draw_breakpoints, draw_ifs, rng_for_sample


@dataclass(frozen=True)
class SampleRecord:
    """Outcome of one random instance."""

    index: int
    breakpoints: tuple
    maps: tuple
    generic: bool = False  # no connection; False when not decided
    q_status: str = ""
    q_size: int = 0
    m: int = 0
    orbit_count: int = 0
    class_count: int = 0
    reason: str = ""  # empty when the pipeline ran to completion
    violation: bool = False  # a certified bound failed (never expected)

    @property
    def conclusive(self) -> bool:
        return self.reason == ""


@dataclass(frozen=True)
class SurveyReport:
    n: int
    records: tuple[SampleRecord, ...]

    @property
    def conclusive_count(self) -> int:
        return sum(1 for r in self.records if r.conclusive)

    @property
    def inconclusive_count(self) -> int:
        return len(self.records) - self.conclusive_count

    def orbit_histogram(self) -> Counter[int]:
        return Counter(
            r.orbit_count for r in self.records if r.conclusive
        )

    def reason_counts(self) -> Counter[str]:
        return Counter(
            r.reason for r in self.records if not r.conclusive
        )

    def bound_violated(self) -> bool:
        """True when a conclusive generic sample broke the orbit bound."""
        for r in self.records:
            if not r.generic:
                continue
            if r.violation:
                return True
            if r.conclusive and not 1 <= r.orbit_count <= self.n:
                return True
        return False


def run_sample(cfg: RunConfig, index: int) -> SampleRecord:
    rng = rng_for_sample(cfg.seed, index)
    bps = draw_breakpoints(rng, cfg.n, cfg.eps_range)
    ifs = draw_ifs(rng, cfg.n, cfg.kappa_max, cfg.eps_range)
    f = PiecewiseContraction(ifs, Breakpoints(bps))

    got: dict = {}  # the record's fields past maps that this sample sets
    try:
        q = preimage_set(f, cfg.q_depth_cap, cfg.q_size_cap)
        got.update(q_status=q.status, q_size=len(q.points))
        got["generic"] = not connections(f, q)
        part = build_partition(f, q, cfg.eps_fp)
        got["m"] = part.m
        got["orbit_count"] = len(periodic_orbits(f, part))
        try:
            got["class_count"] = len(equivalence_classes(f, part).classes)
        except BoundViolationError:
            got["violation"] = True
        certify_limits(f, part)
    except InconclusiveError as exc:
        got["reason"] = exc.reason
    return SampleRecord(index, bps, ifs.maps, **got)


def run_survey(cfg: RunConfig) -> SurveyReport:
    """Run all samples, in order, optionally on a process pool.

    The report is identical for any ``jobs`` value: samples derive their
    randomness from (seed, index) alone and results are merged by index.
    Raises ConfigError on bounds the draws cannot meet (``check_sampling``).
    """
    check_sampling(cfg)
    indices = range(cfg.samples)
    if cfg.jobs > 1 and cfg.samples > 1:
        # the pool's modules load only here, not with pcdyn
        from concurrent.futures import ProcessPoolExecutor

        # the pool may start every worker at once: no more than the samples
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, cfg.samples)) as pool:
            records = tuple(pool.map(partial(run_sample, cfg), indices))
    else:
        records = tuple(run_sample(cfg, i) for i in indices)
    return SurveyReport(cfg.n, records)


def survey_csv(report: SurveyReport) -> str:
    """Render the per-sample rows and the aggregate blocks.  A conclusive
    sample has every forward limit certified periodic: the conclusive flag
    fills ``grid_converged``, and ``periodic_fraction`` is 1.0 with one."""
    out = ["samples"]
    out.append(
        "index,generic,q_status,q_size,m,orbits,classes,"
        "grid_converged,reason,breakpoints,maps"
    )
    for r in report.records:
        bps = ";".join(format_scalar(b) for b in r.breakpoints)
        maps = "|".join(descriptor_tokens(m) for m in r.maps)
        out.append(
            f"{r.index},{str(r.generic).lower()},{r.q_status},{r.q_size},"
            f"{r.m},{r.orbit_count},{r.class_count},"
            f"{str(r.conclusive).lower()},{r.reason},{bps},{maps}"
        )
    out.append("aggregate")
    out.append("samples,conclusive,inconclusive,periodic_fraction")
    conclusive = report.conclusive_count
    out.append(
        f"{len(report.records)},{conclusive},{report.inconclusive_count},"
        f"{1.0 if conclusive else 0.0}"
    )
    out.append("histogram")
    out.append("orbits,count")
    hist = report.orbit_histogram()
    out.extend(f"{k},{hist[k]}" for k in sorted(hist))
    out.append("reasons")
    out.append("reason,count")
    reasons = report.reason_counts()
    out.extend(f"{name},{reasons[name]}" for name in sorted(reasons))
    return "\n".join(out) + "\n"
