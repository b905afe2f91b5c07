"""Command-line workbench.

Subcommands: ``aks`` (attractor sets), ``orbit``, ``partition``, ``power``,
``cap``, ``survey``.  Each reads a plain-text config (see config.py for the
schema), writes CSV to --out (default stdout), and exits 0 on success, 1 on
an inconclusive outcome (the rows written so far, then a reason row), 2 on
a config error.  Any :class:`~pcdyn.errors.InconclusiveError` gives the row
``reason,<Type>: <message>``.  ``partition``, ``power`` and ``survey``
accept only the exact backend.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .config import ConfigError, RunConfig, descriptor_tokens, parse_config
from .errors import InconclusiveError
from .ifs import attractor_sequence, cap_ifs, highly_contractive_bound
from .numerics import format_scalar
from .pcmap import power_map
from .pcmap import orbit as run_orbit
from .quasipartition import (
    build_partition,
    certify_limits,
    equivalence_classes,
    periodic_orbits,
    preimage_set,
)
from .survey import run_survey, survey_csv

OK, INCONCLUSIVE, CONFIG_ERROR = 0, 1, 2

# backward closures and power-map refinements are exact constructions
_EXACT_ONLY = ("partition", "power", "survey")


def emit_aks(cfg: RunConfig, rows: list[str]) -> int:
    seq = attractor_sequence(cfg.ifs(), cfg.k_max, cfg.backend)
    rows.append("k,component_index,lo,hi,measure_total")
    for k, s in enumerate(seq):
        total = format_scalar(s.measure())
        for ci, iv in enumerate(s, start=1):
            rows.append(
                f"{k},{ci},{format_scalar(iv.lo)},{format_scalar(iv.hi)},{total}"
            )
    return OK


def emit_orbit(cfg: RunConfig, rows: list[str]) -> int:
    if cfg.x0 is None:
        raise ConfigError(None, "orbit needs an x0 line")
    rec = run_orbit(
        cfg.pc(),
        cfg.x0,
        cfg.max_iter,
        cfg.backend,
        cfg.eps_orbit,
        cfg.eps_fp,
        cfg.fail_on_breakpoint_hit,
    )
    rows.append("step,x,digit")
    for step, d in enumerate(rec.itinerary.digits):
        rows.append(f"{step},{format_scalar(rec.points[step])},{d}")
    rows.append("outcome,preperiod,period,orbit_points")
    if not rec.converged:
        rows.append(f"{rec.failure},,,")
        return INCONCLUSIVE
    pts = ";".join(format_scalar(p) for p in rec.orbit.points)
    rows.append(f"converged,{rec.itinerary.preperiod},{rec.orbit.period},{pts}")
    return OK


def emit_partition(cfg: RunConfig, rows: list[str]) -> int:
    f = cfg.pc()
    q = preimage_set(f, cfg.q_depth_cap, cfg.q_size_cap)
    rows.append("q_points")
    rows.append("point,source,depth")
    for e in q.entries:
        rows.append(f"{format_scalar(e.point)},{e.source},{e.depth}")
    part = build_partition(f, q, cfg.eps_fp)
    rows.append("intervals")
    rows.append("index,lo,hi,tau,eta")
    for j, iv in enumerate(part.intervals, start=1):
        rows.append(
            f"{j},{format_scalar(iv.lo)},{format_scalar(iv.hi)},"
            f"{part.transition[j - 1]},{part.branch[j - 1]}"
        )
    orbs = periodic_orbits(f, part)
    rows.append("orbits")
    rows.append("id,period,points,word")
    for i, o in enumerate(orbs, start=1):
        pts = ";".join(format_scalar(p) for p in o.points)
        word = ";".join(str(d) for d in o.word)
        rows.append(f"{i},{o.period},{pts},{word}")
    ec = equivalence_classes(f, part)
    rows.append("classes")
    rows.append("id,members")
    for i, cls in enumerate(ec.classes, start=1):
        rows.append(f"{i},{';'.join(str(m) for m in cls)}")
    certify_limits(f, part)
    return OK


def emit_power(cfg: RunConfig, rows: list[str]) -> int:
    g = power_map(cfg.pc(), cfg.k, cfg.power_cap)
    rows += ["breakpoints", "index,y"]
    for i, y in enumerate(g.breakpoints, start=1):
        rows.append(f"{i},{format_scalar(y)}")
    rows.append("branches")
    rows.append("index,lo,hi,word")
    bounds = (cfg.backend.zero,) + g.breakpoints.points + (cfg.backend.one,)
    for j, (lo, hi, w) in enumerate(zip(bounds, bounds[1:], g.words), 1):
        word = ";".join(map(str, w))
        rows.append(f"{j},{format_scalar(lo)},{format_scalar(hi)},{word}")
    return OK


def emit_cap(cfg: RunConfig, rows: list[str]) -> int:
    plan = cap_ifs(cfg.ifs(), cfg.breakpoints)
    rho = highly_contractive_bound(plan.capped)
    rows += [
        f"delta,{format_scalar(plan.delta)}",
        f"rho,{format_scalar(rho)}",
        "maps",
        "index,descriptor",
    ]
    for i, m in enumerate(plan.capped, start=1):
        rows.append(f"{i},{descriptor_tokens(m)}")
    return OK


def emit_survey(cfg: RunConfig, rows: list[str]) -> int:
    report = run_survey(cfg)
    rows += survey_csv(report).splitlines()
    return INCONCLUSIVE if report.bound_violated() else OK


_COMMANDS = {
    "aks": emit_aks,
    "orbit": emit_orbit,
    "partition": emit_partition,
    "power": emit_power,
    "cap": emit_cap,
    "survey": emit_survey,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcdyn",
        description="piecewise-contraction dynamics workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="config file path")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        # read like the document's lines, by the config key table
        for flag in ("--backend", "--seed", "--jobs"):
            cmd.add_argument(flag, default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    rows: list[str] = []
    try:
        flags = {"backend": args.backend, "seed": args.seed, "jobs": args.jobs}
        cfg = parse_config(text, {k: v for k, v in flags.items() if v is not None})
        if args.command in _EXACT_ONLY and not cfg.backend.is_exact:
            raise ConfigError(None, f"{args.command} requires the exact backend")
        code = _COMMANDS[args.command](cfg, rows)
    except InconclusiveError as exc:  # after the rows written so far
        rows.append(f"reason,{type(exc).__name__}: {exc}")
        code = INCONCLUSIVE
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    output = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
