"""Plain-text run configuration.

One ``key value...`` pair per line; ``#`` starts a comment.  Repeated
``map`` lines build the system in order.  Map descriptors use a prefix
grammar:

    affine <a> <b>
    quadratic <a> <b> <c>
    clamped <lo> <hi> <inner descriptor>
    composed <count> <descriptor> <descriptor> ...

Scalars are written as ``p/q`` fractions, plain decimals, or exponent
notation; under the exact backend decimals parse exactly as rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .ifs import IteratedFunctionSystem
from .maps import (
    DEFAULT_EPS_FP,
    Affine,
    Clamped,
    Composed,
    MapDescriptor,
    Quadratic,
)
from .numerics import DEFAULT_EPS_CMP, Backend, Scalar, format_scalar
from .pcmap import (
    DEFAULT_COMPOSITION_CAP,
    DEFAULT_EPS_ORBIT,
    DEFAULT_POWER_CAP,
    LEFT_OPEN,
    RIGHT_OPEN,
    Breakpoints,
    PiecewiseContraction,
)
from .quasipartition import DEFAULT_DEPTH_CAP, DEFAULT_SIZE_CAP
from .sampling import DEFAULT_MARGIN


class ConfigError(Exception):
    """A malformed or invalid configuration document."""

    def __init__(self, line: Optional[int], message: str):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one command invocation."""

    backend: Backend
    seed: int = 0
    eps_orbit: float = DEFAULT_EPS_ORBIT
    eps_fp: float = DEFAULT_EPS_FP
    max_iter: int = 10_000
    q_depth_cap: int = DEFAULT_DEPTH_CAP
    q_size_cap: int = DEFAULT_SIZE_CAP
    composition_cap: int = DEFAULT_COMPOSITION_CAP
    power_cap: int = DEFAULT_POWER_CAP
    generic_depth: int = 5
    maps: tuple[MapDescriptor, ...] = ()
    breakpoints: tuple[Scalar, ...] = ()
    closures: tuple[str, ...] = ()
    x0: Optional[Scalar] = None
    k: int = 1
    k_max: int = 10
    samples: int = 200
    n: int = 3
    kappa_max: float = 0.45
    eps_range: Fraction = DEFAULT_MARGIN
    grid: int = 64  # not read by the survey; bench/checks.py reads it
    jobs: int = 1
    fail_on_breakpoint_hit: bool = False

    def ifs(self) -> IteratedFunctionSystem:
        if not self.maps:
            raise ConfigError(None, "no maps configured")
        return IteratedFunctionSystem(self.maps)

    def pc(self) -> PiecewiseContraction:
        return PiecewiseContraction(
            self.ifs(), Breakpoints(self.breakpoints), self.closures
        )


def check_sampling(
    cfg: RunConfig, lines: Sequence[tuple[int, list[str]]] = ()
) -> None:
    """Reject survey bounds under which the random draws cannot succeed.

    A system needs n >= 2 maps.  ``draw_breakpoints`` fits n - 1 points
    eps_range apart inside (eps_range, 1 - eps_range), which needs
    n*eps_range < 1, and ``draw_affine`` needs 0 <= kappa_max <
    1 - 2*eps_range (so not NaN) to leave room for an intercept.
    ``lines`` (parsed config lines) locate the key.
    """

    def line(key: str) -> Optional[int]:
        return next((no for no, t in lines if t[0] == key), None)

    if cfg.n < 2:
        raise ConfigError(line("n"), f"n {cfg.n} must be >= 2")
    eps = format_scalar(cfg.eps_range)
    if math.isnan(cfg.kappa_max):
        raise ConfigError(
            line("kappa_max"), f"kappa_max {cfg.kappa_max} is not a number"
        )
    if cfg.eps_range < 0 or cfg.n * cfg.eps_range >= 1:
        raise ConfigError(
            line("eps_range"),
            f"eps_range {eps} must be >= 0 with n*eps_range < 1 (n {cfg.n})",
        )
    if cfg.kappa_max < 0:
        raise ConfigError(
            line("kappa_max"), f"kappa_max {cfg.kappa_max} must be >= 0"
        )
    if cfg.kappa_max >= 1 - 2 * cfg.eps_range:
        raise ConfigError(
            line("kappa_max"),
            f"kappa_max {cfg.kappa_max} must be below 1 - 2*eps_range = "
            f"{format_scalar(1 - 2 * cfg.eps_range)} (eps_range {eps})",
        )


def _parse_map(tokens: list[str], backend: Backend, line: int) -> MapDescriptor:
    if not tokens:
        raise ConfigError(line, "missing map descriptor")
    kind = tokens.pop(0)

    def number() -> Scalar:
        if not tokens:
            raise ConfigError(line, f"{kind}: missing coefficient")
        tok = tokens.pop(0)
        try:
            return backend.number(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(line, f"bad number {tok!r}: {exc}") from exc

    if kind == "affine":
        return Affine(number(), number())
    if kind == "quadratic":
        return Quadratic(number(), number(), number())
    if kind == "clamped":
        lo, hi = number(), number()
        return Clamped(_parse_map(tokens, backend, line), lo, hi)
    if kind == "composed":
        count_tok = tokens.pop(0) if tokens else ""
        try:
            count = int(count_tok)
        except ValueError as exc:
            raise ConfigError(line, f"composed: bad count {count_tok!r}") from exc
        chain = tuple(_parse_map(tokens, backend, line) for _ in range(count))
        return Composed(chain)
    raise ConfigError(line, f"unknown map kind {kind!r}")


def descriptor_tokens(m: MapDescriptor) -> str:
    """Serialize a descriptor in the grammar the parser accepts."""
    if isinstance(m, Affine):
        return f"affine {format_scalar(m.a)} {format_scalar(m.b)}"
    if isinstance(m, Quadratic):
        return (
            f"quadratic {format_scalar(m.a)} {format_scalar(m.b)} "
            f"{format_scalar(m.c)}"
        )
    if isinstance(m, Clamped):
        return (
            f"clamped {format_scalar(m.lo)} {format_scalar(m.hi)} "
            f"{descriptor_tokens(m.inner)}"
        )
    if isinstance(m, Composed):
        parts = " ".join(descriptor_tokens(c) for c in m.chain)
        return f"composed {len(m.chain)} {parts}"
    raise ValueError(f"cannot serialize {type(m).__name__}")


# integer keys and the least value each accepts (None: any); ``n`` is
# bounded in check_sampling
_INT_KEYS = {
    "seed": 0,
    "max_iter": 1,
    "q_depth_cap": 0,
    "q_size_cap": 0,
    "composition_cap": 0,
    "power_cap": 0,
    "generic_depth": 1,
    "k": 1,
    "k_max": 0,
    "samples": 0,
    "n": None,
    "grid": None,
    "jobs": 1,
}
_TOLERANCES = {"eps_orbit", "eps_fp"}
_FLOAT_KEYS = _TOLERANCES | {"kappa_max"}


def parse_config(
    text: str,
    backend_override: Optional[str] = None,
    seed_override: Optional[int] = None,
) -> RunConfig:
    """Parse and validate a configuration document.

    Overrides replace the document's ``backend``/``seed`` before scalars
    are interpreted, so a float document can be re-read exactly under the
    exact backend and vice versa.
    """
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((no, stripped.split()))

    backend_name = backend_override
    eps_cmp = DEFAULT_EPS_CMP
    if backend_name is None:
        for no, toks in lines:
            if toks[0] == "backend":
                if len(toks) != 2 or toks[1] not in ("exact", "float"):
                    raise ConfigError(no, "backend must be 'exact' or 'float'")
                backend_name = toks[1]
    for no, toks in lines:
        if toks[0] == "eps_cmp":
            try:
                eps_cmp = float(toks[1])
            except (IndexError, ValueError) as exc:
                raise ConfigError(no, "eps_cmp needs a float value") from exc
            if not 0 < eps_cmp < math.inf:
                raise ConfigError(
                    no, f"eps_cmp {toks[1]} must be finite and positive"
                )
    if backend_name in (None, "exact"):
        backend = Backend.exact()
    else:
        backend = Backend.floating(eps_cmp)

    cfg = RunConfig(backend=backend)
    maps: list[MapDescriptor] = []
    closures_line = None
    for no, toks in lines:
        key, args = toks[0], toks[1:]
        try:
            if key in ("backend", "eps_cmp"):
                continue
            elif key == "map":
                rest = list(args)
                maps.append(_parse_map(rest, backend, no))
                if rest:
                    raise ConfigError(no, f"trailing tokens {rest}")
            elif key == "breakpoints":
                pts = tuple(backend.number(t) for t in args)
                Breakpoints(pts)  # raises on unordered or boundary points
                cfg = replace(cfg, breakpoints=pts)
            elif key == "closures":
                for flag in args:
                    if flag not in (RIGHT_OPEN, LEFT_OPEN):
                        raise ConfigError(no, f"unknown closure flag {flag!r}")
                cfg, closures_line = replace(cfg, closures=tuple(args)), no
            elif key == "x0":
                x0 = backend.number(args[0])
                if not 0 <= x0 < 1:
                    raise ConfigError(
                        no, f"initial condition {args[0]} is outside [0, 1)"
                    )
                cfg = replace(cfg, x0=x0)
            elif key == "eps_range":
                cfg = replace(cfg, eps_range=Fraction(args[0]))
            elif key == "fail_on_breakpoint_hit":
                if args[0] not in ("true", "false"):
                    raise ConfigError(no, "expected true or false")
                cfg = replace(cfg, fail_on_breakpoint_hit=args[0] == "true")
            elif key in _INT_KEYS:
                value, least = int(args[0]), _INT_KEYS[key]
                if least is not None and value < least:
                    raise ConfigError(no, f"{key} {args[0]} must be >= {least}")
                cfg = replace(cfg, **{key: value})
            elif key in _FLOAT_KEYS:
                value = float(args[0])
                if key in _TOLERANCES and not 0 < value < math.inf:
                    raise ConfigError(
                        no, f"{key} {args[0]} must be finite and positive"
                    )
                cfg = replace(cfg, **{key: value})
            else:
                raise ConfigError(no, f"unknown key {key!r}")
        except ConfigError:
            raise
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(no, f"{key}: {exc}") from exc
    cfg = replace(cfg, maps=tuple(maps))
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(None, f"seed {seed_override} must be >= 0")
        cfg = replace(cfg, seed=seed_override)

    # invariants that span several keys
    check_sampling(cfg, lines)
    if cfg.maps and cfg.breakpoints:
        bad_line = next(no for no, t in lines if t[0] == "map")
        if len(cfg.maps) == len(cfg.breakpoints) + 1:
            bad_line = closures_line  # only the closure flag count can fail
        try:
            cfg.pc()
        except ValueError as exc:
            raise ConfigError(bad_line, str(exc)) from exc
    return cfg
