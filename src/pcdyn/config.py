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
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Optional

from .ifs import IteratedFunctionSystem
from .maps import (
    DEFAULT_EPS_FP,
    Affine,
    Clamped,
    Composed,
    MapDescriptor,
    Quadratic,
)
from .numerics import DEFAULT_EPS_CMP, EXACT, Backend, Scalar, _ratio, format_scalar
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
from .sampling import DEFAULT_MARGIN, MIN_DRAW_CHANCE


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
    composition_cap: int = DEFAULT_COMPOSITION_CAP  # survey: accepted and ignored
    power_cap: int = DEFAULT_POWER_CAP
    generic_depth: int = 5  # survey: accepted and ignored; bench/workloads.py reads it
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
        return self._pc

    @cached_property
    def _pc(self) -> PiecewiseContraction:
        return PiecewiseContraction(
            self.ifs(), Breakpoints(self.breakpoints), self.closures
        )


def check_sampling(cfg: RunConfig, where: Mapping[str, Optional[int]] = {}) -> None:
    """Reject survey bounds under which the random draws cannot succeed.

    ``where`` maps a key to the line its value came from.  The rules, in
    order, with m = eps_range: m is an int or a Fraction; n >= 2; kappa_max
    is not NaN; 0 <= m and n*m < 1, so n - 1 points fit m apart inside
    (m, 1 - m); a breakpoint try passes its gap test with chance
    ((1 - n*m)/(1 - 2*m))**(n - 1) >= MIN_DRAW_CHANCE (on n's line, else
    m's); 0 <= kappa_max < 1 - 2*m, leaving room for an intercept.
    """
    n, e, kappa = cfg.n, cfg.eps_range, cfg.kappa_max
    if (ratio := _ratio(e)) is None:
        raise ConfigError(
            where.get("eps_range"), f"eps_range {e} must be an int or a Fraction"
        )
    en, ed = ratio
    if n < 2:
        raise ConfigError(where.get("n"), f"n {n} must be >= 2")
    if kappa != kappa:  # NaN; math.isnan overflows on a huge int
        raise ConfigError(where.get("kappa_max"), f"kappa_max {kappa} is not a number")
    if en < 0 or n * en >= ed:
        raise ConfigError(
            where.get("eps_range"),
            f"eps_range {format_scalar(e)} must be >= 0 with n*eps_range < 1 (n {n})",
        )
    if (chance := ((ed - n * en) / (ed - 2 * en)) ** (n - 1)) < MIN_DRAW_CHANCE:
        tries = 1 / chance if chance else math.inf
        raise ConfigError(
            where.get("n", where.get("eps_range")),
            f"n {n} with eps_range {format_scalar(e)} expects {tries:.2g} breakpoint "
            f"tries a sample (chance {chance:.2g} a try, below {MIN_DRAW_CHANCE:g})",
        )
    if kappa < 0:
        raise ConfigError(where.get("kappa_max"), f"kappa_max {kappa} must be >= 0")
    kn, kd = (1, 0) if kappa == math.inf else _ratio(kappa) or kappa.as_integer_ratio()
    if kn * ed >= (ed - 2 * en) * kd:  # +inf as 1/0
        raise ConfigError(
            where.get("kappa_max"),
            f"kappa_max {kappa} must be below 1 - 2*eps_range = "
            f"{format_scalar(1 - 2 * e)} (eps_range {format_scalar(e)})",
        )


def _parse_map(tokens: list[str], backend: Backend, line: int) -> MapDescriptor:
    if not tokens:
        raise ConfigError(line, "missing map descriptor")
    kind = tokens.pop(0)

    def number() -> Scalar:
        if not tokens:
            raise ConfigError(line, f"{kind}: missing coefficient")
        return backend.number(tokens.pop(0))

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


# How each key's value is read: reader(key, value, line, backend), where a
# list key's value is its tokens and any other key's value its one token.
def _integer(key, tok, no, backend):
    value, least = int(tok), _INT_KEYS[key]
    if least is not None and value < least:
        raise ConfigError(no, f"{key} {tok} must be >= {least}")
    return value


def _tolerance(key, tok, no, backend):
    if not 0 < (value := float(tok)) < math.inf:
        raise ConfigError(no, f"{key} {tok} must be finite and positive")
    return value


def _x0(key, tok, no, backend):
    if not 0 <= (x0 := backend.number(tok)) < 1:
        raise ConfigError(no, f"initial condition {tok} is outside [0, 1)")
    return x0


def _choice(message: str, values: dict):
    def read(key, tok, no, backend):
        if tok not in values:
            raise ConfigError(no, message)
        return values[tok]
    return read


def _map(key, args, no, backend):
    m = _parse_map(args, backend, no)
    if args:
        raise ConfigError(no, f"trailing tokens {args}")
    return m


def _breakpoints(key, args, no, backend):
    # Breakpoints raises on unordered points and points outside (0, 1)
    return Breakpoints(tuple(map(backend.number, args))).points


def _closures(key, args, no, backend):
    for flag in args:
        if flag not in (RIGHT_OPEN, LEFT_OPEN):
            raise ConfigError(no, f"unknown closure flag {flag!r}")
    return tuple(args)


_LIST_KEYS = {"map": _map, "breakpoints": _breakpoints, "closures": _closures}
_KEYS = {
    **dict.fromkeys(_INT_KEYS, _integer),
    **dict.fromkeys(("eps_orbit", "eps_fp", "eps_cmp"), _tolerance),
    "kappa_max": lambda key, tok, no, backend: float(tok),
    "x0": _x0,
    "eps_range": lambda key, tok, no, backend: Fraction(tok),
    "backend": _choice(
        "backend must be 'exact' or 'float'", {"exact": "exact", "float": "float"}
    ),
    "fail_on_breakpoint_hit": _choice(
        "expected true or false", {"true": True, "false": False}
    ),
    **_LIST_KEYS,
}


def _read(key: str, args: list[str], no: Optional[int], backend: Backend):
    if key not in _KEYS:
        raise ConfigError(no, f"unknown key {key!r}")
    one = key not in _LIST_KEYS
    if one and len(args) != 1:
        raise ConfigError(no, f"{key} takes one value, got {len(args)}")
    try:
        return _KEYS[key](key, args[0] if one else args, no, backend)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(no, f"{key}: {exc}") from exc


def parse_config(text: str, overrides: Mapping[str, object] = {}) -> RunConfig:
    """Parse and validate a configuration document.

    ``map``, ``breakpoints`` and ``closures`` take lists; every other key
    takes exactly one value.  ``overrides`` (key to value, such as the CLI
    flags) are read as lines after the document's, with no line number,
    and pass the same checks.  ``backend`` and ``eps_cmp`` are read first,
    since the backend decides how scalars are read.  A repeated key keeps
    its last value, and an error names that value's line; each ``map``
    line adds a branch.
    """
    entries = []
    for no, raw in enumerate(text.splitlines(), start=1):
        if toks := raw.split("#", 1)[0].split():
            entries.append((no, toks[0], toks[1:]))
    entries += [(None, key, str(v).split()) for key, v in overrides.items()]

    opts = {"backend": "exact", "eps_cmp": DEFAULT_EPS_CMP}
    for no, key, args in entries:
        if key in opts:
            opts[key] = _read(key, args, no, EXACT)
    backend = EXACT if opts["backend"] == "exact" else Backend.floating(opts["eps_cmp"])

    values: dict[str, object] = {}
    where: dict[str, Optional[int]] = {}  # the line each value came from
    maps: list[MapDescriptor] = []
    for no, key, args in entries:
        if key in opts:
            continue
        value = _read(key, args, no, backend)
        if key == "map":
            maps.append(value)
            where.setdefault(key, no)
        else:
            values[key], where[key] = value, no
    cfg = RunConfig(backend=backend, maps=tuple(maps), **values)

    # invariants that span several keys
    check_sampling(cfg, where)
    if cfg.maps and cfg.breakpoints:
        bad_line = where["map"]
        if len(cfg.maps) == len(cfg.breakpoints) + 1:
            bad_line = where.get("closures")  # only the flag count can fail
        try:
            cfg.pc()
        except ValueError as exc:
            raise ConfigError(bad_line, str(exc)) from exc
    return cfg
