"""Each public entry point rejects a bad argument with its own message."""

import re
from fractions import Fraction as F

import pytest

from pcdyn import (
    Affine,
    Breakpoints,
    Composed,
    InexactPreimageError,
    IteratedFunctionSystem,
    MapDescriptor,
    PiecewiseContraction,
    attractor_sequence,
    cap_ifs,
    is_generic,
    orbit,
    power_map,
    preimage_set,
)
from pcdyn.cli import main
from pcdyn.config import ConfigError, descriptor_tokens, parse_config

A = Affine(F(1, 2), F(1, 4))
B = Affine(F(1, 2), F(1, 8))
IFS = IteratedFunctionSystem((A, B))
HALF = Breakpoints((F(1, 2),))


class Unknown(MapDescriptor):
    """A descriptor the config writer has no tokens for."""


CHECKS = {
    "ifs-one-map": (
        lambda: IteratedFunctionSystem((A,)),
        ValueError, "an IFS needs at least two maps",
    ),
    "attractor-negative-k": (
        lambda: attractor_sequence(IFS, -1),
        ValueError, "k_max must be >= 0",
    ),
    "cap-breakpoint-count": (
        lambda: cap_ifs(IFS, (F(1, 3), F(2, 3))),
        ValueError, "need 1 breakpoints for 2 maps, got 2",
    ),
    "config-no-map": (
        lambda: parse_config("backend exact\nk_max 3\n").ifs(),
        ConfigError, "no maps configured",
    ),
    "descriptor-tokens-unknown": (
        lambda: descriptor_tokens(Unknown()),
        ValueError, "cannot serialize Unknown",
    ),
    "closure-flag-unknown": (
        lambda: PiecewiseContraction(IFS, HALF, ("closed",)),
        ValueError, "unknown closure flag 'closed'",
    ),
    "orbit-max-iter-zero": (
        lambda: orbit(PiecewiseContraction(IFS, HALF), F(0), max_iter=0),
        ValueError, "max_iter must be >= 1",
    ),
    "orbit-x0-one": (
        lambda: orbit(PiecewiseContraction(IFS, HALF), F(1)),
        ValueError, "initial condition 1 outside [0, 1)",
    ),
    "generic-depth-zero": (
        lambda: is_generic(PiecewiseContraction(IFS, HALF), 0),
        ValueError, "depth must be >= 1",
    ),
    "power-zero": (
        lambda: power_map(PiecewiseContraction(IFS, HALF), 0),
        ValueError, "power must be >= 1",
    ),
    "composed-empty": (
        lambda: Composed(()),
        ValueError, "composition chain must be non-empty",
    ),
    "closure-float-breakpoint": (
        lambda: preimage_set(PiecewiseContraction(IFS, Breakpoints((0.5,)))),
        InexactPreimageError, "inexact breakpoint 0.5",
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_a_bad_argument_raises_its_message(name):
    call, exc, message = CHECKS[name]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_aks_without_a_map_line_exits_two(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("backend exact\nk_max 3\n")
    assert main(["aks", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: no maps configured\n"
