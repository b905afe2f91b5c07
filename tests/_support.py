"""Shared fixtures-by-hand for the test suites."""

from __future__ import annotations

import random
from fractions import Fraction as F

from pcdyn import (
    EXACT,
    Affine,
    Breakpoints,
    Clamped,
    Composed,
    IntervalSet,
    IteratedFunctionSystem,
    PiecewiseContraction,
    Quadratic,
    ifs_image,
)


def example_ifs() -> IteratedFunctionSystem:
    """The two increasing affine maps whose attractor limit is [1/8, 1/2]."""
    return IteratedFunctionSystem(
        (Affine(F(4, 5), F(1, 10)), Affine(F(3, 5), F(1, 20)))
    )


def generic_sequence(ifs, k_max, backend=EXACT):
    """Attractor-set oracle: A_0 = [0, 1] and k_max applications of
    ifs_image, the path attractor_sequence takes for non-affine input."""
    seq = [IntervalSet.unit(backend)]
    for _ in range(k_max):
        seq.append(ifs_image(ifs, seq[-1], backend))
    return seq


def period3_pc() -> PiecewiseContraction:
    """Two half-slope branches split at 3/10; carries a period-3 cycle."""
    return PiecewiseContraction(
        IteratedFunctionSystem(
            (Affine(F(1, 2), F(1, 4)), Affine(F(1, 2), F(1, 8)))
        ),
        Breakpoints((F(3, 10),)),
    )


def constant_pc() -> PiecewiseContraction:
    """Two constant branches; saturates the orbit-count bound for n = 2."""
    return PiecewiseContraction(
        IteratedFunctionSystem((Affine(F(0), F(1, 3)), Affine(F(0), F(2, 3)))),
        Breakpoints((F(1, 2),)),
    )


def rand_fraction(rng: random.Random, lo: F, hi: F, denom: int = 2**16) -> F:
    span = hi - lo
    return lo + span * F(rng.randrange(denom + 1), denom)


def rand_affine(rng: random.Random, kappa_max: F = F(9, 10)) -> Affine:
    a = rand_fraction(rng, -kappa_max, kappa_max)
    margin = F(1, 100)
    b = rand_fraction(rng, margin - min(a, 0), 1 - margin - max(a, 0))
    return Affine(a, b)


def rand_quadratic(rng: random.Random) -> Quadratic:
    while True:
        a = rand_fraction(rng, F(-2, 5), F(2, 5))
        b = rand_fraction(rng, F(-1, 2), F(1, 2))
        c = rand_fraction(rng, F(1, 10), F(9, 10))
        try:
            return Quadratic(a, b, c)
        except ValueError:
            continue


def rand_clamped(rng: random.Random) -> Clamped:
    inner = rand_affine(rng, F(2, 5))
    lo = rand_fraction(rng, F(0), F(2, 5))
    hi = rand_fraction(rng, lo + F(1, 10), F(1))
    return Clamped(inner, lo, hi)


def rand_descriptor(rng: random.Random, depth: int = 1):
    kinds = ["affine", "affine", "quadratic", "clamped"]
    if depth > 0:
        kinds.append("composed")
    kind = rng.choice(kinds)
    if kind == "affine":
        return rand_affine(rng)
    if kind == "quadratic":
        return rand_quadratic(rng)
    if kind == "clamped":
        return rand_clamped(rng)
    return Composed(
        tuple(rand_descriptor(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    )


# --- Fraction oracles for the integer kernels ---------------------------------


def fraction_measure(s: IntervalSet):
    """IntervalSet.measure as a running sum of interval lengths."""
    total = 0
    for iv in s.components:
        total += iv.length
    return total


def fraction_rationalize(x: float, bits: int) -> F:
    """sampling.rationalize through the Fraction constructor."""
    scale = 1 << bits
    return F(int(round(float(x) * scale)), scale)


def fraction_intercept_range(a: F, margin) -> tuple[float, float]:
    """draw_affine's intercept bounds through Fraction arithmetic."""
    return float(margin - min(a, 0)), float(1 - margin - max(a, 0))


def fraction_gaps_at_least(pts, margin) -> bool:
    """draw_breakpoints' gap test through Fraction arithmetic."""
    return all(b - a >= margin for a, b in zip(pts, pts[1:]))


def affine_check_error(a, b):
    """The ValueError message Affine(a, b) must raise, None when it is
    valid: the generic check through the scalars' own operators."""
    if not abs(a) < 1:
        return f"Lipschitz bound >= 1: |a| = {abs(a)}"
    for v in (b, a + b):
        if not 0 < v < 1:
            return f"image of [0, 1] leaves (0, 1): endpoint value {v}"
    return None


def generic_value(f, x):
    """f(x) through digit and the branch map's generic a*x + b; a clamped
    affine branch first clamps x into its window by comparison.  Other
    branch maps evaluate through their own _eval."""
    m = f.ifs.maps[f.digit(x) - 1]
    if isinstance(m, Clamped) and isinstance(m.inner, Affine):
        x = min(max(x, m.lo), m.hi)
        m = m.inner
    if isinstance(m, Affine):
        return m.a * x + m.b
    return m._eval(x)


def fraction_compose(outer: Affine, inner: Affine) -> Affine:
    """compose() of two affine maps through generic Fraction arithmetic."""
    return Affine(outer.a * inner.a, outer.a * inner.b + outer.b)


def fraction_word_map(f: PiecewiseContraction, word) -> Affine:
    """The map of a digit word of an affine system, first digit acting
    first, composed through :func:`fraction_compose`."""
    m = f.ifs.maps[word[0] - 1]
    for d in word[1:]:
        m = fraction_compose(f.ifs.maps[d - 1], m)
    return m
