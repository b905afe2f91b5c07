"""Dynamics of n-interval piecewise contractions of [0, 1).

A workbench for iterated function systems of interval contractions: nested
attractor sets, collar capping, orbit iteration with
cycle detection, backward closures of the breakpoints, invariant
quasi-partitions, periodic-orbit enumeration, and the at-most-n orbit
bound, with an exact-rational backend for affine families and a
tolerance-based float backend for nonlinear ones.
"""

from .errors import (
    BoundaryOrbitError,
    BoundViolationError,
    CapExceededError,
    CutCycleError,
    InconclusiveError,
    InexactPreimageError,
    NonDiscretePreimageError,
    PartitionInvarianceError,
    TruncatedClosureError,
)
from .ifs import (
    CappingPlan,
    IteratedFunctionSystem,
    attractor_sequence,
    cap_ifs,
    highly_contractive_bound,
    ifs_image,
)
from .maps import (
    Affine,
    Clamped,
    Composed,
    MapDescriptor,
    Quadratic,
    compose,
)
from .numerics import (
    EXACT,
    Backend,
    Interval,
    IntervalSet,
    Scalar,
    format_scalar,
)
from .pcmap import (
    Breakpoints,
    Itinerary,
    OrbitRecord,
    PeriodicOrbit,
    PiecewiseContraction,
    is_generic,
    orbit,
    power_map,
)
from .quasipartition import (
    EquivalenceClasses,
    PreimageSet,
    QPoint,
    QuasiPartition,
    build_partition,
    certify_limits,
    equivalence_classes,
    omega_limit,
    periodic_orbits,
    preimage_set,
)

__all__ = [
    "Affine",
    "Backend",
    "BoundaryOrbitError",
    "BoundViolationError",
    "Breakpoints",
    "CapExceededError",
    "CappingPlan",
    "Clamped",
    "Composed",
    "CutCycleError",
    "EXACT",
    "EquivalenceClasses",
    "InconclusiveError",
    "InexactPreimageError",
    "Interval",
    "IntervalSet",
    "IteratedFunctionSystem",
    "Itinerary",
    "MapDescriptor",
    "NonDiscretePreimageError",
    "OrbitRecord",
    "PartitionInvarianceError",
    "PeriodicOrbit",
    "PiecewiseContraction",
    "PreimageSet",
    "QPoint",
    "Quadratic",
    "QuasiPartition",
    "Scalar",
    "TruncatedClosureError",
    "attractor_sequence",
    "build_partition",
    "cap_ifs",
    "certify_limits",
    "compose",
    "equivalence_classes",
    "format_scalar",
    "highly_contractive_bound",
    "ifs_image",
    "is_generic",
    "omega_limit",
    "orbit",
    "periodic_orbits",
    "power_map",
    "preimage_set",
]

__version__ = "0.1.0"
