"""Exception types shared across the package."""


class InconclusiveError(Exception):
    """The pipeline could not decide this input; ``reason`` names why in a
    survey row, and the CLI reports it in a reason row with exit 1."""

    reason = "inconclusive"


class NonDiscretePreimageError(InconclusiveError):
    """A plateau attains the queried value, so the preimage is an interval.

    Carries the plateau interval endpoints so callers can report the
    offending range.
    """

    reason = "non-discrete-preimage"

    def __init__(self, lo, hi, value):
        self.lo = lo
        self.hi = hi
        self.value = value
        super().__init__(
            f"preimage of {value} is the whole interval [{lo}, {hi}]"
        )


class InexactPreimageError(InconclusiveError):
    """An exact-backend computation hit a preimage that is not rational.

    Raised by consumers that require exact points (backward closures)
    when a quadratic solve had to fall back to floating point.
    """

    reason = "inexact-preimage"


class CapExceededError(InconclusiveError):
    """An enumeration grew past its configured size cap."""

    reason = "cap-exceeded"


class PartitionInvarianceError(InconclusiveError):
    """The image of a partition interval straddles a cut point.

    Signals an incomplete backward closure or a degenerate parameter
    choice; the partition cannot be trusted.
    """

    reason = "partition-straddle"


class BoundaryOrbitError(InconclusiveError):
    """A partition cycle's word-map fixed point leaves the word on a cut."""

    reason = "boundary-orbit"


class TruncatedClosureError(InconclusiveError):
    """The backward closure hit its depth or size cap before it closed, so
    no partition can be built from it."""

    reason = "q-truncated"


class CutCycleError(InconclusiveError):
    """A forward limit on the cut points is a periodic orbit that no index
    cycle of the partition gives; carries the missed ``orbit``."""

    reason = "cut-cycle"

    def __init__(self, start, orbit):
        self.orbit = orbit
        pts = ";".join(map(str, orbit.points))
        super().__init__(
            f"the forward limit of {start} is the cycle {pts} on the cut "
            "points, which no index cycle gives"
        )


class BoundViolationError(Exception):
    """A certified combinatorial bound failed on a concrete instance: the
    input was decided, so this is a failed certificate, not inconclusive."""
