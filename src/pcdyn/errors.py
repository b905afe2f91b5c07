"""Exception types shared across the package."""


class NonDiscretePreimageError(Exception):
    """A plateau attains the queried value, so the preimage is an interval.

    Carries the plateau interval endpoints so callers can report the
    offending range.
    """

    def __init__(self, lo, hi, value):
        self.lo = lo
        self.hi = hi
        self.value = value
        super().__init__(
            f"preimage of {value} is the whole interval [{lo}, {hi}]"
        )


class InexactPreimageError(Exception):
    """An exact-backend computation hit a preimage that is not rational.

    Raised by consumers that require exact points (backward closures)
    when a quadratic solve had to fall back to floating point.
    """


class IterationCapError(Exception):
    """An iterative solve exceeded its iteration budget."""


class CapExceededError(Exception):
    """An enumeration grew past its configured size cap."""


class PartitionInvarianceError(Exception):
    """The image of a partition interval straddles a cut point.

    Signals an incomplete backward closure or a degenerate parameter
    choice; the partition cannot be trusted.
    """


class BoundaryOrbitError(Exception):
    """A partition cycle's word-map fixed point leaves the word on a cut."""


class BoundViolationError(Exception):
    """A certified combinatorial bound failed on a concrete instance."""
