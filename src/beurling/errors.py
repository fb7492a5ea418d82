"""Exception types shared across the package."""


class WindowError(ValueError):
    """A finite window (table, grid) is too small for the requested operation."""


class DescriptorError(ValueError):
    """A JSON descriptor failed to parse or validate; the message starts
    with ``location``, a dotted path into the offending document."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")


class NumericOverflowError(ValueError):
    """A result left the float range: the input is finite, but the value
    asked for would be inf or nan."""


class AnnihilationError(ValueError):
    """A candidate annihilator was rejected; the message lists the measured
    residuals."""


class DecompositionError(ValueError):
    """Exponential-polynomial recovery failed (no recurrence fits, or the
    recovery problem is too ill-conditioned to trust)."""


class NotPrimaryError(ValueError):
    """Generator family does not cut out the unit character alone."""


class IdealSaturationError(ValueError):
    """All generators vanish beyond the deepest ideal available for the
    supplied growth order."""

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


class UnboundedSupportError(ValueError):
    """A running sum escaped to infinite support: the transform does not
    vanish at 0."""
