"""Exception types shared across the package."""


class WindowError(ValueError):
    """A finite window (table, grid) is too small for the requested operation."""


class DescriptorError(ValueError):
    """A JSON descriptor failed to parse or validate.

    ``location`` is a dotted path into the offending document.
    """

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


class NumericOverflowError(ValueError):
    """A result left the float range: the input is finite, but the value
    asked for would be inf or nan."""


class AnnihilationError(ValueError):
    """A candidate annihilator was rejected; carries the measured residuals."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = tuple(residuals or ())


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
    """A running sum escaped to infinite support; ``stage`` is the first
    iteration at which the zero-mean requirement failed (1-based)."""

    def __init__(self, message: str, stage: int):
        super().__init__(message)
        self.stage = stage
