"""Exception types shared across the package."""


class GraphingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GraphingError):
    """A value violates a structural invariant (malformed atom, bad machine table, ...)."""


class ClosureViolation(GraphingError):
    """An execution diverges: the cut relation carries non-convergent weight mass."""


class TruncationError(GraphingError):
    """A stack-depth budget was exhausted while an exact result was requested."""


class FormatError(GraphingError):
    """A text file does not parse under the documented grammar."""
