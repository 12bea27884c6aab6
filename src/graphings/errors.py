"""Exception types shared across the package, and the one rule for field types.

Every constructor checks its typed fields through ``check_type``, so how a
field's type is checked, and how a refusal reads, is decided here alone.
"""


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


def is_int(value) -> bool:
    """Is ``value`` an int that is not a bool?  ``bool`` subclasses ``int``,
    but ``True`` prints as ``True`` where the text format wants a number."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_type(what: str, value, kind: type):
    """``value``, when it is of type ``kind`` (for ``int``, as ``is_int``
    has it); else a ``ValidationError`` naming ``what``."""
    if is_int(value) if kind is int else isinstance(value, kind):
        return value
    article = "an" if kind.__name__[0] in "aeiouAEIOU" else "a"
    raise ValidationError(f"{what} must be {article} {kind.__name__}, got {value!r}")
