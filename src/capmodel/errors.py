"""Exception types shared across the package."""


class CapModelError(Exception):
    """Base class for all capmodel errors."""


class DomainError(CapModelError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(CapModelError, ValueError):
    """A request exceeds a hard size bound (e.g. exhaustive enumeration)."""


def _shown(value, text=repr) -> str:
    """``text(value)`` for an error message; where that fails, for an int past the
    interpreter's digit limit or a container holding one, the value's type, and an
    int's sign and bit length."""
    try:
        return text(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        return f"a {type(value).__name__}"
