"""Number representations shared by the exact and log-domain backends.

The exact backend works directly in `fractions.Fraction`, so every identity
the model promises can be checked with zero tolerance.  The log-domain
backend stores a sign and the natural log of the magnitude, which keeps
quantities like ``(1 + rho) ** n`` representable long after they overflow a
double.  `LogScalar` is a plain value: it carries no arithmetic, and the
kernel works on its log magnitudes directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, _shown

Rational = int | str | Fraction


def as_rational(value: Rational) -> Fraction:
    """Exact rational from an int, Fraction, or string like ``"3/10"`` or ``"0.3"``.

    Floats are rejected (the float 0.3 is not 3/10), and so is scientific
    notation, so an inexact value can never slip in silently.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("expected a rational number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError("floats are inexact; pass a string like '0.5' or a ratio '1/2'")
    if isinstance(value, str):
        text = value.strip()
        if "e" in text.lower():
            raise DomainError(f"scientific notation is not accepted: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational number: {value!r}") from exc
    raise DomainError(f"cannot interpret {type(value).__name__} as a rational")


class _LogScalarFields(NamedTuple):
    sign: int
    log_abs: float


class LogScalar(_LogScalarFields):
    """A real number stored as a sign and the natural log of its magnitude.

    ``sign`` is -1, 0, or +1; zero is the canonical ``(0, -inf)`` pair so it
    compares and hashes consistently.  There is no ordering: a tuple's
    order (sign, then ``log_abs``) is wrong for negative values.
    """

    __slots__ = ()

    def __new__(cls, sign: int, log_abs: float) -> "LogScalar":
        if sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0, or +1, got {_shown(sign)}")
        return tuple.__new__(cls, (sign, -math.inf if sign == 0 else log_abs))

    @classmethod
    def _make(cls, iterable) -> "LogScalar":  # so that _replace checks as well
        return cls(*iterable)

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    @classmethod
    def zero(cls) -> "LogScalar":
        return cls(0, -math.inf)

    @classmethod
    def from_log(cls, log_abs: float, sign: int = 1) -> "LogScalar":
        return cls(sign, float(log_abs))

    @classmethod
    def from_float(cls, value: float) -> "LogScalar":
        value = float(value)
        if value == 0.0:
            return cls.zero()
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            magnitude = math.exp(self.log_abs)
        except OverflowError:
            magnitude = math.inf
        return self.sign * magnitude
