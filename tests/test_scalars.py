import math
from fractions import Fraction

import pytest

from capmodel import DomainError, LogScalar, as_rational


class TestAsRational:
    def test_accepts_fraction_int_and_strings(self):
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
        assert as_rational(1) == 1
        assert as_rational("0.5") == Fraction(1, 2)
        assert as_rational("0.3") == Fraction(3, 10)
        assert as_rational("3/10") == Fraction(3, 10)
        assert as_rational(" 1/2 ") == Fraction(1, 2)

    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            as_rational(0.5)

    def test_rejects_scientific_notation(self):
        with pytest.raises(DomainError):
            as_rational("1e-3")
        with pytest.raises(DomainError):
            as_rational("1E2")

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            as_rational("abc")
        with pytest.raises(DomainError):
            as_rational("1/0")
        with pytest.raises(DomainError):
            as_rational(None)
        with pytest.raises(DomainError):
            as_rational(True)


class TestLogScalar:
    def test_zero_is_canonical(self):
        z = LogScalar.zero()
        assert z.sign == 0 and z.log_abs == -math.inf
        assert LogScalar(0, 5.0) == z
        assert z.to_float() == 0.0
        assert LogScalar.from_float(0.0) == LogScalar.from_float(-0.0) == z

    def test_beyond_double_range(self):
        huge = LogScalar.from_log(5000.0)
        assert huge.to_float() == math.inf
