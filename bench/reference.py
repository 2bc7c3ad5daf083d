"""Independent reference values for checking capmodel's outputs.

Nothing here imports capmodel or copies its algorithms:

* exact values are direct window sums, ``sum C(n, s) * rho**s`` over the
  allowed lengths, with `math.comb` and `fractions.Fraction`;
* whole sequences of window sums, needed for the hump flag of every row and
  for onsets, come from Pascal's rule on the scaled terms
  ``C(n, s) * p**s * q**(n-s)``, which the tests compare with the direct sums;
* log-domain values (beyond the double range) are direct sums in `mpmath`
  at 40 significant digits.

``r`` is an int, or None for a range that never binds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

DIGITS = 40


def parse_rho(text: str) -> Fraction:
    rho = Fraction(text)
    if not 0 < rho <= 1:
        raise ValueError(f"rho must lie in (0, 1], got {text!r}")
    return rho


def window_lo(n: int, r: int | None) -> int:
    return 0 if r is None else max(0, n - r)


def _scaled_terms(n: int, rho: Fraction, r: int | None) -> list[tuple[int, int]]:
    """(s, C(n, s) p**s q**(n-s)) for every allowed length s."""
    p, q = rho.numerator, rho.denominator
    return [(s, math.comb(n, s) * p**s * q ** (n - s)) for s in range(window_lo(n, r), n + 1)]


def variety(n: int, rho: Fraction, r: int | None) -> Fraction:
    """sum over the window of C(n, s) rho**s, as a direct sum."""
    return Fraction(sum(t for _, t in _scaled_terms(n, rho, r)), rho.denominator**n)


def avg_length(n: int, rho: Fraction, r: int | None) -> Fraction:
    """Mean length over the window, weighted by C(n, s) rho**s."""
    terms = _scaled_terms(n, rho, r)
    return Fraction(sum(s * t for s, t in terms), sum(t for _, t in terms))


def exact_values(n: int, rho: Fraction, r: int | None) -> tuple[Fraction, Fraction, Fraction]:
    """(variety(n), avg_length(n), variety(n+1) - variety(n)) by direct sums."""
    v = variety(n, rho, r)
    return v, avg_length(n, rho, r), variety(n + 1, rho, r) - v


def hump(n: int, rho: Fraction, r: int | None) -> bool:
    """The hump flag of row n by direct sums: the range binds and variety falls next."""
    return r is not None and r < n and variety(n + 1, rho, r) < variety(n, rho, r)


class WindowSums:
    """Scaled window sums N(n) = q**n * variety(n) for n = 0, 1, ... by Pascal's rule.

    The row of terms C(n, s) p**s q**(n-s) for the allowed s gives the next
    row through C(n+1, s) = C(n, s-1) + C(n, s); only the r + 1 terms of the
    window are kept, so a sequence to n costs O(n * r) big-int additions
    (O(n**2) when the range never binds).
    """

    def __init__(self, rho: Fraction, r: int | None):
        self.p, self.q, self.r = rho.numerator, rho.denominator, r
        self._row = [1]
        self._lo = 0
        self.sums = [1]

    def extend(self, n_max: int) -> None:
        p, q, row, lo = self.p, self.q, self._row, self._lo
        for n in range(len(self.sums) - 1, n_max):
            nxt = [q * row[0]] + [p * a + q * b for a, b in zip(row, row[1:])] + [p * row[-1]]
            new_lo = window_lo(n + 1, self.r)
            row, lo = nxt[new_lo - lo :], new_lo
            self.sums.append(sum(row))
        self._row, self._lo = row, lo

    def declines(self, n: int) -> bool:
        """variety(n+1) < variety(n), compared exactly."""
        self.extend(n + 1)
        return self.sums[n + 1] < self.q * self.sums[n]

    def values(self, n: int) -> tuple[Fraction, Fraction, Fraction]:
        """(variety(n), avg_length(n), variety(n+1) - variety(n)) from the sequence.

        The average length uses the ratio form n rho V(n-1) / V(n), which the
        tests check against the weighted mean.
        """
        self.extend(n + 1)
        p, q, sums = self.p, self.q, self.sums
        v = Fraction(sums[n], q**n)
        a = Fraction(n * p * sums[n - 1], sums[n]) if n else Fraction(0)
        return v, a, Fraction(sums[n + 1] - q * sums[n], q ** (n + 1))

    def hump(self, n: int) -> bool:
        """The hump flag of row n: the range binds and variety falls next."""
        return self.r is not None and self.r < n and self.declines(n)

    def onset(self, n_max: int) -> int | None:
        """First n <= n_max with the hump flag set, or None."""
        return next((n for n in range(self.r + 1, n_max + 1) if self.declines(n)), None)


def log_values(n: int, rho: Fraction, r: int | None) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(variety(n), avg_length(n), variety(n+1) - variety(n)) as mpmath numbers."""
    with mpmath.mp.workdps(DIGITS):
        x = mpmath.mpf(rho.numerator) / rho.denominator

        def terms(m):
            return [(s, mpmath.binomial(m, s) * x**s) for s in range(window_lo(m, r), m + 1)]

        now = terms(n)
        v = mpmath.fsum(t for _, t in now)
        a = mpmath.fsum(s * t for s, t in now) / v
        d = mpmath.fsum(t for _, t in terms(n + 1)) - v
        return +v, +a, +d
