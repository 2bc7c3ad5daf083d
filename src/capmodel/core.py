"""Closed-form quantities of the combinatorial capability model.

An economy holding ``n`` capabilities can in principle combine any subset of
them into a product; a combination of ``s`` capabilities is viable with
probability ``rho ** s``.  A bounded *product range* ``r`` additionally drops
the simplest products, keeping only lengths in ``[n - r, n]``.  Everything
this module computes follows from two sums over that window:

    variety(n, r)     = sum_{s = max(0, n-r)}^{n}  C(n, s) * rho**s
    avg_length(n, r)  = n * rho * variety(n-1, r) / variety(n, r)

With the range unconstrained these collapse to ``(1 + rho) ** n`` and
``rho * n / (1 + rho)``.  One step of capability growth changes variety by

    variety(n+1, r) - variety(n, r) = rho * variety(n, r) - C(n, r) * rho**(n-r)

(valid for r <= n), so variety declines at the next step exactly when

    variety(n, r) < C(n, r) * rho**(n - r - 1)

which is the onset criterion for the hump in diversification.  Stages are
classified from the same quantities: *developing* while the range does not
bind (r >= n), *transitioning* while it binds but variety still grows, and
*developed* once variety falls.

Every quantity at ``n`` is read off the window sums at ``n - 1``, ``n`` and
``n + 1`` of one sequence per ``(rho, r)``.  With ``rho = p/q``, the exact
backend walks the integers ``N_n = q**n * variety(n, r)``: multiplying the
step identity above by ``q**(n+1)`` gives

    N_{n+1} = (p + q) * N_n - [n >= r] * C(n, r) * p**(n-r) * q**(r+1)

started from the closed form ``(p + q)**min(n, r)``, so each step is one
big-integer multiply-subtract and every identity holds with zero tolerance.

Two of the three exact values need no gcd.  Modulo ``q`` the start
``(p + q)**j`` is ``p**j``, and each step multiplies by ``p + q``, which is
``p``, and subtracts a multiple of ``q``; so ``N_n = p**n (mod q)``.  As
``p`` and ``q`` are coprime, ``variety = N_n / q**n`` is in lowest terms,
and so is ``delta = (N_{n+1} - q * N_n) / q**(n+1)``, whose numerator is
``p**(n+1) (mod q)``: `_coprime` builds both as they are.  No such argument
covers ``avg_length = n * p * N_{n-1} / N_n``, which keeps its gcd.

The log-domain backend (`LogScalar`) computes each window sum on its own
instead of walking: run in floating point, the recurrence cancels once the
hump has passed.  With ``x = rho / (1 + rho)`` the window sum is a binomial tail,

    variety(n, r) = (1 + rho)**n * I_x(n - r, r + 1)        (r < n)

where ``I_x`` is the regularized incomplete beta function, evaluated as a
log front factor (three ``lgamma`` calls) times a continued fraction.  Its
cost does not depend on ``r``: the fraction takes a few iterations on most
points and O(sqrt(n)) at worst.  The backend trades exactness for
constant-size numbers and is meant for large ``n`` and fast sweeps;
`cross_validate` measures its deviation from the exact backend.  Both
backends decide the hump with one exact integer test, `_hump`, that reads no
window sum, so its cost does not grow with ``n``.

All functions are pure and share no state: each call walks its own sequence
forward and keeps only its latest three terms.
"""

from __future__ import annotations

import math
import numbers
import sys
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError
from .scalars import LogScalar, Rational, as_rational

EXACT = "exact"
LOGFLOAT = "logfloat"
BACKENDS = (EXACT, LOGFLOAT)

#: Product range wide enough to never bind (alias for ``None``).
UNBOUNDED = None

Range = int | None
Scalar = Fraction | LogScalar

#: The largest ``n`` the log backend takes: ``lgamma(n + 1)`` and
#: ``n * log(1 + rho)`` must be finite doubles.
_LOG_N_MAX = 10**300

#: The continued fraction stops once a step changes it by no more than this.
_CF_TOL = 2 * sys.float_info.epsilon


class Stage(Enum):
    DEVELOPING = "developing"
    TRANSITIONING = "transitioning"
    DEVELOPED = "developed"


def checked_rho(rho: Rational) -> Fraction:
    """Validate and normalize a viability probability into (0, 1]."""
    value = as_rational(rho)
    if not 0 < value.numerator <= value.denominator:
        raise DomainError(f"rho must lie in (0, 1], got {value}")
    return value


def _check_count(n: int, name: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {n!r}")


def _check_range(r: Range) -> None:
    if r is not UNBOUNDED and (not isinstance(r, int) or isinstance(r, bool) or r < 0):
        raise DomainError(f"r must be a nonnegative integer or UNBOUNDED, got {r!r}")


class _ModelParamsFields(NamedTuple):
    rho: Fraction
    r: Range
    backend: str


class ModelParams(_ModelParamsFields):
    """Model parameters: viability probability, product range, backend."""

    __slots__ = ()

    def __new__(cls, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> "ModelParams":
        rho = checked_rho(rho)
        _check_range(r)
        if backend not in BACKENDS:
            raise DomainError(f"backend must be one of {BACKENDS}, got {backend!r}")
        return tuple.__new__(cls, (rho, r, backend))

    @classmethod
    def _make(cls, iterable) -> "ModelParams":  # so that _replace checks as well
        return cls(*iterable)


def binomial(n: int, s: int) -> int:
    """C(n, s), with the convention that s outside [0, n] gives 0."""
    _check_count(n)
    if not isinstance(s, int) or isinstance(s, bool):
        raise DomainError(f"s must be an integer, got {s!r}")
    if s < 0 or s > n:
        return 0
    return math.comb(n, s)


def _log_binomial(n: int, k: int) -> float:
    """log C(n, k) for 0 <= k <= n."""
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _beta_cf(a: int, b: int, x: float) -> float:
    """The continued fraction of ``I_x(a, b)``, by modified Lentz.

    ``I_x(a, b) = x**a * (1-x)**b / (a * B(a, b)) * _beta_cf(a, b, x)``
    (Numerical Recipes, section 6.4, ``betacf``).  It converges fast for
    ``x < (a+1) / (a+b+2)``, in O(sqrt(max(a, b))) iterations at worst, so
    the cap scales with ``a + b`` up to ``2**40`` (about 1 s of iterations);
    hitting it raises `ResourceLimitError`.
    """
    tiny = 1e-300  # stands in for a zero denominator
    cap = 64 + math.isqrt(min(a + b, 2**40))
    a, b = float(a), float(b)  # int products past 1e308 would not convert
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, cap + 1):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d, c = 1.0 + aa * d, 1.0 + aa / c
            d, c = 1.0 / (d if abs(d) > tiny else tiny), c if abs(c) > tiny else tiny
            step = d * c
            h *= step
        if abs(step - 1.0) <= _CF_TOL:
            return h
    raise ResourceLimitError(
        f"the incomplete beta continued fraction did not converge in {cap} iterations"
        f" (a={a:.0f}, b={b:.0f}, x={x!r})"
    )


def _log_rho(p: int, q: int) -> float:
    """log rho for rho = p/q; ``log1p`` keeps rho near 1 free of cancellation."""
    return math.log1p((p - q) / q) if 2 * p > q else math.log(p) - math.log(q)


def _log_window_sum(n: int, width: int, p: int, q: int) -> float:
    """log of sum_{s = n-width}^{n} C(n, s) rho**s, for 0 <= width < n and rho = p/q.

    With ``x = rho / (1 + rho)``, ``a = n - width`` and ``b = width + 1``, the
    sum is ``(1 + rho)**n * I_x(a, b)``, the regularized incomplete beta
    function: one `_log_binomial` and one `_beta_cf`, whatever the width.
    """
    if n >= 2**53:  # a, b and the branch test below would no longer be exact doubles
        raise DomainError(
            f"the {LOGFLOAT} backend cannot resolve this window sum at n of {n.bit_length()}"
            " bits: a window sum needs n below 2**53"
        )
    log1p_rho = math.log1p(p / q)
    a, b = n - width, width + 1
    # (1 + rho)**n * x**a * (1-x)**b / (a * B(a, b)) = C(n, width) * rho**a / (1 + rho)
    front = _log_binomial(n, width) + a * _log_rho(p, q) - log1p_rho
    x = p / (p + q)
    if x < (a + 1) / (a + b + 2):
        return front + math.log(_beta_cf(a, b, x))
    # the complement I_x(a, b) = 1 - I_{1-x}(b, a), whose front factor has b for a
    cf, total = _beta_cf(b, a, q / (p + q)), n * log1p_rho
    tail = front + math.log(a / b) + math.log(cf) if cf > 0 else math.inf
    if tail >= total:  # rounding in lgamma and the fraction, from about n = 10**15
        raise DomainError(
            f"the {LOGFLOAT} backend cannot resolve this window sum at n of {n.bit_length()}"
            " bits: rounding puts the complement of the window at or above the whole sum"
        )
    return total + math.log1p(-math.exp(tail - total))


def _log_terms(k: int, r: Range, p: int, q: int):
    """Yield log variety(n, r) for n = k, k + 1, ...: `_log_window_sum` where
    the range binds, the closed form ``n * log(1 + rho)`` where it does not."""
    log1p_rho = math.log1p(p / q)
    while True:
        yield _log_window_sum(k, r, p, q) if r is not UNBOUNDED and r < k else k * log1p_rho
        k += 1


def _exact_terms(k: int, r: Range, p: int, q: int):
    """Yield ``N_k, N_{k+1}, ...`` for rho = p/q, walked from the closed form
    ``N_j = (p + q)**j`` at ``j = min(k, r)``.

    ``b`` is what step ``j`` subtracts, ``C(j, r) * p**(j-r) * q**(r+1)``
    from ``j = r`` on; step ``j`` multiplies it by ``p*j / (j - r)``.
    """
    s, j = p + q, k if r is UNBOUNDED else min(k, r)
    n_j, b = s**j, q ** (r + 1) if j == r else 0
    while True:
        if j >= k:
            yield n_j
        n_j, j = s * n_j - b, j + 1
        if j == r:
            b = q ** (r + 1)
        elif b:
            b = b * (p * j) // (j - r)


def _hump(n: int, r: int, p: int, q: int) -> bool:
    """Exactly whether ``S(n) = sum_{j=0}^{r} C(n, j) / C(n, r) * rho**(r+1-j) < 1``.

    For ``r < n`` this is the hump criterion divided by its right side.  The
    terms are summed from ``j = r`` (term ``rho``) down: term ``j - 1`` is
    term ``j`` times ``u/v = j*p / (q*(n-j+1))``, a ratio that shrinks as
    ``j`` falls, so once ``u < v`` the rest is at most term ``j`` times
    ``u / (v - u)`` (a geometric tail; Feller, vol. I, VI.3).  The sum stops
    once the partial sum ``t/d`` reaches 1 or stays below 1 with that bound
    added; only an exact tie reads every term.  ``a/d`` is the last term.
    """
    a, t, d = p, p, q
    for j in range(r, 0, -1):
        if t >= d:
            return False
        u, v = j * p, q * (n - j + 1)
        if u < v and t * (v - u) + a * u < d * (v - u):
            return True
        a, t, d = a * u, t * v + a * u, d * v
    return t < d


def _coprime(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` without the gcd, for coprime ``num`` and ``den > 0``.

    It sets the two slots that every Python from 3.10 to 3.13 gives
    `Fraction`, as 3.12's ``Fraction._from_coprime_ints`` does; 3.10 and
    3.11 have ``_normalize=False`` instead, so neither spelling serves all four.
    """
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def _log_sub(a: float, b: float) -> LogScalar:
    """``exp(a) - exp(b)`` from two log magnitudes, signed, with no overflow."""
    if a == b:
        return LogScalar.zero()
    big, small, sign = (a, b, 1) if a > b else (b, a, -1)
    return LogScalar(sign, big + math.log1p(-math.exp(small - big)))


class _WindowSums:
    """The window sums of one `ModelParams`, read forward from ``first - 1``.

    ``term(k)`` is ``N_k`` from `_exact_terms` or ``log variety(k, r)`` from
    `_log_terms`.  One stream yields the terms in order and only the latest
    three are kept: the ``n - 1 .. n + 1`` a point reads.  Reading further
    back is an ``IndexError``.  Opening the stream reads no term, so the hump
    and the stage, which read none, cost no walk.
    """

    def __init__(self, params: ModelParams, first: int = 0):
        self.params, self.r, self.exact = params, params.r, params.backend == EXACT
        self.p, self.q = p, q = params.rho.numerator, params.rho.denominator
        self.log_rho = _log_rho(p, q)
        self._next = max(first - 1, 0)  # the index of the term the stream yields next
        self._stream = (_exact_terms if self.exact else _log_terms)(self._next, self.r, p, q)
        self._last: tuple = ()  # the latest terms, oldest first

    def binds(self, n: int) -> bool:
        return self.r is not UNBOUNDED and self.r < n

    def term(self, k: int) -> int | float:
        while self._next <= k:
            self._last = (*self._last[-2:], next(self._stream))
            self._next += 1
        return self._last[k - self._next]

    def variety(self, n: int) -> Scalar:
        if self.exact:
            return _coprime(self.term(n), self.q**n)
        return LogScalar.from_log(self.term(n))

    def avg_length(self, n: int) -> Scalar:
        p, q = self.p, self.q
        if n == 0:
            return Fraction(0) if self.exact else LogScalar.zero()
        if self.exact:  # powers of q cancel; other common factors need the gcd
            return Fraction(n * p * self.term(n - 1), self.term(n))
        if not self.binds(n):
            ratio = n * p / (p + q)
            if ratio < sys.float_info.min:  # subnormal or 0.0: divide as logs instead
                return LogScalar.from_log(math.log(n * p) - math.log(p + q))
            return LogScalar.from_float(ratio)
        return LogScalar.from_log(math.log(n) + self.log_rho + self.term(n - 1) - self.term(n))

    def delta(self, n: int) -> Scalar:
        p, q = self.p, self.q
        if self.exact:
            return _coprime(self.term(n + 1) - q * self.term(n), q ** (n + 1))
        if not self.binds(n + 1):
            return LogScalar.from_log(self.log_rho + n * math.log1p(p / q))
        return _log_sub(self.term(n + 1), self.term(n))

    def hump(self, n: int) -> bool:
        return self.binds(n) and _hump(n, self.r, self.p, self.q)

    def stage(self, n: int) -> Stage:
        if not self.binds(n):
            return Stage.DEVELOPING
        return Stage.DEVELOPED if self.hump(n) else Stage.TRANSITIONING


def _window_sums(n: int, params: ModelParams, first: int, name: str = "n") -> _WindowSums:
    """Check the last ``n`` a caller reads; open the window sums of ``params`` at ``first``."""
    _check_count(n, name)
    if params.backend == LOGFLOAT and n > _LOG_N_MAX:
        raise DomainError(
            f"{name} must be at most {_LOG_N_MAX:.0e} on the {LOGFLOAT} backend,"
            f" got an integer of {n.bit_length()} bits"
        )
    return _WindowSums(params, first)


def variety(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """Expected number of viable products for ``n`` capabilities.

    Unconstrained (``r`` is UNBOUNDED or ``r >= n``) this is
    ``(1 + rho) ** n``; a binding range keeps only lengths in ``[n - r, n]``.
    """
    return _window_sums(n, ModelParams(rho, r, backend), n).variety(n)


def avg_length(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """Expected mean product length.

    ``rho * n / (1 + rho)`` while the range does not bind; in general the
    ratio form ``n * rho * variety(n-1, r) / variety(n, r)``, which equals
    the length-weighted mean over the allowed window.
    """
    return _window_sums(n, ModelParams(rho, r, backend), n).avg_length(n)


def variety_delta(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """One growth step of variety, ``variety(n+1, r) - variety(n, r)`` (signed)."""
    return _window_sums(n, ModelParams(rho, r, backend), n).delta(n)


def hump_condition(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> bool:
    """Whether variety declines at the next capability while the range binds.

    For ``r < n`` this is exactly ``variety(n+1, r) < variety(n, r)``, tested
    through the closed form ``variety(n, r) < C(n, r) * rho**(n - r - 1)``.
    For ``r >= n`` (range not yet binding at ``n``) it is defined False, so
    the earliest possible onset along a trajectory is ``n = r + 1``; note the
    step from ``n = r`` can still lose variety when
    ``rho * (1 + rho)**r < 1``.

    Both backends decide it with one exact integer test, `_hump`, on that
    closed form divided by its right side: no rounding, no window sum, and a
    cost that does not grow with ``n``.
    """
    return _window_sums(n, ModelParams(rho, r, backend), n).hump(n)


def classify_stage(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Stage:
    """DEVELOPING while r >= n, then TRANSITIONING until the hump, DEVELOPED after."""
    return _window_sums(n, ModelParams(rho, r, backend), n).stage(n)


def _relative_deviation(exact: Fraction, approx: LogScalar) -> float:
    """|approx/exact - 1| computed in log space, safe for huge magnitudes."""
    if exact == 0:
        return 0.0 if approx.sign == 0 else math.inf
    if approx.sign <= 0:
        return math.inf
    log_exact = math.log(exact.numerator) - math.log(exact.denominator)
    return abs(math.expm1(approx.log_abs - log_exact))


class CrossCheck(NamedTuple):
    """Exact vs log-domain evaluation of variety and average length at one point."""

    n: int
    r: Range
    rho: Fraction
    tol: float
    variety_exact: Fraction
    variety_log: LogScalar
    avg_length_exact: Fraction
    avg_length_log: LogScalar
    variety_rel_dev: float
    avg_length_rel_dev: float

    @property
    def max_rel_dev(self) -> float:
        return max(self.variety_rel_dev, self.avg_length_rel_dev)

    @property
    def ok(self) -> bool:
        return self.max_rel_dev <= self.tol


def cross_validate(n: int, rho: Rational, r: Range = UNBOUNDED, tol: float = 1e-9) -> CrossCheck:
    """Evaluate variety and average length on both backends and compare.

    Report-only: deviations beyond ``tol`` flip ``ok`` but never raise.
    """
    return _cross_checks(n, rho, r, tol, first=n)[0]


def _cross_checks(
    n_max: int, rho: Rational, r: Range, tol: float, first: int = 0
) -> list[CrossCheck]:
    """`cross_validate` at every n = first..n_max, in one walk of each backend."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0:
        raise DomainError(f"tol must be a positive real number, got {tol!r}")
    exact = _window_sums(n_max, ModelParams(rho, r), first)
    logged = _WindowSums(exact.params._replace(backend=LOGFLOAT), first)
    checks = []
    for n in range(first, n_max + 1):
        a_exact, a_log = exact.avg_length(n), logged.avg_length(n)
        v_exact, v_log = exact.variety(n), logged.variety(n)
        checks.append(
            CrossCheck(
                n=n,
                r=r,
                rho=exact.params.rho,
                tol=tol,
                variety_exact=v_exact,
                variety_log=v_log,
                avg_length_exact=a_exact,
                avg_length_log=a_log,
                variety_rel_dev=_relative_deviation(v_exact, v_log),
                avg_length_rel_dev=_relative_deviation(a_exact, a_log),
            )
        )
    return checks
