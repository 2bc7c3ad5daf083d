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

All functions are pure and share no state: each call walks its own sequence.
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
    the cap scales with ``a + b``; hitting it raises `ResourceLimitError`.
    """
    tiny = 1e-300  # stands in for a zero denominator
    cap = 64 + math.isqrt(a + b)
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
    """log of sum_{s = n-width}^{n} C(n, s) rho**s, for 0 <= width and rho = p/q.

    With ``x = rho / (1 + rho)``, ``a = n - width`` and ``b = width + 1``, the
    sum is ``(1 + rho)**n * I_x(a, b)``, the regularized incomplete beta
    function: one `_log_binomial` and one `_beta_cf`, whatever the width.
    """
    log1p_rho = math.log1p(p / q)
    if width >= n:
        return n * log1p_rho
    a, b = n - width, width + 1
    # (1 + rho)**n * x**a * (1-x)**b / (a * B(a, b)) = C(n, width) * rho**a / (1 + rho)
    front = _log_binomial(n, width) + a * _log_rho(p, q) - log1p_rho
    x = p / (p + q)
    if x < (a + 1) / (a + b + 2):
        return front + math.log(_beta_cf(a, b, x))
    # the complement I_x(a, b) = 1 - I_{1-x}(b, a), whose front factor has b for a
    tail = front + math.log(a / b) + math.log(_beta_cf(b, a, q / (p + q)))
    return n * log1p_rho + math.log1p(-math.exp(tail - n * log1p_rho))


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
    """The window sums of one `ModelParams`, read at increasing ``n``.

    ``term(k)`` is ``N_k`` (exact) or ``log variety(k, r)`` from the
    incomplete beta kernel `_log_window_sum` (log backend, read only for
    ``k >= r``; below that the closed forms apply).  Each term is computed once and the latest three
    are kept: the ``n - 1 .. n + 1`` a point reads.  Reading further back
    restarts the walk.
    """

    def __init__(self, params: ModelParams):
        self.params, self.r, self.exact = params, params.r, params.backend == EXACT
        self.p, self.q = p, q = params.rho.numerator, params.rho.denominator
        self.log_rho = _log_rho(p, q)
        self._terms: dict[int, int | float] = {}
        self._k = -1  # the exact walk stands at (k, N_k, subtracted term of step k)
        self._n = self._b = 0

    def binds(self, n: int) -> bool:
        return self.r is not UNBOUNDED and self.r < n

    def term(self, k: int) -> int | float:
        if k not in self._terms:
            if self.exact:
                self._walk_to(k)
            else:
                self._terms[k] = _log_window_sum(k, self.r, self.p, self.q)
            if len(self._terms) > 3:
                self._terms = {j: t for j, t in self._terms.items() if j >= k - 2}
        return self._terms[k]

    def _walk_to(self, k: int) -> None:
        p, q, r = self.p, self.q, self.r
        s, j = p + q, self._k
        if not 0 <= j <= k:
            j = k if r is UNBOUNDED else min(k, r)
            self._n, self._b = s**j, q ** (r + 1) if j == r else 0
        n_j, b_j = self._n, self._b
        if r is not UNBOUNDED and r <= j < k - 3:
            # the bulk of a long walk, without bookkeeping: step t multiplies
            # the subtracted term by p*t / (t - r)
            for grow, since in zip(range(p * (j + 1), p * (k - 2), p), range(j + 1 - r, k - 2 - r)):
                n_j = s * n_j - b_j
                b_j = b_j * grow // since
            j = k - 3
        self._terms[j] = n_j
        while j < k:
            n_j = s * n_j - b_j
            j += 1
            if j == r:
                b_j = q ** (r + 1)
            elif b_j:
                b_j = b_j * (p * j) // (j - r)
            self._terms[j] = n_j
        self._k, self._n, self._b = j, n_j, b_j

    def _log_variety(self, n: int) -> float:
        return self.term(n) if self.binds(n) else n * math.log1p(self.p / self.q)

    def variety(self, n: int) -> Scalar:
        if self.exact:
            return _coprime(self.term(n), self.q**n)
        return LogScalar.from_log(self._log_variety(n))

    def avg_length(self, n: int) -> Scalar:
        p, q = self.p, self.q
        if n == 0:
            return Fraction(0) if self.exact else LogScalar.zero()
        if self.exact:  # powers of q cancel; other common factors need the gcd
            previous = self.term(n - 1)
            return Fraction(n * p * previous, self.term(n))
        if not self.binds(n):
            return LogScalar.from_float(n * p / (p + q))
        previous = self.term(n - 1)
        return LogScalar.from_log(math.log(n) + self.log_rho + previous - self.term(n))

    def delta(self, n: int) -> Scalar:
        p, q = self.p, self.q
        if self.exact:
            current = self.term(n)
            return _coprime(self.term(n + 1) - q * current, q ** (n + 1))
        if not self.binds(n + 1):
            return LogScalar.from_log(self.log_rho + n * math.log1p(p / q))
        current = self._log_variety(n)
        return _log_sub(self._log_variety(n + 1), current)

    def hump(self, n: int) -> bool:
        return self.binds(n) and _hump(n, self.r, self.p, self.q)

    def stage(self, n: int) -> Stage:
        if not self.binds(n):
            return Stage.DEVELOPING
        return Stage.DEVELOPED if self.hump(n) else Stage.TRANSITIONING


def _window_sums(n: int, params: ModelParams, name: str = "n") -> _WindowSums:
    """Check the last ``n`` a caller reads and open the window sums of ``params``."""
    _check_count(n, name)
    if params.backend == LOGFLOAT and n > _LOG_N_MAX:
        raise DomainError(
            f"{name} must be at most {_LOG_N_MAX:.0e} on the {LOGFLOAT} backend,"
            f" got an integer of {n.bit_length()} bits"
        )
    return _WindowSums(params)


def variety(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """Expected number of viable products for ``n`` capabilities.

    Unconstrained (``r`` is UNBOUNDED or ``r >= n``) this is
    ``(1 + rho) ** n``; a binding range keeps only lengths in ``[n - r, n]``.
    """
    return _window_sums(n, ModelParams(rho, r, backend)).variety(n)


def avg_length(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """Expected mean product length.

    ``rho * n / (1 + rho)`` while the range does not bind; in general the
    ratio form ``n * rho * variety(n-1, r) / variety(n, r)``, which equals
    the length-weighted mean over the allowed window.
    """
    return _window_sums(n, ModelParams(rho, r, backend)).avg_length(n)


def variety_delta(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """One growth step of variety, ``variety(n+1, r) - variety(n, r)`` (signed)."""
    return _window_sums(n, ModelParams(rho, r, backend)).delta(n)


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
    return _window_sums(n, ModelParams(rho, r, backend)).hump(n)


def classify_stage(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Stage:
    """DEVELOPING while r >= n, then TRANSITIONING until the hump, DEVELOPED after."""
    return _window_sums(n, ModelParams(rho, r, backend)).stage(n)


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
    exact = _window_sums(n_max, ModelParams(rho, r))
    logged = _WindowSums(exact.params._replace(backend=LOGFLOAT))
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
