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

Every quantity at ``n`` is read off the terms ``n - 1`` and ``n`` of one
sequence per ``(rho, r)``.  With ``rho = p/q``, the exact backend walks
``N_n = q**n * variety(n, r) = sum_{s = max(0, n-r)}^{n} C(n, s) * p**s * q**(n-s)``;
multiplying the step identity by ``q**(n+1)``,

    N_{n+1} = (p + q) * N_n - b_n,    b_n = [n >= r] * C(n, r) * p**(n-r) * q**(r+1)

started from the closed form ``(p + q)**min(n, r)``.  Every term of ``N_n``
has ``s >= n - r``, so ``N_n = p**max(0, n-r) * M_n`` with ``M_n`` an integer,
and dividing the step by ``p**(n-r)`` gives, for ``n >= r``,

    p * M_{n+1} = (p + q) * M_n - c_n,    c_n = C(n, r) * q**(r+1)

from ``M_r = (p + q)**r``.  The walk carries ``(N_n, b_n, M_n, c_n)``: each
step multiplies by a small integer and divides exactly by one, and every
identity holds with zero tolerance.

Modulo ``q`` only the term ``s = n`` of either sum survives, so
``N_n = p**n`` and ``M_n = p**min(n, r) (mod q)``: both are prime to ``q``.
So ``variety = N_n / q**n`` is in lowest terms, and so is
``delta = (p * N_n - b_n) / q**(n+1)``, whose numerator is
``p**(n+1) (mod q)``: `_coprime` builds both as they are.  For ``n - 1 >= r``,
``avg_length = n * p * N_{n-1} / N_n = n * M_{n-1} / M_n``.  A common divisor
of ``M_{n-1}`` and ``M_n`` divides ``(p + q) * M_{n-1} - p * M_n = c_{n-1}``
and is prime to ``q``, so it divides ``C(n-1, r)``; so the gcd of
``n * p * N_{n-1}`` and ``N_n`` is ``p**(n-r)`` times a divisor of
``n * C(n-1, r)``, and `math.gcd` runs on the p-free terms alone.  For
``n <= r``, ``avg_length = n * p / (p + q)``.

The average length rises with every ``n``, for every ``rho`` and ``r``.  Since
``C(n+1, s) * rho**s = C(n, s) * rho**s + rho * C(n, s-1) * rho**(s-1)``, the
lengths at ``n + 1``, weighted by ``C(n+1, s) * rho**s`` over their window,
are a mixture of two parts: the window at ``n``, less its lowest length
``n - r`` where ``r <= n`` (so empty when ``r = 0``), whose mean is at least
``avg_length(n)``; and the whole window at ``n`` shifted up by one, with
weight ``rho * variety(n, r) > 0`` and mean ``avg_length(n) + 1``.  So
``avg_length(n+1) > avg_length(n)``.

The log-domain backend (`LogScalar`) computes each window sum on its own
instead of walking: run in floating point, the recurrence cancels once the
hump has passed.  With ``x = rho / (1 + rho)`` the window sum is a binomial tail,

    variety(n, r) = (1 + rho)**n * I_x(n - r, r + 1)        (r < n)

where ``I_x`` is the regularized incomplete beta function, evaluated as a
log front factor (three ``lgamma`` calls) times a continued fraction.  Its
cost does not depend on ``r``: the fraction takes a few iterations on most
points and O(sqrt(n)) at worst.  Its pairs are ``(log variety, w_n)``, with
``w_n = C(n, r) * rho**(n-r) / variety(n, r)`` the last term's share, so no
two window sums are subtracted: ``delta = variety * (rho - w_n)``, and
``avg_length = n * rho / (1 + rho - w_{n-1})``, or ``(n - r) * w_n / w_{n-1}``
where ``w_{n-1} > (1 + rho)/2`` would make that cancel.  It trades exactness for
constant-size numbers and is meant for large ``n`` and fast sweeps;
`cross_validate` measures its deviation from the exact backend.  Both
backends decide the hump with one exact integer test, `_hump`, that reads no
window sum, so its cost does not grow with ``n``.

All functions are pure and share no state: each call walks its own sequence
forward and keeps only its latest two terms.  `_points` is the one point
generator: trajectories, single points, `cross_validate`, the oracle and the
CLI's streamed rows all iterate it.
"""

from __future__ import annotations

import math
import numbers
import sys
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError, _shown
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
        raise DomainError(f"rho must lie in (0, 1], got {_shown(value, str)}")
    return value


def _check_count(n: int, name: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {_shown(n)}")


def _check_positive(value: float, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise DomainError(f"{name} must be a positive finite real number, got {_shown(value)}")


def _check_range(r: Range) -> None:
    if r is not UNBOUNDED and (not isinstance(r, int) or isinstance(r, bool) or r < 0):
        raise DomainError(f"r must be a nonnegative integer or UNBOUNDED, got {_shown(r)}")


def _check_choice(value, choices: tuple, name: str):
    """``value`` if it equals one of ``choices`` of the same type (so True is not 1)."""
    for choice in choices:
        if type(value) is type(choice) and value == choice:
            return value
    raise DomainError(f"{name} must be one of {choices}, got {_shown(value)}")


def _check_record(value, kind: type, name: str) -> None:
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__} record, got {type(value).__name__}")


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
        return tuple.__new__(cls, (rho, r, _check_choice(backend, BACKENDS, "backend")))

    @classmethod
    def _make(cls, iterable) -> "ModelParams":  # so that _replace checks as well
        return cls(*iterable)


def binomial(n: int, s: int) -> int:
    """C(n, s), with the convention that s outside [0, n] gives 0."""
    _check_count(n)
    if not isinstance(s, int) or isinstance(s, bool):
        raise DomainError(f"s must be an integer, got {_shown(s)}")
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
    a, b = float(a), float(b)  # exact for any n `_check_point` admits; loops in doubles
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


def _log_window_sum(n: int, width: int, p: int, q: int) -> tuple[float, float]:
    """log V, V = sum_{s = n-width}^{n} C(n, s) rho**s, and the last term's share
    ``C(n, width) * rho**(n-width) / V``, for 0 <= width < n and rho = p/q.

    With ``x = rho / (1 + rho)``, ``a = n - width`` and ``b = width + 1``, the
    sum is ``(1 + rho)**n * I_x(a, b)``, the regularized incomplete beta
    function: one `_log_binomial` and one `_beta_cf`, whatever the width.
    It needs ``n < 2**53``, so that ``a``, ``b`` and the branch test are exact
    doubles; `_check_point` refuses a larger binding ``n`` before any stream opens.
    """
    log1p_rho = math.log1p(p / q)
    a, b = n - width, width + 1
    # (1 + rho)**n * x**a * (1-x)**b / (a * B(a, b)) = C(n, width) * rho**a / (1 + rho)
    front = _log_binomial(n, width) + a * _log_rho(p, q) - log1p_rho
    x = p / (p + q)
    if x < (a + 1) / (a + b + 2):
        cf = _beta_cf(a, b, x)
        return front + math.log(cf), (1 + p / q) / cf
    # the complement I_x(a, b) = 1 - I_{1-x}(b, a), whose front factor has b for a
    cf, total = _beta_cf(b, a, q / (p + q)), n * log1p_rho
    tail = front + math.log(a / b) + math.log(cf) if cf > 0 else math.inf
    if tail >= total:  # rounding in lgamma and the fraction, from about n = 10**15
        raise DomainError(
            f"the {LOGFLOAT} backend cannot resolve this window sum at n of {n.bit_length()}"
            " bits: rounding puts the complement of the window at or above the whole sum"
        )
    log_v = total + math.log1p(-math.exp(tail - total))
    return log_v, math.exp(front + log1p_rho - log_v)


def _log_terms(k: int, r: Range, p: int, q: int):
    """Yield ``(log variety(n, r), w_n)`` for n = k, k + 1, ...: `_log_window_sum`
    where the range binds, the closed form ``n * log(1 + rho)`` where it does
    not; there ``w_n`` is ``(1 + rho)**-r`` at ``n = r`` and 0 below."""
    log1p_rho = math.log1p(p / q)
    while True:
        if r is not UNBOUNDED and r < k:
            yield _log_window_sum(k, r, p, q)
        else:
            yield k * log1p_rho, math.exp(-k * log1p_rho) if k == r else 0.0
        k += 1


def _exact_terms(k: int, r: Range, p: int, q: int):
    """Yield ``(N_n, b_n, M_n, c_n)`` for n = k, k + 1, ... and rho = p/q.

    ``M_n`` and ``c_n`` are ``N_n`` and ``b_n`` without their factor
    ``p**max(0, n-r)``; ``c_j = C(j, r) * q**(r+1)`` from ``j = r`` on, and step
    ``j`` multiplies it by ``j / (j - r)`` (and ``b_j`` by ``p*j / (j - r)``).
    The walk starts from the closed form ``N_j = (p + q)**j`` at ``j = min(k, r)``
    and carries only ``(N, b)`` up to ``k``, where one exact division by
    ``p**(k-r)`` gives ``(M_k, c_k)``; from ``k`` on it carries all four.
    """
    s, j = p + q, k if r is UNBOUNDED else min(k, r)
    n_j, b = s**j, q ** (r + 1) if j == r else 0
    while j < k:  # so r <= j < k
        n_j, j = s * n_j - b, j + 1
        b = b * (p * j) // (j - r)
    p_j = p ** (j - r) if b else 1
    m, c = n_j // p_j, b // p_j
    while True:
        yield n_j, b, m, c
        j += 1
        if c:
            n_j, m = s * n_j - b, (s * m - c) // p
            b, c = b * (p * j) // (j - r), c * j // (j - r)
        else:
            n_j = m = s * n_j
            if j == r:
                b = c = q ** (r + 1)


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


def _first_hump(lo: int, last: int, r: int, rho: Fraction) -> int | None:
    """The smallest n in lo..last (lo > r) at which `_hump` holds, or None.

    Theorem: once the hump condition holds it holds for every larger n, so one
    bisection finds it, and `_points` stages every point from it.  Dividing
    ``variety(n, r) < C(n, r) * rho**(n - r - 1)`` by its right side gives
    ``sum_{j=0}^{r} [C(n, j) / C(n, r)] * rho**(r + 1 - j) < 1``, and each ratio
    ``C(n, j) / C(n, r) = r! (n - r)! / (j! (n - j)!)`` with j < r shrinks as n
    grows, so the left side never increases.
    """
    p, q = rho.numerator, rho.denominator
    hi = last + 1  # plain ints: bisect over a range overflows past sys.maxsize
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _hump(mid, r, p, q) else (mid + 1, hi)
    return lo if lo <= last else None


def _coprime(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` without the gcd, for coprime ``num`` and ``den > 0``.

    It sets the two slots of `Fraction`, as 3.12's ``_from_coprime_ints`` does;
    3.10 and 3.11 have ``_normalize=False`` instead.  Checked on CPython 3.10.13,
    3.11.7, 3.12.1 and 3.13.0; 3.14 only by CI.
    """
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def _check_point(n: int, params: ModelParams, name: str = "n") -> None:
    """Check the last ``n`` a caller reads, before any work.  This is the log
    backend's domain: ``n <= 1e300`` keeps ``lgamma(n + 1)`` finite, and a binding
    point (``r < n``) reads a window sum, which needs ``n < 2**53``."""
    _check_count(n, name)
    if params.backend == LOGFLOAT and n > _LOG_N_MAX:
        raise DomainError(
            f"{name} must be at most {_LOG_N_MAX:.0e} on the {LOGFLOAT} backend,"
            f" got an integer of {n.bit_length()} bits"
        )
    if params.backend == LOGFLOAT and n >= 2**53 and params.r is not UNBOUNDED and params.r < n:
        raise DomainError(
            f"the {LOGFLOAT} backend cannot resolve this window sum at n of {n.bit_length()}"
            " bits: a window sum needs n below 2**53"
        )


def _stage(binds: bool, hump: bool) -> Stage:
    return Stage.DEVELOPED if hump else Stage.TRANSITIONING if binds else Stage.DEVELOPING


def _points(params: ModelParams, first: int, last: int, onset: int | None = None):
    """Yield ``(n, variety, avg_length, delta, stage, constrained)`` for n = first..last.

    Each point is read off the terms n - 1 and n of one `_exact_terms` or
    `_log_terms` stream, opened at ``max(first - 1, 0)``, and no term past
    ``last`` is drawn; callers check ``last`` with `_check_point` first.  The
    stage is DEVELOPED from ``onset`` on, `_first_hump`'s onset (None if the
    hump holds nowhere up to ``last``): by its theorem the walk makes no hump test.
    """
    r, p, q = params.r, params.rho.numerator, params.rho.denominator
    exact, developed_from = params.backend == EXACT, math.inf if onset is None else onset
    terms = (_exact_terms if exact else _log_terms)(max(first - 1, 0), r, p, q)
    prev = next(terms) if first else None
    q_n = q**first if exact else None
    for n, term in zip(range(first, last + 1), terms):
        binds = r is not UNBOUNDED and r < n
        if exact:
            n_n, b_n, m_n, _ = term
            if binds:  # n * M_{n-1} / M_n, reduced by a gcd of p-free terms
                num = n * prev[2]
                g = math.gcd(num, m_n)
                avg = _coprime(num // g, m_n // g) if g > 1 else _coprime(num, m_n)
            else:
                avg = Fraction(n * p, p + q)
            variety, q_n = _coprime(n_n, q_n), q_n * q
            delta = _coprime(p * n_n - b_n, q_n)
        else:
            log_v, w = term
            variety = LogScalar.from_log(log_v)
            if r is UNBOUNDED or r > n:  # the range does not bind at n + 1
                delta = LogScalar.from_log(_log_rho(p, q) + log_v)
            else:
                share = p / q - w  # rho - w_n, whose sign is delta's; a zero share is a zero delta
                delta = LogScalar((share > 0) - (share < 0), log_v + math.log(abs(share) or 1.0))
            if binds:
                w_prev = prev[1]
                if 2 * w_prev > 1 + p / q:  # 1 + rho - w_prev would cancel
                    avg = LogScalar.from_float((n - r) * w / w_prev)
                else:
                    avg = LogScalar.from_float(n * p / q / (1 + p / q - w_prev))
            elif n and n * p / (p + q) < sys.float_info.min:  # subnormal or 0.0: divide as logs
                avg = LogScalar.from_log(math.log(n * p) - math.log(p + q))
            else:
                avg = LogScalar.from_float(n * p / (p + q))
        yield n, variety, avg, delta, _stage(binds, n >= developed_from), binds
        prev = term


def _point(n: int, params: ModelParams) -> tuple:
    """The values at ``n``, from `_points` with no hump test: callers read no stage."""
    _check_point(n, params)
    return next(_points(params, n, n))


def variety(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """Expected number of viable products for ``n`` capabilities.

    Unconstrained (``r`` is UNBOUNDED or ``r >= n``) this is
    ``(1 + rho) ** n``; a binding range keeps only lengths in ``[n - r, n]``.
    """
    return _point(n, ModelParams(rho, r, backend))[1]


def avg_length(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """Expected mean product length.

    ``rho * n / (1 + rho)`` while the range does not bind; in general the
    ratio form ``n * rho * variety(n-1, r) / variety(n, r)``, which equals
    the length-weighted mean over the allowed window.
    """
    return _point(n, ModelParams(rho, r, backend))[2]


def variety_delta(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Scalar:
    """One growth step of variety, ``variety(n+1, r) - variety(n, r)`` (signed)."""
    return _point(n, ModelParams(rho, r, backend))[3]


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
    return classify_stage(n, rho, r, backend) is Stage.DEVELOPED


def classify_stage(n: int, rho: Rational, r: Range = UNBOUNDED, backend: str = EXACT) -> Stage:
    """DEVELOPING while r >= n, then TRANSITIONING until the hump, DEVELOPED after."""
    params = ModelParams(rho, r, backend)
    _check_point(n, params._replace(r=UNBOUNDED))  # the hump reads no window sum
    binds = r is not UNBOUNDED and r < n
    return _stage(binds, binds and _hump(n, r, *params.rho.as_integer_ratio()))


def _relative_deviation(exact: Fraction, approx: LogScalar) -> float:
    """|approx/exact - 1| computed in log space, safe for huge magnitudes.

    Where the exact value is a normal double, its log is that of the correctly
    rounded double; only beyond the double range is it log(numerator) -
    log(denominator), whose roundings scale with those two logs, not the value.
    """
    if exact == 0:
        return 0.0 if approx.sign == 0 else math.inf
    if approx.sign <= 0:
        return math.inf
    try:
        value = exact.numerator / exact.denominator
    except OverflowError:
        value = math.inf
    if sys.float_info.min <= value < math.inf:
        log_exact = math.log(value)
    else:
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
    return _cross_checks(n, rho, r, tol, first=n, name="n")[0]


def _cross_checks(
    n_max: int, rho: Rational, r: Range, tol: float, first: int = 0, name: str = "n_max"
) -> list[CrossCheck]:
    """`cross_validate` at every n = first..n_max, log bound and log point before exact work."""
    _check_positive(tol, "tol")
    params = ModelParams(rho, r, LOGFLOAT)
    _check_point(n_max, params, name)
    logged = _points(params, first, n_max)
    exact = _points(params._replace(backend=EXACT), first, n_max)
    checks = []
    for (n, v_log, a_log, *_), (_, v_exact, a_exact, *_) in zip(logged, exact):
        deviations = _relative_deviation(v_exact, v_log), _relative_deviation(a_exact, a_log)
        fields = n, r, params.rho, tol, v_exact, v_log, a_exact, a_log, *deviations
        checks.append(CrossCheck(*fields))
    return checks
