"""Ground truth for the closed forms: brute-force enumeration and sampling.

`enumerate_products` walks every one of the 2**n capability subsets and must
reproduce the exact backend at rho = 1.  `sample_recipe_book` draws a random
recipe book (which combinations happen to be viable) in one of two modes:

* ``per-subset``: an independent Bernoulli(rho**s) draw for each subset.
  Mask m of size s is viable when its 53-bit uniform u_m is below
  ceil(rho**s * 2**53), computed exactly.  Bit j of every u_m (most
  significant first) is bit m of one plane, ``getrandbits(max(2**n, 32))``
  of ``Random(seed << 6 | j)``, and the planes are compared with the
  thresholds 2**n masks at a time until no mask is undecided.  Because the
  masks of an n-capability economy are a prefix of those of an (n+1)-
  capability economy, and a plane's first 2**n bits do not depend on n, the
  same seed keeps each subset's draw stable as n grows (cumulative
  capability acquisition).
* ``per-length-binomial``: one Binomial(C(n, s), rho**s) count per length,
  distributionally identical to per-subset but usable up to n = 64.  The
  counts are drawn in order of length from one ``Random(seed)`` by `_binomial`,
  a port of CPython 3.12's ``Random.binomialvariate`` (mended where its
  rounding fails at these counts), so every supported Python draws the same
  ones.

All randomness is the standard library's Mersenne Twister, `random.Random`,
seeded from explicit integers: nothing reads environment entropy, and
repeated runs are bit-identical.  `random` is imported inside `_draw`, and
the package has no runtime dependency.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import (
    UNBOUNDED,
    ModelParams,
    Range,
    _check_count,
    _check_positive,
    _check_range,
    _point,
    checked_rho,
)
from .errors import DomainError, ResourceLimitError
from .scalars import Rational

PER_SUBSET = "per-subset"
PER_LENGTH_BINOMIAL = "per-length-binomial"
MODES = (PER_SUBSET, PER_LENGTH_BINOMIAL)

ENUMERATION_MAX_N = 20
PER_SUBSET_MAX_N = 20
PER_LENGTH_MAX_N = 64


def _check_book(n: int, mode: str) -> None:
    """Check the size and the mode of a sampled recipe book before any draw."""
    _check_count(n)
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    limit = PER_SUBSET_MAX_N if mode == PER_SUBSET else PER_LENGTH_MAX_N
    if n > limit:
        raise ResourceLimitError(f"{mode} sampling is limited to n <= {limit}, got {n}")


def _window_lo(n: int, r: Range) -> int:
    return 0 if r is UNBOUNDED else max(0, n - r)


def enumerate_products(n: int, r: Range = UNBOUNDED) -> tuple[int, Fraction]:
    """Count products and their mean length by explicit subset enumeration.

    Every subset of the n capabilities is constructed as a bitmask and kept
    when its size falls in the allowed window [n - r, n].  Matches the exact
    backend at rho = 1 by construction, which is what makes it an oracle.
    """
    _check_count(n)
    _check_range(r)
    if n > ENUMERATION_MAX_N:
        raise ResourceLimitError(
            f"enumeration is limited to n <= {ENUMERATION_MAX_N} (2**n subsets), got {n}"
        )
    lo = _window_lo(n, r)
    count = 0
    total_length = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size >= lo:
            count += 1
            total_length += size
    # the full-length product is always in the window, so count >= 1
    return count, Fraction(total_length, count)


class RecipeBookSample(NamedTuple):
    """One stochastic draw of which capability combinations are viable."""

    n: int
    rho: Fraction
    seed: int
    mode: str
    counts_by_length: tuple[int, ...]
    viable_masks: tuple[int, ...] | None = None

    def total(self) -> int:
        return sum(self.counts_by_length)


def _tables(n: int, rho: Fraction, mode: str):
    """Each length's viability and the draw's table: once a run.

    Per length, the table holds each C(n, s).  Per subset, it holds the masks
    of each size s as one 2**n-bit set; the set of masks viable whatever their
    uniform (those with rho**s == 1); and, per bit j of the 53-bit thresholds
    ceil(rho**s * 2**53) (most significant first), the set of masks whose
    threshold has that bit and the set of those whose threshold has a 1 after it.
    """
    viability = [float(rho**s) for s in range(n + 1)]
    if mode != PER_SUBSET:
        return viability, [math.comb(n, s) for s in range(n + 1)]
    by_size = [1]  # mask 0 has no bits
    for k in range(n):  # the masks in [2**k, 2**(k+1)) have one more bit than those below
        by_size = [low | high << (1 << k) for low, high in zip(by_size + [0], [0] + by_size)]
    p, q = rho.numerator, rho.denominator
    certain, bounds = 0, [0] * 53
    for s, masks in enumerate(by_size):
        threshold = -(-(p**s << 53) // q**s)  # ceil(rho**s * 2**53)
        if threshold >> 53:
            certain |= masks
            continue
        for j in range(53):
            if threshold >> 52 - j & 1:
                bounds[j] |= masks
    rests = [0] * 53
    for j in range(51, -1, -1):
        rests[j] = rests[j + 1] | bounds[j + 1]
    return viability, (by_size, certain, list(zip(bounds, rests)))


def _stirling_error(x: float) -> float:
    """log(x!) - ((x + 1/2)·log(x) - x + log(2π)/2) for x >= 16, truncated under 2e-14."""
    y = 1.0 / (x * x)
    return (1 / 12 - y * (1 / 360 - y * (1 / 1260 - y / 1680))) / x


def _log_factorial_ratio(a: int, b: int) -> float:
    """log(a! / b!) for integers a, b >= 0, also where lgamma(a + 1) and
    lgamma(b + 1) are large and cancel.

    For a and b from 16 up it is Stirling's series with the common terms
    taken out: (b + 1/2)·log1p(d/b) + d·(log(a) - 1), with d = a - b, plus
    the difference of the two `_stirling_error`s.
    """
    if a < 16 or b < 16:
        return math.lgamma(a + 1) - math.lgamma(b + 1)
    d = a - b
    return (
        (b + 0.5) * math.log1p(d / b) + d * (math.log(a) - 1.0)
        + _stirling_error(a) - _stirling_error(b)
    )


def _binomial(random, n: int, p: float) -> int:
    """Binomial(n, p) from the uniforms ``random()``: CPython 3.12's ``binomialvariate``.

    The algorithm is Devroye's geometric method below n*p = 10 and
    Hörmann's BTRS (transformed rejection with squeeze) above; CPython 3.10
    and 3.11 lack the method.  The port takes the same uniforms and returns
    the same count, except where CPython's draws are wrong:

    * the geometric gaps divide by log1p(-p), not log2(1.0 - p), which is 0
      up to p = 2**-54 and inexact near it: CPython then returns 0 whatever
      n*p, as at n = C(64, 32), p = 4e-18, where n*p = 7.3;
    * BTRS's acceptance test takes `_log_factorial_ratio`s, not differences
      of lgamma values, which near n = C(64, 32) are about 7e19 with an ulp of
      16384: at n = C(64, 27), p = 2**-27 CPython's draws have twice the
      standard deviation.  Up to n = 10**6 the two tests differ by at most
      about 5e-9;
    * a uniform of exactly 0.0 (probability 2**-53 a call), where CPython
      raises, and a geometric gap past the double range are read as their
      limits.

    The caller keeps n >= 0 and 0 <= p <= 1.
    """
    if p <= 0.0 or p >= 1.0:
        return 0 if p == 0.0 else n
    if n == 1:
        return int(random() < p)
    if p > 0.5:
        return n - _binomial(random, n, 1.0 - p)
    if n * p < 10.0:
        # the gaps between successes are geometric; O(n*p) uniforms
        x = y = 0
        c = math.log1p(-p)
        while True:
            u = random()
            # the trials to the next success, less one; u = 0.0 is an infinite gap,
            # and a gap past the double range (p below 1e-300) is one too
            gap = math.log(u) / c if u else math.inf
            if gap >= n - y:
                return x
            y += math.floor(gap) + 1
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)  # the mode
    while True:
        u = random() - 0.5
        us = 0.5 - abs(u)
        if not us:  # k would be -inf: rejected
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = random()
        if us >= 0.07 and v <= vr:  # the squeeze
            return k
        v *= alpha / (a / (us * us) + b)
        # log of the pmf's ratio f(k) / f(m)
        if not v or math.log(v) <= (
            _log_factorial_ratio(m, k) + _log_factorial_ratio(n - m, n - k) + (k - m) * lpq
        ):
            return k


def _draw(n: int, seed: int, mode: str, viability: list[float], table, keep_masks: bool = False):
    """One book's counts by length and, if kept, viable masks.

    ``viability`` and ``table`` come from `_tables`; the caller checks every input.
    """
    from random import Random
    if mode != PER_SUBSET:
        random = Random(seed).random
        return tuple(_binomial(random, c, p) for c, p in zip(table, viability)), None
    by_size, viable, bits = table
    undecided = ((1 << (1 << n)) - 1) ^ viable
    for j, (bound, rest) in enumerate(bits):
        if not undecided:
            break
        # whole 32-bit words up to the last undecided mask: a prefix of every longer
        # draw (getrandbits(k < 32) would keep the high bits of one word)
        plane = Random(seed << 6 | j).getrandbits(-(-undecided.bit_length() // 32) * 32)
        # bit j of u_m differs from the threshold's: u_m is below it where that bit is 1
        decided = undecided & (plane ^ bound)
        viable |= decided & bound
        # u_m equal to the threshold so far is not below it unless a 1 follows in it
        undecided = (undecided ^ decided) & rest
    counts = tuple((viable & masks).bit_count() for masks in by_size)
    if not keep_masks:
        return counts, None
    return counts, tuple(m for m, bit in enumerate(reversed(f"{viable:b}")) if bit == "1")


def sample_recipe_book(
    n: int,
    rho: Rational,
    seed: int,
    mode: str = PER_LENGTH_BINOMIAL,
    keep_masks: bool = False,
) -> RecipeBookSample:
    """Draw one recipe book; deterministic given (n, rho, seed, mode).

    ``keep_masks`` records the viable subset bitmasks (per-subset mode only),
    which is how persistence of draws across growing n can be observed.
    """
    rho = checked_rho(rho)
    _check_book(n, mode)
    _check_count(seed, "seed")
    counts, masks = _draw(n, seed, mode, *_tables(n, rho, mode), keep_masks)
    return RecipeBookSample(n, rho, seed, mode, counts, masks)


def empirical_stats(sample: RecipeBookSample, r: Range = UNBOUNDED) -> tuple[int, Fraction]:
    """Variety and mean length of a sampled book within the range window.

    An empty window has no products; its mean length is defined as 0.
    """
    _check_range(r)
    lo = _window_lo(sample.n, r)
    count = sum(sample.counts_by_length[lo:])
    if count == 0:
        return 0, Fraction(0)
    total = sum(s * c for s, c in enumerate(sample.counts_by_length) if s >= lo)
    return count, Fraction(total, count)


def trial_seed(base_seed: int, index: int) -> int:
    """Per-trial seed: ``base_seed`` above the 64 bits of ``index``.

    Distinct (base_seed, index) pairs therefore give distinct seeds.
    """
    _check_count(base_seed, "seed")
    _check_count(index, "trial index")
    if index >> 64:
        raise DomainError(f"trial index must be below 2**64, got {index!r}")
    return base_seed << 64 | index


class OracleReport(NamedTuple):
    """Sampled moments next to their closed-form expectations.

    z-scores are (empirical mean - expectation) / standard error; a z of
    exactly 0 is reported when both the deviation and the standard error
    vanish (e.g. rho = 1, where sampling is deterministic).  The average
    length is a pooled ratio estimate, its standard error from the delta
    method.
    """

    n: int
    rho: Fraction
    r: Range
    mode: str
    trials: int
    base_seed: int
    empirical_variety: float
    expected_variety: float
    variety_zscore: float
    empirical_avg_length: float
    expected_avg_length: float
    avg_length_zscore: float
    per_length_empirical: tuple[float, ...]
    per_length_expected: tuple[float, ...]
    per_length_zscores: tuple[float, ...]

    @property
    def max_abs_zscore(self) -> float:
        zs = (self.variety_zscore, self.avg_length_zscore, *self.per_length_zscores)
        return max(abs(z) for z in zs)

    def within(self, z_max: float) -> bool:
        _check_positive(z_max, "z_max")
        return self.max_abs_zscore <= z_max


def _zscore(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf if diff > 0 else -math.inf
    return diff / se


def validate_expectations(
    n: int,
    rho: Rational,
    r: Range = UNBOUNDED,
    trials: int = 1000,
    base_seed: int = 12345,
    mode: str = PER_LENGTH_BINOMIAL,
) -> OracleReport:
    """Run seeded sampling trials and compare moments with the closed forms.

    Every argument is checked before the first trial.
    """
    if not isinstance(trials, int) or trials < 30:
        raise DomainError(f"trials must be an integer >= 30, got {trials!r}")
    params = ModelParams(rho, r)
    rho = params.rho
    _check_book(n, mode)
    _check_count(base_seed, "seed")
    viability, table = _tables(n, rho, mode)
    count_sums = [0] * (n + 1)
    for i in range(trials):
        for s, c in enumerate(_draw(n, trial_seed(base_seed, i), mode, viability, table)[0]):
            count_sums[s] += c
    # both window sums are linear in the counts, so they are taken once, over all trials
    lo = _window_lo(n, r)
    variety_sum = sum(count_sums[lo:])
    length_sum = sum(s * count_sums[s] for s in range(lo, n + 1))

    expected_counts = [float(math.comb(n, s) * rho**s) for s in range(n + 1)]
    count_vars = [float(math.comb(n, s)) * v * (1.0 - v) for s, v in enumerate(viability)]
    per_emp = tuple(count_sums[s] / trials for s in range(n + 1))
    per_z = tuple(
        _zscore(per_emp[s] - expected_counts[s], math.sqrt(count_vars[s] / trials))
        for s in range(n + 1)
    )

    _, variety, avg_length, *_ = _point(n, params)
    expected_avg, expected_var = float(avg_length), float(variety)
    var_cnt = math.fsum(count_vars[lo:])
    emp_var = variety_sum / trials
    z_var = _zscore(emp_var - expected_var, math.sqrt(var_cnt / trials))

    emp_avg = length_sum / variety_sum if variety_sum else 0.0
    # delta-method variance of the pooled ratio sum(lengths)/sum(counts)
    var_len = math.fsum(s * s * count_vars[s] for s in range(lo, n + 1))
    cov = math.fsum(s * count_vars[s] for s in range(lo, n + 1))
    ratio_var = var_len - 2.0 * expected_avg * cov + expected_avg**2 * var_cnt
    avg_se = math.sqrt(max(ratio_var, 0.0) / trials) / expected_var if expected_var else 0.0
    z_avg = _zscore(emp_avg - expected_avg, avg_se)

    return OracleReport(
        n=n,
        rho=rho,
        r=r,
        mode=mode,
        trials=trials,
        base_seed=base_seed,
        empirical_variety=emp_var,
        expected_variety=expected_var,
        variety_zscore=z_var,
        empirical_avg_length=emp_avg,
        expected_avg_length=expected_avg,
        avg_length_zscore=z_avg,
        per_length_empirical=per_emp,
        per_length_expected=tuple(expected_counts),
        per_length_zscores=per_z,
    )
