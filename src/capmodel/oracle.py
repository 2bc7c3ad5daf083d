"""Ground truth for the closed forms: brute-force enumeration and sampling.

`enumerate_products` walks every one of the 2**n capability subsets and must
reproduce the exact backend at rho = 1.  `sample_recipe_book` draws a random
recipe book (which combinations happen to be viable) in one of two modes:

* ``per-subset``: an independent Bernoulli(rho**s) draw for each subset,
  taken from one seeded uniform stream indexed by subset bitmask.  Because
  the masks of an n-capability economy are a prefix of those of an (n+1)-
  capability economy, the same seed keeps each subset's draw stable as n
  grows (cumulative capability acquisition).
* ``per-length-binomial``: one Binomial(C(n, s), rho**s) count per length,
  distributionally identical to per-subset but usable up to n = 64.

All randomness is PCG64 seeded from explicit integers; nothing reads
environment entropy, and repeated runs are bit-identical.  numpy is imported
inside the functions that draw or seed, after their input checks, so
importing the package (and every command but ``oracle``) does not load it.
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
    _window_sums,
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

    Per length, the table holds each C(n, s) as int64 (C(64, 32) < 2**63);
    per subset, each mask's size and viability.
    """
    viability = [float(rho**s) for s in range(n + 1)]
    import numpy as np
    if mode != PER_SUBSET:
        return viability, np.array([math.comb(n, s) for s in range(n + 1)], np.int64)
    sizes = np.zeros(1, np.uint8)
    for _ in range(n):  # the masks in [2**k, 2**(k+1)) have one more bit than those below
        sizes = np.concatenate((sizes, sizes + 1))
    return viability, (sizes, np.asarray(viability)[sizes])


def _draw(n: int, seed: int, mode: str, viability: list[float], table, keep_masks: bool = False):
    """One book's counts by length and, if kept, viable masks.

    ``viability`` and ``table`` come from `_tables`; the caller checks every input.
    """
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if mode == PER_SUBSET:
        sizes, mask_viability = table
        viable = rng.random(1 << n) < mask_viability
        counts = np.bincount(sizes[viable], minlength=n + 1)
        masks = tuple(int(m) for m in np.nonzero(viable)[0]) if keep_masks else None
        return tuple(int(c) for c in counts), masks
    return tuple(int(c) for c in rng.binomial(table, viability)), None


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
    ModelParams(sample.rho, r)
    lo = _window_lo(sample.n, r)
    count = sum(sample.counts_by_length[lo:])
    if count == 0:
        return 0, Fraction(0)
    total = sum(s * c for s, c in enumerate(sample.counts_by_length) if s >= lo)
    return count, Fraction(total, count)


def trial_seed(base_seed: int, index: int) -> int:
    """Per-trial seed: first 64-bit word of SeedSequence((base_seed, index))."""
    _check_count(base_seed, "seed")
    _check_count(index, "trial index")
    import numpy as np
    ss = np.random.SeedSequence([base_seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


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

    sums = _window_sums(n, params, n)
    expected_var, expected_avg = float(sums.variety(n)), float(sums.avg_length(n))
    var_cnt = sum(count_vars[lo:])
    emp_var = variety_sum / trials
    z_var = _zscore(emp_var - expected_var, math.sqrt(var_cnt / trials))

    emp_avg = length_sum / variety_sum if variety_sum else 0.0
    # delta-method variance of the pooled ratio sum(lengths)/sum(counts)
    var_len = sum(s * s * count_vars[s] for s in range(lo, n + 1))
    cov = sum(s * count_vars[s] for s in range(lo, n + 1))
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
