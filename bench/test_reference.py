"""Tests of the benchmark's reference against properties it must have.

    python3 -m pytest bench/test_reference.py -q

Kept out of the package's own test suite: they test the benchmark, not
capmodel, and import nothing from it.
"""

from __future__ import annotations

import decimal
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import reference as ref  # noqa: E402

RHOS = [Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(1, 10), Fraction(999, 1000)]


@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_rho_one_unbounded_is_two_to_the_n(n):
    assert ref.variety(n, Fraction(1), None) == 2**n
    assert ref.variety(n, Fraction(1), n) == 2**n


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("n", [0, 3, 25])
def test_unbinding_range_gives_one_plus_rho_to_the_n(rho, n):
    for r in (None, n, n + 5):
        assert ref.variety(n, rho, r) == (1 + rho) ** n
        if n:
            assert ref.avg_length(n, rho, r) == rho * n / (1 + rho)


@pytest.mark.parametrize("rho", RHOS)
def test_delta_identity(rho):
    # V(n+1) - V(n) = rho V(n) - C(n, r) rho**(n-r), for r <= n
    for n in range(0, 30):
        for r in range(0, n + 1):
            _, _, d = ref.exact_values(n, rho, r)
            assert d == rho * ref.variety(n, rho, r) - math.comb(n, r) * rho ** (n - r)


@pytest.mark.parametrize("rho", RHOS)
def test_avg_length_ratio_form(rho):
    # the weighted mean equals n rho V(n-1) / V(n)
    for n in range(1, 25):
        for r in (0, 3, 10, None):
            lhs = ref.avg_length(n, rho, r)
            assert lhs == n * rho * ref.variety(n - 1, rho, r) / ref.variety(n, rho, r)


@pytest.mark.parametrize("rho,r", [(Fraction(1, 2), 30), (Fraction(3, 4), 7), (Fraction(1), 5), (Fraction(2, 3), None)])
def test_pascal_sums_equal_direct_sums(rho, r):
    sums = ref.WindowSums(rho, r)
    sums.extend(150)
    for n in range(151):
        assert Fraction(sums.sums[n], rho.denominator**n) == ref.variety(n, rho, r)


def test_pascal_sums_at_benchmark_scale():
    rho, r = Fraction(3, 4), 400
    sums = ref.WindowSums(rho, r)
    for n in (399, 400, 401, 1600):
        sums.extend(n)
        assert Fraction(sums.sums[n], 4**n) == ref.variety(n, rho, r)


def test_onset_and_flags_follow_the_direct_sums():
    rho, r = Fraction(1, 2), 30
    sums = ref.WindowSums(rho, r)
    onset = sums.onset(200)
    assert onset == 58  # the hump of the paper's figure 2
    for n in range(0, 200):
        declines = ref.variety(n + 1, rho, r) < ref.variety(n, rho, r)
        assert sums.hump(n) == (r < n and declines) == ref.hump(n, rho, r)
        assert sums.values(n) == ref.exact_values(n, rho, r)
    assert sums.onset(onset - 1) is None
    assert not ref.WindowSums(Fraction(1), 5).onset(300)  # no hump at rho = 1


@pytest.mark.parametrize("n,rho,r", [(0, Fraction(1, 2), 3), (40, Fraction(1, 2), 30), (90, Fraction(3, 4), None), (300, Fraction(1, 10), 120)])
def test_log_values_match_exact(n, rho, r):
    v, a, d = ref.exact_values(n, rho, r)
    lv, la, ld = ref.log_values(n, rho, r)
    with mpmath.mp.workdps(ref.DIGITS):
        for exact, approx in ((v, lv), (a, la), (d, ld)):
            exact = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(approx - exact) <= mpmath.mpf("1e-30") * abs(exact)


def test_log_values_beyond_double_range():
    lv, _, _ = ref.log_values(3000, Fraction(1, 10), 400)
    assert lv < mpmath.mpf("1e-2000")
    lv, _, _ = ref.log_values(2000, Fraction(1), 400)
    assert lv > mpmath.mpf("1e400")


def test_onsets_nondecreasing_treats_missing_as_later():
    assert check._nondecreasing([58, 90, None])
    assert not check._nondecreasing([90, 58])
    assert not check._nondecreasing([None, 58])


def _sig12(value: Fraction) -> str:
    with decimal.localcontext(decimal.Context(prec=60)):
        return format(decimal.Decimal(value.numerator) / value.denominator, ".11e")


def test_checker_rejects_a_wrong_digit():
    rho, r, n = Fraction(1, 2), 30, 40
    v, a, d = ref.exact_values(n, rho, r)
    good = {
        "n": str(n), "variety_exact": check._canonical(v), "avg_length_exact": check._canonical(a),
        "variety_float": _sig12(v), "avg_length_float": _sig12(a), "delta_variety_float": _sig12(d),
        "stage": "transitioning", "constrained": "true", "hump": "false",
    }
    checker = check.Checker(seed=0)
    assert checker._table("t", [good], rho, r, "exact", [n]) == []
    bad = dict(good, variety_float=_sig12(v * (1 + Fraction(1, 10**10))))
    assert checker._table("t", [bad], rho, r, "exact", [n])
    bad = dict(good, avg_length_exact=check._canonical(a + Fraction(1, 10**30)))
    assert checker._table("t", [bad], rho, r, "exact", [n])
    bad = dict(good, hump="true")
    assert checker._table("t", [bad], rho, r, "exact", [n])
