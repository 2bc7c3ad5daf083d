"""Spot checks of every closed-form operation against hand-computed values."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import capmodel as cm
from capmodel import EXACT, LOGFLOAT, UNBOUNDED, Stage, core

HALF = Fraction(1, 2)


def _log_minus_exact(value: cm.LogScalar, exact: Fraction) -> Fraction:
    """|value - exact| in exact arithmetic, for a value of any magnitude."""
    if value.sign == 0:
        return abs(exact)
    # log_abs = k*ln2 + ln(mantissa), so the value is sign * mantissa * 2**k
    k = math.floor(value.log_abs / math.log(2))
    mantissa = Fraction(math.exp(value.log_abs - k * math.log(2)))
    scale = Fraction(2) ** k
    return abs(value.sign * mantissa * scale - exact)


class TestBinomial:
    @pytest.mark.parametrize("n,s,expected", [(5, 2, 10), (7, 0, 1), (6, 3, 20)])
    def test_small_values(self, n, s, expected):
        assert cm.binomial(n, s) == expected

    def test_out_of_window_is_zero(self):
        assert cm.binomial(4, -1) == 0
        assert cm.binomial(4, 5) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(cm.DomainError):
            cm.binomial(-1, 0)

    @pytest.mark.parametrize("s", ["a", 2.5, True, None])
    def test_non_integer_s_rejected(self, s):
        with pytest.raises(cm.DomainError):
            cm.binomial(5, s)


class TestVariety:
    def test_rho_one_doubles(self):
        assert cm.variety(3, 1) == 8

    def test_no_capabilities_single_empty_product(self):
        for rho in (1, HALF, Fraction(3, 10)):
            assert cm.variety(0, rho) == 1

    def test_direct_sum_example(self):
        # 1 + 2*(1/2) + 1*(1/4)
        assert cm.variety(2, HALF) == Fraction(9, 4)

    def test_constrained_examples(self):
        assert cm.variety(6, 1, 5) == 63
        assert cm.variety(5, 1, 5) == 32
        assert cm.variety(3, HALF, 1) == Fraction(7, 8)

    def test_wide_range_reduces_to_unconstrained(self):
        for n in range(8):
            assert cm.variety(n, HALF, n) == cm.variety(n, HALF)
            assert cm.variety(n, HALF, n + 3) == cm.variety(n, HALF)

    def test_rho_out_of_range(self):
        with pytest.raises(cm.DomainError):
            cm.variety(3, 0)
        with pytest.raises(cm.DomainError):
            cm.variety(3, Fraction(3, 2))

    def test_log_backend_agrees(self):
        exact = cm.variety(40, HALF, 12)
        approx = cm.variety(40, HALF, 12, LOGFLOAT)
        assert approx.to_float() == pytest.approx(float(exact), rel=1e-12)


class TestAvgLength:
    def test_rho_one_half_n(self):
        assert cm.avg_length(4, 1) == 2

    def test_zero_at_origin(self):
        assert cm.avg_length(0, HALF) == 0
        assert cm.avg_length(0, HALF, backend=LOGFLOAT) == cm.LogScalar.zero()

    def test_linear_growth_example(self):
        assert cm.avg_length(3, HALF) == 1

    def test_constrained_examples(self):
        assert cm.avg_length(3, 1, 1) == Fraction(9, 4)
        assert cm.avg_length(4, 1, UNBOUNDED) == 2
        assert cm.avg_length(3, HALF, 1) == Fraction(15, 7)

    def test_log_backend_agrees(self):
        exact = cm.avg_length(60, Fraction(3, 10), 14)
        approx = cm.avg_length(60, Fraction(3, 10), 14, LOGFLOAT)
        assert approx.to_float() == pytest.approx(float(exact), rel=1e-12)


class TestVarietyDelta:
    def test_signed_example(self):
        assert cm.variety_delta(3, HALF, 1) == Fraction(-5, 16)
        # closed-form route: rho*d(3,1) - C(3,1)*rho^2
        assert HALF * Fraction(7, 8) - 3 * HALF**2 == Fraction(-5, 16)

    def test_unbounded_doubles_at_rho_one(self):
        for n in (0, 1, 5, 9):
            assert cm.variety_delta(n, 1) == 2**n

    def test_positive_while_transitioning(self):
        assert cm.variety_delta(6, 1, 5) > 0

    def test_log_backend_sign(self):
        delta = cm.variety_delta(3, HALF, 1, LOGFLOAT)
        assert delta.sign == -1
        assert delta.to_float() == pytest.approx(-5 / 16, rel=1e-9)

    @pytest.mark.parametrize(
        "rho,r,n",
        [
            # just before and after the hump, where the log delta cancels most
            (Fraction(3, 4), 300, 1197),
            (Fraction(3, 4), 300, 1198),
            (HALF, 30, 58),
            # variety in the subnormal doubles
            (Fraction(1, 10), 400, 1008),
        ],
    )
    def test_log_backend_within_1e9_of_variety(self, rho, r, n):
        # delta crosses zero at the hump, so its error is measured against variety(n)
        exact = cm.variety_delta(n, rho, r)
        logged = cm.variety_delta(n, rho, r, LOGFLOAT)
        scale = cm.variety(n, rho, r)
        error = _log_minus_exact(logged, exact) / scale
        assert error <= 1e-9, float(error)

    @pytest.mark.parametrize(
        "rho,r,n",
        [
            (Fraction(3, 4), 300, 1197),
            (Fraction(3, 4), 300, 1198),
            (HALF, 30, 58),
            (Fraction(1, 10), 400, 1008),
            (HALF, 400, 797),
            (Fraction(3, 4), 400, 1597),
            (HALF, 2000, 3997),
            (HALF, 5000, 9997),
        ],
    )
    def test_log_backend_error_relative_to_delta(self, rho, r, n):
        # variety * (rho - w_n) is as good as the subtraction rho - w_n allows:
        # relative to delta, the variety's error plus about 1e-16 * variety/|delta|
        exact = cm.variety_delta(n, rho, r)
        logged = cm.variety_delta(n, rho, r, LOGFLOAT)
        conditioning = abs(cm.variety(n, rho, r) / exact)
        error = _log_minus_exact(logged, exact) / abs(exact)
        assert error <= 1e-11 + 1e-14 * conditioning, float(error)


class TestHumpCondition:
    def test_examples(self):
        assert cm.hump_condition(3, HALF, 1) is True
        assert cm.hump_condition(10, 1, 4) is False
        for rho in (HALF, Fraction(9, 10), 1):
            assert cm.hump_condition(4, rho, 10) is False

    def test_false_for_any_r_at_rho_one_scan(self):
        for n in range(1, 60):
            for r in range(0, n):
                assert cm.hump_condition(n, 1, r) is False

    def test_log_backend_matches_exact(self):
        for n in range(1, 45):
            for r in (0, 1, 2, 5, 11, 20):
                for rho in (Fraction(1, 10), HALF, Fraction(3, 4), 1):
                    assert cm.hump_condition(n, rho, r, LOGFLOAT) == cm.hump_condition(
                        n, rho, r, EXACT
                    )

    def test_single_test_matches_the_exact_walk_on_a_grid(self):
        # core._hump against p * N_n < b_n, read off the walk's (N_n, b_n) pairs,
        # on 22 rho x 30 r x 89 n = 58,740 points
        started = time.perf_counter()
        rhos = sorted({Fraction(p, q) for q in range(1, 9) for p in range(1, q + 1)})
        points = 0
        for rho in rhos:
            p, q = rho.numerator, rho.denominator
            for r in range(30):
                terms = core._exact_terms(r + 1, r, p, q)
                for n, (window_sum, last_term, *_) in zip(range(r + 1, r + 90), terms):
                    declines = p * window_sum < last_term
                    assert core._hump(n, r, p, q) is declines, (rho, r, n)
                    points += 1
        assert points == 58_740
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"grid took {elapsed:.2f}s, budget 1s"

    def test_decided_without_a_walk_or_a_window_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the hump test read a window sum")

        def refuse_walk(*args):  # a generator: opening the stream is fine, reading it fails
            yield refuse()

        monkeypatch.setattr(core, "_exact_terms", refuse_walk)
        monkeypatch.setattr(core, "_log_terms", refuse_walk)
        monkeypatch.setattr(core, "_points", refuse_walk)
        monkeypatch.setattr(core, "_log_window_sum", refuse)
        for backend in (EXACT, LOGFLOAT):
            assert cm.hump_condition(99997, "1/2", 50000, backend) is False
            assert cm.classify_stage(99997, "1/2", 50000, backend) is Stage.TRANSITIONING
        assert cm.hump_condition(10**160, "1/2", 5, LOGFLOAT) is True
        assert cm.find_hump_onset(20000, "1/2", 50000) == 39998
        assert cm.find_hump_onset(5, "1/2", 10**30) == 8
        assert cm.find_hump_onset(4, 1, 10**30) is None


class TestClassifyStage:
    def test_examples(self):
        assert cm.classify_stage(4, HALF, 5) is Stage.DEVELOPING
        assert cm.classify_stage(3, HALF, 1) is Stage.DEVELOPED
        assert cm.classify_stage(6, 1, 5) is Stage.TRANSITIONING

    def test_developing_iff_unconstrained_variety(self):
        for n in range(12):
            for r in range(0, n + 3):
                stage = cm.classify_stage(n, HALF, r)
                same = cm.variety(n, HALF, r) == cm.variety(n, HALF)
                assert (stage is Stage.DEVELOPING) == same


class TestModelParams:
    def test_coerces_and_validates(self):
        params = cm.ModelParams("0.5", 30)
        assert params.rho == HALF and params.r == 30 and params.backend == EXACT

    def test_rejects_bad_values(self):
        with pytest.raises(cm.DomainError):
            cm.ModelParams("2")
        with pytest.raises(cm.DomainError):
            cm.ModelParams(HALF, -1)
        with pytest.raises(cm.DomainError):
            cm.ModelParams(HALF, 3, "fast")


class TestCrossValidate:
    def test_mid_size(self):
        check = cm.cross_validate(50, HALF, 20, tol=1e-9)
        assert check.ok
        assert check.max_rel_dev <= 1e-9

    def test_trivial_point_is_exact(self):
        check = cm.cross_validate(0, 1, UNBOUNDED, tol=1e-9)
        assert check.variety_rel_dev == 0.0
        assert check.avg_length_rel_dev == 0.0
        # a log value that is zero or negative is infinitely far from a positive exact one
        for approx in (cm.LogScalar.zero(), cm.LogScalar(-1, 0.0)):
            assert core._relative_deviation(Fraction(1), approx) == math.inf

    @pytest.mark.parametrize("k", [300, 320, 400, 5000])
    def test_avg_length_below_the_normal_doubles(self, k):
        # rho * n / (1 + rho) is subnormal or 0.0 as a float from k = 320 on
        assert cm.cross_validate(5, Fraction(1, 10**k)).avg_length_rel_dev < 1e-12

    @pytest.mark.parametrize("k", [5, 20, 100, 300, 400])
    def test_avg_length_where_the_last_term_dominates(self, k):
        # at rho = 1/10**k the window is nearly all its last term, so
        # 1 + rho - w_(n-1) cancels and avg_length is read as (n - r) * w_n / w_(n-1)
        for n, r in ((6, 2), (50, 10)):
            assert cm.cross_validate(n, Fraction(1, 10**k), r).avg_length_rel_dev <= 1e-12

    def test_large_n(self):
        check = cm.cross_validate(300, Fraction(3, 10), 100, tol=1e-9)
        assert check.ok

    def test_exact_backend_comfortable_at_n_1000(self):
        value = cm.variety(1000, HALF, 300)
        assert value > 0
        check = cm.cross_validate(1000, HALF, 300, tol=1e-9)
        assert check.ok

    def test_tol_must_be_positive(self):
        with pytest.raises(cm.DomainError):
            cm.cross_validate(5, HALF, 2, tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf, True, "x", None, 1j])
    def test_tol_must_be_a_positive_real(self, tol):
        with pytest.raises(cm.DomainError):
            cm.cross_validate(5, HALF, 2, tol=tol)

    @pytest.mark.parametrize("tol", [1, Fraction(1, 10**9)])
    def test_any_positive_real_tol_accepted(self, tol):
        assert cm.cross_validate(5, HALF, 2, tol=tol).ok

    def test_values_carried_in_report(self):
        check = cm.cross_validate(12, HALF, 4)
        assert check.variety_exact == cm.variety(12, HALF, 4)
        assert math.isclose(
            check.variety_log.to_float(), float(check.variety_exact), rel_tol=1e-12
        )


class TestLowestTerms:
    """Exact variety and delta come out in lowest terms without a gcd.

    ``N_n = p**n (mod q)``, so ``N_n / q**n`` and the delta, whose numerator
    is ``p**(n+1) (mod q)``, are already reduced; `core._coprime` relies on it.
    """

    RHOS = [Fraction(p, q) for q in range(1, 13) for p in range(1, q + 1) if math.gcd(p, q) == 1]

    @pytest.mark.parametrize("r", [None, 0, 1, 5, 30])
    def test_variety_and_delta_reduced(self, r):
        for rho in self.RHOS:
            for point in cm.run_trajectory(cm.ModelParams(rho, r), n_max=200).points:
                for value in (point.variety, point.delta_variety):
                    assert math.gcd(value.numerator, value.denominator) == 1, (rho, r, point.n)
                    assert value.denominator > 0

    @pytest.mark.parametrize("rho", [HALF, Fraction(1), Fraction(3, 4), Fraction(9, 10)])
    @pytest.mark.parametrize("r", [0, 1, 7, 40, 47, UNBOUNDED])
    def test_p_free_walk_reproduces_the_window_sums(self, rho, r):
        # N_n = p**max(0, n-r) * M_n against the direct sum, and the average length
        # reduced by a gcd of p-free terms against Fraction(n * p * N_{n-1}, N_n);
        # r = 0 starts b at n = 0, and from r = n_max = 40 on the range never binds
        started = time.perf_counter()
        n_max, p, q = 40, rho.numerator, rho.denominator
        bound = n_max + 1 if r is UNBOUNDED else r
        sums = [
            sum(math.comb(n, s) * p**s * q ** (n - s) for s in range(max(0, n - bound), n + 1))
            for n in range(n_max + 1)
        ]
        points = core._points(cm.ModelParams(rho, r), 0, n_max)
        walk = core._exact_terms(0, r, p, q)
        for n, term, (_, variety, avg_length, *_) in zip(range(n_max + 1), walk, points):
            window_sum, last_term, m, c = term
            lift = p ** max(0, n - bound)
            assert (window_sum, lift * m) == (sums[n], sums[n]), (n, r)
            c_expected = math.comb(n, r) * q ** (r + 1) if n >= bound else 0
            assert (c, last_term) == (c_expected, lift * c_expected), (n, r)
            assert variety == Fraction(sums[n], q**n)
            expected = Fraction(n * p * sums[n - 1], sums[n]) if n else Fraction(0)
            assert (avg_length.numerator, avg_length.denominator) == (
                expected.numerator, expected.denominator
            ), (n, r)
            assert next(core._exact_terms(n, r, p, q)) == term  # a walk opened at n
        assert time.perf_counter() - started < 0.1

    def test_zero_delta_is_canonical(self):
        delta = cm.variety_delta(7, 1, 0)
        assert delta == 0 and (delta.numerator, delta.denominator) == (0, 1)

    @given(st.integers(), st.integers(min_value=1))
    def test_coprime_equals_and_hashes_like_fraction(self, num, den):
        g = math.gcd(num, den)
        num, den = num // g, den // g
        value, reference = core._coprime(num, den), Fraction(num, den)
        assert value == reference and hash(value) == hash(reference)
        assert (value.numerator, value.denominator) == (reference.numerator, reference.denominator)
        if den == 1:
            assert value == num and hash(value) == hash(num)
