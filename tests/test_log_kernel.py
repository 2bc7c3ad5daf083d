"""The log backend's window-sum kernel against exact integer window sums.

`core._log_window_sum` evaluates ``log variety(n, r)`` as a regularized
incomplete beta function by a continued fraction, together with the last
term's share ``w_n`` of the window.  These tests hold the log within the 1e-9
gate of ``math.log(N_n) - n * log(q)`` along long walks and at single large
``n``, and ``w_n`` within 1e-12 of ``b_n / (q * N_n)``; they check its
convergence where the continued fraction is slowest, that its cost does not
grow with the window, and the delta and average length read off ``w`` far
past the reach of the exact walk.
"""

import math
import time
from fractions import Fraction

import pytest

import capmodel as cm
from capmodel import EXACT, LOGFLOAT, DomainError, ModelParams, ResourceLimitError, core, trajectory
from capmodel.cli import main
from capmodel.trajectory import find_hump_onset, run_trajectory

GATE = 1e-9


def _exact_pair(term: tuple, n: int, q: int) -> tuple[float, float]:
    """The exact ``(log variety(n), w_n)``, from the walk's ``(N_n, b_n)`` at n."""
    window_sum, last_term, *_ = term
    return math.log(window_sum) - n * math.log(q), last_term / (q * window_sum)


@pytest.mark.parametrize("rho, r, n_max", [("3/4", 400, 1600), ("1/2", 30, 800)])
def test_long_walk_matches_exact_terms(rho, r, n_max):
    exact = core._terms(ModelParams(rho, r, EXACT), r)
    logged = core._terms(ModelParams(rho, r, LOGFLOAT), r)
    q = Fraction(rho).denominator
    worst_log = worst_share = 0.0
    for n, term, (log_v, w) in zip(range(r, n_max + 1), exact, logged):
        exact_log_v, exact_w = _exact_pair(term, n, q)
        worst_log = max(worst_log, abs(log_v - exact_log_v))
        worst_share = max(worst_share, abs(w / exact_w - 1))
    assert worst_log <= GATE
    assert worst_share <= 1e-12


@pytest.mark.parametrize("rho, r", [("1/2", 400), ("1/10", 1000)])
def test_single_point_at_n_100000(rho, r):
    n, p, q = 100_000, Fraction(rho).numerator, Fraction(rho).denominator
    exact_log_v, exact_w = _exact_pair(next(core._exact_terms(n, r, p, q)), n, q)
    log_v, w = core._log_window_sum(n, r, p, q)
    assert abs(log_v - exact_log_v) <= GATE
    assert abs(w / exact_w - 1) <= 1e-12


@pytest.mark.parametrize("n", [1_001, 100_001])
def test_converges_at_the_switch_point(n):
    # rho = 1 and r = (n-1)/2 put x exactly on the switch (a+1)/(a+b+2) = 1/2,
    # where the continued fraction is slowest; the window holds half of 2**n
    log_v, _ = core._log_window_sum(n, (n - 1) // 2, 1, 1)
    assert abs(log_v - (n - 1) * math.log(2)) <= GATE


@pytest.mark.parametrize("n", [12, 1_001, 100_001])
def test_complementary_windows_sum_to_2_to_the_n_at_rho_one(n):
    # at rho = 1 the windows [n-r, n] and [r+1, n] are the two halves of row n of
    # C(n, s) on either side of s = n-r-1/2, so variety(n, r) + variety(n, n-r-1)
    # = 2**n; the log backend sums r < (n-1)/2 directly and r >= (n-1)/2 by its
    # complement, so each pair sets the two branches against each other
    started = time.perf_counter()
    switch = (n - 1) // 2
    for r in (0, 1, switch - 1, switch, switch + 1, n - 2, n - 1):
        other = n - r - 1
        if n < 2_000:
            assert cm.variety(n, 1, r) + cm.variety(n, 1, other) == 2**n, r
        logs = (cm.variety(n, 1, k, LOGFLOAT).log_abs - n * math.log(2) for k in (r, other))
        assert abs(sum(map(math.exp, logs)) - 1) <= GATE, r
    assert time.perf_counter() - started < 0.1


def test_switch_point_at_n_a_billion_is_fast():
    n = 10**9 + 1
    started = time.perf_counter()
    value, _ = core._log_window_sum(n, (n - 1) // 2, 1, 1)
    assert time.perf_counter() - started < 0.05
    assert value == pytest.approx((n - 1) * math.log(2), rel=1e-12)


def test_unconverged_fraction_is_a_resource_limit(monkeypatch, capsys):
    # a tolerance no step can meet runs the fraction into its cap
    monkeypatch.setattr(core, "_CF_TOL", -1.0)
    with pytest.raises(ResourceLimitError, match=r"did not converge in 205 iterations"):
        core._beta_cf(10_000, 10_000, 0.4)
    args = ["eval", "--rho", "1/2", "--r", "3", "--n", "9", "--backend", "logfloat"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the incomplete beta continued fraction")
    assert len(captured.err.splitlines()) == 1


def test_fraction_cap_stops_growing_at_a_plus_b_of_2_to_the_40(monkeypatch):
    # at the switch point the iterations needed double each decade of n; the
    # cap, 64 + isqrt(2**40), keeps a run that cannot converge near 1 s
    monkeypatch.setattr(core, "_CF_TOL", -1.0)
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"did not converge in 1048640 iterations"):
        core._beta_cf(10**20, 10**20, 0.5)
    assert time.perf_counter() - started < 10


def test_rounded_complement_is_a_domain_error(capsys):
    # near r = n*q/(p+q) at n ~ 1e15 the rounded complement reaches the whole sum
    args = ["eval", "--rho", "1/2", "--r", "666666667666667",
            "--n", "1000000000000001", "--backend", "logfloat"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the logfloat backend cannot resolve this window sum")
    assert "rounding puts the complement" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_window_sum_past_2_to_the_53_is_a_domain_error(capsys, monkeypatch):
    # past 2**53 the shape parameters and the branch test are no longer exact
    # doubles: the sum is refused before any lgamma or continued fraction
    assert core.variety(2**53 - 1, "1/2", 5, LOGFLOAT).sign == 1
    message = r"^the logfloat backend cannot resolve this window sum at n of 54 bits"
    with pytest.raises(DomainError, match=message):
        core.variety(2**53, "1/2", 5, LOGFLOAT)
    monkeypatch.setattr(core, "_beta_cf", lambda *args: pytest.fail("continued fraction"))
    monkeypatch.setattr(math, "lgamma", lambda value: pytest.fail("lgamma"))
    with pytest.raises(DomainError, match=message):
        core._log_window_sum(2**53, 5, 1, 2)
    big = 10**100 + 1
    # the first two ran the fraction to its cap (about 1.3 s each), the third printed
    # -6.93e159 for a log whose ulp is about 1e144, the last raised after the complement
    for n, r in ((big, 2 * big // 3), (big, 2 * big // 3 - 10**50), (10**160, 5),
                 (10**28 + 1, 2 * (10**28 + 1) // 3)):
        args = ["eval", "--rho", "1/2", "--r", str(r), "--n", str(n), "--backend", "logfloat"]
        started = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - started < 0.1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the logfloat backend cannot resolve this window sum")
        assert len(captured.err.splitlines()) == 1


def test_lgamma_calls_do_not_grow_with_the_window(monkeypatch):
    calls, lgamma = [], math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda value: calls.append(value) or lgamma(value))
    counts = []
    for width in (1, 30, 400, 4_000):
        calls.clear()
        core._log_window_sum(10_000, width, 3, 4)
        counts.append(len(calls))
    assert counts == [3, 3, 3, 3]


def test_n_past_the_limit_is_a_domain_error(capsys):
    # the limit keeps lgamma(n + 1) finite; 10**310 does not even convert to a float
    limit = core._LOG_N_MAX
    assert core.variety(limit, "1/2", None, LOGFLOAT).log_abs == pytest.approx(limit * math.log(1.5))
    message = r"^n must be at most 1e\+300 on the logfloat backend, got an integer of 1030 bits$"
    for function in (core.variety, core.avg_length, core.variety_delta, core.classify_stage):
        with pytest.raises(DomainError, match=message):
            function(10**310, "1/2", 5, LOGFLOAT)
    with pytest.raises(DomainError, match=r"^n must be at most 1e\+300"):
        core.hump_condition(limit + 1, "1/2", 5, LOGFLOAT)
    with pytest.raises(DomainError, match=r"^n_max must be at most 1e\+300"):
        run_trajectory(ModelParams("1/2", 5, LOGFLOAT), limit + 1)
    args = ["eval", "--rho", "1/2", "--r", "5", "--n", str(10**310), "--backend", "logfloat"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: n must be at most 1e+300 on the logfloat backend, got an integer of 1030 bits\n"
    )


def test_both_backends_reject_n_past_the_log_limit_before_any_exact_work(monkeypatch, capsys):
    # with --backend both the log bound on n is checked before the exact walk
    # opens, or an unbounded eval would compute 3**(10**301) first
    def refuse(*args):
        raise AssertionError("exact work before the log bound was checked")

    monkeypatch.setattr(core, "_exact_terms", refuse)
    monkeypatch.setattr(trajectory, "_hump", refuse)
    n = str(10**301)
    for args, name in (
        (["eval", "--rho", "1/2", "--n", n], "n"),
        (["trajectory", "--rho", "1/2", "--r", "5", "--n-max", n], "n_max"),
    ):
        assert main([*args, "--backend", "both"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {name} must be at most 1e+300 on the logfloat backend,"
            " got an integer of 1000 bits\n"
        )


def test_log_rho_near_one_has_no_cancellation():
    # log(999/1000) = -sum_k (1/1000)**k / k (Mercator); 12 terms leave < 1e-36
    series = -sum(Fraction(1, 1000**k * k) for k in range(1, 13))
    assert abs(core._log_rho(999, 1000) / float(series) - 1) <= 1e-15
    # far below rho ~ 1e-16, (p - q) / q rounds to -1.0, where log1p would raise
    assert math.isfinite(core._log_rho(1, 10**400))


def test_log_delta_sign_agrees_with_the_exact_hump_at_the_onset():
    # onset - 2 .. onset + 1, where delta / variety is smallest and the sign of
    # rho - w_n is hardest to get right
    started, points = time.perf_counter(), 0
    for rho in ("1/2", "3/4", "1/10"):
        p, q = Fraction(rho).numerator, Fraction(rho).denominator
        for r in (10**3, 10**5, 10**7, 5 * 10**7):
            onset = find_hump_onset(r, rho, 100 * r)
            for n in range(onset - 2, onset + 2):
                sign = core.variety_delta(n, rho, r, LOGFLOAT).sign
                assert sign == (-1 if core._hump(n, r, p, q) else 1), (rho, r, n)
                points += 1
    assert points == 48
    assert time.perf_counter() - started < 0.1


@pytest.mark.parametrize("n", [10**6, 10**9])
def test_log_avg_length_lies_in_the_window_and_rises(n):
    # claim A on the log backend: max(n - r, rho*n/(1+rho)) <= avg_length(n) < n and
    # avg_length(n+1) > avg_length(n), compared as logs so no rounding back is added
    started = time.perf_counter()
    for rho in ("1/2", "3/4", "1/10", "9/10", "1"):
        p, q = Fraction(rho).numerator, Fraction(rho).denominator
        for r in (10, 1000, n // 10, n // 3, n // 2, 2 * n // 3, n - 10):
            points = core._points(ModelParams(rho, r, LOGFLOAT), n, n + 1)
            (_, _, now, *_), (_, _, after, *_) = points
            now, after = now.log_abs, after.log_abs
            assert math.log(max(n - r, n * p / (p + q))) <= now < math.log(n), (rho, r)
            assert after > now, (rho, r)
    assert time.perf_counter() - started < 0.1


def test_a_point_opens_its_stream_at_the_first_term_it_reads(monkeypatch):
    # every single-point reader, variety and delta included, opens one
    # `_points` stream at n - 1 and reads n - 1 and then n; so do the oracle's expectations
    calls, opened = [], []
    log_window_sum, exact_terms = core._log_window_sum, core._exact_terms

    def counting_sum(n, *args):
        calls.append(n)
        return log_window_sum(n, *args)

    def opening(k, *args):
        opened.append(k)
        return exact_terms(k, *args)

    monkeypatch.setattr(core, "_log_window_sum", counting_sum)
    monkeypatch.setattr(core, "_exact_terms", opening)
    readers = [
        cm.variety,
        cm.variety_delta,
        cm.avg_length,
        lambda n, rho, r, backend: cm.evaluate_point(ModelParams(rho, r, backend), n),
    ]
    for read in readers:
        calls.clear()
        opened.clear()
        read(5000, "1/2", 200, LOGFLOAT)
        assert calls == [4999, 5000]
        read(300, "1/2", 200, EXACT)
        assert opened == [299]
    opened.clear()
    cm.validate_expectations(12, "1/2", 4, trials=30)
    assert opened == [11]


def test_a_point_reads_terms_n_minus_1_and_n_only(monkeypatch, tmp_path):
    # a log eval computes two window sums, and a trajectory to n_max draws
    # n_max + 1 terms from each stream: no quantity reads term n + 1
    calls, drawn, log_window_sum = [], [], core._log_window_sum

    def counting_sum(*args):
        calls.append(args)
        return log_window_sum(*args)

    def counting(backend, terms):
        return lambda *args: (drawn.append(backend) or term for term in terms(*args))

    monkeypatch.setattr(core, "_log_window_sum", counting_sum)
    args = ["eval", "--rho", "1/2", "--r", "400", "--n", "1000", "--backend", "logfloat"]
    assert main([*args, "--out", str(tmp_path / "eval.csv")]) == 0
    assert [n for n, *_ in calls] == [999, 1000]

    monkeypatch.setattr(core, "_exact_terms", counting(EXACT, core._exact_terms))
    monkeypatch.setattr(core, "_log_terms", counting(LOGFLOAT, core._log_terms))
    for backend in (EXACT, LOGFLOAT):
        run_trajectory(ModelParams("3/4", 20, backend), 90)
    assert drawn.count(EXACT) == drawn.count(LOGFLOAT) == 91
