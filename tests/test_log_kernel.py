"""The log backend's window-sum kernel against exact integer window sums.

`core._log_window_sum` evaluates ``log variety(n, r)`` as a regularized
incomplete beta function by a continued fraction.  These tests hold it within
the 1e-9 gate of ``math.log(N_n) - n * log(q)`` along long walks and at
single large ``n``, check its convergence where the continued fraction is
slowest, and check that its cost does not grow with the window.
"""

import math
import time
from fractions import Fraction

import pytest

from capmodel import EXACT, LOGFLOAT, DomainError, ModelParams, ResourceLimitError, core
from capmodel.cli import main
from capmodel.trajectory import run_trajectory

GATE = 1e-9


def _exact_log(sums: core._WindowSums, n: int) -> float:
    return math.log(sums.term(n)) - n * math.log(sums.q)


@pytest.mark.parametrize("rho, r, n_max", [("3/4", 400, 1600), ("1/2", 30, 800)])
def test_long_walk_matches_exact_terms(rho, r, n_max):
    exact = core._WindowSums(ModelParams(rho, r, EXACT))
    logged = core._WindowSums(ModelParams(rho, r, LOGFLOAT))
    worst = max(abs(logged.term(n) - _exact_log(exact, n)) for n in range(r + 1, n_max + 1))
    assert worst <= GATE


@pytest.mark.parametrize("rho, r", [("1/2", 400), ("1/10", 1000)])
def test_single_point_at_n_100000(rho, r):
    n, p, q = 100_000, Fraction(rho).numerator, Fraction(rho).denominator
    exact = _exact_log(core._WindowSums(ModelParams(rho, r, EXACT)), n)
    assert abs(core._log_window_sum(n, r, p, q) - exact) <= GATE


@pytest.mark.parametrize("n", [1_001, 100_001])
def test_converges_at_the_switch_point(n):
    # rho = 1 and r = (n-1)/2 put x exactly on the switch (a+1)/(a+b+2) = 1/2,
    # where the continued fraction is slowest; the window holds half of 2**n
    assert abs(core._log_window_sum(n, (n - 1) // 2, 1, 1) - (n - 1) * math.log(2)) <= GATE


def test_switch_point_at_n_a_billion_is_fast():
    n = 10**9 + 1
    started = time.perf_counter()
    value = core._log_window_sum(n, (n - 1) // 2, 1, 1)
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
