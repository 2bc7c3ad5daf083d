"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (pytest -v itself shows PASSED/FAILED per criterion; the
printed lines add timing against each runtime budget).
"""

import math
import time
from fractions import Fraction

import pytest

import brute
import capmodel as cm
from capmodel.cli import main as cli_main

RHO_GRID = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
HALF = Fraction(1, 2)


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] C{number:02d} {label}: PASS ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def test_c01_basic_model_exactness():
    started = time.perf_counter()
    for n in range(61):
        assert cm.variety(n, 1) == 2**n
        assert cm.avg_length(n, 1) == Fraction(n, 2)
    _report(1, "basic model: variety 2^n, avg length n/2 (n <= 60, exact)", started, 1.0)


def test_c02_expected_length_closed_form():
    started = time.perf_counter()
    for rho in RHO_GRID:
        for n in range(61):
            closed = cm.avg_length(n, rho)
            assert closed == rho * n / (1 + rho)
            assert closed == brute.direct_avg_length(n, rho)
    _report(2, "expected length rho*n/(1+rho) == direct weighted mean", started, 1.0)


def test_c03_appendix_identity_suite():
    started = time.perf_counter()
    lower_coeff = {rho: rho / (1 + rho) for rho in RHO_GRID}
    for rho in RHO_GRID:
        p, q = rho.numerator, rho.denominator
        prev_suffix = None
        prev_s_bars = {}
        for n in range(1, 201):
            suffix, weighted = brute.int_suffix_sums(n, p, q)
            q_pow_n = q**n
            s_bars = {}
            if prev_suffix is not None:
                for r in range(1, n):
                    # (a) ratio formula equals the direct weighted mean
                    s_bar = s_bars[r] = cm.avg_length(n, rho, r)
                    assert s_bar == Fraction(weighted[r], suffix[r])
                    # (c) strict bounds rho*n/(1+rho) < s_bar < n
                    assert lower_coeff[rho] * n < s_bar < n
                    # (e) complexity rises with n: s_bar > avg_length(n - 1, rho, r), which
                    # at r = n - 1 is the whole book's mean rho*(n-1)/(1+rho) (C02)
                    assert s_bar > prev_s_bars.get(r, lower_coeff[rho] * (n - 1))
                    # (b) direct difference equals the closed-form delta
                    delta = cm.variety_delta(n, rho, r)
                    closed = rho * Fraction(suffix[r], q_pow_n) - math.comb(n, r) * rho ** (
                        n - r
                    )
                    assert delta == closed
                    if p == q:  # rho == 1: (d) ratio bounds and the doubling recurrence
                        d_n, d_prev = suffix[r], prev_suffix[r]
                        assert d_prev < d_n < 2 * d_prev
                        assert d_n == 2 * d_prev - math.comb(n - 1, r)
                        assert cm.variety(n, rho, r) == d_n
            prev_suffix = suffix
            prev_s_bars = s_bars
    _report(3, "appendix identities and rising avg length, 1 <= r < n <= 200", started, 60.0)


def test_c04_enumeration_oracle_equivalence():
    started = time.perf_counter()
    for n in range(16):
        for r in range(0, n + 3):
            count, avg = cm.enumerate_products(n, r)
            assert count == cm.variety(n, 1, r)
            assert avg == cm.avg_length(n, 1, r)
    _report(4, "exhaustive enumeration == closed forms (n <= 15, rho = 1)", started, 30.0)


def test_c05_hump_reproduction():
    started = time.perf_counter()
    r = 30
    onset = cm.find_hump_onset(r, HALF, 200)
    assert onset is not None and onset > 31
    assert cm.hump_condition(onset, HALF, r)
    assert not cm.hump_condition(onset - 1, HALF, r)
    traj = cm.run_trajectory(cm.ModelParams(HALF, r), n_max=onset + 15)
    varieties = [point.variety for point in traj.points]
    for n in range(31):  # strictly increasing up to n = 31
        assert varieties[n] < varieties[n + 1]
    for n in range(onset, onset + 10):  # strictly decreasing window after onset
        assert varieties[n] > varieties[n + 1]
    for n in range(onset + 1, onset + 16):  # post-hump complexity growth beats rho*n
        assert traj.points[n].avg_length > HALF * n
    _report(5, f"hump at rho=1/2, r=30 (onset n*={onset})", started, 10.0)


def test_c06_no_hump_at_rho_one():
    started = time.perf_counter()
    for n in range(2, 201):
        for r in range(1, n):
            assert cm.hump_condition(n, 1, r) is False
            assert cm.variety_delta(n, 1, r) > 0
    _report(6, "rho=1 never loses variety (r < n <= 200)", started, 10.0)


def test_c07_hump_onset_ordering(tmp_path):
    started = time.perf_counter()
    onsets = [cm.find_hump_onset(r, HALF, 200) for r in (5, 10, 20, 30)]
    assert all(onset is not None for onset in onsets)
    assert all(a < b for a, b in zip(onsets, onsets[1:]))
    report_path = tmp_path / "figure3.csv"
    assert cli_main(["figures", "--id", "3", "--out", str(report_path)]) == 0
    text = report_path.read_text()
    for r, onset in zip((5, 10, 20, 30), onsets):
        assert f"hump_onset_r={r}" in text
    _report(7, f"onsets strictly increase in r: {onsets}; CSV report written", started, 10.0)


def test_c08_monte_carlo_consistency():
    started = time.perf_counter()
    report = cm.validate_expectations(12, HALF, trials=1000, base_seed=20240817)
    assert report.expected_variety == pytest.approx(1.5**12)
    assert abs(report.variety_zscore) <= 3.0
    for s, z in enumerate(report.per_length_zscores):
        assert abs(z) <= 3.0, f"length {s}: z = {z}"
    again = cm.validate_expectations(12, HALF, trials=1000, base_seed=20240817)
    assert again == report
    _report(8, "Monte Carlo moments within 3 SE, deterministic", started, 60.0)


def test_c09_backend_agreement():
    started = time.perf_counter()
    for rho in RHO_GRID:
        for n in range(0, 301):
            r_set = {1, n // 4, n // 2, 3 * n // 4, n - 1}
            for r in sorted(r for r in r_set if r >= 0):
                check = cm.cross_validate(n, rho, r, tol=1e-9)
                assert check.ok, (n, r, rho, check.max_rel_dev)
    _report(9, "log backend within 1e-9 of exact (n <= 300, rho grid)", started, 60.0)


def test_c10_cli_determinism(tmp_path):
    started = time.perf_counter()
    commands = [
        ["eval", "--rho", "0.5", "--r", "30", "--n", "40", "--backend", "both"],
        ["trajectory", "--rho", "0.5", "--r", "6", "--n-max", "30"],
        ["trajectory", "--rho", "0.5", "--r", "6", "--n-max", "30", "--format", "json"],
        ["sweep", "--rho", "0.5", "--r-values", "2,4,8", "--n-max", "20"],
        ["hump", "--rho", "0.5", "--r", "5", "--format", "json"],
        ["oracle", "--n", "10", "--rho", "0.5", "--trials", "100", "--seed", "7"],
        ["validate", "--rho", "0.5", "--r", "10", "--n-max", "50"],
        ["figures", "--id", "2"],
    ]
    for index, args in enumerate(commands):
        first = tmp_path / f"{index}_a.out"
        second = tmp_path / f"{index}_b.out"
        assert cli_main([*args, "--out", str(first)]) == 0, args
        assert cli_main([*args, "--out", str(second)]) == 0, args
        assert first.read_bytes() == second.read_bytes(), args
    _report(10, "every CLI command is byte-deterministic", started, 60.0)
