"""Enumeration and sampling oracles: determinism, caps, and moment checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capmodel as cm
from capmodel import PER_LENGTH_BINOMIAL, PER_SUBSET, UNBOUNDED

HALF = Fraction(1, 2)


class TestEnumerateProducts:
    def test_unbounded_example(self):
        assert cm.enumerate_products(3) == (8, Fraction(3, 2))

    def test_window_example(self):
        assert cm.enumerate_products(3, 1) == (4, Fraction(9, 4))

    def test_matches_closed_form(self):
        count, avg = cm.enumerate_products(6, 5)
        assert count == 63
        assert count == cm.variety(6, 1, 5)
        assert avg == cm.avg_length(6, 1, 5)

    def test_invalid_args(self):
        for n, r in (("x", UNBOUNDED), (-1, UNBOUNDED), (3, "a"), (3, -1)):
            with pytest.raises(cm.DomainError):
                cm.enumerate_products(n, r)

    def test_resource_bound(self):
        with pytest.raises(cm.ResourceLimitError):
            cm.enumerate_products(21)

    def test_quick_grid_against_model(self):
        for n in range(0, 11):
            for r in range(0, n + 3):
                count, avg = cm.enumerate_products(n, r)
                assert count == cm.variety(n, 1, r)
                assert avg == cm.avg_length(n, 1, r)


class TestSampleRecipeBook:
    def test_rho_one_per_subset_is_full_book(self):
        sample = cm.sample_recipe_book(4, 1, seed=99, mode=PER_SUBSET)
        assert sample.counts_by_length == (1, 4, 6, 4, 1)

    def test_rho_one_per_length_is_full_book(self):
        sample = cm.sample_recipe_book(6, 1, seed=5, mode=PER_LENGTH_BINOMIAL)
        assert sample.counts_by_length == tuple(math.comb(6, s) for s in range(7))

    @pytest.mark.parametrize("mode", [PER_SUBSET, PER_LENGTH_BINOMIAL])
    def test_deterministic_given_seed(self, mode):
        a = cm.sample_recipe_book(10, HALF, seed=7, mode=mode)
        b = cm.sample_recipe_book(10, HALF, seed=7, mode=mode)
        assert a == b

    def test_different_seeds_differ(self):
        a = cm.sample_recipe_book(12, HALF, seed=1)
        b = cm.sample_recipe_book(12, HALF, seed=2)
        assert a.counts_by_length != b.counts_by_length

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=16),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([PER_SUBSET, PER_LENGTH_BINOMIAL]),
    )
    def test_counts_capped_by_binomials(self, n, rho, seed, mode):
        sample = cm.sample_recipe_book(n, rho, seed, mode)
        assert len(sample.counts_by_length) == n + 1
        for s, count in enumerate(sample.counts_by_length):
            assert 0 <= count <= math.comb(n, s)

    def test_mode_size_limits(self):
        with pytest.raises(cm.ResourceLimitError):
            cm.sample_recipe_book(21, HALF, seed=1, mode=PER_SUBSET)
        with pytest.raises(cm.ResourceLimitError):
            cm.sample_recipe_book(65, HALF, seed=1, mode=PER_LENGTH_BINOMIAL)
        # boundary values are accepted
        cm.sample_recipe_book(20, 1, seed=1, mode=PER_SUBSET)
        cm.sample_recipe_book(64, HALF, seed=1, mode=PER_LENGTH_BINOMIAL)

    def test_subset_draws_persist_as_n_grows(self):
        small = cm.sample_recipe_book(6, HALF, seed=42, mode=PER_SUBSET, keep_masks=True)
        large = cm.sample_recipe_book(9, HALF, seed=42, mode=PER_SUBSET, keep_masks=True)
        kept = {mask for mask in large.viable_masks if mask < 2**6}
        assert kept == set(small.viable_masks)

    def test_invalid_args(self):
        with pytest.raises(cm.DomainError):
            cm.sample_recipe_book(5, HALF, seed=-1)
        with pytest.raises(cm.DomainError):
            cm.sample_recipe_book(5, HALF, seed=1, mode="guess")
        with pytest.raises(cm.DomainError):
            cm.sample_recipe_book(5, 0, seed=1)

    def test_one_array_draw_matches_the_scalar_draws(self):
        # one rng.binomial over every length draws what n + 1 scalar calls did
        import numpy as np

        from capmodel import oracle

        for n in (0, 1, 8, 9, 10, 16, 64):
            for rho in (HALF, Fraction(3, 4), Fraction(9, 10), Fraction(1)):
                viability, combs = oracle._tables(n, rho, PER_LENGTH_BINOMIAL)
                assert combs.dtype == np.int64
                for seed in range(0, 3000, 97):
                    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
                    scalar = tuple(
                        int(rng.binomial(math.comb(n, s), viability[s])) for s in range(n + 1)
                    )
                    drawn = oracle._draw(n, seed, PER_LENGTH_BINOMIAL, viability, combs)
                    assert drawn == (scalar, None), (n, rho, seed)

    def test_popcounts_by_doubling(self):
        import numpy as np

        from capmodel import oracle

        for n in range(17):
            expected = np.array([mask.bit_count() for mask in range(1 << n)], dtype=np.uint8)
            sizes, mask_viability = oracle._tables(n, HALF, PER_SUBSET)[1]
            assert sizes.dtype == np.uint8
            assert np.array_equal(sizes, expected), n
            assert np.array_equal(mask_viability, 0.5**expected), n


class TestEmpiricalStats:
    def test_full_book_matches_enumeration(self):
        sample = cm.sample_recipe_book(3, 1, seed=3, mode=PER_SUBSET)
        assert cm.empirical_stats(sample, 1) == cm.enumerate_products(3, 1)
        assert cm.empirical_stats(sample) == (8, Fraction(3, 2))

    def test_full_book_unbounded(self):
        sample = cm.sample_recipe_book(4, 1, seed=3, mode=PER_SUBSET)
        assert cm.empirical_stats(sample) == (16, 2)

    def test_empty_book_convention(self):
        empty = cm.RecipeBookSample(
            n=3, rho=HALF, seed=0, mode=PER_SUBSET, counts_by_length=(0, 0, 0, 0)
        )
        assert cm.empirical_stats(empty, 2) == (0, 0)

    def test_invalid_range(self):
        # a negative range would otherwise read as an empty window
        sample = cm.sample_recipe_book(5, HALF, seed=1)
        for r in ("a", -2, True):
            with pytest.raises(cm.DomainError):
                cm.empirical_stats(sample, r)


class TestTrialSeeds:
    def test_deterministic(self):
        assert cm.trial_seed(123, 0) == cm.trial_seed(123, 0)
        assert cm.trial_seed(123, 0) != cm.trial_seed(123, 1)
        assert cm.trial_seed(123, 5) != cm.trial_seed(124, 5)

    def test_documented_derivation(self):
        import numpy as np

        expected = int(np.random.SeedSequence([9, 4]).generate_state(1, np.uint64)[0])
        assert cm.trial_seed(9, 4) == expected

    @pytest.mark.parametrize("index", [True, -1, 1.0, "1", None])
    def test_bad_index_rejected(self, index):
        with pytest.raises(cm.DomainError, match="trial index"):
            cm.trial_seed(1, index)


class TestValidateExpectations:
    def test_rho_one_zscores_exactly_zero(self):
        report = cm.validate_expectations(8, 1, trials=30, base_seed=11, mode=PER_SUBSET)
        assert report.variety_zscore == 0.0
        assert report.avg_length_zscore == 0.0
        assert report.per_length_zscores == tuple([0.0] * 9)
        assert report.empirical_variety == report.expected_variety == 2.0**8

    @pytest.mark.parametrize("z_max", [math.inf, math.nan, 0.0, -1.0, True, "4"])
    def test_within_needs_a_positive_finite_threshold(self, z_max):
        report = cm.validate_expectations(4, HALF, trials=30)
        assert report.within(1e9) and not report.within(1e-300)
        with pytest.raises(cm.DomainError):
            report.within(z_max)

    def test_requires_thirty_trials(self):
        with pytest.raises(cm.DomainError):
            cm.validate_expectations(8, HALF, trials=29, base_seed=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": "x"},
            {"n": 5.0},
            {"n": -1},
            {"n": True},
            {"rho": 0},
            {"rho": "2"},
            {"rho": 0.5},
            {"r": "a"},
            {"r": -3},
            {"mode": "guess"},
            {"base_seed": -1},
        ],
        ids=repr,
    )
    def test_bad_input_rejected_before_any_sample(self, monkeypatch, kwargs):
        from capmodel import oracle

        drawn = []
        monkeypatch.setattr(oracle, "_draw", lambda *args: drawn.append(args))
        call = {"n": 5, "rho": HALF, "r": UNBOUNDED, "trials": 1000, "base_seed": 1,
                "mode": PER_LENGTH_BINOMIAL, **kwargs}
        with pytest.raises(cm.DomainError):
            cm.validate_expectations(**call)
        assert drawn == []

    @pytest.mark.parametrize("mode", [PER_SUBSET, PER_LENGTH_BINOMIAL])
    def test_one_draw_per_trial_from_one_table(self, monkeypatch, mode):
        from capmodel import oracle

        draws, draw = [], oracle._draw
        monkeypatch.setattr(oracle, "_draw", lambda *args: draws.append(args) or draw(*args))
        monkeypatch.setattr(oracle, "sample_recipe_book", lambda *args: pytest.fail("resampled"))
        cm.validate_expectations(6, HALF, trials=40, base_seed=3, mode=mode)
        assert [args[1] for args in draws] == [cm.trial_seed(3, i) for i in range(40)]
        assert all(args[3] is draws[0][3] and args[4] is draws[0][4] for args in draws)
        assert draws[0][3] == [float(HALF**s) for s in range(7)]
        if mode == PER_LENGTH_BINOMIAL:  # the binomial coefficients, else (sizes, viability)
            assert draws[0][4].tolist() == [math.comb(6, s) for s in range(7)]
        else:
            assert len(draws[0][4]) == 2

    def test_deterministic_reports(self):
        a = cm.validate_expectations(10, HALF, trials=60, base_seed=777)
        b = cm.validate_expectations(10, HALF, trials=60, base_seed=777)
        assert a == b

    @pytest.mark.parametrize("mode", [PER_SUBSET, PER_LENGTH_BINOMIAL])
    def test_moments_close_to_expectations(self, mode):
        report = cm.validate_expectations(
            10, HALF, trials=400, base_seed=2024, mode=mode
        )
        assert report.expected_variety == pytest.approx(1.5**10)
        assert report.max_abs_zscore <= 4.0

    def test_windowed_average_length_target(self):
        report = cm.validate_expectations(12, HALF, r=4, trials=400, base_seed=31)
        assert report.expected_avg_length == pytest.approx(float(cm.avg_length(12, HALF, 4)))
        assert abs(report.avg_length_zscore) <= 4.0

    def test_modes_statistically_indistinguishable(self):
        # same per-length mean and variance parameters in both modes:
        # compare each mode's sample moments against the shared theory values
        n, trials = 10, 1000
        for mode in (PER_SUBSET, PER_LENGTH_BINOMIAL):
            totals = [0] * (n + 1)
            squares = [0] * (n + 1)
            for i in range(trials):
                sample = cm.sample_recipe_book(n, HALF, cm.trial_seed(606, i), mode)
                for s, c in enumerate(sample.counts_by_length):
                    totals[s] += c
                    squares[s] += c * c
            for s in range(n + 1):
                p = 0.5**s
                m = math.comb(n, s)
                mean_theory = m * p
                var_theory = m * p * (1 - p)
                mean = totals[s] / trials
                var = squares[s] / trials - mean**2
                se_mean = math.sqrt(var_theory / trials) if var_theory else 0.0
                assert abs(mean - mean_theory) <= 3 * se_mean + 1e-12, (mode, s)
                # asymptotic SE of a sample variance: sqrt((mu4 - sigma^4)/T),
                # with the binomial fourth central moment mu4 = v(1 + 3(m-2)pq)
                mu4 = var_theory * (1.0 + 3.0 * (m - 2) * p * (1 - p))
                se_var = math.sqrt(max(mu4 - var_theory**2, 0.0) / trials)
                assert abs(var - var_theory) <= 4 * se_var + 1e-9, (mode, s)
