"""Enumeration and sampling oracles: determinism, caps, and moment checks."""

import math
from fractions import Fraction
from random import Random

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
        # also across n = 5, where a plane stops being the low bits of one 32-bit word
        for small_n, large_n in ((6, 9), (2, 7), (0, 5), (4, 12)):
            small = cm.sample_recipe_book(small_n, HALF, seed=42, mode=PER_SUBSET, keep_masks=True)
            large = cm.sample_recipe_book(large_n, HALF, seed=42, mode=PER_SUBSET, keep_masks=True)
            kept = {mask for mask in large.viable_masks if mask < 2**small_n}
            assert kept == set(small.viable_masks), (small_n, large_n)

    def test_invalid_args(self):
        with pytest.raises(cm.DomainError):
            cm.sample_recipe_book(5, HALF, seed=-1)
        with pytest.raises(cm.DomainError):
            cm.sample_recipe_book(5, HALF, seed=1, mode="guess")
        with pytest.raises(cm.DomainError):
            cm.sample_recipe_book(5, 0, seed=1)

    def test_one_stream_per_book_one_call_per_length(self):
        # in order of length, one _binomial call on the uniforms of Random(seed)
        from capmodel import oracle

        for n in (0, 1, 8, 9, 10, 16, 64):
            for rho in (HALF, Fraction(3, 4), Fraction(9, 10), Fraction(1)):
                viability, combs = oracle._tables(n, rho, PER_LENGTH_BINOMIAL)
                assert combs == [math.comb(n, s) for s in range(n + 1)]
                for seed in range(0, 3000, 97):
                    random = Random(seed).random
                    expected = tuple(map(oracle._binomial, [random] * (n + 1), combs, viability))
                    drawn = oracle._draw(n, seed, PER_LENGTH_BINOMIAL, viability, combs)
                    assert drawn == (expected, None), (n, rho, seed)

    def test_popcounts_by_doubling(self):
        from capmodel import oracle

        for n in range(13):
            expected = [0] * (n + 1)
            for mask in range(1 << n):
                expected[mask.bit_count()] |= 1 << mask
            by_size, certain, bits = oracle._tables(n, HALF, PER_SUBSET)[1]
            assert by_size == expected, n
            assert certain == 1, n  # the empty subset: rho**0 == 1
            # ceil(2**-s * 2**53) = 2**(53 - s) has one bit, j = s - 1 from the top
            assert bits == [
                (by_size[j + 1] if j < n else 0, sum(by_size[j + 2:])) for j in range(53)
            ], n

    @pytest.mark.parametrize(
        "rho", [HALF, Fraction(9, 10), Fraction(1, 3), Fraction(1, 1000), Fraction(1)], ids=str
    )
    def test_bit_sliced_draw_is_the_scalar_rule(self, rho):
        # mask m of size s is viable when u_m < ceil(rho**s * 2**53), where bit j
        # of u_m (most significant first) is bit m of plane j
        from capmodel import oracle

        for n in range(11):
            viability, table = oracle._tables(n, rho, PER_SUBSET)
            thresholds = [math.ceil(rho**s * 2**53) for s in range(n + 1)]
            width = max(2**n, 32)
            for seed in range(0, 2**40, 2**40 // 23):
                planes = [
                    f"{Random(seed << 6 | j).getrandbits(width):0{width}b}"[::-1] for j in range(53)
                ]
                viable = [
                    m for m, bits in enumerate(zip(*planes))
                    if m < 2**n and int("".join(bits), 2) < thresholds[m.bit_count()]
                ]
                counts = [0] * (n + 1)
                for m in viable:
                    counts[m.bit_count()] += 1
                drawn = oracle._draw(n, seed, PER_SUBSET, viability, table, keep_masks=True)
                assert drawn == (tuple(counts), tuple(viable)), (n, seed)


class TestBinomialPort:
    """`oracle._binomial` is CPython 3.12's `Random.binomialvariate`, mended."""

    # Random(seed).binomialvariate(n, p), four calls per seed, from CPython 3.12.1:
    # n = 1, the geometric method (n*p < 10, also by symmetry for p > 0.5),
    # p = 0 and 1, and BTRS (also by symmetry)
    SEEDS = (0, 1, 2**70 + 3)
    FROZEN = {
        (1, 0.3): ((0, 0, 0, 1), (1, 0, 0, 1), (1, 0, 1, 1)),
        (20, 0.2): ((5, 6, 7, 5), (4, 4, 3, 5), (3, 1, 7, 4)),
        (20, 0.9): ((17, 17, 17, 18), (19, 18, 17, 20), (18, 19, 20, 15)),
        (7, 0.0): ((0, 0, 0, 0),) * 3,
        (math.comb(64, 32), 1.0): ((math.comb(64, 32),) * 4,) * 3,
        (1000, 0.3): ((317, 297, 300, 313), (282, 312, 300, 306), (289, 258, 319, 312)),
        (12870, 0.7): (
            (8949, 9021, 9007, 8963), (9075, 8967, 9010, 8986), (9050, 9161, 8940, 8966)
        ),
        (10**6, 0.5): (
            (500575, 499888, 500016, 500442),
            (499367, 500404, 499994, 500219),
            (499612, 498530, 500659, 500409),
        ),
    }

    @staticmethod
    def _draws(n, p, seed, count=4):
        from capmodel import oracle

        random = Random(seed).random
        return tuple(oracle._binomial(random, n, p) for _ in range(count))

    def test_reproduces_frozen_cpython_draws(self):
        for (n, p), draws in self.FROZEN.items():
            assert tuple(self._draws(n, p, seed) for seed in self.SEEDS) == draws, (n, p)

    @pytest.mark.skipif(
        not hasattr(Random, "binomialvariate"), reason="Random.binomialvariate is new in 3.12"
    )
    def test_matches_binomialvariate(self):
        # up to n = 10**6, where CPython's rounding changes no draw
        for n in (0, 1, 2, 5, 11, 40, 100, 1000, 12870, 10**5, 10**6):
            for p in (0.0, 2.0**-50, 0.001, 0.05, 0.3, 0.5, 0.51, 0.7, 0.95, 1.0):
                for seed in range(40):
                    rng = Random(seed)
                    expected = tuple(rng.binomialvariate(n, p) for _ in range(3))
                    assert self._draws(n, p, seed, 3) == expected, (n, p, seed)

    def test_geometric_gaps_below_two_to_the_minus_54(self):
        # CPython's log2(1.0 - p) is 0 there, and it draws 0 whatever n*p: so
        # did all twelve of its draws at this point, made as FROZEN's were
        n, p, trials = math.comb(64, 32), 4e-18, 2000
        draws = self._draws(n, p, 5, trials)
        mean = n * p  # 7.33
        assert abs(sum(draws) / trials - mean) <= 4 * math.sqrt(mean / trials)

    def test_btrs_acceptance_at_huge_n(self):
        # CPython's lgamma differences lose every digit here: its draws (20,000
        # from CPython 3.12.1) have about 2.0 times the binomial's standard deviation
        n, p, trials = math.comb(64, 27), 2.0**-27, 2000
        draws = self._draws(n, p, 5, trials)
        mean = sum(draws) / trials
        var = n * p * (1 - p)
        assert abs(mean - n * p) <= 4 * math.sqrt(var / trials)
        ratio = sum((x - mean) ** 2 for x in draws) / (trials - 1) / var
        assert abs(ratio - 1) <= 4 * math.sqrt(2 / trials)

    def test_a_zero_uniform_is_read_as_its_limit(self):
        from capmodel import oracle

        def draw(n, p, *uniforms):
            return oracle._binomial(iter(uniforms).__next__, n, p)

        # geometric: an infinite gap ends the count, as a tiny uniform does
        assert draw(20, 0.2, 0.5, 0.0) == draw(20, 0.2, 0.5, 1e-300) == 1
        # BTRS: u = 0.0 puts k at -inf, rejected; v = 0.0 is accepted, as a tiny v is
        assert draw(1000, 0.3, 0.0, 0.5, 0.5) == draw(1000, 0.3, 0.5, 0.5) == 300
        assert draw(1000, 0.3, 0.05, 0.0) == draw(1000, 0.3, 0.05, 1e-300) == 268

    def test_log_factorial_ratio(self):
        from capmodel import oracle

        for a, b in ((0, 0), (5, 3), (15, 40), (16, 16), (100, 17), (17, 100), (3000, 2000)):
            exact = math.fsum(map(math.log, range(b + 1, a + 1)))
            exact -= math.fsum(map(math.log, range(a + 1, b + 1)))
            assert oracle._log_factorial_ratio(a, b) == pytest.approx(exact, rel=1e-13, abs=1e-13)
        # at n = C(64, 32) the ratio of two neighbouring factorials is the larger one
        n = math.comb(64, 32)
        assert oracle._log_factorial_ratio(n, n - 1) == pytest.approx(math.log(n), rel=1e-15)
        assert oracle._log_factorial_ratio(n - 10**5, n) == pytest.approx(
            -sum(math.log(n - i) for i in range(10**5)), rel=1e-12
        )

    def test_getrandbits_stream_is_pinned(self):
        # the docs promise a stable random(), not getrandbits(); the per-subset
        # planes rest on its first words, the first of them lowest
        for seed, (five, word, three_words) in {
            0: (0x1B, 0xD82C07CD, 0xC2094CAC629F6FBED82C07CD),
            1: (0x4, 0x2265B1F5, 0xD8F16ADF91B7584A2265B1F5),
            2**70 + 3: (0x5, 0x29D44276, 0xFF5A8EF954C2E2AD29D44276),
        }.items():
            assert Random(seed).getrandbits(5) == five == word >> 27
            assert Random(seed).getrandbits(32) == word == three_words & 0xFFFFFFFF
            assert Random(seed).getrandbits(96) == three_words


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
        assert cm.trial_seed(9, 4) == 9 * 2**64 + 4
        assert cm.trial_seed(0, 2**64 - 1) == 2**64 - 1
        assert cm.trial_seed(2**80, 0) == 2**144

    @pytest.mark.parametrize("index", [True, -1, 1.0, "1", None, 2**64])
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
        assert draws[0][4] == oracle._tables(6, HALF, mode)[1]
        if mode == PER_LENGTH_BINOMIAL:  # the binomial coefficients, else the mask sets
            assert draws[0][4] == [math.comb(6, s) for s in range(7)]

    def test_deterministic_reports(self):
        a = cm.validate_expectations(10, HALF, trials=60, base_seed=777)
        b = cm.validate_expectations(10, HALF, trials=60, base_seed=777)
        assert a == b

    def test_zscores_are_the_same_on_every_python(self):
        # the variances are added with math.fsum: sum() of floats is compensated
        # only from 3.12 on, where it gave these reprs and 3.10-3.11 did not.
        # The average length's z is within 1 ulp of -1.5687082870827454157,
        # its value with the ratio variance summed exactly over the same terms
        report = cm.validate_expectations(64, "3/4", trials=200, base_seed=2**70 + 9)
        assert repr(report.variety_zscore) == "-1.5120039697777576"
        assert repr(report.avg_length_zscore) == "-1.5687082870827453"

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
