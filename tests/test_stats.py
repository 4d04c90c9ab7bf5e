"""Statistical kit tests, checked against scipy as the independent oracle."""

import math
import random
import sys

import pytest
import scipy.stats as scipy_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptRng, one_sample_p
from reprtrace import stats
from reprtrace.errors import InsufficientDataError, ParameterError
from reprtrace.stats import (
    bernoulli,
    cochran_sample_size,
    corrected_sample_size,
    decayed_confidence,
    infinite_sample_size,
    normal_quantile,
    one_sample_t_p_value_from_stats,
    paired_t_p_value,
    paired_t_test,
    student_t_log_p_bound,
    student_t_two_sided_p,
)

PAPER_NORMAL = [600.0, 780.0, 1050.0, 1100.0]
PAPER_CURRENT = [500.0, 720.0, 950.0, 1020.0]


class TestBernoulli:
    def test_probability_zero_is_false(self):
        for seed in range(5):
            assert bernoulli(0.0, random.Random(seed)) is False

    def test_probability_one_is_true(self):
        for seed in range(5):
            assert bernoulli(1.0, random.Random(seed)) is True

    def test_consumes_exactly_one_draw(self):
        rng = ScriptRng([0.3, 0.7])
        bernoulli(0.5, rng)
        assert rng.pos == 1
        bernoulli(0.0, rng)
        assert rng.pos == 2

    def test_long_run_fraction(self):
        rng = random.Random(20240815)
        hits = sum(bernoulli(0.5, rng) for _ in range(100_000))
        assert 0.49 <= hits / 100_000 <= 0.51

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            bernoulli(-0.01, random.Random(1))
        with pytest.raises(ParameterError):
            bernoulli(1.01, random.Random(1))


class TestPairedTTest:
    def test_reference_vectors_are_equal(self):
        assert paired_t_test(PAPER_NORMAL, PAPER_CURRENT, 0.05) is True

    def test_identical_vectors_are_equal(self):
        assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.05) is True

    def test_clearly_different_vectors(self):
        assert paired_t_test([100, 100, 100, 100], [200, 205, 195, 210], 0.05) is False

    def test_constant_shift_is_unequal(self):
        xs = [10.0, 20.0, 30.0]
        assert paired_t_test(xs, [x + 5.0 for x in xs], 0.05) is False
        assert paired_t_test(xs, list(xs), 0.05) is True

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 8)
            xs = [rng.uniform(10, 200) for _ in range(n)]
            ys = [rng.uniform(10, 200) for _ in range(n)]
            assert paired_t_test(xs, ys, 0.05) == paired_t_test(ys, xs, 0.05)

    def test_length_mismatch(self):
        with pytest.raises(InsufficientDataError):
            paired_t_test([1.0, 2.0], [1.0], 0.05)

    def test_too_few_pairs(self):
        with pytest.raises(InsufficientDataError):
            paired_t_test([1.0], [2.0], 0.05)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            paired_t_test([1.0, 2.0], [3.0, 4.0], 0.0)
        with pytest.raises(ParameterError):
            paired_t_test([1.0, 2.0], [3.0, 4.0], 1.0)


def _corpus(seed=7, cases=50):
    rng = random.Random(seed)
    vectors = []
    while len(vectors) < cases:
        n = rng.randint(3, 12)
        scale = rng.choice([1.0, 10.0, 250.0])
        xs = [rng.uniform(40, 160) * scale for _ in range(n)]
        ys = [x * rng.uniform(0.7, 1.3) + rng.uniform(-5, 5) * scale for x in xs]
        vectors.append((xs, ys))
    return vectors


class TestOracleCorpus:
    def test_paired_p_values_match_scipy(self):
        for xs, ys in _corpus():
            expected = scipy_stats.ttest_ind(xs, ys, equal_var=True).pvalue
            assert paired_t_p_value(xs, ys) == pytest.approx(expected, abs=1e-6)

    def test_one_sample_p_values_match_scipy(self):
        for xs, _ys in _corpus(seed=11):
            mu0 = sum(xs) / len(xs) * 1.05
            expected = scipy_stats.ttest_1samp(xs, mu0).pvalue
            assert one_sample_p(xs, mu0) == pytest.approx(expected, abs=1e-6)

    def test_quantiles_match_scipy(self):
        for conf in [0.001, 0.01, 0.1, 0.3, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 0.999999]:
            expected = scipy_stats.norm.ppf(1 - (1 - conf) / 2)
            assert normal_quantile(conf) == pytest.approx(expected, rel=1e-14)


class TestStudentTTwoSidedP:
    @pytest.mark.parametrize("df", [1, 2.5, 30, 1e6])
    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_t_gives_zero(self, t, df):
        # df / (df + t * t) is 0.0, and the incomplete beta at 0 is 0.
        assert student_t_two_sided_p(t, df) == 0.0


class TestStudentTLogPBound:
    @settings(max_examples=500, deadline=None)
    @given(
        df=st.floats(2.0, 1e5),
        t=st.floats(0.0, 60.0, exclude_min=True),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_bounds_the_two_sided_p_value(self, df, t, sign):
        log_bound = student_t_log_p_bound(sign * t, df)
        for p_value in (student_t_two_sided_p(sign * t, df), 2.0 * scipy_stats.t.sf(t, df)):
            if 0.0 < p_value < sys.float_info.min:
                # A subnormal p rounds to a multiple of 5e-324, so it can exceed
                # the exact p, and the bound, by up to half that step (at df=15996,
                # t=39.25 the exact p is 177.54 steps, the bound 177.66 and the
                # returned p 178).  The next float down is at or below the exact p.
                p_value = math.nextafter(p_value, 0.0)
            assert p_value == 0.0 or log_bound >= math.log(p_value)

    def test_is_the_mills_ratio_bound(self):
        # 2 f(t) (df + t^2) / ((df - 1) |t|), with f the Student-t density.
        for df, t in ((2.0, 0.5), (3.0, -2.0), (40.0, 3.0), (5000.0, 10.0)):
            expected = 2.0 * scipy_stats.t.pdf(t, df) * (df + t * t) / ((df - 1.0) * abs(t))
            assert math.exp(student_t_log_p_bound(t, df)) == pytest.approx(expected, rel=1e-12)

    def test_tight_in_the_tail(self):
        # The ratio to the p-value falls towards df / (df - 1).
        for df in (2.0, 10.0, 1000.0):
            ratio = math.exp(student_t_log_p_bound(40.0, df)) / student_t_two_sided_p(40.0, df)
            assert 1.0 < ratio < df / (df - 1.0) * 1.01

    @pytest.mark.parametrize("df", [2, 3.0, 199, 4096.0, 1e5 + 0.5])
    @pytest.mark.parametrize("t", [0.25, -3.0, 40.0])
    def test_cached_df_terms_keep_the_closed_forms_bits(self, t, df):
        closed_form = (
            math.log(2.0)
            + math.lgamma((df + 1.0) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
            + math.log(df / (df - 1.0))
            - math.log(abs(t))
            - (df - 1.0) / 2.0 * math.log1p(t * t / df)
        )
        stats._log_p_bound_df_terms.cache_clear()
        assert student_t_log_p_bound(t, df) == closed_form   # computed
        assert student_t_log_p_bound(t, df) == closed_form   # cached
        if df == int(df):
            # An int df and the equal float share one cache entry.
            swapped = float(df) if isinstance(df, int) else int(df)
            assert student_t_log_p_bound(t, swapped) == closed_form

    def test_no_bound_at_zero_or_one_degree_of_freedom(self):
        assert student_t_log_p_bound(0.0, 10.0) == math.inf
        assert student_t_log_p_bound(5.0, 1.0) == math.inf
        assert student_t_log_p_bound(5.0, 0.5) == math.inf

    def test_rejects_non_positive_df(self):
        with pytest.raises(ParameterError):
            student_t_log_p_bound(1.0, 0.0)


class TestOneSampleTTest:
    def test_constant_sample_equal_to_mean(self):
        assert one_sample_p([5.0, 5.0, 5.0], 5.0) == 1.0

    def test_constant_sample_not_equal(self):
        assert one_sample_p([5.0, 5.0, 5.0], 6.0) == 0.0

    def test_close_mean_is_equal(self):
        assert one_sample_p([10, 12, 11, 9, 13], 11.0) > 0.05

    def test_far_mean_is_not_equal(self):
        assert one_sample_p([10, 12, 11, 9, 13], 30.0) <= 0.05

    def test_too_few_values(self):
        with pytest.raises(InsufficientDataError):
            one_sample_t_p_value_from_stats(1, 1.0, 0.0, 1.0)


class TestNormalQuantile:
    def test_ninety_five(self):
        assert normal_quantile(0.95) == pytest.approx(1.96, abs=0.005)

    def test_fifty(self):
        assert normal_quantile(0.5) == pytest.approx(0.6745, abs=1e-3)

    def test_small_confidence_approaches_zero(self):
        prev = normal_quantile(0.2)
        for conf in [0.1, 0.05, 0.01, 0.001, 1e-6]:
            z = normal_quantile(conf)
            assert 0 < z < prev
            prev = z

    def test_bounds_rejected(self):
        for conf in [0.0, 1.0, -0.2, 1.5]:
            with pytest.raises(ParameterError):
                normal_quantile(conf)


def _size_at(z, variability_p, margin_e, population_size):
    """Cochran's size for a given z, as the sampler's size bracket forms it."""
    return corrected_sample_size(infinite_sample_size(z, variability_p, margin_e),
                                 population_size)


class TestCochran:
    def test_unbounded_population(self):
        n = cochran_sample_size(0.95, 0.5, 0.05, math.inf)
        assert n == pytest.approx(384.16, abs=0.5)

    def test_finite_population_correction(self):
        n = cochran_sample_size(0.95, 0.5, 0.05, 1000)
        assert n == pytest.approx(277.7, abs=0.5)

    def test_population_of_one(self):
        for conf in [0.1, 0.5, 0.9, 0.99]:
            assert cochran_sample_size(conf, 0.5, 0.05, 1) == pytest.approx(1.0)

    def test_population_of_one_below_float_spacing(self):
        # n_inf - 1 rounds to -1, so the corrected formula's denominator is 0;
        # the formula's limit there is 1.
        assert cochran_sample_size(1e-10, 0.5, 0.05, 1) == 1.0
        assert _size_at(0.0, 0.5, 0.05, 1) == 1.0
        assert cochran_sample_size(1e-10, 0.5, 0.05, 1) == _size_at(
            normal_quantile(1e-10), 0.5, 0.05, 1)

    def test_monotonic_in_confidence_and_margin(self):
        rng = random.Random(17)
        for _ in range(1000):
            population = rng.randint(1, 100_000)
            p = rng.uniform(0.05, 0.95)
            conf_lo, conf_hi = sorted((rng.uniform(0.05, 0.999), rng.uniform(0.05, 0.999)))
            e_lo, e_hi = sorted((rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.5)))
            if conf_lo != conf_hi:
                assert cochran_sample_size(conf_lo, p, 0.05, population) <= cochran_sample_size(
                    conf_hi, p, 0.05, population
                )
            if e_lo != e_hi:
                assert cochran_sample_size(0.9, p, e_hi, population) <= cochran_sample_size(
                    0.9, p, e_lo, population
                )
            n = cochran_sample_size(conf_hi, p, e_lo, population)
            z = normal_quantile(conf_hi)
            n_inf = z * z * p * (1 - p) / (e_lo * e_lo)
            assert n <= population + 1e-9
            if n_inf >= 1.0:
                # below one required sample the finite correction exceeds
                # the uncorrected value by construction of the formula
                assert n <= n_inf + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        z_lo=st.floats(0.01, 6.0),
        z_hi=st.floats(0.01, 6.0),
        population=st.floats(1.0, 1e9),
    )
    def test_sample_size_non_decreasing_in_z(self, z_lo, z_hi, population):
        z_lo, z_hi = sorted((z_lo, z_hi))
        # Up to the rounding of the formula, far inside the sampler's 1e-9 margin.
        assert _size_at(z_lo, 0.5, 0.05, population) <= _size_at(
            z_hi, 0.5, 0.05, population) * (1 + 1e-12)

    def test_is_sample_size_at_the_quantile(self):
        for conf in (0.2, 0.95, 1 - 1e-6):
            z = normal_quantile(conf)
            assert cochran_sample_size(conf, 0.5, 0.05, 1000) == _size_at(z, 0.5, 0.05, 1000)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            cochran_sample_size(0.95, 0.0, 0.05, 100)
        with pytest.raises(ParameterError):
            cochran_sample_size(0.95, 0.5, 1.0, 100)
        with pytest.raises(ParameterError):
            cochran_sample_size(0.95, 0.5, 0.05, 0)


class TestDecayedConfidence:
    def test_start_is_one(self):
        assert decayed_confidence(0.0, 180.0) == 1.0

    def test_at_max_length(self):
        assert decayed_confidence(180.0, 180.0) == pytest.approx(math.exp(-1))

    def test_at_half(self):
        assert decayed_confidence(90.0, 180.0) == pytest.approx(math.exp(-0.5))

    def test_strictly_decreasing(self):
        rng = random.Random(23)
        for _ in range(1000):
            max_length = rng.uniform(1, 600)
            t1, t2 = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            if t1 == t2:
                continue
            assert decayed_confidence(t2, max_length) < decayed_confidence(t1, max_length)

    def test_validation(self):
        with pytest.raises(ParameterError):
            decayed_confidence(-1.0, 10.0)
        with pytest.raises(ParameterError):
            decayed_confidence(1.0, 0.0)
