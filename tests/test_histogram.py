"""Tests for bin rules, the Knuth posterior, and histogram construction."""

import bisect
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from histospline import (
    BinRule,
    DataError,
    Histogram,
    Samples,
    build_histogram,
    estimate_pdf,
    flatten_positions,
    generate_corpus,
    knuth_log_posterior,
    select_bin_count,
)
import histospline.histogram as histogram_module
from histospline.datagen import MAX_CORPUS_SAMPLES
from histospline.histogram import (
    HISTOGRAM_BLOCK,
    LGAMMA_TABLE_SIZE,
    MAX_BIN_COUNT,
    MAX_KNUTH_SEARCH,
)


def uniform_samples(values):
    return Samples(np.asarray(values, dtype=float))


class TestSamples:
    def test_too_few_values(self):
        with pytest.raises(DataError, match="at least 2"):
            Samples(np.array([1.0]))

    def test_non_finite_values(self):
        with pytest.raises(DataError, match="finite"):
            Samples(np.array([1.0, np.nan, 3.0]))
        with pytest.raises(DataError, match="finite"):
            Samples(np.array([1.0, np.inf]))

    def test_complex_values_are_a_data_error(self):
        # a cast to float would keep the real parts and only warn
        with pytest.raises(DataError, match="not complex"):
            Samples(np.array([1 + 5j, 2, 3]))

    @pytest.mark.parametrize("label", ["sqrt", "sturges", "scott", "fd", "knuth", "fixed:5"])
    def test_overflowing_spread_is_a_data_error(self, label):
        # max - min = 2e308 overflows; every rule and the edges need it
        with pytest.raises(DataError, match="spread max - min overflows"):
            samples = uniform_samples([-1e308, 0.0, 1e308])
            build_histogram(samples, select_bin_count(samples, BinRule.parse(label)))

    def test_values_are_the_only_field(self):
        assert [field.name for field in dataclasses.fields(Samples)] == ["values"]

    def test_values_are_read_only(self):
        s = uniform_samples([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 99.0

    @pytest.mark.parametrize("kind", ["array", "list"])
    def test_one_n_sized_array_is_held(self, kind):
        # the read-only copy of the values, 8 MB, and no weight array; a
        # list is converted once, so no second copy shows in the peak
        values = np.random.default_rng(3).normal(size=10**6)
        given = values if kind == "array" else values.tolist()
        tracemalloc.start()
        try:
            s = Samples(given)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 8.5e6 and peak < 8.5e6
        assert np.array_equal(s.values, values) and not s.values.flags.writeable

    @pytest.mark.parametrize("values", [
        [np.nan, np.nan, np.nan],
        [-np.inf, 1.0],
        [1.0, 2.0, np.inf],
        [0.0, 1.0, 2.0, np.nan],
        [np.inf, -np.inf],
        [1.0, 1.0, np.nan],  # non-finite comes before a zero range
        [-1e308, 1e308, np.nan],  # and before an overflowing spread
    ], ids=["all-nan", "minus-inf-first", "inf-last", "nan-last", "both-infs",
            "nan-and-equal", "nan-and-wide"])
    def test_any_non_finite_value_is_named(self, values):
        with pytest.raises(DataError, match="^sample values must all be finite$"):
            Samples(np.array(values))

class TestBinRule:
    def test_parse_label_round_trip(self):
        for text in ("sqrt", "sturges", "scott", "fd", "knuth", "fixed:12"):
            assert BinRule.parse(text).label() == text

    def test_parse_fixed(self):
        rule = BinRule.parse("fixed:7")
        assert rule.tag == "fixed" and rule.fixed_count == 7

    def test_bad_rules(self):
        with pytest.raises(DataError):
            BinRule.parse("bogus")
        with pytest.raises(DataError):
            BinRule.parse("fixed")
        with pytest.raises(DataError):
            BinRule.parse("fixed:zero")
        with pytest.raises(DataError):
            BinRule.fixed(0)
        with pytest.raises(DataError):
            BinRule.knuth(search_max=0)
        with pytest.raises(DataError):
            BinRule("sqrt", fixed_count=3)
        with pytest.raises(DataError, match="1..1000000"):
            BinRule.fixed(MAX_BIN_COUNT + 1)
        with pytest.raises(DataError, match="1..10000$"):
            BinRule.knuth(search_max=MAX_BIN_COUNT + 1)

    def test_bin_count_cap_itself_is_accepted(self):
        assert BinRule.fixed(MAX_BIN_COUNT).fixed_count == MAX_BIN_COUNT
        assert BinRule.knuth(MAX_KNUTH_SEARCH).knuth_search_max == MAX_KNUTH_SEARCH

    @pytest.mark.parametrize("make, message", [
        (lambda: BinRule.fixed(2.5), "fixed bin count must be an integer, got 2.5$"),
        (lambda: BinRule.fixed(True), "fixed bin count must be an integer, got True$"),
        (lambda: BinRule("fixed"), "fixed bin count must be an integer, got None$"),
        (lambda: BinRule.fixed(0), f"fixed bin count must be in 1..{MAX_BIN_COUNT}$"),
        (lambda: BinRule.knuth("7"), "knuth_search_max must be an integer, got '7'$"),
        (lambda: BinRule.knuth(7.0), "knuth_search_max must be an integer, got 7.0$"),
    ], ids=["fractional", "bool", "missing", "zero", "text", "float"])
    def test_sizes_must_be_integers_in_range(self, make, message):
        with pytest.raises(DataError, match=message):
            make()

    def test_numpy_integer_sizes_are_stored_as_int(self):
        rule = BinRule.fixed(np.int64(7))
        assert rule == BinRule.fixed(7) and type(rule.fixed_count) is int
        assert type(BinRule.knuth(np.uint16(50)).knuth_search_max) is int

    @pytest.mark.parametrize("text", ["sqrt", "sturges", "scott", "fd", "knuth", "fixed:5"])
    def test_parse_checks_the_scan_bound_for_every_rule(self, text):
        message = f"knuth_search_max must be in 1..{MAX_KNUTH_SEARCH}$"
        for search_max in (0, MAX_KNUTH_SEARCH + 1):
            with pytest.raises(DataError, match=message):
                BinRule.parse(text, knuth_search_max=search_max)
        assert BinRule.parse(text, knuth_search_max=50).knuth_search_max == 50

    def test_knuth_search_above_its_cap_is_rejected(self):
        # the cap bounds the scan's time, so it is below the bin-count cap
        message = f"knuth_search_max must be in 1..{MAX_KNUTH_SEARCH}$"
        for search_max in (MAX_KNUTH_SEARCH + 1, MAX_BIN_COUNT):
            with pytest.raises(DataError, match=message):
                BinRule.knuth(search_max)


class TestSelectBinCount:
    def test_sturges_1000(self):
        s = uniform_samples(np.arange(1000.0))
        assert select_bin_count(s, BinRule.sturges()) == 11

    def test_sqrt_100(self):
        s = uniform_samples(np.arange(100.0))
        assert select_bin_count(s, BinRule.sqrt()) == 10

    def test_fixed(self):
        s = uniform_samples([0.0, 1.0, 2.0])
        assert select_bin_count(s, BinRule.fixed(17)) == 17

    def test_count_rules_depend_only_on_n(self):
        # scale covariance: sqrt/sturges ignore the values entirely
        a = uniform_samples(np.arange(64.0))
        b = uniform_samples(np.arange(64.0) * 1e6 - 3.0)
        for rule in (BinRule.sqrt(), BinRule.sturges()):
            assert select_bin_count(a, rule) == select_bin_count(b, rule)

    def test_scott_matches_formula(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=500)
        s = uniform_samples(values)
        width = 3.49 * np.std(values) * 500 ** (-1.0 / 3.0)
        expected = math.ceil((values.max() - values.min()) / width)
        assert select_bin_count(s, BinRule.scott()) == expected

    def test_fd_matches_formula(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=500)
        s = uniform_samples(values)
        q75, q25 = np.percentile(values, [75, 25])
        width = 2.0 * (q75 - q25) * 500 ** (-1.0 / 3.0)
        expected = math.ceil((values.max() - values.min()) / width)
        assert select_bin_count(s, BinRule.freedman_diaconis()) == expected

    def test_zero_range_rejected_for_data_dependent_rules(self):
        # the samples themselves are rejected, so every rule gives one message
        for rule in (BinRule.sqrt(), BinRule.sturges(), BinRule.scott(),
                     BinRule.freedman_diaconis(), BinRule.knuth(10), BinRule.fixed(3)):
            with pytest.raises(DataError, match="all samples are equal; data range is zero"):
                select_bin_count(uniform_samples([2.0, 2.0, 2.0]), rule)

    def test_scott_zero_standard_deviation(self):
        # the range is one subnormal step, the squared deviations underflow to 0
        with pytest.raises(DataError, match="zero standard deviation"):
            select_bin_count(uniform_samples([0.0, 5e-324]), BinRule.scott())

    def test_degenerate_iqr_rejected(self):
        # over half the mass at one point: zero IQR but positive range
        s = uniform_samples([5.0] * 20 + [9.0])
        with pytest.raises(DataError, match="interquartile"):
            select_bin_count(s, BinRule.freedman_diaconis())

    def test_fd_outlier_is_rejected_before_any_allocation(self):
        # uncapped, fd picks 1.7e10 bins here: a 138 GB np.linspace
        values = np.append(np.random.default_rng(2024).normal(size=100_000), 1e9)
        s = uniform_samples(values)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="limit of 1000000"):
                select_bin_count(s, BinRule.freedman_diaconis())
            with pytest.raises(DataError, match="bin_count"):
                build_histogram(s, MAX_BIN_COUNT + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_fd_underflowing_width_is_a_data_error(self):
        # a subnormal IQR makes the width underflow to 0 (a ZeroDivisionError
        # or OverflowError before the cap)
        values = [0.0] * 10 + [5e-324] * 10 + [1e10]
        with pytest.raises(DataError, match="limit"):
            select_bin_count(uniform_samples(values), BinRule.freedman_diaconis())

    @pytest.mark.parametrize("rule, values", [
        ("scott", [1e308, 1.7e308, 1.5e308, 1.2e308]),
        ("fd", [-5e307] * 4 + [5e307] * 4),
    ])
    def test_width_overflow_is_a_data_error(self, rule, values):
        # the standard deviation, or twice the IQR, overflows: the width is
        # inf and the bin count would be 0
        with pytest.raises(DataError, match=f"^the {rule} rule's bin width overflows"):
            select_bin_count(uniform_samples(values), BinRule.parse(rule))

    def test_fd_heavy_tail_below_the_cap(self):
        values = np.random.default_rng(0).standard_cauchy(10_000)
        assert select_bin_count(uniform_samples(values), BinRule.freedman_diaconis()) == 48_858

    def test_deterministic(self):
        values = np.random.default_rng(11).normal(size=2000)
        s = uniform_samples(values)
        rule = BinRule.knuth(80)
        assert select_bin_count(s, rule) == select_bin_count(s, rule)


# independent oracle: term-by-term posterior with math.lgamma
def oracle_log_posterior(counts, total):
    b = len(counts)
    return (
        total * math.log(b)
        + math.lgamma(b / 2.0)
        - b * math.lgamma(0.5)
        - math.lgamma(total + b / 2.0)
        + sum(math.lgamma(c + 0.5) for c in counts)
    )


def oracle_knuth_argmax(values, search_max):
    best_b, best_lp = 1, -math.inf
    for b in range(1, search_max + 1):
        edges = np.linspace(values.min(), values.max(), b + 1)
        counts, _ = np.histogram(values, bins=edges)
        lp = oracle_log_posterior(counts.tolist(), values.size)
        if lp > best_lp:
            best_b, best_lp = b, lp
    return best_b


class TestKnuthLogPosterior:
    def test_single_bin_is_exactly_zero(self):
        for n in (2, 10, 1000, 12345):
            assert knuth_log_posterior([n], n) == 0.0

    def test_two_even_bins_against_log_gamma_table(self):
        # published log-gamma values: lnG(1/2) = ln sqrt(pi), lnG(11) = ln 10!
        ln_gamma_half = 0.5723649429247001
        ln_gamma_5_5 = 3.9578139676187165
        ln_gamma_11 = 15.104412573075516
        expected = (
            10.0 * math.log(2.0)
            + 0.0  # lnG(1) for the B/2 term
            - 2.0 * ln_gamma_half
            - ln_gamma_11
            + 2.0 * ln_gamma_5_5
        )
        value = knuth_log_posterior([5, 5], 10)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-1.402042718088028, abs=1e-12)

    def test_permutation_invariance(self):
        counts = [3, 0, 7, 1, 9]
        assert knuth_log_posterior(counts, 20) == knuth_log_posterior(counts[::-1], 20)

    def test_count_mismatch(self):
        with pytest.raises(DataError, match="sum"):
            knuth_log_posterior([5, 5], 11)

    @pytest.mark.parametrize("counts, total, message", [
        ([], 1, "non-empty 1-d"),
        ([[1, 2]], 3, "non-empty 1-d"),
        ([3, -1], 2, "nonnegative"),
        ([0, 0], 0, "total must be >= 1"),
        ([1, 2], 3.5, "total must be an integer, got 3.5"),
        ([1, 2], 3.0, "total must be an integer, got 3.0"),
        ([1, 0], True, "total must be an integer, got True"),
        # whole float counts whose sum overflows, and Python ints beyond the float range
        ([1e308, 1e308], 5, "counts sum to inf, expected total 5"),
        ([10**300, 10**300], 5, "counts sum to 2.0000000000000001e\\+300, expected total 5"),
    ])
    def test_bad_inputs(self, counts, total, message):
        with pytest.raises(DataError, match=message):
            knuth_log_posterior(counts, total)

    @pytest.mark.parametrize("counts", [[1.5, 1.5], [0.25, 2.75], [np.nan, 3.0], [np.inf, 3.0]])
    def test_non_integral_counts_are_a_data_error(self, counts):
        with pytest.raises(DataError, match="counts must be whole numbers"):
            knuth_log_posterior(counts, 3)

    def test_integral_float_counts(self):
        assert knuth_log_posterior([1.0, 2.0], 3) == knuth_log_posterior([1, 2], 3)
        # counts are read as floats: an int vector's posterior is its float copy's, bit for bit
        counts = np.random.default_rng(4).integers(0, 5000, size=300)
        total = int(counts.sum())
        assert (np.float64(knuth_log_posterior(counts, total)).tobytes()
                == np.float64(knuth_log_posterior(counts.astype(float), total)).tobytes())

    def test_numpy_integer_total(self):
        assert knuth_log_posterior([1, 2], np.int64(3)) == knuth_log_posterior([1, 2], 3)

    def test_matches_scipy_gammaln(self):
        rng = np.random.default_rng(12)
        for size in (1, 7, 200):
            counts = rng.integers(0, 5000, size=size)
            total = int(counts.sum())
            b, n = counts.size, float(total)
            expected = (
                n * math.log(b) + gammaln(b / 2.0) - b * gammaln(0.5)
                - gammaln(n + b / 2.0) + np.sum(gammaln(np.sort(counts) + 0.5))
            )
            assert knuth_log_posterior(counts, total) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 50, size=23)
        total = int(counts.sum())
        assert knuth_log_posterior(counts, total) == pytest.approx(
            oracle_log_posterior(counts.tolist(), total), rel=1e-12
        )


class TestKnuthRule:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_argmax_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=10_000)
        s = uniform_samples(values)
        assert select_bin_count(s, BinRule.knuth(200)) == oracle_knuth_argmax(values, 200)

    @pytest.mark.parametrize("kind", ["bimodal", "lognormal", "cauchy", "braking"])
    def test_argmax_matches_oracle_across_tails(self, kind):
        rng = np.random.default_rng(9)
        values = {
            "bimodal": lambda: np.concatenate([rng.normal(-2.0, 0.7, 5000),
                                               rng.normal(3.0, 1.1, 5000)]),
            "lognormal": lambda: rng.lognormal(size=10_000),
            "cauchy": lambda: rng.standard_cauchy(10_000),
            "braking": lambda: flatten_positions(generate_corpus(30, seed=42)),
        }[kind]()
        s = uniform_samples(values)
        assert select_bin_count(s, BinRule.knuth(200)) == oracle_knuth_argmax(values, 200)

    def test_posterior_cross_check_with_pure_python_counting(self):
        # fully independent route: bisect-based counting + lgamma summation
        rng = np.random.default_rng(4)
        values = rng.normal(size=10_000)
        lo, hi = values.min(), values.max()
        for b in (5, 16, 50):
            edges = np.linspace(lo, hi, b + 1)
            edge_list = edges.tolist()
            counts = [0] * b
            for v in values:
                if v == edge_list[-1]:
                    counts[-1] += 1
                else:
                    counts[bisect.bisect_right(edge_list, float(v)) - 1] += 1
            np_counts, _ = np.histogram(values, bins=edges)
            assert counts == np_counts.tolist()
            assert knuth_log_posterior(np_counts, values.size) == pytest.approx(
                oracle_log_posterior(counts, values.size), rel=1e-12
            )


def per_step_knuth_scan(values, search_max):
    """The scan as one np.linspace and one searchsorted per bin count:
    the argmax, and every log-posterior and bin-count vector, in order of
    B."""
    sorted_values = np.sort(values)
    n = sorted_values.size
    log_posteriors, bin_counts = [], []
    for b in range(1, search_max + 1):
        edges = np.linspace(sorted_values[0], sorted_values[-1], b + 1)
        counts = np.diff(np.searchsorted(sorted_values, edges[:-1]), append=n)
        log_posteriors.append(knuth_log_posterior(counts, n))
        bin_counts.append(counts)
    best = max(range(search_max), key=lambda i: (log_posteriors[i], -i))
    return best + 1, log_posteriors, bin_counts


def scanned_posteriors(values, search_max):
    """Per B of the package's scan, in order of B: the exact posterior from
    the scan's own bin counts, the interval the scan scores it in, and
    those counts."""
    exact, lower, upper, bin_counts = [], [], [], []
    for bs, starts, counts, approx, err in histogram_module._knuth_chunks(np.sort(values),
                                                                          search_max):
        for b, start, a, e in zip(bs.tolist(), starts.tolist(), approx.tolist(), err.tolist()):
            exact.append(knuth_log_posterior(counts[start:start + b], values.size))
            lower.append(a - e)
            upper.append(a + e)
            bin_counts.append(counts[start:start + b])
    return exact, lower, upper, bin_counts


def same_count_vectors(a, b):
    return len(a) == len(b) and all(map(np.array_equal, a, b))


def assert_scan_matches_per_step_scan(values, search_max):
    # a posterior is order-free, so the count vectors are compared too: two
    # bins swapped would leave every posterior as it is
    expected_b, expected, expected_counts = per_step_knuth_scan(values, search_max)
    exact, lower, upper, counts = scanned_posteriors(values, search_max)
    assert exact == expected
    assert same_count_vectors(counts, expected_counts)
    assert all(lo <= lp <= hi for lo, lp, hi in zip(lower, exact, upper))
    samples = uniform_samples(values)
    assert select_bin_count(samples, BinRule.knuth(search_max)) == expected_b
    assert np.array_equal(samples._knuth_counts, expected_counts[expected_b - 1])


def scan_vector(kind):
    rng = np.random.default_rng(21)
    return {
        "normal": lambda: rng.normal(size=5000),
        "bimodal": lambda: np.concatenate([rng.normal(-2.0, 0.7, 2500),
                                           rng.normal(3.0, 1.1, 2500)]),
        "lognormal": lambda: rng.lognormal(size=5000),
        "cauchy": lambda: rng.standard_cauchy(5000),
        "braking": lambda: flatten_positions(generate_corpus(30, seed=42)),
        # 0..60 puts samples exactly on the edges of every B dividing 60
        "integers": lambda: rng.integers(0, 61, size=3000).astype(float),
        # delta / B underflows to 0 from B = 4: linspace's k / B * delta branch
        "subnormal": lambda: np.array([0.0, 1e-323]),
        # every subnormal step of a 50-step spread: delta / B is 0 only from
        # B = 101, and below that k * (delta / B) and k / B * delta differ,
        # so the branch must be chosen per B
        "subnormal-grid": lambda: np.arange(51) * 5e-324,
        # at K = 200 most of its bin counts take Stirling terms, not the table
        "stirling": lambda: rng.normal(size=200_000),
    }[kind]()


SCAN_KINDS = ["normal", "bimodal", "lognormal", "cauchy", "braking", "integers", "subnormal",
              "subnormal-grid", "stirling"]


class TestBatchedKnuthScan:
    @pytest.mark.parametrize("kind", SCAN_KINDS)
    def test_same_bits_as_the_per_step_scan(self, kind):
        assert_scan_matches_per_step_scan(scan_vector(kind), 200)

    @pytest.mark.parametrize("chunk", [1, 6, 7, 64])
    @pytest.mark.parametrize("kind", ["normal", "cauchy", "integers", "subnormal"])
    def test_chunk_size_does_not_change_the_result(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(histogram_module, "KNUTH_SCAN_CHUNK", chunk)
        assert_scan_matches_per_step_scan(scan_vector(kind), 60)

    @pytest.mark.parametrize("values, expected_b", [
        # B = 1 and B = 4 tie exactly: the smaller B wins
        pytest.param([0, 1, 5], 1, id="exact-tie"),
        # B = 12 beats B = 3 by about 4e-15
        pytest.param([0, 0, 4, 1], 12, id="tie-within-4e-15"),
    ])
    @pytest.mark.parametrize("chunk", [1, 1 << 16])
    def test_near_ties(self, values, expected_b, chunk, monkeypatch):
        monkeypatch.setattr(histogram_module, "KNUTH_SCAN_CHUNK", chunk)
        values = np.array(values, dtype=float)
        assert per_step_knuth_scan(values, 12)[0] == expected_b
        assert_scan_matches_per_step_scan(values, 12)

    @pytest.mark.parametrize("kind", ["normal", "cauchy", "integers"])
    def test_only_contenders_are_summed_again(self, kind, monkeypatch):
        # one B per chunk: the scan sums a B again exactly only when its
        # upper bound reaches the best exact posterior of the smaller B
        values = scan_vector(kind)
        _, expected, _ = per_step_knuth_scan(values, 60)
        monkeypatch.setattr(histogram_module, "KNUTH_SCAN_CHUNK", 1)
        _, _, upper, _ = scanned_posteriors(values, 60)
        contenders = [b for b in range(1, 61)
                      if upper[b - 1] >= max(expected[:b - 1], default=-math.inf)]
        summed = []
        posterior = histogram_module.knuth_log_posterior

        def recording(counts, total):
            summed.append(len(counts))
            return posterior(counts, total)

        monkeypatch.setattr(histogram_module, "knuth_log_posterior", recording)
        select_bin_count(uniform_samples(values), BinRule.knuth(60))
        assert summed == contenders
        assert len(contenders) < 60

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_interval_holds_when_every_stirling_term_errs_by_its_bound(self, sign, monkeypatch):
        lgamma_half = histogram_module._lgamma_half

        def off_by_the_bound(counts):
            terms, slack = lgamma_half(counts)
            return terms + sign * slack, slack

        values = scan_vector("stirling")
        counts = next(histogram_module._knuth_chunks(np.sort(values), 200))[2]
        assert np.mean(counts >= LGAMMA_TABLE_SIZE) > 0.5
        monkeypatch.setattr(histogram_module, "_lgamma_half", off_by_the_bound)
        exact, lower, upper, _ = scanned_posteriors(values, 200)
        assert all(lo <= lp <= hi for lo, lp, hi in zip(lower, exact, upper))

    def test_wide_scan_argmax(self):
        # knuth-mixed vectors of seed 1; under the default bound of 200 the
        # last two pick the bound itself
        rng = np.random.default_rng(1)
        normal = rng.normal(size=1_000)
        for size in (10_000, 100_000, 50_000, 50_000):
            rng.normal(size=size)
        vectors = {"normal-1e3": (normal, 16), "lognormal-1e5": (rng.lognormal(size=100_000), 514),
                   "cauchy-1e4": (rng.standard_cauchy(10_000), 1992)}
        for values, expected_b in vectors.values():
            assert per_step_knuth_scan(values, 2000)[0] == expected_b
            assert select_bin_count(uniform_samples(values), BinRule.knuth(2000)) == expected_b

    def test_wide_scan_memory_is_bounded_by_the_chunk(self):
        # 500,500 edges: about 49 MB traced when scanned in one piece
        s = uniform_samples(np.random.default_rng(2024).normal(size=10_000))
        tracemalloc.start()
        try:
            select_bin_count(s, BinRule.knuth(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    # 6 = 1 + 2 + 3: a chunk whose left edges fill it exactly
    @pytest.mark.parametrize("chunk", [histogram_module.KNUTH_SCAN_CHUNK, 1, 6, 7, 64])
    def test_chunk_bounds_equal_the_loop(self, chunk, monkeypatch):
        def loop_chunk_bounds(search_max):
            # add B to the chunk while its left edges fit
            first = 1
            while first <= search_max:
                last, size = first, first
                while last < search_max and size + last + 1 <= chunk:
                    last += 1
                    size += last
                yield first, last
                first = last + 1

        monkeypatch.setattr(histogram_module, "KNUTH_SCAN_CHUNK", chunk)
        # every bound across the first chunk of the default size, which ends
        # at 361, then a stride through the rest: every bound would take
        # 5e7 steps at a chunk of one
        for search_max in [*range(1, 401), *range(401, MAX_KNUTH_SEARCH, 373), MAX_KNUTH_SEARCH]:
            assert list(histogram_module._chunk_bounds(search_max)) == list(
                loop_chunk_bounds(search_max)), search_max

    def test_numpy_heads_equal_the_per_b_head(self):
        # every B the scan can reach, in the chunks the scan builds
        for first, last in histogram_module._chunk_bounds(MAX_KNUTH_SEARCH):
            layout = histogram_module._chunk_layout(first, last)
            for n in (1, 2, 1000, 868913, 10**8):
                heads = histogram_module._knuth_heads(layout, float(n))
                expected = [histogram_module._knuth_head(b, float(n)) for b in range(first, last + 1)]
                assert np.array_equal(heads.view(np.int64), np.array(expected).view(np.int64))

    def test_first_chunk_layout_is_read_only_in_value_order(self):
        layout = histogram_module._chunk_layout(1, 200)
        assert histogram_module._chunk_layout(1, 200) is layout
        assert not any(array.flags.writeable for array in layout)
        with pytest.raises(ValueError, match="read-only"):
            layout.k[0] = 1.0
        # 5,149 of the 20,100 left edges repeat an edge of B / 2 or are lo:
        # each distinct edge is searched once, in increasing k / B
        assert layout.canonical.size == 200 * 201 // 2
        assert np.array_equal(np.unique(layout.canonical), np.arange(14_951))
        assert layout.canonical.dtype == layout.b_index.dtype == np.int32
        assert np.all(np.diff(layout.k / layout.bs[layout.b_index]) >= 0.0)
        # the scan computes where each B's edges end, and B lgamma(1/2)
        assert not {"ends", "b_lgamma_half"} & set(layout._fields)

    @pytest.mark.parametrize("delta, step", [
        (4.450147717014404e-306, np.nextafter(np.finfo(float).tiny, np.inf)),
        (4.4501477170144015e-306, np.nextafter(np.finfo(float).tiny, 0.0)),
    ], ids=["one-ulp-above", "one-ulp-below"])
    def test_steps_either_side_of_the_smallest_normal_float(self, delta, step, monkeypatch):
        # delta / 200 one ulp either side of the smallest normal float: above
        # it the distinct edges are searched and gathered, below it halving B
        # no longer halves the step exactly, and the scan searches the edges
        # of np.linspace itself, one call per B.  Each edge of every B is
        # also a sample, so an edge one ulp off changes a count.
        assert delta / 200 == step
        values = np.unique(np.concatenate([np.linspace(0.0, delta, b + 1) for b in range(1, 201)]))
        expected_b, expected, expected_counts = per_step_knuth_scan(values, 200)
        histogram_module._chunk_layout(1, 200)  # built, so only the scan runs below
        points = []  # the point count of each np.linspace call
        linspace = np.linspace

        def recording(start, stop, num, **kwargs):
            points.append(num)
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", recording)
        exact, lower, upper, counts = scanned_posteriors(values, 200)
        assert select_bin_count(uniform_samples(values), BinRule.knuth(200)) == expected_b
        monkeypatch.undo()
        assert exact == expected
        assert same_count_vectors(counts, expected_counts)
        assert all(lo <= lp <= hi for lo, lp, hi in zip(lower, exact, upper))
        # the scan runs twice: for its posteriors and for its argmax
        assert points == ([] if step > np.finfo(float).tiny else [*range(2, 202)] * 2)

    def test_first_chunk_edges_equal_their_distinct_edges(self):
        # every left edge gathered from the searched edges is that of
        # np.linspace(lo, hi, B + 1), whenever the scan takes that path
        layout = histogram_module._chunk_layout(1, 200)
        rng = np.random.default_rng(24)
        checked = 0
        for exponent in range(-1074, 1024, 6):
            delta = math.ldexp(rng.uniform(1.0, 2.0), exponent)
            for lo in (0.0, -0.37 * delta, 1.5, -3e5):
                hi = lo + delta
                if not (math.isfinite(hi) and hi > lo):
                    continue
                steps = (hi - lo) / layout.bs
                if not steps[-1] > np.finfo(float).tiny:
                    continue
                gathered = (layout.k * steps.take(layout.b_index) + lo).take(layout.canonical)
                expected = np.concatenate([np.linspace(lo, hi, b + 1)[:-1] for b in range(1, 201)])
                assert np.array_equal(gathered.view(np.int64), expected.view(np.int64))
                checked += 1
        assert checked > 500

    # the first chunk is B = 1..min(K, 361): these bounds build its layout,
    # reuse it, replace it and add later chunks
    CHANGING_BOUNDS = (200, 37, 200, 361, 362, 1000)

    def test_scans_of_changing_bounds_match_the_per_step_scan(self):
        values = scan_vector("normal")
        _, expected, expected_counts = per_step_knuth_scan(values, 1000)
        histogram_module._chunk_layout.cache_clear()
        for _ in ("cold", "warm"):
            for search_max in self.CHANGING_BOUNDS:
                exact, lower, upper, counts = scanned_posteriors(values, search_max)
                assert exact == expected[:search_max]
                assert same_count_vectors(counts, expected_counts[:search_max])
                assert all(lo <= lp <= hi for lo, lp, hi in zip(lower, exact, upper))
                best = max(range(search_max), key=lambda i: (expected[i], -i)) + 1
                assert select_bin_count(uniform_samples(values), BinRule.knuth(search_max)) == best

    def test_the_cache_holds_one_first_chunk(self):
        s = uniform_samples(scan_vector("normal"))
        histogram_module._chunk_layout.cache_clear()
        tracemalloc.start()
        try:
            for search_max in self.CHANGING_BOUNDS:
                select_bin_count(s, BinRule.knuth(search_max))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the layout of 1..361 is about 0.87 MB, and those of 1..200 and
        # 1..37 would add 0.28 MB
        assert retained < 2e6
        assert histogram_module._chunk_layout.cache_info().currsize == 1


class TestLgammaTerms:
    def test_table_is_math_lgamma_bit_for_bit(self):
        counts = np.arange(LGAMMA_TABLE_SIZE)
        terms, slack = histogram_module._lgamma_half(counts)
        expected = np.array([math.lgamma(c + 0.5) for c in counts.tolist()])
        assert np.array_equal(terms.view(np.int64), expected.view(np.int64))
        assert not slack.any()

    @pytest.mark.parametrize("counts", [
        np.arange(LGAMMA_TABLE_SIZE, LGAMMA_TABLE_SIZE + 100_001),
        np.unique(np.geomspace(LGAMMA_TABLE_SIZE, MAX_CORPUS_SAMPLES, 1000).astype(np.intp)),
    ], ids=["consecutive", "log-spaced"])
    def test_stirling_terms_lie_within_their_bound(self, counts):
        terms, slack = histogram_module._lgamma_half(counts)
        expected = np.array([math.lgamma(c + 0.5) for c in counts.tolist()])
        assert np.all(slack > 0.0)
        assert np.all(np.abs(terms - expected) <= slack)

    def test_tabled_counts_read_the_terms_of_the_scan_time_series(self):
        # every tabled count, shuffled and with counts above the table: the
        # math.lgamma bits below 256, the Stirling series' bits and bounds
        # from 256 to 4,095, as computed at scan time for larger counts
        tabled = histogram_module._TABLED_COUNTS
        assert tabled == 4096
        counts = np.random.default_rng(29).permutation(np.arange(tabled + 500))
        terms, slack = histogram_module._lgamma_half(counts)
        small = counts < LGAMMA_TABLE_SIZE
        expected = np.array([math.lgamma(c + 0.5) for c in counts[small].tolist()])
        assert np.array_equal(terms[small].view(np.int64), expected.view(np.int64))
        assert not slack[small].any()
        stirling_terms, stirling_slack = histogram_module._stirling(counts[~small])
        assert np.array_equal(terms[~small].view(np.int64), stirling_terms.view(np.int64))
        assert np.array_equal(slack[~small], stirling_slack)
        exact = np.array([math.lgamma(c + 0.5) for c in counts[~small].tolist()])
        assert np.all(np.abs(terms[~small] - exact) <= slack[~small])

    def test_tables_are_read_only(self):
        for table in (histogram_module._LGAMMA_HALF, histogram_module._LGAMMA_HALF_SLACK):
            assert table.size == histogram_module._TABLED_COUNTS and not table.flags.writeable


# direct counting oracle: half-open bins, last bin closed
def oracle_masses(values, weights, edges):
    masses = [0.0] * (len(edges) - 1)
    for v, w in zip(values, weights):
        for k in range(len(edges) - 1):
            last = k == len(edges) - 2
            if edges[k] <= v < edges[k + 1] or (last and v == edges[k + 1]):
                masses[k] += w
                break
        else:  # pragma: no cover - every sample must land in a bin
            raise AssertionError(f"sample {v} not binned")
    return np.asarray(masses)


def assert_heights_are_exact_counts(values):
    # every height within 2 ulps of the exact count / N / width, with the
    # integer counts of np.histogram over the same edges, both from sorted
    # blocks and, at the B it chose, from a Knuth scan's counts
    scanned = Samples(values)
    chosen = select_bin_count(scanned, BinRule.knuth())
    for s in (Samples(values), scanned):
        for bins in (7, 60, 1000, chosen):
            hist = build_histogram(s, bins)
            counts, _ = np.histogram(values, bins=hist.edges)
            for height, count, width in zip(hist.heights.tolist(), counts.tolist(),
                                            hist.widths.tolist()):
                exact = Fraction(count, values.size) / Fraction(width)
                assert abs(Fraction(height) - exact) <= 2 * Fraction(math.ulp(float(exact)))


class TestBuildHistogram:
    def test_symmetric_split(self):
        hist = build_histogram(uniform_samples([0.0, 1.0, 2.0, 3.0]), 2)
        assert np.array_equal(hist.edges, [0.0, 1.5, 3.0])
        assert hist.heights == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-15)

    def test_boundary_sample_lands_in_last_bin(self):
        # counting oracle: bins [0,1) [1,2) [2,3] get masses 3/4, 0, 1/4
        hist = build_histogram(uniform_samples([0.0, 0.0, 0.0, 3.0]), 3)
        assert np.array_equal(hist.edges, [0.0, 1.0, 2.0, 3.0])
        assert hist.heights == pytest.approx([0.75, 0.0, 0.25], abs=1e-15)

    def test_matches_counting_oracle_with_weights(self):
        # each sample weighs 1/N in the oracle, as in the histogram
        rng = np.random.default_rng(8)
        values = rng.uniform(-2.0, 5.0, size=300)
        hist = build_histogram(uniform_samples(values), 13)
        expected_masses = oracle_masses(values, np.full(300, 1.0 / 300), hist.edges)
        expected_heights = expected_masses / (expected_masses.sum() * hist.widths)
        assert hist.heights == pytest.approx(expected_heights, rel=1e-12)

    def test_edges_span_data_range(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=100)
        hist = build_histogram(uniform_samples(values), 7)
        assert hist.bin_count == hist.heights.size == 7
        assert hist.edges[0] == values.min()
        assert hist.edges[-1] == values.max()
        assert np.allclose(np.diff(hist.widths), 0.0, atol=1e-12)

    def test_integer_counts_are_conserved(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=997)
        hist = build_histogram(uniform_samples(values), 19)
        counts, _ = np.histogram(values, bins=hist.edges)
        assert counts.sum() == 997

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=400)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        a = build_histogram(uniform_samples(values), 11)
        b = build_histogram(uniform_samples(shuffled), 11)
        # every sample has mass 1/N, so bin sums match bit for bit
        assert np.array_equal(a.heights, b.heights)
        assert np.array_equal(a.edges, b.edges)

    # sizes below one block, at it and across it
    @pytest.mark.parametrize("size", [2, 1_000, 65_535, 65_536, 65_537, 200_001])
    @pytest.mark.parametrize("weighting", ["default"])
    def test_masses_equal_numpy_histogram_bits(self, size, weighting):
        rng = np.random.default_rng(size)
        # two decimals: many ties, and samples on the edges of B = 60
        values = np.round(rng.normal(size=size), 2)
        values[:2] = -3.0, 3.0
        assert_heights_are_exact_counts(values)

    # many blocks; the sizes once put np.histogram's running sums of 1/N
    # across a binade where 1/N is a tie between two multiples of its ulp
    @pytest.mark.parametrize("size", [339_206, 1_717_216])
    def test_masses_equal_numpy_histogram_bits_across_tie_binades(self, size):
        rng = np.random.default_rng(size)
        assert_heights_are_exact_counts(np.round(rng.normal(size=size), 2))

    def test_zero_range(self):
        with pytest.raises(DataError, match="range"):
            build_histogram(uniform_samples([4.0, 4.0, 4.0]), 3)

    def test_bad_bin_count(self):
        with pytest.raises(DataError, match="bin_count"):
            build_histogram(uniform_samples([0.0, 1.0]), 0)

    @pytest.mark.parametrize("bin_count", [2.7, 3.0, True, "3", None])
    def test_bin_count_must_be_an_integer(self, bin_count):
        with pytest.raises(DataError, match="bin_count must be an integer, got"):
            build_histogram(uniform_samples([0.0, 1.0, 2.0]), bin_count)

    def test_numpy_integer_bin_count(self):
        s = uniform_samples([0.0, 0.5, 1.0, 2.0])
        assert np.array_equal(build_histogram(s, np.int32(3)).heights,
                              build_histogram(s, 3).heights)

    def test_subnormal_range_bin_density_overflow(self):
        # one bin 2.2e-313 wide must hold density 1 / 2.2e-313 = inf
        with pytest.raises(DataError, match="bin density overflows"):
            build_histogram(uniform_samples([0.0, 2.2250738585e-313]), 1)

    def test_non_normalized_histogram_rejected(self):
        with pytest.raises(DataError, match="normalized"):
            Histogram(edges=np.array([0.0, 1.0, 2.0, 3.0]), heights=np.array([0.75, 0.0, 0.0]))

    @pytest.mark.parametrize("edges, heights, message", [
        ([0.0], [], "edges must be a 1-d array of at least 2 values"),
        ([0.0, 1.0, 2.0], [1.0], "heights must have exactly"),
        ([0.0, 1.0, np.inf], [0.5, 0.5], "must be finite"),
        ([0.0, 1.0, 1.0, 2.0], [0.5, 0.0, 0.5], "edges must be strictly increasing"),
        ([0.0, 1.0, 2.0], [1.5, -0.5], "heights must be nonnegative"),
        # a numpy RuntimeWarning fails these too (pyproject.toml): an overflowing
        # width must be rejected before it makes a nan integral
        ([-1e308, 1e308, 1.5e308], [0.0, 2e-308], "edges span .+ overflows the float range"),
        ([1e308, -1e308], [1.0], "edges must be strictly increasing"),
        ([0.0, 1e300, 2e300], [1e300, 1e300], "not normalized: integral = inf$"),
        # finite steps, overflowing span: rejected although the integral is 1
        ([-1e308, 0.0, 1e308], [5e-309, 5e-309], "edges span .+ overflows the float range"),
        # a NaN height passes both the sign test and the normalization test
        ([0.0, 1.0, 2.0], [np.nan, 1.0], "histogram heights must be finite"),
        ([0.0, 1.0, 2.0], [np.inf, 0.0], "histogram heights must be finite"),
    ])
    def test_malformed_histogram_rejected(self, edges, heights, message):
        with pytest.raises(DataError, match=message):
            Histogram(edges=np.array(edges), heights=np.array(heights))


def heights_or_error(samples, bins):
    # the heights' bits, or the DataError a too narrow bin raises
    try:
        return build_histogram(samples, bins).heights.tobytes()
    except DataError as exc:
        return str(exc)


class TestSortedCopy:
    """A Knuth scan sorts the values into a temporary and keeps only the
    bin counts of the B it chose on the Samples; the histogram at that B
    divides them, with the bits of the block-by-block counts of a Samples
    that no scan has seen."""

    # sizes below one block, at it, across it and across two and three
    @pytest.mark.parametrize("size", [2, 1_000, 65_535, 65_536, 65_537, 131_072, 131_073,
                                      200_000])
    @pytest.mark.parametrize("kind", ["normal", "integers", "subnormal-steps"])
    def test_heights_equal_those_of_a_fresh_samples(self, size, kind):
        rng = np.random.default_rng(size)
        values, hi = {
            "normal": (rng.normal(size=size), None),
            # 0..3000: samples on the edges of B = 1, 200 and 3000
            "integers": (rng.integers(0, 3001, size=size).astype(float), 3000.0),
            # the steps of B = 200 and 3000 are subnormal, those of 1 and 7 normal
            "subnormal-steps": (rng.uniform(0.0, 1e-306, size=size), 1e-306),
        }[kind]
        if hi is not None:
            values[:2] = 0.0, hi
        scanned = Samples(values)
        chosen = select_bin_count(scanned, BinRule.knuth())
        assert scanned._knuth_counts.size == chosen
        for bins in (chosen, 1, 7, 200, 3000):
            fresh = Samples(values)
            assert heights_or_error(scanned, bins) == heights_or_error(fresh, bins)
            assert fresh._knuth_counts is None

    @pytest.mark.parametrize("size", [2, 1_000, 65_536, 65_537, 131_073, 200_000])
    def test_one_sort_per_block_in_a_knuth_estimate(self, size, monkeypatch):
        # the scan sorts all the values; the histogram divides its counts
        values = np.random.default_rng(size).normal(size=size)
        sorts = []
        sort = np.sort

        def counting(array, *args, **kwargs):
            sorts.append(array.size)
            return sort(array, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting)
        estimate_pdf(Samples(values), BinRule.knuth(), "natural")
        assert sorts == [size]

    def test_other_rules_keep_no_sorted_copy(self):
        # nor any counts: the values are the one array a Samples holds
        s = uniform_samples(np.random.default_rng(4).normal(size=1000))
        for label in ("sqrt", "sturges", "scott", "fd", "fixed:5"):
            build_histogram(s, select_bin_count(s, BinRule.parse(label)))
        assert [name for name, value in vars(s).items() if isinstance(value, np.ndarray)] == [
            "values"]
        assert s._knuth_counts is None

    @pytest.mark.parametrize("kind", ["normal", "integers", "subnormal"])
    def test_scanned_samples_hold_only_the_chosen_counts(self, kind):
        values = scan_vector(kind)
        s = uniform_samples(values)
        chosen = select_bin_count(s, BinRule.knuth())
        arrays = {name for name, value in vars(s).items() if isinstance(value, np.ndarray)}
        assert arrays == {"values", "_knuth_counts"}
        counts = s._knuth_counts
        assert counts.size == chosen and counts.dtype.kind == "i" and counts.sum() == values.size
        assert counts.base is None and not counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 0

    @pytest.mark.parametrize("label", ["sqrt", "sturges", "fixed:3"])
    def test_block_counts_hold_one_sorted_block(self, label):
        # with no sorted copy the peak is one sorted block, at any N: a
        # sort of the whole vector would add 8N bytes between these sizes
        peaks = []
        for size in (300_000, 1_200_000):
            s = Samples(np.random.default_rng(size).normal(size=size))
            bins = select_bin_count(s, BinRule.parse(label))
            tracemalloc.start()
            try:
                build_histogram(s, bins)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.25e6
        assert max(peaks) < 1.5 * 8 * HISTOGRAM_BLOCK

    def test_samples_keep_one_n_sized_array_after_a_knuth_scan(self):
        # the read-only values, 8N bytes, and B counts: the sorted values
        # die with the scan, so they show only in the peak
        values = np.random.default_rng(5).normal(size=10**6)
        histogram_module._chunk_layout(1, 200)  # built, so only the scan allocates
        tracemalloc.start()
        try:
            s = Samples(values)
            hist = build_histogram(s, select_bin_count(s, BinRule.knuth()))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= values.nbytes + 1e5
        assert peak < 2.2 * values.nbytes
        counts, _ = np.histogram(values, bins=hist.edges)
        assert np.array_equal(s._knuth_counts, counts)

    def test_a_second_scan_with_another_bound_matches_the_per_step_scan(self):
        # each scan sorts the values again and replaces the kept counts
        values = scan_vector("normal")
        s = uniform_samples(values)
        for search_max in (200, 60, 400):
            expected_b, _, expected_counts = per_step_knuth_scan(values, search_max)
            assert select_bin_count(s, BinRule.knuth(search_max)) == expected_b
            assert np.array_equal(s._knuth_counts, expected_counts[expected_b - 1])
            assert heights_or_error(s, expected_b) == heights_or_error(Samples(values), expected_b)


@pytest.mark.parametrize("value, lo, hi, message", [
    (0, 1, None, "n must be >= 1$"),
    (5, 1, 4, "n must be in 1..4$"),
    (False, 0, None, "n must be an integer, got False$"),
    (np.float64(2.0), 1, None, r"n must be an integer, got np.float64\(2.0\)$"),
    (np.bool_(True), 0, None, "n must be an integer, got "),
])
def test_size_rule_rejects(value, lo, hi, message):
    with pytest.raises(DataError, match=message):
        histogram_module._size(value, "n", lo, hi)


@pytest.mark.parametrize("value", [1, 4, np.int8(4), np.uint64(1), np.int64(2)])
def test_size_rule_returns_a_python_int(value):
    size = histogram_module._size(value, "n", 1, 4)
    assert size == value and type(size) is int


def read_only(array):
    array.setflags(write=False)
    return array


@pytest.mark.parametrize("values", [
    np.arange(3.0),                         # writable
    read_only(np.arange(4.0)[1:]),          # read-only view of a writable base
    read_only(np.arange(3, dtype=np.float32)),
    [0.0, 1.0, 2.0],
], ids=["writable", "read-only-view", "float32", "list"])
def test_frozen_array_copies_what_it_cannot_keep(values):
    frozen = histogram_module._frozen_array(values)
    assert frozen is not values and not np.shares_memory(frozen, np.asarray(values))
    assert frozen.dtype == np.float64 and frozen.base is None and not frozen.flags.writeable
    assert np.array_equal(frozen, values)


def test_frozen_array_keeps_an_owned_read_only_float64_array():
    values = read_only(np.arange(3.0))
    assert histogram_module._frozen_array(values) is values


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=150,
    ),
    bins=st.integers(min_value=1, max_value=40),
)
@settings(deadline=None, max_examples=150)
def test_normalization_invariant(values, bins):
    arr = np.asarray(values)
    assume(arr.max() > arr.min())
    edges = np.linspace(arr.min(), arr.max(), bins + 1)
    assume(np.all(np.diff(edges) > 0.0))  # range wide enough for distinct edges
    # heights up to bins / range must be representable; narrower ranges are
    # rejected (test_subnormal_range_bin_density_overflow)
    with np.errstate(over="ignore"):
        assume(np.isfinite(bins / (arr.max() - arr.min())))
    hist = build_histogram(uniform_samples(arr), bins)
    assert abs(float(np.sum(hist.heights * hist.widths)) - 1.0) <= 1e-12


@given(
    values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=80),
    bins=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(deadline=None, max_examples=100)
def test_order_invariance_property(values, bins, seed):
    arr = np.asarray(values, dtype=float)
    assume(arr.max() > arr.min())
    shuffled = arr.copy()
    np.random.default_rng(seed).shuffle(shuffled)
    a = build_histogram(uniform_samples(arr), bins)
    b = build_histogram(uniform_samples(shuffled), bins)
    assert np.array_equal(a.heights, b.heights)
