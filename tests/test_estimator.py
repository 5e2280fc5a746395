"""Tests for the histogram -> cumulative masses -> spline -> PDF pipeline."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import norm

from histospline import (
    BinRule,
    Boundary,
    CubicSplineModel,
    DataError,
    DisjointSupportsError,
    Histogram,
    OutOfSupportError,
    PdfEstimate,
    Samples,
    TimeSeries,
    bspline_basis,
    build_histogram,
    count_turning_points,
    cumulative_masses,
    estimate_from_histogram,
    estimate_pdf,
    fit_interpolating_spline,
    flatten_positions,
    generate_corpus,
    kl_divergence,
    knuth_log_posterior,
    quadrature_normalization,
    select_bin_count,
)
import histospline.estimator as estimator_module
import histospline.histogram as histogram_module
import histospline.spline as spline_module
from histospline.estimator import MAX_GRID_SIZE

ALL_BOUNDARIES = (Boundary.CLAMPED, Boundary.NATURAL, Boundary.NOT_A_KNOT)


def gauss_bin_masses(est):
    """Per-bin integral of the density by two-point Gauss quadrature,
    exact for the piecewise-quadratic derivative up to roundoff."""
    x = est.histogram.edges
    h = np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    off = h / (2.0 * np.sqrt(3.0))
    return (h / 2.0) * (est(mid - off) + est(mid + off))


class TestCumulativeProfile:
    def test_equal_masses(self):
        hist = build_histogram(Samples(np.array([0.0, 1.0, 2.0, 3.0])), 2)
        F = cumulative_masses(hist)
        assert F[0] == 0.0
        assert F[-1] == 1.0
        assert F == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)
        assert F.shape == hist.edges.shape

    def test_mass_increments_match_heights(self):
        rng = np.random.default_rng(0)
        hist = build_histogram(Samples(rng.normal(size=500)), 9)
        F = cumulative_masses(hist)
        masses = hist.heights * hist.widths
        assert np.diff(F) == pytest.approx(masses, abs=1e-15)

    def test_masses_are_read_only_and_end_exactly(self):
        rng = np.random.default_rng(1)
        for bins in (1, 7, 200):
            F = cumulative_masses(build_histogram(Samples(rng.lognormal(size=1000)), bins))
            assert not F.flags.writeable
            assert F[0] == 0.0 and F[-1] == 1.0
            assert np.all(np.diff(F) >= 0.0)
            with pytest.raises(ValueError, match="read-only"):
                F[1] = 0.5

    def test_unnormalized_histogram_cannot_enter(self):
        # the histogram type itself guards the unit-mass premise
        with pytest.raises(DataError, match="normalized"):
            Histogram(edges=np.array([0.0, 1.0, 2.0, 3.0]), heights=np.array([0.75, 0.0, 0.0]))


class TestEstimatePdf:
    def test_endpoint_densities_vanish_under_clamped(self):
        corpus = generate_corpus(50, seed=3)
        est = estimate_pdf(Samples(flatten_positions(corpus)), BinRule.knuth(), Boundary.CLAMPED)
        lo, hi = est.support
        assert abs(est(lo)) <= 1e-12
        assert abs(est(hi)) <= 1e-12

    def test_uniform_density_recovery(self):
        draws = np.random.default_rng(123).uniform(0.0, 1.0, size=100_000)
        est = estimate_pdf(Samples(draws), BinRule.sturges(), Boundary.NATURAL)
        grid = np.linspace(*est.support, 101)
        assert np.max(np.abs(est(grid) - 1.0)) <= 0.1

    def test_single_bin_natural_is_constant_density(self):
        values = np.array([0.0, 0.3, 1.1, 1.7, 2.0])
        est = estimate_pdf(Samples(values), BinRule.fixed(1), Boundary.NATURAL)
        assert est.support == (0.0, 2.0)
        for u in np.linspace(0.0, 2.0, 15):
            assert est(float(u)) == pytest.approx(0.5, abs=1e-12)

    def test_single_bin_not_a_knot_rejected(self):
        values = np.array([0.0, 0.3, 1.1, 1.7, 2.0])
        with pytest.raises(DataError, match="bins"):
            estimate_pdf(Samples(values), BinRule.fixed(1), Boundary.NOT_A_KNOT)
        with pytest.raises(DataError, match="bins"):
            estimate_pdf(Samples(values), BinRule.fixed(2), Boundary.NOT_A_KNOT)

    def test_unknown_boundary_is_a_data_error(self):
        values = np.array([0.0, 0.3, 1.1, 1.7, 2.0])
        with pytest.raises(DataError, match="^unknown boundary condition 'bogus'$"):
            estimate_pdf(Samples(values), BinRule.fixed(3), "bogus")

    def test_constructor_rejects_an_unknown_boundary(self):
        hist = build_histogram(Samples(np.array([0.0, 0.3, 1.1, 1.7, 2.0])), 3)
        with pytest.raises(DataError, match="^unknown boundary condition 'bogus'$"):
            PdfEstimate(hist, BinRule.fixed(3), "bogus")

    def test_unknown_boundary_is_rejected_before_the_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("the bin count was selected")

        monkeypatch.setattr(estimator_module, "select_bin_count", scan)
        with pytest.raises(DataError, match="^unknown boundary condition 'bogus'$"):
            estimate_pdf(Samples(np.array([0.0, 0.3, 1.1])), BinRule.knuth(), "bogus")

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_per_bin_integrals_match_masses(self, boundary):
        rng = np.random.default_rng(17)
        est = estimate_pdf(Samples(rng.normal(size=2000)), BinRule.sqrt(), boundary)
        masses = np.diff(cumulative_masses(est.histogram))
        assert np.max(np.abs(gauss_bin_masses(est) - masses)) <= 1e-10

    def test_normalization_is_exact_and_simpson_agrees(self):
        rng = np.random.default_rng(21)
        for boundary in ALL_BOUNDARIES:
            est = estimate_pdf(Samples(rng.exponential(size=5000)), BinRule.sturges(), boundary)
            assert est.normalization() == 1.0
            assert quadrature_normalization(est) == pytest.approx(1.0, abs=1e-6)

    def test_pipeline_is_deterministic(self):
        values = np.random.default_rng(33).normal(size=3000)
        a = estimate_pdf(Samples(values), BinRule.knuth(100), Boundary.NATURAL)
        b = estimate_pdf(Samples(values), BinRule.knuth(100), Boundary.NATURAL)
        assert np.array_equal(a.spline.coefficients, b.spline.coefficients)
        assert np.array_equal(cumulative_masses(a.histogram), cumulative_masses(b.histogram))

    def test_composition_matches_manual_pipeline(self):
        values = np.random.default_rng(34).normal(size=1500)
        samples = Samples(values)
        rule = BinRule.sturges()
        est = estimate_pdf(samples, rule, Boundary.NATURAL)
        hist = build_histogram(samples, select_bin_count(samples, rule))
        manual = estimate_from_histogram(hist, rule, Boundary.NATURAL)
        assert np.array_equal(est.spline.coefficients, manual.spline.coefficients)
        assert est.histogram.edges.tobytes() == hist.edges.tobytes()
        assert est.histogram.heights.tobytes() == hist.heights.tobytes()

    def test_metadata(self):
        values = np.random.default_rng(35).normal(size=400)
        est = estimate_pdf(Samples(values), BinRule.fixed(12), Boundary.NOT_A_KNOT)
        assert est.bin_count == 12
        assert est.boundary is Boundary.NOT_A_KNOT
        assert est.rule.label() == "fixed:12"
        assert est.support == (values.min(), values.max())


class TestPdfEvaluation:
    def test_constant_density_on_0_2(self):
        est = estimate_pdf(Samples(np.array([0.0, 0.5, 1.5, 2.0])), BinRule.fixed(1), "natural")
        grid = np.linspace(0.0, 2.0, 9)
        assert est(grid) == pytest.approx(0.5, abs=1e-14)

    def test_out_of_support(self):
        est = estimate_pdf(Samples(np.array([0.0, 1.0, 2.0, 3.0])), BinRule.fixed(3), "natural")
        with pytest.raises(OutOfSupportError):
            est(3.0001)
        with pytest.raises(OutOfSupportError):
            est.cdf(-0.1)

    @pytest.mark.parametrize("evaluate", [
        lambda est: est(np.nan),
        lambda est: est.cdf([0.0, np.nan]),
        lambda est: est.spline.derivative(np.nan, 2),
    ], ids=["density", "cdf", "second-derivative"])
    def test_nan_is_outside_the_support(self, evaluate):
        est = estimate_pdf(Samples(np.array([0.0, 1.0, 2.0, 3.0])), BinRule.fixed(3), "natural")
        with pytest.raises(OutOfSupportError, match=r"evaluation point np.float64\(nan\) outside"):
            evaluate(est)

    @pytest.mark.parametrize("evaluate", [
        lambda est: est(np.array([0.5 + 3j])),
        lambda est: est.cdf(1.5 + 0j),
    ], ids=["density", "cdf"])
    def test_complex_evaluation_points_are_a_data_error(self, evaluate):
        est = estimate_pdf(Samples(np.array([0.0, 1.0, 2.0, 3.0])), BinRule.fixed(3), "natural")
        with pytest.raises(DataError,
                           match="^evaluation points must be real numbers, not complex$"):
            evaluate(est)

    @staticmethod
    def fitted():
        est = estimate_pdf(Samples(np.random.default_rng(43).normal(size=5000)), BinRule.knuth(),
                           "not-a-knot")
        return est.spline, [(est.cdf, 0), (est, 1)]

    @staticmethod
    def constructed():
        model = CubicSplineModel(knots=[0.0, 0.5, 2.0, 2.25], boundary="natural",
                                 coefficients=[[0.0, 0.1, 0.7, -0.3], [0.2, 0.5, -0.2, 0.4],
                                               [0.9, 0.3, 0.1, -0.05]])
        return model, [(model, 0), (model.derivative, 1)]

    @pytest.mark.parametrize("build", ["fitted", "constructed"])
    def test_evaluation_keeps_the_bits_of_the_row_formula(self, build):
        model, evaluations = getattr(self, build)()
        evaluations += [(lambda u: model.derivative(u, order=2), 2),
                        (lambda u: model.derivative(u, order=3), 3)]

        def row_formula(u, order):
            # the segment rows gathered as coefficients[idx]
            u = np.asarray(u, dtype=float)
            idx = np.clip(np.searchsorted(model.knots, u, side="right") - 1, 0,
                          model.knots.size - 2)
            s = u - model.knots[idx]
            c0, c1, c2, c3 = model.coefficients[idx].T
            return (c0 + s * (c1 + s * (c2 + s * c3)), c1 + s * (2.0 * c2 + 3.0 * c3 * s),
                    2.0 * c2 + 6.0 * c3 * s, 6.0 * c3 + 0.0 * s)[order]

        lo, hi = model.support
        grid = np.concatenate((np.linspace(lo, hi, 10_001), model.knots))
        for evaluate, order in evaluations:
            for u in (grid, float(grid[1234]), float(model.knots[1]), hi):
                got, expected = evaluate(u), row_formula(u, order)
                assert type(got) is (float if np.ndim(u) == 0 else np.ndarray)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_cdf_recovers_profile(self):
        rng = np.random.default_rng(40)
        est = estimate_pdf(Samples(rng.normal(size=1000)), BinRule.sqrt(), "natural")
        F = cumulative_masses(est.histogram)
        assert est.cdf(est.histogram.edges) == pytest.approx(F, abs=1e-12)

    def test_simpson_integral_is_one(self):
        rng = np.random.default_rng(41)
        est = estimate_pdf(Samples(rng.normal(size=20_000)), BinRule.sturges(), "not-a-knot")
        assert quadrature_normalization(est) == pytest.approx(1.0, abs=1e-6)

    def test_simpson_matches_scipy(self):
        rng = np.random.default_rng(42)
        est = estimate_pdf(Samples(rng.lognormal(size=5000)), BinRule.knuth(), "not-a-knot")
        u = np.linspace(*est.support, 10_001)
        assert quadrature_normalization(est) == float(simpson(est(u), x=u))

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    @pytest.mark.parametrize("kind", ["grid-hits-every-knot", "support-a-few-ulps-wide"])
    def test_simpson_matches_scipy_on_knot_and_narrow_grids(self, kind, boundary):
        if kind == "grid-hits-every-knot":
            # integers 0..10000 in 100 bins: the grid's step of 1 lands on
            # every knot, which starts the run of its right-hand segment
            values = np.random.default_rng(43).integers(0, 10_001, size=5000).astype(float)
            values[:2] = 0.0, 10_000.0
            bins = 100
        else:
            # 6 values 5 ulps apart: most of the grid's spacings are 0
            values = 52.49195437421315 + np.arange(6) * np.spacing(52.49195437421315)
            bins = 3
        est = estimate_pdf(Samples(values), BinRule.fixed(bins), boundary)
        u = np.linspace(*est.support, 10_001)
        if kind == "grid-hits-every-knot":
            assert np.isin(est.spline.knots, u).all()
        else:
            assert np.count_nonzero(np.diff(u) == 0.0) > 9000
        density = est(u)
        assert np.array_equal(estimator_module._density_on_grid(est.spline, u), density)
        assert quadrature_normalization(est) == float(simpson(density, x=u))

    def test_simpson_near_the_float_limit(self):
        # the products of neighbouring spacings, about 5e607, overflow
        values = np.array([1e308, 1.7e308, 1.5e308, 1.2e308])
        est = estimate_pdf(Samples(values), BinRule.fixed(2), "natural")
        assert quadrature_normalization(est) == pytest.approx(1.0, abs=1e-12)

    def test_density_tracks_neighbor_heights_on_smooth_data(self):
        # pdf at a bin center should usually sit between the adjacent
        # bin heights; the seeded fraction is pinned with margin
        draws = np.random.default_rng(7).normal(size=100_000)
        est = estimate_pdf(Samples(draws), BinRule.sturges(), "natural")
        hist = build_histogram(Samples(draws), est.bin_count)
        edges, heights = hist.edges, hist.heights
        values = est(0.5 * (edges[:-1] + edges[1:]))
        inside = sum(
            min(heights[i - 1], heights[i + 1]) <= values[i] <= max(heights[i - 1], heights[i + 1])
            for i in range(1, len(heights) - 1)
        )
        assert inside / (len(heights) - 2) >= 0.9

    def test_min_density_matches_dense_grid(self):
        rng = np.random.default_rng(42)
        est = estimate_pdf(Samples(rng.normal(size=5000)), BinRule.sqrt(), "not-a-knot")
        grid = np.linspace(*est.support, 200_001)
        grid_min = float(np.min(est(grid)))
        assert est.min_density() <= grid_min + 1e-15
        assert est.min_density() == pytest.approx(grid_min, abs=1e-6)

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_min_density_equals_segment_loop(self, boundary):
        # reference: the per-segment scan of ends and upward-parabola vertices
        def loop_min(est):
            lowest = np.inf
            h = np.diff(est.spline.knots)
            for i, (_, c1, c2, c3) in enumerate(est.spline.coefficients):
                lowest = min(lowest, c1, c1 + h[i] * (2.0 * c2 + 3.0 * c3 * h[i]))
                if c3 > 0.0:
                    s = -c2 / (3.0 * c3)
                    if 0.0 < s < h[i]:
                        lowest = min(lowest, c1 + s * (2.0 * c2 + 3.0 * c3 * s))
            return float(lowest)

        rng = np.random.default_rng(77)
        draws = (rng.normal(size=3000), rng.standard_cauchy(size=3000), rng.uniform(size=300))
        for values in draws:
            for rule in (BinRule.sturges(), BinRule.fixed(250), BinRule.fixed(3)):
                est = estimate_pdf(Samples(values), rule, boundary)
                assert est.min_density() == loop_min(est)


class TestKlDivergence:
    def test_identical_arguments_give_zero(self):
        rng = np.random.default_rng(50)
        est = estimate_pdf(Samples(rng.normal(size=2000)), BinRule.sturges(), "natural")
        assert kl_divergence(est, est) == 0.0

    def test_same_family_estimates_are_close(self):
        a = np.random.default_rng(123).uniform(0.0, 1.0, size=100_000)
        b = np.random.default_rng(456).uniform(0.0, 1.0, size=100_000)
        est_a = estimate_pdf(Samples(a), BinRule.sturges(), "natural")
        est_b = estimate_pdf(Samples(b), BinRule.sturges(), "natural")
        value = kl_divergence(est_a, est_b)
        assert 0.0 <= value <= 0.05

    def test_asymmetry_on_shared_support(self):
        skewed = np.random.default_rng(9).beta(2.0, 5.0, size=100_000)
        flat = np.random.default_rng(123).uniform(0.0, 1.0, size=100_000)
        est_s = estimate_pdf(Samples(skewed), BinRule.sturges(), "natural")
        est_f = estimate_pdf(Samples(flat), BinRule.sturges(), "natural")
        forward = kl_divergence(est_s, est_f)
        backward = kl_divergence(est_f, est_s)
        assert forward > 0.0 and backward > 0.0
        assert abs(forward - backward) > 0.1

    def test_recovers_gaussian_truth(self):
        draws = np.random.default_rng(2024).normal(size=100_000)
        est = estimate_pdf(Samples(draws), BinRule.knuth(), "not-a-knot")
        grid = np.linspace(*est.support, 1001)
        p = norm.pdf(grid)
        q = np.maximum(est(grid), 1e-12)
        kl = float(np.trapezoid(np.maximum(p, 1e-12) * np.log(np.maximum(p, 1e-12) / q), grid))
        assert 0.0 <= kl <= 0.01

    def test_disjoint_supports(self):
        a = estimate_pdf(Samples(np.linspace(0.0, 1.0, 50)), BinRule.fixed(5), "natural")
        b = estimate_pdf(Samples(np.linspace(5.0, 6.0, 50)), BinRule.fixed(5), "natural")
        with pytest.raises(DisjointSupportsError):
            kl_divergence(a, b)

    def test_grid_validation(self):
        rng = np.random.default_rng(51)
        est = estimate_pdf(Samples(rng.normal(size=500)), BinRule.sqrt(), "natural")
        with pytest.raises(DataError, match="grid_size"):
            kl_divergence(est, est, grid_size=1)

    def test_oversized_grids_are_rejected_before_allocation(self):
        # uncapped, the grid is a 7.28 TiB np.linspace
        est = estimate_pdf(Samples(np.random.default_rng(51).normal(size=500)),
                           BinRule.sqrt(), "natural")
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="grid_size must be in 2..1000000"):
                kl_divergence(est, est, grid_size=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_grid_size_is_checked_before_the_supports(self):
        a = estimate_pdf(Samples(np.linspace(0.0, 1.0, 50)), BinRule.fixed(5), "natural")
        b = estimate_pdf(Samples(np.linspace(5.0, 6.0, 50)), BinRule.fixed(5), "natural")
        with pytest.raises(DataError, match="grid_size"):
            kl_divergence(a, b, grid_size=MAX_GRID_SIZE + 1)

    def test_sizes_must_be_integers(self):
        est = estimate_pdf(Samples(np.random.default_rng(52).normal(size=500)),
                           BinRule.sqrt(), "natural")
        with pytest.raises(DataError, match="grid_size must be an integer, got 1001.0$"):
            kl_divergence(est, est, 1001.0)
        with pytest.raises(DataError, match="grid_size must be an integer, got 512.0$"):
            count_turning_points(est, 512.0)
        # numpy integers are sizes too
        assert kl_divergence(est, est, np.int64(1001)) == 0.0
        assert count_turning_points(est, np.int64(1001)) == count_turning_points(est)

    @pytest.mark.parametrize("u, p_vals, q_vals", [
        ([0.0, 1.0], [1 + 1j, 1.0], [1.0, 1.0]),
        ([0.0, 1.0], [1.0, 1.0], np.array([1.0, 1.0 + 0j])),
        (np.array([0.0, 1j]), [1.0, 1.0], [1.0, 1.0]),
    ], ids=["p", "q", "grid"])
    def test_complex_grid_kl_inputs_are_a_data_error(self, u, p_vals, q_vals):
        # the casts to float would drop the imaginary parts: 0.0, with a warning
        with pytest.raises(DataError, match="^grid and densities must be real numbers, not complex$"):
            estimator_module.grid_kl(u, p_vals, q_vals)

    def test_grid_cap_itself_is_accepted(self):
        est = estimate_pdf(Samples(np.random.default_rng(51).normal(size=500)),
                           BinRule.sqrt(), "natural")
        assert kl_divergence(est, est, grid_size=MAX_GRID_SIZE) == 0.0


class TestTurningPoints:
    def test_constant_density_has_none(self):
        est = estimate_pdf(Samples(np.array([0.0, 1.0, 2.0])), BinRule.fixed(1), "natural")
        assert count_turning_points(est) == 0

    def test_noise_free_bell_curve_has_two(self):
        # histogram with the exact Gaussian bin masses: the only curvature
        # sign changes left are the true inflections at +-1 sigma
        for bins in (12, 16, 24, 32):
            edges = np.linspace(-4.0, 4.0, bins + 1)
            masses = np.diff(norm.cdf(edges))
            masses /= masses.sum()
            hist = Histogram(edges=edges, heights=masses / np.diff(edges))
            est = estimate_from_histogram(hist, BinRule.fixed(bins), "natural")
            assert count_turning_points(est) == 2

    def test_sampled_gaussian_regression(self):
        # sampling noise at Knuth's bin count flips curvature segment to
        # segment; the seeded count is pinned as a regression
        draws = np.random.default_rng(2024).normal(size=100_000)
        est = estimate_pdf(Samples(draws), BinRule.knuth(), "natural")
        assert count_turning_points(est) == 36

    def test_natural_oscillates_at_least_as_much_as_not_a_knot(self):
        corpus = generate_corpus(200, seed=11)
        samples = Samples(flatten_positions(corpus))
        natural = count_turning_points(estimate_pdf(samples, BinRule.knuth(), "natural"))
        nak = count_turning_points(estimate_pdf(samples, BinRule.knuth(), "not-a-knot"))
        assert natural >= nak
        assert (natural, nak) == (39, 37)  # pinned regression, seed 11

    def test_grid_validation(self):
        est = estimate_pdf(Samples(np.array([0.0, 1.0, 2.0])), BinRule.fixed(1), "natural")
        with pytest.raises(DataError, match="grid_size"):
            count_turning_points(est, grid_size=2)


class TestOneArrayOneCheck:
    """An estimate holds each array once and checks its edges twice: in
    Histogram and in the fit's check of its public inputs."""

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_spline_knots_are_the_histogram_edges(self, boundary):
        draws = np.random.default_rng(5).normal(size=2000)
        est = estimate_pdf(Samples(draws), BinRule.sturges(), boundary)
        assert est.spline.knots is est.histogram.edges

    def test_fitted_spline_is_not_checked_again(self, monkeypatch):
        def refuse(model):
            raise AssertionError("CubicSplineModel.__post_init__ ran")

        monkeypatch.setattr(CubicSplineModel, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="__post_init__ ran"):
            CubicSplineModel(knots=np.array([0.0, 1.0]), coefficients=np.zeros((1, 4)),
                             boundary="natural")
        draws = np.random.default_rng(6).normal(size=2000)
        est = estimate_pdf(Samples(draws), BinRule.knuth(), "not-a-knot")
        assert isinstance(est.spline, CubicSplineModel)

    def test_edges_are_checked_twice(self, monkeypatch):
        checked, check = [], histogram_module._checked_knots

        def counting(values, name, strict=True):
            checked.append(name)
            return check(values, name, strict)

        for module in (histogram_module, spline_module):
            monkeypatch.setattr(module, "_checked_knots", counting)
        estimate_pdf(Samples(np.random.default_rng(7).normal(size=2000)), BinRule.scott(),
                     "clamped")
        assert checked == ["edges", "x"]


def test_array_holding_values_compare_and_hash_by_identity():
    # generated field-wise equality raised on the arrays; hashing raised too
    samples = Samples(np.array([0.0, 1.0, 2.0]))
    hist = build_histogram(samples, 2)
    est = estimate_from_histogram(hist, BinRule.fixed(2), "natural")
    pairs = [
        (samples, Samples(np.array([0.0, 1.0, 2.0]))),
        (hist, build_histogram(samples, 2)),
        (est, PdfEstimate(hist, BinRule.fixed(2), "natural")),
        (est.spline, PdfEstimate(hist, BinRule.fixed(2), "natural").spline),
        (generate_corpus(1, seed=0)[0], generate_corpus(1, seed=0)[0]),
    ]
    for value, twin in pairs:
        assert value == value and value != twin
        assert hash(value) == hash(value)
        assert len({value, twin}) == 2


def _unit_estimate():
    return estimate_pdf(Samples(np.array([0.0, 1.0, 2.0, 3.0])), BinRule.fixed(3), "natural")


_BASIS_KNOTS = [0, 0, 0, 1, 2, 3, 3, 3]


# every entry point of the one real-number cast: numpy's reason stays in the
# message, and what it would cast but the rule rejects is named by its type
@pytest.mark.parametrize("build, name, reason", [
    (lambda: Samples([1, 2**1100]), "values", "int too large to convert to float"),
    (lambda: Samples([object(), 1]), "values", "float() argument must be"),
    (lambda: Samples([[1, 2], [3]]), "values", "setting an array element with a sequence"),
    (lambda: Histogram([0, 2**1100], [1.0]), "values", "int too large to convert to float"),
    (lambda: Histogram([0, 1], ["a"]), "values", "could not convert string to float: 'a'"),
    (lambda: fit_interpolating_spline(["a", "b", "c"], [0, 1, 2], "natural"), "values",
     "could not convert string to float: 'a'"),
    (lambda: fit_interpolating_spline([0, 1, 2], ["a", "b", "c"], "natural"), "values",
     "could not convert string to float: 'a'"),
    (lambda: CubicSplineModel([0, 1], [[0, 1, 0, "a"]], "natural"), "values",
     "could not convert string to float: 'a'"),
    (lambda: TimeSeries(["a", "b"], [0, 1]), "values", "could not convert string to float"),
    (lambda: _unit_estimate().spline("a"), "evaluation points",
     "could not convert string to float: 'a'"),
    (lambda: _unit_estimate().spline(2**1100), "evaluation points",
     "int too large to convert to float"),
    (lambda: _unit_estimate().spline.derivative([[1], [1, 2]]), "evaluation points",
     "setting an array element with a sequence"),
    (lambda: _unit_estimate()("a"), "evaluation points", "could not convert string to float"),
    (lambda: _unit_estimate().cdf(2**1100), "evaluation points",
     "int too large to convert to float"),
    (lambda: estimator_module.grid_kl(["a", "b"], [1, 1], [1, 1]), "grid and densities",
     "could not convert string to float: 'a'"),
    (lambda: estimator_module.grid_kl([0, 1], [1, 2**1100], [1, 1]), "grid and densities",
     "int too large to convert to float"),
    (lambda: knuth_log_posterior(["1"], 1), "counts", ", not str"),
    (lambda: knuth_log_posterior([True], 1), "counts", ", not bool"),
    (lambda: bspline_basis(0, 2, _BASIS_KNOTS, "a"), "u", "could not convert string to float"),
    (lambda: bspline_basis(0, 2, _BASIS_KNOTS, 2**1100), "u", "int too large to convert to float"),
    (lambda: bspline_basis(0, 2, _BASIS_KNOTS, 1j), "u", ", not complex"),
    (lambda: Samples([True, False]), "values", ", not bool"),
    (lambda: Samples(["1.5", "2"]), "values", ", not str"),
    (lambda: Histogram([0, 1], np.array([True])), "values", ", not bool"),
], ids=["samples-huge-int", "samples-object", "samples-ragged", "histogram-huge-int",
        "histogram-str", "fit-x-str", "fit-F-str", "model-str", "timeseries-str", "spline-str",
        "spline-huge-int", "derivative-ragged", "pdf-str", "cdf-huge-int", "grid-kl-str",
        "grid-kl-huge-int", "knuth-numeric-str", "knuth-bool", "basis-str", "basis-huge-int",
        "basis-complex", "samples-bool", "samples-numeric-str", "histogram-bool"])
def test_non_numeric_array_input_is_a_data_error(build, name, reason):
    # numpy's reason in parentheses, or the type that the rule rejects
    tail = reason if reason.startswith(", not ") else f" ({reason}"
    with pytest.raises(DataError, match=f"^{name} must be real numbers{re.escape(tail)}"):
        build()
